"""Objective functions and numerical complementarity checks.

A payoff maps ``(common path values, idiosyncratic path values, crowd
measure, date) -> reward`` and is called as ``evaluate(b_row, w_row, m,
k)``: the date is its grid index ``k``, a Python ``int`` in ``0..K``, and
the crowd ``m`` is a :class:`GridMeasure`, read by index too.
Capability flags describe how it reads its arguments so the solvers can
collapse the averaging they do not need:

* ``measure_mode``   -- how the crowd measure enters (mass strictly
  before the date, a kernel convolution, or arbitrarily),
* ``path_mode``      -- spot values at the date, the prefix up to it,
  or the whole path,
* ``w_dependent``    -- whether the idiosyncratic path matters at all,
* ``measure_past_only`` -- the measure is only read at dates <= t_k, so
  node-conditional expectations need no future-path averaging.

A payoff may also carry an array kernel, ``evaluate_layer(k, b_ids,
w_ids, cdf) -> ndarray``: the values at date ``k`` of many atoms at
once.  ``b_ids`` and ``w_ids`` are int64 path ids, one per atom, and
``cdf`` is a ``(2**K, K+1)`` table whose row ``b`` is the crowd's CDF
along common path ``b`` (``AdaptedMeasure.cdf``); the kernel gathers
only the entries it reads, such as ``cdf[b_ids, k - 1]``.  Its values
must equal ``evaluate``'s bit for bit, with row ``b`` standing for the
crowd measure, and it must not call ``evaluate``.  The engine calls the
kernel once per layer; a payoff without one (``evaluate_layer=None``,
the default for user payoffs) goes through a scalar adapter that calls
``evaluate`` once per atom, with ``GridMeasure.from_cdf(cdf[b])`` as
the crowd.  A payoff with a kernel may leave ``evaluate=None``, as the
n-player field payoffs do; one with neither is rejected.  The bank-run,
crowd-fraction and constant payoffs have kernels; the diffusion and
crowd-discount payoffs do not.

Evaluators must be pure; everything here is safe to call concurrently.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._expect import layer_values, stop_reward_layers
from .lattice import AdaptedMeasure, GridMeasure, LatticeModel, stochastic_leq
from .trees import (InfoTree, StoppingRule, conditional_law, enumerate_rules,
                    full_tree, public_tree, random_rule)

INEQ_TOL = 1e-9


class MeasureMode(enum.Enum):
    CDF_AT_T = "cdf_at_t"
    CONVOLUTION = "convolution"
    GENERAL = "general"


class PathMode(enum.Enum):
    SPOT_AT_T = "spot_at_t"
    PREFIX_TO_T = "prefix_to_t"
    FULL_PATH = "full_path"


@dataclass(frozen=True)
class PayoffSpec:
    """A pluggable objective with declared capabilities and bound."""

    evaluate: Optional[Callable[[np.ndarray, np.ndarray, GridMeasure, int], float]]
    measure_mode: MeasureMode
    path_mode: PathMode
    bound: float
    w_dependent: bool = True
    measure_past_only: bool = False
    label: str = ""
    evaluate_layer: Optional[Callable[[int, np.ndarray, np.ndarray, np.ndarray],
                                      np.ndarray]] = None

    def __post_init__(self):
        if self.bound <= 0:
            raise ValueError("bound must be positive")
        if self.evaluate is None and self.evaluate_layer is None:
            raise ValueError("a payoff needs evaluate or evaluate_layer")

    @property
    def past_measure_only(self) -> bool:
        return self.measure_mode is MeasureMode.CDF_AT_T or self.measure_past_only

    @property
    def reads_full_path(self) -> bool:
        return self.path_mode is PathMode.FULL_PATH


# ---------------------------------------------------------------------------
# payoff families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BankRunParams:
    """Deposit-withdrawal reward: promised rate, safe rate, liquidation map."""

    rbar: float
    r: float
    liquidation: Callable[[float], float]
    d0: float = 1.0

    def __post_init__(self):
        if self.rbar <= self.r:
            raise ValueError("rbar must exceed r")
        if self.d0 <= 0:
            raise ValueError("d0 must be positive")


def bankrun_payoff(p: BankRunParams, lat: LatticeModel,
                   closed_interval: bool = False) -> PayoffSpec:
    """Reward of withdrawing at t: growth factor times the recoverable claim.

    The claim is ``d0 min (L(B_t) - crowd)^+`` where the crowd is the
    mass of earlier withdrawals; by default that is the mass strictly
    before t (a simultaneous atom does not crowd you out), and
    ``closed_interval=True`` switches to the closed read for
    sensitivity runs.
    """
    rho = p.rbar - p.r
    liq, d0 = p.liquidation, p.d0
    growth = [math.exp(rho * t) for t in lat.grid.tolist()]

    def evaluate(b, w, m, k):
        crowd = m.mass_upto(k) if closed_interval else m.mass_before(k)
        claim = liq(b[k]) - crowd
        if claim < 0.0:
            claim = 0.0
        return growth[k] * (d0 if claim > d0 else claim)

    # L(B_k) per k-step prefix (B_k reads the first k steps of the path),
    # with one call of L per distinct value
    liq_at = []
    for k in range(lat.steps + 1):
        values, where = np.unique(lat.b_values[:1 << k, k], return_inverse=True)
        liq_at.append(np.array([liq(v) for v in values])[where])

    def evaluate_layer(k, b_ids, w_ids, cdf):
        if closed_interval:
            crowd = cdf[b_ids, k]
        else:
            crowd = cdf[b_ids, k - 1] if k > 0 else 0.0
        claim = liq_at[k][b_ids & ((1 << k) - 1)] - crowd
        claim = np.where(claim < 0.0, 0.0, claim)
        return growth[k] * np.where(claim > d0, d0, claim)

    mode = MeasureMode.GENERAL if closed_interval else MeasureMode.CDF_AT_T
    return PayoffSpec(evaluate, mode, PathMode.SPOT_AT_T,
                      bound=math.exp(rho * lat.horizon) * d0,
                      w_dependent=False, measure_past_only=True,
                      label="bankrun" + ("-closed" if closed_interval else ""),
                      evaluate_layer=evaluate_layer)


@dataclass(frozen=True)
class CrowdDiscountParams:
    """Compounded growth eroded by both noises and by the crowd share."""

    r: float
    c: float

    def __post_init__(self):
        if self.r <= 0 or self.c <= 0:
            raise ValueError("r and c must be positive")


def crowd_discount_payoff(p: CrowdDiscountParams, lat: LatticeModel) -> PayoffSpec:
    """exp of a left-endpoint sum of (r - B - W - c * crowd[0, s]) over s < t.

    The infinite-horizon original is truncated to the lattice horizon.
    Values are clamped at the declared bound (with a warning) as an
    overflow guard.
    """
    dt = lat.dt
    max_rate = p.r + abs(lat.b0) + lat.steps * lat.db + lat.steps * lat.dw
    bound = math.exp(max(max_rate, 0.0) * lat.horizon)

    def evaluate(b, w, m, k):
        if k == 0:
            return 1.0
        acc = dt * float(np.sum(p.r - b[:k] - w[:k] - p.c * m.cdf[:k]))
        val = math.exp(acc)
        if val > bound:
            warnings.warn("crowd_discount value clamped at declared bound")
            return bound
        return val

    return PayoffSpec(evaluate, MeasureMode.GENERAL, PathMode.PREFIX_TO_T,
                      bound=bound, w_dependent=True, measure_past_only=True,
                      label="crowd_discount")


@dataclass(frozen=True)
class DiffusionPayoffParams:
    """Spot function of the common value and a kernel-smoothed crowd."""

    f: Callable[[float, float, float], float]
    phi: Callable[[float], float]
    f_bound: float

    def __post_init__(self):
        if self.f_bound <= 0:
            raise ValueError("f_bound must be positive")


def diffusion_payoff(p: DiffusionPayoffParams, lat: LatticeModel) -> PayoffSpec:
    """``f(B_t, (phi * m)(t), t)`` with the kernel sampled on grid offsets."""
    K = lat.steps
    table = np.array([[p.phi(float((k - j) * lat.dt)) for j in range(K + 1)]
                      for k in range(K + 1)])
    if not np.all(np.isfinite(table)):
        raise ValueError("kernel must be finite on all grid offsets")
    times = lat.grid.tolist()

    def evaluate(b, w, m, k):
        conv = float(table[k] @ m.mass)
        return p.f(float(b[k]), conv, times[k])

    return PayoffSpec(evaluate, MeasureMode.CONVOLUTION, PathMode.SPOT_AT_T,
                      bound=p.f_bound, w_dependent=False, label="diffusion")


def constant_payoff(c: float, lat: LatticeModel) -> PayoffSpec:
    def evaluate_layer(k, b_ids, w_ids, cdf):
        return np.full(len(b_ids), c, dtype=float)

    return PayoffSpec(lambda b, w, m, k: c, MeasureMode.CDF_AT_T,
                      PathMode.SPOT_AT_T, bound=max(abs(c), 1.0),
                      w_dependent=False, label=f"constant({c})",
                      evaluate_layer=evaluate_layer)


def crowd_fraction_payoff(lat: LatticeModel) -> PayoffSpec:
    """The crowd share already stopped, ``F = m[0, t)``.

    The canonical payoff that cannot have increasing differences unless
    constant; used as the negative control for the checkers.
    """
    def evaluate_layer(k, b_ids, w_ids, cdf):
        return cdf[b_ids, k - 1] if k > 0 else np.zeros(len(b_ids))

    return PayoffSpec(lambda b, w, m, k: m.mass_before(k),
                      MeasureMode.CDF_AT_T, PathMode.SPOT_AT_T, bound=1.0,
                      w_dependent=False, label="crowd_fraction",
                      evaluate_layer=evaluate_layer)


# ---------------------------------------------------------------------------
# exact expected reward
# ---------------------------------------------------------------------------


def evaluate_J(payoff: PayoffSpec, mu: AdaptedMeasure, rule: StoppingRule,
               lat: LatticeModel) -> float:
    """Exact expected reward of following ``rule`` against crowd ``mu``.

    The expectation runs over all 4**K joint paths.  It is a sum of
    ``count * value`` terms in common-path order: one term per joint path
    for w-dependent payoffs, else one per (common path, stop date) with
    the number of idiosyncratic paths stopping then, an exact regrouping.
    Values come a date at a time from the payoff's layer kernel (or its
    scalar adapter), and the terms are added one by one in that order.
    """
    if rule.tree.lat != lat or mu.lat != lat:
        raise ValueError("lattice mismatch")
    steps = rule.stop_steps()
    n, kk = lat.num_paths, lat.steps + 1
    if payoff.w_dependent:
        width = n
        dates = np.broadcast_to(steps, (n, n)).astype(np.int64).ravel()
        b_ids = np.repeat(lat.path_ids, n)
        w_ids = np.tile(lat.path_ids, n)
        counts = np.ones(n * n, dtype=np.int64)
    else:
        width = steps.shape[1]
        flat = steps.astype(np.int64) + kk * lat.path_ids[:, None]
        table = np.bincount(flat.ravel(), minlength=n * kk)
        cells = np.nonzero(table)[0]
        b_ids, dates = np.divmod(cells, kk)
        w_ids = np.zeros(len(cells), dtype=np.int64)
        counts = table[cells]
    values = layer_values(payoff, lat)
    vals = np.empty(len(dates))
    for k in np.unique(dates).tolist():
        at = np.nonzero(dates == k)[0]
        vals[at] = values(k, b_ids[at], w_ids[at], mu.cdf)
    # a running sum adds the terms in order; ndarray.sum would add pairwise
    total = np.cumsum(np.concatenate(([0.0], counts * vals)))[-1]
    return float(total / (n * width))


# ---------------------------------------------------------------------------
# ordered samplers
# ---------------------------------------------------------------------------


def _prefix_group_mean(lat: LatticeModel, arr: np.ndarray) -> np.ndarray:
    """Average each column over paths sharing the prefix -> adapted array."""
    out = np.empty_like(arr)
    ids = lat.path_ids
    for k in range(lat.steps + 1):
        key = ids & ((1 << k) - 1)
        sums = np.bincount(key, weights=arr[:, k], minlength=1 << k)
        cnts = np.bincount(key, minlength=1 << k)
        out[:, k] = (sums / cnts)[key]
    return out


def _default_check_tree(lat: LatticeModel) -> InfoTree:
    """The checkers' tree: the full tree on small lattices, else the public tree."""
    return full_tree(lat) if lat.steps <= 5 else public_tree(lat)


def sample_ordered_measures(lat: LatticeModel, rng: np.random.Generator,
                            tree: Optional[InfoTree] = None
                            ) -> tuple[AdaptedMeasure, AdaptedMeasure]:
    """Draw an ordered pair ``early <= late`` of adapted measures.

    ``late`` is the conditional law of a random rule; ``early`` pushes
    its CDF up by adapted multiplicative bumps clamped to [0, 1], which
    preserves adaptedness and covers non-comonotone ordered pairs.
    """
    if tree is None:
        tree = _default_check_tree(lat)
    late = conditional_law(random_rule(tree, rng, p_stop=float(rng.uniform(0.1, 0.5))))
    bumps = _prefix_group_mean(lat, rng.exponential(0.6, size=late.cdf.shape))
    cdf = np.minimum(1.0, late.cdf * (1.0 + bumps))
    cdf = np.maximum.accumulate(cdf, axis=1)
    cdf[:, -1] = 1.0
    early = AdaptedMeasure(lat, cdf)
    return early, late


def sample_ordered_rules(tree: InfoTree, rng: np.random.Generator
                         ) -> tuple[StoppingRule, StoppingRule]:
    """Draw rules ``early <= late`` pointwise (extra stops added to late)."""
    late = random_rule(tree, rng, p_stop=float(rng.uniform(0.1, 0.5)))
    extra = rng.random(tree.num_nodes) < float(rng.uniform(0.1, 0.5))
    early = StoppingRule(tree, late.decision | extra)
    return early, late


# ---------------------------------------------------------------------------
# increasing-differences checker
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderViolation:
    mu: AdaptedMeasure
    mu_tilde: AdaptedMeasure
    tau: StoppingRule
    tau_tilde: StoppingRule
    lhs: float
    rhs: float


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    violation: Optional[OrderViolation]
    trials: int


def _id_gap(payoff, early_mu, late_mu, early_rule, late_rule, lat):
    lhs = (evaluate_J(payoff, late_mu, late_rule, lat)
           - evaluate_J(payoff, late_mu, early_rule, lat))
    rhs = (evaluate_J(payoff, early_mu, late_rule, lat)
           - evaluate_J(payoff, early_mu, early_rule, lat))
    return lhs, rhs


def check_increasing_differences(payoff: PayoffSpec, lat: LatticeModel,
                                 trials: int, seed: int,
                                 tree: Optional[InfoTree] = None) -> CheckReport:
    """Sample ordered measure/rule pairs and test the gain-from-waiting order.

    The expected gain from stopping later must not shrink when the
    crowd stops later.  Sampling evidence only: exhausting the trials
    without a violation does not prove the property.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if tree is None:
        tree = _default_check_tree(lat)
    rng = np.random.default_rng(seed)
    for i in range(trials):
        early_mu, late_mu = sample_ordered_measures(lat, rng, tree)
        early_rule, late_rule = sample_ordered_rules(tree, rng)
        lhs, rhs = _id_gap(payoff, early_mu, late_mu, early_rule, late_rule, lat)
        if lhs < rhs - INEQ_TOL:
            return CheckReport(False, OrderViolation(
                early_mu, late_mu, early_rule, late_rule, lhs, rhs), i + 1)
    return CheckReport(True, None, trials)


def exhaustive_increasing_differences(payoff: PayoffSpec, lat: LatticeModel,
                                      tree: InfoTree) -> CheckReport:
    """Exhaust every ordered quadruple over the tree's canonical rules.

    Measures range over the conditional laws of all rules; stopping
    times over all rules.  Feasible only on tiny lattices.
    """
    rules = list(enumerate_rules(tree))
    laws = [conditional_law(r) for r in rules]
    j_table = np.array([[evaluate_J(payoff, law, r, lat) for r in rules]
                        for law in laws])
    checked = 0
    for a, mu_a in enumerate(laws):
        for b, mu_b in enumerate(laws):
            if not stochastic_leq(mu_a, mu_b):
                continue
            for x, rx in enumerate(rules):
                for y, ry in enumerate(rules):
                    if not rx.pointwise_leq(ry):
                        continue
                    checked += 1
                    lhs = j_table[b, y] - j_table[b, x]
                    rhs = j_table[a, y] - j_table[a, x]
                    if lhs < rhs - INEQ_TOL:
                        return CheckReport(False, OrderViolation(
                            mu_a, mu_b, rx, ry, lhs, rhs), checked)
    return CheckReport(True, None, checked)


# ---------------------------------------------------------------------------
# submartingale checker
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubmartingaleReport:
    passed: bool
    worst_gap: float
    node: Optional[tuple[int, int]]  # (layer, local) of the worst node


def check_submartingale(payoff: PayoffSpec, mu: AdaptedMeasure,
                        mu_tilde: AdaptedMeasure, lat: LatticeModel
                        ) -> SubmartingaleReport:
    """Check the crowd-difference process drifts up on the joint tree.

    With ``mu <= mu_tilde`` (the second stops later), the difference
    ``M_t = F(mu_tilde, t) - F(mu, t)`` must satisfy
    ``E[M_{t+dt} | node] >= M_t(node)`` at every joint-tree node; for
    payoffs that read future information, M is taken as the node-
    conditional expectation of the difference.
    """
    if not stochastic_leq(mu, mu_tilde):
        raise ValueError("pair not stochastically ordered")
    tree = full_tree(lat)
    late = stop_reward_layers(payoff, mu_tilde, tree)
    early = stop_reward_layers(payoff, mu, tree)
    m_layers = [lt - er for lt, er in zip(late, early)]
    worst = math.inf
    worst_node = None
    for k in range(lat.steps):
        drift = tree.continuation(k, m_layers[k + 1]) - m_layers[k]
        j = int(np.argmin(drift))
        if drift[j] < worst:
            worst = float(drift[j])
            worst_node = (k, j)
    return SubmartingaleReport(worst >= -INEQ_TOL, worst, worst_node)

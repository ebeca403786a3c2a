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

Evaluators must be pure; everything here is safe to call concurrently.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._expect import stop_reward_layers
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

    evaluate: Callable[[np.ndarray, np.ndarray, GridMeasure, int], float]
    measure_mode: MeasureMode
    path_mode: PathMode
    bound: float
    w_dependent: bool = True
    measure_past_only: bool = False
    label: str = ""

    def __post_init__(self):
        if self.bound <= 0:
            raise ValueError("bound must be positive")

    @property
    def past_measure_only(self) -> bool:
        return self.measure_mode is MeasureMode.CDF_AT_T or self.measure_past_only


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

    mode = MeasureMode.GENERAL if closed_interval else MeasureMode.CDF_AT_T
    return PayoffSpec(evaluate, mode, PathMode.SPOT_AT_T,
                      bound=math.exp(rho * lat.horizon) * d0,
                      w_dependent=False, measure_past_only=True,
                      label="bankrun" + ("-closed" if closed_interval else ""))


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
    return PayoffSpec(lambda b, w, m, k: c, MeasureMode.CDF_AT_T,
                      PathMode.SPOT_AT_T, bound=max(abs(c), 1.0),
                      w_dependent=False, label=f"constant({c})")


def crowd_fraction_payoff(lat: LatticeModel) -> PayoffSpec:
    """The crowd share already stopped, ``F = m[0, t)``.

    The canonical payoff that cannot have increasing differences unless
    constant; used as the negative control for the checkers.
    """
    return PayoffSpec(lambda b, w, m, k: m.mass_before(k),
                      MeasureMode.CDF_AT_T, PathMode.SPOT_AT_T, bound=1.0,
                      w_dependent=False, label="crowd_fraction")


# ---------------------------------------------------------------------------
# exact expected reward
# ---------------------------------------------------------------------------


def evaluate_J(payoff: PayoffSpec, mu: AdaptedMeasure, rule: StoppingRule,
               lat: LatticeModel) -> float:
    """Exact expected reward of following ``rule`` against crowd ``mu``.

    The expectation runs over all 4**K joint paths; w-independent
    payoffs are collapsed through the per-path stop-date distribution,
    which is an exact regrouping.
    """
    if rule.tree.lat != lat or mu.lat != lat:
        raise ValueError("lattice mismatch")
    steps = rule.stop_steps()
    bvals, wvals = lat.b_values, lat.w_values
    n = lat.num_paths
    ev = payoff.evaluate
    total = 0.0
    if not payoff.w_dependent:
        if steps.shape[1] == 1:
            for b, k in enumerate(steps[:, 0].tolist()):
                total += ev(bvals[b], wvals[0], mu.grid_measure(b), k)
            return float(total / n)
        for b in range(n):
            counts = np.bincount(steps[b], minlength=lat.steps + 1)
            m = mu.grid_measure(b)
            for k in np.nonzero(counts)[0].tolist():
                total += int(counts[k]) * ev(bvals[b], wvals[0], m, k)
        return float(total / (n * n))
    wide = np.broadcast_to(steps, (n, n))
    for b in range(n):
        m = mu.grid_measure(b)
        brow = bvals[b]
        for w, k in enumerate(wide[b].tolist()):
            total += ev(brow, wvals[w], m, k)
    return float(total / (n * n))


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

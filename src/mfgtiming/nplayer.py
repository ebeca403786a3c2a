"""Bridge between the mean field solution and finite-player games.

A distributed profile gives every one of n players the same rule,
applied to the common path and the player's own idiosyncratic path.
Against that profile we compute player 1's expected payoff, the best
unilateral deviation value, and their gap (the epsilon of approximate
Nash), either exactly or by seeded Monte Carlo.

One crowd model serves every method.  Given the common path, the other
players' dates are i.i.d. with the rule's conditional law; a crowd gives
each atom weighted rows of their date counts, from a binomial (payoffs
that read the mass strictly before the date, which the deviator's own
simultaneous atom never enters), from count multisets (other payoffs,
small n) or from seeded draws.  The field payoff adds the deviator's
date to each row and reads it through the payoff's layer kernel, as the
Monte Carlo profile value does for each sample.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import special

from ._rng import (STREAM_CONVERGE, STREAM_DEV_EVAL, STREAM_DEV_PLAN,
                   STREAM_EQ_VALUE, derive_rng)
from ._expect import layer_values
from .lattice import AdaptedMeasure, LatticeModel
from .payoffs import MeasureMode, PayoffSpec, evaluate_J
from .snell import snell_solve
from .trees import StoppingRule, conditional_law

EXACT_GENERAL_CAP = 8
CONVERGE_BLOCK_DRAWS = 1 << 19  # 2,000 samples of 256 players fit in one block


@dataclass(frozen=True)
class Exact:
    pass


@dataclass(frozen=True)
class MonteCarlo:
    samples: int
    seed: int

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")


@dataclass(frozen=True)
class NPlayerProfile:
    """All n players follow one rule on their own copy of the noise."""

    n: int
    rule: StoppingRule

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")


@dataclass(frozen=True)
class DeviationReport:
    n: int
    eq_value: float
    best_dev_value: float
    epsilon: float
    method: str
    stderr: Optional[float] = None


# ---------------------------------------------------------------------------
# the crowd model
# ---------------------------------------------------------------------------


def _binomial_weights(m: int, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Support and pmf of Binomial(m, q), tails below 1e-16 trimmed."""
    if m == 0 or q <= 0.0:
        return np.array([0]), np.array([1.0])
    if q >= 1.0:
        return np.array([m]), np.array([1.0])
    if m <= 128:
        js = np.arange(m + 1)
    else:
        mean, sd = m * q, math.sqrt(m * q * (1 - q))
        lo = max(0, int(mean - 10 * sd - 1))
        hi = min(m, int(mean + 10 * sd + 1))
        js = np.arange(lo, hi + 1)
    ws = special._ufuncs._binom_pmf(js, m, q)  # the ufunc behind scipy.stats.binom.pmf
    keep = ws > 1e-16
    return js[keep], ws[keep]


def _multiset_rows(mass: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """All date-count rows of m i.i.d. draws, with multinomial weights."""
    support = np.nonzero(mass > 0)[0]
    weights, rows = [], []
    fact_m = math.factorial(m)
    for combo in itertools.combinations_with_replacement(support, m):
        counts = np.bincount(np.array(combo, dtype=np.int64), minlength=len(mass))
        weight = fact_m
        for c in counts[support]:
            weight //= math.factorial(int(c))
        weights.append(float(weight) * float(np.prod(mass[support] ** counts[support])))
        rows.append(counts)
    return np.array(weights), np.array(rows)


def _crowd_cdfs(counts: np.ndarray, k: int, n: int) -> np.ndarray:
    """The empirical CDF of n players: the others' date counts (one row
    each) plus the deviator's unit at date ``k``, over ``n``."""
    full = np.array(counts, dtype=float)
    full[..., k] += 1.0
    return np.cumsum(full / n, axis=-1)


def exact_tractable(payoff: PayoffSpec, n: int) -> bool:
    """Whether the exact crowd integration runs for ``n`` players: always
    for half-open CDF payoffs (binomial), else only up to
    ``EXACT_GENERAL_CAP`` players (multisets)."""
    return payoff.measure_mode is MeasureMode.CDF_AT_T or n <= EXACT_GENERAL_CAP


def _exact_crowd(payoff: PayoffSpec, n: int, law: AdaptedMeasure):
    """The other n-1 players integrated out exactly against ``law``.

    A half-open payoff reads only the count before the date, which is
    Binomial(n-1, q) with ``q = law[b, k-1]``: the crowd is keyed by q,
    and its rows put that count at date 0 and the rest at the horizon.
    Any other payoff reads the whole crowd: count multisets of the law
    along the whole common path, keyed by the path.
    """
    if not exact_tractable(payoff, n):
        raise ValueError("exact intractable, use MonteCarlo")
    if payoff.measure_mode is not MeasureMode.CDF_AT_T:
        return (lambda k, b_ids: b_ids,
                lambda b: _multiset_rows(np.diff(law.cdf[b], prepend=0.0), n - 1))
    K = law.lat.steps

    def key(k, b_ids):
        return law.cdf[b_ids, k - 1] if k > 0 else np.zeros(len(b_ids))

    def rows(q):
        js, ws = _binomial_weights(n - 1, q)
        counts = np.zeros((len(js), K + 1), dtype=np.int64)
        counts[:, 0] = js
        counts[:, K] += n - 1 - js
        return ws, counts

    return key, rows


def _sampled_crowd(payoff: PayoffSpec, prof: NPlayerProfile, lat: LatticeModel,
                   mc: MonteCarlo):
    """The other n-1 players as ``mc.samples`` seeded draws of their
    idiosyncratic paths, equal rows merged.

    A half-open payoff reads only the past: the draws are keyed by the
    date k and the common prefix before it, and count the players
    stopped before k (at date 0) against the rest (at the horizon).  Any
    other payoff keys them by the whole common path.
    """
    steps = prof.rule.stop_steps()
    n, K, npaths = prof.n, lat.steps, lat.num_paths
    half_open = payoff.measure_mode is MeasureMode.CDF_AT_T

    def key(k, b_ids):
        if not half_open:
            return b_ids
        return k * npaths + (b_ids & ((1 << max(k - 1, 0)) - 1))

    def rows(crowd_key):
        k, b = divmod(crowd_key, npaths)
        spawn = (n, k, b) if half_open else (n, b)
        rng = derive_rng(mc.seed, STREAM_DEV_PLAN, *spawn)
        dates = _steps_row(steps, b, rng.integers(npaths, size=(mc.samples, n - 1)))
        if half_open:
            dates = np.where(dates < k, 0, K)
        flat = dates + (K + 1) * np.arange(mc.samples)[:, None]  # one date block per draw
        counts = np.bincount(flat.ravel(), minlength=mc.samples * (K + 1)).reshape(-1, K + 1)
        counts, hits = np.unique(counts, axis=0, return_counts=True)
        return hits / mc.samples, counts

    return key, rows


def _field_payoff(payoff: PayoffSpec, n: int, lat: LatticeModel, crowd) -> PayoffSpec:
    """Player 1's payoff with the other n-1 players integrated out.

    ``crowd`` is a pair: ``key(k, b_ids)`` gives each atom's crowd key,
    and ``rows(key)`` that crowd's weights and the others' date-count
    rows.  Each row with the deviator's unit at ``k`` is one crowd CDF,
    the same on every common path; the value is the weighted sum of the
    payoff's layer values (kernel or scalar adapter) against them, added
    in row order.  The crowd is read from ``crowd``, so the ``cdf``
    argument (the measure being solved against) is ignored.
    """
    key, rows = crowd
    shape = (lat.num_paths, lat.steps + 1)
    cache: dict = {}

    def evaluate_layer(k, b_ids, w_ids, _cdf):
        values = layer_values(payoff, lat)
        keys, group = np.unique(key(k, b_ids), return_inverse=True)
        out = np.empty(len(b_ids))
        for g, crowd_key in enumerate(keys.tolist()):
            at = np.nonzero(group == g)[0]
            got = cache.get(crowd_key)
            if got is None:
                got = cache[crowd_key] = rows(crowd_key)
            weights, counts = got
            acc = np.zeros(len(at))
            for weight, cdf in zip(weights.tolist(), _crowd_cdfs(counts, k, n)):
                acc += weight * values(k, b_ids[at], w_ids[at], np.broadcast_to(cdf, shape))
            out[at] = acc
        return out

    half_open = payoff.measure_mode is MeasureMode.CDF_AT_T
    return PayoffSpec(None, MeasureMode.CDF_AT_T if half_open else MeasureMode.GENERAL,
                      payoff.path_mode, bound=payoff.bound,
                      w_dependent=payoff.w_dependent,
                      label=f"{payoff.label}|field(n={n})",
                      evaluate_layer=evaluate_layer)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def _steps_row(steps: np.ndarray, b, wids: np.ndarray) -> np.ndarray:
    if steps.shape[1] == 1:
        return np.full(np.shape(wids), steps[b, 0], dtype=np.int64)
    return steps[b, wids].astype(np.int64)


def _mc_profile_value(payoff: PayoffSpec, prof: NPlayerProfile,
                      lat: LatticeModel, mc: MonteCarlo, stream: int,
                      deviator_rule: Optional[StoppingRule] = None
                      ) -> tuple[float, float]:
    """Sampled value of player 1 (optionally playing a different rule)."""
    steps = prof.rule.stop_steps()
    dev_steps = deviator_rule.stop_steps() if deviator_rule is not None else steps
    npaths = lat.num_paths
    shape = (npaths, lat.steps + 1)
    values = layer_values(payoff, lat)
    vals = np.empty(mc.samples)
    for s in range(mc.samples):
        rng = derive_rng(mc.seed, stream, prof.n, s)
        b = int(rng.integers(npaths))
        wids = rng.integers(npaths, size=prof.n)
        own = int(_steps_row(dev_steps, b, wids[:1])[0])
        counts = np.bincount(_steps_row(steps, b, wids[1:]), minlength=lat.steps + 1)
        cdf = np.broadcast_to(_crowd_cdfs(counts, own, prof.n), shape)
        vals[s] = values(own, np.array([b]), wids[:1], cdf)[0]
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(mc.samples)) if mc.samples > 1 else 0.0
    return mean, se


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def equilibrium_value(payoff: PayoffSpec, prof: NPlayerProfile,
                      lat: LatticeModel, method) -> float:
    """Player 1's expected payoff in the distributed profile.

    The empirical measure includes player 1's own date; under the
    half-open convention it never enters the player's own read.
    """
    if isinstance(method, MonteCarlo):
        return _mc_profile_value(payoff, prof, lat, method, STREAM_EQ_VALUE)[0]
    law = conditional_law(prof.rule)
    field = _field_payoff(payoff, prof.n, lat, _exact_crowd(payoff, prof.n, law))
    return evaluate_J(field, law, prof.rule, lat)


def _best_deviation(payoff: PayoffSpec, prof: NPlayerProfile, lat: LatticeModel,
                    method) -> tuple[float, StoppingRule, Optional[float]]:
    """Solve the deviator's stopping problem against the integrated crowd,
    by backward induction on the deviator's own tree.  A Monte Carlo
    plan on sampled crowds is then re-evaluated on fresh samples
    (unbiased for that rule, hence a slightly conservative deviation
    value), with its standard error."""
    law = conditional_law(prof.rule)
    if isinstance(method, MonteCarlo):
        crowd = _sampled_crowd(payoff, prof, lat, method)
    else:
        crowd = _exact_crowd(payoff, prof.n, law)
    sol = snell_solve(_field_payoff(payoff, prof.n, lat, crowd), law, prof.rule.tree, lat)
    if not isinstance(method, MonteCarlo):
        return sol.value, sol.rule_min, None
    value, se = _mc_profile_value(payoff, prof, lat, method, STREAM_DEV_EVAL,
                                  deviator_rule=sol.rule_min)
    return value, sol.rule_min, se


def best_deviation(payoff: PayoffSpec, prof: NPlayerProfile, lat: LatticeModel,
                   method) -> tuple[float, StoppingRule]:
    """Optimal unilateral deviation value and a rule achieving it."""
    value, rule, _ = _best_deviation(payoff, prof, lat, method)
    return value, rule


def estimate_epsilon(payoff: PayoffSpec, mfe_rule: StoppingRule, n: int,
                     lat: LatticeModel, method) -> DeviationReport:
    """Assemble the profile and report its approximate-Nash gap."""
    prof = NPlayerProfile(n, mfe_rule)
    dev, _, se_dev = _best_deviation(payoff, prof, lat, method)
    if isinstance(method, MonteCarlo):
        eq, se_eq = _mc_profile_value(payoff, prof, lat, method, STREAM_EQ_VALUE)
        stderr = math.hypot(se_eq, se_dev)
        label = f"monte_carlo(samples={method.samples}, seed={method.seed})"
    else:
        eq = equilibrium_value(payoff, prof, lat, method)
        stderr = None
        label = "exact"
    return DeviationReport(n, eq, dev, max(0.0, dev - eq), label, stderr)


def convergence_experiment(mfe_rule: StoppingRule, n_list: list[int],
                           samples: int, seed: int, lat: LatticeModel
                           ) -> list[dict]:
    """Mean Kolmogorov distance of the sampled empirical law to its limit.

    For each n, draw the common path and n idiosyncratic paths, form the
    empirical measure of the induced dates, and compare its CDF to the
    rule's conditional law on that common path.  Each sample keeps its
    own stream; the distances are computed for a block of samples at
    once and added in sample order.  A block holds at most
    ``CONVERGE_BLOCK_DRAWS`` player draws, so memory does not grow with
    ``samples``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    steps = mfe_rule.stop_steps()
    law = conditional_law(mfe_rule)
    npaths = lat.num_paths
    kk = lat.steps + 1
    rows = []
    for n in n_list:
        total = 0.0
        block = max(1, CONVERGE_BLOCK_DRAWS // n)
        for start in range(0, samples, block):
            count = min(block, samples - start)
            bs = np.empty(count, dtype=np.int64)
            wids = np.empty((count, n), dtype=np.int64)
            for i in range(count):
                rng = derive_rng(seed, STREAM_CONVERGE, n, start + i)
                bs[i] = rng.integers(npaths)
                wids[i] = rng.integers(npaths, size=n)
            flat = _steps_row(steps, bs[:, None], wids) + kk * np.arange(count)[:, None]
            counts = np.bincount(flat.ravel(), minlength=count * kk).reshape(count, kk)
            emp_cdf = np.cumsum(counts, axis=1) / n
            for dist in np.max(np.abs(emp_cdf - law.cdf[bs]), axis=1).tolist():
                total += dist
        rows.append({"n": int(n), "mean_kolmogorov_distance": total / samples})
    return rows

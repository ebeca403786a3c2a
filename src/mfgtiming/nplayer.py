"""Bridge between the mean field solution and finite-player games.

A distributed profile gives every one of n players the same rule,
applied to the common path and the player's own idiosyncratic path.
Against that profile we compute player 1's expected payoff, the best
unilateral deviation value, and their gap (the epsilon of approximate
Nash), either exactly or by seeded Monte Carlo.

Exact computation leans on conditional independence: given the common
path, the other players' stopping dates are i.i.d. with the rule's
conditional law, so for payoffs that read only the crowd mass strictly
before the stopping date the crowd reduces to a binomial count (the
deviator's own simultaneous atom never enters a half-open read).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import stats

from ._rng import (STREAM_CONVERGE, STREAM_DEV_EVAL, STREAM_DEV_PLAN,
                   STREAM_EQ_VALUE, derive_rng)
from .lattice import AdaptedMeasure, GridMeasure, LatticeModel
from .payoffs import MeasureMode, PathMode, PayoffSpec, evaluate_J
from .snell import snell_solve
from .trees import StoppingRule, conditional_law

EXACT_GENERAL_CAP = 8


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
# exact crowd integration, half-open CDF payoffs
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
    ws = stats.binom.pmf(js, m, q)
    keep = ws > 1e-16
    return js[keep], ws[keep]


def _mass_before_measure(lat: LatticeModel, x: float) -> GridMeasure:
    """A measure whose mass strictly before every positive date is x."""
    mass = np.zeros(lat.steps + 1)
    mass[0] = x
    mass[-1] += 1.0 - x
    return GridMeasure(mass)


def _field_payoff_cdf(payoff: PayoffSpec, law: AdaptedMeasure, n: int,
                      lat: LatticeModel) -> PayoffSpec:
    """Single-agent payoff with the other n-1 players integrated out.

    Valid only for half-open CDF payoffs: the crowd enters through the
    mass strictly before the date, which given the common path is
    ``J/n`` with ``J ~ Binomial(n-1, law[0, t))``; the agent's own atom
    is simultaneous and therefore excluded.
    """
    cdf = law.cdf
    cache: dict[int, GridMeasure] = {}

    def crowd_measure(j: int) -> GridMeasure:
        m = cache.get(j)
        if m is None:
            m = _mass_before_measure(lat, j / n)
            cache[j] = m
        return m

    def evaluate(b, w, m, k):
        bid = lat.path_id_from_values(b)
        q = float(cdf[bid, k - 1]) if k > 0 else 0.0
        js, ws = _binomial_weights(n - 1, q)
        acc = 0.0
        for j, pj in zip(js, ws):
            acc += pj * payoff.evaluate(b, w, crowd_measure(int(j)), k)
        return acc

    return PayoffSpec(evaluate, MeasureMode.CDF_AT_T, PathMode.PREFIX_TO_T,
                      bound=payoff.bound, w_dependent=payoff.w_dependent,
                      label=f"{payoff.label}|field(n={n})")


# ---------------------------------------------------------------------------
# exact crowd integration, general payoffs (small n)
# ---------------------------------------------------------------------------


def _multiset_distribution(mass: np.ndarray, m: int):
    """All date-count vectors of m i.i.d. draws, with multinomial weights."""
    support = np.nonzero(mass > 0)[0]
    out = []
    fact_m = math.factorial(m)
    for combo in itertools.combinations_with_replacement(support, m):
        counts = np.bincount(np.array(combo, dtype=np.int64), minlength=len(mass))
        weight = fact_m
        for c in counts[support]:
            weight //= math.factorial(int(c))
        prob = float(weight) * float(np.prod(mass[support] ** counts[support]))
        out.append((counts, prob))
    return out


def _field_payoff_general(payoff: PayoffSpec, law: AdaptedMeasure, n: int,
                          lat: LatticeModel) -> PayoffSpec:
    """Like :func:`_field_payoff_cdf` but with the full empirical measure.

    The others' dates are enumerated as count multisets given the whole
    common path, so the wrapped payoff must be treated as reading future
    information (no past-only collapse).
    """
    msets: dict[int, list] = {}

    def others(bid: int):
        got = msets.get(bid)
        if got is None:
            got = _multiset_distribution(law.grid_measure(bid).mass, n - 1)
            msets[bid] = got
        return got

    def evaluate(b, w, m, k):
        bid = lat.path_id_from_values(b)
        acc = 0.0
        for counts, prob in others(bid):
            if prob == 0.0:
                continue
            full = counts.astype(float)
            full[k] += 1.0
            acc += prob * payoff.evaluate(b, w, GridMeasure(full / n), k)
        return acc

    return PayoffSpec(evaluate, MeasureMode.GENERAL, payoff.path_mode,
                      bound=payoff.bound, w_dependent=payoff.w_dependent,
                      measure_past_only=False,
                      label=f"{payoff.label}|field(n={n})")


def _field_payoff(payoff: PayoffSpec, prof: NPlayerProfile, lat: LatticeModel,
                  law: Optional[AdaptedMeasure] = None) -> PayoffSpec:
    law = law if law is not None else conditional_law(prof.rule)
    if payoff.measure_mode is MeasureMode.CDF_AT_T:
        return _field_payoff_cdf(payoff, law, prof.n, lat)
    if prof.n <= EXACT_GENERAL_CAP:
        return _field_payoff_general(payoff, law, prof.n, lat)
    raise ValueError("exact intractable, use MonteCarlo")


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def _steps_row(steps: np.ndarray, b: int, wids: np.ndarray) -> np.ndarray:
    if steps.shape[1] == 1:
        return np.full(len(wids), steps[b, 0], dtype=np.int64)
    return steps[b, wids].astype(np.int64)


def _mc_profile_value(payoff: PayoffSpec, prof: NPlayerProfile,
                      lat: LatticeModel, mc: MonteCarlo, stream: int,
                      deviator_rule: Optional[StoppingRule] = None
                      ) -> tuple[float, float]:
    """Sampled value of player 1 (optionally playing a different rule)."""
    steps = prof.rule.stop_steps()
    dev_steps = deviator_rule.stop_steps() if deviator_rule is not None else steps
    npaths = lat.num_paths
    bvals, wvals = lat.b_values, lat.w_values
    vals = np.empty(mc.samples)
    for s in range(mc.samples):
        rng = derive_rng(mc.seed, stream, prof.n, s)
        b = int(rng.integers(npaths))
        wids = rng.integers(npaths, size=prof.n)
        own = int(_steps_row(dev_steps, b, wids[:1])[0])
        rest = _steps_row(steps, b, wids[1:])
        counts = np.bincount(rest, minlength=lat.steps + 1).astype(float)
        counts[own] += 1.0
        m = GridMeasure(counts / prof.n)
        vals[s] = payoff.evaluate(bvals[b], wvals[int(wids[0])], m, own)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(mc.samples)) if mc.samples > 1 else 0.0
    return mean, se


def _mc_plan_payoff(payoff: PayoffSpec, prof: NPlayerProfile, lat: LatticeModel,
                    mc: MonteCarlo) -> PayoffSpec:
    """Noisy field payoff for planning a deviation: the others' crowd is
    replaced by a per-common-path batch of sampled count vectors
    (deterministic in the seed and the path)."""
    steps = prof.rule.stop_steps()
    npaths = lat.num_paths
    batches: dict[int, list[np.ndarray]] = {}

    def batch(bid: int) -> list[np.ndarray]:
        got = batches.get(bid)
        if got is None:
            rng = derive_rng(mc.seed, STREAM_DEV_PLAN, prof.n, bid)
            got = []
            for _ in range(mc.samples):
                wids = rng.integers(npaths, size=prof.n - 1)
                got.append(np.bincount(_steps_row(steps, bid, wids),
                                       minlength=lat.steps + 1).astype(float))
            batches[bid] = got
        return got

    def evaluate(b, w, m, k):
        bid = lat.path_id_from_values(b)
        acc = 0.0
        draws = batch(bid)
        for counts in draws:
            full = counts.copy()
            full[k] += 1.0
            acc += payoff.evaluate(b, w, GridMeasure(full / prof.n), k)
        return acc / len(draws)

    return PayoffSpec(evaluate, MeasureMode.GENERAL, payoff.path_mode,
                      bound=payoff.bound, w_dependent=payoff.w_dependent,
                      measure_past_only=False,
                      label=f"{payoff.label}|field-mc(n={prof.n})")


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
    field = _field_payoff(payoff, prof, lat, law)
    return evaluate_J(field, law, prof.rule, lat)


def _best_deviation_mc(payoff: PayoffSpec, prof: NPlayerProfile,
                       lat: LatticeModel, mc: MonteCarlo
                       ) -> tuple[float, StoppingRule, float]:
    """Plan on sampled crowds, then re-evaluate the planned rule on
    fresh samples (unbiased for that rule, hence a slightly conservative
    deviation value)."""
    plan = _mc_plan_payoff(payoff, prof, lat, mc)
    law = conditional_law(prof.rule)
    rule = snell_solve(plan, law, prof.rule.tree, lat).rule_min
    value, se = _mc_profile_value(payoff, prof, lat, mc, STREAM_DEV_EVAL,
                                  deviator_rule=rule)
    return value, rule, se


def best_deviation(payoff: PayoffSpec, prof: NPlayerProfile, lat: LatticeModel,
                   method) -> tuple[float, StoppingRule]:
    """Optimal unilateral deviation value and a rule achieving it.

    Exact: solve the deviator's stopping problem against the integrated
    crowd, by backward induction on the deviator's own tree.
    """
    if isinstance(method, MonteCarlo):
        value, rule, _ = _best_deviation_mc(payoff, prof, lat, method)
        return value, rule
    law = conditional_law(prof.rule)
    field = _field_payoff(payoff, prof, lat, law)
    sol = snell_solve(field, law, prof.rule.tree, lat)
    return sol.value, sol.rule_min


def estimate_epsilon(payoff: PayoffSpec, mfe_rule: StoppingRule, n: int,
                     lat: LatticeModel, method) -> DeviationReport:
    """Assemble the profile and report its approximate-Nash gap."""
    prof = NPlayerProfile(n, mfe_rule)
    if isinstance(method, MonteCarlo):
        eq, se_eq = _mc_profile_value(payoff, prof, lat, method, STREAM_EQ_VALUE)
        dev, _, se_dev = _best_deviation_mc(payoff, prof, lat, method)
        stderr = math.hypot(se_eq, se_dev)
        label = f"monte_carlo(samples={method.samples}, seed={method.seed})"
    else:
        eq = equilibrium_value(payoff, prof, lat, method)
        dev, _ = best_deviation(payoff, prof, lat, method)
        stderr = None
        label = "exact"
    return DeviationReport(n, eq, dev, max(0.0, dev - eq), label, stderr)


def convergence_experiment(mfe_rule: StoppingRule, n_list: list[int],
                           samples: int, seed: int, lat: LatticeModel
                           ) -> list[dict]:
    """Mean Kolmogorov distance of the sampled empirical law to its limit.

    For each n, draw the common path and n idiosyncratic paths, form the
    empirical measure of the induced dates, and compare its CDF to the
    rule's conditional law on that common path.
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
        for s in range(samples):
            rng = derive_rng(seed, STREAM_CONVERGE, n, s)
            b = int(rng.integers(npaths))
            wids = rng.integers(npaths, size=n)
            dates = _steps_row(steps, b, wids)
            emp_cdf = np.cumsum(np.bincount(dates, minlength=kk)) / n
            total += float(np.max(np.abs(emp_cdf - law.cdf[b])))
        rows.append({"n": int(n), "mean_kolmogorov_distance": total / samples})
    return rows

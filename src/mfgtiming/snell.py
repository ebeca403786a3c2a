"""Optimal stopping on an information tree, with extremal rule selection.

Backward induction computes, per node, the exact reward of stopping now
and the conditional expectation of continuing; the minimal optimal rule
stops at the first date where stopping is within tolerance of optimal,
the maximal one only where stopping is strictly better.  A brute-force
enumerator over all canonical rules serves as the validation oracle on
small trees; it values each rule with ``evaluate_J``, by path
enumeration, so it shares no code with the backward induction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._expect import stop_reward_layers
from .lattice import AdaptedMeasure, LatticeModel
from .payoffs import evaluate_J
from .trees import InfoTree, StoppingRule, enumerate_rules

TIE_TOL = 1e-9


@dataclass(frozen=True)
class SnellSolution:
    """Value and extremal optimal rules of one stopping problem."""

    value: float
    rule_min: StoppingRule
    rule_max: StoppingRule
    stop_rewards: list  # per-layer arrays, E[payoff | node]
    continuations: list  # per-layer arrays; at the horizon equals stop_rewards

    def node_values(self, k: int) -> np.ndarray:
        """max(stop, continue) per local node at layer k."""
        return np.maximum(self.stop_rewards[k], self.continuations[k])


def snell_solve(payoff, mu: AdaptedMeasure, tree: InfoTree,
                lat: LatticeModel | None = None, tol: float = TIE_TOL) -> SnellSolution:
    """Solve the stopping problem for a fixed crowd measure.

    Stop rewards are exact posterior-weighted conditional expectations;
    continuation values average the children.  Horizon nodes are forced
    stops.
    """
    lat = lat or tree.lat
    if tree.lat != lat or mu.lat != lat:
        raise ValueError("lattice mismatch")
    rewards = stop_reward_layers(payoff, mu, tree)
    K = lat.steps
    conts: list = [None] * (K + 1)
    conts[K] = rewards[K]
    dec_min = np.zeros(tree.num_nodes, dtype=bool)
    dec_max = np.zeros(tree.num_nodes, dtype=bool)
    dec_min[tree.offsets[K]:] = True
    dec_max[tree.offsets[K]:] = True
    values = rewards[K]
    for k in range(K - 1, -1, -1):
        cont = tree.continuation(k, values)
        stop = rewards[k]
        sl = slice(int(tree.offsets[k]), int(tree.offsets[k + 1]))
        dec_min[sl] = stop >= cont - tol
        dec_max[sl] = stop > cont + tol
        conts[k] = cont
        values = np.maximum(stop, cont)
    return SnellSolution(
        value=float(values[0]),
        rule_min=StoppingRule(tree, dec_min),
        rule_max=StoppingRule(tree, dec_max),
        stop_rewards=rewards,
        continuations=conts,
    )


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BruteForceResult:
    value: float
    rule_min: StoppingRule
    rule_max: StoppingRule
    rules_searched: int


def brute_force_optimal(payoff, mu: AdaptedMeasure, tree: InfoTree,
                        lat: LatticeModel | None = None, cap: int = 10 ** 7,
                        tol: float = TIE_TOL) -> BruteForceResult:
    """Exhaustively evaluate every canonical rule on the tree.

    Returns the optimal value together with the pointwise-minimal and
    pointwise-maximal optimizers among rules within ``tol`` of the
    optimum (ties form a lattice, so the pointwise extremes of the tie
    set are themselves optimal rules).
    """
    lat = lat or tree.lat
    rules = list(enumerate_rules(tree, cap))  # raises past the cap
    value = {rule.key(): evaluate_J(payoff, mu, rule, lat) for rule in rules}
    best = max(value.values())
    tied = np.stack([rule.stop_steps() for rule in rules
                     if value[rule.key()] >= best - tol])
    rule_min = StoppingRule.from_times(tree, tied.min(axis=0))
    rule_max = StoppingRule.from_times(tree, tied.max(axis=0))
    # every canonical rule was enumerated, the extremes included
    if min(value[rule_min.key()], value[rule_max.key()]) < best - 10 * tol:
        raise AssertionError("tie set is not a lattice: extreme rule suboptimal")
    return BruteForceResult(best, rule_min, rule_max, len(rules))

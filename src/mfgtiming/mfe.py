"""Mean field equilibria by monotone best-response iteration.

The descending iteration starts from everyone stopping at the horizon
and repeatedly takes the maximal best response to the conditional law
of the current rule; the ascending one starts from everyone stopping
immediately and takes minimal best responses.  Under complementarities
both sequences are monotone and converge to the maximal and minimal
equilibria; the iterations are well defined regardless, so monotonicity
is checked per step, not assumed, and revisiting any earlier rule stops
the loop with a cycle diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lattice import AdaptedMeasure, LatticeModel
from .payoffs import BankRunParams, PayoffSpec, evaluate_J, liquidation_table
from .snell import snell_solve
from .trees import InfoTree, StoppingRule, conditional_law, public_tree


VERIFY_TOL = 1e-9


@dataclass(frozen=True)
class VerifyResult:
    is_mfe: bool
    gap: float


@dataclass(frozen=True)
class IterationRecord:
    """One best-response step: the rule produced and the optimal value
    against the law it answered, the conditional law of the rule from
    the step before."""

    rule: StoppingRule
    value: float


@dataclass(frozen=True)
class IterationResult:
    """Outcome of one directed iteration (descending or ascending)."""

    rule: StoppingRule
    law: AdaptedMeasure
    value: float
    trace: list
    converged: bool
    iterations: int
    monotone: bool
    cycle_length: Optional[int]

    @property
    def verification(self) -> Optional[VerifyResult]:
        """Best-response gap of a converged end, from its own last step.

        That step solved against ``law`` and returned ``rule`` itself, so
        its value is the optimum against ``law``, and the gap is the one
        :func:`verify_mfe` computes.  None when the end did not converge.
        """
        if not self.converged:
            return None
        gap = float(self.trace[-1].value - self.value)
        return VerifyResult(bool(gap <= VERIFY_TOL), gap)


def _iterate(payoff: PayoffSpec, tree: InfoTree, lat: LatticeModel,
             max_iter: int, descending: bool) -> IterationResult:
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    current = StoppingRule.stop_at(tree, lat.steps if descending else 0)
    law = conditional_law(current)  # always the law of `current`
    seen = {current.key(): 0}
    trace: list[IterationRecord] = []
    monotone = True
    converged = False
    cycle = None
    for i in range(1, max_iter + 1):
        sol = snell_solve(payoff, law, tree, lat)
        new = sol.rule_max if descending else sol.rule_min
        trace.append(IterationRecord(new, sol.value))
        ordered = new.pointwise_leq(current) if descending else current.pointwise_leq(new)
        if not ordered:
            monotone = False
        if new == current:
            converged = True
            break
        prev_visit = seen.get(new.key())
        current = new
        law = conditional_law(current)
        if prev_visit is not None:
            cycle = i - prev_visit
            break
        seen[new.key()] = i
    value = evaluate_J(payoff, law, current, lat)
    return IterationResult(current, law, value, trace, converged,
                           len(trace), monotone, cycle)


def iterate_from_top(payoff: PayoffSpec, tree: InfoTree, lat: LatticeModel,
                     max_iter: Optional[int] = None) -> IterationResult:
    """Descending iteration from the stop-at-horizon rule."""
    max_iter = tree.num_nodes + 1 if max_iter is None else max_iter
    return _iterate(payoff, tree, lat, max_iter, descending=True)


def iterate_from_bottom(payoff: PayoffSpec, tree: InfoTree, lat: LatticeModel,
                        max_iter: Optional[int] = None) -> IterationResult:
    """Ascending iteration from the stop-immediately rule."""
    max_iter = tree.num_nodes + 1 if max_iter is None else max_iter
    return _iterate(payoff, tree, lat, max_iter, descending=False)


@dataclass(frozen=True)
class EquilibriumResult:
    """Both directed iterations plus the bracket they certify.

    When both directions converge, every equilibrium rule lies between
    ``rule_min`` and ``rule_max`` pointwise; a positive bracket width is
    the multiplicity diagnostic (no uniqueness claim either way).
    """

    top: IterationResult
    bottom: IterationResult

    @property
    def rule_max(self) -> StoppingRule:
        return self.top.rule

    @property
    def rule_min(self) -> StoppingRule:
        return self.bottom.rule

    @property
    def law_max(self) -> AdaptedMeasure:
        return self.top.law

    @property
    def law_min(self) -> AdaptedMeasure:
        return self.bottom.law

    @property
    def value_max(self) -> float:
        return self.top.value

    @property
    def value_min(self) -> float:
        return self.bottom.value

    @property
    def converged(self) -> bool:
        return self.top.converged and self.bottom.converged

    @property
    def iterations(self) -> int:
        return self.top.iterations + self.bottom.iterations

    @property
    def tight(self) -> bool:
        return self.rule_min == self.rule_max


def solve_mfe(payoff: PayoffSpec, tree: InfoTree, lat: LatticeModel,
              max_iter: Optional[int] = None) -> EquilibriumResult:
    """Run both iterations and assemble the equilibrium bracket."""
    top = iterate_from_top(payoff, tree, lat, max_iter)
    bottom = iterate_from_bottom(payoff, tree, lat, max_iter)
    result = EquilibriumResult(top, bottom)
    if result.converged and not bottom.rule.pointwise_leq(top.rule):
        raise RuntimeError("bracket violated: ascending end exceeds descending end")
    return result


def verify_mfe(payoff: PayoffSpec, rule: StoppingRule, tree: InfoTree,
               lat: LatticeModel) -> VerifyResult:
    """Best-response gap of a rule against the law it induces.

    ``gap = optimal value - achieved value``; it is nonnegative up to
    tolerance by optimality, and the rule is an equilibrium iff it
    vanishes.
    """
    law = conditional_law(rule)
    sol = snell_solve(payoff, law, tree, lat)
    gap = float(sol.value - evaluate_J(payoff, law, rule, lat))
    return VerifyResult(bool(gap <= VERIFY_TOL), gap)


def public_info_equilibrium(p: BankRunParams, lat: LatticeModel) -> StoppingRule:
    """Hitting rule of the liquidity-problem region under full observation.

    Stops at the first date where the liquidation value no longer
    covers the aggregate claim (else at the horizon); with public
    monitoring everyone running at that time is the Nash outcome and
    every depositor recovers in full.
    """
    tree = public_tree(lat)
    dec = np.zeros(tree.num_nodes, dtype=bool)
    for k, liq in enumerate(liquidation_table(p.liquidation, lat)):
        dec[tree.offsets[k]:tree.offsets[k + 1]] = liq <= p.d0
    return StoppingRule(tree, dec)

"""Per-layer spans and counters for a traced run.

``install`` wraps the package's public functions at the module bindings
where their callers look them up (``snell_solve`` is wrapped both in
``mfe`` and in ``nplayer``), so nothing inside the package changes.
Spans (name, start, end, parent) are kept in memory and reduced to
metrics when the run ends.  A span's self time is its duration minus
the time its child spans cover; every ``*_s`` metric is a self time,
except ``nplayer.mfe_rule_s``, the inclusive time of the equilibrium
solve inside an n-player task.

A binding that no longer exists is named in ``missing`` and every
metric that depends on it is left out, never reported as zero.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import time
from collections import Counter, defaultdict

# span or counter -> the bindings it wraps, relative to the package
BINDINGS = {
    "experiments.run": ["run"],
    "experiments.validate": ["validate_config", "experiments.validate_config"],
    "experiments.build": ["experiments.build_lattice_from", "experiments.build_payoff",
                          "experiments.build_tree"],
    "experiments.payload": ["payload_bytes", "experiments.equilibrium_payload",
                            "experiments.iteration_payload", "experiments.rule_payload",
                            "experiments.law_payload"],
    "experiments.emit": ["experiments.emit"],
    "mfe.solve_mfe": ["experiments.solve_mfe"],
    "mfe.verify": ["experiments.verify_mfe"],
    "snell.solve": ["mfe.snell_solve", "nplayer.snell_solve"],
    "expect.stop_rewards": ["snell.stop_reward_layers", "payoffs.stop_reward_layers"],
    "expect.layer_atoms": ["_expect.layer_atoms"],
    "payoffs.evaluate_J": ["payoffs.evaluate_J", "mfe.evaluate_J", "nplayer.evaluate_J",
                           "experiments.evaluate_J"],
    "payoffs.check_id": ["experiments.check_increasing_differences"],
    "payoffs.check_submartingale": ["experiments.check_submartingale"],
    "payoffs.sample_measures": ["payoffs.sample_ordered_measures",
                                "experiments.sample_ordered_measures"],
    "trees.conditional_law": ["mfe.conditional_law", "payoffs.conditional_law",
                              "nplayer.conditional_law", "experiments.conditional_law"],
    "trees.stop_steps": ["trees.StoppingRule.stop_steps"],
    "lattice.adapted_measure": ["lattice.AdaptedMeasure.__init__"],
    "nplayer.estimate_epsilon": ["experiments.estimate_epsilon"],
    "nplayer.converge": ["experiments.convergence_experiment"],
    # counters only
    "lattice.grid_measures": ["lattice.GridMeasure.__init__"],
    "trees.rules_built": ["trees.StoppingRule.__init__"],
    "rng.streams": ["nplayer.derive_rng", "experiments.derive_rng"],
}
COUNTERS = ("lattice.grid_measures", "trees.rules_built", "rng.streams")
NPLAYER_TASKS = ("eps-nash", "converge")

# metric -> (reduction, span or counter it reads, other entries it needs)
METRICS = {
    "experiments.validate_s": ("self", "experiments.validate", ()),
    "experiments.build_s": ("self", "experiments.build", ()),
    "experiments.payload_s": ("self", "experiments.payload", ()),
    "experiments.emit_s": ("self", "experiments.emit", ()),
    "mfe.solve_mfe_s": ("self", "mfe.solve_mfe", ()),
    "mfe.best_responses": ("under_solve", "snell.solve", ("mfe.solve_mfe",)),
    "mfe.verify_s": ("self", "mfe.verify", ()),
    "mfe.verify_calls": ("calls", "mfe.verify", ()),
    "snell.solve_calls": ("calls", "snell.solve", ()),
    "snell.distinct_laws": ("count", "snell.distinct_laws", ("snell.solve",)),
    "snell.self_s": ("self", "snell.solve", ()),
    "expect.stop_rewards_s": ("self", "expect.stop_rewards", ()),
    "expect.stop_rewards_calls": ("calls", "expect.stop_rewards", ()),
    "expect.layer_atoms_s": ("self", "expect.layer_atoms", ()),
    "expect.atoms": ("count", "expect.atoms", ("expect.layer_atoms",)),
    "payoffs.evaluations": ("count", "payoffs.evaluations", ("experiments.build",)),
    "payoffs.evaluate_J_s": ("self", "payoffs.evaluate_J", ()),
    "payoffs.evaluate_J_calls": ("calls", "payoffs.evaluate_J", ()),
    "payoffs.check_id_s": ("self", "payoffs.check_id", ()),
    "payoffs.id_trials": ("count", "payoffs.id_trials", ("payoffs.check_id",)),
    "payoffs.check_submartingale_s": ("self", "payoffs.check_submartingale", ()),
    "payoffs.sample_measures_s": ("self", "payoffs.sample_measures", ()),
    "trees.nodes": ("count", "trees.nodes", ("experiments.build",)),
    "trees.conditional_law_s": ("self", "trees.conditional_law", ()),
    "trees.conditional_law_calls": ("calls", "trees.conditional_law", ()),
    "trees.stop_steps_s": ("self", "trees.stop_steps", ()),
    "trees.rules_built": ("count", "trees.rules_built", ()),
    "lattice.grid_measures": ("count", "lattice.grid_measures", ()),
    "lattice.adapted_measures": ("calls", "lattice.adapted_measure", ()),
    "lattice.adapted_measure_s": ("self", "lattice.adapted_measure", ()),
    "nplayer.mfe_rule_s": ("mfe_rule", "mfe.solve_mfe", ()),
    "nplayer.exact_s": ("self", "nplayer.exact", ("nplayer.estimate_epsilon",)),
    "nplayer.mc_s": ("self", "nplayer.mc", ("nplayer.estimate_epsilon",)),
    "nplayer.converge_s": ("self", "nplayer.converge", ()),
    "rng.streams": ("count", "rng.streams", ()),
    "trace.unattributed_s": ("self", "experiments.run", ()),
    "trace.task_s": ("inclusive", "experiments.run", ()),
}


class Tracer:
    def __init__(self, package, task_kind: str):
        self.package = package
        self.task_kind = task_kind
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.laws: set = set()
        self.missing: list[str] = []

    # -- wrapping ----------------------------------------------------------

    def span(self, name, fn, before=None, after=None):
        """``fn`` recorded as a span; ``name`` may be a function of the call,
        and ``after`` returns the result the caller gets."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            label = name if isinstance(name, str) else name(args, kwargs)
            idx = len(spans)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            return result if after is None else after(args, kwargs, result)

        traced.__wrapped__ = fn
        return traced

    def counter(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _owner(self, binding: str):
        path, attr = binding.rsplit(".", 1) if "." in binding else ("", binding)
        owner = self.package
        parts = path.split(".") if path else []
        if parts:
            try:
                owner = importlib.import_module(f"{self.package.__name__}.{parts[0]}")
            except ImportError:
                return None, attr
            for part in parts[1:]:
                owner = getattr(owner, part, None)
                if owner is None:
                    return None, attr
        return owner, attr

    def install(self) -> None:
        hooks = {
            "experiments.build": dict(after=self._after_build),
            "snell.solve": dict(before=self._before_solve),
            "expect.layer_atoms": dict(after=self._after_atoms),
            "payoffs.check_id": dict(after=self._after_check_id),
        }
        for entry, bindings in BINDINGS.items():
            for binding in bindings:
                owner, attr = self._owner(binding)
                if owner is None or not hasattr(owner, attr):
                    self.missing.append(f"{self.package.__name__}.{binding}")
                    continue
                fn = getattr(owner, attr)
                if entry in COUNTERS:
                    setattr(owner, attr, self.counter(entry, fn))
                elif entry == "nplayer.estimate_epsilon":
                    setattr(owner, attr, self.span(_epsilon_span, fn))
                else:
                    setattr(owner, attr, self.span(entry, fn, **hooks.get(entry, {})))

    # -- hooks -------------------------------------------------------------

    def _after_build(self, args, kwargs, result):
        if hasattr(result, "evaluate") and hasattr(result, "measure_mode"):
            # the run uses this spec for every scalar payoff evaluation
            return dataclasses.replace(result, evaluate=self.counter(
                "payoffs.evaluations", result.evaluate))
        if hasattr(result, "num_nodes"):
            self.counts["trees.nodes"] += int(result.num_nodes)
        return result

    def _before_solve(self, args, kwargs) -> None:
        payoff = args[0] if args else kwargs["payoff"]
        mu = args[1] if len(args) > 1 else kwargs["mu"]
        tree = args[2] if len(args) > 2 else kwargs["tree"]
        digest = hashlib.sha1(mu.cdf.tobytes()).hexdigest()
        self.laws.add((payoff.label, tree.kind, digest))

    def _after_atoms(self, args, kwargs, result):
        self.counts["expect.atoms"] += len(result[0])
        return result

    def _after_check_id(self, args, kwargs, result):
        self.counts["payoffs.id_trials"] += int(result.trials)
        return result

    # -- reduction ---------------------------------------------------------

    def metrics(self) -> dict:
        broken = {b.split(".", 1)[1] for b in self.missing}
        broken_entries = {e for e, bs in BINDINGS.items() if any(b in broken for b in bs)}
        n = len(self.spans)
        cover = [0.0] * n
        for name, start, end, parent in self.spans:
            if parent >= 0:
                cover[parent] += end - start
        self_s, incl, calls = defaultdict(float), defaultdict(float), Counter()
        best_responses = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] += (end - start) - cover[i]
            incl[name] += end - start
            calls[name] += 1
            if name == "snell.solve" and self._under(i, "mfe.solve_mfe"):
                best_responses += 1
        counts = dict(self.counts)
        counts["snell.distinct_laws"] = len(self.laws)
        out = {}
        for metric, (how, entry, needs) in METRICS.items():
            if entry in broken_entries or any(e in broken_entries for e in needs):
                continue
            if how == "self":
                out[metric] = self_s.get(entry, 0.0)
            elif how == "inclusive":
                out[metric] = incl.get(entry, 0.0)
            elif how == "calls":
                out[metric] = calls.get(entry, 0)
            elif how == "count":
                out[metric] = counts.get(entry, 0)
            elif how == "under_solve":
                out[metric] = best_responses
            elif how == "mfe_rule":
                out[metric] = incl.get(entry, 0.0) if self.task_kind in NPLAYER_TASKS else 0.0
        return out

    def _under(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


def _epsilon_span(args, kwargs) -> str:
    method = args[4] if len(args) > 4 else kwargs.get("method")
    return "nplayer.mc" if type(method).__name__ == "MonteCarlo" else "nplayer.exact"

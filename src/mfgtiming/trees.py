"""Information trees (filtrations) and adapted stopping rules.

Every filtration here is generated by one symbol observed per step,
``s = symbol_of[b_bit, w_bit]``, where the 2x2 table maps the step's
common and idiosyncratic increments (bit 1 = up) to symbols 0..S-1:

* ``public``  -- ``[[0, 0], [1, 1]]``: the common increment only,
* ``full``    -- ``[[0, 2], [1, 3]]``: both increments, ``s = b + 2w``,
* ``signal``  -- one symbol per distinct value of the noisy observation
  ``dX = dB + sigma*dW``, ascending.

A layer-k node is a sequence of k symbols ``s_0 .. s_{k-1}`` with local
id ``sum_j s_j * S**j``, so layer k has ``S**k`` nodes and the children
of local node ``l`` are ``l + s * S**k``.  On the public tree a node's
id is the common prefix's path id; on the full tree it interleaves the
two prefixes as base-4 digits ``b_j + 2*w_j``.  Nodes are numbered
layer by layer; ``offsets[k] + local`` is the absolute id of local node
``local`` at date ``t_k``.  A stopping rule is a stop/continue mark per
node; measurability is structural because the decision can only read
the node.  ``StoppingRule`` canonicalises every decision it is given
(every descendant of a stopped node is marked stop), which makes rule
equality equivalent to equality of the induced stopping times.  Stop
steps are read from that form: a path stops on a suffix of its nodes,
so its stop index follows from how many stopped nodes it passes.
Other modules read the stop step of given joint paths only through
``StoppingRule.steps_at``, which alone knows that a w-free tree stores
one column, and count dates per row with ``date_counts``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .lattice import AdaptedMeasure, LatticeModel

RULE_CAP = 10 ** 7  # most rules enumerate_rules will yield


class InfoTree:
    """The filtration generated by ``symbol_of[b_bit, w_bit]`` per step.

    ``symbol_probs[s]`` is the share of the four equally likely
    increment pairs that show symbol ``s``; ``model`` is the signal
    model of a signal tree, else None.
    """

    def __init__(self, lat: LatticeModel, kind: str, symbol_of,
                 model: Optional[SignalModel] = None):
        table = np.array(symbol_of, dtype=np.int64)
        table.setflags(write=False)
        self.lat = lat
        self.kind = kind
        self.model = model
        self.symbol_of = table
        self.num_symbols = int(table.max()) + 1
        self.symbol_probs = np.bincount(table.ravel(), minlength=self.num_symbols) / 4.0
        self.w_free = bool(np.all(table[:, 0] == table[:, 1]))
        # local node per prefix pair, by layer (see prefix_nodes)
        self._prefix_nodes = {0: np.zeros((1, 1), dtype=np.int64)}
        # read-only posterior atoms by (k, w_dependent), kept by _expect
        self._atoms = {}

    @cached_property
    def symbols(self) -> tuple:
        """Observed per-step values: the signal alphabet, else the symbol ids."""
        if self.model is not None:
            return self.model.alphabet(self.lat)
        return tuple(range(self.num_symbols))

    @cached_property
    def layer_sizes(self) -> tuple[int, ...]:
        return tuple(self.num_symbols ** k for k in range(self.lat.steps + 1))

    @cached_property
    def offsets(self) -> np.ndarray:
        off = np.concatenate([[0], np.cumsum(self.layer_sizes)])
        off.setflags(write=False)
        return off

    @property
    def num_nodes(self) -> int:
        return int(self.offsets[-1])

    def continuation(self, k: int, v_next: np.ndarray) -> np.ndarray:
        """One-step conditional expectation of layer-(k+1) node values."""
        n = self.layer_sizes[k]
        out = self.symbol_probs[0] * v_next[:n]
        for s in range(1, self.num_symbols):
            out += self.symbol_probs[s] * v_next[s * n:(s + 1) * n]
        return out

    def children_local(self, k: int, local: int) -> list[int]:
        """Local ids at layer k+1 of one node's children."""
        n = self.layer_sizes[k]
        return [local + s * n for s in range(self.num_symbols)]

    # -- joint-path traversal ----------------------------------------------

    def prefix_nodes(self, k: int) -> np.ndarray:
        """Local node per k-step prefix pair; shape (2**k, 1) or (2**k, 2**k).

        Row ``b`` and column ``w`` are the prefixes' path ids (bit j is
        step j); a w-free tree has a single column.
        """
        nodes = self._prefix_nodes.get(k)
        if nodes is None:
            prev = self.prefix_nodes(k - 1)
            step = self.symbol_of[:, :1] if self.w_free else self.symbol_of
            # bit k-1 of the prefix ids picks a block; its symbol s adds s * S**(k-1)
            nodes = np.tile(prev, step.shape) + np.kron(step * self.layer_sizes[k - 1],
                                                        np.ones_like(prev))
            nodes.setflags(write=False)
            # threads that race build a layer twice, then share one
            nodes = self._prefix_nodes.setdefault(k, nodes)
        return nodes

    def joint_layers(self):
        """Yield (k, local-node array) over all joint paths, layer by layer.

        The array is broadcastable against the (2**K, 2**K) joint grid:
        shape (2**K, 1) for w-free trees, (2**K, 2**K) otherwise.
        """
        n = self.lat.num_paths
        for k in range(self.lat.steps + 1):
            reps = n >> k
            yield k, np.tile(self.prefix_nodes(k), (reps, 1 if self.w_free else reps))


@dataclass(frozen=True)
class SignalModel:
    """Per-step observation ``dX = dB + sigma * dW``, sigma >= 0."""

    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")

    def alphabet(self, lat: LatticeModel) -> tuple[float, ...]:
        """Distinct per-step observation values, ascending."""
        vals = {lat.db * sb + self.sigma * lat.dw * sw
                for sb in (-1, 1) for sw in (-1, 1)}
        return tuple(sorted(vals))


def public_tree(lat: LatticeModel) -> InfoTree:
    """Perfect observation of the common path only."""
    return InfoTree(lat, "public", [[0, 0], [1, 1]])


def full_tree(lat: LatticeModel) -> InfoTree:
    """Full observation of both noise paths."""
    return InfoTree(lat, "full", [[0, 2], [1, 3]])


def build_signal_tree(lat: LatticeModel, model: SignalModel) -> InfoTree:
    """Observation of the noisy signal only, with exact filtering.

    With ``sigma = 0`` the tree coincides with the public tree node for
    node, and the engine arithmetic is identical, so solver outputs
    agree exactly.
    """
    index = {v: i for i, v in enumerate(model.alphabet(lat))}
    table = [[index[lat.db * (2 * b_bit - 1) + model.sigma * lat.dw * (2 * w_bit - 1)]
              for w_bit in (0, 1)] for b_bit in (0, 1)]
    return InfoTree(lat, "signal", table, model)


def same_information(t1: InfoTree, t2: InfoTree) -> bool:
    return t1.lat == t2.lat and t1.kind == t2.kind and t1.model == t2.model



# ---------------------------------------------------------------------------
# stopping rules
# ---------------------------------------------------------------------------


class StoppingRule:
    """Stop/continue decision per tree node, stored in canonical form.

    Canonical form marks every node strictly below a stopped node as
    stopped, and every horizon node is stopped, so two rules are equal
    as arrays iff they induce the same stopping time on every path.
    """

    __slots__ = ("tree", "decision", "_steps")

    def __init__(self, tree: InfoTree, decision: np.ndarray):
        decision = np.asarray(decision, dtype=bool)
        if decision.shape != (tree.num_nodes,):
            raise ValueError("decision must have one entry per node")
        decision = _canonicalize(tree, decision)
        decision.setflags(write=False)
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "decision", decision)
        object.__setattr__(self, "_steps", None)

    def __setattr__(self, name, value):
        raise AttributeError("StoppingRule is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def stop_at(cls, tree: InfoTree, k0: int) -> "StoppingRule":
        """Deterministic rule stopping at grid index ``k0`` everywhere."""
        if not 0 <= k0 <= tree.lat.steps:
            raise ValueError("k0 outside the grid")
        dec = np.zeros(tree.num_nodes, dtype=bool)
        dec[tree.offsets[k0]:] = True
        return cls(tree, dec)

    @classmethod
    def from_times(cls, tree: InfoTree, steps: np.ndarray) -> "StoppingRule":
        """Build the rule inducing the given per-path stop indices.

        ``steps`` must be broadcastable against the joint path grid and
        measurable for the tree (paths through one node agree on whether
        they have stopped); otherwise a ValueError is raised.
        """
        steps = np.asarray(steps)
        dec = np.zeros(tree.num_nodes, dtype=bool)
        for k, local in tree.joint_layers():
            hit = np.broadcast_to(steps, np.broadcast_shapes(steps.shape, local.shape)) == k
            locs = np.broadcast_to(local, hit.shape)[hit]
            dec[tree.offsets[k] + locs] = True
        rule = cls(tree, dec)
        got = np.broadcast_to(rule.stop_steps(),
                              np.broadcast_shapes(steps.shape, rule.stop_steps().shape))
        want = np.broadcast_to(steps, got.shape)
        if not np.array_equal(got, want):
            raise ValueError("times are not measurable for this tree")
        return rule

    # -- induced times -------------------------------------------------------

    def stop_steps(self) -> np.ndarray:
        """First stopped grid index along every joint path.

        Shape (2**K, 1) for w-free trees, else (2**K, 2**K).  Read from
        canonical form: a path stops on a suffix of its nodes, so its
        stop index is K+1 less the number of stopped nodes it passes.
        """
        if self._steps is not None:
            return self._steps
        tree, K = self.tree, self.tree.lat.steps
        off, S = tree.offsets, tree.num_symbols
        # stopped nodes on the way to each node, layer by layer; the
        # children of local node l are l + s*S**k, so layer k+1 viewed
        # as (S, S**k) lines up row by row with layer k
        count = self.decision[:1].astype(np.int16)
        for k in range(1, K + 1):
            count = (self.decision[off[k]:off[k + 1]].reshape(S, -1) + count).ravel()
        out = (K + 1 - count)[tree.prefix_nodes(K)]
        out.setflags(write=False)
        object.__setattr__(self, "_steps", out)
        return out

    def steps_at(self, b_ids, w_ids) -> np.ndarray:
        """Stop steps of the joint paths ``(b_ids, w_ids)``, broadcast together.

        A w-free tree stores one column of stop steps, which every
        idiosyncratic path reads.
        """
        steps = self.stop_steps()
        return steps[b_ids, w_ids & (steps.shape[1] - 1)]

    def pointwise_leq(self, other: "StoppingRule") -> bool:
        """True iff this rule stops no later than ``other`` on every path."""
        return bool(np.all(self.stop_steps() <= other.stop_steps()))

    def key(self) -> bytes:
        return self.decision.tobytes()

    def __eq__(self, other) -> bool:
        return (isinstance(other, StoppingRule)
                and same_information(self.tree, other.tree)
                and np.array_equal(self.decision, other.decision))

    def __hash__(self) -> int:
        return hash((self.tree.kind, self.key()))

    def __repr__(self) -> str:
        return f"StoppingRule({self.tree.kind}, stops={int(self.decision.sum())}/{self.tree.num_nodes})"


def _canonicalize(tree: InfoTree, raw: np.ndarray) -> np.ndarray:
    dec = raw.copy()
    off, S = tree.offsets, tree.num_symbols
    for k in range(tree.lat.steps):
        # children of local node l are l + s*S**k: row s of the (S, S**k) view
        dec[off[k + 1]:off[k + 2]].reshape(S, -1)[...] |= dec[off[k]:off[k + 1]]
    dec[off[-2]:] = True
    return dec


def random_rule(tree: InfoTree, rng: np.random.Generator, p_stop: float = 0.25) -> StoppingRule:
    """Random canonical rule; each node stops independently with p_stop."""
    raw = rng.random(tree.num_nodes) < p_stop
    return StoppingRule(tree, raw)


def count_rules(tree: InfoTree) -> int:
    """Number of distinct canonical rules on the tree.

    Per node: one rule that stops, else the product of the children's
    rule counts; horizon nodes have exactly one rule (forced stop).
    """
    s = 1
    for _ in range(tree.lat.steps):
        s = 1 + s ** tree.num_symbols
    return s


def enumerate_rules(tree: InfoTree):
    """Yield every canonical rule on the tree, lazily.

    Raises when the rule count exceeds ``RULE_CAP`` (the count grows as a
    tower of exponentials in the depth).
    """
    total = count_rules(tree)
    if total > RULE_CAP:
        raise ValueError(f"enumeration too large: {total} rules exceed {RULE_CAP}")
    lat = tree.lat
    offsets = tree.offsets

    def subtree(k: int, local: int):
        node = int(offsets[k]) + local
        if k == lat.steps:
            yield (node,)
            return
        yield (node,)  # stop here; descendants normalized to stop
        child_choices = [list(subtree(k + 1, c)) for c in tree.children_local(k, local)]
        for combo in itertools.product(*child_choices):
            merged = ()
            for part in combo:
                merged += part
            yield merged  # continue at `node`: it is absent from the tuple

    for stops in subtree(0, 0):
        dec = np.zeros(tree.num_nodes, dtype=bool)
        dec[list(stops)] = True
        yield StoppingRule(tree, dec)


def conditional_law(rule: StoppingRule) -> AdaptedMeasure:
    """Law of the induced stopping time given the common path.

    ``cdf[b, k]`` counts the idiosyncratic paths already stopped by date
    ``t_k``, divided by 2**K.  The table is built by date, as the law
    stores it: on a w-free tree the boolean ``steps <= k``, else the
    cumulative date counts.  The law's constructor copies it once and
    checks it exactly, as it checks every law.
    """
    lat = rule.tree.lat
    steps = rule.stop_steps()
    if steps.shape[1] == 1:
        by_date = np.arange(lat.steps + 1, dtype=np.int16)[:, None] >= steps[:, 0]
    else:
        cum = np.cumsum(date_counts(steps, lat.steps), axis=1)
        by_date = np.divide(cum.T, float(lat.num_paths), order="C")
    return AdaptedMeasure(lat, by_date.T)


def date_counts(steps: np.ndarray, K: int) -> np.ndarray:
    """How many entries of each row of ``steps`` fall on each of the K+1
    dates: a ``(rows, K+1)`` int64 histogram, one ``bincount`` in all."""
    rows = steps.shape[0]
    flat = steps + (K + 1) * np.arange(rows, dtype=np.int64)[:, None]  # one date block per row
    return np.bincount(flat.ravel(), minlength=rows * (K + 1)).reshape(rows, K + 1)

"""Information trees (filtrations) and adapted stopping rules.

A tree's nodes at date ``t_k`` are the distinguishable observation
prefixes after k steps:

* ``public``  -- prefixes of the common path only (2**k nodes),
* ``full``    -- joint prefixes of both paths (4**k nodes),
* ``signal``  -- prefixes of the noisy observation ``X = B + sigma*W``,
  one node per sequence of distinct per-step increment sums.

Nodes are numbered layer by layer; ``offsets[k] + local`` is the
absolute id of local node ``local`` at date ``t_k``.  A stopping rule is
a stop/continue mark per node; measurability is structural because the
decision can only read the node.  Rules are kept in canonical form
(every descendant of a stopped node is marked stop), which makes rule
equality equivalent to equality of the induced stopping times.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .lattice import AdaptedMeasure, LatticeModel


class InfoTree:
    """Base class; concrete trees implement the layer maps."""

    kind: str = "?"

    def __init__(self, lat: LatticeModel):
        self.lat = lat
        self._prefix_cache: dict[int, np.ndarray] = {}

    # -- layer structure ---------------------------------------------------

    @cached_property
    def layer_sizes(self) -> tuple[int, ...]:
        return tuple(self._layer_size(k) for k in range(self.lat.steps + 1))

    @cached_property
    def offsets(self) -> np.ndarray:
        off = np.concatenate([[0], np.cumsum(self.layer_sizes)])
        off.setflags(write=False)
        return off

    @property
    def num_nodes(self) -> int:
        return int(self.offsets[-1])

    @property
    def w_free(self) -> bool:
        """True when nodes depend on the common path prefix only."""
        raise NotImplementedError

    def _layer_size(self, k: int) -> int:
        raise NotImplementedError

    def _child_local(self, k: int, local: np.ndarray, b_bit: np.ndarray,
                     w_bit: Optional[np.ndarray]) -> np.ndarray:
        """Local ids at k+1 reached from layer-k nodes by one increment."""
        raise NotImplementedError

    def continuation(self, k: int, v_next: np.ndarray) -> np.ndarray:
        """One-step conditional expectation of layer-(k+1) node values."""
        raise NotImplementedError

    def spread_to_children(self, k: int, marks: np.ndarray) -> np.ndarray:
        """Copy a per-node layer-k array onto each node's children."""
        raise NotImplementedError

    def children_local(self, k: int, local: int) -> list[int]:
        """Local ids at layer k+1 of one node's children."""
        raise NotImplementedError

    # -- joint-path traversal ----------------------------------------------

    def joint_layers(self):
        """Yield (k, local-node array) over all joint paths, layer by layer.

        The array is broadcastable against the (2**K, 2**K) joint grid:
        shape (2**K, 1) for w-free trees, (2**K, 2**K) otherwise.
        """
        lat = self.lat
        ids = lat.path_ids
        local = np.zeros((lat.num_paths, 1), dtype=np.int64)
        if not self.w_free:
            local = np.broadcast_to(local, (lat.num_paths, lat.num_paths)).copy()
        for k in range(lat.steps + 1):
            yield k, local
            if k < lat.steps:
                b_bit = ((ids >> k) & 1)[:, None]
                w_bit = None if self.w_free else ((ids >> k) & 1)[None, :]
                local = self._child_local(k, local, b_bit, w_bit)

    def prefix_nodes(self, k: int) -> np.ndarray:
        """Local node per k-step prefix pair; shape (2**k, 1) or (2**k, 2**k)."""
        cached = self._prefix_cache.get(k)
        if cached is not None:
            return cached
        n = 1 << k
        pids = np.arange(n, dtype=np.int64)
        local = np.zeros((n, 1), dtype=np.int64)
        if not self.w_free:
            local = np.broadcast_to(local, (n, n)).copy()
        for j in range(k):
            b_bit = ((pids >> j) & 1)[:, None]
            w_bit = None if self.w_free else ((pids >> j) & 1)[None, :]
            local = self._child_local(j, local, b_bit, w_bit)
        local.setflags(write=False)
        self._prefix_cache[k] = local
        return local


class PublicTree(InfoTree):
    """Perfect observation of the common path only."""

    kind = "public"
    w_free = True

    def _layer_size(self, k: int) -> int:
        return 1 << k

    def _child_local(self, k, local, b_bit, w_bit):
        return local + (b_bit.astype(np.int64) << k)

    def continuation(self, k, v_next):
        n = 1 << k
        return 0.5 * v_next[:n] + 0.5 * v_next[n:]

    def spread_to_children(self, k, marks):
        return np.tile(marks, 2)

    def children_local(self, k, local):
        return [local, local + (1 << k)]


class FullTree(InfoTree):
    """Full observation of both noise paths."""

    kind = "full"
    w_free = False

    def _layer_size(self, k: int) -> int:
        return 1 << (2 * k)

    def _child_local(self, k, local, b_bit, w_bit):
        mask = (1 << k) - 1
        b_pre = (local >> k) + (b_bit.astype(np.int64) << k)
        w_pre = (local & mask) + (w_bit.astype(np.int64) << k)
        return (b_pre << (k + 1)) + w_pre

    def continuation(self, k, v_next):
        n = 1 << k
        v2 = v_next.reshape(2 * n, 2 * n)
        avg = 0.25 * (v2[:n, :n] + v2[n:, :n] + v2[:n, n:] + v2[n:, n:])
        return avg.ravel()

    def spread_to_children(self, k, marks):
        n = 1 << k
        return np.tile(marks.reshape(n, n), (2, 2)).ravel()

    def children_local(self, k, local):
        n = 1 << k
        b_pre, w_pre = local // n, local % n
        return [(b_pre + (bb << k)) * 2 * n + w_pre + (wb << k)
                for bb in (0, 1) for wb in (0, 1)]


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


class SignalTree(InfoTree):
    """Observation of the noisy signal only, with exact filtering."""

    kind = "signal"

    def __init__(self, lat: LatticeModel, model: SignalModel):
        super().__init__(lat)
        self.model = model
        self.symbols = model.alphabet(lat)
        index = {v: i for i, v in enumerate(self.symbols)}
        table = np.empty((2, 2), dtype=np.int64)  # [b_bit, w_bit] -> symbol
        for b_bit in (0, 1):
            for w_bit in (0, 1):
                v = lat.db * (2 * b_bit - 1) + model.sigma * lat.dw * (2 * w_bit - 1)
                table[b_bit, w_bit] = index[v]
        table.setflags(write=False)
        self.symbol_of = table
        counts = np.bincount(table.ravel(), minlength=len(self.symbols))
        self.symbol_probs = counts / 4.0
        self._w_free = bool(np.all(table[:, 0] == table[:, 1]))

    @property
    def w_free(self) -> bool:
        return self._w_free

    @property
    def num_symbols(self) -> int:
        return len(self.symbols)

    def _layer_size(self, k: int) -> int:
        return self.num_symbols ** k

    def _child_local(self, k, local, b_bit, w_bit):
        if w_bit is None:
            sym = self.symbol_of[b_bit, 0]
        else:
            sym = self.symbol_of[b_bit, w_bit]
        return local + sym * (self.num_symbols ** k)

    def continuation(self, k, v_next):
        n = self.num_symbols ** k
        out = np.zeros(n)
        for s, p in enumerate(self.symbol_probs):
            out += p * v_next[s * n:(s + 1) * n]
        return out

    def spread_to_children(self, k, marks):
        return np.tile(marks, self.num_symbols)

    def children_local(self, k, local):
        n = self.num_symbols ** k
        return [local + s * n for s in range(self.num_symbols)]


def public_tree(lat: LatticeModel) -> PublicTree:
    return PublicTree(lat)


def full_tree(lat: LatticeModel) -> FullTree:
    return FullTree(lat)


def build_signal_tree(lat: LatticeModel, model: SignalModel) -> SignalTree:
    """Signal-filtration tree with exact posteriors attached.

    With ``sigma = 0`` the tree coincides with the public tree node for
    node, and the engine arithmetic is identical, so solver outputs
    agree exactly.
    """
    return SignalTree(lat, model)


def same_information(t1: InfoTree, t2: InfoTree) -> bool:
    if t1.lat != t2.lat or t1.kind != t2.kind:
        return False
    if isinstance(t1, SignalTree):
        return t1.model == t2.model
    return True


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

    def __init__(self, tree: InfoTree, decision: np.ndarray, _canonical: bool = False):
        decision = np.asarray(decision, dtype=bool)
        if decision.shape != (tree.num_nodes,):
            raise ValueError("decision must have one entry per node")
        if not _canonical:
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
        return cls(tree, dec, _canonical=True)

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

        Shape (2**K, 1) for w-free trees, else (2**K, 2**K).
        """
        if self._steps is not None:
            return self._steps
        tree, lat = self.tree, self.tree.lat
        shape = (lat.num_paths, 1) if tree.w_free else (lat.num_paths, lat.num_paths)
        out = np.full(shape, lat.steps, dtype=np.int16)
        stopped = np.zeros(shape, dtype=bool)
        for k, local in tree.joint_layers():
            dec = self.decision[tree.offsets[k] + local]
            newly = dec & ~stopped
            out[newly] = k
            stopped |= newly
        out.setflags(write=False)
        object.__setattr__(self, "_steps", out)
        return out

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
    lat = tree.lat
    forced = np.zeros(1, dtype=bool)
    for k in range(lat.steps + 1):
        sl = slice(int(tree.offsets[k]), int(tree.offsets[k + 1]))
        dec[sl] |= forced
        if k == lat.steps:
            dec[sl] = True
        else:
            forced = tree.spread_to_children(k, dec[sl])
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
    sizes = tree.layer_sizes
    for k in reversed(range(tree.lat.steps)):
        branching = sizes[k + 1] // sizes[k]
        s = 1 + s ** branching
    return s


def enumerate_rules(tree: InfoTree, cap: int = 10 ** 7):
    """Yield every canonical rule on the tree, lazily.

    Raises when the rule count exceeds ``cap`` (the count grows as a
    tower of exponentials in the depth).
    """
    total = count_rules(tree)
    if total > cap:
        raise ValueError(f"enumeration too large: {total} rules exceeds cap {cap}")
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
    ``t_k``, divided by 2**K; the result is adapted by construction and
    this is re-asserted exactly on return.
    """
    lat = rule.tree.lat
    steps = rule.stop_steps()
    kk = np.arange(lat.steps + 1, dtype=np.int16)
    if steps.shape[1] == 1:
        cdf = (steps <= kk[None, :]).astype(float)
    else:
        n = lat.num_paths
        flat = steps.astype(np.int64) + (lat.steps + 1) * np.arange(n, dtype=np.int64)[:, None]
        counts = np.bincount(flat.ravel(), minlength=n * (lat.steps + 1))
        counts = counts.reshape(n, lat.steps + 1)
        cdf = np.cumsum(counts, axis=1) / float(n)
    return AdaptedMeasure(lat, cdf)

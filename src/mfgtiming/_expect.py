"""Exact conditional expectations of payoff values on information trees.

The reward of stopping at a node is the expectation of the payoff over
everything the node does not reveal: the posterior over consistent
observation prefixes, and, when the payoff genuinely reads them, the
uniform independent suffixes of either path.  Capability flags on the
payoff (w-dependence, whether the measure is only read on the past)
decide how much of that averaging can be collapsed; the collapsed and
uncollapsed computations agree exactly because the payoff is constant
across the collapsed coordinates.

Payoff values come a layer at a time from :func:`layer_values`: the
payoff's array kernel ``evaluate_layer(k, b_ids, w_ids, cdf)`` when it
has one, else a scalar adapter that calls ``evaluate`` once per atom.
Sums run in atom order (``np.bincount`` adds its weights in input
order), so kernel and adapter give the same bits.
"""

from __future__ import annotations

import warnings

import numpy as np

from .lattice import AdaptedMeasure, GridMeasure, LatticeModel
from .trees import InfoTree

SUFFIX_WARN_STEPS = 10


def _suffix_needs(payoff) -> tuple[bool, bool]:
    need_b = (not payoff.past_measure_only) or payoff.reads_full_path
    need_w = payoff.w_dependent and payoff.reads_full_path
    return need_b, need_w


def layer_atoms(tree: InfoTree, k: int, w_dependent: bool):
    """Posterior atoms at every layer-k node, as flat arrays.

    Returns ``(node_local, b_prefix, w_prefix, weight)`` where weights
    sum to 1 within each node.  When the payoff is w-independent, atoms
    are collapsed over the idiosyncratic prefix (weights accumulate).
    """
    n = 1 << k
    size = tree.layer_sizes[k]
    nodes = tree.prefix_nodes(k)
    if nodes.shape[1] == 1:
        node_of_b = nodes[:, 0]
        nb = np.bincount(node_of_b, minlength=size)
        if w_dependent:
            atom_node = np.repeat(node_of_b, n)
            atom_b = np.repeat(np.arange(n, dtype=np.int64), n)
            atom_w = np.tile(np.arange(n, dtype=np.int64), n)
            weight = 1.0 / (nb[atom_node] * n)
        else:
            atom_node = node_of_b
            atom_b = np.arange(n, dtype=np.int64)
            atom_w = np.zeros(n, dtype=np.int64)
            weight = 1.0 / nb[atom_node]
    else:
        counts = np.bincount(nodes.ravel(), minlength=size)
        if w_dependent:
            atom_node = nodes.ravel()
            atom_b = np.repeat(np.arange(n, dtype=np.int64), n)
            atom_w = np.tile(np.arange(n, dtype=np.int64), n)
            weight = 1.0 / counts[atom_node]
        else:
            key = nodes * n + np.arange(n, dtype=np.int64)[:, None]
            uniq, cell = np.unique(key.ravel(), return_counts=True)
            atom_node = uniq // n
            atom_b = uniq % n
            atom_w = np.zeros(len(uniq), dtype=np.int64)
            weight = cell / counts[atom_node]
    return atom_node, atom_b, atom_w, weight


def layer_values(payoff, lat: LatticeModel):
    """``f(k, b_ids, w_ids, cdf)``: payoff values at date ``k`` of the
    atoms with common path ids ``b_ids`` and idiosyncratic path ids
    ``w_ids``, against the crowd whose CDF along common path ``b`` is
    row ``b`` of ``cdf``.

    This is the payoff's ``evaluate_layer`` when it has one; otherwise a
    scalar adapter calls ``evaluate`` per atom, with the atom's path rows
    and ``GridMeasure.from_cdf(cdf[b])``, built once per distinct row.
    """
    if payoff.evaluate_layer is not None:
        return payoff.evaluate_layer
    ev = payoff.evaluate
    bvals, wvals = lat.b_values, lat.w_values
    rows = {}  # measures by CDF row bytes: a law has few distinct rows

    def adapter(k, b_ids, w_ids, cdf):
        out = []
        for b, w in zip(b_ids.tolist(), w_ids.tolist()):
            row = cdf[b]
            m = rows.get(row.tobytes())
            if m is None:
                m = rows[row.tobytes()] = GridMeasure.from_cdf(row)
            out.append(ev(bvals[b], wvals[w], m, k))
        return np.array(out, dtype=float)

    return adapter


def stop_reward_layers(payoff, mu: AdaptedMeasure, tree: InfoTree) -> list[np.ndarray]:
    """Per-layer arrays of E[payoff at t_k | node], exact.

    Cost grows with 4**k atoms per layer on non-collapsing trees and
    with 2**(K-k) suffix extensions for payoffs that read future mass,
    so keep w-dependent payoffs and joint trees to small lattices.
    """
    lat = tree.lat
    need_b, need_w = _suffix_needs(payoff)
    if (need_b or need_w) and lat.steps > SUFFIX_WARN_STEPS:
        warnings.warn(
            f"payoff reads future paths: suffix enumeration is exponential "
            f"and the lattice has {lat.steps} > {SUFFIX_WARN_STEPS} steps")
    values = layer_values(payoff, lat)
    layers = []
    for k in range(lat.steps + 1):
        shift = lat.steps - k
        b_ext = [e << k for e in range(1 << shift)] if (need_b and shift) else [0]
        w_ext = [e << k for e in range(1 << shift)] if (need_w and shift) else [0]
        inv = 1.0 / (len(b_ext) * len(w_ext))
        atom_node, atom_b, atom_w, weight = layer_atoms(tree, k, payoff.w_dependent)
        acc = np.zeros(len(atom_node))
        for be in b_ext:  # suffix columns one at a time, in enumeration order
            for we in w_ext:
                acc += values(k, atom_b + be, atom_w + we, mu.cdf)
        layers.append(np.bincount(atom_node, weights=weight * inv * acc,
                                  minlength=tree.layer_sizes[k]))
    return layers

"""Exact conditional expectations of payoff values on information trees.

The reward of stopping at a node is the expectation of the payoff over
everything the node does not reveal: the posterior over consistent
observation prefixes, and, when the payoff genuinely reads them, the
uniform independent suffixes of either path.  Capability flags on the
payoff (w-dependence, whether the measure is only read on the past)
decide how much of that averaging can be collapsed; the collapsed and
uncollapsed computations agree exactly because the payoff is constant
across the collapsed coordinates.
"""

from __future__ import annotations

import warnings

import numpy as np

from .lattice import AdaptedMeasure
from .trees import InfoTree

SUFFIX_WARN_STEPS = 10


def _suffix_needs(payoff) -> tuple[bool, bool]:
    full_path = getattr(payoff.path_mode, "name", str(payoff.path_mode)) == "FULL_PATH"
    need_b = (not payoff.past_measure_only) or full_path
    need_w = payoff.w_dependent and full_path
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


def stop_reward_layers(payoff, mu: AdaptedMeasure, tree: InfoTree) -> list[np.ndarray]:
    """Per-layer arrays of E[payoff at t_k | node], exact.

    Cost grows with 4**k atoms per layer on non-collapsing trees and
    with 2**(K-k) suffix extensions for payoffs that read future mass,
    so keep w-dependent payoffs and joint trees to small lattices.
    """
    lat = tree.lat
    bvals, wvals = lat.b_values, lat.w_values
    need_b, need_w = _suffix_needs(payoff)
    if (need_b or need_w) and lat.steps > SUFFIX_WARN_STEPS:
        warnings.warn(
            f"payoff reads future paths: suffix enumeration is exponential "
            f"and the lattice has {lat.steps} > {SUFFIX_WARN_STEPS} steps")
    ev = payoff.evaluate
    layers = []
    for k in range(lat.steps + 1):
        shift = lat.steps - k
        b_ext = (np.arange(1 << shift, dtype=np.int64) << k) if (need_b and shift) \
            else np.zeros(1, dtype=np.int64)
        w_ext = (np.arange(1 << shift, dtype=np.int64) << k) if (need_w and shift) \
            else np.zeros(1, dtype=np.int64)
        inv = 1.0 / (len(b_ext) * len(w_ext))
        atom_node, atom_b, atom_w, weight = layer_atoms(tree, k, payoff.w_dependent)
        reward = np.zeros(tree.layer_sizes[k])
        for node, bp, wp, wt in zip(atom_node, atom_b, atom_w, weight):
            acc = 0.0
            for be in b_ext:
                bid = int(bp + be)
                m = mu.grid_measure(bid)
                brow = bvals[bid]
                for we in w_ext:
                    acc += ev(brow, wvals[int(wp + we)], m, k)
            reward[node] += wt * inv * acc
        layers.append(reward)
    return layers

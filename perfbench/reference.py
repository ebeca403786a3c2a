"""An independent model of the lattice games the benchmark runs.

The output checks compare the program's results with the values
computed here.  Nothing in this module imports the package: paths are
enumerated from their definition, rules are decoded from the emitted
``decisions_hex`` with the node numbering documented in ``trees.py``,
expected rewards are means over equally weighted joint paths, best
responses come from backward induction over the same paths, and the
n-player crowd is integrated with ``math.comb`` binomial weights.

Path encoding: a path is a K-bit integer whose bit j is 1 when step
j+1 moves up.  Nodes are numbered layer by layer, ``offsets[k] +
local``; on the public tree ``local`` is the k-step prefix of the
common path, on the signal tree it is ``sum_j s_j * S**j`` where
``s_j`` indexes the j-th observed increment in the ascending alphabet
of the ``S`` distinct values of ``db*(2b-1) + sigma*dw*(2w-1)``.
"""

from __future__ import annotations

import math

import numpy as np


class Game:
    """Lattice, information tree and payoff of one config.

    Per-path arrays have shape ``(2**K, nw)``: ``nw`` is 1 on the public
    tree, whose nodes ignore the idiosyncratic path, and ``2**K`` on the
    signal tree.  Every joint path is equally likely, so within a node
    the paths through it are equally likely too.
    """

    def __init__(self, config: dict):
        lat = config["lattice"]
        self.K = int(lat["steps"])
        self.dt = float(lat["dt"])
        n = 1 << self.K
        ids = np.arange(n, dtype=np.int64)
        bits = (ids[:, None] >> np.arange(self.K)[None, :]) & 1
        walk = np.concatenate([np.zeros((n, 1)), np.cumsum(2 * bits - 1, axis=1)], axis=1)
        self.b_values = float(lat["b0"]) + float(lat["db"]) * walk
        self.reward_at = _payoff(config["payoff"], self.dt)
        info = config["info"]
        self.tree_kind = info["kind"]
        self.local = []  # per layer: local node id of every joint path
        if self.tree_kind == "public":
            self.layer_sizes = [1 << k for k in range(self.K + 1)]
            for k in range(self.K + 1):
                self.local.append((ids & ((1 << k) - 1))[:, None])
        elif self.tree_kind == "signal":
            db, dw, sigma = float(lat["db"]), float(lat["dw"]), float(info["sigma"])
            value = {(bb, wb): db * (2 * bb - 1) + sigma * dw * (2 * wb - 1)
                     for bb in (0, 1) for wb in (0, 1)}
            alphabet = sorted(set(value.values()))
            S = len(alphabet)
            self.layer_sizes = [S ** k for k in range(self.K + 1)]
            sym = np.empty((2, 2), dtype=np.int64)  # [b bit, w bit] -> symbol
            for (bb, wb), v in value.items():
                sym[bb, wb] = alphabet.index(v)
            local = np.zeros((n, n), dtype=np.int64)
            for k in range(self.K + 1):
                self.local.append(local)
                if k < self.K:
                    bits = (ids >> k) & 1
                    local = local + sym[bits[:, None], bits[None, :]] * S ** k
        else:
            raise ValueError(f"no reference model for the {self.tree_kind!r} tree")
        self.offsets = np.concatenate([[0], np.cumsum(self.layer_sizes)]).astype(np.int64)
        self.num_nodes = int(self.offsets[-1])
        self.node_counts = [np.bincount(loc.ravel(), minlength=size)
                            for loc, size in zip(self.local, self.layer_sizes)]

    # -- rules and laws -----------------------------------------------------

    def decode(self, rule: dict) -> np.ndarray:
        """Stop step of every joint path under an emitted rule."""
        if rule["tree"] != self.tree_kind or rule["num_nodes"] != self.num_nodes:
            raise CheckFailed(f"rule is on {rule['tree']}/{rule['num_nodes']} nodes, "
                              f"expected {self.tree_kind}/{self.num_nodes}")
        raw = np.frombuffer(bytes.fromhex(rule["decisions_hex"]), dtype=np.uint8)
        dec = np.unpackbits(raw)[:self.num_nodes].astype(bool)
        shape = self.local[-1].shape
        steps = np.full(shape, self.K, dtype=np.int64)
        stopped = np.zeros(shape, dtype=bool)
        for k in range(self.K + 1):
            here = dec[self.offsets[k] + self.local[k]] & ~stopped
            steps = np.where(here, k, steps)
            stopped |= here
        return steps

    def law(self, steps: np.ndarray) -> np.ndarray:
        """cdf[b, k]: share of idiosyncratic paths stopped by date k."""
        ks = np.arange(self.K + 1)
        return (steps[:, :, None] <= ks[None, None, :]).mean(axis=1)

    # -- rewards --------------------------------------------------------------

    def mean_field_rewards(self, cdf: np.ndarray) -> list[np.ndarray]:
        """Reward of stopping at each date on each common path, crowd = cdf[b, k-1]."""
        return [self.reward_at(k, self.b_values[:, k], _mass_before(cdf, k))
                for k in range(self.K + 1)]

    def n_player_rewards(self, cdf: np.ndarray, n: int) -> list[np.ndarray]:
        """Same with the other n-1 players integrated out exactly.

        Given the common path the others stop i.i.d., so the count J that
        stopped strictly before date k is Binomial(n-1, cdf[b, k-1]) and
        the crowd read is J/n.
        """
        m = n - 1
        js = np.arange(m + 1)
        comb = np.array([math.comb(m, j) for j in js], dtype=float)
        out = []
        for k in range(self.K + 1):
            q = _mass_before(cdf, k)[:, None]
            pmf = comb * q ** js * (1.0 - q) ** (m - js)
            pay = np.stack([self.reward_at(k, self.b_values[:, k], np.full(len(q), j / n))
                            for j in js], axis=1)
            out.append((pmf * pay).sum(axis=1))
        return out

    def value(self, steps: np.ndarray, rewards: list[np.ndarray]) -> float:
        """Expected reward of stopping at ``steps``: a mean over joint paths."""
        table = np.stack(rewards)  # (K+1, 2**K)
        rows = np.arange(table.shape[1])[:, None]
        return float(table[steps, rows].mean())

    def best_value(self, rewards: list[np.ndarray]) -> float:
        """Optimal stopping value by backward induction over the tree."""
        val = self._node_mean(self.K, rewards[self.K])
        for k in range(self.K - 1, -1, -1):
            cont = self._node_mean(k, val[self.local[k + 1]])
            val = np.maximum(self._node_mean(k, rewards[k]), cont)
        return float(val[0])

    def _node_mean(self, k: int, per_path: np.ndarray) -> np.ndarray:
        """Mean of a per-path quantity over the paths through each layer-k node."""
        loc = self.local[k]
        vals = np.broadcast_to(per_path.reshape(len(per_path), -1), loc.shape)
        return np.bincount(loc.ravel(), weights=vals.ravel(),
                           minlength=self.layer_sizes[k]) / self.node_counts[k]


class CheckFailed(Exception):
    """An emitted result disagrees with the reference model."""


def _mass_before(cdf: np.ndarray, k: int) -> np.ndarray:
    return cdf[:, k - 1] if k > 0 else np.zeros(cdf.shape[0])


def _payoff(cfg: dict, dt: float):
    """reward_at(k, B_k, crowd) on arrays, from the payoff's definition."""
    kind = cfg["kind"]
    if kind == "crowd_fraction":
        return lambda k, b, crowd: np.asarray(crowd, dtype=float)
    if kind != "bankrun":
        raise ValueError(f"no reference model for the {kind!r} payoff")
    liq = cfg.get("liquidation", {})
    if liq.get("preset", "linear") != "linear":
        raise ValueError("the reference model has the linear liquidation map only")
    rho = float(cfg["rbar"]) - float(cfg["r"])
    d0 = float(cfg.get("d0", 1.0))
    a, c = float(liq.get("a", 0.5)), float(liq.get("c", 0.0))

    def reward_at(k, b, crowd):
        claim = np.clip(np.maximum(a * b + c, 0.0) - crowd, 0.0, d0)
        return math.exp(rho * k * dt) * claim

    return reward_at

"""Finite binomial path space for a common and an idiosyncratic noise.

Both noises are symmetric +/- random walks on a shared time grid
``{0, dt, ..., K*dt}``.  A path is encoded as a ``K``-bit integer whose
j-th bit is 1 when step ``j+1`` moves up, so each of the two marginal
path spaces has exactly ``2**K`` equally likely elements and the joint
space has ``4**K``.

Probabilities obtained by counting paths are dyadic rationals
``j / 2**K``; with ``K`` capped far below 53 these are exact in float64,
so counting-derived CDFs can be compared with ``==`` and no tolerance.
All objects here are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

HARD_STEP_CAP = 14


@dataclass(frozen=True)
class LatticeModel:
    """Geometry of the path lattice.

    Parameters
    ----------
    steps : int
        Number of increments K; the grid has K+1 dates.
    dt : float
        Step length; the horizon is ``T = steps * dt``.
    b0 : float
        Initial value of the common process.
    db : float
        Common-process increment magnitude per step.
    dw : float
        Idiosyncratic-process increment magnitude per step.
    w0 : float
        Initial value of the idiosyncratic process (fixed to 0).
    """

    steps: int
    dt: float
    b0: float
    db: float
    dw: float
    w0: float = 0.0

    @property
    def horizon(self) -> float:
        return self.steps * self.dt

    @cached_property
    def grid(self) -> np.ndarray:
        g = np.arange(self.steps + 1, dtype=float) * self.dt
        g.setflags(write=False)
        return g

    @property
    def num_paths(self) -> int:
        return 1 << self.steps

    @cached_property
    def path_ids(self) -> np.ndarray:
        ids = np.arange(self.num_paths, dtype=np.int64)
        ids.setflags(write=False)
        return ids

    def path_values(self, x0: float, dx: float) -> np.ndarray:
        """Values of every path at every grid date, shape (2**K, K+1)."""
        k = self.steps
        bits = (self.path_ids[:, None] >> np.arange(k)[None, :]) & 1
        walk = np.cumsum(2 * bits - 1, axis=1)
        vals = np.empty((self.num_paths, k + 1))
        vals[:, 0] = x0
        vals[:, 1:] = x0 + dx * walk
        vals.setflags(write=False)
        return vals

    @cached_property
    def b_values(self) -> np.ndarray:
        return self.path_values(self.b0, self.db)

    @cached_property
    def w_values(self) -> np.ndarray:
        return self.path_values(self.w0, self.dw)

    def time_index(self, t: float) -> int:
        """Grid index of a float date from outside the engine; raises if the
        date is off the grid."""
        k = int(round(t / self.dt))
        if k < 0 or k > self.steps or abs(t - k * self.dt) > 1e-9 * max(self.dt, 1.0):
            raise ValueError(f"time not on grid: {t!r}")
        return k

    def path_id_from_values(self, vals: Sequence[float]) -> int:
        """Invert ``path_values`` row -> path id (by increment signs)."""
        arr = np.asarray(vals, dtype=float)
        ups = np.diff(arr) > 0
        return int(np.sum((1 << np.arange(self.steps, dtype=np.int64))[ups]))


def build_lattice(steps: int, dt: float, b0: float, db: float, dw: float,
                  max_steps: int = HARD_STEP_CAP) -> LatticeModel:
    """Validate parameters and construct a :class:`LatticeModel`.

    ``max_steps`` bounds the 4**K joint enumeration; raise it explicitly
    if you really want a bigger lattice.
    """
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError("steps must be an integer >= 1")
    if dt <= 0 or db <= 0 or dw <= 0:
        raise ValueError("dt, db and dw must be positive")
    if steps > max_steps:
        raise ValueError(
            f"lattice too large: steps={steps} exceeds cap {max_steps} "
            f"(4**{steps} joint paths); pass max_steps to override")
    return LatticeModel(int(steps), float(dt), float(b0), float(db), float(dw))


# ---------------------------------------------------------------------------
# measures on the time grid
# ---------------------------------------------------------------------------


class GridMeasure:
    """Probability measure on the grid dates, a mass vector read by grid index.

    The CDF is the running sum of the mass, unless the measure was built
    :meth:`from_cdf`, which keeps the given CDF bit for bit.
    """

    __slots__ = ("mass", "_cdf")

    def __init__(self, mass: np.ndarray, _cdf: np.ndarray | None = None):
        mass = np.asarray(mass, dtype=float)
        if np.any(mass < 0):
            raise ValueError("mass must be nonnegative")
        total = float(mass.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mass must sum to 1, got {total!r}")
        cdf = np.cumsum(mass) if _cdf is None else np.array(_cdf, dtype=float)
        mass.setflags(write=False)
        cdf.setflags(write=False)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "_cdf", cdf)

    @classmethod
    def from_cdf(cls, cdf: np.ndarray) -> "GridMeasure":
        """The measure whose CDF is exactly ``cdf``; its mass is the CDF's
        differences, validated as any mass is."""
        cdf = np.asarray(cdf, dtype=float)
        mass = np.empty_like(cdf)
        mass[0] = cdf[0]
        mass[1:] = np.diff(cdf)
        return cls(mass, _cdf=cdf)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("GridMeasure is immutable")

    @property
    def cdf(self) -> np.ndarray:
        return self._cdf

    def mass_before(self, k: int) -> float:
        """Mass of [t_0, t_k): everything strictly before date ``k``."""
        if not 0 <= k < len(self._cdf):
            raise ValueError(f"grid index out of range: {k!r}")
        return float(self._cdf[k - 1]) if k > 0 else 0.0

    def mass_upto(self, k: int) -> float:
        """Mass of [t_0, t_k], the closed-interval read."""
        if not 0 <= k < len(self._cdf):
            raise ValueError(f"grid index out of range: {k!r}")
        return float(self._cdf[k])

    def __eq__(self, other) -> bool:
        return isinstance(other, GridMeasure) and np.array_equal(self.mass, other.mass)

    def __repr__(self) -> str:
        nz = {k: float(x) for k, x in enumerate(self.mass) if x > 0}
        return f"GridMeasure({nz})"


def point_mass(lat: LatticeModel, k: int) -> GridMeasure:
    """Dirac measure at grid index ``k``."""
    mass = np.zeros(lat.steps + 1)
    mass[k] = 1.0
    return GridMeasure(mass)


def empirical_measure(times: Iterable[float], lat: LatticeModel) -> GridMeasure:
    """Empirical distribution of a sequence of float grid dates."""
    return empirical_measure_from_steps([lat.time_index(t) for t in times], lat)


def empirical_measure_from_steps(steps: np.ndarray, lat: LatticeModel) -> GridMeasure:
    """Empirical distribution of a sequence of grid indices."""
    steps = np.asarray(steps)
    if steps.size == 0:
        raise ValueError("empirical_measure needs at least one time")
    mass = np.bincount(steps.ravel(), minlength=lat.steps + 1).astype(float)
    return GridMeasure(mass / steps.size)


def cdf_uniform_distance(m: GridMeasure, m0: GridMeasure) -> float:
    """Kolmogorov distance: sup over grid dates of |CDF difference|."""
    if len(m.mass) != len(m0.mass):
        raise ValueError("grid mismatch")
    return float(np.max(np.abs(m.cdf - m0.cdf)))


# ---------------------------------------------------------------------------
# adapted random measures
# ---------------------------------------------------------------------------


class AdaptedMeasure:
    """Per-common-path CDF over grid dates, adapted to the common history.

    ``cdf[b, k]`` is the probability that the population has stopped by
    date ``t_k`` on common path ``b``.  Adaptedness means the column-k
    entries agree across paths sharing the same k-step prefix; this is
    checked exactly (bit for bit) at construction.
    """

    __slots__ = ("lat", "cdf")

    def __init__(self, lat: LatticeModel, cdf: np.ndarray, _validated: bool = False):
        cdf = np.asarray(cdf, dtype=float)
        if cdf.shape != (lat.num_paths, lat.steps + 1):
            raise ValueError("cdf must have shape (2**K, K+1)")
        if not _validated:
            if np.any(cdf < 0.0) or np.any(cdf > 1.0):
                raise ValueError("cdf values must lie in [0, 1]")
            if np.any(np.diff(cdf, axis=1) < 0):
                raise ValueError("cdf must be nondecreasing along each path")
            if np.any(cdf[:, -1] != 1.0):
                raise ValueError("cdf must equal 1 at the horizon")
            assert_adapted(lat, cdf)
        cdf.setflags(write=False)
        object.__setattr__(self, "lat", lat)
        object.__setattr__(self, "cdf", cdf)

    def __setattr__(self, name, value):
        raise AttributeError("AdaptedMeasure is immutable")

    def __eq__(self, other) -> bool:
        return (isinstance(other, AdaptedMeasure)
                and self.lat == other.lat
                and np.array_equal(self.cdf, other.cdf))


def assert_adapted(lat: LatticeModel, cdf: np.ndarray) -> None:
    """Check cdf[:, k] is a function of the k-bit path prefix, exactly."""
    ids = lat.path_ids
    for k in range(lat.steps + 1):
        mask = (1 << k) - 1
        rep = ids & mask
        if not np.array_equal(cdf[:, k], cdf[rep, k]):
            raise ValueError(f"cdf not adapted at step {k}")


def stochastic_leq(mu: AdaptedMeasure, mu2: AdaptedMeasure) -> bool:
    """True iff ``mu <= mu2`` in the order where later stopping is larger.

    Equivalently: the CDF of ``mu2`` lies below the CDF of ``mu`` at
    every (path, date).  Exact comparison, no tolerance.
    """
    if mu.lat != mu2.lat:
        raise ValueError("lattice mismatch")
    return bool(np.all(mu2.cdf <= mu.cdf))

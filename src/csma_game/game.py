"""Strategic layer: wastage cost, payoff surfaces, and age rescaling.

Both networks pay the same wastage cost for idle and collided slots. The
age player maximizes -age - cost and the throughput player maximizes
throughput - cost. Because age and throughput live on very different
scales, the age surface is mapped onto the throughput range by an
increasing affine map before it enters the payoff; all reported age and
throughput values stay in raw physical units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .metrics import _aoi_expr, _throughput_expr
from .model import NetworkConfig, _Axis, _Cells

RescaleFn = Callable[[np.ndarray, np.ndarray], np.ndarray]

# Cells per row block of build_surfaces: 16 rows of a 999-point grid, so each
# temporary of the closed forms (128 KiB) stays in cache. A 99-point grid is
# one block.
_BLOCK_CELLS = 1 << 14


@dataclass(frozen=True)
class GridSpec:
    """Evenly spaced strategy grid, shared by both players."""

    lo: float = 0.01
    hi: float = 0.99
    step: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.lo <= self.hi < 1.0:
            raise ValueError(f"grid bounds must satisfy 0 < lo <= hi < 1, got [{self.lo}, {self.hi}]")
        if self.step <= 0.0:
            raise ValueError("grid step must be positive")
        ratio = (self.hi - self.lo) / self.step
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("grid span must be an integer number of steps")

    @property
    def n_points(self) -> int:
        return round((self.hi - self.lo) / self.step) + 1

    def points(self) -> np.ndarray:
        return self.lo + self.step * np.arange(self.n_points)


def _cost_expr(c, config: NetworkConfig, out=None):
    """Wastage cost on the shared factors ``c`` of a ``_Cells``, written into ``out`` if given."""
    cost = np.multiply(config.w_idle, c.p_idle, out=out)
    if config.w_col:  # with a zero weight the finite collision term adds +-0.0, which changes no bit
        collided = c.busy - c.d.n * c.d.tau * c.d.r1 * c.w.q
        collided -= c.w.n * c.w.tau * c.w.r1 * c.d.q
        collided *= config.w_col
        cost += collided
    return cost


def rescale_age(age: np.ndarray, throughput: np.ndarray) -> np.ndarray:
    """Increasing affine map of the age surface onto the throughput range.

    Endpoints of the age range land exactly on the endpoints of the
    throughput range. A constant age surface maps to the throughput
    minimum; a constant throughput range degenerates to a pure shift so the
    map stays order-preserving.
    """
    age_lo, age_hi = float(age.min()), float(age.max())
    thr_lo, thr_hi = float(throughput.min()), float(throughput.max())
    if age_hi == age_lo:
        return np.full_like(age, thr_lo)
    slope = (thr_hi - thr_lo) / (age_hi - age_lo)
    out = np.subtract(age, age_lo)
    if not slope <= 0.0:  # a slope <= 0 leaves a pure shift; a NaN one scales, to NaN
        out *= slope
    out += thr_lo
    return out


def rescale_age_per_opponent(age: np.ndarray, throughput: np.ndarray) -> np.ndarray:
    """Column-wise affine maps of the age surface onto the throughput range.

    Each fixed-opponent column (one tau_w value) is mapped onto the global
    throughput range separately. Age spans shrink by orders of magnitude as
    the opponent backs off, so under the single global map the age term is
    drowned out by costs in most columns; normalizing per column keeps age
    and cost comparable everywhere, which is what reproduces the reference
    equilibria of the costed game (including their multiplicity). Zero-cost
    equilibria are unaffected by the choice of map.
    """
    thr_lo, thr_hi = float(throughput.min()), float(throughput.max())
    lo = age.min(axis=0, keepdims=True)
    span = age.max(axis=0, keepdims=True) - lo
    # Mapped in place on the one output array: the build holds no grid beyond its results.
    out = np.subtract(age, lo)
    if thr_hi == thr_lo:
        out += thr_lo
        return out
    flat = ~(span > 0.0)  # a constant column, or one whose span is NaN
    out *= thr_hi - thr_lo
    out /= np.where(flat, 1.0, span)
    out += thr_lo
    np.copyto(out, thr_lo, where=flat)
    return out


@dataclass(frozen=True)
class PayoffSurfaces:
    """Age, throughput, cost, and rescaled-age values on the strategy grid.

    Arrays are indexed ``[i, j]`` with ``i`` the tau_d grid index and ``j``
    the tau_w grid index, and are read-only once built. The payoff grids,
    ``payoff_dsrc = -age_rescaled - cost`` and ``payoff_wifi = throughput -
    cost``, and each player's best-response mask, which the equilibrium
    solvers read, are computed on first use and kept, read-only. A mask that
    raises does not stop the other player's from being used.
    """

    config: NetworkConfig
    grid: GridSpec
    age: np.ndarray = field(repr=False)
    throughput: np.ndarray = field(repr=False)
    cost: np.ndarray = field(repr=False)
    age_rescaled: np.ndarray = field(repr=False)

    @cached_property
    def payoff_dsrc(self) -> np.ndarray:
        return _read_only(-self.age_rescaled - self.cost)

    @cached_property
    def payoff_wifi(self) -> np.ndarray:
        return _read_only(self.throughput - self.cost)

    @cached_property
    def _br_dsrc(self) -> np.ndarray:
        """True at each DSRC best response: the maxima of each tau_w column of ``payoff_dsrc``."""
        return _read_only(_best_responses(self.payoff_dsrc, 0))

    @cached_property
    def _br_wifi(self) -> np.ndarray:
        """True at each WiFi best response: the maxima of each tau_d row of ``payoff_wifi``."""
        return _read_only(_best_responses(self.payoff_wifi, 1))


def _best_responses(u: np.ndarray, axis: int) -> np.ndarray:
    """True where u equals its maximum along axis; every tied maximum is kept.

    An opponent strategy whose payoffs along axis are not all finite has no
    best response, and FloatingPointError says how many such strategies there
    are.
    """
    empty = int(np.count_nonzero(~np.isfinite(u).all(axis=axis)))
    if empty:
        raise FloatingPointError(
            f"no best response against {empty} opponent strategies: the payoff surface "
            "is not finite there, as when (1-tau)^n underflows for large node counts"
        )
    return u >= u.max(axis=axis, keepdims=True)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def build_surfaces(
    config: NetworkConfig,
    grid: GridSpec | None = None,
    rescale: RescaleFn | None = None,
) -> PayoffSurfaces:
    """Evaluate all four surfaces on the grid.

    Age, throughput and cost are filled in blocks of at least one tau_d row
    and at most ``_BLOCK_CELLS`` cells, so the closed forms' temporaries stay
    small; they share each block's ``_Cells`` and write into the surfaces, and
    every cell is the same as a whole-grid evaluation gives. ``rescale`` may
    be swapped for any other strictly increasing affine map of the age
    surface; with zero cost weights the equilibria do not depend on the choice.
    """
    if config.n_dsrc < 1 or config.n_wifi < 1:
        raise ValueError("the game needs at least one node in each network")
    grid = grid if grid is not None else GridSpec()
    pts = grid.points()
    # Factors on a column (tau_d) and a row (tau_w); the surfaces are their outer products.
    w = _Axis(pts[None, :], config.n_wifi)
    age, throughput, cost = (np.empty((pts.size, pts.size)) for _ in range(3))
    step = max(1, _BLOCK_CELLS // pts.size)
    for lo in range(0, pts.size, step):
        rows = slice(lo, lo + step)
        cells = _Cells(_Axis(pts[rows, None], config.n_dsrc), w, config.beta)
        _aoi_expr(cells, out=age[rows])
        _throughput_expr(cells, out=throughput[rows])
        _cost_expr(cells, config, out=cost[rows])
    rescaled = (rescale if rescale is not None else rescale_age)(age, throughput)
    for arr in (age, throughput, cost, rescaled):
        arr.setflags(write=False)
    return PayoffSurfaces(
        config=config, grid=grid, age=age, throughput=throughput, cost=cost, age_rescaled=rescaled
    )

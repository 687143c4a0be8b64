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
from typing import Callable

import numpy as np

from .metrics import _aoi_expr, _throughput_expr
from .model import DSRC, NetworkConfig, StrategyPair, _Axis, _require_player

RescaleFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


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

    def index_of(self, tau: float) -> int:
        """Index of a grid point; raises for values off the grid."""
        k = round((tau - self.lo) / self.step)
        if not 0 <= k < self.n_points or abs(self.lo + k * self.step - tau) > 1e-9:
            raise ValueError(f"{tau} is not a point of the grid [{self.lo}, {self.hi}] step {self.step}")
        return k


def _cost_expr(d, w, config: NetworkConfig):
    p_idle = d.q * w.q
    succ_d = d.n * d.tau * d.r1 * w.q
    succ_w = w.n * w.tau * w.r1 * d.q
    return config.w_idle * p_idle + config.w_col * (1.0 - p_idle - succ_d - succ_w)


def wastage_cost(pair: StrategyPair, config: NetworkConfig) -> float:
    """Idle plus collision penalty charged identically to both players."""
    d, w = _Axis(pair.tau_d, config.n_dsrc), _Axis(pair.tau_w, config.n_wifi)
    return float(_cost_expr(d, w, config))


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
    if slope <= 0.0:
        return age - age_lo + thr_lo
    return thr_lo + slope * (age - age_lo)


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
    if thr_hi == thr_lo:
        return age - lo + thr_lo
    safe = np.where(span > 0.0, span, 1.0)
    return np.where(span > 0.0, thr_lo + (thr_hi - thr_lo) * (age - lo) / safe, thr_lo)


@dataclass(frozen=True)
class PayoffSurfaces:
    """Age, throughput, cost, and rescaled-age values on the strategy grid.

    Arrays are indexed ``[i, j]`` with ``i`` the tau_d grid index and ``j``
    the tau_w grid index, and are read-only once built.
    """

    config: NetworkConfig
    grid: GridSpec
    age: np.ndarray = field(repr=False)
    throughput: np.ndarray = field(repr=False)
    cost: np.ndarray = field(repr=False)
    age_rescaled: np.ndarray = field(repr=False)

    def indices_of(self, pair: StrategyPair) -> tuple[int, int]:
        return self.grid.index_of(pair.tau_d), self.grid.index_of(pair.tau_w)

    def payoff_dsrc_grid(self) -> np.ndarray:
        return -self.age_rescaled - self.cost

    def payoff_wifi_grid(self) -> np.ndarray:
        return self.throughput - self.cost

    def payoff(self, player: str, pair: StrategyPair) -> float:
        """``player``'s payoff at a grid point; off-grid pairs are rejected."""
        _require_player(player)
        grid = self.payoff_dsrc_grid() if player == DSRC else self.payoff_wifi_grid()
        return float(grid[self.indices_of(pair)])


def build_surfaces(
    config: NetworkConfig,
    grid: GridSpec | None = None,
    rescale: RescaleFn | None = None,
) -> PayoffSurfaces:
    """Evaluate all four surfaces on the grid.

    ``rescale`` may be swapped for any other strictly increasing affine map
    of the age surface; with zero cost weights the equilibria do not depend
    on the choice.
    """
    if config.n_dsrc < 1 or config.n_wifi < 1:
        raise ValueError("the game needs at least one node in each network")
    grid = grid if grid is not None else GridSpec()
    pts = grid.points()
    # Factors on a column (tau_d) and a row (tau_w); the surfaces are their outer products.
    d, w = _Axis(pts[:, None], config.n_dsrc), _Axis(pts[None, :], config.n_wifi)
    age = _aoi_expr(d, w, config.beta)
    throughput = _throughput_expr(d, w, config.beta)
    cost = _cost_expr(d, w, config)
    rescaled = (rescale if rescale is not None else rescale_age)(age, throughput)
    for arr in (age, throughput, cost, rescaled):
        arr.setflags(write=False)
    return PayoffSurfaces(
        config=config, grid=grid, age=age, throughput=throughput, cost=cost, age_rescaled=rescaled
    )

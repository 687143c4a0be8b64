"""Strategic layer: payoff surfaces and age rescaling.

Both networks pay the same wastage cost (``metrics._cost_expr``) for idle
and collided slots. The age player maximizes -age - cost and the throughput
player maximizes throughput - cost. Because age and throughput live on very
different scales, the age surface is mapped onto the throughput range by an
increasing affine map before it enters the payoff; all reported age and
throughput values stay in raw physical units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .metrics import _aoi_expr, _cost_expr, _throughput_expr
from .model import NetworkConfig, _Axis, _Cells

RescaleFn = Callable[[np.ndarray, np.ndarray], np.ndarray]

# Cells per row block: 16 rows of a 999-point grid. The closed forms' temporaries and both sweep passes work
# on one block while it is in cache, and the sweep's second pass skips whole blocks. A 99-point grid is one block.
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
        if not 0.0 < self.step < math.inf:  # also rejects NaN
            raise ValueError(f"grid step must be positive and finite, got {self.step}")
        ratio = (self.hi - self.lo) / self.step
        if ratio == math.inf:  # round() would overflow
            raise ValueError(f"grid step {self.step} is too fine for the span [{self.lo}, {self.hi}]")
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):  # the ratio's rounding grows with it
            raise ValueError("grid span must be an integer number of steps")
        if self.hi > self.lo and round(ratio) == 0:
            raise ValueError(f"grid step {self.step} exceeds the span [{self.lo}, {self.hi}]")
        last = self.lo + self.step * round(ratio)  # as points() computes it: hi within the ratio's tolerance
        if not last < 1.0:
            raise ValueError(f"grid [{self.lo}, {self.hi}] in steps of {self.step} ends at {last!r}, not below 1")

    @property
    def n_points(self) -> int:
        return round((self.hi - self.lo) / self.step) + 1

    def points(self) -> np.ndarray:
        return self.lo + self.step * np.arange(self.n_points)


def rescale_age(age: np.ndarray, throughput: np.ndarray) -> np.ndarray:
    """Increasing affine map of the age surface onto the throughput range.

    Endpoints of the age range land exactly on the endpoints of the
    throughput range. A finite constant age surface maps to the throughput
    minimum and an all-infinite one to NaN; a constant throughput range
    degenerates to a pure shift so the map stays order-preserving.
    """
    age_lo, age_hi = float(age.min()), float(age.max())
    thr_lo, thr_hi = float(throughput.min()), float(throughput.max())
    span = age_hi - age_lo  # NaN when every age is +inf
    slope = (thr_hi - thr_lo) / span if span > 0.0 else 0.0
    with np.errstate(invalid="ignore"):  # inf - inf: an all-infinite surface is NaN, the solvers raise
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
    equilibria are unaffected by the choice of map. A finite constant column
    maps to the throughput minimum and an all-infinite one to NaN.
    """
    thr_lo, thr_hi = float(throughput.min()), float(throughput.max())
    lo = age.min(axis=0, keepdims=True)
    with np.errstate(invalid="ignore"):  # inf - inf and inf / inf: an infinite-age column is NaN, the solvers raise
        span = age.max(axis=0, keepdims=True) - lo
        out = np.subtract(age, lo)  # mapped in place: the build holds no grid beyond its results
        if thr_hi != thr_lo:
            out *= thr_hi - thr_lo
            out /= np.where(span > 0.0, span, 1.0)  # a finite constant column is 0 and lands on thr_lo
        out += thr_lo
    return out


@dataclass(frozen=True)
class PayoffSurfaces:
    """Age, throughput, cost, and rescaled-age values on the strategy grid.

    Arrays are indexed ``[i, j]`` with ``i`` the tau_d grid index and ``j``
    the tau_w grid index, and are read-only once built. Age, throughput and
    cost are the planes of one array, so a plane kept after the surfaces are
    dropped keeps all three alive (24 MB at 999 points a side). The payoffs
    ``-age_rescaled - cost`` and ``throughput - cost`` are never held as grids:
    one sweep over row blocks, run on first use and kept, gives what the
    solvers read. A mask that raises does not stop the other's from being used.
    """

    config: NetworkConfig
    grid: GridSpec
    age: np.ndarray = field(repr=False)
    throughput: np.ndarray = field(repr=False)
    cost: np.ndarray = field(repr=False)
    age_rescaled: np.ndarray = field(repr=False)

    def _payoffs(self, pick: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Both players' payoffs on the cells ``pick`` takes of each surface."""
        cost = pick(self.cost)
        u_dsrc = np.negative(pick(self.age_rescaled))
        u_dsrc -= cost
        return u_dsrc, np.subtract(pick(self.throughput), cost)

    @cached_property
    def _sweep(self) -> _Sweep:
        """Pass 1 takes the DSRC column extremes, the WiFi mask rows and the DSRC leader's worst payoffs, and notes
        each tau_w column's first and last row block to reach its running maximum. Pass 2 recomputes payoffs only
        in blocks inside some column's [first, last]: no other block holds a DSRC best response, so its mask rows
        stay False and it adds nothing to the WiFi leader's worst payoffs. Every value is a whole-grid reduction's."""
        n_d, n_w = self.age.shape
        br_dsrc, br_wifi = np.zeros((n_d, n_w), bool), np.empty((n_d, n_w), bool)
        top_d, bot_d = ext_d = np.full((2, n_w), [[-np.inf], [np.inf]])
        top_w, bot_w = ext_w = np.empty((2, n_d))
        worst_dsrc, worst_wifi = np.empty(n_d), np.full(n_w, np.inf)
        blocks = _row_blocks(n_d, n_w)
        first, last = np.zeros(n_w, np.intp), np.full(n_w, -1, np.intp)  # a NaN maximum ends a column's notes
        for b, rows in enumerate(blocks):
            u_d, u_w = self._payoffs(lambda a: a[rows])
            col_max = u_d.max(axis=0)
            if len(blocks) > 1:  # one block needs no notes: pass 2 reuses its payoffs
                np.putmask(first, col_max > top_d, b)
                np.putmask(last, col_max >= top_d, b)
            np.maximum(top_d, col_max, out=top_d)
            np.minimum(bot_d, u_d.min(axis=0), out=bot_d)
            u_w.max(axis=1, out=top_w[rows])
            u_w.min(axis=1, out=bot_w[rows])
            np.greater_equal(u_w, top_w[rows, None], out=br_wifi[rows])
            u_d.min(axis=1, where=br_wifi[rows], initial=np.inf, out=worst_dsrc[rows])
        # A range opens at its first block and closes after its last; an all -inf column's spans every block.
        edges = np.bincount(first, minlength=len(blocks) + 1) - np.bincount(last + 1, minlength=len(blocks) + 1)
        for b in np.flatnonzero(np.cumsum(edges))[::-1] if len(blocks) > 1 else [0]:  # last first: still at hand
            rows = blocks[b]
            if b < len(blocks) - 1:
                u_d, u_w = self._payoffs(lambda a: a[rows])
            np.greater_equal(u_d, top_d, out=br_dsrc[rows])
            np.minimum(worst_wifi, u_w.min(axis=0, where=br_dsrc[rows], initial=np.inf), out=worst_wifi)
        for mask in (br_dsrc, br_wifi):
            mask.setflags(write=False)
        return _Sweep(br_dsrc, br_wifi, ext_d, ext_w, worst_dsrc, worst_wifi)

    # Each player's best-response mask, True at the maxima of each opponent strategy's line of its payoff.
    _br_dsrc = property(lambda self: _best_responses(self._sweep.br_dsrc, self._sweep.extremes_dsrc))
    _br_wifi = property(lambda self: _best_responses(self._sweep.br_wifi, self._sweep.extremes_wifi))


class _Sweep(NamedTuple):
    """Each player's best-response mask (all tied maxima kept) and its payoff's maximum and minimum per
    opponent strategy; per leader strategy, the leader's least payoff over the follower's best responses."""

    br_dsrc: np.ndarray
    br_wifi: np.ndarray
    extremes_dsrc: np.ndarray  # (2, tau_w points); a NaN payoff propagates into both
    extremes_wifi: np.ndarray  # (2, tau_d points)
    worst_dsrc: np.ndarray
    worst_wifi: np.ndarray


def _best_responses(mask: np.ndarray, extremes: np.ndarray) -> np.ndarray:
    """The mask, unless an opponent strategy has no best response: its payoffs' maximum or minimum is not finite."""
    empty = int(np.count_nonzero(~np.isfinite(extremes).all(axis=0)))
    if empty:
        raise FloatingPointError(f"no best response against {empty} opponent strategies: the payoff surface "
                                 "is not finite there, as when (1-tau)^n underflows for large node counts")
    return mask


def _row_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Blocks of at least one row and at most ``_BLOCK_CELLS`` cells that cover the rows in order."""
    step = max(1, _BLOCK_CELLS // n_cols)
    return [slice(lo, lo + step) for lo in range(0, n_rows, step)]


def build_surfaces(
    config: NetworkConfig,
    grid: GridSpec | None = None,
    rescale: RescaleFn | None = None,
) -> PayoffSurfaces:
    """Evaluate all four surfaces on the grid.

    Age, throughput and cost are filled in blocks of at least one tau_d row
    and at most ``_BLOCK_CELLS`` cells. They share each block's ``_Cells``,
    whose factors and temporaries stay block-sized, and write into the
    surfaces; every cell is the same as a whole-grid evaluation gives. The
    three are planes of one (3, n, n) array: once glibc has freed one, its
    raised trim threshold keeps the pages, and later builds of that grid reuse
    them instead of faulting in fresh ones, as long as the array is within
    glibc's 32 MiB mmap ceiling (n <= 1182). ``rescale`` may
    be swapped for any other strictly increasing affine map of the age
    surface; with zero cost weights the equilibria do not depend on it.
    """
    if config.n_dsrc < 1 or config.n_wifi < 1:
        raise ValueError("the game needs at least one node in each network")
    grid = grid if grid is not None else GridSpec()
    pts = grid.points()
    # Factors on a column (tau_d) and a row (tau_w); the surfaces are their outer products.
    w = _Axis(pts[None, :], config.n_wifi)
    age, throughput, cost = stack = np.empty((3, pts.size, pts.size))
    # (1-tau)^n may underflow to 0 at large n: the age is then +inf, which the solvers report
    with np.errstate(divide="ignore", over="ignore"):
        for rows in _row_blocks(pts.size, pts.size):
            cells = _Cells(_Axis(pts[rows, None], config.n_dsrc), w, config.beta)
            _aoi_expr(cells, out=age[rows])
            _throughput_expr(cells, out=throughput[rows])
            _cost_expr(cells, config, out=cost[rows])
    del cells  # the build holds no more than its results while the map runs
    rescaled = (rescale if rescale is not None else rescale_age)(age, throughput)
    for arr in (stack, age, throughput, cost, rescaled):
        arr.setflags(write=False)
    return PayoffSurfaces(
        config=config, grid=grid, age=age, throughput=throughput, cost=cost, age_rescaled=rescaled
    )

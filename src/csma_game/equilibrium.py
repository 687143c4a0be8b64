"""Exhaustive Nash enumeration, pessimistic Stackelberg, and lone-network optima.

Everything here works on the finite strategy grid: Nash enumeration scans
every grid pair for mutual best responses (so multiple equilibria are found,
not just one), and the Stackelberg leader maximizes its worst payoff over the
follower's tied best responses. Lone-network optima additionally refine off
the grid.

A best response is an exact maximum of the responder's payoff against one
opponent strategy, and all tied maxima are kept (a constant column yields
the whole grid). The reference equilibria, including the costed game's
multiple equilibria, are all exact mutual maxima, so no tolerance is needed.
Both masks and both leaders' pessimistic values come from one cached sweep of
``PayoffSurfaces`` over its row blocks; a mask raises FloatingPointError where
a non-finite payoff leaves an opponent strategy without a best response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .game import GridSpec, PayoffSurfaces
from .metrics import _aoi_expr, _throughput_expr
from .model import DSRC, WIFI, NetworkConfig, StrategyPair, _Axis, _Cells, _require_player

# Spacing of the last subdivision of a lone-network optimum.
_REFINE = 1e-5


class NashResult(NamedTuple):
    """A mutual-best-response grid pair with its raw age/throughput values.

    A named tuple: it unpacks in field order and equals the plain tuple of its values."""

    pair: StrategyPair
    age: float
    throughput: float
    payoff_dsrc: float
    payoff_wifi: float


@dataclass(frozen=True)
class StackelbergResult:
    """Leader's max-min strategy, the worst-case follower reply, and values there."""

    leader: str
    pair: StrategyPair
    age: float
    throughput: float
    leader_guaranteed_payoff: float


@dataclass(frozen=True)
class SingleNetworkOptimum:
    """Best lone-network strategy: minimal age (dsrc) or maximal throughput (wifi)."""

    kind: str
    n: int
    tau_star: float
    value: float


def enumerate_nash(surfaces: PayoffSurfaces) -> list[NashResult]:
    """Every grid pair at which both strategies are mutual best responses.

    The list is ordered lexicographically by (tau_d, tau_w). An empty list
    is possible in principle and is reported as such, not raised. Raises
    FloatingPointError when a non-finite payoff leaves some opponent
    strategy without a best response. Both best-response masks are kept on
    the surfaces, where ``solve_stackelberg`` reuses them.
    """
    flat = np.flatnonzero(surfaces._br_dsrc)
    flat = flat[surfaces._br_wifi.take(flat)]  # in increasing order: lexicographic in (i, j)
    pts = surfaces.grid.points()
    i, j = np.divmod(flat, pts.size)
    # tuple.__new__ builds the records in C and skips StrategyPair's check: GridSpec puts every point in (0, 1).
    pairs = map(tuple.__new__, repeat(StrategyPair), zip(pts[i].tolist(), pts[j].tolist()))
    values = (surfaces.age.take(flat), surfaces.throughput.take(flat), *surfaces._payoffs(lambda a: a.take(flat)))
    rows = zip(pairs, *(v.tolist() for v in values))
    return list(map(tuple.__new__, repeat(NashResult), rows))


def solve_stackelberg(leader: str, surfaces: PayoffSurfaces) -> StackelbergResult:
    """Leader strategy maximizing the minimum leader payoff over follower ties.

    Ties in the leader's max-min value break toward the smallest strategy;
    the reported pair carries the follower reply that attains the minimum.
    A NaN max-min value raises FloatingPointError.
    """
    _require_player(leader)
    pts = surfaces.grid.points()
    if leader == DSRC:  # follower picks the tau_w column within each leader row
        fol_mask, pessimistic = surfaces._br_wifi, surfaces._sweep.worst_dsrc
    else:
        fol_mask, pessimistic = surfaces._br_dsrc.T, surfaces._sweep.worst_wifi
    if nan := int(np.count_nonzero(np.isnan(pessimistic))):  # argmax would pick the first NaN
        raise FloatingPointError(f"the {leader} leader's worst payoff is NaN at {nan} of its strategies: the payoff "
                                 "surface is not finite there, as when (1-tau)^n underflows for large node counts")
    li = int(np.argmax(pessimistic))
    replies = np.flatnonzero(fol_mask[li])
    u_dsrc, u_wifi = surfaces._payoffs(lambda a: a[li, replies] if leader == DSRC else a[replies, li])
    fj = int(replies[np.argmin(u_dsrc if leader == DSRC else u_wifi)])
    i, j = (li, fj) if leader == DSRC else (fj, li)
    return StackelbergResult(
        leader=leader,
        pair=StrategyPair(tau_d=float(pts[i]), tau_w=float(pts[j])),
        age=float(surfaces.age[i, j]),
        throughput=float(surfaces.throughput[i, j]),
        leader_guaranteed_payoff=float(pessimistic[li]),
    )


def single_network_optimum(
    kind: str,
    n: int,
    beta: float,
    grid: GridSpec | None = None,
) -> SingleNetworkOptimum:
    """Best strategy for a network that has the medium to itself.

    Coarse scan over the grid, then repeated local subdivision around the
    incumbent down to ``_REFINE`` resolution, never leaving [grid.lo, grid.hi]
    (optima can sit clamped on the boundary). Raises FloatingPointError when
    the optimum value is not finite, as when (1-tau)^n underflows for a very
    large n.
    """
    _require_player(kind)
    if n < 1:
        raise ValueError("the lone network needs at least one node")
    grid = grid if grid is not None else GridSpec()
    NetworkConfig(n_dsrc=n, n_wifi=0, beta=beta)  # rejects beta outside (0, 1)
    absent = _Axis(0.0, 0)

    @np.errstate(divide="ignore", over="ignore")  # (1-tau)^n underflows at large n: +inf, which argmin skips
    def loss(taus):
        own = _Axis(taus, n)
        return _aoi_expr(_Cells(own, absent, beta)) if kind == DSRC else -_throughput_expr(_Cells(absent, own, beta))

    pts = grid.points()
    k = int(np.argmin(loss(pts)))
    lo = max(grid.lo, float(pts[k]) - grid.step)
    hi = min(grid.hi, float(pts[k]) + grid.step)
    while True:
        xs = np.linspace(lo, hi, 41)
        vs = loss(xs)
        k = int(np.argmin(vs))
        if xs[1] - xs[0] <= _REFINE:
            tau_star = float(xs[k])
            value = float(vs[k])
            break
        lo = max(grid.lo, float(xs[max(k - 1, 0)]))
        hi = min(grid.hi, float(xs[min(k + 1, len(xs) - 1)]))
    if kind == WIFI:
        value = -value
    if not math.isfinite(value):
        raise FloatingPointError(
            f"lone {kind} network with n={n}: the optimum value is {value}, "
            "because (1-tau)^n underflows on the grid"
        )
    return SingleNetworkOptimum(kind=kind, n=n, tau_star=tau_star, value=value)

"""Exhaustive Nash enumeration, pessimistic Stackelberg, and lone-network optima.

Everything here works on the finite strategy grid: Nash enumeration scans
every grid pair for mutual best responses (so multiple equilibria are found,
not just one), and the Stackelberg leader maximizes its worst payoff over the
follower's tied best responses. A lone-network optimum is off the grid: the
root of ``analysis._payoff_slope`` with no opponent, clamped to [lo, hi].

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

from .analysis import _NEWTON_TOL, _payoff_slope
from .game import GridSpec, PayoffSurfaces
from .metrics import _aoi_expr, _throughput_expr
from .model import DSRC, NetworkConfig, StrategyPair, _Axis, _Cells, _require_player


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

    tau* is the root of the loss's slope, ``_payoff_slope`` against an absent opponent, clamped to [grid.lo,
    grid.hi]; ``grid`` is read for these bounds only. The slope is negative near 0 and positive at 1/n: one bisection
    of [0, min(grid.hi, 1/n)] on plain floats keeps the root's upper bound until the bracket is ``_NEWTON_TOL`` wide
    or lies below grid.lo. There (1-tau)^n >= 1/4 and tau > 5e-13, so no factor of a slope underflows. ``value`` is
    the closed form at tau*; FloatingPointError when it is not finite and positive, as when (1-tau)^n underflows.
    At n = 1 with a beta so small that 1 + beta rounds to 1 (about 1e-16), the slope loses beta and tau* can be
    grid.lo where the loss falls all the way to grid.hi; ``value`` is still right, as the loss is flat to rounding.
    """
    _require_player(kind)
    if n < 1:
        raise ValueError("the lone network needs at least one node")
    grid = grid if grid is not None else GridSpec()
    config = NetworkConfig(n_dsrc=n, n_wifi=0, beta=beta)  # rejects beta outside (0, 1); its weights are zero
    absent = _Axis(0.0, 0)
    lo, hi = 0.0, min(grid.hi, 1.0 / n)
    while hi > grid.lo and hi - lo > _NEWTON_TOL:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _payoff_slope(kind, _Axis(mid, n), absent, config) < 0.0 else (lo, mid)
    tau_star = max(hi, grid.lo)
    with np.errstate(divide="ignore", over="ignore"):  # (1-tau)^n underflows at large n: an infinite age
        own = _Axis(np.float64(tau_star), n)
        c = _Cells(own, absent, beta) if kind == DSRC else _Cells(absent, own, beta)
        value = float(_aoi_expr(c) if kind == DSRC else _throughput_expr(c))
    if not 0.0 < value < math.inf:  # at tau* > 0, a throughput of 0 is an underflow
        raise FloatingPointError(f"lone {kind} network with n={n}: the optimum value is {value}, "
                                 "because (1-tau)^n underflows on the grid")
    return SingleNetworkOptimum(kind=kind, n=n, tau_star=tau_star, value=value)

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
Both players' masks are read from ``PayoffSurfaces``, which computes each once
and raises FloatingPointError where a non-finite payoff leaves an opponent
strategy without a best response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import GridSpec, PayoffSurfaces
from .metrics import _aoi_expr, _throughput_expr
from .model import DSRC, WIFI, NetworkConfig, StrategyPair, _Axis, _Cells, _require_player

# Spacing of the last subdivision of a lone-network optimum.
_REFINE = 1e-5


@dataclass(frozen=True)
class NashResult:
    """A mutual-best-response grid pair with its raw age/throughput values."""

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
    both = surfaces._br_dsrc & surfaces._br_wifi
    i, j = np.nonzero(both)
    pts = surfaces.grid.points()
    columns = (pts[i], pts[j], surfaces.age[i, j], surfaces.throughput[i, j],
               surfaces.payoff_dsrc[i, j], surfaces.payoff_wifi[i, j])
    return [
        NashResult(StrategyPair(tau_d=td, tau_w=tw), age, thr, u_d, u_w)
        for td, tw, age, thr, u_d, u_w in zip(*(c.tolist() for c in columns))
    ]


def solve_stackelberg(leader: str, surfaces: PayoffSurfaces) -> StackelbergResult:
    """Leader strategy maximizing the minimum leader payoff over follower ties.

    Ties in the leader's max-min value break toward the smallest strategy;
    the reported pair carries the follower reply that attains the minimum.
    """
    _require_player(leader)
    pts = surfaces.grid.points()
    if leader == DSRC:  # follower picks the tau_w column within each leader row
        lead_u, fol_mask = surfaces.payoff_dsrc, surfaces._br_wifi
    else:
        lead_u, fol_mask = surfaces.payoff_wifi.T, surfaces._br_dsrc.T
    pessimistic = lead_u.min(axis=1, where=fol_mask, initial=np.inf)
    li = int(np.argmax(pessimistic))
    replies = np.flatnonzero(fol_mask[li])
    fj = int(replies[np.argmin(lead_u[li, replies])])
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

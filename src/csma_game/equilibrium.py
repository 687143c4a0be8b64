"""Best responses, exhaustive Nash enumeration, and pessimistic Stackelberg.

Everything here works on the finite strategy grid: best responses keep all
ties near the column maximum, Nash enumeration scans every grid pair for
mutual best responses (so multiple equilibria are found, not just one),
and the Stackelberg leader maximizes its worst payoff over the follower's
tie set. Lone-network optima additionally refine off the grid.

Tie handling: the default ``eps_tie = 0`` keeps exact maxima only (a
constant column still yields the whole grid, since every entry equals the
maximum); the reference equilibria, including the costed game's multiple
equilibria, are all exact mutual maxima, so nothing depends on a fuzz
factor. A positive ``eps_tie`` is available for sensitivity studies and is
measured relative to each opponent column's payoff spread - the rescaled
age surface can span ten orders of magnitude, which makes any absolute
tolerance meaningless across configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .game import GridSpec, PayoffSurfaces
from .metrics import _aoi_expr, _throughput_expr
from .model import DSRC, WIFI, NetworkConfig, StrategyPair, _Axis, _Cells, _require_player


@dataclass(frozen=True)
class BestResponseMap:
    """Tie-aware best replies of one player to every opponent grid value.

    ``mask[r, o]`` is True when ``responder_taus[r]`` is within
    ``eps_tie * (payoff spread of column o)`` of the best payoff against
    ``opponent_taus[o]``. It is a read-only view of the mask the solvers use.
    """

    responder: str
    responder_taus: np.ndarray = field(repr=False)
    opponent_taus: np.ndarray = field(repr=False)
    mask: np.ndarray = field(repr=False)
    eps_tie: float

    def response_set(self, opponent_tau: float) -> tuple[float, ...]:
        o = int(np.argmin(np.abs(self.opponent_taus - opponent_tau)))
        if abs(self.opponent_taus[o] - opponent_tau) > 1e-9:
            raise ValueError(f"{opponent_tau} is not an opponent grid value")
        return tuple(float(t) for t in self.responder_taus[self.mask[:, o]])


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


def _tie_mask(u: np.ndarray, axis: int, eps_tie: float) -> np.ndarray:
    """True where u is within eps_tie of the max, relative to the spread along axis.

    Raises FloatingPointError when some column has no best response, which
    happens only when the payoffs are not finite (``0 * inf`` is NaN).
    """
    if eps_tie < 0.0:
        raise ValueError("eps_tie must be non-negative")
    with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf; caught below as an empty column
        top = u.max(axis=axis, keepdims=True)
        spread = top - u.min(axis=axis, keepdims=True)
        mask = u >= top - eps_tie * spread
    empty = int(np.count_nonzero(~mask.any(axis=axis)))
    if empty:
        raise FloatingPointError(
            f"no best response against {empty} opponent strategies: the payoff surface "
            "is not finite there, as when (1-tau)^n underflows for large node counts"
        )
    return mask


def _br_mask(responder: str, surfaces: PayoffSurfaces, eps_tie: float) -> np.ndarray:
    """The responder's best-response mask, indexed ``[i, j]`` like the surfaces.

    Computed once per surfaces, responder and ``eps_tie``, and kept read-only
    on the surfaces. Each player's mask is kept on its own: one that raises
    does not stop the other from being used.
    """
    key = (responder, eps_tie)
    if key not in surfaces._masks:
        if responder == DSRC:
            mask = _tie_mask(surfaces.payoff_dsrc_grid(), 0, eps_tie)
        else:
            mask = _tie_mask(surfaces.payoff_wifi_grid(), 1, eps_tie)
        mask.setflags(write=False)
        surfaces._masks[key] = mask
    return surfaces._masks[key]


def best_response(responder: str, surfaces: PayoffSurfaces, eps_tie: float = 0.0) -> BestResponseMap:
    """All responder strategies tied with the best, per opponent value."""
    _require_player(responder)
    pts = surfaces.grid.points()
    mask = _br_mask(responder, surfaces, eps_tie)
    return BestResponseMap(
        responder=responder, responder_taus=pts, opponent_taus=pts,
        mask=mask if responder == DSRC else mask.T, eps_tie=eps_tie,
    )


def enumerate_nash(surfaces: PayoffSurfaces, eps_tie: float = 0.0) -> list[NashResult]:
    """Every grid pair at which both strategies are mutual best responses.

    The list is ordered lexicographically by (tau_d, tau_w). An empty list
    is possible in principle and is reported as such, not raised. Raises
    FloatingPointError when a non-finite payoff leaves some opponent
    strategy without a best response. Both best-response masks are kept on
    the surfaces, where ``solve_stackelberg`` reuses them.
    """
    both = _br_mask(DSRC, surfaces, eps_tie) & _br_mask(WIFI, surfaces, eps_tie)
    i, j = np.nonzero(both)
    pts = surfaces.grid.points()
    columns = (pts[i], pts[j], surfaces.age[i, j], surfaces.throughput[i, j],
               surfaces.payoff_dsrc_grid()[i, j], surfaces.payoff_wifi_grid()[i, j])
    return [
        NashResult(StrategyPair(tau_d=td, tau_w=tw), age, thr, u_d, u_w)
        for td, tw, age, thr, u_d, u_w in zip(*(c.tolist() for c in columns))
    ]


def solve_stackelberg(leader: str, surfaces: PayoffSurfaces, eps_tie: float = 0.0) -> StackelbergResult:
    """Leader strategy maximizing the minimum leader payoff over follower ties.

    Ties in the leader's max-min value break toward the smallest strategy;
    the reported pair carries the follower reply that attains the minimum.
    """
    _require_player(leader)
    pts = surfaces.grid.points()
    if leader == DSRC:  # follower picks the tau_w column within each leader row
        lead_u, fol_mask = surfaces.payoff_dsrc_grid(), _br_mask(WIFI, surfaces, eps_tie)
    else:
        lead_u, fol_mask = surfaces.payoff_wifi_grid().T, _br_mask(DSRC, surfaces, eps_tie).T
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
    refine: float = 1e-5,
) -> SingleNetworkOptimum:
    """Best strategy for a network that has the medium to itself.

    Coarse scan over the grid, then repeated local subdivision around the
    incumbent down to ``refine`` resolution, never leaving [grid.lo, grid.hi]
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
        if xs[1] - xs[0] <= refine:
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

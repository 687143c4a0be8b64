"""Per-node throughput and age of information.

A tagged node's inter-update time Z is a geometric number of non-updating
slots followed by one successful slot; its long-run time-average age
follows from the first two moments of Z (Kaul, Yates & Gruteser, INFOCOM
2012). The per-node functions work on an arbitrary heterogeneous
:class:`~csma_game.model.AccessVector` and read every slot probability from
one kernel pass. The homogeneous closed forms combine the per-axis
contention factors of :mod:`~csma_game.model`; they are what the game layer
evaluates on strategy grids, and they accept numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import AccessVector, NetworkConfig, SlotLengths, StrategyPair, _Axis


@dataclass(frozen=True)
class InterUpdateMoments:
    """First and second moments of a tagged node's inter-update time."""

    first: float
    second: float

    def __post_init__(self) -> None:
        if not self.first > 0.0:
            raise ValueError("mean inter-update time must be positive")
        # Jensen: E[Z^2] >= E[Z]^2 up to multiply/accumulate rounding.
        if self.second < self.first**2 * (1.0 - 1e-12):
            raise ValueError("second moment below the square of the first")


def _node_kernels(v: AccessVector, i: int):
    """The kernel pass of ``v`` and node i's solo-success probability."""
    if not 0 <= i < len(v.taus):
        raise IndexError(f"node index {i} out of range for {len(v.taus)} nodes")
    k = v._kernels
    return k, k.solo[i]


def _moments(v: AccessVector, s: SlotLengths, i: int) -> tuple[float, float]:
    """E[Z] and E[Z^2] for node i; see :func:`inter_update_moments`."""
    k, p = _node_kernels(v, i)
    if p <= 0.0:
        raise ValueError("tagged node never updates; inter-update time is infinite")
    sig_s = s.success
    if p >= 1.0:
        return sig_s, sig_s**2
    fail = 1.0 - p
    p_other = k.success - p
    ey = (k.idle * s.idle + p_other * s.success + k.collision * s.collision) / fail
    ey2 = (k.idle * s.idle**2 + p_other * s.success**2 + k.collision * s.collision**2) / fail
    el = 1.0 / p
    el2 = (2.0 - p) / p**2
    ez = (el - 1.0) * ey + sig_s
    ez2 = (el - 1.0) * (ey2 + 2.0 * sig_s * ey) + (el2 - 3.0 * el + 2.0) * ey**2 + sig_s**2
    return ez, ez2


def per_node_throughput(v: AccessVector, s: SlotLengths, i: int) -> float:
    """Fraction of time occupied by node i's successful transmissions."""
    k, p = _node_kernels(v, i)
    return p * s.success / k.mean_length(s)


def inter_update_moments(v: AccessVector, s: SlotLengths, i: int) -> InterUpdateMoments:
    """Moments of the time between node i's consecutive successful updates.

    The number of slots L until a success is geometric with parameter
    p = P(node i alone transmits). The preceding non-updating slots are iid
    with length Y: such a slot is idle, carries another node's success, or
    is a collision (node i possibly among its senders). The final slot has
    the success duration X with E[X] = sigma_S, E[X^2] = sigma_S^2.
    Composing,

        E[Z]   = (E[L] - 1) E[Y] + E[X]
        E[Z^2] = (E[L] - 1)(E[Y^2] + 2 E[X] E[Y])
                 + (E[L^2] - 3 E[L] + 2) E[Y]^2 + E[X^2].
    """
    ez, ez2 = _moments(v, s, i)
    return InterUpdateMoments(first=ez, second=ez2)


def aoi_node(v: AccessVector, s: SlotLengths, i: int) -> float:
    """Long-run time-average age of node i's delivered state.

    Age grows at unit rate and drops to sigma_S when an update lands, so the
    average is E[Z^2] / (2 E[Z]) + sigma_S.
    """
    ez, ez2 = _moments(v, s, i)
    return ez2 / (2.0 * ez) + s.success


# Homogeneous closed forms with short idle slots (beta) and success/collision
# slots of 1 + beta. ``d`` and ``w`` are the DSRC and WiFi axis factors.


def _throughput_expr(d, w, beta):
    succ_w = w.solo * d.q
    return succ_w * (1.0 + beta) / (1.0 - d.q * w.q + beta)


def _aoi_expr(d, w, beta):
    p_idle = d.q * w.q
    succ_d = d.solo * w.q
    busy = 1.0 - p_idle
    return (busy + beta) / succ_d + 0.5 * beta + (1.0 + beta) * busy / (2.0 * (busy + beta))


def throughput_closed_form(pair: StrategyPair, config: NetworkConfig) -> float:
    """Per-node WiFi throughput for homogeneous strategies (short-idle slots)."""
    if config.n_wifi == 0:
        return 0.0
    d, w = _Axis(pair.tau_d, config.n_dsrc), _Axis(pair.tau_w, config.n_wifi)
    return float(_throughput_expr(d, w, config.beta))


def aoi_closed_form(pair: StrategyPair, config: NetworkConfig) -> float:
    """Per-node DSRC age for homogeneous strategies (short-idle slots)."""
    if config.n_dsrc < 1:
        raise ValueError("age is defined only when the network has a node")
    if pair.tau_d <= 0.0:
        raise ValueError("tau_d must be positive; the tagged node never updates")
    d, w = _Axis(pair.tau_d, config.n_dsrc), _Axis(pair.tau_w, config.n_wifi)
    return float(_aoi_expr(d, w, config.beta))

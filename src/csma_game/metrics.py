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

import numpy as np

from .model import AccessVector, SlotLengths


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


def per_node_throughput(v: AccessVector, s: SlotLengths, i: int) -> float:
    """Fraction of time occupied by node i's successful transmissions."""
    k, p = _node_kernels(v, i)
    return p * s.success / k.mean_length(s)


def inter_update_moments(v: AccessVector, s: SlotLengths, i: int) -> InterUpdateMoments:
    """Moments of the time between node i's consecutive successful updates.

    Z is a renewal cycle: some slots that are not node i's success, then one
    that is, of duration sigma_S. Let p = P(node i alone transmits) and sum
    over the other outcomes (idle, another node's success, a collision with
    node i possibly among its senders) their probability times their length,
    g1, and times their squared length, g2. The number of slots before the
    success is geometric, so

        E[Z]   = (g1 + p sigma_S) / p
        E[Z^2] = sigma_S^2 + (2 sigma_S g1 + g2) / p + 2 g1^2 / p^2.

    There is no division by 1 - p: an always-alone node (p = 1) has
    g1 = g2 = 0 and Z = sigma_S exactly.
    """
    k, p = _node_kernels(v, i)
    if p == 0.0 and (v.taus[i] == 0.0 or 1.0 in v.taus[:i] + v.taus[i + 1 :]):  # an exact zero, not an underflow
        raise ValueError("tagged node never updates; inter-update time is infinite")
    ez = ez2 = np.inf
    if p * p > 0.0:  # at large n, p or p^2 underflows to 0
        sig_s = s.success
        p_other = k.success - p
        g1 = k.idle * s.idle + p_other * s.success + k.collision * s.collision
        g2 = k.idle * s.idle**2 + p_other * s.success**2 + k.collision * s.collision**2
        ez = (g1 + p * sig_s) / p
        ez2 = sig_s**2 + (2.0 * sig_s * g1 + g2) / p + 2.0 * g1**2 / p**2
    if not ez2 < np.inf:
        raise FloatingPointError(f"the inter-update moments of node {i} overflow the double range: "
                                 f"its per-slot update probability is {p!r}, as when (1-tau)^n underflows")
    return InterUpdateMoments(first=ez, second=ez2)


def aoi_node(v: AccessVector, s: SlotLengths, i: int) -> float:
    """Long-run time-average age of node i's delivered state.

    Age grows at unit rate and drops to sigma_S when an update lands, so the
    average is E[Z^2] / (2 E[Z]) + sigma_S.
    """
    moments = inter_update_moments(v, s, i)
    return moments.second / (2.0 * moments.first) + s.success


# Homogeneous closed forms with short idle slots (beta) and success/collision
# slots of 1 + beta on the factors of a ``_Cells``, written into ``out`` if given.


def _throughput_expr(c, out=None):
    succ_w = c.w.solo * c.d.q
    succ_w *= 1.0 + c.beta
    return np.divide(succ_w, c.mean_length, out=out)


def _aoi_expr(c, out=None):
    rate = c.mean_length / (c.d.solo * c.w.q)
    rate += 0.5 * c.beta
    tail = (1.0 + c.beta) * c.busy
    tail /= 2.0 * c.mean_length
    return np.add(rate, tail, out=out)

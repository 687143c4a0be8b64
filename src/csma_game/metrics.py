"""Per-node throughput and age of information.

A tagged node's inter-update time Z is a geometric number of slots that are
not its success followed by one that is; its long-run time-average age
follows from the first two moments of Z (Kaul, Yates & Gruteser, INFOCOM
2012). Age and throughput each have one closed form, ``_aoi_expr`` and
``_throughput_expr``, on a node's success probability, the busy probability
and beta. The game layer evaluates them on the per-axis contention factors
of a :mod:`~csma_game.model` ``_Cells``, as numpy arrays over whole strategy
grids; the per-node functions evaluate them on one node of an arbitrary
heterogeneous :class:`~csma_game.model.AccessVector`, as plain floats read
from its one cached kernel pass, and take the inter-update moments from the
age.
"""

from __future__ import annotations

import math
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


class _Node:
    """Node i's factors under the names the closed forms read from a ``_Cells``,
    on plain floats from the cached kernel pass of ``v``: its per-slot update
    probability stands in for either network's success probability."""

    __slots__ = ("succ_d", "succ_w", "busy", "mean_length", "beta")
    spare = None  # no scratch array: the closed forms make plain floats

    def __init__(self, v: AccessVector, s: SlotLengths, i: int):
        if not 0 <= i < len(v.taus):
            raise IndexError(f"node index {i} out of range for {len(v.taus)} nodes")
        k = v._kernels
        self.succ_d = self.succ_w = k.solo[i]
        self.busy = 1.0 - k.idle
        self.beta = s.beta
        self.mean_length = self.busy + self.beta  # as in ``_Cells``


def _age_and_moments(v: AccessVector, s: SlotLengths, i: int) -> tuple[float, float, float]:
    """Node i's age and the first two moments of its inter-update time Z.

    Z is a geometric number of slots of mean length L, the last of them node
    i's success, so E[Z] = L / p for its per-slot update probability p, and
    the age E[Z^2] / (2 E[Z]) + sigma_S gives E[Z^2] = 2 E[Z] (age - sigma_S).
    """
    node = _Node(v, s, i)
    p = node.succ_d
    if p == 0.0 and (v.taus[i] == 0.0 or 1.0 in v.taus[:i] + v.taus[i + 1 :]):  # an exact zero, not an underflow
        raise ValueError("tagged node never updates; inter-update time is infinite")
    age = ez = ez2 = math.inf
    if p > 0.0:  # at large n, p underflows to 0
        age = _aoi_expr(node)
        ez = node.mean_length / p
        ez2 = 2.0 * ez * (age - s.success)
    if not ez2 < math.inf:
        raise FloatingPointError(f"the inter-update moments of node {i} overflow the double range: "
                                 f"its per-slot update probability is {p!r}, as when (1-tau)^n underflows")
    return age, ez, ez2


def per_node_throughput(v: AccessVector, s: SlotLengths, i: int) -> float:
    """Fraction of time occupied by node i's successful transmissions."""
    return _throughput_expr(_Node(v, s, i))


def inter_update_moments(v: AccessVector, s: SlotLengths, i: int) -> InterUpdateMoments:
    """Moments of the time between node i's consecutive successful updates."""
    return InterUpdateMoments(*_age_and_moments(v, s, i)[1:])


def aoi_node(v: AccessVector, s: SlotLengths, i: int) -> float:
    """Long-run time-average age of node i's delivered state: it grows at unit
    rate and drops to sigma_S when an update lands."""
    return _age_and_moments(v, s, i)[0]


# The closed forms, with idle slots of beta and success/collision slots of
# 1 + beta, on the factors of a ``_Cells`` or a ``_Node``. Grid cells are numpy
# arrays, written into ``out`` and the cells' buffers if given; a node is floats.


def _throughput_expr(c, out=None):
    succ_w = c.succ_w
    succ_w *= 1.0 + c.beta
    return succ_w / c.mean_length if out is None else np.divide(succ_w, c.mean_length, out=out)


def _aoi_expr(c, out=None):
    rate = c.mean_length / c.succ_d if out is None else np.divide(c.mean_length, c.succ_d, out=out)
    rate += 0.5 * c.beta
    # (1 + beta) * busy / (2 L) to the bit: halving is exact, as busy is 0 or at least 2**-53, never subnormal
    tail = (1.0 + c.beta) * 0.5 * c.busy if c.spare is None else np.multiply((1.0 + c.beta) * 0.5, c.busy, out=c.spare)
    tail /= c.mean_length
    rate += tail
    return rate

"""Slot-level probability kernels for a slotted multiaccess channel.

Every node transmits independently in each slot with its own access
probability. A slot with no transmitter is idle, a slot with exactly one
transmitter is a success, and a slot with two or more is a collision; each
outcome has its own duration (Bianchi, IEEE JSAC 2000). These kernels are
the building blocks for the throughput and age metrics and for the game
layered on top.

Each slot probability has one formula here. ``_slot_kernels`` computes all
of them for an arbitrary access vector in one pass; ``_Axis`` computes the
``(1-tau)^n`` contention factors of one homogeneous network once per
strategy axis and ``_Cells`` the slot factors of a pair of axes; the closed
forms, the payoff surfaces and the derivative terms combine those factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import mul
from typing import NamedTuple

DSRC = "dsrc"
WIFI = "wifi"
PLAYERS = (DSRC, WIFI)


def _require_player(tag: str) -> None:
    if tag not in PLAYERS:
        raise ValueError(f"player must be {DSRC!r} or {WIFI!r}, got {tag!r}")


@dataclass(frozen=True)
class SlotLengths:
    """Durations of the three slot outcomes."""

    idle: float
    success: float
    collision: float

    def __post_init__(self) -> None:
        if not (self.idle > 0.0 and self.success > 0.0 and self.collision > 0.0):
            raise ValueError("slot lengths must be strictly positive")

    @classmethod
    def from_beta(cls, beta: float) -> "SlotLengths":
        """Short idle slots of length beta, success/collision slots of 1 + beta."""
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {beta}")
        return cls(idle=beta, success=1.0 + beta, collision=1.0 + beta)


@dataclass(frozen=True)
class NetworkConfig:
    """A two-network channel-sharing instance.

    ``n_dsrc`` nodes care about age, ``n_wifi`` nodes care about throughput.
    Either count may be zero (a lone-network baseline) but not both. The
    weights price wasted slots: ``w_idle`` per idle slot probability and
    ``w_col`` per collision probability.
    """

    n_dsrc: int
    n_wifi: int
    beta: float
    w_idle: float = 0.0
    w_col: float = 0.0

    def __post_init__(self) -> None:
        if self.n_dsrc < 0 or self.n_wifi < 0:
            raise ValueError("node counts must be non-negative")
        if self.n_dsrc + self.n_wifi < 1:
            raise ValueError("need at least one node across both networks")
        self.slot_lengths()  # rejects beta outside (0, 1)
        if not all(0.0 <= w < math.inf for w in (self.w_idle, self.w_col)):  # also rejects NaN
            raise ValueError("cost weights must be finite and non-negative")

    def slot_lengths(self) -> SlotLengths:
        return SlotLengths.from_beta(self.beta)


@dataclass(frozen=True)
class StrategyPair:
    """One access probability per network.

    A component of 0 stands in for a network with no nodes (its
    contention factor is then 1); the solvers themselves only ever search
    strictly positive probabilities.
    """

    tau_d: float
    tau_w: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau_d < 1.0 > self.tau_w >= 0.0:
            name, tau = ("tau_w", self.tau_w) if 0.0 <= self.tau_d < 1.0 else ("tau_d", self.tau_d)
            raise ValueError(f"{name} must lie in [0, 1), got {tau}")


@dataclass(frozen=True)
class AccessVector:
    """Per-node access probabilities plus each node's network tag.

    tau = 1 is admitted so that a deterministic always-transmit node can be
    expressed (useful as a degenerate sanity case); tau = 0 models nodes of
    an absent network.
    """

    taus: tuple[float, ...]
    tags: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.taus) != len(self.tags):
            raise ValueError("taus and tags must have equal length")
        if not self.taus:
            raise ValueError("access vector must contain at least one node")
        for tau in self.taus:
            if not 0.0 <= tau <= 1.0:
                raise ValueError(f"access probability out of [0, 1]: {tau}")
        for tag in self.tags:
            if tag not in PLAYERS:
                raise ValueError(f"unknown network tag: {tag!r}")

    @classmethod
    def homogeneous(cls, config: NetworkConfig, pair: StrategyPair) -> "AccessVector":
        """All DSRC nodes at tau_d, all WiFi nodes at tau_w."""
        taus = (pair.tau_d,) * config.n_dsrc + (pair.tau_w,) * config.n_wifi
        tags = (DSRC,) * config.n_dsrc + (WIFI,) * config.n_wifi
        return cls(taus=taus, tags=tags)

    def __len__(self) -> int:
        return len(self.taus)

    @cached_property
    def _kernels(self) -> _SlotKernels:
        """The slot kernels, computed on first use; the vector is immutable,
        so evaluating every node of it makes one pass, not one per node."""
        return _slot_kernels(self.taus)


class _SlotKernels(NamedTuple):
    """Slot-outcome probabilities of one access vector."""

    idle: float  # nobody transmits
    excl: tuple[float, ...]  # excl[i]: no node other than i transmits
    solo: tuple[float, ...]  # solo[i]: node i alone transmits
    success: float  # exactly one node transmits
    collision: float  # two or more nodes transmit

    def mean_length(self, s: SlotLengths) -> float:
        return s.idle * self.idle + s.success * self.success + s.collision * self.collision


def _slot_kernels(taus: tuple[float, ...]) -> _SlotKernels:
    """Every slot probability of ``taus`` in one prefix/suffix pass.

    excl[i] multiplies the (1 - tau) factors before node i by those after
    it; there is no division, so tau = 1 entries are handled exactly.
    """
    ones = [1.0 - tau for tau in taus]
    pref = list(accumulate(ones, mul, initial=1.0))
    suf = list(accumulate(reversed(ones), mul, initial=1.0))[::-1]
    excl = tuple(map(mul, pref, suf[1:]))
    solo = tuple(map(mul, taus, excl))
    success = sum(solo)
    return _SlotKernels(pref[-1], excl, solo, success, 1.0 - pref[-1] - success)


class _Axis:
    """Contention factors of ``n`` nodes at access probability ``tau``.

    ``tau`` is a scalar or an array: an array gives the factors of a whole
    strategy axis at once. A network with no nodes is ``tau = 0, n = 0``,
    whose factors are all 1 except ``solo``, which is 0.
    """

    __slots__ = ("n", "tau", "q", "solo", "r1", "r2")

    def __init__(self, tau, n: int):
        one = 1.0 - tau
        self.n = n
        self.tau = tau
        self.q = one**n  # the whole network is silent
        self.r1 = one ** (n - 1)
        self.solo = tau * self.r1  # one given node alone transmits in its network
        self.r2 = one ** (n - 2)


class _Cells:
    """Slot factors of (tau_d, tau_w) cells from the DSRC and WiFi ``_Axis``
    ``d`` and ``w``; a tau_d column and a tau_w row give a whole grid."""

    def __init__(self, d: _Axis, w: _Axis, beta: float):
        self.d, self.w, self.beta = d, w, beta
        self.p_idle = d.q * w.q  # nobody transmits

    busy = cached_property(lambda self: 1.0 - self.p_idle)
    mean_length = cached_property(lambda self: self.busy + self.beta)  # idle slots of beta, others of 1 + beta

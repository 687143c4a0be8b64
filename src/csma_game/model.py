"""Slot-level probability kernels for a slotted multiaccess channel.

Every node transmits independently in each slot with its own access
probability. A slot with no transmitter is idle, a slot with exactly one
transmitter is a success, and a slot with two or more is a collision; idle
slots last beta and the others 1 + beta (Bianchi, IEEE JSAC 2000). These
kernels are the building blocks for the throughput and age metrics and for
the game layered on top.

Each slot probability has one formula here. ``_slot_kernels`` computes the
idle and solo probabilities of any access vector in one pass; ``_Axis`` the
``(1-tau)^n`` contention factors of one homogeneous network once per
strategy axis and ``_Cells`` the slot factors of a pair of axes; the closed
forms, the payoff surfaces and the derivative terms combine those factors.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import mul
from typing import NamedTuple

import numpy as np

DSRC = "dsrc"
WIFI = "wifi"
PLAYERS = (DSRC, WIFI)


def _require_player(tag: str) -> None:
    if tag not in PLAYERS:
        raise ValueError(f"player must be {DSRC!r} or {WIFI!r}, got {tag!r}")


@dataclass(frozen=True)
class SlotLengths:
    """Slot durations set by beta: idle slots last beta, success and collision slots 1 + beta."""

    beta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < 1.0:  # also rejects NaN
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")

    idle = property(lambda self: self.beta)
    success = collision = property(lambda self: 1.0 + self.beta)

    @classmethod
    def from_beta(cls, beta: float) -> "SlotLengths":
        """The same as ``SlotLengths(beta)``."""
        return cls(beta)


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
        try:  # a float count would become a fractional exponent; int and numpy integers pass
            operator.index(self.n_dsrc), operator.index(self.n_wifi)
        except TypeError:
            raise ValueError(f"node counts must be integers, got {self.n_dsrc!r} and {self.n_wifi!r}") from None
        if self.n_dsrc < 0 or self.n_wifi < 0:
            raise ValueError("node counts must be non-negative")
        if self.n_dsrc + self.n_wifi < 1:
            raise ValueError("need at least one node across both networks")
        self.slot_lengths()  # rejects beta outside (0, 1)
        if not all(0.0 <= w < math.inf for w in (self.w_idle, self.w_col)):  # also rejects NaN
            raise ValueError("cost weights must be finite and non-negative")

    def slot_lengths(self) -> SlotLengths:
        return SlotLengths.from_beta(self.beta)


class StrategyPair(NamedTuple("_StrategyPair", [("tau_d", float), ("tau_w", float)])):
    """One access probability per network.

    A named tuple: it unpacks as ``tau_d, tau_w`` and compares equal to the
    plain tuple of the same values. A component of 0 stands in for a network
    with no nodes (its contention factor is then 1); the solvers themselves
    only ever search strictly positive probabilities.
    """

    __slots__ = ()

    def __new__(cls, tau_d: float, tau_w: float) -> "StrategyPair":
        if not 0.0 <= tau_d < 1.0 > tau_w >= 0.0:
            name, tau = ("tau_w", tau_w) if 0.0 <= tau_d < 1.0 else ("tau_d", tau_d)
            raise ValueError(f"{name} must lie in [0, 1), got {tau}")
        return super().__new__(cls, tau_d, tau_w)


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
    solo: tuple[float, ...]  # solo[i]: node i alone transmits


def _slot_kernels(taus: tuple[float, ...]) -> _SlotKernels:
    """The idle and per-node solo probabilities of ``taus`` in one prefix/suffix pass.

    solo[i] multiplies tau_i by the (1 - tau) factors before node i and those
    after it; there is no division, so tau = 1 entries are handled exactly.
    """
    ones = [1.0 - tau for tau in taus]
    pref = list(accumulate(ones, mul, initial=1.0))
    suf = list(accumulate(reversed(ones), mul, initial=1.0))[::-1]
    return _SlotKernels(pref[-1], tuple(map(mul, taus, map(mul, pref, suf[1:]))))


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
    """Slot factors of (tau_d, tau_w) cells from the DSRC and WiFi ``_Axis`` ``d`` and ``w``; a tau_d column and a
    tau_w row give a whole grid. ``bufs``, five arrays of the cells' shape, take in order ``p_idle``, ``busy``,
    ``mean_length``, each ``succ_d`` or ``succ_w`` read and ``spare``, the closed forms' temporary."""

    def __init__(self, d: _Axis, w: _Axis, beta: float, bufs=(None,) * 5):
        self.d, self.w, self.beta = d, w, beta
        p_idle, self._busy, self._length, self._succ, self.spare = bufs
        self.p_idle = np.multiply(d.q, w.q, out=p_idle)  # nobody transmits

    busy = cached_property(lambda self: np.subtract(1.0, self.p_idle, out=self._busy))
    mean_length = cached_property(lambda self: np.add(self.busy, self.beta, out=self._length))  # beta idle, 1+beta busy
    # One given DSRC (WiFi) node alone transmits; a value of its own on each read, which the closed forms reuse.
    succ_d = property(lambda self: np.multiply(self.d.solo, self.w.q, out=self._succ))
    succ_w = property(lambda self: np.multiply(self.w.solo, self.d.q, out=self._succ))

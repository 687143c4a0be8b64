"""Monte Carlo slot simulator: the independent oracle for the analytics.

One replication draws every node's transmit decision per slot, classifies
slots as idle/success/collision, and accumulates continuous time as the
sum of slot durations. Decisions are drawn in chunks of rows, which consume
the generator's stream exactly as one ``(horizon, n)`` draw would; a slot
keeps only its transmitter count and its lowest transmitter, so memory
grows with the horizon plus one chunk, not with horizon x n.

Every per-node estimate comes from the node's delivery times, the ends of
the slots in which it alone transmitted. Its age grows at unit rate and
drops to the success-slot length at each delivery, with time 0 counted as
a delivery, so a gap Z between deliveries adds the area ``s_S*Z + Z^2/2``
(Kaul, Yates & Gruteser, INFOCOM 2012); the age integral up to any time
is exact. Estimates use only the post-warmup window. Age and throughput
standard errors come from batch means (age samples are autocorrelated; a
naive variance would understate the error), while inter-update times are
iid by construction so their moments use plain sample standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import AccessVector, SlotLengths

_N_BATCHES = 100
# Uniforms drawn per chunk; a chunk holds max(1, _CHUNK // n) slots.
_CHUNK = 1 << 20


class NoProgressError(RuntimeError):
    """Raised when a finished replication contains no successful slot."""


@dataclass(frozen=True)
class SimConfig:
    """Replication length, seed, and the slots excluded from averages.

    ``warmup_slots=None`` means 1% of the horizon.
    """

    horizon_slots: int
    seed: int
    warmup_slots: int | None = None

    def __post_init__(self) -> None:
        if self.horizon_slots < 1:
            raise ValueError("horizon must be at least one slot")
        if self.resolved_warmup < 0 or self.resolved_warmup >= self.horizon_slots:
            raise ValueError("warmup must satisfy 0 <= warmup < horizon")

    @property
    def resolved_warmup(self) -> int:
        return self.horizon_slots // 100 if self.warmup_slots is None else self.warmup_slots


@dataclass(frozen=True)
class SimResult:
    """Per-node empirical estimates with standard errors, plus slot counts.

    Array fields are indexed by node. ``inter_update_*`` entries are NaN for
    nodes without enough post-warmup updates. Slot counts cover the measured
    (post-warmup) window and sum to ``slots_measured``.
    """

    throughput: np.ndarray = field(repr=False)
    throughput_se: np.ndarray = field(repr=False)
    age: np.ndarray = field(repr=False)
    age_se: np.ndarray = field(repr=False)
    inter_update_mean: np.ndarray = field(repr=False)
    inter_update_mean_se: np.ndarray = field(repr=False)
    inter_update_sq_mean: np.ndarray = field(repr=False)
    inter_update_sq_mean_se: np.ndarray = field(repr=False)
    update_counts: np.ndarray = field(repr=False)
    slots_idle: int
    slots_success: int
    slots_collision: int
    slots_measured: int
    time_measured: float

    def slot_fractions(self) -> np.ndarray:
        counts = np.array([self.slots_idle, self.slots_success, self.slots_collision], dtype=float)
        return counts / self.slots_measured

    def slot_fraction_se(self) -> np.ndarray:
        f = self.slot_fractions()
        return np.sqrt(f * (1.0 - f) / self.slots_measured)


def _batch_edges(start: int, stop: int) -> np.ndarray:
    n = stop - start
    b = min(_N_BATCHES, n)
    return start + (np.arange(b + 1) * n) // b


def _batch_means(batch_sums: np.ndarray, batch_time: np.ndarray) -> tuple[float, float]:
    """Time average over the batches and its batch-means standard error."""
    n_batches = batch_sums.size
    se = (batch_sums / batch_time).std(ddof=1) / np.sqrt(n_batches) if n_batches > 1 else np.nan
    return batch_sums.sum() / batch_time.sum(), se


def _sample_mean_se(x: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error, NaN where there are too few samples."""
    mean = x.mean() if x.size else np.nan
    return mean, x.std(ddof=1) / np.sqrt(x.size) if x.size >= 2 else np.nan


def run_simulation(v: AccessVector, s: SlotLengths, cfg: SimConfig) -> SimResult:
    """Run one seeded replication and estimate every per-node quantity.

    Deterministic: identical inputs give bit-identical results.
    """
    n = len(v)
    horizon = cfg.horizon_slots
    warmup = cfg.resolved_warmup
    rng = np.random.default_rng(cfg.seed)
    taus = np.asarray(v.taus)

    rows = max(1, _CHUNK // n)
    tx_count = np.empty(horizon, dtype=np.int64)
    lowest = np.empty(horizon, dtype=np.intp)
    for first in range(0, horizon, rows):
        transmit = rng.random((min(rows, horizon - first), n)) < taus
        transmit.sum(axis=1, out=tx_count[first:first + rows])
        transmit.argmax(axis=1, out=lowest[first:first + rows])
    success = tx_count == 1
    if not success.any():
        raise NoProgressError("no successful slot in the whole horizon; all access probabilities zero?")

    slot_len = np.where(tx_count == 0, s.idle, np.where(success, s.success, s.collision))
    clock = np.concatenate(([0.0], np.cumsum(slot_len)))  # clock[k]: start of slot k
    edges = _batch_edges(warmup, horizon)
    edge_time = clock[edges]
    batch_time = np.diff(edge_time)

    # Success slots grouped by their transmitter, each group in slot order.
    success_slots = np.flatnonzero(success)
    winner = lowest[success_slots]
    groups = np.cumsum(np.bincount(winner, minlength=n))[:-1]
    by_node = np.split(success_slots[np.argsort(winner, kind="stable")], groups)

    estimates = np.empty((9, n))  # rows in SimResult field order, update counts last
    for i, slots in enumerate(by_node):
        delivered = np.concatenate(([0.0], clock[slots + 1]))
        gap = np.diff(delivered)
        cum_area = np.concatenate(([0.0], np.cumsum(s.success * gap + 0.5 * gap * gap)))
        last = np.searchsorted(delivered, edge_time, side="right") - 1
        since = edge_time - delivered[last]
        area = cum_area[last] + s.success * since + 0.5 * since * since
        batch_updates = np.diff(np.searchsorted(slots, edges))
        measured = delivered[1 + np.searchsorted(slots, warmup):]
        z = np.diff(measured)
        estimates[:, i] = (
            *_batch_means(s.success * batch_updates, batch_time),
            *_batch_means(np.diff(area), batch_time),
            *_sample_mean_se(z),
            *_sample_mean_se(z**2),
            measured.size,
        )

    measured_counts = tx_count[warmup:]
    slots_idle = int(np.count_nonzero(measured_counts == 0))
    slots_success = int(np.count_nonzero(measured_counts == 1))
    slots_measured = horizon - warmup

    return SimResult(
        *estimates[:8],
        update_counts=estimates[8].astype(np.int64),
        slots_idle=slots_idle,
        slots_success=slots_success,
        slots_collision=slots_measured - slots_idle - slots_success,
        slots_measured=slots_measured,
        time_measured=float(batch_time.sum()),
    )

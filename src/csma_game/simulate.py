"""Monte Carlo slot simulator: the independent oracle for the analytics.

One replication draws every node's transmit decision per slot, classifies
slots as idle/success/collision, and accumulates continuous time as the
sum of slot durations. One pass covers the warm-up, then each batch, in
chunks of rows drawn into one reused buffer; they consume the generator's
stream exactly as one ``(horizon, n)`` draw would. A chunk's 0/1 decisions
times the ``(n, 2)`` matrix ``[1, i]`` give each slot's transmitter count
and, in a success slot, its transmitter, exactly (integer sums below 2^53).
Memory is one chunk plus per-node x per-batch state, whatever the horizon.

Every per-node estimate comes from the node's delivery times, the ends of
the slots in which it alone transmitted. Its age grows at unit rate and
drops to the success-slot length at each delivery, with time 0 counted as
a delivery, so a gap Z between deliveries adds the area ``s_S*Z + Z^2/2``
(Kaul, Yates & Gruteser, INFOCOM 2012); the age integral up to any batch
edge is exact. Estimates use only the post-warmup window. Age and throughput
standard errors come from batch means (age samples are autocorrelated; a
naive variance would understate the error), while inter-update times are
iid by construction so their moments use plain sample standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import AccessVector, SlotLengths

_N_BATCHES = 100
# Memory of one chunk in 8-byte words. A slot takes n words of draws and at
# most _SLOT_WORDS more of temporaries (about 33 bytes, and 48 more in a
# delivery slot), so a chunk holds max(1, _CHUNK // (n + _SLOT_WORDS)) slots.
_CHUNK = 1 << 20
_SLOT_WORDS = 11


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


def _segment_bounds(warmup: int, horizon: int) -> np.ndarray:
    """Slot bounds of the warm-up (segment 0) and of the batches (segments 1 to b)."""
    n = horizon - warmup
    b = min(_N_BATCHES, n)
    return np.append(0, warmup + (np.arange(b + 1) * n) // b)


def _batch_means(batch_sums: np.ndarray, batch_time: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-node time averages over the batches (columns) and their batch-means standard errors."""
    b = batch_time.size
    se = (batch_sums / batch_time).std(axis=1, ddof=1) if b > 1 else np.full(len(batch_sums), np.nan)
    return batch_sums.sum(axis=1) / batch_time.sum(), se / np.sqrt(b)


def _merge_samples(stats: np.ndarray, node: np.ndarray, x: np.ndarray) -> None:
    """Add samples x of the given nodes to per-node rows (count, mean, sum of
    squared deviations), merging as Chan, Golub & LeVeque (1979) do."""
    count, mean, m2 = stats
    k = np.bincount(node, minlength=count.size)
    k_mean = np.bincount(node, x, count.size) / np.maximum(k, 1)
    delta, share = k_mean - mean, k / np.maximum(count + k, 1)
    m2 += np.bincount(node, (x - k_mean[node]) ** 2, count.size) + delta * delta * count * share
    mean += delta * share
    count += k


def _mean_se(stats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample means and their standard errors, NaN where there are too few samples."""
    count, mean, m2 = stats
    se = np.sqrt(m2 / np.maximum(count - 1, 1)) / np.sqrt(np.maximum(count, 1))
    return np.where(count > 0, mean, np.nan), np.where(count > 1, se, np.nan)


def run_simulation(v: AccessVector, s: SlotLengths, cfg: SimConfig) -> SimResult:
    """Run one seeded replication and estimate every per-node quantity.

    Deterministic: identical inputs give bit-identical results.
    """
    n = len(v)
    rng = np.random.default_rng(cfg.seed)
    taus = np.asarray(v.taus)
    slot_length = np.array([s.idle, s.success, s.collision])  # by transmitter count 0, 1, 2+
    classify = np.stack((np.ones(n), np.arange(n)), axis=1)  # count; the transmitter if alone
    bounds = _segment_bounds(cfg.resolved_warmup, cfg.horizon_slots)
    n_seg = bounds.size - 1
    buf = np.empty((min(max(1, _CHUNK // (n + _SLOT_WORDS)), np.diff(bounds).max()), n))
    kinds = np.zeros((n_seg, 3), dtype=np.int64)  # idle, success and collision slots
    updates = np.zeros((n, n_seg), dtype=np.int64)
    edge_time = np.empty(n_seg)  # the clock at each segment's end
    edge_area = np.empty((n, n_seg))  # each node's age integral up to there
    last, area = np.zeros((2, n))  # latest delivery (time 0 counts as one), age integral up to it
    measured = np.zeros(n, dtype=bool)  # `last` lies after the warm-up
    gaps = np.zeros((2, 3, n))  # count, mean and squared deviations of Z and of Z^2

    def add_chunk(transmit: np.ndarray, seg: int, clock: float) -> float:
        """Add one chunk of 0/1 decisions; returns the clock at its end."""
        tx = transmit @ classify  # exact: integer sums below 2**53
        kind = np.minimum(tx[:, 0], 2, out=tx[:, 0]).astype(np.intp)
        kinds[seg] += np.bincount(kind, minlength=3)
        end = slot_length[kind]
        end[0] += clock
        np.cumsum(end, out=end)  # each slot's end, as one cumsum over the horizon gives
        solo = np.flatnonzero(kind == 1)
        # Deliveries by node, then in slot order; a radix sort for up to 65 535 nodes.
        solo = solo[np.argsort(tx[solo, 1].astype(np.min_scalar_type(n)), kind="stable")]
        node, t = tx[solo, 1].astype(np.intp), end[solo]
        new_node = node != np.concatenate(([-1], node[:-1]))
        z = t - np.concatenate(([0.0], t[:-1]))  # time since the node's previous delivery
        z[new_node] = t[new_node] - last[node[new_node]]
        area[:] += np.bincount(node, s.success * z + 0.5 * z * z, n)
        np.maximum.at(last, node, t)
        if seg:
            sample = ~new_node | measured[node]
            _merge_samples(gaps[0], node[sample], z[sample])
            _merge_samples(gaps[1], node[sample], z[sample] ** 2)
            measured[node] = True
            updates[:, seg] += np.bincount(node, minlength=n)
        return end[-1]

    clock = 0.0
    for seg in range(n_seg):
        for first in range(bounds[seg], bounds[seg + 1], len(buf)):
            draw = buf[: min(len(buf), bounds[seg + 1] - first)]
            rng.random(out=draw)
            clock = add_chunk(np.less(draw, taus, out=draw), seg, clock)
        edge_time[seg] = clock
        since = clock - last
        edge_area[:, seg] = area + s.success * since + 0.5 * since * since

    if not kinds[:, 1].any():
        raise NoProgressError("no successful slot in the whole horizon; all access probabilities zero?")
    batch_time = np.diff(edge_time)
    idle, success, collision = kinds[1:].sum(axis=0).tolist()
    return SimResult(
        *_batch_means(s.success * updates[:, 1:], batch_time),
        *_batch_means(np.diff(edge_area, axis=1), batch_time),
        *_mean_se(gaps[0]),
        *_mean_se(gaps[1]),
        update_counts=updates.sum(axis=1),
        slots_idle=idle, slots_success=success, slots_collision=collision,
        slots_measured=cfg.horizon_slots - cfg.resolved_warmup,
        time_measured=float(batch_time.sum()),
    )

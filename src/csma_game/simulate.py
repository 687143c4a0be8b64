"""Monte Carlo slot simulator: the independent oracle for the analytics.

Nodes transmit independently, each with its own tau in every slot (Bianchi,
IEEE JSAC 2000), so node i's transmit slots have geometric gaps
``1 + floor(E / -log(1 - tau))``, E ~ Exp(1), drawn from its own stream
``SeedSequence(seed).spawn(n)[i]`` in blocks of running sums; the rest of a
block carries over, so no block or chunk size changes the realisation. One
pass covers the warm-up, then each batch, in chunks: the nodes due in a
chunk give the slices of their blocks in it, and one bincount counts each
slot's transmitters. A chunk costs its slots plus its transmissions, not
slots x nodes; memory is one chunk, a block per node and per-node x
per-batch state, whatever the horizon.

Age grows at unit rate and drops to the success-slot length at each of the
node's deliveries (slots it alone transmits in; time 0 counts as one), so a
gap Z between deliveries adds ``s_S*Z + Z^2/2`` (Kaul, Yates & Gruteser,
INFOCOM 2012). A chunk's deliveries come out as one run per node in slot
order, so area, update count and latest delivery are reductions over runs,
and Z and Z^2 join their moments by one Chan, Golub & LeVeque (1979) update.
Estimates cover the post-warmup window only. Age and throughput standard
errors come from batch means, as age samples are autocorrelated; the iid
inter-update times use plain sample standard errors.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .model import AccessVector, SlotLengths

_N_BATCHES = 100
# Memory of a chunk in 8-byte words: 3 a slot (count, end, slack) and 8 a
# transmission (its slot in the block and in the chunk, its count and 40 bytes
# of delivery temporaries): a chunk holds _CHUNK // (3 + 8 sum(tau)) slots.
_CHUNK = 1 << 20
_SLOT_WORDS, _TX_WORDS = 3, 8


class NoProgressError(RuntimeError):
    """Raised when a finished replication contains no successful slot."""


@dataclass(frozen=True)
class SimConfig:
    """Replication length, seed, and the slots excluded from averages (``None``: 1% of the horizon)."""

    horizon_slots: int
    seed: int
    warmup_slots: int | None = None

    def __post_init__(self) -> None:
        for name, least in (("horizon_slots", 1), ("seed", 0), ("warmup_slots", 0)):
            value = getattr(self, name)
            if value is None and name == "warmup_slots":
                continue
            if not hasattr(value, "__index__") or operator.index(value) < least:  # a float fails in numpy
                raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
        if self.resolved_warmup >= self.horizon_slots:
            raise ValueError("warmup must satisfy 0 <= warmup < horizon")

    @property
    def resolved_warmup(self) -> int:
        return self.horizon_slots // 100 if self.warmup_slots is None else self.warmup_slots


@dataclass(frozen=True)
class SimResult:
    """Per-node empirical estimates with standard errors, plus slot counts.

    Array fields are indexed by node. ``age`` entries are NaN for nodes
    without a post-warmup update, ``inter_update_*`` ones for nodes without
    enough of them. Slot counts cover the measured (post-warmup) window and
    sum to ``slots_measured``.
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


def _batch_means(batch_sums: np.ndarray, batch_time: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-node time averages over the batches (columns) and their batch-means standard errors."""
    b = batch_time.size
    se = (batch_sums / batch_time).std(axis=1, ddof=1) if b > 1 else np.full(len(batch_sums), np.nan)
    return batch_sums.sum(axis=1) / batch_time.sum(), se / np.sqrt(b)


def _merge_runs(stats: np.ndarray, node: np.ndarray, starts: np.ndarray, size: np.ndarray,
                x: np.ndarray, skip: np.ndarray) -> None:
    """Merge runs of samples into per-node (count, mean, sum of squared deviations)
    stats of shape (3, q, n), as Chan, Golub & LeVeque (1979) do. The ``size[j]``
    columns of x, (q, m), from ``starts[j]`` on are samples of node ``node[j]``,
    but for the first where ``skip[j]``. x is overwritten."""
    k, lost = size - skip, starts[skip]
    x[:, lost] = 0.0
    k_mean = np.add.reduceat(x, starts, axis=1) / np.maximum(k, 1)
    x -= np.repeat(k_mean, size, axis=1)
    x[:, lost] = 0.0
    count, mean, m2 = stats[..., node]
    delta, share = k_mean - mean, k / np.maximum(count + k, 1)  # a run with no sample adds nothing
    m2 += np.add.reduceat(np.square(x, out=x), starts, axis=1) + delta * delta * count * share
    stats[..., node] = count + k, mean + delta * share, m2


def _mean_se(stats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample means and their standard errors, NaN where there are too few samples."""
    count, mean, m2 = stats
    se = np.sqrt(m2 / np.maximum(count - 1, 1)) / np.sqrt(np.maximum(count, 1))
    return np.where(count > 0, mean, np.nan), np.where(count > 1, se, np.nan)


def run_simulation(v: AccessVector, s: SlotLengths, cfg: SimConfig) -> SimResult:
    """Per-node estimates from one seeded replication; identical inputs give identical bits."""
    n, horizon, taus, warmup = len(v), cfg.horizon_slots, np.asarray(v.taus), cfg.resolved_warmup
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf: a tau = 1 node's gaps are all 1
        log_q = np.log1p(-taus)
    # gap = 1 + floor(E * scale), E < 45: a node is silent (inf) where E * scale could overflow
    scale = np.divide(-1.0, log_q, out=np.full(n, np.inf), where=log_q < -64 / np.finfo(float).max)
    streams = [np.random.default_rng(seq) for seq in np.random.SeedSequence(cfg.seed).spawn(n)]
    slot_length = np.array([s.idle, s.success, s.collision])  # by transmitter count 0, 1, 2+
    b = min(_N_BATCHES, horizon - warmup)  # segment 0 is the warm-up, 1 to b the batches
    bounds = np.append(0, warmup + (np.arange(b + 1) * (horizon - warmup)) // b)
    chunk = max(1, int(_CHUNK // (_SLOT_WORDS + _TX_WORDS * taus.sum())))  # slots, or a segment's rest
    block = np.maximum(256, np.ceil(taus * min(chunk, horizon))).astype(int).tolist()  # gaps a draw
    kinds = np.zeros((b + 1, 2), dtype=np.int64)  # idle and success slots; the rest collide
    updates = np.zeros((n, b + 1), dtype=np.int64)
    edge_time = np.empty(b + 1)  # the clock at each segment's end
    edge_area = np.empty((n, b + 1))  # each node's age integral up to there
    last, area = np.zeros((2, n))  # latest delivery (time 0 counts as one), age integral up to it
    measured = np.zeros(n, dtype=bool)  # `last` lies after the warm-up
    gaps = np.zeros((3, 2, n))  # count, mean and squared deviations of Z and of Z^2

    def draw(i: int, after: int) -> np.ndarray:
        """Node i's next transmit slots after `after`; gaps cut at horizon + 1 keep them in int64."""
        x = np.minimum(streams[i].standard_exponential(block[i]) * scale[i], horizon)
        return after + np.cumsum(x.astype(np.int64) + 1)  # astype floors, as x >= 0

    blocks = [draw(i, -1) if scale[i] < np.inf else np.array([horizon]) for i in range(n)]
    next_slot = np.array([ahead[0] for ahead in blocks])

    def add_chunk(first: int, stop: int, seg: int, clock: float) -> float:
        """Add slots first to stop; returns the clock at their end."""
        active, parts = np.flatnonzero(next_slot < stop), [none]
        for i in active.tolist():  # each due node's transmit slots up to `stop`
            ahead = blocks[i]
            while ahead[-1] < stop:  # carry the rest of the block over to the next
                ahead = np.concatenate((ahead, draw(i, ahead[-1])))
            k = ahead.searchsorted(stop)
            blocks[i], next_slot[i] = ahead[k:], ahead[k]
            parts.append(ahead[:k])
        slot = np.concatenate(parts) - first
        count = np.bincount(slot, minlength=stop - first)  # transmitters per slot
        end = slot_length.take(count, mode="clip")
        end[0] += clock
        np.cumsum(end, out=end)  # each slot's end, as one cumsum over the horizon gives
        solo = (count == 1).take(slot)  # the deliveries, by node and then in slot order
        t, clock = end.take(slot.compress(solo)), end[-1]  # compress: faster than slot[solo]
        kinds[seg] += count.size - np.count_nonzero(count), t.size
        got = np.add.reduceat(solo, np.cumsum([p.size for p in parts])[:-1], dtype=np.intp)  # by due node
        del slot, count, end, solo  # before the run temporaries
        node, size = active[got > 0], got[got > 0]  # each node's run of deliveries
        starts = np.cumsum(size) - size
        z = t - np.concatenate(([0.0], t[:-1]))  # time since the node's previous delivery
        z[starts] = t[starts] - last[node]
        last[node] = t[starts + size - 1]
        x = np.array((z, z * z))
        area[node] += np.add.reduceat(s.success * z + 0.5 * x[1], starts)
        if seg:
            updates[node, seg] += size
            _merge_runs(gaps, node, starts, size, x, ~measured[node])
            measured[node] = True
        return clock

    none, clock = np.empty(0, np.int64), 0.0
    for seg in range(b + 1):
        for first in range(bounds[seg], bounds[seg + 1], chunk):
            clock = add_chunk(first, min(first + chunk, bounds[seg + 1]), seg, clock)
        edge_time[seg] = clock
        since = clock - last
        edge_area[:, seg] = area + s.success * since + 0.5 * since * since

    if not kinds[:, 1].any():
        raise NoProgressError("no successful slot in the whole horizon; all access probabilities zero?")
    batch_time = np.diff(edge_time)
    idle, success = kinds[1:].sum(axis=0).tolist()
    return SimResult(
        *_batch_means(s.success * updates[:, 1:], batch_time),
        *(np.where(measured, x, np.nan) for x in _batch_means(np.diff(edge_area, axis=1), batch_time)),
        *_mean_se(gaps[:, 0]), *_mean_se(gaps[:, 1]),  # Z, then Z^2
        update_counts=updates.sum(axis=1),
        slots_idle=idle, slots_success=success, slots_collision=horizon - warmup - idle - success,
        slots_measured=horizon - warmup, time_measured=float(batch_time.sum()),
    )

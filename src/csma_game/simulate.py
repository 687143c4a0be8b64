"""Monte Carlo slot simulator: the independent oracle for the analytics.

Nodes transmit independently, each with its own tau in every slot (Bianchi,
IEEE JSAC 2000), so node i's transmit slots have geometric gaps
``1 + floor(E / -log(1 - tau))``, E ~ Exp(1), drawn from its own stream
``SeedSequence(seed).spawn(n)[i]`` in blocks of running sums; the rest of a
block carries over, so no block or chunk size changes the realisation. One
pass covers the warm-up, then the measured window, in chunks: the nodes due
in a chunk give the slices of their blocks in it, and one bincount counts
each slot's transmitters. A chunk costs its slots plus its transmissions, not
slots x nodes. Its arrays, but for the bincount's (one size in every chunk),
are views of one workspace per run, which grows by an eighth past a chunk that
overflows it, so chunks map no fresh pages; memory is one chunk's workspace, a
block per node and per-node state, whatever the horizon.

Age grows at unit rate and drops to the success-slot length at each of the
node's deliveries (slots it alone transmits in; time 0 counts as one), so a
gap Z between deliveries adds ``A = s_S*Z + Z^2/2`` (Kaul, Yates & Gruteser,
INFOCOM 2012). A chunk's deliveries come out as one run per node in slot
order, so area and latest delivery are reductions over runs, and Z and Z^2
join their moments and co-moment by one Chan, Golub & LeVeque (1979) update.
Estimates cover the post-warmup window only. Slots are iid, so a node's
deliveries are renewal epochs and its measured cycles (Z, A) are iid pairs:
standard errors are those of the sample means of Z and Z^2 and, by the delta
method, of the regenerative ratios throughput = s_S / E[Z] and
age = E[A] / E[Z] (Crane & Iglehart 1975).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .model import AccessVector, SlotLengths

# Memory of a chunk in 8-byte words: 3 a slot (count, end, slack) and 11 a
# transmission (4 workspace rows and an eighth of headroom; 2 in its node's
# block, which holds two chunks' gaps; 4 of temporaries while a block is drawn
# or deliveries are merged). A chunk gets _CHUNK words per whole 128 nodes, at
# least once: about twice what the nodes' generators and least blocks hold, so
# the per-node loop stays small beside it. 2 MiB: on `oracle`, 1 MiB ran 14%
# slower, and 4 MiB 4% faster but with 1.7 MB more peak RSS.
_CHUNK = 1 << 18
_SLOT_WORDS, _TX_WORDS = 3, 11


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
    enough of them. A node's measured cycles, the gaps between its
    post-warmup updates, number one less than its ``update_counts``. Every
    ``*_se`` is NaN below 2 cycles; below about 100 the interval it gives is
    skewed and uncalibrated, as the cycle reward Z^2/2 is. Slot counts cover
    the measured (post-warmup) window and sum to ``slots_measured``.
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


def _merge_runs(stats: np.ndarray, node: np.ndarray, starts: np.ndarray, size: np.ndarray,
                x: np.ndarray, skip: np.ndarray) -> None:
    """Merge runs of samples of two variables into per-node (count, mean, sum of
    squared deviations, sum of cross deviations, the same for both) stats of
    shape (4, 2, n), as Chan, Golub & LeVeque (1979) do. The ``size[j]``
    columns of x, (2, m), from ``starts[j]`` on are samples of node
    ``node[j]``, but for the first where ``skip[j]``. x is overwritten."""
    k, lost = size - skip, starts[skip]
    x[:, lost] = 0.0
    k_mean = np.add.reduceat(x, starts, axis=1) / np.maximum(k, 1)
    x -= np.repeat(k_mean, size, axis=1)
    x[:, lost] = 0.0
    count, mean, m2, co = stats[..., node]
    delta, share = k_mean - mean, k / np.maximum(count + k, 1)  # a run with no sample adds nothing
    co += np.add.reduceat(x[0] * x[1], starts) + delta[0] * delta[1] * count[0] * share[0]
    m2 += np.add.reduceat(np.square(x, out=x), starts, axis=1) + delta * delta * count * share
    stats[..., node] = count + k, mean + delta * share, m2, co


def _fit(work: np.ndarray, m: int) -> np.ndarray:
    """The workspace, or one with room for m + m // 8 transmissions when it has room for fewer than m."""
    return work if work.shape[1] >= m else np.empty((len(work), m + m // 8 + 1))


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
    chunk = min(horizon, max(1, int(_CHUNK * max(1, n // 128) // (_SLOT_WORDS + _TX_WORDS * taus.sum()))))  # slots
    block = np.maximum(256, np.ceil(taus * min(2 * chunk, horizon))).astype(int).tolist()  # gaps a draw
    kinds = np.zeros((2, 2), dtype=np.int64)  # idle and success slots of the warm-up and the window
    last, area = np.zeros((2, n))  # latest delivery (time 0 counts as one), age integral up to it
    measured = np.zeros(n, dtype=bool)  # `last` lies after the warm-up
    gaps = np.zeros((4, 2, n))  # count, mean, squared and cross deviations of Z and of Z^2

    def draw(i: int, after: int) -> np.ndarray:
        """Node i's next transmit slots after `after`; gaps cut at horizon + 1 keep them in int64."""
        x = streams[i].standard_exponential(block[i])
        gap = np.minimum(np.multiply(x, scale[i], out=x), horizon, out=x).astype(np.int64)  # floors, as x >= 0
        gap += 1
        return np.add(np.cumsum(gap, out=gap), after, out=gap)

    blocks = [draw(i, -1) if scale[i] < np.inf else np.array([horizon]) for i in range(n)]
    next_slot = np.array([ahead[0] for ahead in blocks])

    def add_chunk(first: int, stop: int, seg: int, clock: float) -> float:
        """Add slots first to stop; returns the clock at their end."""
        nonlocal work
        active, parts, due = np.flatnonzero(next_slot < stop), [none], [0]
        for i in active.tolist():  # each due node's transmit slots up to `stop`
            ahead = blocks[i]
            while ahead[-1] < stop:  # all the rest of the block is due: draw the next
                parts.append(ahead)
                ahead = draw(i, ahead[-1])
            k = ahead.searchsorted(stop)
            blocks[i], next_slot[i] = ahead[k:], ahead[k]
            parts.append(ahead[:k])
            due.append(len(parts) - 1)  # the node's last part
        offsets = np.cumsum([p.size for p in parts])[due]  # 0, then where each due node's slots end
        work = _fit(work, int(offsets[-1]))
        slot, at = work[:2, :offsets[-1]].view(np.int64)
        np.subtract(np.concatenate(parts, out=slot), first, out=slot)
        count = np.bincount(slot, minlength=stop - first)  # transmitters per slot
        end = slot_length.take(count, mode="clip", out=ends[:count.size])
        end[0] += clock
        np.cumsum(end, out=end)  # each slot's end, as one cumsum over the horizon gives
        solo = np.equal(count.take(slot, mode="clip", out=at), 1, out=work[2].view(bool)[:slot.size])
        got = np.add.reduceat(solo, offsets[:-1], dtype=np.intp)  # deliveries by due node, each in slot order
        d, clock = int(got.sum()), end[-1]
        kinds[seg] += count.size - np.count_nonzero(count), d
        del parts, count  # before the delivery temporaries
        t = end.take(slot.compress(solo), mode="clip", out=work[3, :d])  # compress: faster than slot[solo]
        node, size = active[got > 0], got[got > 0]  # each node's run of deliveries
        starts = np.cumsum(size) - size
        x = work[:2, :d]  # Z and Z^2: the slots are read, so rows 0-2 are free
        np.subtract(t[1:], t[:-1], out=x[0, 1:])  # time since the node's previous delivery
        x[0, starts] = t[starts] - last[node]
        last[node] = t[starts + size - 1]
        reward = np.multiply(x[0], s.success, out=work[2, :d])  # s_S*Z + Z^2/2
        reward += np.multiply(np.multiply(x[0], x[0], out=x[1]), 0.5, out=t)  # t is read: it takes Z^2/2
        area[node] += np.add.reduceat(reward, starts)
        if seg:
            _merge_runs(gaps, node, starts, size, x, ~measured[node])
            measured[node] = True
        return clock

    none, clock, edges = np.empty(0, np.int64), 0.0, []
    ends, work = np.empty(chunk), _fit(np.empty((4, 0)), int(taus.sum() * chunk))  # the workspace
    for seg, (lo, hi) in enumerate(((0, warmup), (warmup, horizon))):  # the warm-up, then the window
        for first in range(lo, hi, chunk):
            clock = add_chunk(first, min(first + chunk, hi), seg, clock)
        since = clock - last
        edges.append((clock, area + s.success * since + 0.5 * since * since))  # each node's age integral

    if not kinds[:, 1].any():
        why = ": every access probability is 0" if not taus.any() else ""
        raise NoProgressError(f"no successful slot in the whole horizon of {horizon} slots{why}")
    (start, area_start), (end, area_end) = edges
    window, (idle, success) = end - start, kinds[1].tolist()
    updates = gaps[0, 0].astype(np.int64) + measured  # a node's first measured update ends no cycle
    (ez, ez_se), (ez2, ez2_se) = _mean_se(gaps[:3, 0]), _mean_se(gaps[:3, 1])
    half = 0.5 * ez2 / ez  # age = s_S + half, so a cycle's A - age * Z is Z^2/2 - half * Z
    cov = gaps[3, 0] / np.maximum(gaps[0, 0] * (gaps[0, 0] - 1), 1)  # of the means of Z and Z^2
    var = 0.25 * ez2_se**2 - half * cov + half * half * ez_se**2  # of the mean of Z^2/2 - half * Z
    return SimResult(
        s.success * updates / window, s.success * ez_se / (ez * ez),
        np.where(measured, (area_end - area_start) / window, np.nan), np.sqrt(var) / ez,
        ez, ez_se, ez2, ez2_se, update_counts=updates,
        slots_idle=idle, slots_success=success, slots_collision=horizon - warmup - idle - success,
        slots_measured=horizon - warmup, time_measured=float(window),
    )

"""Slot simulator: determinism, exact degenerate paths, agreement with analytics
and with a dense per-slot reference, bounded memory, few fresh pages."""

import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from cells import slot_fraction_se
from csma_game import simulate
from csma_game.metrics import aoi_node, inter_update_moments, per_node_throughput
from csma_game.model import DSRC, WIFI, AccessVector, NetworkConfig, SlotLengths, StrategyPair
from csma_game.simulate import NoProgressError, SimConfig, SimResult, run_simulation

S001 = SlotLengths.from_beta(0.001)

EXACT_FIELDS = ("update_counts",)
ESTIMATES = {"age": "age_se", "throughput": "throughput_se",
             "inter_update_mean": "inter_update_mean_se", "inter_update_sq_mean": "inter_update_sq_mean_se"}
SLOT_FIELDS = ("slots_idle", "slots_success", "slots_collision", "slots_measured", "time_measured")


def dense_reference(v, s, cfg):
    """Per-slot x per-node oracle: a dense (horizon, n) transmit matrix built
    from each node's gap stream, drawn in one piece, then every node's age
    integrated slot by slot over the window, and its standard errors taken
    from its measured cycles, the gaps Z between its window's deliveries, with
    age reward A = s_S*Z + Z^2/2 a cycle."""
    n, horizon, warmup = len(v), cfg.horizon_slots, cfg.resolved_warmup
    transmit = np.zeros((horizon, n), dtype=bool)
    for i, seq in enumerate(np.random.SeedSequence(cfg.seed).spawn(n)):
        # node i's geometric gaps from its own stream, as many as the horizon has slots
        with np.errstate(divide="ignore"):  # tau = 0 gives an infinite scale, tau = 1 a zero one
            scale = -1.0 / np.log1p(-v.taus[i])
        gap = np.floor(np.random.default_rng(seq).standard_exponential(horizon) * scale) + 1.0
        slot = np.cumsum(np.minimum(gap, horizon + 1).astype(np.int64)) - 1
        transmit[slot[slot < horizon], i] = True
    tx_count = transmit.sum(axis=1)
    success = tx_count == 1
    slot_len = np.where(tx_count == 0, s.idle, np.where(success, s.success, s.collision))
    time_end = np.cumsum(slot_len)
    time_start = time_end - slot_len
    window_time = time_end[-1] - (time_end[warmup - 1] if warmup else 0.0)
    est = {k: np.full(n, np.nan) for k in EXACT_FIELDS + tuple(ESTIMATES) + tuple(ESTIMATES.values())}
    for i in range(n):
        updates = transmit[:, i] & success
        # age at slot start: time since the latest update's end plus the
        # delivery latency; time 0 counts as an update
        reset_end = np.where(updates, time_end, 0.0)
        prev_reset = np.concatenate(([0.0], np.maximum.accumulate(reset_end)[:-1]))
        age_start = time_start - prev_reset + s.success
        upd_times = time_end[warmup:][updates[warmup:]]
        est["update_counts"][i] = upd_times.size
        est["throughput"][i] = s.success * upd_times.size / window_time
        if upd_times.size:  # without a measured delivery, the age is a sawtooth that grows with the horizon
            est["age"][i] = (slot_len * (age_start + 0.5 * slot_len))[warmup:].sum() / window_time
        z = np.diff(upd_times)
        if z.size:
            est["inter_update_mean"][i] = z.mean()
            est["inter_update_sq_mean"][i] = (z**2).mean()
        if z.size >= 2:
            # delta-method standard errors of the ratios s_S / E[Z] and E[A] / E[Z]
            k, a = z.size, s.success * z + 0.5 * z**2
            est["inter_update_mean_se"][i] = z.std(ddof=1) / np.sqrt(k)
            est["inter_update_sq_mean_se"][i] = (z**2).std(ddof=1) / np.sqrt(k)
            est["throughput_se"][i] = s.success * z.std(ddof=1) / (z.mean() ** 2 * np.sqrt(k))
            residual = a - a.sum() / z.sum() * z
            est["age_se"][i] = np.sqrt((residual**2).sum() / (k - 1)) / (z.mean() * np.sqrt(k))
    measured = tx_count[warmup:]
    idle = int(np.count_nonzero(measured == 0))
    succ = int(np.count_nonzero(measured == 1))
    est["update_counts"] = est["update_counts"].astype(np.int64)
    return SimResult(**est, slots_idle=idle, slots_success=succ,
                     slots_collision=measured.size - idle - succ,
                     slots_measured=measured.size, time_measured=window_time)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(horizon_slots=0, seed=1)
    with pytest.raises(ValueError):
        SimConfig(horizon_slots=100, seed=1, warmup_slots=100)
    assert SimConfig(horizon_slots=500, seed=1).resolved_warmup == 5
    assert SimConfig(horizon_slots=np.int64(500), seed=np.uint32(7), warmup_slots=np.int16(3)).resolved_warmup == 3
    with pytest.raises(ValueError, match="horizon_slots"):
        SimConfig(horizon_slots=1000.5, seed=1)
    with pytest.raises(ValueError, match="warmup_slots"):
        SimConfig(horizon_slots=1000, seed=1, warmup_slots=10.0)
    with pytest.raises(ValueError, match="warmup_slots"):
        SimConfig(horizon_slots=1000, seed=1, warmup_slots=-1)
    for seed in (-1, 1.5, None, "3"):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(horizon_slots=1000, seed=seed)


def test_seed_determinism():
    v = AccessVector((0.2, 0.5), (DSRC, WIFI))
    cfg = SimConfig(horizon_slots=30_000, seed=99)
    a = run_simulation(v, S001, cfg)
    b = run_simulation(v, S001, cfg)
    for field in ("age", "throughput", "inter_update_mean", "inter_update_sq_mean",
                  "age_se", "throughput_se"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert (a.slots_idle, a.slots_success, a.slots_collision) == (
        b.slots_idle, b.slots_success, b.slots_collision)
    c = run_simulation(v, S001, SimConfig(horizon_slots=30_000, seed=100))
    assert not np.array_equal(a.age, c.age)


def test_deterministic_always_transmitting_node():
    # cumulative-time rounding over 1e5 slots leaves ~1e-12 relative noise
    v = AccessVector((1.0,), (DSRC,))
    res = run_simulation(v, S001, SimConfig(horizon_slots=100_000, seed=3))
    assert res.age[0] == pytest.approx(1.5 * 1.001, rel=1e-9)
    assert res.age_se[0] == pytest.approx(0.0, abs=1e-9)
    assert res.throughput[0] == pytest.approx(1.0, rel=1e-9)
    assert res.inter_update_mean[0] == pytest.approx(1.001, rel=1e-9)
    assert res.inter_update_sq_mean[0] == pytest.approx(1.001**2, rel=1e-9)
    assert res.slots_success == res.slots_measured


def test_no_progress_error():
    v = AccessVector((0.0, 0.0), (DSRC, WIFI))
    with pytest.raises(NoProgressError, match=r"^no successful slot in the whole horizon of 1000 slots: every access "
                                              r"probability is 0$"):
        run_simulation(v, S001, SimConfig(horizon_slots=1000, seed=0))
    # Seed 0 draws no success in two slots at tau = 0.5: no probability is 0, so the message names none.
    with pytest.raises(NoProgressError, match=r"^no successful slot in the whole horizon of 2 slots$"):
        run_simulation(AccessVector((0.5,), (DSRC,)), S001, SimConfig(horizon_slots=2, seed=0))


def test_slot_counts_partition_the_window():
    v = AccessVector((0.3, 0.3, 0.3), (DSRC, DSRC, WIFI))
    res = run_simulation(v, S001, SimConfig(horizon_slots=50_000, seed=11))
    assert res.slots_idle + res.slots_success + res.slots_collision == res.slots_measured
    assert res.slots_measured == 50_000 - 500
    assert res.throughput.sum() <= 1.0 + 1e-12


def test_slot_type_frequencies_match_kernels():
    v = AccessVector((0.25, 0.4, 0.1), (DSRC, WIFI, WIFI))
    res = run_simulation(v, S001, SimConfig(horizon_slots=300_000, seed=21))
    p_idle = v._kernels.idle
    p_succ = sum(v._kernels.solo)
    targets = (p_idle, p_succ, 1.0 - p_idle - p_succ)
    for frac, se, target in zip(res.slot_fractions(), slot_fraction_se(res), targets):
        assert abs(frac - target) <= 3.0 * se


def test_estimates_match_analytics_within_three_standard_errors():
    v = AccessVector((0.15, 0.4, 0.3), (DSRC, DSRC, WIFI))
    res = run_simulation(v, S001, SimConfig(horizon_slots=400_000, seed=13))
    for i in range(3):
        m = inter_update_moments(v, S001, i)
        assert abs(res.age[i] - aoi_node(v, S001, i)) <= 3.0 * res.age_se[i]
        assert abs(res.throughput[i] - per_node_throughput(v, S001, i)) <= 3.0 * res.throughput_se[i]
        assert abs(res.inter_update_mean[i] - m.first) <= 3.0 * res.inter_update_mean_se[i]
        assert abs(res.inter_update_sq_mean[i] - m.second) <= 3.0 * res.inter_update_sq_mean_se[i]


def test_long_horizon_lone_network_age():
    # lone two-node network at its optimal access probability
    cfg = NetworkConfig(2, 0, 0.001)
    v = AccessVector.homogeneous(cfg, StrategyPair(0.0268, 0.0))
    res = run_simulation(v, S001, SimConfig(horizon_slots=10_000_000, seed=23))
    for i in range(2):
        assert abs(res.age[i] - 2.5576) <= 3.0 * res.age_se[i]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_silent_node_reports_nan_moments():
    v = AccessVector((0.0, 0.5), (DSRC, WIFI))
    res = run_simulation(v, S001, SimConfig(horizon_slots=20_000, seed=2))
    assert np.isnan(res.inter_update_mean[0])
    assert np.isnan(res.age[0]) and np.isnan(res.age_se[0])
    assert res.update_counts[0] == 0
    assert res.throughput[0] == 0.0 and np.isnan(res.throughput_se[0])
    assert np.isfinite(res.age[1]) and np.isfinite(res.age_se[1])
    # An always-on node delivers in every slot. Its first measured delivery
    # ends the cycle that crosses the warm-up, so k measured slots hold k - 1
    # measured cycles. Standard errors need 2 cycles; at 2 the variance, zero
    # but for rounding, must not go negative.
    v = AccessVector((1.0,), (DSRC,))
    for k in (1, 2, 3):
        res = run_simulation(v, S001, SimConfig(horizon_slots=1_000 + k, seed=2, warmup_slots=1_000))
        assert res.update_counts[0] == k and np.isfinite(res.age[0])
        ses = np.array([getattr(res, se)[0] for se in ESTIMATES.values()])
        if k < 3:
            assert np.isnan(ses).all(), k
        else:
            assert ((ses >= 0.0) & (ses < 1e-9)).all(), ses


def test_homogeneous_vector_round_trip():
    config = NetworkConfig(2, 1, 0.001)
    v = AccessVector.homogeneous(config, StrategyPair(0.3, 0.2))
    res = run_simulation(v, S001, SimConfig(horizon_slots=10_000, seed=8))
    assert isinstance(res, SimResult)
    assert res.age.shape == (3,)


DENSE_CASES = [
    ((1.0,), 5_000, None),  # deterministic: one update per slot
    ((1.0, 0.3), 20_000, None),  # the second node never gets through
    ((0.0, 0.4, 0.25), 20_000, None),  # silent node
    ((0.3, 0.5), 57, None),  # a short window: a few cycles a node
    ((1.0,), 2, 1),  # one measured delivery, so no measured cycle and no standard errors
    ((0.2, 0.1, 0.3), 400_000, 1234),  # explicit warm-up, a window of many default chunks
    ((0.0, 1.0, 0.5, 0.2), 20_000, None),  # silent and always-on nodes: 1 to 3 transmitters
    ((0.003,) * 300, 10_000, None),  # 300 nodes: two-byte node keys
    ((0.004,) * 256, 10_000, 2_500),  # 256 nodes, explicit warm-up
    # at every chunk size, node 0's first measured chunk holds one delivery of
    # it, so one gap, which crosses the warm-up and is no sample
    ((0.002, 0.3), 20_000, 1_000),
    ((0.3, 0.005, 0.02), 3_000, 2_900),  # nodes 1 and 2 deliver only during the warm-up
]


# Every case runs with the default chunk and with chunks of 1 << 12 and 7
# words, so the warm-up and the window span many chunks. _CHUNK = 7 leaves
# one slot a chunk; over 400 000 slots that is 400 000 chunks (about 60 s),
# so the longest case skips that size.
@pytest.mark.parametrize("taus, horizon, warmup, chunk", [
    pytest.param(taus, horizon, warmup, chunk,
                 id=f"taus{k}-{horizon}-{warmup}" + ("" if chunk == simulate._CHUNK else f"-chunk{chunk}"))
    for k, (taus, horizon, warmup) in enumerate(DENSE_CASES)
    for chunk in (simulate._CHUNK, 1 << 12, 7)
    if horizon < 100_000 or chunk != 7
])
def test_matches_dense_reference(taus, horizon, warmup, chunk, monkeypatch):
    monkeypatch.setattr(simulate, "_CHUNK", chunk)
    assert_matches_dense_reference(AccessVector(taus, (DSRC,) * len(taus)),
                                   SimConfig(horizon_slots=horizon, seed=17, warmup_slots=warmup))


def test_workspace_growth_matches_dense_reference(monkeypatch):
    # 8-slot chunks: the workspace first holds 10 transmissions, a chunk
    # carries 8 on average and more than 10 in about one chunk of eight.
    grown, fit = [], simulate._fit

    def spy(work, m):
        out = fit(work, m)
        if out is not work and work.shape[1]:
            grown.append((work.shape[1], m))
        return out

    monkeypatch.setattr(simulate, "_fit", spy)
    monkeypatch.setattr(simulate, "_CHUNK", 8 * (simulate._SLOT_WORDS + simulate._TX_WORDS))
    assert_matches_dense_reference(AccessVector((0.3, 0.5, 0.2), (DSRC, WIFI, DSRC)),
                                   SimConfig(horizon_slots=20_000, seed=17))
    assert grown and grown[0][0] == 10, grown


def assert_matches_dense_reference(v, cfg):
    got, want = run_simulation(v, S001, cfg), dense_reference(v, S001, cfg)
    for f in SLOT_FIELDS:
        assert getattr(got, f) == getattr(want, f), f
    for f in EXACT_FIELDS:
        assert np.array_equal(getattr(got, f), getattr(want, f), equal_nan=True), f
    # The integrals and sample moments are summed in another order, so
    # estimates agree to rounding. A standard error that is rounding noise
    # around zero (a tau = 1 node) is also accepted within 1e-9 of its
    # node's estimate.
    for f, se in ESTIMATES.items():
        want_f = getattr(want, f)
        np.testing.assert_allclose(getattr(got, f), want_f, rtol=1e-9, atol=0.0)
        assert np.isclose(getattr(got, se), getattr(want, se), rtol=1e-9,
                          atol=1e-9 * np.nan_to_num(np.abs(want_f)), equal_nan=True).all(), se


def test_chunk_size_does_not_change_the_result(monkeypatch):
    v = AccessVector((0.3, 0.2, 0.4), (DSRC, DSRC, WIFI))
    cfg = SimConfig(horizon_slots=3_001, seed=4)
    whole = run_simulation(v, S001, cfg)
    monkeypatch.setattr(simulate, "_CHUNK", 7)  # one slot per chunk
    chunked = run_simulation(v, S001, cfg)
    for f in SLOT_FIELDS + EXACT_FIELDS:
        assert np.array_equal(getattr(chunked, f), getattr(whole, f)), f
    # per-chunk partial sums round differently
    for f in tuple(ESTIMATES) + tuple(ESTIMATES.values()):
        np.testing.assert_allclose(getattr(chunked, f), getattr(whole, f), rtol=1e-9, atol=0.0)


def test_memory_grows_with_horizon_not_horizon_times_nodes():
    v = AccessVector((0.01,) * 100, (DSRC,) * 50 + (WIFI,) * 50)
    tracemalloc.start()
    try:
        run_simulation(v, S001, SimConfig(horizon_slots=200_000, seed=5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense (horizon, n) float draw alone would take 153 MiB
    assert peak < 40 * 2**20


def tracemalloc_peak(v, horizon):
    tracemalloc.start()
    try:
        run_simulation(v, S001, SimConfig(horizon_slots=horizon, seed=5))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_the_horizon(monkeypatch):
    # 1 170-slot chunks: both horizons span many, and only one is held at a time
    monkeypatch.setattr(simulate, "_CHUNK", 1 << 14)
    v = AccessVector((0.1,) * 10, (DSRC,) * 5 + (WIFI,) * 5)
    run_simulation(v, S001, SimConfig(horizon_slots=1_000, seed=5))  # first-call allocations
    short = tracemalloc_peak(v, 200_000)
    assert tracemalloc_peak(v, 800_000) <= 1.1 * short


@pytest.mark.parametrize("tau", [0.01, 1.0])
def test_one_node_chunk_stays_within_its_budget(tau):
    # A chunk takes about 17 bytes a slot, 16 of them for its count and end,
    # and, at tau = 1, where every slot is a delivery, about 93 with its
    # transmissions' rows of the workspace and its share of the node's block.
    # A 1.05M-slot warm-up spans many chunks; a chunk of _CHUNK slots would
    # peak at 4.2-23 MiB.
    v = AccessVector((tau,), (DSRC,))
    run_simulation(v, S001, SimConfig(horizon_slots=1_000, seed=5))  # first-call allocations
    tracemalloc.start()
    try:
        run_simulation(v, S001, SimConfig(horizon_slots=1_100_000, seed=5, warmup_slots=1_050_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * simulate._CHUNK


def test_measured_chunks_stay_within_the_budget():
    # The warm-up chunks above merge no gaps. Here the 12M-slot window spans
    # at least 100 chunks, and at tau = 1 each slot's gap is merged into the
    # moments.
    assert simulate._CHUNK // (simulate._SLOT_WORDS + simulate._TX_WORDS * 1.0) < 120_000
    v = AccessVector((1.0,), (DSRC,))
    run_simulation(v, S001, SimConfig(horizon_slots=1_000, seed=5))  # first-call allocations
    tracemalloc.start()
    try:
        run_simulation(v, S001, SimConfig(horizon_slots=12_000_000, seed=5, warmup_slots=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * simulate._CHUNK


def test_a_thousand_nodes_match_the_analytics():
    # 998 nodes at tau = 0.001 and two that never transmit: at the smallest
    # subnormal tau, -1 / log1p(-tau) overflows a float, and at 3e-308 an
    # exponential draw times it would.
    # A node delivers about once in 2 700 slots, so 10M slots give it some
    # 3 700 cycles. At 1M slots (some 370) the largest age |z| is still 5.3-6.4
    # (seeds 19 and 20), against the bound of 4.2 below: the cycle reward Z^2/2
    # is skewed, so the tails of the age z-scores are heavier than normal.
    v = AccessVector((0.001,) * 998 + (5e-324, 3e-308), (DSRC, WIFI) * 500)
    res = run_simulation(v, S001, SimConfig(horizon_slots=10_000_000, seed=19))
    assert (res.update_counts[998:] == 0).all() and (res.throughput[998:] == 0.0).all()
    assert np.isnan(res.inter_update_mean[998:]).all()
    # Bonferroni over 998 nodes x 3 estimates at a two-sided 1% level
    z_bound = NormalDist().inv_cdf(1.0 - 0.01 / (2 * 3 * 998))
    for i in range(998):
        m = inter_update_moments(v, S001, i)
        for got, se, want in ((res.age[i], res.age_se[i], aoi_node(v, S001, i)),
                              (res.throughput[i], res.throughput_se[i], per_node_throughput(v, S001, i)),
                              (res.inter_update_mean[i], res.inter_update_mean_se[i], m.first)):
            assert abs(got - want) <= z_bound * se, (i, got, want, se)


@pytest.mark.parametrize("seed", [19, 20])
def test_age_intervals_are_calibrated_at_a_thousand_nodes(seed):
    # About 370 cycles a node over 1M slots. The share of nodes whose age lies
    # more than 1.96 standard errors from its analytic value should be 5%; it
    # reads 8.1% (seed 19) and 8.9% (seed 20), as the skewed cycle reward
    # Z^2/2 leaves the z-scores a heavy tail at this cycle count.
    v = AccessVector((0.001,) * 1000, (DSRC, WIFI) * 500)
    res = run_simulation(v, S001, SimConfig(horizon_slots=1_000_000, seed=seed))
    z = (res.age - [aoi_node(v, S001, i) for i in range(1000)]) / res.age_se
    assert np.mean(np.abs(z) > 1.96) <= 0.10



@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts the page faults of glibc's allocator")
def test_a_repeated_run_maps_few_fresh_pages():
    # Run twice in a fresh interpreter, whose allocator has no history, and
    # count the minor page faults of the second run. Chunk arrays that are
    # new allocations in every chunk pass glibc's mmap threshold and map
    # fresh pages each time: before the run-scoped workspace, the second run
    # took 9 007-9 011 faults (three runs). Now it maps the workspace's pages
    # once, and the second run takes 760-1 012.
    script = textwrap.dedent("""
        import resource
        from csma_game.model import DSRC, WIFI, AccessVector, SlotLengths
        from csma_game.simulate import SimConfig, run_simulation
        v = AccessVector((0.001,) * 1000, (DSRC, WIFI) * 500)
        args = v, SlotLengths.from_beta(0.001), SimConfig(horizon_slots=1_000_000, seed=3)
        run_simulation(*args)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_simulation(*args)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(simulate.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert int(out.stdout) <= 9_007 // 5

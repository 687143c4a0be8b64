"""Cost, payoff surfaces, grid handling, and the age-rescaling maps."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cells import cells_at, index_of
from csma_game import game
from csma_game.game import GridSpec, _cost_expr, build_surfaces, rescale_age, rescale_age_per_opponent
from csma_game.metrics import _aoi_expr, _throughput_expr
from csma_game.model import AccessVector, NetworkConfig, StrategyPair, _Axis


class TestGridSpec:
    def test_default_grid(self):
        grid = GridSpec()
        pts = grid.points()
        assert grid.n_points == 99
        assert pts[0] == pytest.approx(0.01)
        assert pts[-1] == pytest.approx(0.99)

    def test_index_roundtrip(self):
        grid = GridSpec()
        for k, tau in enumerate(grid.points()):
            assert index_of(grid, float(tau)) == k

    def test_off_grid_rejected(self):
        grid = GridSpec()
        with pytest.raises(ValueError):
            index_of(grid, 0.015)
        with pytest.raises(ValueError):
            index_of(grid, 0.999)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            GridSpec(lo=0.0, hi=0.99, step=0.01)
        with pytest.raises(ValueError):
            GridSpec(lo=0.5, hi=0.4, step=0.01)
        with pytest.raises(ValueError):
            GridSpec(lo=0.01, hi=0.99, step=0.013)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_fine_grids_are_whole_steps(self, k):
        # (hi - lo) / step near 1e7 carries more rounding than an absolute 1e-9; the grid is only constructed
        step = 10.0**-k
        assert GridSpec(lo=step, hi=1.0 - step, step=step).n_points == 10**k - 1
        with pytest.raises(ValueError, match="integer number of steps"):
            GridSpec(lo=0.1, hi=0.5, step=0.3)

    @pytest.mark.parametrize("step, message", [
        (float("inf"), "grid step must be positive and finite, got inf"),
        (float("nan"), "grid step must be positive and finite, got nan"),
        (1e300, "grid step 1e+300 exceeds the span [0.1, 0.5]"),
        (1e-320, "grid step 1e-320 is too fine for the span [0.1, 0.5]"),
    ], ids=["inf", "nan", "oversized", "too-fine"])
    def test_non_finite_or_oversized_step_rejected(self, step, message):
        with pytest.raises(ValueError) as exc:
            GridSpec(lo=0.1, hi=0.5, step=step)
        assert str(exc.value) == message


class TestWastageCost:
    def test_free_spectrum(self):
        cfg = NetworkConfig(2, 2, 0.001)
        assert _cost_expr(cells_at(StrategyPair(0.3, 0.7), cfg), cfg) == 0.0

    def test_hand_value(self):
        cfg = NetworkConfig(1, 1, 0.001, w_idle=1.0, w_col=1.0)
        # p_idle = 0.25, p_succ = 0.5, p_col = 0.25
        assert _cost_expr(cells_at(StrategyPair(0.5, 0.5), cfg), cfg) == pytest.approx(0.5, rel=1e-12)

    def test_aggressive_limit_is_pure_collision(self):
        cfg = NetworkConfig(2, 2, 0.001, w_idle=0.4, w_col=2.5)
        cost = _cost_expr(cells_at(StrategyPair(0.999999, 0.999999), cfg), cfg)
        assert cost == pytest.approx(2.5, abs=1e-4)

    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.floats(0.01, 0.99),
        st.floats(0.01, 0.99),
        st.floats(0.0, 2.0),
        st.floats(0.0, 5.0),
    )
    @settings(max_examples=150)
    def test_expansion_matches_kernels(self, n_dsrc, n_wifi, tau_d, tau_w, w_idle, w_col):
        cfg = NetworkConfig(n_dsrc, n_wifi, 0.001, w_idle=w_idle, w_col=w_col)
        v = AccessVector.homogeneous(cfg, StrategyPair(tau_d, tau_w))
        p_idle = v._kernels.idle
        p_succ = sum(v._kernels.solo)
        expected = w_idle * p_idle + w_col * (1.0 - p_idle - p_succ)
        assert _cost_expr(cells_at(StrategyPair(tau_d, tau_w), cfg), cfg) == pytest.approx(expected, abs=1e-12)


class TestRescaleMaps:
    def test_endpoints_land_exactly(self):
        age = np.array([[2.0, 5.0], [11.0, 7.0]])
        thr = np.array([[0.1, 0.4], [0.2, 0.3]])
        out = rescale_age(age, thr)
        assert out.min() == pytest.approx(0.1)
        assert out.max() == pytest.approx(0.4)
        assert np.array_equal(np.argsort(age.ravel()), np.argsort(out.ravel()))

    def test_constant_age_degenerates_to_min_throughput(self):
        age = np.full((3, 3), 4.2)
        thr = np.linspace(0.1, 0.9, 9).reshape(3, 3)
        assert np.all(rescale_age(age, thr) == 0.1)

    def test_per_opponent_normalizes_each_column(self):
        age = np.array([[2.0, 50.0], [11.0, 7.0], [5.0, 1000.0]])
        thr = np.array([[0.1, 0.4], [0.2, 0.3], [0.15, 0.25]])
        out = rescale_age_per_opponent(age, thr)
        for j in range(2):
            col_in, col_out = age[:, j], out[:, j]
            assert col_out.min() == pytest.approx(0.1)
            assert col_out.max() == pytest.approx(0.4)
            assert np.array_equal(np.argsort(col_in), np.argsort(col_out))

    def test_per_opponent_constant_column(self):
        age = np.array([[3.0, 1.0], [3.0, 2.0]])
        thr = np.array([[0.1, 0.2], [0.3, 0.4]])
        out = rescale_age_per_opponent(age, thr)
        assert np.all(out[:, 0] == 0.1)


def whole_array_rescale_age(age, throughput):
    """``rescale_age`` as whole-array expressions, kept as the in-place map's oracle."""
    age_lo, age_hi = float(age.min()), float(age.max())
    thr_lo, thr_hi = float(throughput.min()), float(throughput.max())
    if age_hi == age_lo:
        return np.full_like(age, thr_lo)
    slope = (thr_hi - thr_lo) / (age_hi - age_lo)
    if slope <= 0.0:
        return age - age_lo + thr_lo
    return thr_lo + slope * (age - age_lo)


def whole_array_rescale_age_per_opponent(age, throughput):
    """``rescale_age_per_opponent`` as whole-array expressions, kept as the in-place map's oracle."""
    thr_lo, thr_hi = float(throughput.min()), float(throughput.max())
    lo = age.min(axis=0, keepdims=True)
    span = age.max(axis=0, keepdims=True) - lo
    if thr_hi == thr_lo:
        return age - lo + thr_lo
    safe = np.where(span > 0.0, span, 1.0)
    return np.where(span > 0.0, thr_lo + (thr_hi - thr_lo) * (age - lo) / safe, thr_lo)


def raw_surfaces(nd, nw, grid):
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        surf = build_surfaces(NetworkConfig(nd, nw, 0.001), grid, rescale=lambda age, thr: age)
    return surf.age, surf.throughput


class TestInPlaceRescale:
    FINE = GridSpec(0.001, 0.999, 0.001)

    @pytest.mark.parametrize("maps", [
        (rescale_age, whole_array_rescale_age),
        (rescale_age_per_opponent, whole_array_rescale_age_per_opponent),
    ], ids=["range", "per-opponent"])
    @pytest.mark.parametrize("case", ["free-999", "costed-999", "nonfinite-400", "constant-throughput"])
    def test_same_bits_as_whole_array_expressions(self, maps, case):
        if case == "free-999":
            age, thr = raw_surfaces(12, 4, self.FINE)
        elif case == "costed-999":  # the surfaces of the (20, 20) costed game; cost does not enter the map
            age, thr = raw_surfaces(20, 20, self.FINE)
        elif case == "nonfinite-400":  # infinite age cells; 17 columns have a NaN span
            age, thr = raw_surfaces(400, 400, GridSpec())
            assert np.count_nonzero(~np.isfinite(age)) == 4587
        else:  # a constant throughput, and one constant age column
            age, _ = raw_surfaces(2, 2, GridSpec())
            age = age.copy()
            age[:, 3] = 4.0
            thr = np.full_like(age, 0.25)
        rescale, oracle = maps
        with np.errstate(invalid="ignore"):
            got, want = rescale(age, thr), oracle(age, thr)
        assert got.tobytes() == want.tobytes()

    def test_per_opponent_build_holds_no_extra_grid(self):
        cfg = NetworkConfig(20, 20, 0.004, w_idle=0.004, w_col=1.004)
        build_surfaces(cfg, rescale=rescale_age_per_opponent)  # first-call allocations
        tracemalloc.start()
        try:
            surf = build_surfaces(cfg, self.FINE, rescale=rescale_age_per_opponent)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for a in (surf.age, surf.throughput, surf.cost, surf.age_rescaled))
        assert peak < returned + 0.1 * surf.age.nbytes


class TestSurfaces:
    def test_game_needs_both_networks(self):
        with pytest.raises(ValueError):
            build_surfaces(NetworkConfig(2, 0, 0.001))
        with pytest.raises(ValueError):
            build_surfaces(NetworkConfig(0, 2, 0.001))

    def test_values_match_scalar_functions(self):
        cfg = NetworkConfig(2, 2, 0.001, w_idle=0.3, w_col=1.2)
        surf = build_surfaces(cfg)
        grid = surf.grid
        for tau_d, tau_w in [(0.01, 0.01), (0.46, 0.46), (0.99, 0.2), (0.33, 0.87)]:
            i, j = index_of(grid, tau_d), index_of(grid, tau_w)
            pair = StrategyPair(tau_d, tau_w)
            assert surf.age[i, j] == pytest.approx(_aoi_expr(cells_at(pair, cfg)), rel=1e-12)
            assert surf.throughput[i, j] == pytest.approx(_throughput_expr(cells_at(pair, cfg)), rel=1e-12)
            assert surf.cost[i, j] == pytest.approx(_cost_expr(cells_at(pair, cfg), cfg), rel=1e-12)

    def test_surfaces_are_read_only(self):
        surf = build_surfaces(NetworkConfig(1, 1, 0.001))
        with pytest.raises(ValueError):
            surf.age[0, 0] = 1.0

    def test_payoff_identity_and_off_grid(self):
        cfg = NetworkConfig(2, 2, 0.001, w_idle=0.001, w_col=1.001)
        surf = build_surfaces(cfg)
        for tau_d, tau_w in [(0.05, 0.9), (0.46, 0.46)]:
            i, j = index_of(surf.grid, tau_d), index_of(surf.grid, tau_w)
            u_d, _ = surf._payoffs(lambda a: a[i, j])
            identity = u_d + surf.cost[i, j] + surf.age_rescaled[i, j]
            assert identity == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ValueError):
            index_of(surf.grid, 0.015)

    def test_wifi_payoff_is_raw_throughput_when_free(self):
        cfg = NetworkConfig(2, 2, 0.001)
        surf = build_surfaces(cfg)
        i, j = index_of(surf.grid, 0.31), index_of(surf.grid, 0.44)
        thr = _throughput_expr(cells_at(StrategyPair(0.31, 0.44), cfg))
        assert surf._payoffs(lambda a: a[i, j])[1] == pytest.approx(thr, rel=1e-12)

    def test_free_game_best_replies_minimize_raw_age(self):
        surf = build_surfaces(NetworkConfig(2, 2, 0.001))
        assert np.array_equal(surf._br_dsrc.argmax(axis=0), surf.age.argmin(axis=0))

    def test_payoff_continuity_under_grid_refinement(self):
        cfg = NetworkConfig(2, 2, 0.001, w_idle=0.001, w_col=1.001)
        keep_raw = lambda age, thr: age
        diffs = {}
        for step in (0.01, 0.001):
            surf = build_surfaces(cfg, GridSpec(lo=0.30, hi=0.50, step=step), rescale=keep_raw)
            j = index_of(surf.grid, 0.40)
            for u in surf._payoffs(lambda a: a[:, j]):
                diffs.setdefault(step, 0.0)
                diffs[step] = max(diffs[step], float(np.abs(np.diff(u)).max()))
        assert diffs[0.01] / diffs[0.001] >= 5.0


# The closed forms as three separate whole-array expressions, each computing
# its own idle and busy factors: the oracle of the shared, blocked build.


def separate_aoi_expr(d, w, beta):
    p_idle = d.q * w.q
    succ_d = d.solo * w.q
    busy = 1.0 - p_idle
    return (busy + beta) / succ_d + 0.5 * beta + (1.0 + beta) * busy / (2.0 * (busy + beta))


def separate_throughput_expr(d, w, beta):
    succ_w = w.solo * d.q
    return succ_w * (1.0 + beta) / (1.0 - d.q * w.q + beta)


def separate_cost_expr(d, w, config):
    p_idle = d.q * w.q
    succ_d = d.n * d.tau * d.r1 * w.q
    succ_w = w.n * w.tau * w.r1 * d.q
    return config.w_idle * p_idle + config.w_col * (1.0 - p_idle - succ_d - succ_w)


def whole_grid_surfaces(cfg, grid, rescale):
    """The four surfaces from one evaluation of the separate closed forms on the whole grid."""
    pts = grid.points()
    d, w = _Axis(pts[:, None], cfg.n_dsrc), _Axis(pts[None, :], cfg.n_wifi)
    age, thr = separate_aoi_expr(d, w, cfg.beta), separate_throughput_expr(d, w, cfg.beta)
    return age, thr, separate_cost_expr(d, w, cfg), rescale(age, thr)


class TestBlockedBuild:
    # The default budget takes the 99-point grid in one block; 7-row blocks
    # give 14 whole blocks and a last one of 1 row.
    @pytest.mark.parametrize("nd, nw, w_idle, w_col", [
        (2, 5, 0.0, 0.0),
        (3, 3, 0.001, 1.001),
        (400, 400, 0.0, 0.0),  # (1-tau)^n underflows: 4587 non-finite age cells
    ])
    @pytest.mark.parametrize("rescale", [rescale_age, rescale_age_per_opponent])
    @pytest.mark.parametrize("block_cells", [game._BLOCK_CELLS, 7 * 99, 1])
    def test_bit_identical_to_whole_grid(self, nd, nw, w_idle, w_col, rescale, block_cells, monkeypatch):
        monkeypatch.setattr(game, "_BLOCK_CELLS", block_cells)
        cfg = NetworkConfig(nd, nw, 0.001, w_idle=w_idle, w_col=w_col)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            surf = build_surfaces(cfg, rescale=rescale)
            want = whole_grid_surfaces(cfg, GridSpec(), rescale)
        got = (surf.age, surf.throughput, surf.cost, surf.age_rescaled)
        for name, g, w in zip(("age", "throughput", "cost", "age_rescaled"), got, want):
            assert g.tobytes() == w.tobytes(), name
        if nd == 400:
            assert np.count_nonzero(~np.isfinite(surf.age)) == 4587

    @pytest.mark.parametrize("nd, nw, w_idle, w_col, rescale", [
        (12, 4, 0.0, 0.0, rescale_age),
        (20, 20, 0.004, 1.004, rescale_age_per_opponent),
    ], ids=["free", "costed"])
    @pytest.mark.parametrize("block_rows", [None, 7, 1], ids=["default", "7rows", "1row"])
    def test_fine_grid_bit_identical_to_whole_grid(self, nd, nw, w_idle, w_col, rescale, block_rows, monkeypatch):
        grid = GridSpec(0.001, 0.999, 0.001)
        if block_rows is not None:
            monkeypatch.setattr(game, "_BLOCK_CELLS", block_rows * grid.n_points)
        cfg = NetworkConfig(nd, nw, 0.004, w_idle=w_idle, w_col=w_col)
        surf = build_surfaces(cfg, grid, rescale=rescale)
        want = whole_grid_surfaces(cfg, grid, rescale)
        got = (surf.age, surf.throughput, surf.cost, surf.age_rescaled)
        for name, g, w in zip(("age", "throughput", "cost", "age_rescaled"), got, want):
            assert g.tobytes() == w.tobytes(), name

    @pytest.mark.parametrize("rescale", [rescale_age, rescale_age_per_opponent])
    def test_peak_memory_is_the_surfaces_and_one_grid_more(self, rescale):
        # A whole-grid evaluation would hold about three more 999x999 grids.
        cfg = NetworkConfig(20, 20, 0.004, w_idle=0.004, w_col=1.004)
        build_surfaces(cfg, rescale=rescale)  # first-call allocations
        tracemalloc.start()
        try:
            surf = build_surfaces(cfg, GridSpec(0.001, 0.999, 0.001), rescale=rescale)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for a in (surf.age, surf.throughput, surf.cost, surf.age_rescaled))
        # one grid, plus a quarter MiB for axis-sized arrays and numpy's iteration buffers
        assert peak <= returned + surf.age.nbytes + (1 << 18)

"""Cost, payoff surfaces, grid handling, and the age-rescaling maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csma_game.game import (
    GridSpec,
    build_surfaces,
    rescale_age,
    rescale_age_per_opponent,
    wastage_cost,
)
from csma_game.metrics import aoi_closed_form, throughput_closed_form
from csma_game.model import (
    DSRC,
    WIFI,
    AccessVector,
    NetworkConfig,
    StrategyPair,
    joint_idle_prob,
    success_prob_total,
)


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
            assert grid.index_of(float(tau)) == k

    def test_off_grid_rejected(self):
        grid = GridSpec()
        with pytest.raises(ValueError):
            grid.index_of(0.015)
        with pytest.raises(ValueError):
            grid.index_of(0.999)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            GridSpec(lo=0.0, hi=0.99, step=0.01)
        with pytest.raises(ValueError):
            GridSpec(lo=0.5, hi=0.4, step=0.01)
        with pytest.raises(ValueError):
            GridSpec(lo=0.01, hi=0.99, step=0.013)


class TestWastageCost:
    def test_free_spectrum(self):
        cfg = NetworkConfig(2, 2, 0.001)
        assert wastage_cost(StrategyPair(0.3, 0.7), cfg) == 0.0

    def test_hand_value(self):
        cfg = NetworkConfig(1, 1, 0.001, w_idle=1.0, w_col=1.0)
        # p_idle = 0.25, p_succ = 0.5, p_col = 0.25
        assert wastage_cost(StrategyPair(0.5, 0.5), cfg) == pytest.approx(0.5, rel=1e-12)

    def test_aggressive_limit_is_pure_collision(self):
        cfg = NetworkConfig(2, 2, 0.001, w_idle=0.4, w_col=2.5)
        cost = wastage_cost(StrategyPair(0.999999, 0.999999), cfg)
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
        p_idle = joint_idle_prob(v)
        p_succ = success_prob_total(v)
        expected = w_idle * p_idle + w_col * (1.0 - p_idle - p_succ)
        assert wastage_cost(StrategyPair(tau_d, tau_w), cfg) == pytest.approx(expected, abs=1e-12)


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
            i, j = grid.index_of(tau_d), grid.index_of(tau_w)
            pair = StrategyPair(tau_d, tau_w)
            assert surf.age[i, j] == pytest.approx(aoi_closed_form(pair, cfg), rel=1e-12)
            assert surf.throughput[i, j] == pytest.approx(throughput_closed_form(pair, cfg), rel=1e-12)
            assert surf.cost[i, j] == pytest.approx(wastage_cost(pair, cfg), rel=1e-12)

    def test_surfaces_are_read_only(self):
        surf = build_surfaces(NetworkConfig(1, 1, 0.001))
        with pytest.raises(ValueError):
            surf.age[0, 0] = 1.0

    def test_payoff_identity_and_off_grid(self):
        cfg = NetworkConfig(2, 2, 0.001, w_idle=0.001, w_col=1.001)
        surf = build_surfaces(cfg)
        for tau_d, tau_w in [(0.05, 0.9), (0.46, 0.46)]:
            i, j = surf.grid.index_of(tau_d), surf.grid.index_of(tau_w)
            pair = StrategyPair(tau_d, tau_w)
            identity = surf.payoff(DSRC, pair) + surf.cost[i, j] + surf.age_rescaled[i, j]
            assert identity == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ValueError):
            surf.payoff(DSRC, StrategyPair(0.015, 0.2))
        with pytest.raises(ValueError):
            surf.payoff(WIFI, StrategyPair(0.2, 0.015))
        with pytest.raises(ValueError):
            surf.payoff("lte", StrategyPair(0.05, 0.9))

    def test_wifi_payoff_is_raw_throughput_when_free(self):
        cfg = NetworkConfig(2, 2, 0.001)
        surf = build_surfaces(cfg)
        pair = StrategyPair(0.31, 0.44)
        assert surf.payoff(WIFI, pair) == pytest.approx(throughput_closed_form(pair, cfg), rel=1e-12)

    def test_free_game_best_replies_minimize_raw_age(self):
        surf = build_surfaces(NetworkConfig(2, 2, 0.001))
        u_d = surf.payoff_dsrc_grid()
        assert np.array_equal(u_d.argmax(axis=0), surf.age.argmin(axis=0))

    def test_payoff_continuity_under_grid_refinement(self):
        cfg = NetworkConfig(2, 2, 0.001, w_idle=0.001, w_col=1.001)
        keep_raw = lambda age, thr: age
        diffs = {}
        for step in (0.01, 0.001):
            surf = build_surfaces(cfg, GridSpec(lo=0.30, hi=0.50, step=step), rescale=keep_raw)
            j = surf.grid.index_of(0.40)
            for u in (surf.payoff_dsrc_grid()[:, j], surf.payoff_wifi_grid()[:, j]):
                diffs.setdefault(step, 0.0)
                diffs[step] = max(diffs[step], float(np.abs(np.diff(u)).max()))
        assert diffs[0.01] / diffs[0.001] >= 5.0

"""Best responses, Nash enumeration, Stackelberg, and lone-network optima."""

import numpy as np
import pytest

from csma_game.analysis import alpha2_root
from csma_game.equilibrium import (
    _tie_mask,
    best_response,
    enumerate_nash,
    single_network_optimum,
    solve_stackelberg,
)
from csma_game.game import GridSpec, PayoffSurfaces, build_surfaces, rescale_age_per_opponent
from csma_game.model import DSRC, WIFI, NetworkConfig


def free_game(n_dsrc, n_wifi, **kw):
    return build_surfaces(NetworkConfig(n_dsrc, n_wifi, 0.001, **kw))


def flat_dsrc_surfaces():
    """Hand-built surfaces whose DSRC payoff is constant in tau_d."""
    grid = GridSpec(lo=0.1, hi=0.5, step=0.1)
    n = grid.n_points
    age = np.full((n, n), 3.0)
    thr = np.linspace(0.0, 1.0, n * n).reshape(n, n)
    return PayoffSurfaces(
        config=NetworkConfig(1, 1, 0.001),
        grid=grid,
        age=age,
        throughput=thr,
        cost=np.zeros((n, n)),
        age_rescaled=age,
    )


class TestBestResponse:
    def test_constant_column_ties_whole_grid(self):
        br = best_response(DSRC, flat_dsrc_surfaces())
        assert br.response_set(0.3) == tuple(float(t) for t in br.responder_taus)

    def test_lone_dsrc_node_maxes_out(self):
        surf = free_game(1, 2)
        br = best_response(DSRC, surf)
        for tau_w in (0.2, 0.5, 0.9):
            assert br.response_set(tau_w) == (0.99,)

    def test_mutual_best_replies_at_symmetric_point(self):
        surf = free_game(2, 2)
        for player in (DSRC, WIFI):
            replies = best_response(player, surf).response_set(0.46)
            assert any(abs(t - 0.46) <= 1e-9 for t in replies)

    def test_unknown_opponent_value_rejected(self):
        with pytest.raises(ValueError):
            best_response(DSRC, free_game(1, 1)).response_set(0.015)

    def test_bad_inputs(self):
        surf = free_game(1, 1)
        with pytest.raises(ValueError):
            best_response("lte", surf)
        with pytest.raises(ValueError):
            best_response(DSRC, surf, eps_tie=-1.0)


REFERENCE_FREE_NASH = {
    # (n_dsrc, n_wifi) -> (tau_d, tau_w, age, throughput)
    (1, 1): (0.99, 0.99, 101.6015, 0.0099),
    (2, 2): (0.46, 0.46, 12.9614, 0.0803),
    (5, 5): (0.17, 0.17, 26.8100, 0.0380),
}


class TestEnumerateNash:
    @pytest.mark.parametrize("cell", sorted(REFERENCE_FREE_NASH))
    def test_free_game_reference_points(self, cell):
        td, tw, age, thr = REFERENCE_FREE_NASH[cell]
        results = enumerate_nash(free_game(*cell))
        assert len(results) == 1
        found = results[0]
        assert found.pair.tau_d == pytest.approx(td, abs=1e-9)
        assert found.pair.tau_w == pytest.approx(tw, abs=1e-9)
        assert found.age == pytest.approx(age, rel=0.05)
        assert found.throughput == pytest.approx(thr, rel=0.05)

    def test_results_survive_one_shot_deviation_scan(self):
        surf = free_game(2, 5)
        u_d = surf.payoff_dsrc_grid()
        u_w = surf.payoff_wifi_grid()
        results = enumerate_nash(surf)
        assert results
        for res in results:
            i = surf.grid.index_of(res.pair.tau_d)
            j = surf.grid.index_of(res.pair.tau_w)
            assert u_d[i, j] >= u_d[:, j].max() - 0.0
            assert u_w[i, j] >= u_w[i, :].max() - 0.0

    def test_costed_game_has_multiple_equilibria_per_opponent_scaling(self):
        cfg = NetworkConfig(1, 1, 0.001, w_idle=0.001, w_col=1.001)
        surf = build_surfaces(cfg, rescale=rescale_age_per_opponent)
        results = enumerate_nash(surf)
        assert len(results) >= 2
        pairs = {(round(r.pair.tau_d, 2), round(r.pair.tau_w, 2)) for r in results}
        assert (0.99, 0.01) in pairs

    def test_free_game_invariant_to_rescale_choice(self):
        cfg = NetworkConfig(2, 2, 0.001)
        maps = (lambda age, thr: 2.0 * age + 7.0, lambda age, thr: 0.5 * age + 3.0)
        found = [
            [(r.pair.tau_d, r.pair.tau_w) for r in enumerate_nash(build_surfaces(cfg, rescale=m))]
            for m in maps
        ]
        assert found[0] == found[1]

    def test_free_game_best_replies_invariant_to_affine_maps(self):
        cfg = NetworkConfig(2, 5, 0.001)
        maps = (lambda age, thr: 2.0 * age + 7.0, lambda age, thr: 0.5 * age + 3.0)
        masks = [best_response(DSRC, build_surfaces(cfg, rescale=m)).mask for m in maps]
        assert np.array_equal(masks[0], masks[1])


def tiny_surfaces(age_rescaled, throughput):
    grid = GridSpec(lo=0.1, hi=0.3, step=0.1)
    zeros = np.zeros_like(throughput, dtype=float)
    return PayoffSurfaces(
        config=NetworkConfig(1, 1, 0.001),
        grid=grid,
        age=np.asarray(age_rescaled, dtype=float),
        throughput=np.asarray(throughput, dtype=float),
        cost=zeros,
        age_rescaled=np.asarray(age_rescaled, dtype=float),
    )


class TestStackelbergHandOracle:
    # u_d = -age_rescaled, u_w = throughput; small matrices solved by hand
    AGE = [[1.0, 5.0, 0.0], [0.0, 2.0, 7.0], [0.0, 7.0, 1.0]]
    THR = [[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

    def test_dsrc_leader_takes_pessimistic_value_over_follower_ties(self):
        # wifi replies per row: {0,1}, {1}, {2}; pessimistic u_d: -5, -2, -1
        res = solve_stackelberg(DSRC, tiny_surfaces(self.AGE, self.THR))
        assert (res.pair.tau_d, res.pair.tau_w) == (pytest.approx(0.3), pytest.approx(0.3))
        assert res.leader_guaranteed_payoff == pytest.approx(-1.0)

    def test_wifi_leader_maximizes_over_dsrc_replies(self):
        # dsrc replies per column: {1,2}, {1}, {0}; pessimistic u_w: 0, 1, 0
        res = solve_stackelberg(WIFI, tiny_surfaces(self.AGE, self.THR))
        assert (res.pair.tau_d, res.pair.tau_w) == (pytest.approx(0.2), pytest.approx(0.2))
        assert res.leader_guaranteed_payoff == pytest.approx(1.0)


class TestStackelberg:
    def test_reference_wifi_leader(self):
        res = solve_stackelberg(WIFI, free_game(2, 2))
        assert res.pair.tau_d == pytest.approx(0.41, abs=0.0101)
        assert res.pair.tau_w == pytest.approx(0.30, abs=0.0101)
        assert res.age == pytest.approx(7.3323, rel=0.05)
        assert res.throughput == pytest.approx(0.0857, rel=0.05)
        assert res.leader_guaranteed_payoff == pytest.approx(res.throughput, rel=1e-12)

    def test_single_node_networks_race_to_the_top(self):
        for leader in (DSRC, WIFI):
            res = solve_stackelberg(leader, free_game(1, 1))
            assert (res.pair.tau_d, res.pair.tau_w) == (pytest.approx(0.99), pytest.approx(0.99))

    def test_leader_beats_nash_when_follower_replies_are_unique(self):
        surf = free_game(2, 2)
        u_d = surf.payoff_dsrc_grid()
        u_w = surf.payoff_wifi_grid()
        unique_w = ((u_w == u_w.max(axis=1, keepdims=True)).sum(axis=1) == 1).all()
        unique_d = ((u_d == u_d.max(axis=0, keepdims=True)).sum(axis=0) == 1).all()
        assert unique_w and unique_d
        nash = enumerate_nash(surf)
        dsrc_se = solve_stackelberg(DSRC, surf)
        wifi_se = solve_stackelberg(WIFI, surf)
        for ne in nash:
            assert dsrc_se.leader_guaranteed_payoff >= ne.payoff_dsrc - 1e-12
            assert wifi_se.leader_guaranteed_payoff >= ne.payoff_wifi - 1e-12

    def test_guarantee_dominates_pessimistic_value_of_any_strategy(self):
        surf = free_game(2, 5)
        u_d = surf.payoff_dsrc_grid()
        u_w = surf.payoff_wifi_grid()
        res = solve_stackelberg(DSRC, surf)
        fol_best = u_w.max(axis=1, keepdims=True)
        rng = np.random.default_rng(5)
        for i in rng.integers(0, surf.grid.n_points, size=10):
            replies = np.flatnonzero(u_w[i] == fol_best[i])
            assert res.leader_guaranteed_payoff >= u_d[i, replies].min() - 1e-12

    def test_bad_leader_tag(self):
        with pytest.raises(ValueError):
            solve_stackelberg("lte", free_game(1, 1))


def costed_game():
    cfg = NetworkConfig(2, 5, 0.001, w_idle=0.001, w_col=1.001)
    return build_surfaces(cfg, rescale=rescale_age_per_opponent)


class TestSharedSolverInputs:
    def test_cached_payoffs_equal_fresh_and_are_read_only(self):
        surf = costed_game()
        assert surf.payoff_dsrc_grid() is surf.payoff_dsrc_grid()
        assert surf.payoff_dsrc_grid().tobytes() == (-surf.age_rescaled - surf.cost).tobytes()
        assert surf.payoff_wifi_grid().tobytes() == (surf.throughput - surf.cost).tobytes()
        for u in (surf.payoff_dsrc_grid(), surf.payoff_wifi_grid()):
            with pytest.raises(ValueError):
                u[0, 0] = 0.0

    @pytest.mark.parametrize("order", [(0.0, 0.1), (0.1, 0.0)])
    def test_cached_masks_equal_fresh_tie_masks(self, order):
        surf = costed_game()
        u_d, u_w = -surf.age_rescaled - surf.cost, surf.throughput - surf.cost
        assert _tie_mask(u_d, 0, 0.1).sum() > _tie_mask(u_d, 0, 0.0).sum()  # eps_tie matters here
        for eps in order:
            br_d, br_w = best_response(DSRC, surf, eps), best_response(WIFI, surf, eps)
            assert np.array_equal(br_d.mask, _tie_mask(u_d, 0, eps))
            assert np.array_equal(br_w.mask, _tie_mask(u_w, 1, eps).T)
            assert best_response(DSRC, surf, eps).mask is br_d.mask
            assert best_response(WIFI, surf, eps).mask.base is br_w.mask.base
            for mask in (br_d.mask, br_w.mask):
                with pytest.raises(ValueError):
                    mask[0, 0] = not mask[0, 0]
            # the solvers on the shared surfaces answer as on freshly built ones
            fresh = costed_game()
            assert enumerate_nash(surf, eps) == enumerate_nash(fresh, eps)
            for leader in (DSRC, WIFI):
                assert solve_stackelberg(leader, surf, eps) == solve_stackelberg(leader, fresh, eps)

    @pytest.mark.parametrize("nash_first", [True, False])
    def test_each_player_mask_stands_alone(self, nash_first):
        # At 400/400 the DSRC payoff is not finite, so its mask raises; the
        # DSRC-led solution needs only the WiFi mask and still answers.
        with np.errstate(divide="ignore", over="ignore"):
            surf = free_game(400, 400)
        if nash_first:
            with pytest.raises(FloatingPointError):
                enumerate_nash(surf)
        res = solve_stackelberg(DSRC, surf)
        assert (res.pair.tau_d, res.pair.tau_w) == (pytest.approx(0.01), pytest.approx(0.01))
        with pytest.raises(FloatingPointError):
            solve_stackelberg(WIFI, surf)
        with pytest.raises(FloatingPointError):
            enumerate_nash(surf)


class TestSingleNetworkOptimum:
    def test_pinned_dsrc_optima(self):
        res = single_network_optimum(DSRC, 2, 0.001)
        assert round(res.tau_star, 4) == 0.0268
        assert round(res.value, 4) == 2.5576
        res10 = single_network_optimum(DSRC, 10, 0.001)
        assert round(res10.tau_star, 4) == 0.0100
        assert round(res10.value, 4) == 11.0723

    def test_pinned_wifi_optimum(self):
        res = single_network_optimum(WIFI, 2, 0.001)
        assert round(res.tau_star, 4) == 0.0306
        assert round(res.value, 4) == 0.4847

    def test_interior_optimum_matches_first_order_root(self):
        res = single_network_optimum(WIFI, 2, 0.001)
        assert abs(res.tau_star - alpha2_root(2, 0.001, q_w=1.0)) <= 1e-4

    def test_boundary_clamp(self):
        res = single_network_optimum(WIFI, 10, 0.001)
        assert res.tau_star == pytest.approx(0.01, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            single_network_optimum(DSRC, 0, 0.001)
        with pytest.raises(ValueError):
            single_network_optimum("lte", 2, 0.001)

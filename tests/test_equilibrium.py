"""Best responses, Nash enumeration, Stackelberg, and lone-network optima."""

import numpy as np
import pytest

from cells import index_of
from csma_game.analysis import _alpha2_root
from csma_game.equilibrium import NashResult, enumerate_nash, single_network_optimum, solve_stackelberg
from csma_game.game import GridSpec, PayoffSurfaces, build_surfaces, rescale_age_per_opponent
from csma_game.model import DSRC, WIFI, NetworkConfig, StrategyPair


def tie_mask(u, axis, eps_tie):
    """Oracle: within eps_tie of the max, relative to the spread; raises for an empty column.

    This is the library's former rule, kept at ``eps_tie = 0``. It finds a
    column without a best response only through NaN: ``0 * inf`` in the
    spread term, and ``inf - inf``.
    """
    with np.errstate(invalid="ignore"):
        top = u.max(axis=axis, keepdims=True)
        spread = top - u.min(axis=axis, keepdims=True)
        mask = u >= top - eps_tie * spread
    empty = int(np.count_nonzero(~mask.any(axis=axis)))
    if empty:
        raise FloatingPointError(f"no best response against {empty} opponent strategies")
    return mask


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


def br_mask(responder, surf):
    return surf._br_dsrc if responder == DSRC else surf._br_wifi


def replies(responder, surf, opponent_tau):
    """The responder's tied best replies to one opponent grid value, read from its mask."""
    mask = br_mask(responder, surf)
    o = index_of(surf.grid, opponent_tau)
    return tuple(surf.grid.points()[mask[:, o] if responder == DSRC else mask[o]].tolist())


class TestBestResponse:
    def test_constant_column_ties_whole_grid(self):
        surf = flat_dsrc_surfaces()
        assert replies(DSRC, surf, 0.3) == tuple(surf.grid.points().tolist())

    def test_lone_dsrc_node_maxes_out(self):
        surf = free_game(1, 2)
        for tau_w in (0.2, 0.5, 0.9):
            assert replies(DSRC, surf, tau_w) == (0.99,)

    def test_mutual_best_replies_at_symmetric_point(self):
        surf = free_game(2, 2)
        for player in (DSRC, WIFI):
            assert any(abs(t - 0.46) <= 1e-9 for t in replies(player, surf, 0.46))

    def test_unknown_opponent_value_rejected(self):
        with pytest.raises(ValueError):
            replies(DSRC, free_game(1, 1), 0.015)


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
        u_d = surf.payoff_dsrc
        u_w = surf.payoff_wifi
        results = enumerate_nash(surf)
        assert results
        for res in results:
            i = index_of(surf.grid, res.pair.tau_d)
            j = index_of(surf.grid, res.pair.tau_w)
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
        masks = [build_surfaces(cfg, rescale=m)._br_dsrc for m in maps]
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
        u_d = surf.payoff_dsrc
        u_w = surf.payoff_wifi
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
        u_d = surf.payoff_dsrc
        u_w = surf.payoff_wifi
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
        assert surf.payoff_dsrc is surf.payoff_dsrc
        assert surf.payoff_dsrc.tobytes() == (-surf.age_rescaled - surf.cost).tobytes()
        assert surf.payoff_wifi.tobytes() == (surf.throughput - surf.cost).tobytes()
        for u in (surf.payoff_dsrc, surf.payoff_wifi):
            with pytest.raises(ValueError):
                u[0, 0] = 0.0

    @pytest.mark.parametrize("order", [(DSRC, WIFI), (WIFI, DSRC)])
    def test_cached_masks_equal_fresh_tie_masks(self, order):
        surf = costed_game()
        u_d, u_w = -surf.age_rescaled - surf.cost, surf.throughput - surf.cost
        first = br_mask(order[0], surf)  # reading one mask first leaves the other as it would be
        br_d, br_w = surf._br_dsrc, surf._br_wifi
        assert first is (br_d if order[0] == DSRC else br_w)
        assert np.array_equal(br_d, tie_mask(u_d, 0, 0.0))
        assert np.array_equal(br_w, tie_mask(u_w, 1, 0.0))
        assert surf._br_dsrc is br_d and surf._br_wifi is br_w
        for mask in (br_d, br_w):
            with pytest.raises(ValueError):
                mask[0, 0] = not mask[0, 0]
        # the solvers on the shared surfaces answer as on freshly built ones
        fresh = costed_game()
        assert enumerate_nash(surf) == enumerate_nash(fresh)
        for leader in (DSRC, WIFI):
            assert solve_stackelberg(leader, surf) == solve_stackelberg(leader, fresh)

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


FINE = GridSpec(lo=0.001, hi=0.999, step=0.001)
COSTED = {"w_idle": 0.001, "w_col": 1.001}


def any_game(n_dsrc, n_wifi, costed=False, grid=None):
    """A free game with the range map, or a costed one with per-opponent maps, at beta 0.001."""
    cfg = NetworkConfig(n_dsrc, n_wifi, 0.001, **(COSTED if costed else {}))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # (1-tau)^n underflows at large n
        return build_surfaces(cfg, grid, rescale=rescale_age_per_opponent if costed else None)


class TestExactBestResponses:
    @pytest.mark.parametrize("n_dsrc, n_wifi, costed, grid", [
        (2, 2, False, None), (5, 5, True, None), (12, 4, False, FINE), (20, 20, True, FINE),
    ], ids=["2x2", "5x5-costed", "12x4-fine", "20x20-costed-fine"])
    def test_masks_equal_the_tie_oracle(self, n_dsrc, n_wifi, costed, grid):
        surf = any_game(n_dsrc, n_wifi, costed, grid)
        assert np.array_equal(surf._br_dsrc, tie_mask(surf.payoff_dsrc, 0, 0.0))
        assert np.array_equal(surf._br_wifi, tie_mask(surf.payoff_wifi, 1, 0.0))

    def test_many_equilibria_are_the_oracle_pairs_in_order(self):
        surf = any_game(20, 20, costed=True, grid=FINE)
        i, j = np.nonzero(tie_mask(surf.payoff_dsrc, 0, 0.0) & tie_mask(surf.payoff_wifi, 1, 0.0))
        results = enumerate_nash(surf)
        assert len(results) == i.size == 13801
        assert all(type(r) is NashResult and type(r.pair) is StrategyPair for r in results)
        pts = surf.grid.points()
        # Compared as bit patterns: the rows carry exactly the grid points and the surface values.
        pairs = np.array([(r.pair.tau_d, r.pair.tau_w) for r in results])
        assert np.array_equal(pairs.view(np.uint64), np.stack([pts[i], pts[j]], axis=1).view(np.uint64))
        values = np.array([(r.age, r.throughput, r.payoff_dsrc, r.payoff_wifi) for r in results])
        surfaces = (surf.age, surf.throughput, surf.payoff_dsrc, surf.payoff_wifi)
        gathers = np.stack([v[i, j] for v in surfaces], axis=1)
        assert np.array_equal(values.view(np.uint64), gathers.view(np.uint64))

    @pytest.mark.parametrize("n_dsrc, n_wifi, costed, empty", [
        (400, 400, False, 99), (400, 400, True, 82), (400, 1, False, 99),
        (1, 400, False, 17), (150, 150, False, 85), (300, 2, True, 99),
    ], ids=["400x400", "400x400-costed", "400x1", "1x400", "150x150", "300x2-costed"])
    def test_non_finite_columns_raise_with_the_oracles_count(self, n_dsrc, n_wifi, costed, empty):
        surf = any_game(n_dsrc, n_wifi, costed)
        u = surf.payoff_dsrc
        with pytest.raises(FloatingPointError, match=f"no best response against {empty} opponent"):
            tie_mask(u, 0, 0.0)
        with pytest.raises(FloatingPointError, match=f"no best response against {empty} opponent strategies: "):
            surf._br_dsrc
        if not costed:  # finite column maxima beside -inf cells: a bare ``u >= max`` would answer here
            assert (np.isfinite(u.max(axis=0)) & ~np.isfinite(u).all(axis=0)).any()
        assert np.array_equal(surf._br_wifi, tie_mask(surf.payoff_wifi, 1, 0.0))


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
        assert abs(res.tau_star - _alpha2_root(2, 0.001, np.ones(1))[0]) <= 1e-4

    def test_boundary_clamp(self):
        res = single_network_optimum(WIFI, 10, 0.001)
        assert res.tau_star == pytest.approx(0.01, abs=1e-9)

    def test_large_network_overflows_away_from_the_optimum_silently(self):
        # (1-tau)^2000 underflows at the top of the grid, where the age is +inf; the optimum is finite
        res = single_network_optimum(DSRC, 2000, 0.001)
        assert res.tau_star == pytest.approx(0.01, abs=1e-12)
        assert res.value == pytest.approx(5.3171642508e10, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            single_network_optimum(DSRC, 0, 0.001)
        with pytest.raises(ValueError):
            single_network_optimum("lte", 2, 0.001)

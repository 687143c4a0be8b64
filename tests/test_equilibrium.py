"""Best responses, Nash enumeration, Stackelberg, and lone-network optima."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cells import index_of, payoff_grids
from csma_game import game
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
        u_d, u_w = payoff_grids(surf)
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
        u_d, u_w = payoff_grids(surf)
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
        u_d, u_w = payoff_grids(surf)
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
    def test_cached_sweep_equals_whole_grid_reductions(self):
        surf = costed_game()
        assert surf._sweep is surf._sweep
        u_d, u_w = payoff_grids(surf)
        # Each leader's worst payoff over the follower's best responses, as one whole-grid reduction.
        worst_d = u_d.min(axis=1, where=tie_mask(u_w, 1, 0.0), initial=np.inf)
        worst_w = u_w.min(axis=0, where=tie_mask(u_d, 0, 0.0), initial=np.inf)
        assert surf._sweep.worst_dsrc.tobytes() == worst_d.tobytes()
        assert surf._sweep.worst_wifi.tobytes() == worst_w.tobytes()
        assert solve_stackelberg(DSRC, surf).leader_guaranteed_payoff == worst_d.max()
        assert solve_stackelberg(WIFI, surf).leader_guaranteed_payoff == worst_w.max()

    @pytest.mark.parametrize("order", [(DSRC, WIFI), (WIFI, DSRC)])
    def test_cached_masks_equal_fresh_tie_masks(self, order):
        surf = costed_game()
        u_d, u_w = payoff_grids(surf)
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


# Games whose DSRC payoff is not finite in some tau_w columns, with the number of those columns.
NON_FINITE_GAMES = [
    (400, 400, False, 99), (400, 400, True, 99), (400, 1, False, 99),
    (1, 400, False, 17), (150, 150, False, 85), (300, 2, True, 99),
]
NON_FINITE_IDS = ["400x400", "400x400-costed", "400x1", "1x400", "150x150", "300x2-costed"]


class TestExactBestResponses:
    @pytest.mark.parametrize("n_dsrc, n_wifi, costed, grid", [
        (2, 2, False, None), (5, 5, True, None), (12, 4, False, FINE), (20, 20, True, FINE),
    ], ids=["2x2", "5x5-costed", "12x4-fine", "20x20-costed-fine"])
    def test_masks_equal_the_tie_oracle(self, n_dsrc, n_wifi, costed, grid):
        surf = any_game(n_dsrc, n_wifi, costed, grid)
        u_d, u_w = payoff_grids(surf)
        assert np.array_equal(surf._br_dsrc, tie_mask(u_d, 0, 0.0))
        assert np.array_equal(surf._br_wifi, tie_mask(u_w, 1, 0.0))

    def test_many_equilibria_are_the_oracle_pairs_in_order(self):
        surf = any_game(20, 20, costed=True, grid=FINE)
        u_d, u_w = payoff_grids(surf)
        i, j = np.nonzero(tie_mask(u_d, 0, 0.0) & tie_mask(u_w, 1, 0.0))
        results = enumerate_nash(surf)
        assert len(results) == i.size == 13801
        assert all(type(r) is NashResult and type(r.pair) is StrategyPair for r in results)
        pts = surf.grid.points()
        # Compared as bit patterns: the rows carry exactly the grid points and the surface values.
        pairs = np.array([(r.pair.tau_d, r.pair.tau_w) for r in results])
        assert np.array_equal(pairs.view(np.uint64), np.stack([pts[i], pts[j]], axis=1).view(np.uint64))
        values = np.array([(r.age, r.throughput, r.payoff_dsrc, r.payoff_wifi) for r in results])
        surfaces = (surf.age, surf.throughput, u_d, u_w)
        gathers = np.stack([v[i, j] for v in surfaces], axis=1)
        assert np.array_equal(values.view(np.uint64), gathers.view(np.uint64))

    @pytest.mark.parametrize("n_dsrc, n_wifi, costed, empty", NON_FINITE_GAMES, ids=NON_FINITE_IDS)
    def test_non_finite_columns_raise_with_the_oracles_count(self, n_dsrc, n_wifi, costed, empty):
        surf = any_game(n_dsrc, n_wifi, costed)
        u, u_w = payoff_grids(surf)
        with pytest.raises(FloatingPointError, match=f"no best response against {empty} opponent"):
            tie_mask(u, 0, 0.0)
        with pytest.raises(FloatingPointError, match=f"no best response against {empty} opponent strategies: "):
            surf._br_dsrc
        if not costed:  # finite column maxima beside -inf cells: a bare ``u >= max`` would answer here
            assert (np.isfinite(u.max(axis=0)) & ~np.isfinite(u).all(axis=0)).any()
        assert np.array_equal(surf._br_wifi, tie_mask(u_w, 1, 0.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_max_min_values_raise(self):
        # The per-opponent map sends the costed 400/400 game's infinite-age columns to NaN, so 91 of the
        # DSRC leader's max-min values are NaN; argmax took the first of them as the leader's strategy.
        surf = build_surfaces(NetworkConfig(400, 400, 0.001, **COSTED), rescale=rescale_age_per_opponent)
        assert np.count_nonzero(np.isnan(surf._sweep.worst_dsrc)) == 91
        surf._br_wifi  # the follower has a best response to every leader strategy
        with pytest.raises(FloatingPointError, match="the dsrc leader's worst payoff is NaN at 91 of its strategies"):
            solve_stackelberg(DSRC, surf)


def stackelberg_row(leader, surf):
    r = solve_stackelberg(leader, surf)
    return (*r.pair, r.age, r.throughput, r.leader_guaranteed_payoff)


def solver_outputs(surf):
    """Both masks, the Nash rows and both Stackelberg results as bytes, or the message each raises."""
    outputs = []
    for solve in (lambda: surf._br_dsrc, lambda: surf._br_wifi,
                  lambda: [(*r.pair, *r[1:]) for r in enumerate_nash(surf)],
                  lambda: stackelberg_row(DSRC, surf), lambda: stackelberg_row(WIFI, surf)):
        try:
            outputs.append(np.asarray(solve()).tobytes())
        except FloatingPointError as exc:
            outputs.append(str(exc))
    return outputs


class TestRowBlockSweep:
    # The sweep's blocks: one row, 7 rows (a last block of 1 row on 99 points, 5 on 999),
    # and the whole grid. The 1x2 game's DSRC maxima all sit in the last row.
    @pytest.mark.parametrize("n_dsrc, n_wifi, costed, grid", [
        (2, 5, False, None), (5, 5, True, None), (1, 2, False, FINE), (12, 4, False, FINE), (20, 20, True, FINE),
        *((nd, nw, costed, None) for nd, nw, costed, _ in NON_FINITE_GAMES),
    ], ids=["2x5", "5x5-costed", "1x2-fine", "12x4-fine", "20x20-costed-fine", *NON_FINITE_IDS])
    def test_solver_outputs_do_not_depend_on_the_block_size(self, n_dsrc, n_wifi, costed, grid, monkeypatch):
        surf = any_game(n_dsrc, n_wifi, costed, grid)
        n = surf.grid.n_points
        outputs = []
        for rows in (1, 7, n):
            monkeypatch.setattr(game, "_BLOCK_CELLS", rows * n)
            outputs.append(solver_outputs(replace(surf)))  # a copy, whose sweep has not run
        assert outputs[0] == outputs[1] == outputs[2]

    def test_second_pass_visits_only_blocks_holding_a_dsrc_maximum(self, monkeypatch):
        surf = any_game(1, 2, grid=FINE)
        n_blocks = len(game._row_blocks(*surf.age.shape))
        calls = []
        payoffs = PayoffSurfaces._payoffs

        def counted(self, pick):
            calls.append(pick)
            return payoffs(self, pick)

        monkeypatch.setattr(PayoffSurfaces, "_payoffs", counted)
        surf._sweep
        u_d, _ = payoff_grids(surf)
        max_rows = np.flatnonzero(tie_mask(u_d, 0, 0.0).any(axis=1))
        holding = set((max_rows // -(-surf.grid.n_points // n_blocks)).tolist())
        assert (n_blocks, holding, max_rows.tolist()) == (63, {62}, [998])
        # Pass 1 computes each block's payoffs once; pass 2 recomputes them in at most the blocks holding a
        # column maximum, less the last block, whose payoffs are still at hand: none here.
        second_pass = len(calls) - n_blocks
        assert second_pass <= len(holding - {n_blocks - 1})
        assert second_pass == 0
        assert np.array_equal(surf._br_dsrc, tie_mask(u_d, 0, 0.0))

    def test_solver_peak_memory_is_the_two_masks(self):
        # Payoff grids held beside the masks would add two 999x999 float grids, 16 MB.
        solver_outputs(free_game(2, 2))  # first-call allocations
        surf = any_game(12, 4, grid=FINE)
        tracemalloc.start()
        try:
            enumerate_nash(surf)
            for leader in (DSRC, WIFI):
                solve_stackelberg(leader, surf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the masks, plus 1 MiB for the row blocks' temporaries and axis-sized vectors
        assert peak <= surf._br_dsrc.nbytes + surf._br_wifi.nbytes + (1 << 20)


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

"""The benchmark's own tests: every check accepts the program's real output
and rejects a deliberately wrong copy of it.

Run from the repository root with ``python3 -m pytest bench/test_checks.py -q``.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import check  # noqa: E402
import inputs  # noqa: E402
import reference as ref  # noqa: E402
from csma_game import cli  # noqa: E402
from csma_game.equilibrium import enumerate_nash, solve_stackelberg  # noqa: E402
from csma_game.game import GridSpec, build_surfaces, rescale_age, rescale_age_per_opponent  # noqa: E402
from csma_game.metrics import aoi_node, inter_update_moments, per_node_throughput  # noqa: E402
from csma_game.model import AccessVector, NetworkConfig, SlotLengths  # noqa: E402
from csma_game.simulate import SimConfig, run_simulation  # noqa: E402

SWEEP = ["sweep", "--nd", "1,2", "--nw", "2", "--beta", "0.001", "--w-idle", "0", "--w-col", "0"]
COSTED_STACKELBERG = ["stackelberg", "--nd", "2", "--nw", "5", "--beta", "0.001", "--preset", "costed",
                      "--rescale", "per-opponent", "--leader", "both"]


def run_cli(argv, tmp_path):
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    return check.read_csv(out.read_text())


def verdict_of(fn, *args):
    v = check.Verdict()
    fn(v, *args)
    v.finish_mc()
    return v


def next_grid_point(text: str) -> str:
    """The neighbouring point of the 0.01-step grid, staying inside [0.01, 0.99]."""
    tau = float(text)
    return f"{tau + (0.01 if tau < 0.985 else -0.01):.6g}"


def bump_6th_digit(text: str) -> str:
    """One unit more in the 6th significant digit of a printed number."""
    x = float(text)
    return f"{x + 10.0 ** (math.floor(math.log10(abs(x))) - 5):.6g}"


@pytest.fixture
def sweep_rows(tmp_path):
    rows = run_cli(SWEEP, tmp_path)
    assert verdict_of(check.check_sweep, "sweep", SWEEP, rows).problems == []
    return rows


def test_shifted_nash_pair_is_rejected(sweep_rows):
    sweep_rows[0]["tau_d"] = next_grid_point(sweep_rows[0]["tau_d"])
    problems = verdict_of(check.check_sweep, "sweep", SWEEP, sweep_rows).problems
    assert any("not a mutual best response" in p for p in problems)


def test_missing_equilibrium_is_rejected(sweep_rows):
    problems = verdict_of(check.check_sweep, "sweep", SWEEP, sweep_rows[1:]).problems
    assert any("missing equilibrium" in p for p in problems)


def test_printed_age_off_in_6th_digit_is_rejected(sweep_rows):
    sweep_rows[0]["age"] = bump_6th_digit(sweep_rows[0]["age"])
    problems = verdict_of(check.check_sweep, "sweep", SWEEP, sweep_rows).problems
    assert any("age" in p for p in problems)


def test_shifted_stackelberg_point_is_rejected(tmp_path):
    rows = run_cli(COSTED_STACKELBERG, tmp_path)
    assert verdict_of(check.check_stackelberg_csv, "st", COSTED_STACKELBERG, rows).problems == []
    rows[0]["tau_d"] = next_grid_point(rows[0]["tau_d"])
    assert verdict_of(check.check_stackelberg_csv, "st", COSTED_STACKELBERG, rows).problems


def test_curve_value_off_in_6th_digit_is_rejected(tmp_path):
    argv = ["metrics", "--nd", "5", "--nw", "2", "--tau-w", "0.2"]
    rows = run_cli(argv, tmp_path)
    assert verdict_of(check.check_metrics, "curve", argv, rows).problems == []
    rows[40]["throughput"] = bump_6th_digit(rows[40]["throughput"])
    assert verdict_of(check.check_metrics, "curve", argv, rows).problems


def test_wrong_sign_scan_is_rejected(tmp_path):
    argv = ["verify", "--nd", "2", "--nw", "5", "--preset", "costed", "--tau-opp", "0.3"]
    rows = run_cli(argv, tmp_path)
    assert verdict_of(check.check_verify, "verify", argv, rows).problems == []
    rows[0]["sign_changes"] = str(int(rows[0]["sign_changes"]) + 1)
    assert verdict_of(check.check_verify, "verify", argv, rows).problems


def _fine_game(nd=3, nw=2, preset="free"):
    game_spec = {"nd": nd, "nw": nw, "beta": 0.002, "preset": preset, "grid": (0.01, 0.99, 0.01)}
    w_idle, w_col, rescale = inputs.game_weights(game_spec)
    surfaces = build_surfaces(NetworkConfig(nd, nw, 0.002, w_idle, w_col), GridSpec(0.01, 0.99, 0.01),
                              rescale=rescale_age if rescale == "range" else rescale_age_per_opponent)
    return game_spec, surfaces


def _fine_ops(surfaces):
    def nash_rows(results):
        return [[r.pair.tau_d, r.pair.tau_w, r.age, r.throughput, r.payoff_dsrc, r.payoff_wifi] for r in results]

    ops = [{"label": "build", "payload": {"age": surfaces.age.copy(), "throughput": surfaces.throughput,
                                          "cost": surfaces.cost, "age_rescaled": surfaces.age_rescaled}},
           {"label": "nash", "payload": {"rows": nash_rows(enumerate_nash(surfaces))}}]
    for leader in ("dsrc", "wifi"):
        r = solve_stackelberg(leader, surfaces)
        ops.append({"label": leader, "payload": {"leader": leader, "pair": [r.pair.tau_d, r.pair.tau_w],
                                                 "age": r.age, "throughput": r.throughput,
                                                 "payoff": r.leader_guaranteed_payoff}})
    return ops


def test_surface_age_off_in_6th_digit_is_rejected():
    spec, surfaces = _fine_game()
    ops = _fine_ops(surfaces)
    v = check.check("fine_grid", {"games": [spec]}, ops)
    assert v.failed == [] and v.problems == []
    ops[0]["payload"]["age"][10, 20] *= 1.0 + 1e-5
    assert check.check("fine_grid", {"games": [spec]}, ops).problems


def test_api_nash_shift_and_omission_are_rejected():
    spec, surfaces = _fine_game(1, 1, "costed")
    ops = _fine_ops(surfaces)
    rows = ops[1]["payload"]["rows"]
    assert len(rows) > 1 and check.check("fine_grid", {"games": [spec]}, ops).problems == []
    shifted = [rows[0][0], float(next_grid_point(repr(rows[0][1]))), *rows[0][2:]]
    ops[1]["payload"]["rows"] = [shifted, *rows[1:]]
    assert check.check("fine_grid", {"games": [spec]}, ops).problems
    ops[1]["payload"]["rows"] = rows[1:]
    assert any("missing" in p for p in check.check("fine_grid", {"games": [spec]}, ops).problems)


def test_empty_nash_list_counts_as_failed_not_wrong():
    spec, surfaces = _fine_game()
    ops = _fine_ops(surfaces)
    ops[1]["payload"]["rows"] = []
    v = check.check("fine_grid", {"games": [spec]}, ops)
    assert v.problems == [] and len(v.failed) == 1


def test_general_route_age_off_in_6th_digit_is_rejected():
    taus = [0.05, 0.1, 0.02, 0.3, 0.07]
    vec = {"taus": taus, "tags": ["dsrc", "wifi", "dsrc", "wifi", "dsrc"], "nodes": [0, 3]}
    v = AccessVector(tuple(taus), tuple(vec["tags"]))
    s = SlotLengths.from_beta(0.001)
    payload = {"age": [aoi_node(v, s, i) for i in (0, 3)],
               "throughput": [per_node_throughput(v, s, i) for i in (0, 3)],
               "ez": [inter_update_moments(v, s, i).first for i in (0, 3)],
               "ez2": [inter_update_moments(v, s, i).second for i in (0, 3)]}
    spec = {"beta": 0.001, "vectors": [vec]}
    assert check.check("general_route", spec, [{"label": "v", "payload": payload}]).problems == []
    payload["age"][1] *= 1.0 + 1e-5
    assert check.check("general_route", spec, [{"label": "v", "payload": payload}]).problems


def test_simulator_estimate_moved_by_10_se_is_rejected():
    vec = {"taus": [0.1, 0.25, 0.05], "tags": ["dsrc", "wifi", "dsrc"], "seed": 5}
    r = run_simulation(AccessVector(tuple(vec["taus"]), tuple(vec["tags"])), SlotLengths.from_beta(0.001),
                       SimConfig(horizon_slots=200_000, seed=vec["seed"]))
    payload = {"age": r.age.copy(), "age_se": r.age_se, "throughput": r.throughput,
               "throughput_se": r.throughput_se, "ez": r.inter_update_mean, "ez_se": r.inter_update_mean_se,
               "ez2": r.inter_update_sq_mean, "ez2_se": r.inter_update_sq_mean_se,
               "slots": [r.slots_idle, r.slots_success, r.slots_collision, r.slots_measured]}
    assert verdict_of(check.check_simulation, "sim", vec, payload, 0.001, 200_000).problems == []
    target = float(ref.node_quantities(vec["taus"], 0.001)["age"][1])
    payload["age"][1] += 10.0 * r.age_se[1] * (1.0 if r.age[1] >= target else -1.0)
    problems = verdict_of(check.check_simulation, "sim", vec, payload, 0.001, 200_000).problems
    assert any("[node 1] age" in p for p in problems)


def test_brute_force_and_log_domain_references_agree():
    rng = np.random.default_rng(3)
    taus = rng.uniform(0.01, 0.2, 12)
    brute = ref.node_quantities(taus, 0.001)
    l1 = np.log1p(-taus)
    p = taus * np.exp(l1.sum() - l1)
    logd = ref._renewal(p, -np.expm1(l1.sum()) - p, np.exp(l1.sum()), 0.001)
    for got, name in zip(logd, ("ez", "ez2", "age", "throughput")):
        np.testing.assert_allclose(got, brute[name], rtol=1e-11)
    h = ref.homogeneous(3, 4, 0.001, 0.1, 0.2)
    q = ref.node_quantities([0.1] * 3 + [0.2] * 4, 0.001)
    assert math.isclose(math.exp(h["log_age"]), q["age"][0], rel_tol=1e-12)
    assert math.isclose(math.exp(h["log_thr"]), q["throughput"][3], rel_tol=1e-12)

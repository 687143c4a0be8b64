"""Command-line front end: schemas, determinism, precedence, exit codes."""

import json
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import pytest

from csma_game import cli
from csma_game.cli import main
from csma_game.metrics import aoi_node, inter_update_moments, per_node_throughput
from csma_game.model import DSRC, WIFI, AccessVector, NetworkConfig, StrategyPair

COMMANDS = ("metrics", "nash", "sweep", "stackelberg", "optimum", "verify", "simulate")
TESTS_DIR = str(Path(__file__).resolve().parent)


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    lines = [line for line in text.strip().splitlines() if line]
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_nash_csv_contains_reference_point(capsys):
    code, out = run_cli(["nash", "--nd", "2", "--nw", "2"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["nd", "nw", "tau_d", "tau_w", "age", "throughput", "u_dsrc", "u_wifi"]
    assert len(rows) == 1
    assert float(rows[0]["tau_d"]) == pytest.approx(0.46)
    assert float(rows[0]["tau_w"]) == pytest.approx(0.46)


def test_optimum_rows_round_to_pinned_values(capsys):
    code, out = run_cli(["optimum", "--kind", "both", "--n", "2"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    by_kind = {r["kind"]: r for r in rows}
    assert round(float(by_kind["dsrc"]["tau_star"]), 4) == 0.0268
    assert round(float(by_kind["dsrc"]["value"]), 4) == 2.5576
    assert round(float(by_kind["wifi"]["tau_star"]), 4) == 0.0306
    assert round(float(by_kind["wifi"]["value"]), 4) == 0.4847


def test_metrics_age_curves_decrease_for_single_dsrc_node(capsys):
    for nw in ("1", "2", "5"):
        code, out = run_cli(["metrics", "--nd", "1", "--nw", nw, "--tau-w", "0.2"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        ages = [float(r["age"]) for r in rows]
        assert len(ages) == 99
        assert all(a >= b for a, b in zip(ages, ages[1:]))


def test_metrics_requires_exactly_one_fixed_strategy(capsys):
    code, _ = run_cli(["metrics", "--nd", "1", "--nw", "1"], capsys)
    assert code == 1
    code, _ = run_cli(
        ["metrics", "--nd", "1", "--nw", "1", "--tau-d", "0.2", "--tau-w", "0.2"], capsys
    )
    assert code == 1


def test_json_round_trip(tmp_path):
    out_path = tmp_path / "nash.json"
    assert main(["nash", "--nd", "2", "--nw", "2", "--format", "json", "--out", str(out_path)]) == 0
    records = json.loads(out_path.read_text())
    assert records[0]["tau_d"] == 0.46
    assert json.loads(json.dumps(records)) == records


def test_byte_identical_reruns(tmp_path):
    args = ["simulate", "--nd", "1", "--nw", "2", "--tau-d", "0.3", "--tau-w", "0.2",
            "--horizon", "20000", "--seed", "5"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_stackelberg_rows(capsys):
    code, out = run_cli(["stackelberg", "--nd", "2", "--nw", "2", "--leader", "wifi"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1
    assert rows[0]["leader"] == "wifi"
    assert float(rows[0]["tau_d"]) == pytest.approx(0.41, abs=0.011)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_zero_payoff_prints_unsigned(fmt, capsys):
    # The age leader's payoff on this grid is -0.0 - 0.0 = -0.0.
    code, out = run_cli(["stackelberg", "--nd", "150", "--nw", "150", "--leader", "dsrc", "--format", fmt], capsys)
    assert code == 0
    if fmt == "csv":
        assert parse_csv(out)[1][0]["leader_payoff"] == "0"
    else:
        assert '"leader_payoff": 0.0' in out


def test_sweep_crosses_cells_in_order(capsys):
    code, out = run_cli(["sweep", "--nd", "2,1", "--nw", "1", "--w-idle", "0", "--w-col", "0"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert [r["nd"] for r in rows] == ["1", "2"]
    assert all(r["nw"] == "1" for r in rows)


@pytest.mark.parametrize("argv, games, n_rows", [
    (["stackelberg", "--nd", "2,2", "--nw", "1"], 1, 2),
    (["stackelberg", "--nd", "2,1,2", "--nw", "1,1", "--leader", "dsrc"], 2, 2),
    (["sweep", "--nd", "1", "--nw", "1", "--w-idle", "0,0", "--w-col", "0,0"], 1, 1),
    (["verify", "--nd", "2,2", "--nw", "1", "--tau-opp", "0.3"], 0, 2),
    (["optimum", "--n", "2,2"], 0, 2),
])
def test_a_repeated_game_is_built_and_printed_once(argv, games, n_rows, monkeypatch, capsys):
    built = []
    real = cli.build_surfaces

    def counting(config, *args, **kwargs):
        built.append(config)
        return real(config, *args, **kwargs)

    monkeypatch.setattr(cli, "build_surfaces", counting)
    code, out = run_cli(argv, capsys)
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == len(set(rows)) == n_rows
    assert len(built) == len(set(built)) == games


@pytest.mark.parametrize("argv", [
    ["sweep", "--nd", "1,2", "--nw", "1,2", "--w-idle", "0,0.001", "--w-col", "0,1.001"],
    ["stackelberg", "--nd", "1,2", "--nw", "1,2", "--leader", "both"],
], ids=["sweep", "stackelberg"])
def test_no_games_surfaces_are_alive_during_the_next_build(argv, monkeypatch, capsys):
    built, alive = [], []
    real = cli.build_surfaces

    def tracking(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in built))
        surfaces = real(*args, **kwargs)
        built.append(weakref.ref(surfaces))
        return surfaces

    monkeypatch.setattr(cli, "build_surfaces", tracking)
    code, _ = run_cli(argv, capsys)
    assert code == 0
    assert alive == [0] * len(built) and len(built) > 2


def test_sweep_weight_lists_must_pair(capsys):
    code, _ = run_cli(["sweep", "--nd", "1", "--nw", "1", "--w-idle", "0,1", "--w-col", "0"], capsys)
    assert code == 1


def test_costed_preset_with_per_opponent_scaling(capsys):
    code, out = run_cli(
        ["nash", "--nd", "1", "--nw", "1", "--preset", "costed", "--rescale", "per-opponent"],
        capsys,
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) >= 2


def test_verify_rows(capsys):
    code, out = run_cli(
        ["verify", "--nd", "2", "--nw", "2", "--player", "dsrc", "--tau-opp", "0.2,0.5",
         "--scan-step", "0.01"],
        capsys,
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 2
    assert all(r["pattern_ok"] == "true" for r in rows)
    assert all(int(r["sign_changes"]) <= 1 for r in rows)


@pytest.mark.parametrize("step", ["0.003", "0.3", "0.07"])
def test_verify_scans_any_positive_step(step, capsys):
    code, out = run_cli(["verify", "--nd", "2", "--nw", "2", "--tau-opp", "0.2,0.5", "--scan-step", step], capsys)
    assert code == 0
    assert len(parse_csv(out)[1]) == 4  # both players against both opponent values


@pytest.mark.parametrize("step, message", [
    ("0", "scan step must be positive and finite, got 0.0"),
    ("nan", "scan step must be positive and finite, got nan"),
    ("-0.1", "scan step must be positive and finite, got -0.1"),
    ("0.5", "the scan keeps 1 point(s) inside [0.0001, 0.9999], too few to show a sign change"),
    ("1.5", "the scan keeps 0 point(s) inside [0.0001, 0.9999], too few to show a sign change"),
], ids=["zero", "nan", "negative", "one-point", "no-point"])
def test_bad_or_too_coarse_scan_step_is_config_error(step, message, capsys):
    assert main(["verify", "--nd", "2", "--nw", "2", "--tau-opp", "0.2", "--scan-step", step]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


ANALYTIC = ("age_analytic", "throughput_analytic", "ez_analytic", "ez2_analytic")


def test_simulate_emits_analytic_columns(capsys):
    config = NetworkConfig(1, 1, 0.001)
    lengths = config.slot_lengths()
    for tau_d in (0.4, 0.0):  # both nodes send, or the DSRC node is silent
        code, out = run_cli(["simulate", "--nd", "1", "--nw", "1", "--tau-d", str(tau_d), "--tau-w", "0.3",
                             "--horizon", "20000", "--seed", "2"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2
        vector = AccessVector.homogeneous(config, StrategyPair(tau_d, 0.3))
        for i, row in enumerate(rows):
            # Each analytic cell is the public per-node value at 6 digits; a silent node has no age or moments.
            values = dict.fromkeys(ANALYTIC, "")
            values["throughput_analytic"] = f"{per_node_throughput(vector, lengths, i):.6g}"
            if vector.taus[i] > 0.0:
                moments = inter_update_moments(vector, lengths, i)
                values.update(age_analytic=f"{aoi_node(vector, lengths, i):.6g}",
                              ez_analytic=f"{moments.first:.6g}", ez2_analytic=f"{moments.second:.6g}")
                assert float(row["age_analytic"]) > 0.0
                assert abs(float(row["age_sim"]) - float(row["age_analytic"])) <= 5 * float(row["age_se"])
            assert {column: row[column] for column in ANALYTIC} == values


def test_config_file_with_flag_override(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("# experiment defaults\nnd = 2\nnw = 2\nbeta = 0.001\n")
    code, out = run_cli(["nash", "--config", str(conf), "--nw", "1"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["nd"] == "2"
    assert rows[0]["nw"] == "1"


@pytest.mark.parametrize("conf, flags, expected", [
    ("w_col = 6\n", ["--preset", "nudge150", "--w-col", "7"], ("0.001", "0.001", "7")),
    ("w_idle = 5\nw_col = 6\n", ["--preset", "nudge400"], ("0.001", "0.001", "400")),
    ("w_col = 6\n", [], ("0.001", "0", "6")),
    ("beta = 0.01\n", ["--preset", "costed"], ("0.01", "0.01", "1.01")),
], ids=["flag-over-preset", "preset-over-file", "file-over-default", "costed-reads-the-files-beta"])
def test_option_lookup_order(conf, flags, expected, tmp_path, capsys):
    path = tmp_path / "run.conf"
    path.write_text(conf)
    argv = ["verify", "--nd", "1", "--nw", "1", "--player", "wifi", "--tau-opp", "0.5", "--scan-step", "0.01",
            "--config", str(path)]
    code, out = run_cli(argv + flags, capsys)
    assert code == 0
    (row,) = parse_csv(out)[1]
    assert (row["beta"], row["w_idle"], row["w_col"]) == expected


def test_unknown_config_key_rejected(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("turbo = yes\n")
    code, _ = run_cli(["nash", "--config", str(conf)], capsys)
    assert code == 1


@pytest.mark.parametrize("line, message", [
    ("nd: 2", "expected 'key = value', got 'nd: 2'"),
    ("out: /tmp/a=b", "unknown config key 'out: /tmp/a'"),
], ids=["colon", "colon-before-equals"])
def test_config_file_has_one_syntax(line, message, tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(f"nw = 2\n{line}\n")
    assert main(["nash", "--config", str(conf)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {conf}:2: {message}\n"


def test_config_keys_a_subcommand_does_not_read_are_ignored(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("nd = 1\nnw = 1\nw_idle = nan\nleader = dsrc\ngrid_lo = 0.1\ngrid_hi = 0.9\ngrid_step = 0.1\n")
    assert main(["nash", "--config", str(conf)]) == 1  # nash reads the weights
    assert capsys.readouterr().err == "error: cost weights must be finite and non-negative\n"
    code, out = run_cli(["metrics", "--config", str(conf), "--tau-w", "0.2"], capsys)
    assert code == 0 and len(parse_csv(out)[1]) == 9
    code, out = run_cli(["simulate", "--config", str(conf), "--tau-d", "0.3", "--tau-w", "0.2", "--horizon", "2000"],
                        capsys)
    assert code == 0 and len(parse_csv(out)[1]) == 2


def test_invalid_flag_value_names_the_field(tmp_path, capsys):
    code = main(["nash", "--nd", "two"])
    err = capsys.readouterr().err
    assert code == 1
    assert "nd" in err


def test_out_of_range_beta_is_config_error(capsys):
    assert main(["nash", "--beta", "2.0"]) == 1


@pytest.mark.parametrize("argv, message", [
    (["nash", "--w-idle", "nan"], "error: cost weights must be finite and non-negative"),
    (["nash", "--w-col", "inf"], "error: cost weights must be finite and non-negative"),
    (["nash", "--format", "xml"], "error: invalid value for format: 'xml' (expected one of csv, json)"),
    (["nash", "--config", TESTS_DIR],
     f"error: cannot read config file {TESTS_DIR}: [Errno 21] Is a directory: '{TESTS_DIR}'"),
], ids=["w-idle-nan", "w-col-inf", "format-xml", "config-directory"])
def test_non_finite_weight_or_tie_tolerance_is_config_error(argv, message, capsys):
    assert main(argv + ["--nd", "2", "--nw", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_unknown_flag_is_config_error(capsys):
    assert main(["nash", "--frequency", "5.9"]) == 1


def test_unwritable_output_path(capsys):
    assert main(["nash", "--nd", "1", "--nw", "1", "--out", "/nonexistent-dir/x.csv"]) == 2


def test_simulate_without_activity_is_runtime_error(capsys):
    code = main(["simulate", "--nd", "1", "--nw", "1", "--horizon", "100", "--seed", "0"])
    assert code == 2


def test_negative_seed_is_config_error(capsys):
    code = main(["simulate", "--nd", "1", "--nw", "1", "--tau-d", "0.3", "--horizon", "100", "--seed", "-1"])
    assert code == 1
    assert capsys.readouterr().err == "error: seed must be an integer of at least 0, got -1\n"


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_non_finite_lone_optimum_is_runtime_error(capsys):
    code = main(["optimum", "--kind", "dsrc", "--n", "100000"])
    err = capsys.readouterr().err
    assert code == 2
    assert "dsrc" in err and "n=100000" in err


@pytest.mark.parametrize("fixed, message", [
    (["--tau-w", "1.5"], "tau_w must lie in [0, 1), got 1.5"),
    (["--tau-w", "nan"], "tau_w must lie in [0, 1), got nan"),
    (["--tau-d", "-0.3"], "tau_d must lie in [0, 1), got -0.3"),
    (["--tau-d", "1.0"], "tau_d must lie in [0, 1), got 1.0"),
], ids=["tau-w-above-one", "tau-w-nan", "tau-d-negative", "tau-d-one"])
def test_metrics_fixed_strategy_outside_unit_interval_is_config_error(fixed, message, capsys):
    assert main(["metrics", "--nd", "1", "--nw", "2"] + fixed) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("step, message", [
    ("inf", "grid step must be positive and finite, got inf"),
    ("nan", "grid step must be positive and finite, got nan"),
    ("1e300", "grid step 1e+300 exceeds the span [0.1, 0.5]"),
    ("1e-320", "grid step 1e-320 is too fine for the span [0.1, 0.5]"),
], ids=["inf", "nan", "oversized", "too-fine"])
def test_non_finite_or_oversized_grid_step_is_config_error(step, message, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["nash", "--grid-lo", "0.1", "--grid-hi", "0.5", "--grid-step", step])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", [["nash"], ["stackelberg"], ["metrics", "--tau-w", "0.2"]], ids=lambda c: c[0])
def test_a_grid_ending_at_one_is_config_error(command, capsys):
    # 0.5 + 2 * 0.25 = 1.0: hi is within the step ratio's tolerance of it
    assert main(command + ["--grid-lo", "0.5", "--grid-hi", "0.9999999999", "--grid-step", "0.25"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: grid [0.5, 0.9999999999] in steps of 0.25 ends at 1.0, not below 1\n"


def test_unallocatable_grid_is_runtime_error(monkeypatch, capsys):
    def too_large(opt):
        raise MemoryError("Unable to allocate 6.99 TiB for an array with shape (980001, 980001)")

    monkeypatch.setitem(cli._COMMANDS, "nash", (too_large, cli._COMMANDS["nash"][1]))
    assert main(["nash", "--grid-step", "0.000001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory: Unable to allocate 6.99 TiB for an array with shape (980001, 980001)\n"


def test_metrics_without_dsrc_sender_leaves_age_empty(capsys):
    code, out = run_cli(
        ["metrics", "--nd", "1", "--nw", "2", "--tau-d", "0", "--grid-lo", "0.1", "--grid-hi", "0.3",
         "--grid-step", "0.1", "--format", "json"],
        capsys,
    )
    assert code == 0
    records = json.loads(out)
    assert len(records) == 3
    assert all(r["age"] is None and r["throughput"] > 0.0 for r in records)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_metrics_non_finite_age_is_runtime_error(fmt, capsys):
    # Beside 0.5^400 of the WiFi side, a DSRC node's success probability leaves the double range from tau_d = 0.67
    # on: 33 infinite ages, which the output must not hold as inf or Infinity.
    code = main(["metrics", "--nd", "400", "--nw", "400", "--tau-w", "0.5", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: 33 of 99 ages are not finite")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


COSTED_400 = ["--nd", "400", "--nw", "400", "--preset", "costed", "--rescale", "per-opponent"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["nash", "--nd", "400", "--nw", "400"],
    ["stackelberg", "--nd", "400", "--nw", "400", "--leader", "wifi"],
    ["nash", *COSTED_400],
    ["stackelberg", *COSTED_400, "--leader", "wifi"],
    ["stackelberg", *COSTED_400, "--leader", "dsrc"],  # the WiFi follower answers; the leader's values are NaN
    ["nash", "--nd", "80000", "--nw", "1"],  # every age is +inf: the range map gives NaN, not one constant
    ["stackelberg", "--nd", "80000", "--nw", "1", "--leader", "dsrc"],
    ["nash", "--nd", "2", "--nw", "400", "--preset", "costed", "--rescale", "per-opponent"],  # 17 +inf columns
])
def test_non_finite_payoff_surface_is_runtime_error(argv, capsys):
    message = "worst payoff is NaN" if argv[-1] == "dsrc" else "no best response"
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_age_leader_on_non_finite_surface_still_answers(capsys):
    code, out = run_cli(["stackelberg", "--nd", "400", "--nw", "400", "--leader", "dsrc"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert (rows[0]["tau_d"], rows[0]["tau_w"]) == ("0.01", "0.01")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_underflowing_opponent_factor_is_runtime_error(capsys):
    code = main(["verify", "--nd", "2", "--nw", "400", "--player", "dsrc", "--tau-opp", "0.9"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "underflows" in err
    assert err.count("\n") == 1 and err.endswith("\n")


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: csma-game")
    assert all(command in out for command in COMMANDS)


def test_subcommand_help_lists_only_its_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nash", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: csma-game nash ")
    assert "--rescale" in out and "--horizon" not in out


SIMULATE = ["simulate", "--nd", "1", "--nw", "1", "--tau-d", "0.3", "--tau-w", "0.2", "--horizon", "2000"]


@pytest.mark.parametrize("argv", [
    ["metrics", "--leader", "dsrc"], [], ["bogus"], ["nash", "--eps-tie", "0"],
    ["optimum", "--n", "2", "--nd", "7"],
    ["metrics", "--nd", "1", "--nw", "1", "--tau-w", "0.2", "--preset", "costed"],
    ["verify", "--nd", "2", "--nw", "2", "--grid-step", "0.3"],
    SIMULATE + ["--grid-step", "0.5"],
    SIMULATE + ["--w-col", "5"],
    ["verify", "--nd", "2", "--nw", "2", "--scan-step", "0.5"],
])
def test_missing_unknown_or_foreign_arguments_are_config_errors(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_prefix_and_equals_flag_forms(capsys):
    common = ["--nw", "1", "--tau-d", "0.4", "--tau-w", "0.3", "--seed", "2"]
    code, long_form = run_cli(["simulate", "--nd", "1", "--horizon", "20000"] + common, capsys)
    assert code == 0
    assert run_cli(["simulate", "--nd=1", "--hor", "20000"] + common, capsys) == (0, long_form)


def test_parser_has_only_the_subcommands_flags(monkeypatch, capsys):
    added = []
    real = cli._Parser.add_argument

    def counting(self, *args, **kwargs):
        added.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "add_argument", counting)
    cli._parser.cache_clear()  # so that this call builds the nash parser
    assert main(["nash", "--nd", "2", "--nw", "2"]) == 0
    # the nash flags, the subcommand positional and -h/--help
    assert 0 < len(added) <= len(cli._COMMANDS["nash"][1]) + 2


# One valid invocation per subcommand, each reaching every option its handler reads.
VALID = {
    "metrics": ["metrics", "--nd", "1", "--nw", "2", "--tau-w", "0.2"],
    "nash": ["nash", "--nd", "2", "--nw", "2"],
    "sweep": ["sweep", "--nd", "1,2", "--nw", "1"],
    "stackelberg": ["stackelberg", "--nd", "2", "--nw", "2"],
    "optimum": ["optimum", "--n", "2"],
    "verify": ["verify", "--nd", "2", "--nw", "2", "--tau-opp", "0.3", "--scan-step", "0.01"],
    "simulate": SIMULATE,
}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_subcommand_declares_exactly_the_options_it_reads(command, monkeypatch, capsys):
    read = set()
    real = cli._Options.raw

    def recording(self, field):
        read.add(field)
        return real(self, field)

    monkeypatch.setattr(cli._Options, "raw", recording)
    assert main(VALID[command]) == 0
    flags = cli._COMMANDS[command][1]
    assert read == set(flags) - {"config", "preset"}  # both are read by _Options itself
    assert ("preset" in flags) == ("w_idle" in flags)  # the preset sets the weights


def test_readme_lists_each_subcommands_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = {}
    for line in readme.splitlines():
        cells = [cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0] in COMMANDS:
            listed[cells[0]] = cells[2].split()
    declared = {command: ["--" + flag.replace("_", "-") for flag in flags]
                for command, (_, flags) in cli._COMMANDS.items()}
    assert listed == declared
    assert list(cli._COMMANDS) == list(COMMANDS)


def test_cached_parsers_answer_as_fresh_ones(capsys):
    argvs = [
        ["nash", "--nd", "2", "--nw", "2"], ["optimum", "--n", "2"], ["nash", "--help"], ["--help"],
        ["stackelberg", "--nd", "2", "--horizon", "5"], ["bogus"], ["optimum", "--n", "x"],
        ["nash", "--nd", "1", "--nw", "2", "--format", "json"], [],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # help
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert [run(argv) for argv in argvs] == fresh  # one process, each subcommand's parser built once
    assert [run(argv) for argv in argvs] == fresh
    assert cli._parser.cache_info().misses == 4  # nash, optimum, stackelberg and the bare parser


@pytest.mark.parametrize("argv, first_line", [
    (["nash", "--nd", "2", "--nw", "2"], "nd,nw,tau_d,tau_w,age,throughput,u_dsrc,u_wifi"),
    (["--help"], "usage: csma-game [-h] {" + ",".join(COMMANDS) + "}"),
], ids=["nash", "help"])
def test_module_entry_point(argv, first_line):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "csma_game.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == first_line
    assert proc.stderr == ""


def oracle_verify_rows(nd_list, nw_list, w_idle, w_col, opponents=tuple(k / 10.0 for k in range(1, 10))):
    """The verify rows from one oracle scan per player, cell and opponent value."""
    from test_analysis import one_value_scan

    rows = []
    for player in (DSRC, WIFI):
        for nd, nw in sorted((nd, nw) for nd in nd_list for nw in nw_list):
            config = NetworkConfig(nd, nw, 0.001, w_idle, w_col)
            for tau in opponents:
                rows.append((player, nd, nw, 0.001, w_idle, w_col, tau) + one_value_scan(player, config, tau))
    header = ["player", "nd", "nw", "beta", "w_idle", "w_col", "tau_opponent",
              "sign_changes", "pattern_ok", "tau_prime_bound", "alpha2_root"]
    return header, rows


@pytest.mark.parametrize("preset, weights, fmt", [
    ("nocost", (0.0, 0.0), "csv"),
    ("costed", (0.001, 1.001), "csv"),
    ("costed", (0.001, 1.001), "json"),
])
def test_catalog_verify_output_is_the_oracles(preset, weights, fmt, capsys):
    code, out = run_cli(["verify", "--nd", "1,2,5", "--nw", "1,2,5", "--preset", preset, "--format", fmt], capsys)
    assert code == 0
    assert out == cli._render(*oracle_verify_rows((1, 2, 5), (1, 2, 5), *weights), fmt)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("player, tau_opp, code, message", [
    ("dsrc", "0.5,0.9,1.0", 2, "error: (1-0.9)^400 underflows to 0"),
    ("dsrc", "1.0,0.9", 1, "error: fixed opponent strategy must lie in [0, 1)"),
    ("wifi", "0.9", 2, "error: (1-0.9)^400 underflows to 0"),
], ids=["underflow-first", "range-first", "wifi-underflow"])
def test_verify_reports_the_first_bad_opponent_value(player, tau_opp, code, message, capsys):
    sizes = ["--nd", "2", "--nw", "400"] if player == DSRC else ["--nd", "400", "--nw", "2"]  # 400 opponent nodes
    assert main(["verify", *sizes, "--player", player, "--tau-opp", tau_opp]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message) and captured.err.count("\n") == 1


def test_verify_scans_once_per_player_and_cell(monkeypatch, capsys):
    calls = []
    real = cli.verify_quasiconcavity

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "verify_quasiconcavity", counting)
    code, out = run_cli(["verify", "--nd", "1,2,5", "--nw", "1,2,5"], capsys)
    assert code == 0 and len(parse_csv(out)[1]) == 162
    assert len(calls) == 18


@pytest.mark.parametrize("argv", [
    ["--nd", "1,2,5", "--nw", "1,2,5", "--preset", "costed"],
    ["--player", "dsrc", "--nd", "400", "--nw", "2"],  # the own (1-tau_d)^400 underflows above tau_d ~ 0.83
], ids=["costed-catalog", "dsrc-400"])
def test_verify_prints_no_warning(argv):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "csma_game.cli", "verify", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_wifi_scan_of_a_tiny_slope_counts_its_sign_change(capsys):
    # the zero-cost slope carries the factor (1-0.3)^100 ~ 3e-16, yet no entry is zero
    code, out = run_cli(["verify", "--player", "wifi", "--nd", "100", "--nw", "2", "--tau-opp", "0.3"], capsys)
    assert code == 0
    (row,) = parse_csv(out)[1]
    assert (row["sign_changes"], row["pattern_ok"]) == ("1", "true")


@pytest.mark.parametrize("nd, nw, player", [("2", "0", "wifi"), ("0", "2", "dsrc")], ids=["wifi", "dsrc"])
def test_verify_rejects_a_scanned_network_without_nodes(nd, nw, player, capsys):
    assert main(["verify", "--nd", nd, "--nw", nw, "--player", player]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the scanned {player} network has no nodes\n"


def test_verify_scans_a_lone_network_against_an_absent_opponent(capsys):
    code, out = run_cli(["verify", "--nd", "2", "--nw", "0", "--player", "dsrc"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 9
    assert {(r["sign_changes"], r["pattern_ok"], r["alpha2_root"]) for r in rows} == {("1", "true", "0.0306386")}


@pytest.mark.parametrize("kind, n, code, out", [
    ("dsrc", "2000", 0, "kind,n,tau_star,value\ndsrc,2000,0.01,5.31716e+10\n"),
    ("dsrc", "100000", 2, ""),
    ("wifi", "100000", 2, ""),  # its throughput, about 1e-439, underflows to 0
], ids=["finite", "overflowing", "wifi-underflowing"])
def test_large_lone_network_optimum_prints_no_warning(kind, n, code, out):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["optimum", "--kind", kind, "--n", n]
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "csma_game.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (code, out)
    if code == 0:
        assert proc.stderr == ""
    else:
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

"""Command-line front end.

Subcommands: ``metrics`` (age/throughput curves over one strategy axis),
``nash``/``sweep`` (equilibrium enumeration for one cell or crossed node
counts and weight pairs), ``stackelberg``, ``optimum`` (lone-network
optima), ``verify`` (derivative sign scans), and ``simulate`` (Monte Carlo
with analytic reference columns). Output is CSV or JSON with numbers at 6
significant digits and deterministic row order, so identical invocations
produce byte-identical files.

Option values resolve as: explicit flag > --preset > --config file >
built-in default. Exit codes: 0 success, 1 configuration error, 2 runtime
error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import product
from pathlib import Path

import numpy as np

from .analysis import verify_quasiconcavity
from .equilibrium import enumerate_nash, single_network_optimum, solve_stackelberg
from .game import GridSpec, build_surfaces, rescale_age, rescale_age_per_opponent
from .metrics import (
    _aoi_expr,
    _throughput_expr,
    aoi_node,
    inter_update_moments,
    per_node_throughput,
)
from .model import DSRC, WIFI, AccessVector, NetworkConfig, StrategyPair, _Axis
from .simulate import NoProgressError, SimConfig, run_simulation


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise ConfigError(message)


_DEFAULTS = {
    "nd": "1",
    "nw": "1",
    "beta": "0.001",
    "w_idle": "0",
    "w_col": "0",
    "grid_lo": "0.01",
    "grid_hi": "0.99",
    "grid_step": "0.01",
    "leader": "both",
    "seed": "0",
    "horizon": "1000000",
    "warmup": None,
    "format": "csv",
    "out": None,
    "tau_d": None,
    "tau_w": None,
    "eps_tie": "0",
    "kind": "both",
    "n": "2",
    "player": "both",
    "tau_opp": "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
    "scan_step": "0.001",
    "rescale": "range",
}

# Named weight presets; the costed one tracks the resolved beta.
_PRESETS = ("nocost", "costed", "nudge150", "nudge400")

_SHARED_FLAGS = (
    "nd", "nw", "beta", "w_idle", "w_col", "grid_lo", "grid_hi", "grid_step",
    "format", "out", "preset", "config",
)

_COMMAND_FLAGS = {
    "metrics": _SHARED_FLAGS + ("tau_d", "tau_w"),
    "nash": _SHARED_FLAGS + ("eps_tie", "rescale"),
    "sweep": _SHARED_FLAGS + ("eps_tie", "rescale"),
    "stackelberg": _SHARED_FLAGS + ("eps_tie", "rescale", "leader"),
    "optimum": _SHARED_FLAGS + ("kind", "n"),
    "verify": _SHARED_FLAGS + ("player", "tau_opp", "scan_step"),
    "simulate": _SHARED_FLAGS + ("tau_d", "tau_w", "seed", "horizon", "warmup"),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="csma-game", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, flags in _COMMAND_FLAGS.items():
        p = sub.add_parser(command, add_help=True)
        for flag in flags:
            p.add_argument("--" + flag.replace("_", "-"), dest=flag, default=None)
    return parser


def _as_int(field, raw):
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"invalid value for {field}: {raw!r} (expected an integer)")


def _as_float(field, raw):
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"invalid value for {field}: {raw!r} (expected a number)")


def _as_choice(field, raw, choices):
    if raw not in choices:
        raise ConfigError(f"invalid value for {field}: {raw!r} (expected one of {', '.join(choices)})")
    return raw


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        for sep in ("=", ":"):
            if sep in stripped:
                key, _, raw = stripped.partition(sep)
                break
        else:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key = key.strip().replace("-", "_")
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = raw.strip()
    return values


class _Options:
    """Raw option strings with flag > preset > file > default precedence."""

    def __init__(self, args: argparse.Namespace):
        self._flags = {k: v for k, v in vars(args).items() if k not in ("command", "config", "preset")}
        self._file = _load_config_file(args.config) if getattr(args, "config", None) else {}
        self._preset: dict[str, str] = {}
        preset = getattr(args, "preset", None)
        if preset is not None:
            _as_choice("preset", preset, _PRESETS)
            beta = self.float("beta")
            weights = {
                "nocost": ("0", "0"),
                "costed": (repr(beta), repr(1.0 + beta)),
                "nudge150": ("0.001", "150"),
                "nudge400": ("0.001", "400"),
            }[preset]
            self._preset = {"w_idle": weights[0], "w_col": weights[1]}

    def raw(self, field):
        value = self._flags.get(field)
        if value is None:
            value = self._preset.get(field)
        if value is None:
            value = self._file.get(field)
        if value is None:
            value = _DEFAULTS[field]
        return value

    # An option whose default is None stays None when it is not given.

    def int(self, field):
        raw = self.raw(field)
        return None if raw is None else _as_int(field, raw)

    def float(self, field):
        raw = self.raw(field)
        return None if raw is None else _as_float(field, raw)

    def int_list(self, field):
        return tuple(_as_int(field, part) for part in str(self.raw(field)).split(","))

    def float_list(self, field):
        return tuple(_as_float(field, part) for part in str(self.raw(field)).split(","))

    def choice(self, field, choices):
        return _as_choice(field, self.raw(field), choices)


def _grid(opt: _Options) -> GridSpec:
    return GridSpec(lo=opt.float("grid_lo"), hi=opt.float("grid_hi"), step=opt.float("grid_step"))


def _network(opt: _Options, nd: int, nw: int, w_idle: float | None = None, w_col: float | None = None) -> NetworkConfig:
    return NetworkConfig(
        n_dsrc=nd,
        n_wifi=nw,
        beta=opt.float("beta"),
        w_idle=opt.float("w_idle") if w_idle is None else w_idle,
        w_col=opt.float("w_col") if w_col is None else w_col,
    )


def _rescale_fn(opt: _Options):
    name = opt.choice("rescale", ("range", "per-opponent"))
    return rescale_age if name == "range" else rescale_age_per_opponent


# Each handler returns a header and rows of values in header order.

_NASH_COLUMNS = ["tau_d", "tau_w", "age", "throughput", "u_dsrc", "u_wifi"]


def _nash_rows(config: NetworkConfig, grid: GridSpec, eps_tie: float, rescale, prefix: tuple) -> list[tuple]:
    surfaces = build_surfaces(config, grid, rescale=rescale)
    return [
        prefix + (r.pair.tau_d, r.pair.tau_w, r.age, r.throughput, r.payoff_dsrc, r.payoff_wifi)
        for r in enumerate_nash(surfaces, eps_tie=eps_tie)
    ]


def _run_nash(opt: _Options):
    config = _network(opt, opt.int("nd"), opt.int("nw"))
    rows = _nash_rows(
        config, _grid(opt), opt.float("eps_tie"), _rescale_fn(opt), (config.n_dsrc, config.n_wifi)
    )
    return ["nd", "nw"] + _NASH_COLUMNS, rows


def _run_sweep(opt: _Options):
    nd_list = opt.int_list("nd")
    nw_list = opt.int_list("nw")
    w_idle_list = opt.float_list("w_idle")
    w_col_list = opt.float_list("w_col")
    if len(w_idle_list) != len(w_col_list):
        raise ConfigError("w_idle and w_col must list the same number of values (weights are paired)")
    grid = _grid(opt)
    eps = opt.float("eps_tie")
    rescale = _rescale_fn(opt)
    rows = []
    cells = sorted(product(nd_list, nw_list, zip(w_idle_list, w_col_list)))
    for nd, nw, (w_idle, w_col) in cells:
        config = _network(opt, nd, nw, w_idle=w_idle, w_col=w_col)
        rows.extend(_nash_rows(config, grid, eps, rescale, (nd, nw, w_idle, w_col)))
    return ["nd", "nw", "w_idle", "w_col"] + _NASH_COLUMNS, rows


def _run_stackelberg(opt: _Options):
    leader = opt.choice("leader", (DSRC, WIFI, "both"))
    leaders = (DSRC, WIFI) if leader == "both" else (leader,)
    grid = _grid(opt)
    eps = opt.float("eps_tie")
    rescale = _rescale_fn(opt)
    rows = []
    for lead in leaders:
        for nd, nw in sorted(product(opt.int_list("nd"), opt.int_list("nw"))):
            surfaces = build_surfaces(_network(opt, nd, nw), grid, rescale=rescale)
            res = solve_stackelberg(lead, surfaces, eps_tie=eps)
            rows.append((lead, nd, nw, res.pair.tau_d, res.pair.tau_w, res.age, res.throughput,
                         res.leader_guaranteed_payoff))
    return ["leader", "nd", "nw", "tau_d", "tau_w", "age", "throughput", "leader_payoff"], rows


def _run_optimum(opt: _Options):
    kind = opt.choice("kind", (DSRC, WIFI, "both"))
    kinds = (DSRC, WIFI) if kind == "both" else (kind,)
    grid = _grid(opt)
    beta = opt.float("beta")
    rows = []
    for k in kinds:
        for n in sorted(opt.int_list("n")):
            res = single_network_optimum(k, n, beta, grid=grid)
            rows.append((k, n, res.tau_star, res.value))
    return ["kind", "n", "tau_star", "value"], rows


def _run_metrics(opt: _Options):
    tau_d = opt.float("tau_d")
    tau_w = opt.float("tau_w")
    if (tau_d is None) == (tau_w is None):
        raise ConfigError("metrics needs exactly one fixed strategy: give --tau-d or --tau-w")
    config = _network(opt, opt.int("nd"), opt.int("nw"))
    pts = _grid(opt).points()
    if tau_w is not None:
        td, tw = pts, np.full_like(pts, tau_w)
    else:
        td, tw = np.full_like(pts, tau_d), pts
    d, w = _Axis(td, config.n_dsrc), _Axis(tw, config.n_wifi)
    # A missing age is NaN, which renders as an empty cell.
    has_age = config.n_dsrc >= 1 and bool((td > 0.0).all())
    ages = _aoi_expr(d, w, config.beta) if has_age else np.full_like(pts, np.nan)
    thrs = _throughput_expr(d, w, config.beta) if config.n_wifi >= 1 else np.zeros_like(pts)
    return ["tau_d", "tau_w", "age", "throughput"], list(zip(td, tw, ages, thrs))


def _run_verify(opt: _Options):
    player = opt.choice("player", (DSRC, WIFI, "both"))
    players = (DSRC, WIFI) if player == "both" else (player,)
    step = opt.float("scan_step")
    scan = GridSpec(lo=step, hi=1.0 - step, step=step)
    rows = []
    for ply in players:
        for nd, nw in sorted(product(opt.int_list("nd"), opt.int_list("nw"))):
            config = _network(opt, nd, nw)
            for tau in opt.float_list("tau_opp"):
                rep = verify_quasiconcavity(ply, config, tau, scan=scan)
                rows.append((ply, nd, nw, config.beta, config.w_idle, config.w_col, tau,
                             rep.sign_change_count, rep.sign_pattern_ok, rep.tau_prime_bound, rep.alpha2_root))
    header = ["player", "nd", "nw", "beta", "w_idle", "w_col", "tau_opponent",
              "sign_changes", "pattern_ok", "tau_prime_bound", "alpha2_root"]
    return header, rows


def _run_simulate(opt: _Options):
    config = _network(opt, opt.int("nd"), opt.int("nw"))
    pair = StrategyPair(tau_d=opt.float("tau_d") or 0.0, tau_w=opt.float("tau_w") or 0.0)
    vector = AccessVector.homogeneous(config, pair)
    sim = SimConfig(
        horizon_slots=opt.int("horizon"),
        seed=opt.int("seed"),
        warmup_slots=opt.int("warmup"),
    )
    lengths = config.slot_lengths()
    res = run_simulation(vector, lengths, sim)
    fractions = tuple(res.slot_fractions())
    rows = []
    for i, (tau, tag) in enumerate(zip(vector.taus, vector.tags)):
        age = ez = ez2 = None
        if tau > 0.0:
            moments = inter_update_moments(vector, lengths, i)
            age, ez, ez2 = aoi_node(vector, lengths, i), moments.first, moments.second
        rows.append((
            i, tag, tau,
            res.age[i], res.age_se[i], age,
            res.throughput[i], res.throughput_se[i], per_node_throughput(vector, lengths, i),
            res.inter_update_mean[i], res.inter_update_mean_se[i], ez,
            res.inter_update_sq_mean[i], res.inter_update_sq_mean_se[i], ez2,
            res.update_counts[i],
        ) + fractions)
    header = ["node", "network", "tau",
              "age_sim", "age_se", "age_analytic",
              "throughput_sim", "throughput_se", "throughput_analytic",
              "ez_sim", "ez_se", "ez_analytic",
              "ez2_sim", "ez2_se", "ez2_analytic",
              "updates", "frac_idle", "frac_success", "frac_collision"]
    return header, rows


_HANDLERS = {
    "metrics": _run_metrics,
    "nash": _run_nash,
    "sweep": _run_sweep,
    "stackelberg": _run_stackelberg,
    "optimum": _run_optimum,
    "verify": _run_verify,
    "simulate": _run_simulate,
}


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return "" if math.isnan(value) else f"{value:.6g}"
    return str(value)


def _json_cell(value):
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, float):
        return None if math.isnan(value) else float(f"{value:.6g}")
    return value


def _render(header: list[str], rows: list[tuple], fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(map(_csv_cell, row)) for row in rows]
        return "\n".join(lines) + "\n"
    records = [dict(zip(header, map(_json_cell, row))) for row in rows]
    return json.dumps(records, indent=2) + "\n"


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        opt = _Options(args)
        fmt = opt.choice("format", ("csv", "json"))
        out = opt.raw("out")
        header, rows = _HANDLERS[args.command](opt)
        text = _render(header, rows, fmt)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NoProgressError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if out is None:
            sys.stdout.write(text)
        else:
            Path(out).write_text(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 2
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

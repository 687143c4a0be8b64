"""Command-line front end.

Subcommands: ``metrics`` (age/throughput curves over one strategy axis),
``nash``/``sweep`` (equilibrium enumeration for one cell or crossed node
counts and weight pairs), ``stackelberg``, ``optimum`` (lone-network
optima), ``verify`` (derivative sign scans), and ``simulate`` (Monte Carlo
with analytic reference columns). Output is CSV or JSON with numbers at 6
significant digits and deterministic row order, so identical invocations
produce byte-identical files.

Each subcommand accepts only the flags it reads; ``csma-game <subcommand>
--help`` lists them. Option values resolve as: explicit flag > --preset >
--config file > built-in default. The config file holds ``key = value``
lines keyed by flag name, and a key the subcommand does not read is
ignored. Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import ChainMap
from functools import lru_cache
from itertools import product
from pathlib import Path

import numpy as np

from .analysis import verify_quasiconcavity
from .equilibrium import enumerate_nash, single_network_optimum, solve_stackelberg
from .game import GridSpec, build_surfaces, rescale_age, rescale_age_per_opponent
from .metrics import _aoi_expr, _throughput_expr, aoi_node, inter_update_moments, per_node_throughput
from .model import DSRC, WIFI, AccessVector, NetworkConfig, StrategyPair, _Axis, _Cells
from .simulate import NoProgressError, SimConfig, run_simulation


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise ConfigError(message)


# Built-in defaults, keyed like the config file: one file may serve several subcommands.
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
    "kind": "both",
    "n": "2",
    "player": "both",
    "tau_opp": "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
    "scan_step": "0.001",
    "rescale": "range",
}

# Each preset's weights (w_idle, w_col) from the resolved beta, which only the costed one reads.
_PRESETS = {
    "nocost": lambda beta: ("0", "0"),
    "costed": lambda beta: (repr(beta), repr(1.0 + beta)),
    "nudge150": lambda beta: ("0.001", "150"),
    "nudge400": lambda beta: ("0.001", "400"),
}

@lru_cache(maxsize=None)
def _parser(command: str | None) -> _Parser:
    """One parser of the subcommand and, if ``command`` names one, of its flags; built once per process.

    With a subcommand, help reads as that subcommand's own, with its name in the usage line.
    """
    parser = _Parser(prog="csma-game" if command is None else f"csma-game {command}",
                     description=__doc__ if command is None else None)
    parser.add_argument("command", choices=_COMMANDS, help=argparse.SUPPRESS if command else None)
    for flag in _COMMANDS[command][1] if command else ():
        parser.add_argument("--" + flag.replace("_", "-"), dest=flag)
    return parser


def _as_number(field, raw, kind):
    try:
        return kind(raw)
    except (TypeError, ValueError):
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"invalid value for {field}: {raw!r} (expected {expected})")


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
        key, sep, raw = stripped.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key = key.strip().replace("-", "_")
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = raw.strip()
    return values


class _Options:
    """Raw option strings, looked up in one ChainMap: flag > preset > file > default."""

    def __init__(self, args: argparse.Namespace):
        flags = {k: v for k, v in vars(args).items() if v is not None and k not in ("command", "config", "preset")}
        file = _load_config_file(args.config) if args.config else {}
        self._values = ChainMap(flags, {}, file, _DEFAULTS)  # maps[1] holds the preset's weights
        preset = getattr(args, "preset", None)
        if preset is not None:
            weights = _PRESETS[_as_choice("preset", preset, _PRESETS)](self.number("beta"))
            self._values.maps[1].update(zip(("w_idle", "w_col"), weights))

    def raw(self, field):
        return self._values[field]

    def number(self, field, kind=float):
        """The option as ``kind`` (int or float); an option whose default is None stays None."""
        raw = self.raw(field)
        return None if raw is None else _as_number(field, raw, kind)

    def numbers(self, field, kind=float):
        return tuple(_as_number(field, part, kind) for part in str(self.raw(field)).split(","))

    def choice(self, field, choices):
        return _as_choice(field, self.raw(field), choices)


def _grid(opt: _Options) -> GridSpec:
    return GridSpec(lo=opt.number("grid_lo"), hi=opt.number("grid_hi"), step=opt.number("grid_step"))


def _players(opt: _Options, field: str) -> tuple[str, ...]:
    """The players that ``--leader``, ``--kind`` or ``--player`` names: dsrc, wifi or both."""
    player = opt.choice(field, (DSRC, WIFI, "both"))
    return (DSRC, WIFI) if player == "both" else (player,)


def _games(opt: _Options, lists=("nd", "nw")) -> list[NetworkConfig]:
    """The invocation's distinct games, sorted: nd x nw x (w_idle, w_col) pairs. The fields in ``lists``
    take comma lists, the others one value."""
    fields = {"nd": int, "nw": int, "beta": float, "w_idle": float, "w_col": float}
    nd, nw, (beta,), w_idle, w_col = (opt.numbers(field, kind) if field in lists else (opt.number(field, kind),)
                                      for field, kind in fields.items())
    if len(w_idle) != len(w_col):
        raise ConfigError("w_idle and w_col must list the same number of values (weights are paired)")
    return [NetworkConfig(d, w, beta, *weights) for d, w, weights in sorted(set(product(nd, nw, zip(w_idle, w_col))))]


def _game_rows(opt: _Options, games: list[NetworkConfig], rows_of) -> list[tuple]:
    """Each game's rows ``rows_of(config, surfaces)``, in turn. A game's surfaces live only for its call,
    so none is alive while the next game's are built."""
    grid = _grid(opt)
    rescale = rescale_age if opt.choice("rescale", ("range", "per-opponent")) == "range" else rescale_age_per_opponent
    return [row for config in games for row in rows_of(config, build_surfaces(config, grid, rescale=rescale))]


# Each handler returns a header and rows of values in header order.


def _run_nash(opt: _Options, sweep: bool = False):
    """One game's equilibria, or with ``sweep`` those of every listed game with its weights in each row."""
    prefix = ["nd", "nw", "w_idle", "w_col"] if sweep else ["nd", "nw"]  # a sweep lists each of its four fields

    def rows_of(config, surfaces):
        game = (config.n_dsrc, config.n_wifi, config.w_idle, config.w_col)[:len(prefix)]
        return [game + (r.pair.tau_d, r.pair.tau_w, r.age, r.throughput, r.payoff_dsrc, r.payoff_wifi)
                for r in enumerate_nash(surfaces)]

    rows = _game_rows(opt, _games(opt, prefix if sweep else ()), rows_of)
    return prefix + ["tau_d", "tau_w", "age", "throughput", "u_dsrc", "u_wifi"], rows


def _run_stackelberg(opt: _Options):
    leaders = _players(opt, "leader")

    def rows_of(config, surfaces):
        results = [(lead, solve_stackelberg(lead, surfaces)) for lead in leaders]
        return [(lead, config.n_dsrc, config.n_wifi, res.pair.tau_d, res.pair.tau_w, res.age, res.throughput,
                 res.leader_guaranteed_payoff) for lead, res in results]

    rows = _game_rows(opt, _games(opt), rows_of)
    rows.sort(key=lambda row: leaders.index(row[0]))  # printed leader by leader; a stable sort keeps the games' order
    return ["leader", "nd", "nw", "tau_d", "tau_w", "age", "throughput", "leader_payoff"], rows


def _run_optimum(opt: _Options):
    kinds = _players(opt, "kind")
    grid = _grid(opt)
    beta = opt.number("beta")
    rows = []
    for k, n in product(kinds, sorted(set(opt.numbers("n", int)))):
        res = single_network_optimum(k, n, beta, grid=grid)
        rows.append((k, n, res.tau_star, res.value))
    return ["kind", "n", "tau_star", "value"], rows


def _run_metrics(opt: _Options):
    tau_d = opt.number("tau_d")
    tau_w = opt.number("tau_w")
    if (tau_d is None) == (tau_w is None):
        raise ConfigError("metrics needs exactly one fixed strategy: give --tau-d or --tau-w")
    StrategyPair(tau_d=tau_d or 0.0, tau_w=tau_w or 0.0)  # rejects a fixed strategy outside [0, 1)
    config = NetworkConfig(opt.number("nd", int), opt.number("nw", int), opt.number("beta"))
    pts = _grid(opt).points()
    if tau_w is not None:
        td, tw = pts, np.full_like(pts, tau_w)
    else:
        td, tw = np.full_like(pts, tau_d), pts
    cells = _Cells(_Axis(td, config.n_dsrc), _Axis(tw, config.n_wifi), config.beta)
    # A missing age is NaN, which renders as an empty cell.
    has_age = config.n_dsrc >= 1 and bool((td > 0.0).all())
    with np.errstate(divide="ignore", over="ignore"):  # (1-tau)^n underflows at large n: the age is +inf, raised below
        ages = _aoi_expr(cells) if has_age else np.full_like(pts, np.nan)
        thrs = _throughput_expr(cells) if config.n_wifi >= 1 else np.zeros_like(pts)
    if has_age and not np.isfinite(ages).all():  # a throughput is finite, as every slot lasts at least beta
        raise FloatingPointError(f"{np.count_nonzero(~np.isfinite(ages))} of {ages.size} ages are not finite, as when "
                                 "(1-tau)^n underflows for large node counts")
    # Rows of Python floats, which format faster than numpy scalars.
    rows = zip(td.tolist(), tw.tolist(), ages.tolist(), thrs.tolist())
    return ["tau_d", "tau_w", "age", "throughput"], list(rows)


def _run_verify(opt: _Options):
    players = _players(opt, "player")
    step = opt.number("scan_step")
    games = _games(opt)
    taus = opt.numbers("tau_opp")
    rows = []
    for ply, config in product(players, games):  # one scan per player and cell, over every opponent value
        for tau, rep in zip(taus, verify_quasiconcavity(ply, config, taus, step)):
            rows.append((ply, config.n_dsrc, config.n_wifi, config.beta, config.w_idle, config.w_col, tau,
                         rep.sign_change_count, rep.sign_pattern_ok, rep.tau_prime_bound, rep.alpha2_root))
    header = ["player", "nd", "nw", "beta", "w_idle", "w_col", "tau_opponent",
              "sign_changes", "pattern_ok", "tau_prime_bound", "alpha2_root"]
    return header, rows


def _run_simulate(opt: _Options):
    config = NetworkConfig(opt.number("nd", int), opt.number("nw", int), opt.number("beta"))
    pair = StrategyPair(tau_d=opt.number("tau_d") or 0.0, tau_w=opt.number("tau_w") or 0.0)
    vector = AccessVector.homogeneous(config, pair)
    sim = SimConfig(
        horizon_slots=opt.number("horizon", int),
        seed=opt.number("seed", int),
        warmup_slots=opt.number("warmup", int),
    )
    lengths = config.slot_lengths()
    res = run_simulation(vector, lengths, sim)
    fractions = tuple(res.slot_fractions())
    rows = []
    for i, (tau, tag) in enumerate(zip(vector.taus, vector.tags)):
        age = ez = ez2 = None  # a node that never sends has no age or inter-update time
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


# Each subcommand's handler and the option fields it reads, in --help order; --preset sets the
# weights, so it goes with them. The key order is the bare parser's choices line.
_GAME_FLAGS = ("nd", "nw", "beta", "w_idle", "w_col", "grid_lo", "grid_hi", "grid_step", "format", "out", "preset",
               "config", "rescale")
_COMMANDS = {
    "metrics": (_run_metrics, ("nd", "nw", "beta", "grid_lo", "grid_hi", "grid_step", "format", "out", "config",
                               "tau_d", "tau_w")),
    "nash": (_run_nash, _GAME_FLAGS),
    "sweep": (lambda opt: _run_nash(opt, sweep=True), _GAME_FLAGS),
    "stackelberg": (_run_stackelberg, _GAME_FLAGS + ("leader",)),
    "optimum": (_run_optimum, ("beta", "grid_lo", "grid_hi", "grid_step", "format", "out", "config", "kind", "n")),
    "verify": (_run_verify, ("nd", "nw", "beta", "w_idle", "w_col", "format", "out", "preset", "config",
                             "player", "tau_opp", "scan_step")),
    "simulate": (_run_simulate, ("nd", "nw", "beta", "format", "out", "config",
                                 "tau_d", "tau_w", "seed", "horizon", "warmup")),
}


def _cell(value, as_text: bool):
    """A row value as CSV text or as a JSON value: None and NaN are missing, floats have 6 digits
    and a signed zero prints as 0."""
    if isinstance(value, float) and not math.isnan(value):
        text = f"{value + 0.0:.6g}"
        return text if as_text else float(text)
    if value is None or isinstance(value, float):  # missing, or NaN
        return "" if as_text else None
    if isinstance(value, bool):
        return ("true" if value else "false") if as_text else value
    if isinstance(value, (int, np.integer)):
        value = int(value)
    return str(value) if as_text else value


def _render(header: list[str], rows: list[tuple], fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(header)] + [",".join([_cell(v, True) for v in row]) for row in rows]
        return "\n".join(lines) + "\n"
    records = [dict(zip(header, [_cell(v, False) for v in row])) for row in rows]
    return json.dumps(records, indent=2) + "\n"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
        opt = _Options(args)
        fmt = opt.choice("format", ("csv", "json"))
        out = opt.raw("out")
        header, rows = _COMMANDS[args.command][0](opt)
        text = _render(header, rows, fmt)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NoProgressError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the size, as for a grid too fine to hold
        print(f"error: out of memory: {exc}", file=sys.stderr)
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

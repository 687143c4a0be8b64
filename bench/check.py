"""Check one run's outputs against the independent reference (``reference.py``).

Reads the first round's outputs that ``worker.py`` wrote, rebuilds the
workload's inputs from the seed, and prints one JSON object:
``{"failed": [...], "problems": [...]}``. This process never imports the
program.

An operation *failed* when it raised, exited non-zero, returned no
equilibrium where the reference has one, or returned a non-finite value
where the reference value is finite. Failed operations are not checked
further. Any other disagreement with the reference is a *problem*, which
makes the run incorrect.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from itertools import product
from pathlib import Path

import numpy as np

import inputs
import reference as ref

# Family-wise false-alarm rate of all Monte Carlo comparisons in one run.
MC_ALPHA = 1e-6
# Batch-means standard errors: the simulator averages 100 batches.
BATCH_DF = 99


class Verdict:
    def __init__(self):
        self.failed = []
        self.problems = []
        self.mc = []  # (label, estimate, standard error, reference, degrees of freedom or None)
        self.mc_summary = {}

    def fail(self, label, why):
        self.failed.append(f"{label}: {why}")

    def wrong(self, label, why):
        self.problems.append(f"{label}: {why}")

    def finish_mc(self):
        """One Bonferroni-corrected bound for the whole family of Monte Carlo comparisons."""
        if not self.mc:
            return
        m = len(self.mc)
        bounds = {df: ref.bonferroni_bound(m, df, MC_ALPHA) for df in {e[4] for e in self.mc}}
        worst = 0.0
        for label, est, se, target, df in self.mc:
            if not (math.isfinite(est) and math.isfinite(se) and se > 0.0):
                self.wrong(label, f"estimate {est} with standard error {se} is unusable")
                continue
            z = (est - target) / se
            worst = max(worst, abs(z))
            if abs(z) > bounds[df]:
                self.wrong(label, f"estimate {est:.6g} is {z:+.2f} standard errors from {target:.6g} "
                                  f"(bound {bounds[df]:.2f} over {m} comparisons)")
        self.mc_summary = {"comparisons": m, "max_abs_z": worst,
                           "bounds": {"normal" if df is None else f"t{df}": b for df, b in bounds.items()}}

    def as_dict(self):
        return {"failed": self.failed, "problems": self.problems, "monte_carlo": self.mc_summary}


def load_ops(work: Path) -> list[dict]:
    ops = []
    for record in json.loads((work / "manifest.json").read_text()):
        payload = {}
        for key, field in record["fields"].items():
            payload[key] = np.load(work / field["npy"]) if "npy" in field else field["json"]
        ops.append({"label": record["label"], "payload": payload})
    return ops


def read_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


# --- CLI option handling, from the README's defaults and presets -------------

_DEFAULTS = {"beta": "0.001", "w_idle": "0", "w_col": "0", "grid_lo": "0.01", "grid_hi": "0.99",
             "grid_step": "0.01", "rescale": "range", "leader": "both", "kind": "both", "n": "2",
             "player": "both", "tau_opp": "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9", "scan_step": "0.001"}


def cli_options(argv: list[str]) -> dict:
    opts = dict(_DEFAULTS)
    for flag, value in zip(argv[1::2], argv[2::2]):
        opts[flag[2:].replace("-", "_")] = value
    if opts.get("preset") == "costed":
        beta = float(opts["beta"])
        explicit = set(f[2:].replace("-", "_") for f in argv[1::2])
        for key, value in (("w_idle", beta), ("w_col", 1.0 + beta)):
            if key not in explicit:
                opts[key] = repr(value)
    return opts


def floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def grid_of(opts: dict) -> tuple[float, float, float]:
    return float(opts["grid_lo"]), float(opts["grid_hi"]), float(opts["grid_step"])


def _printed(v: Verdict, label: str, row: dict, column: str, expected, **tol) -> None:
    if not ref.matches_printed(row[column], None if expected is None else float(expected), **tol):
        v.wrong(label, f"{column} printed {row[column]!r}, reference {expected!r}")


# --- games -------------------------------------------------------------------

def check_nash_rows(v, label, game, rows, *, printed):
    """rows: (tau_d, tau_w, age, throughput, u_dsrc, u_wifi), as text if printed."""
    loose, robust = game.nash_sets()
    seen = set()
    for row in rows:
        td, tw = float(row[0]), float(row[1])
        try:
            i, j = game.index(td), game.index(tw)
        except ValueError as exc:
            v.wrong(label, str(exc))
            continue
        seen.add((i, j))
        if not loose[i, j]:
            v.wrong(label, f"({td:g}, {tw:g}) is not a mutual best response")
            continue
        expected = (game.age[i, j], game.throughput[i, j], game.u_dsrc[i, j], game.u_wifi[i, j])
        for name, got, exp, atol in zip(("age", "throughput", "u_dsrc", "u_wifi"), row[2:], expected,
                                        (0.0, 0.0, 1e-13, 1e-13)):
            ok = ref.matches_printed(got, float(exp), atol=atol) if printed else ref.close(got, float(exp), atol=atol)
            if not ok:
                v.wrong(label, f"{name} at ({td:g}, {tw:g}) is {got}, reference {exp!r}")
    for i, j in zip(*np.nonzero(robust)):
        if (i, j) not in seen:
            v.wrong(label, f"missing equilibrium ({game.pts[i]:g}, {game.pts[j]:g})")


def check_stackelberg_point(v, label, game, leader, td, tw, age, thr, payoff, *, printed):
    try:
        i, j = game.index(float(td)), game.index(float(tw))
    except ValueError as exc:
        v.wrong(label, str(exc))
        return
    li, fj = (i, j) if leader == "dsrc" else (j, i)
    lead, follower, pess_lo, tol = game.stackelberg(leader)
    best = pess_lo.max()
    if not follower[li, fj]:
        v.wrong(label, f"reply at ({float(td):g}, {float(tw):g}) is not a follower best response")
        return
    if lead[li, fj] < best - tol:
        v.wrong(label, f"leader payoff {lead[li, fj]!r} at ({float(td):g}, {float(tw):g}) is below "
                       f"the max-min value {best!r}")
    for name, got, exp, atol in (("age", age, game.age[i, j], 0.0), ("throughput", thr, game.throughput[i, j], 0.0),
                                 ("leader payoff", payoff, lead[li, fj], tol)):
        ok = ref.matches_printed(got, float(exp), atol=atol) if printed else ref.close(got, float(exp), atol=atol)
        if not ok:
            v.wrong(label, f"{name} is {got}, reference {exp!r}")


def _game_for(opts, nd, nw, w_idle, w_col):
    return ref.Game(nd, nw, float(opts["beta"]), w_idle, w_col, opts["rescale"], grid_of(opts))


def check_sweep(v, label, argv, rows):
    opts = cli_options(argv)
    weights = list(zip(floats(opts["w_idle"]), floats(opts["w_col"])))
    matched = 0
    for nd, nw, (wi, wc) in sorted(product(ints(opts["nd"]), ints(opts["nw"]), weights)):
        game = _game_for(opts, nd, nw, wi, wc)
        mine = [r for r in rows if int(r["nd"]) == nd and int(r["nw"]) == nw
                and float(r["w_idle"]) == wi and float(r["w_col"]) == wc]
        matched += len(mine)
        fields = [[r[k] for k in ("tau_d", "tau_w", "age", "throughput", "u_dsrc", "u_wifi")] for r in mine]
        check_nash_rows(v, f"{label} [nd={nd} nw={nw} w={wi:g},{wc:g}]", game, fields, printed=True)
    if matched != len(rows):
        v.wrong(label, "rows for cells that were not requested")


def check_stackelberg_csv(v, label, argv, rows):
    opts = cli_options(argv)
    leaders = ("dsrc", "wifi") if opts["leader"] == "both" else (opts["leader"],)
    wi, wc = float(opts["w_idle"]), float(opts["w_col"])
    expected = [(lead, nd, nw) for lead in leaders for nd, nw in sorted(product(ints(opts["nd"]), ints(opts["nw"])))]
    got = [(r["leader"], int(r["nd"]), int(r["nw"])) for r in rows]
    if got != expected:
        v.wrong(label, f"rows {got} instead of {expected}")
        return
    games = {}
    for r, (lead, nd, nw) in zip(rows, expected):
        game = games.setdefault((nd, nw), _game_for(opts, nd, nw, wi, wc))
        check_stackelberg_point(v, f"{label} [{lead} leads, nd={nd} nw={nw}]", game, lead, r["tau_d"], r["tau_w"],
                                r["age"], r["throughput"], r["leader_payoff"], printed=True)


def check_optimum(v, label, argv, rows):
    opts = cli_options(argv)
    kinds = ("dsrc", "wifi") if opts["kind"] == "both" else (opts["kind"],)
    expected = [(k, n) for k in kinds for n in sorted(ints(opts["n"]))]
    if [(r["kind"], int(r["n"])) for r in rows] != expected:
        v.wrong(label, "rows do not list the requested kinds and sizes")
        return
    lo, hi, _ = grid_of(opts)
    for r, (kind, n) in zip(rows, expected):
        tau, value = ref.lone_optimum(kind, n, float(opts["beta"]), lo, hi)
        if abs(float(r["tau_star"]) - tau) > 2e-5:
            v.wrong(label, f"{kind} n={n}: tau_star {r['tau_star']}, reference {tau!r}")
        # The program refines tau* to 1e-5, which moves the optimal value at second order.
        _printed(v, f"{label} [{kind} n={n}]", r, "value", value, rtol=1e-6)


def check_metrics(v, label, argv, rows):
    opts = cli_options(argv)
    nd, nw, beta = int(opts["nd"]), int(opts["nw"]), float(opts["beta"])
    pts = ref.grid_points(*grid_of(opts))
    if len(rows) != pts.size:
        v.wrong(label, f"{len(rows)} rows for {pts.size} grid points")
        return
    if "--tau-w" in argv:
        td, tw = pts, np.full_like(pts, float(opts["tau_w"]))
    else:
        td, tw = np.full_like(pts, float(opts["tau_d"])), pts
    h = ref.homogeneous(nd, nw, beta, td, tw)
    age, thr = np.exp(h["log_age"]), np.exp(h["log_thr"])
    for k, r in enumerate(rows):
        for column, expected in (("tau_d", td[k]), ("tau_w", tw[k]), ("age", age[k]), ("throughput", thr[k])):
            _printed(v, f"{label} [row {k}]", r, column, expected)


def check_verify(v, label, argv, rows):
    opts = cli_options(argv)
    players = ("dsrc", "wifi") if opts["player"] == "both" else (opts["player"],)
    beta, wi, wc = float(opts["beta"]), float(opts["w_idle"]), float(opts["w_col"])
    step = float(opts["scan_step"])
    scan = ref.grid_points(step, 1.0 - step, step)
    expected = [(p, nd, nw, t) for p in players for nd, nw in sorted(product(ints(opts["nd"]), ints(opts["nw"])))
                for t in floats(opts["tau_opp"])]
    if [(r["player"], int(r["nd"]), int(r["nw"]), float(r["tau_opponent"])) for r in rows] != expected:
        v.wrong(label, "rows do not list the requested players, sizes and opponent values")
        return
    for r, (player, nd, nw, t) in zip(rows, expected):
        where = f"{label} [{player} nd={nd} nw={nw} opp={t:g}]"
        for column, value in (("beta", beta), ("w_idle", wi), ("w_col", wc)):
            _printed(v, where, r, column, value)
        slope = ref.negated_payoff_slope(player, nd, nw, beta, wi, wc, scan, t)
        changes, ok = ref.sign_changes(slope, atol=1e-12)
        if int(r["sign_changes"]) != changes or r["pattern_ok"] != ("true" if ok else "false"):
            v.wrong(where, f"sign scan {r['sign_changes']}/{r['pattern_ok']}, reference {changes}/{ok}")
        if player == "dsrc":
            _printed(v, where, r, "tau_prime_bound", ref.curvature_landmark(nd, beta))
            _printed(v, where, r, "alpha2_root", ref.update_rate_root(nd, beta, (1.0 - t) ** nw))
        else:
            _printed(v, where, r, "tau_prime_bound", None)
            _printed(v, where, r, "alpha2_root", None)


_CSV_CHECKS = {"sweep": check_sweep, "stackelberg": check_stackelberg_csv, "optimum": check_optimum,
               "metrics": check_metrics, "verify": check_verify}


def check_catalog(spec, ops, v):
    for argv, op in zip(spec["invocations"], ops):
        p = op["payload"]
        if p.get("error") or p["exit"] != 0:
            v.fail(op["label"], p.get("error") or f"exit code {p['exit']}")
            continue
        _CSV_CHECKS[argv[0]](v, op["label"], argv, read_csv(p["text"]))


def _surface_findings(game, p, atol):
    """(failures, problems) of one build: non-finite cells where the reference
    is finite make the operation fail; otherwise every cell is compared."""
    arrays = {name: (np.asarray(p[name], dtype=float), getattr(game, name))
              for name in ("age", "throughput", "cost", "age_rescaled")}
    for name, (got, exp) in arrays.items():
        if got.shape != exp.shape:
            return [], [f"{name} has shape {got.shape}, reference {exp.shape}"]
    failures = [f"{name} is non-finite in {int(n)} cells where the reference is finite"
                for name, (got, exp) in arrays.items()
                if (n := (~np.isfinite(got) & np.isfinite(exp)).sum())]
    if failures:
        return failures, []
    problems = []
    for name, (got, exp) in arrays.items():
        if (np.isfinite(got) != np.isfinite(exp)).any():
            problems.append(f"{name} is finite where the reference overflows")
        both = np.isfinite(got) & np.isfinite(exp)
        excess = np.abs(got[both] - exp[both]) - ref.RTOL * np.abs(exp[both]) - atol[name]
        if excess.size and excess.max() > 0.0:
            k = int(np.argmax(excess))
            problems.append(f"{name} differs from the reference in {int((excess > 0).sum())} cells "
                            f"(e.g. {got[both][k]!r} vs {exp[both][k]!r})")
    return failures, problems


def check_fine_grid(spec, ops, v):
    for g, group in zip(spec["games"], [ops[k:k + 4] for k in range(0, len(ops), 4)]):
        w_idle, w_col, rescale = inputs.game_weights(g)
        game = ref.Game(g["nd"], g["nw"], g["beta"], w_idle, w_col, rescale, g["grid"])
        build, nash, *stackelbergs = group
        p = build["payload"]
        if p.get("error"):
            v.fail(build["label"], p["error"])
        else:
            span = float(game.throughput.max() - game.throughput.min())
            atol = {"age": 0.0, "throughput": 1e-300, "cost": 1e-13 * (1.0 + w_col),
                    "age_rescaled": 1e-13 * span}
            failures, problems = _surface_findings(game, p, atol)
            for why in failures:
                v.fail(build["label"], why)
            for why in problems:
                v.wrong(build["label"], why)
        p = nash["payload"]
        loose, robust = game.nash_sets()
        if p.get("error"):
            v.fail(nash["label"], p["error"])
        elif not p["rows"] and robust.any():
            i, j = np.argwhere(robust)[0]
            v.fail(nash["label"], f"no equilibrium returned; the reference finds ({game.pts[i]:g}, {game.pts[j]:g})")
        else:
            check_nash_rows(v, nash["label"], game, p["rows"], printed=False)
        for op, leader in zip(stackelbergs, ("dsrc", "wifi")):
            p = op["payload"]
            if p.get("error"):
                v.fail(op["label"], p["error"])
            elif not all(math.isfinite(x) for x in (p["payoff"], p["throughput"])):
                v.fail(op["label"], f"non-finite result {p}")
            else:
                check_stackelberg_point(v, op["label"], game, leader, *p["pair"], p["age"], p["throughput"],
                                        p["payoff"], printed=False)


def check_general_route(spec, ops, v):
    for vec, op in zip(spec["vectors"], ops):
        p = op["payload"]
        if p.get("error"):
            v.fail(op["label"], p["error"])
            continue
        q = ref.node_quantities(vec["taus"], spec["beta"])
        for k, i in enumerate(vec["nodes"]):
            for name, key in (("age", "age"), ("throughput", "throughput"), ("ez", "ez"), ("ez2", "ez2")):
                if not ref.close(p[key][k], float(q[name][i])):
                    v.wrong(op["label"], f"node {i} {name} {p[key][k]!r}, reference {float(q[name][i])!r}")


def _slot_fraction_entries(v, label, counts, measured, q):
    for name, count in zip(("p_idle", "p_success", "p_collision"), counts):
        f = count / measured
        v.mc.append((f"{label} slot fraction {name}", f, math.sqrt(f * (1.0 - f) / measured), float(q[name]), None))


def check_simulate_csv(v, label, argv, text, beta, horizon):
    opts = cli_options(argv)
    nd, nw = int(opts["nd"]), int(opts["nw"])
    taus = [float(opts["tau_d"])] * nd + [float(opts["tau_w"])] * nw
    q = ref.node_quantities(taus, beta)
    rows = read_csv(text)
    if [int(r["node"]) for r in rows] != list(range(nd + nw)):
        v.wrong(label, "rows do not list every node")
        return
    for i, r in enumerate(rows):
        where = f"{label} [node {i}]"
        for name, key in (("age", "age"), ("throughput", "throughput"), ("ez", "ez"), ("ez2", "ez2")):
            _printed(v, where, r, f"{key}_analytic", float(q[name][i]))
            v.mc.append((f"{where} {key}", float(r[f"{key}_sim"]), float(r[f"{key}_se"]), float(q[name][i]),
                         BATCH_DF if key in ("age", "throughput") else None))
        if int(r["updates"]) < 2:
            v.wrong(where, f"only {r['updates']} updates")
    measured = horizon - horizon // 100
    fractions = [float(rows[0][k]) for k in ("frac_idle", "frac_success", "frac_collision")]
    _slot_fraction_entries(v, label, [f * measured for f in fractions], measured, q)


def check_simulation(v, label, vec, p, beta, horizon):
    q = ref.node_quantities(vec["taus"], beta)
    idle, success, collision, measured = p["slots"]
    if idle + success + collision != measured or measured != horizon - horizon // 100:
        v.wrong(label, f"slot counts {p['slots']} do not add up")
        return
    _slot_fraction_entries(v, label, (idle, success, collision), measured, q)
    for i in range(len(vec["taus"])):
        for name, key in (("age", "age"), ("throughput", "throughput"), ("ez", "ez"), ("ez2", "ez2")):
            v.mc.append((f"{label} [node {i}] {key}", float(p[key][i]), float(p[f"{key}_se"][i]),
                         float(q[name][i]), BATCH_DF if key in ("age", "throughput") else None))


def _check_cli_simulate(spec, op, v):
    p = op["payload"]
    if p.get("error") or p["exit"] != 0:
        v.fail(op["label"], p.get("error") or f"exit code {p['exit']}")
        return
    argv = inputs.simulate_argv(spec["cli"], spec["beta"], spec["horizon"])
    check_simulate_csv(v, op["label"], argv, p["text"], spec["beta"], spec["horizon"])


def check_oracle(spec, ops, v):
    _check_cli_simulate(spec, ops[0], v)
    for vec, op in zip(spec["vectors"], ops[1:]):
        if op["payload"].get("error"):
            v.fail(op["label"], op["payload"]["error"])
            continue
        check_simulation(v, op["label"], vec, op["payload"], spec["beta"], spec["horizon"])


def check_crowd(spec, ops, v):
    _check_cli_simulate(spec, ops[0], v)


CHECKS = {
    "catalog": check_catalog,
    "fine_grid": check_fine_grid,
    "general_route": check_general_route,
    "oracle": check_oracle,
    "crowd": check_crowd,
}


def check(workload: str, spec: dict, ops: list[dict]) -> Verdict:
    v = Verdict()
    with np.errstate(over="ignore", under="ignore"):
        CHECKS[workload](spec, ops, v)
    v.finish_mc()
    return v


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    args = ap.parse_args(argv)
    verdict = check(args.workload, inputs.make(args.workload, args.seed), load_ops(args.work))
    print(json.dumps(verdict.as_dict()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

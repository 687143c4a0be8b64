"""Run one workload in this fresh process and time it.

Imports the program from ``src/`` of the checkout, generates the workload's
inputs from the seed, and runs whole rounds of the same operations until the
measuring time is up. Each round's wall time is the sum of its operations'
call times; collecting and fingerprinting outputs is not timed. The first
round's outputs are written to the work directory for ``check.py``; every
later round must reproduce them bit for bit. The reported round time is the
best round: the sum over operations of each operation's fastest call in the
run. Other tenants of a shared machine slow the CPU in stretches of seconds
to minutes; an operation needs only one call in a quiet stretch to count at
full speed, so this figure repeats between runs better than the fastest
whole round.

With ``--trace 1``, rounds alternate untraced and traced (see ``tracer.py``)
so that the tracing overhead is measured in one process.

``--setup-only`` stops after the import and input generation; ``run.py``
times such processes for ``setup_s``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import types
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent


def import_program() -> float:
    """Import csma_game from this checkout's src/; returns the import time in ms."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import csma_game
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    if not Path(csma_game.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"csma_game was imported from {csma_game.__file__}, not from {src}")
    return elapsed_ms


def program_api() -> types.SimpleNamespace:
    """The names the benchmark calls, looked up at call time so tracing can wrap them."""
    from csma_game import cli, equilibrium, game, metrics, model, simulate

    return types.SimpleNamespace(
        main=cli.main,
        build_surfaces=game.build_surfaces,
        rescale_age=game.rescale_age,
        rescale_age_per_opponent=game.rescale_age_per_opponent,
        enumerate_nash=equilibrium.enumerate_nash,
        solve_stackelberg=equilibrium.solve_stackelberg,
        aoi_node=metrics.aoi_node,
        per_node_throughput=metrics.per_node_throughput,
        inter_update_moments=metrics.inter_update_moments,
        run_simulation=simulate.run_simulation,
        NetworkConfig=model.NetworkConfig,
        GridSpec=game.GridSpec,
        AccessVector=model.AccessVector,
        SlotLengths=model.SlotLengths,
        SimConfig=simulate.SimConfig,
    )


class Op:
    """One operation: ``call`` is timed, ``collect`` turns its result into a payload.

    A payload maps field names to numpy arrays or JSON values.
    """

    def __init__(self, label, call, collect):
        self.label = label
        self.call = call
        self.collect = collect


def _cli_op(api, label, argv, out_path):
    def call():
        return api.main(argv + ["--out", str(out_path)])

    def collect(code):
        text = out_path.read_text() if code == 0 and out_path.exists() else ""
        return {"exit": code, "text": text}

    return Op(label, call, collect)


def catalog_ops(api, spec, work):
    return [_cli_op(api, " ".join(argv), argv, work / f"catalog_{k:02d}.out")
            for k, argv in enumerate(spec["invocations"])]


def fine_grid_ops(api, spec, work):
    ops = []
    for g in spec["games"]:
        w_idle, w_col, rescale = inputs.game_weights(g)
        state = {}
        config = api.NetworkConfig(g["nd"], g["nw"], g["beta"], w_idle, w_col)
        grid = api.GridSpec(*g["grid"])
        tag = f"nd={g['nd']} nw={g['nw']} {g['preset']}"

        def build(config=config, grid=grid, rescale=rescale, state=state):
            fn = api.rescale_age if rescale == "range" else api.rescale_age_per_opponent
            state["surfaces"] = api.build_surfaces(config, grid, rescale=fn)
            return state["surfaces"]

        def surfaces_payload(s):
            return {"age": s.age, "throughput": s.throughput, "cost": s.cost, "age_rescaled": s.age_rescaled}

        def nash(state=state):
            return api.enumerate_nash(state["surfaces"])

        def nash_payload(results):
            return {"rows": [[r.pair.tau_d, r.pair.tau_w, r.age, r.throughput, r.payoff_dsrc, r.payoff_wifi]
                             for r in results]}

        def stackelberg_payload(r):
            return {"leader": r.leader, "pair": [r.pair.tau_d, r.pair.tau_w], "age": r.age,
                    "throughput": r.throughput, "payoff": r.leader_guaranteed_payoff}

        def stackelberg(leader, state=state):
            surfaces = state["surfaces"]
            if leader == "wifi":  # the game's last operation; hold one game's surfaces at a time
                del state["surfaces"]
            return api.solve_stackelberg(leader, surfaces)

        ops.append(Op(f"build_surfaces {tag}", build, surfaces_payload))
        ops.append(Op(f"enumerate_nash {tag}", nash, nash_payload))
        for leader in ("dsrc", "wifi"):
            ops.append(Op(f"solve_stackelberg {leader} {tag}",
                          lambda leader=leader, fn=stackelberg: fn(leader), stackelberg_payload))
    return ops


def general_route_ops(api, spec, work):
    lengths = api.SlotLengths.from_beta(spec["beta"])
    ops = []
    for k, vec in enumerate(spec["vectors"]):
        v = api.AccessVector(tuple(vec["taus"]), tuple(vec["tags"]))

        def call(v=v, nodes=vec["nodes"]):
            rows = []
            for i in nodes:
                m = api.inter_update_moments(v, lengths, i)
                rows.append((api.aoi_node(v, lengths, i), api.per_node_throughput(v, lengths, i),
                             m.first, m.second))
            return rows

        def collect(rows):
            return {"age": [r[0] for r in rows], "throughput": [r[1] for r in rows],
                    "ez": [r[2] for r in rows], "ez2": [r[3] for r in rows]}

        ops.append(Op(f"general route vector {k} (n={len(v)})", call, collect))
    return ops


def _simulation_op(api, label, vec, beta, horizon):
    v = api.AccessVector(tuple(vec["taus"]), tuple(vec["tags"]))
    lengths = api.SlotLengths.from_beta(beta)
    cfg = api.SimConfig(horizon_slots=horizon, seed=vec["seed"])

    def collect(r):
        return {
            "age": r.age, "age_se": r.age_se, "throughput": r.throughput, "throughput_se": r.throughput_se,
            "ez": r.inter_update_mean, "ez_se": r.inter_update_mean_se,
            "ez2": r.inter_update_sq_mean, "ez2_se": r.inter_update_sq_mean_se,
            "updates": r.update_counts,
            "slots": [r.slots_idle, r.slots_success, r.slots_collision, r.slots_measured],
        }

    return Op(label, lambda: api.run_simulation(v, lengths, cfg), collect)


def oracle_ops(api, spec, work):
    argv = inputs.simulate_argv(spec["cli"], spec["beta"], spec["horizon"])
    ops = [_cli_op(api, " ".join(argv), argv, work / "oracle_cli.out")]
    for k, vec in enumerate(spec["vectors"]):
        ops.append(_simulation_op(api, f"run_simulation vector {k} (n={len(vec['taus'])})", vec,
                                  spec["beta"], spec["horizon"]))
    return ops


def crowd_ops(api, spec, work):
    argv = inputs.simulate_argv(spec["cli"], spec["beta"], spec["horizon"])
    return [_cli_op(api, " ".join(argv), argv, work / "crowd_cli.out")]


OPS = {
    "catalog": catalog_ops,
    "fine_grid": fine_grid_ops,
    "general_route": general_route_ops,
    "oracle": oracle_ops,
    "crowd": crowd_ops,
}


def _fingerprint(payload: dict) -> str:
    h = hashlib.blake2b(digest_size=16)
    for key in sorted(payload):
        value = payload[key]
        h.update(key.encode())
        if hasattr(value, "tobytes"):
            h.update(str(value.dtype).encode() + str(value.shape).encode())
            h.update(value.tobytes())
        else:
            h.update(json.dumps(value, sort_keys=True).encode())
    return h.hexdigest()


class Dump:
    """Writes one round's payloads: arrays as .npy files, the rest in manifest.json."""

    def __init__(self, work: Path):
        self.work = work
        self.records = []

    def write(self, label: str, payload: dict) -> None:
        import numpy as np

        idx = len(self.records)
        fields = {}
        for key, value in payload.items():
            if isinstance(value, np.ndarray):
                name = f"op{idx:03d}_{key}.npy"
                np.save(self.work / name, value)
                fields[key] = {"npy": name}
            else:
                fields[key] = {"json": value}
        self.records.append({"label": label, "fields": fields})

    def close(self) -> None:
        (self.work / "manifest.json").write_text(json.dumps(self.records))


def run_round(ops, dump):
    """Run every operation once; returns (each operation's seconds, fingerprints)."""
    times = []
    prints = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            raw = op.call()
            error = None
        except Exception as exc:  # a failing operation is recorded, not fatal
            raw = None
            error = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        payload = {"error": error} if error is not None else op.collect(raw)
        prints.append(_fingerprint(payload))
        if dump is not None:
            dump.write(op.label, payload)
    return times, prints


class Series:
    """Round times and each operation's fastest call; single calls are not kept."""

    def __init__(self):
        self.round_s = []
        self.fastest = None

    def add(self, times: list) -> None:
        self.round_s.append(sum(times))
        self.fastest = times if self.fastest is None else list(map(min, self.fastest, times))

    def best_round(self) -> float:
        """Sum over operations of each operation's fastest call."""
        return sum(self.fastest)


def measure(ops, seconds, tracer, work):
    """Whole rounds for about ``seconds``; rounds alternate tracing if a tracer is given.

    A block is one round, or an untraced-traced pair when tracing. A new block
    starts only if one more block of the last block's length still fits, so
    the run ends close to ``seconds`` even when a round takes seconds.
    """
    untraced, traced = Series(), Series()
    first = None
    mismatched = 0
    start = block_start = time.perf_counter()
    k = 0
    while True:
        on = tracer is not None and k % 2 == 1
        dump = Dump(work) if k == 0 else None
        if on:
            tracer.install()
        try:
            times, prints = run_round(ops, dump)
        finally:
            if on:
                tracer.uninstall()
        if dump is not None:
            dump.close()
            first = prints
        elif prints != first:
            mismatched += 1
        (traced if on else untraced).add(times)
        k += 1
        if tracer is not None and k % 2 == 1:
            continue
        now = time.perf_counter()
        if (now - start) + (now - block_start) > seconds:
            return untraced, traced, mismatched
        block_start = now


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_ms = import_program()
    spec = inputs.make(args.workload, args.seed)
    if args.setup_only:
        return 0

    api = program_api()
    ops = OPS[args.workload](api, spec, args.work)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(api)
    untraced, traced, mismatched = measure(ops, args.seconds, tracer, args.work)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "ops_per_round": len(ops),
        "rounds": len(untraced.round_s) + len(traced.round_s),
        "untraced_round_s": untraced.round_s,
        "traced_round_s": traced.round_s,
        "mismatched_rounds": mismatched,
        "wall_s": untraced.best_round(),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(
            rounds=len(traced.round_s),
            import_ms=import_ms,
            overhead_s=traced.best_round() - untraced.best_round(),
        )
    (args.work / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

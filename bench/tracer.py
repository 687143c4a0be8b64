"""Per-layer tracing from outside the program.

Every public function of each ``csma_game`` module is wrapped, and the
wrapper is installed under the name each caller looks up: in the package
namespace, in every other module that imported the function, and in the
benchmark's own lookup namespace. A function is not wrapped in the module
that defines it, so calls inside one layer are not spans of their own and
count toward the caller's time. The two rescale maps are the exception: they
are also wrapped inside ``game``, where ``build_surfaces`` calls its default.

Each call records a span: calls and inclusive time per function, and the time
not covered by wrapped calls it made (self time). A few functions also record
counts taken from their arguments or results (cells built, slot x node work,
equilibria found, bytes written, tracemalloc peak). ``uninstall`` restores
every original binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("model", "metrics", "game", "equilibrium", "analysis", "simulate", "cli")
_RESCALES = ("game.rescale_age", "game.rescale_age_per_opponent")


def _out_path(argv):
    argv = list(argv or ())
    for flag, value in zip(argv, argv[1:]):
        if flag == "--out":
            return value
    return None


class Tracer:
    def __init__(self, *extra_namespaces):
        package = importlib.import_module("csma_game")
        modules = {layer: importlib.import_module(f"csma_game.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values(), *extra_namespaces]
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(float)
        self.peak_alloc_bytes = 0
        self._stack = []
        self._patches = []
        self.model_kernels = set()
        for layer, module in modules.items():
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                qual = f"{layer}.{name}"
                if layer == "model":
                    self.model_kernels.add(qual)
                wrapper = self._wrap(qual, fn)
                for ns in namespaces:
                    if ns is module and qual not in _RESCALES:
                        continue
                    if vars(ns).get(name) is fn:
                        self._patches.append((ns, name, fn, wrapper))

    def install(self) -> None:
        for ns, name, _, wrapper in self._patches:
            setattr(ns, name, wrapper)

    def uninstall(self) -> None:
        for ns, name, fn, _ in self._patches:
            setattr(ns, name, fn)

    def _wrap(self, qual, fn):
        hook = getattr(self, "_hook_" + qual.replace(".", "_"), None)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, args, kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self.calls[qual] += 1
                self.seconds[qual] += dt
                self.self_seconds[qual] += dt - frame[0]

        return wrapper

    # Hooks run the call themselves and record counts around it.

    def _hook_cli_main(self, fn, args, kwargs):
        code = fn(*args, **kwargs)
        out = _out_path(args[0] if args else kwargs.get("argv"))
        if out is not None and os.path.exists(out):
            self.counts["cli.bytes_out"] += os.path.getsize(out)
        return code

    def _hook_game_build_surfaces(self, fn, args, kwargs):
        surfaces = fn(*args, **kwargs)
        self.counts["game.cells"] += surfaces.age.size
        return surfaces

    def _hook_equilibrium_enumerate_nash(self, fn, args, kwargs):
        found = fn(*args, **kwargs)
        self.counts["equilibrium.equilibria_found"] += len(found)
        return found

    def _hook_simulate_run_simulation(self, fn, args, kwargs):
        vector, _, cfg = args[:3]
        self.counts["simulate.slot_nodes"] += len(vector) * cfg.horizon_slots
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            self.peak_alloc_bytes = max(self.peak_alloc_bytes, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    def metrics(self, rounds: int, import_ms: float, overhead_s: float) -> dict:
        """Per-layer metrics per traced round; per-call and per-unit figures are ratios."""

        def per_round(value):
            return value / rounds

        def ms(qual):
            return per_round(self.seconds[qual]) * 1e3

        def ratio(num, den, scale):
            return num / den * scale if den else 0.0

        out = {
            "import.csma_game_ms": import_ms,
            "cli.main.calls": per_round(self.calls["cli.main"]),
            "cli.main.ms": ms("cli.main"),
            "cli.self_ms": per_round(self.self_seconds["cli.main"]) * 1e3,
            "cli.bytes_out": per_round(self.counts["cli.bytes_out"]),
            "game.build_surfaces.calls": per_round(self.calls["game.build_surfaces"]),
            "game.build_surfaces.ms": ms("game.build_surfaces"),
            "game.build_surfaces.ns_per_cell": ratio(
                self.seconds["game.build_surfaces"], self.counts["game.cells"], 1e9),
            "game.rescale.ms": sum(ms(q) for q in _RESCALES),
        }
        for name in ("enumerate_nash", "solve_stackelberg", "single_network_optimum"):
            out[f"equilibrium.{name}.calls"] = per_round(self.calls[f"equilibrium.{name}"])
            out[f"equilibrium.{name}.ms"] = ms(f"equilibrium.{name}")
        out["equilibrium.equilibria_found"] = per_round(self.counts["equilibrium.equilibria_found"])
        out["analysis.verify_quasiconcavity.calls"] = per_round(self.calls["analysis.verify_quasiconcavity"])
        out["analysis.verify_quasiconcavity.ms"] = ms("analysis.verify_quasiconcavity")
        for name in ("aoi_node", "per_node_throughput", "inter_update_moments"):
            qual = f"metrics.{name}"
            out[f"{qual}.us_per_call"] = ratio(self.seconds[qual], self.calls[qual], 1e6)
        node_evals = self.calls["metrics.aoi_node"]
        out["metrics.node_evals"] = per_round(node_evals)
        kernel_calls = sum(self.calls[q] for q in self.model_kernels)
        out["model.kernel_calls_per_node_eval"] = ratio(kernel_calls, node_evals, 1.0)
        out["simulate.run_simulation.ms"] = ms("simulate.run_simulation")
        out["simulate.slot_nodes"] = per_round(self.counts["simulate.slot_nodes"])
        out["simulate.ns_per_slot_node"] = ratio(
            self.seconds["simulate.run_simulation"], self.counts["simulate.slot_nodes"], 1e9)
        out["simulate.peak_alloc_mb"] = self.peak_alloc_bytes / 2**20
        out["trace.overhead_s"] = overhead_s
        return out

"""Seeded inputs for every workload.

Only the standard library is used here, so the checker can rebuild the exact
inputs a run used without importing the program. The same seed always gives
the same inputs. Inputs that decide how much work a round does (node counts,
grid sizes, horizons, numbers of operations) are fixed; the seed chooses the
values inside them (strategies, slot lengths, simulator seeds, run order), so
the time of a round does not depend on the seed.
"""

from __future__ import annotations

import random

WORKLOADS = ("catalog", "fine_grid", "general_route", "oracle", "crowd")

HORIZON = 1_000_000

# The reference catalog: the six result sets of the README table, the twelve
# figure curves and the derivative sign scans, free and costed.
_TABLES = [
    ["sweep", "--nd", "1,2,5", "--nw", "1,2,5", "--beta", "0.001", "--w-idle", "0", "--w-col", "0"],
    ["sweep", "--nd", "1,2,5", "--nw", "1,2,5", "--beta", "0.001",
     "--preset", "costed", "--rescale", "per-opponent"],
    ["optimum", "--kind", "both", "--n", "2,4,10", "--beta", "0.001"],
    ["sweep", "--nd", "1,2,5", "--nw", "1,2,5", "--beta", "0.001",
     "--w-idle", "0.001,0.001", "--w-col", "150,400", "--rescale", "per-opponent"],
    ["stackelberg", "--nd", "1,2,5", "--nw", "1,2,5", "--beta", "0.001", "--leader", "both"],
    ["stackelberg", "--nd", "1,2,5", "--nw", "1,2,5", "--beta", "0.001",
     "--preset", "costed", "--rescale", "per-opponent", "--leader", "both"],
]


def _catalog_invocations() -> list[list[str]]:
    runs = list(_TABLES)
    for nd in (1, 5):
        for nw in (1, 2, 5):
            runs.append(["metrics", "--nd", str(nd), "--nw", str(nw), "--tau-w", "0.2"])
    for nw in (1, 5):
        for nd in (1, 2, 5):
            runs.append(["metrics", "--nd", str(nd), "--nw", str(nw), "--tau-d", "0.2"])
    runs.append(["verify", "--nd", "1,2,5", "--nw", "1,2,5"])
    runs.append(["verify", "--nd", "1,2,5", "--nw", "1,2,5", "--preset", "costed"])
    return runs


def catalog(seed: int) -> dict:
    """The fixed catalog; the seed only sets the order of the invocations."""
    runs = _catalog_invocations()
    random.Random(seed).shuffle(runs)
    return {"invocations": runs}


# Node counts of the fine-grid games. They are fixed because surface-build time
# depends on them; the seed draws beta for each game.
_FINE_GAMES = ((1, 2, "free"), (12, 4, "free"), (3, 3, "costed"), (20, 20, "costed"))
FINE_GRID = (0.001, 0.999, 0.001)
DEFAULT_GRID = (0.01, 0.99, 0.01)
LARGE_GAME = {"nd": 400, "nw": 400, "beta": 0.001, "preset": "free", "grid": DEFAULT_GRID}


def fine_grid(seed: int) -> dict:
    rng = random.Random(seed)
    games = []
    for nd, nw, preset in _FINE_GAMES:
        beta = round(rng.uniform(0.0005, 0.005), 6)
        games.append({"nd": nd, "nw": nw, "beta": beta, "preset": preset, "grid": FINE_GRID})
    # Not seeded: two of its operations fail on every run (see README).
    games.append(dict(LARGE_GAME))
    return {"games": games}


def game_weights(game: dict) -> tuple[float, float, str]:
    """(w_idle, w_col, rescale) of a game: the CLI's 'costed' preset and its rescale."""
    if game["preset"] == "costed":
        return game["beta"], 1.0 + game["beta"], "per-opponent"
    return 0.0, 0.0, "range"


_SWEEP_PAIRS_PER_CONFIG = 100
_HETERO_SIZES = (2, 3, 4, 6, 8, 10, 12, 16, 24, 32, 48, 64)


def general_route(seed: int) -> dict:
    """Homogeneous pairs from the 99-point grid for (nd, nw) in {1,2,5}^2, then
    heterogeneous vectors. Homogeneous vectors evaluate the first node of each
    network; heterogeneous ones evaluate every node."""
    rng = random.Random(seed)
    vectors = []
    for nd in (1, 2, 5):
        for nw in (1, 2, 5):
            for _ in range(_SWEEP_PAIRS_PER_CONFIG):
                td = rng.randint(1, 99) / 100
                tw = rng.randint(1, 99) / 100
                vectors.append({
                    "taus": [td] * nd + [tw] * nw,
                    "tags": ["dsrc"] * nd + ["wifi"] * nw,
                    "nodes": [0, nd],
                })
    for n in _HETERO_SIZES:
        hi = min(0.5, 2.0 / n)
        vectors.append({
            "taus": [round(rng.uniform(0.002, hi), 6) for _ in range(n)],
            "tags": [rng.choice(("dsrc", "wifi")) for _ in range(n)],
            "nodes": list(range(n)),
        })
    return {"beta": 0.001, "vectors": vectors}


def _tau(rng: random.Random, lo: float, hi: float) -> float:
    return rng.randint(round(lo * 10_000), round(hi * 10_000)) / 10_000


def oracle(seed: int) -> dict:
    """One simulate CLI run at n = 10 and three run_simulation vectors (n = 4, 7, 10)."""
    rng = random.Random(seed)
    nd = rng.randint(1, 9)
    cli = {"nd": nd, "nw": 10 - nd, "tau_d": _tau(rng, 0.03, 0.2), "tau_w": _tau(rng, 0.03, 0.2),
           "seed": rng.randrange(2**31)}
    vectors = []
    nd4 = rng.randint(1, 3)
    td, tw = _tau(rng, 0.03, 0.25), _tau(rng, 0.03, 0.25)
    vectors.append({"taus": [td] * nd4 + [tw] * (4 - nd4), "tags": ["dsrc"] * nd4 + ["wifi"] * (4 - nd4),
                    "seed": rng.randrange(2**31)})
    for n in (7, 10):
        vectors.append({
            "taus": [_tau(rng, 0.03, 0.2) for _ in range(n)],
            "tags": [rng.choice(("dsrc", "wifi")) for _ in range(n)],
            "seed": rng.randrange(2**31),
        })
    return {"beta": 0.001, "horizon": HORIZON, "cli": cli, "vectors": vectors}


def crowd(seed: int) -> dict:
    """One simulate CLI run at nd = nw = 50 with access probabilities near 1/n."""
    rng = random.Random(seed)
    cli = {"nd": 50, "nw": 50, "tau_d": _tau(rng, 0.006, 0.015), "tau_w": _tau(rng, 0.006, 0.015),
           "seed": rng.randrange(2**31)}
    return {"beta": 0.001, "horizon": HORIZON, "cli": cli}


def simulate_argv(spec: dict, beta: float, horizon: int) -> list[str]:
    return ["simulate", "--nd", str(spec["nd"]), "--nw", str(spec["nw"]),
            "--tau-d", repr(spec["tau_d"]), "--tau-w", repr(spec["tau_w"]),
            "--beta", repr(beta), "--seed", str(spec["seed"]), "--horizon", str(horizon)]


def make(workload: str, seed: int) -> dict:
    return {
        "catalog": catalog,
        "fine_grid": fine_grid,
        "general_route": general_route,
        "oracle": oracle,
        "crowd": crowd,
    }[workload](seed)

#!/usr/bin/env python3
"""Regenerate the reference catalog, the 18 CSV files of out/, one CLI invocation each.

Six result sets (see the README catalog) and twelve curves: age vs tau_d for
dsrc sizes {1, 5} against wifi sizes {1, 2, 5} with tau_w = 0.2, and
throughput vs tau_w for wifi sizes {1, 5} against dsrc sizes {1, 2, 5} with
tau_d = 0.2. Deterministic: rerunning overwrites byte-identical files.
"""

from pathlib import Path

from csma_game.cli import main

OUT = Path(__file__).resolve().parent.parent / "out"

GAMES = ["--nd", "1,2,5", "--nw", "1,2,5", "--beta", "0.001"]
COSTED = ["--preset", "costed", "--rescale", "per-opponent"]

RUNS = {
    "nash_free.csv": ["sweep", *GAMES, "--w-idle", "0", "--w-col", "0"],
    "nash_costed.csv": ["sweep", *GAMES, *COSTED],
    "lone_network_optima.csv": ["optimum", "--kind", "both", "--n", "2,4,10", "--beta", "0.001"],
    "nash_nudged_weights.csv": ["sweep", *GAMES, "--w-idle", "0.001,0.001", "--w-col", "150,400",
                                "--rescale", "per-opponent"],
    "stackelberg_free.csv": ["stackelberg", *GAMES, "--leader", "both"],
    "stackelberg_costed.csv": ["stackelberg", *GAMES, *COSTED, "--leader", "both"],
    **{f"age_vs_tau_d_nd{nd}_nw{nw}.csv": ["metrics", "--nd", str(nd), "--nw", str(nw), "--tau-w", "0.2"]
       for nd in (1, 5) for nw in (1, 2, 5)},
    **{f"throughput_vs_tau_w_nd{nd}_nw{nw}.csv": ["metrics", "--nd", str(nd), "--nw", str(nw), "--tau-d", "0.2"]
       for nw in (1, 5) for nd in (1, 2, 5)},
}


def run() -> None:
    OUT.mkdir(exist_ok=True)
    for name, args in RUNS.items():
        path = OUT / name
        code = main(args + ["--out", str(path)])
        if code != 0:
            raise SystemExit(f"{name}: exited with {code}")
        print(f"wrote {path}")


if __name__ == "__main__":
    run()

"""Cold-start wall times of the acsusy command line, for one or two source trees.

    python3 tools/cold_start.py                  # the src/ next to this script
    python3 tools/cold_start.py OLD/src NEW/src  # interleaved comparison

Every round starts one fresh interpreter per case and tree, alternating
which tree goes first. The cases are a bare interpreter, the setup probe
that perfbench/run.py times as setup_s (import acsusy.cli and validate
one config), and `python -m acsusy.cli CMD --no-timestamp` for each
subcommand on a README example config. The pure-Python reference loop
of perfbench/run.py is timed before every start. For each case and tree
the script prints the median wall time over ROUNDS rounds, and that time
in ref_s (scaled by REF_NOMINAL_S over the loop's median), the unit in
which perfbench reports setup_s. One more, untimed, start per tree lists
the modules the setup probe loads beyond those a bare interpreter holds.

It also reports whether PYTHONDONTWRITEBYTECODE is set: without bytecode
caches every start compiles each module it imports from source, so
start time grows with the source bytes on the import path.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ROUNDS = 21
# perfbench/run.py's reference loop and its nominal time
REF_ITERATIONS = 50_000
REF_NOMINAL_S = 0.0025

# README example configs
CONFIGS = {
    "cylinder.json": {"geometry": {"kind": "cylinder", "rho": 2.0e7, "r0": 1.0},
                      "channels": [{"nu": 0}, {"nu": 1, "w": -1}],
                      "n_grid": 400, "rtol": 1e-10, "oracle_n": 400},
    "slab.json": {"geometry": {"kind": "slab", "rho": 2.0e6, "L": 1.0},
                  "n_samples": 8, "consistent_gaussian": False},
}
PROBE = "import sys\nfrom acsusy.cli import load_config\nload_config(sys.argv[1])\n"
# the probe, printing what it added to the modules the interpreter started with
PROBE_LOADS = ("import sys\nbare = set(sys.modules)\n" + PROBE
               + "print(' '.join(sorted(set(sys.modules) - bare)))\n")


def _cli(command: str, config: str | None = "cylinder.json") -> list:
    args = ["-m", "acsusy.cli", command, "--out", "out", "--no-timestamp"]
    return args + (["--config", config] if config else [])


CASES = [
    ("bare interpreter", ["-c", "pass"]),
    ("setup_s probe", ["-c", PROBE, "cylinder.json"]),
    ("constants", _cli("constants")),
    ("susy-status", _cli("susy-status")),
    ("zero-mode", _cli("zero-mode")),
    ("spectrum", _cli("spectrum")),
    ("slab", _cli("slab", "slab.json")),
    ("verify", _cli("verify")),
    ("reproduce-paper", _cli("reproduce-paper", None)),
]


def reference_loop_s() -> float:
    t0 = time.perf_counter()
    x = 0.0
    for i in range(REF_ITERATIONS):
        x += i * 0.5
    return time.perf_counter() - t0


def measure(trees: list) -> tuple[dict, list, dict]:
    """(case, tree) -> start wall times in s, every reference loop time,
    and tree -> the modules the setup probe loads."""
    times = {(name, tree): [] for name, _ in CASES for tree in trees}
    loops = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, cfg in CONFIGS.items():
            (work / name).write_text(json.dumps(cfg), encoding="utf-8")

        def start(tree, args, **kwargs):
            env = {**os.environ, "PYTHONPATH": str(tree)}
            return subprocess.run([sys.executable, *args], cwd=work, env=env, check=True,
                                  text=True, **kwargs)

        loads = {tree: start(tree, ["-c", PROBE_LOADS, "cylinder.json"],
                             capture_output=True).stdout.split() for tree in trees}
        for r in range(ROUNDS):
            for name, args in CASES:
                for tree in trees if r % 2 == 0 else trees[::-1]:
                    loops.append(reference_loop_s())
                    t0 = time.perf_counter()
                    start(tree, args, stdout=subprocess.DEVNULL)
                    times[name, tree].append(time.perf_counter() - t0)
    return times, loops, loads


def main(argv: list) -> int:
    trees = [Path(a).resolve() for a in argv] or [SRC]
    if len(trees) > 2 or not all((t / "acsusy" / "cli.py").is_file() for t in trees):
        print("usage: cold_start.py [SRC [SRC2]]  (each a tree holding acsusy/cli.py)",
              file=sys.stderr)
        return 2
    flag = os.environ.get("PYTHONDONTWRITEBYTECODE")
    print(f"PYTHONDONTWRITEBYTECODE={flag!r}: "
          + ("no bytecode caches, every start compiles from source" if flag
             else "bytecode caches on, timings after the first start read them"))
    times, loops, loads = measure(trees)
    speed = statistics.median(loops) / REF_NOMINAL_S
    print(f"python {sys.version.split()[0]}, {ROUNDS} rounds, "
          f"reference loop median {1e3 * statistics.median(loops):.2f} ms "
          f"(ref_s = s / {speed:.3f})")
    labels = "AB"[: len(trees)]
    for label, tree in zip(labels, trees):
        print(f"{label}: {tree}")
    header = f"{'start':<18}" + "".join(f"{label + ' ms':>10}{label + ' ref_s':>10}"
                                        for label in labels)
    print(header + (f"{'B/A':>8}" if len(trees) == 2 else ""))
    for name, _ in CASES:
        medians = [statistics.median(times[name, tree]) for tree in trees]
        row = f"{name:<18}" + "".join(f"{1e3 * m:>10.1f}{m / speed:>10.4f}" for m in medians)
        print(row + (f"{medians[1] / medians[0]:>8.3f}" if len(trees) == 2 else ""))
    for label, tree in zip(labels, trees):
        print(f"{label}: the setup_s probe loads {len(loads[tree])} modules beyond a bare "
              f"interpreter: {' '.join(loads[tree])}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

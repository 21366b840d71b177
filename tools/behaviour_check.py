"""Byte-level fingerprint of what the acsusy command line does.

Runs nine command lines (every subcommand, plus `spectrum --verify` and
`verify --strict-gauss`) on the three README example configs, each with
the density as given, flipped and 0, with kappa_n flipped, and with both
flipped: 135 runs of `python -m acsusy.cli ... --no-timestamp` in fresh
interpreters, against the `src/` tree next to this script. Prints one
line per run: the exit code and the SHA-256 (first 16 hex digits) of
stdout, stderr and each artifact written, with the source directory
masked. Compare two checkouts, or two runs of one, with diff:

    python3 tools/behaviour_check.py > a.txt
    python3 tools/behaviour_check.py > b.txt
    diff a.txt b.txt
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# the README example configs
GEOMETRIES = {
    "sphere": {"geometry": {"kind": "sphere", "rho": 2.0e6, "r0": 1.0},
               "channels": [{"l": 1, "j": 0.5}]},
    "cylinder": {"geometry": {"kind": "cylinder", "rho": 2.0e7, "r0": 1.0},
                 "channels": [{"nu": 0}, {"nu": 1, "w": -1}],
                 "n_grid": 400, "rtol": 1e-10, "oracle_n": 400},
    "slab": {"geometry": {"kind": "slab", "rho": 2.0e6, "L": 1.0},
             "n_samples": 8, "consistent_gaussian": False},
}
# (name, density factor, kappa_n override or None)
VARIANTS = [
    ("rho", 1.0, None),
    ("-rho", -1.0, None),
    ("rho=0", 0.0, None),
    ("-kappa", 1.0, -1.913),
    ("-kappa,-rho", -1.0, -1.913),
]
COMMANDS = [
    ["constants"],
    ["susy-status"],
    ["zero-mode"],
    ["spectrum"],
    ["spectrum", "--verify"],
    ["slab"],
    ["verify"],
    ["verify", "--strict-gauss"],
    ["reproduce-paper"],
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _config(base: dict, factor: float, kappa: float | None) -> dict:
    cfg = json.loads(json.dumps(base))
    cfg["geometry"]["rho"] *= factor
    if kappa is not None:
        cfg["constants"] = {"kappa_n": kappa}
    return cfg


def _run(cfg: dict, command: list) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "acsusy.cli", *command,
             "--config", "cfg.json", "--out", "out", "--no-timestamp"],
            cwd=work, env=env, capture_output=True, timeout=600,
        )
        masks = [(str(SRC).encode(), b"<src>"), (str(work).encode(), b"<tmp>")]
        parts = [f"exit {done.returncode}"]
        for name, data in (("stdout", done.stdout), ("stderr", done.stderr)):
            for text, mask in masks:
                data = data.replace(text, mask)
            parts.append(f"{name} {_digest(data)}")
        out = work / "out"
        for path in sorted(out.iterdir()) if out.is_dir() else []:
            parts.append(f"{path.name} {_digest(path.read_bytes())}")
    return " ".join(parts)


def main() -> int:
    for geometry, base in GEOMETRIES.items():
        for variant, factor, kappa in VARIANTS:
            cfg = _config(base, factor, kappa)
            for command in COMMANDS:
                print(f"{geometry} {variant} {' '.join(command)}: {_run(cfg, command)}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

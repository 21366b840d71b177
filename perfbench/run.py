"""acsusy benchmark: seeded CLI workloads, timed in-process.

Usage, from the repository root:

    python3 perfbench/run.py --workload cylinder-spectrum --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --readme-check

A run times ``acsusy.cli.main`` ops, in one process on one thread, in
whole blocks of five until ``--seconds`` seconds of op time have passed.
It checks every op's artifacts against the independent expectations in
``expect.py``, prints a table of metrics with units and sample counts,
and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. ``failed`` counts the
ops whose failure no known program defect explains (see expect.py); ops
that show a known defect are counted and listed in the report above the
JSON line and in ``fail_frac``, but not in ``failed``. ``--trace 0`` gives
the end-to-end metrics; ``--trace 1`` wraps the CLI's layer calls in
spans, probes single layers and gives the per-layer metrics. See
perfbench/README.md for the workloads and what each metric predicts.
"""

from __future__ import annotations

import os

# pin BLAS and OpenMP pools before numpy loads; recorded in every result
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 9
# op_s.p90 is printed when at least six ops lie above it; in practice
# only verify-sweep runs (80-140 ops) hold that many
P90_MIN_OPS = 60

# A fixed pure-Python loop, timed before and after every op. Its median
# over a run tracks how fast a shared machine runs during that run (on a
# 2-core Xeon VM it drifted by up to 50% between runs a minute apart, far
# more than any input effect). Times scaled by REF_NOMINAL_S / (median
# loop time) are in "ref_s": seconds on a machine where the loop takes
# REF_NOMINAL_S, its time on that VM when idle, with Python 3.11.
# setup_s is scaled the same way, although BENCHMARK.json writes its
# unit as plain "s".
REF_ITERATIONS = 50_000
REF_NOMINAL_S = 0.0025

END_TO_END = {
    "setup_s": "s",
    "ops_per_s.ref": "1/ref_s",
    "op_s.gmean.ref": "ref_s",
    "peak_rss_mb": "MB",
}


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


if not (SRC / "acsusy" / "cli.py").is_file():
    _fail(f"package source not found under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import acsusy  # noqa: E402
import acsusy.cli  # noqa: E402
import expect  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": THREAD_ENV,
    }


def reference_loop_s() -> float:
    t0 = time.perf_counter()
    x = 0.0
    for i in range(REF_ITERATIONS):
        x += i * 0.5
    return time.perf_counter() - t0


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "acsusy").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class SetupSampler:
    """Times fresh interpreters that import acsusy.cli and validate one config.

    Single starts on a shared machine spread by +-20% from one to the
    next, so a run takes SETUP_REPEATS of them, spread evenly over its
    timed window, and reports their median.
    """

    def __init__(self, cfg_path: Path):
        self.cfg_path = cfg_path
        self.times: list[float] = []

    def sample_until(self, progress: float) -> None:
        """Take samples until their share of SETUP_REPEATS reaches `progress`."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        code = "import sys\nfrom acsusy.cli import load_config\nload_config(sys.argv[1])\n"
        while len(self.times) < min(SETUP_REPEATS, 1 + int(progress * SETUP_REPEATS)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code, str(self.cfg_path)], env=env,
                           check=True, cwd=ROOT)
            self.times.append(time.perf_counter() - t0)


def artifact_digest(artifacts: dict) -> str:
    digest = hashlib.sha256()
    for name, blob in artifacts.items():
        digest.update(name.encode() + b"\0" + blob + b"\0")
    return digest.hexdigest()


@dataclass
class Timed:
    """One op's timing and verdict; its artifacts and output are not kept."""

    op: workloads.Op
    seconds: float  # wall time of the op's CLI invocations
    ref_s: float  # reference loop time measured around the op
    digest: str  # sha256 over the op's artifacts
    verdict: expect.Verdict
    exits: list  # exit code per command
    artifact_bytes: int
    epsilon_lo: float | None  # the spectrum's scan window floor, spectrum ops only


class Runner:
    """Runs ops through acsusy.cli.main with captured output in a scratch directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def invoke(self, op: workloads.Op) -> tuple[float, float, expect.OpResult]:
        """Seconds, reference loop time and the full output of one op."""
        cfg = self.workdir / f"op{op.index}.json"
        cfg.write_text(json.dumps(op.config), encoding="utf-8")
        out = self.workdir / f"op{op.index}"
        exits, stdout, stderr = [], [], []
        ref_before = reference_loop_s()
        t0 = time.perf_counter()
        for cmd in op.commands:
            argv = [cmd, "--config", str(cfg), "--out", str(out), "--no-timestamp", *op.flags]
            o, e = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(o), contextlib.redirect_stderr(e):
                exits.append(acsusy.cli.main(argv))
            stdout.append(o.getvalue())
            stderr.append(e.getvalue())
        seconds = time.perf_counter() - t0
        ref_s = 0.5 * (ref_before + reference_loop_s())
        artifacts = {}
        if out.is_dir():
            artifacts = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            shutil.rmtree(out)
        cfg.unlink()
        return seconds, ref_s, expect.OpResult(exits, stdout, stderr, artifacts)

    def run(self, op: workloads.Op) -> Timed:
        """Invoke one op, check it and keep only what the metrics need.

        Dropping the artifacts and captured output here keeps the
        process's memory independent of how many ops a run holds.
        """
        seconds, ref_s, result = self.invoke(op)
        lo = None
        if op.commands == ["spectrum"]:
            l, w = op.channel
            blob = result.artifacts.get(f"spectrum_{op.kind}_l{l}_w{w}.json")
            if blob is not None:
                lo = float(json.loads(blob)["epsilon_window_cm2"][0])
        return Timed(op, seconds, ref_s, artifact_digest(result.artifacts),
                     expect.check(op, result), list(result.exits),
                     sum(len(b) for b in result.artifacts.values()), lo)


def run_window(runner: Runner, ops_iter, seconds: float, tracer=None,
               between=None) -> tuple[list, list]:
    """Run whole blocks of ops until `seconds` of op wall time have passed.

    Returns the Timed ops. With a tracer, each op also runs once
    untraced, next to its traced run and in alternating order; those
    runs come back as the second list, count toward `seconds`, and
    their artifacts must match the traced run's. `between` is called
    after each op with the share of `seconds` spent so far.
    """
    done, untraced = [], []
    spent = 0.0
    op = None
    while spent < seconds or (op.index + 1) % workloads.BLOCK:
        op = next(ops_iter)
        if tracer is None:
            done.append(runner.run(op))
        else:
            tracer.op = op.index
            for traced in ((True, False) if op.index % 2 == 0 else (False, True)):
                if not traced:
                    untraced.append(runner.run(op))
                    continue
                tracer.install(acsusy.cli)
                try:
                    done.append(runner.run(op))
                finally:
                    tracer.uninstall(acsusy.cli)
            if done[-1].digest != untraced[-1].digest:
                done[-1].verdict.fail("artifacts differ between the traced and the untraced run")
            spent += untraced[-1].seconds
        spent += done[-1].seconds
        if between is not None:
            between(spent / seconds)
    return done, untraced


def input_key(op: workloads.Op) -> str:
    blob = json.dumps([op.commands, op.flags, op.config], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def compare_digests(path: Path, digests: dict) -> list:
    """Keys whose artifact digest differs from an earlier run of the same code and input."""
    earlier = json.loads(path.read_text()) if path.is_file() else {}
    bad = [k for k, d in digests.items() if earlier.get(k, d) != d]
    earlier.update(digests)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(earlier, sort_keys=True))
    os.replace(tmp, path)
    return bad


def summarize(done: list, verdicts: list, setup_times: list) -> dict:
    times = [t.seconds for t in done]
    # the run's median loop time sets its speed; single samples are too noisy
    speed = statistics.median(t.ref_s for t in done) / REF_NOMINAL_S
    gaps = [v.oracle_gap for v in verdicts if v.oracle_gap is not None]
    return {
        "ops": len(done),
        "ops_per_s": len(done) / sum(times),
        "op_s.p50": statistics.median(times),
        "op_s.p90": float(np.percentile(times, 90)) if len(times) >= P90_MIN_OPS else None,
        "ops_per_s.ref": len(done) / sum(times) * speed,
        "op_s.p50.ref": statistics.median(times) / speed,
        "op_s.gmean.ref": statistics.geometric_mean(times) / speed,
        "ref_loop_ms": 1e3 * speed * REF_NOMINAL_S,
        "setup_s.wall": statistics.median(setup_times),
        "setup_s": statistics.median(setup_times) / speed,
        "failed": sum(bool(v.failures) for v in verdicts),
        "known_defect": sum(bool(v.failures) and not v.unexplained for v in verdicts),
        "oracle_gap.max": max(gaps) if gaps else None,
        "oracle_gap.n": len(gaps),
    }


def _slab_bessel_args(rho: float) -> list:
    """The 401 (nu, k r) points `acsusy slab` tabulates at its default k = k_max / 2."""
    k = 0.5 * (4.0 * np.pi * expect.ETA * rho) ** 0.5
    return [(0, k * r) for r in np.linspace(0.0, 12.0 / k, 401)]


def window_probes(done: list) -> tuple[list, list, list]:
    """Probe arguments from the window's first ten radial ops and first slab op."""
    radial_args, kummer_args = [], []
    slab_rho = [float(t.op.config["geometry"]["rho"]) for t in done
                if t.op.kind == "slab" and t.op.config["geometry"]["rho"] > 0.0]
    for t in done:
        op = t.op
        if op.kind == "slab" or len(radial_args) >= 10:
            continue
        geo = op.config["geometry"]
        l, w = op.channel
        r0 = float(geo["r0"])
        beta = expect.beta_of(op.kind, geo)
        lo = t.epsilon_lo if t.epsilon_lo is not None else -(abs(beta) + 1.0 / r0**2)
        radial_args.append((op.kind, l, w, beta, r0, lo))
        kummer_args.extend(tracing.kummer_arguments(op.kind, l, w, beta, r0, lo))
    # without a confining slab in the window, the README slab (rho 2e6 esu/cm^3)
    bessel_args = _slab_bessel_args(slab_rho[0] if slab_rho else 2.0e6)
    return radial_args, kummer_args, bessel_args


def print_table(title: str, rows: list) -> None:
    print(title)
    print(f"  {'metric':<34} {'value':>14}  {'unit':<12} samples")
    for name, value, unit, n in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<34} {shown:>14}  {unit:<12} {n}")


def run(args) -> int:
    print("machine " + json.dumps(machine(), sort_keys=True))
    workdir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(workdir)
    try:
        ops = workloads.generate(args.workload, args.seed)
        first = next(ops)
        cfg = workdir / "setup.json"
        cfg.write_text(json.dumps(first.config), encoding="utf-8")
        setup = SetupSampler(cfg)

        # warm-up: lazy imports and first-call set-up finish before timing;
        # the same op is timed again first in the window, and the two
        # artifact digests must agree
        warm = runner.run(first)

        tracer = tracing.Tracer(acsusy.AcsusyError) if args.trace else None
        done, untraced = run_window(runner, itertools.chain([first], ops), args.seconds, tracer,
                                    setup.sample_until)
        setup.sample_until(1.0)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        verdicts = [t.verdict for t in done]
        if done[0].digest != warm.digest:
            verdicts[0].fail("artifacts differ between two runs of the op in one process")
        keys = [input_key(t.op) for t in done]
        store = WORK / "digests" / f"{code_digest()}.json"
        bad = set(compare_digests(store, {k: t.digest for k, t in zip(keys, done)}))
        for k, v in zip(keys, verdicts):
            if k in bad:
                v.fail("artifacts differ from an earlier run of the same code and input")

        s = summarize(done, verdicts, setup.times)
        unexplained = [v for v in verdicts if v.unexplained]
        n = s["ops"]
        print(f"workload {args.workload} seed {args.seed}: {n} ops, trace {'on' if args.trace else 'off'}"
              f"{' (timings below include tracing)' if args.trace else ''}")
        print_table("end to end", [
            ("setup_s", s["setup_s"], "s", len(setup.times)),
            ("setup_s.wall", s["setup_s.wall"], "s", len(setup.times)),
            ("ops_per_s", s["ops_per_s"], "1/s", n),
            ("op_s.p50", s["op_s.p50"], "s", n),
            ("op_s.p90", s["op_s.p90"], "s", n),
            ("ops_per_s.ref", s["ops_per_s.ref"], "1/ref_s", n),
            ("op_s.p50.ref", s["op_s.p50.ref"], "ref_s", n),
            ("op_s.gmean.ref", s["op_s.gmean.ref"], "ref_s", n),
            ("ref_loop_ms", s["ref_loop_ms"], "ms", 2 * n),
            ("fail_frac", s["failed"] / n, "ratio", n),
            ("oracle_gap.max", s["oracle_gap.max"], "ratio", s["oracle_gap.n"]),
            ("peak_rss_mb", peak_rss_mb, "MB", 1),
        ])
        if s["op_s.p90"] is None:
            print(f"  (op_s.p90 needs at least {P90_MIN_OPS} ops in the run)")
        print(f"failed ops: {s['failed']} of {n} ({s['known_defect']} known defect, "
              f"{len(unexplained)} unexplained)")
        for t, v in zip(done, verdicts):
            if v.failures:
                tag = "known defect" if not v.unexplained else "UNEXPLAINED"
                print(f"  {t.op.describe()}: {'; '.join(v.failures)} [{tag}]")

        if args.trace:
            metrics = trace_metrics(tracer, done, untraced, verdicts, s)
            units = PER_LAYER
            print_table("per layer (per op unless noted)", [
                (k, metrics[k], units[k], n) for k in units
            ])
        else:
            metrics = {
                "setup_s": s["setup_s"],
                "ops_per_s.ref": s["ops_per_s.ref"],
                "op_s.gmean.ref": s["op_s.gmean.ref"],
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END
        # the known defects are deterministic per input, but how many of
        # their inputs fall into a timed window is not, so only
        # unexplained failures go into the result line's count
        print(json.dumps({
            "correct": not unexplained,
            "attempted": n,
            "failed": len(unexplained),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


PER_LAYER = {
    "radial.find_spectrum.s": "s",
    "radial.find_spectrum.calls": "count",
    "radial.mismatch.s": "s",
    "radial.shoot_interior.steps": "count",
    "radial.shoot_exterior.steps": "count",
    "radial.scan_yield": "state/point",
    "radial.errors": "count",
    "oracle.richardson_pair.s": "s",
    "oracle.build_grid_hamiltonian.s": "s",
    "oracle.lowest_eigenvalues.s": "s",
    "oracle.build_susy_pair.s": "s",
    "oracle.susy_algebra_check.s": "s",
    "oracle.grid_mode_overlap.s": "s",
    "oracle.grid_cells": "count",
    "oracle.lowest_eigenvalues.n1200.s": "s",
    "oracle.errors": "count",
    "oracle_gap.max": "ratio",
    "zeromode.susy_status.s": "s",
    "zeromode.zero_mode.s": "s",
    "zeromode.errors": "count",
    "fields.divergence_check.s": "s",
    "fields.errors": "count",
    "slab.degeneracy_family.s": "s",
    "slab.build_slab_solution.s": "s",
    "slab.slab_residual.s": "s",
    "slab.errors": "count",
    "specfun.kummer_1f1.s": "s",
    "specfun.bessel_j.s": "s",
    "specfun.errors": "count",
    "cli.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "cli.errors": "count",
    "trace.ops_per_s": "1/s",
    "trace.overhead_ops_per_s": "1/s",
}


def trace_metrics(tracer, done: list, untraced: list, verdicts: list, s: dict) -> dict:
    n = len(done)
    metrics = tracing.layer_metrics(tracer, n)
    radial_args, kummer_args, bessel_args = window_probes(done)
    metrics.update(tracing.probe_radial(acsusy, radial_args))
    metrics.update(tracing.probe_specfun(acsusy, kummer_args, bessel_args))
    metrics["oracle.lowest_eigenvalues.n1200.s"] = tracing.probe_eigensolve(acsusy)
    grid_points = sum(v.n_grid for v in verdicts)
    metrics["radial.scan_yield"] = sum(v.n_states for v in verdicts) / grid_points if grid_points else 0.0
    metrics["oracle_gap.max"] = s["oracle_gap.max"] or 0.0
    metrics["cli.artifact_bytes"] = sum(t.artifact_bytes for t in done) / n
    metrics["cli.errors"] = sum(code != 0 for t in done for code in t.exits)
    metrics["trace.ops_per_s"] = s["ops_per_s"]
    metrics["trace.overhead_ops_per_s"] = s["ops_per_s"] - n / sum(t.seconds for t in untraced)
    return metrics


def readme_check() -> int:
    """README configs, five default channels each, through the op path, unchecked."""
    runner = Runner(WORK / f"readme-{os.getpid()}")
    cases = [
        ("cylinder", "spectrum", [], {"geometry": {"kind": "cylinder", "rho": 2.0e7, "r0": 1.0}}),
        ("cylinder", "spectrum", ["--verify"], {"geometry": {"kind": "cylinder", "rho": 2.0e7, "r0": 1.0}}),
        ("sphere", "spectrum", [], {"geometry": {"kind": "sphere", "rho": 2.0e6, "r0": 1.0}}),
        ("cylinder", "verify", [], {"geometry": {"kind": "cylinder", "rho": 2.0e7, "r0": 1.0}}),
        ("sphere", "verify", [], {"geometry": {"kind": "sphere", "rho": 2.0e6, "r0": 1.0}}),
    ]
    print("machine " + json.dumps(machine(), sort_keys=True))
    try:
        for i, (kind, cmd, flags, config) in enumerate(cases):
            seconds, ref_s, result = runner.invoke(workloads.Op(i, kind, [cmd], config, flags=flags))
            print(f"{cmd} {' '.join(flags)} {kind}: {seconds:.2f} s (loop {1e3 * ref_s:.2f} ms), "
                  f"exit {result.exits[0]}, {len(result.artifacts)} artifacts, "
                  f"digest {artifact_digest(result.artifacts)[:12]}", flush=True)
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--readme-check", action="store_true",
                        help="time the README configs once instead of a workload")
    args = parser.parse_args(argv)
    if args.readme_check:
        return readme_check()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

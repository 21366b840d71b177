"""Self-checks of the benchmark itself.

Run from the repository root:

    python3 perfbench/selfcheck.py

Covers: the generator repeats for a seed, printed metric names and
units match BENCHMARK.json, the expectation rejects planted wrong
verdicts and grid levels, the benchmark's copies of the grid gate and
band scale agree with the package, and traced spans split each
cli.main span exactly.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run  # sets the thread pins and the import path first
import acsusy
import acsusy.cli
import expect
import tracing
import workloads


def _take(workload: str, seed: int, n: int) -> list:
    return list(itertools.islice(workloads.generate(workload, seed), n))


def _bench_spec() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for wl in workloads.WORKLOADS:
            a = [(op.commands, op.config, op.flags) for op in _take(wl, 7, 30)]
            b = [(op.commands, op.config, op.flags) for op in _take(wl, 7, 30)]
            c = [(op.commands, op.config, op.flags) for op in _take(wl, 8, 30)]
            self.assertEqual(json.dumps(a), json.dumps(b))
            self.assertNotEqual(json.dumps(a), json.dumps(c))

    def test_draws_stay_in_the_named_ranges(self):
        for op in _take("cylinder-spectrum", 3, 200):
            self.assertTrue(-30.0 <= op.x <= -1.5)
        for op in _take("sphere-spectrum", 3, 200):
            self.assertTrue(0.5 <= abs(op.x) <= 10.0)
        kinds = [op.kind for op in _take("verify-sweep", 3, 500)]
        self.assertEqual(kinds.count("slab"), 100)
        self.assertEqual(kinds.count("sphere"), 200)

    def test_gate_and_band_scale_match_the_package(self):
        from acsusy.errors import GridTooCoarse
        from acsusy.oracle import build_grid_hamiltonian, build_susy_pair
        from acsusy.radial import RadialProblem

        ops = _take("cylinder-spectrum", 11, 10) + _take("sphere-spectrum", 11, 10)
        ops += [op for op in _take("verify-sweep", 11, 20) if op.kind != "slab"]
        for op in ops:
            l, w = op.channel
            geo = op.config["geometry"]
            beta, r0 = expect.beta_of(op.kind, geo), geo["r0"]
            if op.commands == ["spectrum"]:
                p = RadialProblem(geometry=op.kind, l=l, w=w, beta=beta, r0=r0)
            else:  # verify assembles the flux grid of the pair's channel
                p = build_susy_pair(op.kind, beta, r0, 100, 100.0 * r0).problem
            n, r_max = op.config["oracle_n"], expect.r_max_default(op.kind, r0)
            H = build_grid_hamiltonian(p, n, r_max)  # accepted
            if n > 100:
                with self.assertRaises(GridTooCoarse):
                    build_grid_hamiltonian(p, n - 1, r_max)
            scale = expect.band_scale(op.kind, l, w, beta, r0, n, r_max)
            self.assertAlmostEqual(scale / H.scale(), 1.0, delta=1e-12)

    def test_constants_copy_matches_the_package(self):
        c = acsusy.DEFAULT_CONSTANTS
        self.assertEqual((c.e_esu, c.kappa_n, c.m_c2_erg),
                         (expect.E_ESU, expect.KAPPA_N, expect.M_C2_ERG))


class ExpectationTest(unittest.TestCase):
    """A real op's artifacts pass; the same artifacts with a planted wrong verdict fail."""

    @classmethod
    def setUpClass(cls):
        cls.runner = run.Runner(run.WORK / "selfcheck")
        # a strongly unbroken cylinder from the verify sweep; near
        # beta r0^2 = -1.5 the grid ground level shows known defect 2
        cls.op = next(op for op in workloads.generate("verify-sweep", 5)
                      if op.kind == "cylinder" and op.x < -20.0)
        cls.result = cls.runner.invoke(cls.op)[2]

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.runner.workdir, ignore_errors=True)

    def _planted(self, name: str, edit) -> expect.OpResult:
        arts = dict(self.result.artifacts)
        data = json.loads(arts[name])
        edit(data)
        arts[name] = json.dumps(data).encode()
        return expect.OpResult(self.result.exits, self.result.stdout, self.result.stderr, arts)

    def test_real_output_passes(self):
        self.assertEqual(expect.check(self.op, self.result).failures, [])

    def test_wrong_status_is_rejected(self):
        bad = self._planted("susy_status.json", lambda d: d.update(status="Broken"))
        self.assertTrue(expect.check(self.op, bad).unexplained)

    def test_negative_supersymmetric_spectrum_is_rejected(self):
        bad = self._planted("verify.json", lambda d: d["algebra"].update(nonneg_spectrum_flag=False))
        self.assertTrue(expect.check(self.op, bad).unexplained)

    def test_negative_grid_ground_level_is_rejected(self):
        geo = self.op.config["geometry"]
        scale = expect.band_scale("cylinder", 0, 0, expect.beta_of("cylinder", geo), geo["r0"],
                                  self.op.config["oracle_n"], 20.0 * geo["r0"])
        limit = expect.GROUND_LIMIT
        for ratio, unexplained in ((-0.5 * limit, False), (-2.0 * limit, True)):
            level = ratio * scale
            bad = self._planted("verify.json", lambda d: d.update(grid_ground_epsilon_cm2=level))
            verdict = expect.check(self.op, bad)
            self.assertEqual(len(verdict.failures), 1)
            self.assertEqual(bool(verdict.unexplained), unexplained)

    def test_unexpected_refusal_is_rejected(self):
        bad = expect.OpResult([0, 2, 0], self.result.stdout, self.result.stderr, self.result.artifacts)
        self.assertTrue(expect.check(self.op, bad).unexplained)

    def test_spectrum_verdicts(self):
        op = workloads.Op(0, "sphere", ["spectrum"],
                          {"geometry": {"kind": "sphere", "rho": 2e6, "r0": 1.0}}, (0, 0), 5.1,
                          ["--verify"])
        spectrum = {
            "bound_states": [], "zero_mode": None, "scan": {"n_grid": 32},
            "oracle": {"n": 100, "r_max_cm": 10.0, "lowest_epsilon_cm2": 0.01},
        }

        def result(data):
            return expect.OpResult([0], [""], [""], {
                "spectrum_sphere_l0_w0.json": json.dumps(data).encode(),
                "spectrum_sphere.csv": b"",
            })

        self.assertEqual(expect.check(op, result(spectrum)).failures, [])
        planted = dict(spectrum, zero_mode={"epsilon_cm2": 0.0},
                       oracle=dict(spectrum["oracle"], relative_gap=0.0))
        self.assertTrue(expect.check(op, result(planted)).unexplained)
        planted = dict(spectrum, bound_states=[{"epsilon_cm2": -1.0}])
        self.assertTrue(expect.check(op, result(planted)).unexplained)
        planted = dict(spectrum, oracle=dict(spectrum["oracle"], lowest_epsilon_cm2=-10.0))
        self.assertTrue(expect.check(op, result(planted)).unexplained)

    def test_missed_zero_mode_is_a_known_defect_only_at_strong_coupling(self):
        def verdict(x):
            rho = 4.0 * -x / (expect.ETA * 1.0)
            op = workloads.Op(0, "cylinder", ["spectrum"],
                              {"geometry": {"kind": "cylinder", "rho": rho, "r0": 1.0}},
                              (0, 0), x, ["--verify"])
            data = {"bound_states": [], "zero_mode": None, "scan": {"n_grid": 32},
                    "oracle": {"n": 100, "r_max_cm": 20.0, "lowest_epsilon_cm2": 0.0}}
            return expect.check(op, expect.OpResult([0], [""], [""], {
                "spectrum_cylinder_l0_w0.json": json.dumps(data).encode(),
                "spectrum_cylinder.csv": b""}))

        self.assertEqual(verdict(-20.0).failures, [expect.MISSED_ZERO_MODE])
        self.assertEqual(verdict(-20.0).unexplained, [])
        self.assertEqual(verdict(-5.0).unexplained, [expect.MISSED_ZERO_MODE])


class TraceTest(unittest.TestCase):
    def test_spans_split_the_cli_span_exactly(self):
        runner = run.Runner(run.WORK / "selfcheck-trace")
        tracer = tracing.Tracer(acsusy.AcsusyError)
        tracer.install(acsusy.cli)
        try:
            for op in _take("verify-sweep", 2, 5):
                tracer.op = op.index
                runner.run(op)
        finally:
            tracer.uninstall(acsusy.cli)
            shutil.rmtree(runner.workdir, ignore_errors=True)
        self.assertIs(acsusy.cli.find_spectrum, acsusy.radial.find_spectrum)
        mains = [i for i, s in enumerate(tracer.spans) if s.name == "main"]
        self.assertGreaterEqual(len(mains), 15)
        children = {i: [] for i in mains}
        for s in tracer.spans:
            if s.name != "main":
                self.assertIn(s.parent, children)  # every layer span sits under cli.main
                children[s.parent].append(s)
        own = tracer.self_ns()
        for i in mains:
            main = tracer.spans[i]
            kids = sorted(children[i], key=lambda s: s.start_ns)
            self.assertTrue(kids)
            for a, b in zip(kids, kids[1:]):
                self.assertLessEqual(a.end_ns, b.start_ns)
            self.assertLessEqual(main.start_ns, kids[0].start_ns)
            self.assertLessEqual(kids[-1].end_ns, main.end_ns)
            self.assertGreaterEqual(own[i], 0)
            self.assertEqual(own[i] + sum(k.ns for k in kids), main.ns)


class OutputTest(unittest.TestCase):
    def test_printed_metrics_match_the_spec(self):
        spec = _bench_spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, str(Path(run.__file__)), "--workload", "verify-sweep",
                 "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, check=True, cwd=run.ROOT,
            )
            last = json.loads(out.stdout.strip().splitlines()[-1])
            self.assertEqual(sorted(last), ["attempted", "correct", "failed", "metrics"])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            self.assertEqual(got, want)
            self.assertTrue(last["correct"])
            self.assertEqual(last["failed"], 0)


if __name__ == "__main__":
    unittest.main()

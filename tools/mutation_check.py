"""Mutation check: every listed one-line mutant of src/ must fail a test.

    python3 tools/mutation_check.py

Each entry of MUTANTS names a file under src/acsusy, an exact piece of
its text, the text that replaces it, why a test must notice, and the
tests to run: whole test files, or pytest node ids (file::test) where a
file is slow to run whole. For each entry the script copies src/ and
tests/ next to this script into a fresh temporary directory, applies the
edit there and runs pytest on the named tests against the mutated copy.
It prints one line per mutant with the number of failing tests.

It first runs the union of the named tests on an unmutated copy, which
must pass. It exits non-zero if that baseline fails, if an old
text is not found exactly once in its file, or if a mutant survives
(no test fails). The repository's own tree is never edited.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (file under src/acsusy, exact old text, new text, why, test files or node ids)
MUTANTS = [
    ("radial.py",
     "bpar, half_shift = p.l + 1.0, (p.w + 1.0) / 2.0",
     "bpar, half_shift = p.l + 1.0, (p.w + 1.0) / 2.0 + 1.0",
     "cylinder Kummer a shifted by +1 (_kummer_parameters)",
     (
      "test_radial.py::test_hosting_channels_sit_exactly_at_kummer_a_zero",
      "test_radial.py::test_unbroken_cylinder_reports_zero_mode",
      "test_radial.py::test_strong_coupling_cylinder_spectrum_is_finite",
     )),
    ("units.py",
     "return -coupling_eta(constants) * rho / 4.0",
     "return -coupling_eta(constants) * rho / 2.0",
     "beta_cylinder doubled",
     ("test_units.py",)),
    ("radial.py",
     "(p.d + 1) * (r <= p.r0)",
     "p.d * (r <= p.r0)",
     "interior W' factor (d + 1) -> d (_smooth_potential)",
     (
      "test_radial.py::test_sphere_potential_piecewise_values",
      "test_radial.py::test_cylinder_potential_piecewise_values",
      "test_radial.py::test_potential_surface_jump_matches_source_discontinuity",
     )),
    ("radial.py",
     "return abs(p.w + p.beta * p.r0**2)",
     "return abs(p.w - p.beta * p.r0**2)",
     "cylinder mu = |w - p| instead of |w + p|",
     (
      "test_radial.py::test_closed_form_log_derivatives_match_mpmath",
      "test_radial.py::test_strong_coupling_cylinder_spectrum_is_finite",
      "test_radial.py::test_strongly_coupled_cylinder_keeps_its_zero_mode",
     )),
    ("radial.py",
     "return _phi_centrifugal(p) + p.d * (p.d - 2) / 4",
     "return _phi_centrifugal(p) - p.d * (p.d - 2) / 4",
     "psi-picture centrifugal d(d - 2)/4 -> -d(d - 2)/4 (cylinder -1/4 -> +1/4)",
     (
      "test_radial.py::test_cylinder_potential_piecewise_values",
      "test_radial.py::test_sphere_exterior_matches_radau",
     )),
    ("oracle.py",
     "outer_face[-1] *= 2.0",
     "outer_face[-1] *= 1.0",
     "oracle Dirichlet wall without its half-cell factor",
     ("test_oracle.py",)),
    ("oracle.py",
     "if resolution > 0.1:",
     "if resolution > 10:",
     "grid gate h^2 max|V| <= 0.1 -> <= 10",
     ("test_oracle.py",)),
    ("oracle.py",
     "if resolution > 0.1:",
     "if resolution > 0.09:",
     "grid gate h^2 max|V| <= 0.1 -> <= 0.09",
     ("test_oracle.py",)),
    ("radial.py",
     "_ZERO_MODE_MATCH_TOL = 1.0e-6",
     "_ZERO_MODE_MATCH_TOL = 1.0e-2",
     "zero-mode match tolerance 1e-6 -> 1e-2",
     ("test_radial.py::test_zero_mode_match_tolerance_splits_sphere_margins",)),
    ("radial.py",
     "_ZERO_MODE_MATCH_TOL = 1.0e-6",
     "_ZERO_MODE_MATCH_TOL = 1.0e-8",
     "zero-mode match tolerance 1e-6 -> 1e-8",
     ("test_radial.py::test_zero_mode_match_tolerance_splits_sphere_margins",)),
    ("radial.py",
     "return float(p.w * (p.w + p.d - 1))",
     "return float(p.w * (p.w + p.d))",
     "phi-picture centrifugal w(w + d - 1) -> w(w + d)",
     (
      "test_radial.py::test_sphere_potential_piecewise_values",
      "test_radial.py::test_cylinder_potential_piecewise_values",
      "test_radial.py::test_free_sphere_exterior_matches_riccati_bessel",
     )),
    ("radial.py",
     '"cylinder": (1, 1.0)',
     '"cylinder": (1, -1.0)',
     "cylinder sign sigma of W against beta flipped",
     (
      "test_radial.py::test_cylinder_potential_piecewise_values",
      "test_radial.py::test_superpotential_is_the_field_coupling",
      "test_radial.py::test_potential_surface_jump_matches_source_discontinuity",
     )),
    ("zeromode.py",
     "tail_exponent = 2.0 * f.tail_power + f.d",
     "tail_exponent = 2.0 * f.tail_power + f.d + 1",
     "norm tail exponent 2q + d -> 2q + d + 1",
     ("test_zeromode.py",)),
    ("radial.py",
     "root = optimize.brentq(mismatch, grid[i], grid[i + 1], xtol=xtol, rtol=_ROOT_RTOL)",
     "root = grid[i]",
     "bracketed root left unrefined (find_spectrum)",
     ("test_radial.py::test_planted_bound_state_is_found_by_the_scan_and_the_oracle",)),
    ("cli.py",
     "(1, -2), (2, 2), (2, -3)]",
     "(1, -2), (2, 2)]",
     "sphere default channel (2, -3) dropped",
     ("test_cli.py::test_spectrum_scans_the_default_channels_when_the_config_lists_none",)),
    ("cli.py",
     'cfg = None if args.command == "reproduce-paper" else _geometry_from(raw)',
     "cfg = _geometry_from(raw)",
     "reproduce-paper requires a geometry too",
     ("test_cli.py::test_reproduce_paper_flags_without_config",)),
    ("radial.py",
     "_SIGN_GUARD = 1.0e-3",
     "_SIGN_GUARD = 0.0",
     "sphere scan guard band removed: no grid point is integrated again at rtol",
     ("test_radial.py::test_sphere_scan_integrates_only_guard_band_points_at_rtol",)),
    ("radial.py",
     "if abs(li - le) >= _SIGN_GUARD * (abs(le) + 1.0 / p.r0):",
     "if abs(_wronskian_mismatch(li, le, p.r0)) * p.r0 >= _SIGN_GUARD:",
     "sphere scan guard band on |f| r0, which holds every strong-coupling point",
     ("test_radial.py::test_sphere_scan_integrates_only_guard_band_points_at_rtol",)),
    ("radial.py",
     "coarse = max(rtol, _SCAN_RTOL)",
     "coarse = rtol",
     "sphere scan without its coarse pass: every grid point at rtol",
     ("test_radial.py::test_sphere_scan_step_count",)),
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=ignore)


def _run_tests(tree: Path, test_files) -> tuple[int, int, str]:
    """(exit code, failing test count, pytest's last line) for one tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    probe = subprocess.run(
        [sys.executable, "-c", "import acsusy.radial; print(acsusy.radial.__file__)"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if not probe.stdout.strip().startswith(str(tree)):
        raise SystemExit(f"acsusy resolves outside the copy: {probe.stdout or probe.stderr}")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *(f"tests/{name}" for name in test_files)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else proc.stderr.strip()
    failing = sum(int(n) for n in re.findall(r"(\d+) (?:failed|errors?)\b", last))
    return proc.returncode, failing, last


def main() -> int:
    missing = []
    for name, old, _new, why, _tests in MUTANTS:
        count = (ROOT / "src" / "acsusy" / name).read_text().count(old)
        if count != 1:
            missing.append(f"{why}: old text found {count} times in {name}: {old!r}")
    if missing:
        print("\n".join(missing))
        return 1

    union = sorted({t for *_, tests in MUTANTS for t in tests})
    with tempfile.TemporaryDirectory(prefix="acsusy-mutant-") as tmp:
        tree = Path(tmp) / "baseline"
        _copy_tree(tree)
        code, _, last = _run_tests(tree, union)
        print(f"baseline ({', '.join(union)}): {last}")
        if code != 0:
            return 1

        survivors = 0
        for i, (name, old, new, why, tests) in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant{i}"
            _copy_tree(tree)
            path = tree / "src" / "acsusy" / name
            path.write_text(path.read_text().replace(old, new))
            code, failing, last = _run_tests(tree, tests)
            killed = code != 0 and failing > 0
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED'}: {why} -- {failing} failing "
                  f"in {', '.join(tests)} ({last})")
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

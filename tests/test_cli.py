"""End-to-end command tests run in process through acsusy.cli.main."""

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import acsusy
from acsusy.cli import build_parser, main

SPHERE = {"geometry": {"kind": "sphere", "rho": 2.0e6, "r0": 1.0}}
CYLINDER = {"geometry": {"kind": "cylinder", "rho": 2.0e7, "r0": 1.0}}
SLAB = {"geometry": {"kind": "slab", "rho": 2.0e6, "L": 1.0}}
FLIPPED_KAPPA = {"kappa_n": -acsusy.DEFAULT_CONSTANTS.kappa_n}


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run(tmp_path, cmd, payload=None, *extra):
    argv = [cmd, "--out", str(tmp_path)]
    if payload is not None:
        argv += ["--config", write_cfg(tmp_path, payload)]
    argv += list(extra)
    return main(argv)


def test_constants_sphere(tmp_path, capsys):
    assert run(tmp_path, "constants", SPHERE) == 0
    out = capsys.readouterr().out
    assert "eta = 6.10411e-07 cm/esu" in out
    assert "beta (sphere) = 5.11377" in out
    data = json.loads((tmp_path / "constants.json").read_text())
    assert data["geometry"]["kind"] == "sphere"
    assert data["beta_cm2"] == pytest.approx(5.113769916235723, rel=1e-12)


def test_constants_slab_shows_published_bound(tmp_path, capsys):
    assert run(tmp_path, "constants", SLAB) == 0
    out = capsys.readouterr().out
    assert "15.3413" in out
    assert "published value at rho = 2e+06 esu/cm^3: 15.28 cm^-2" in out


def test_missing_geometry_is_an_error(tmp_path, capsys):
    assert run(tmp_path, "constants") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "geometry" in err


def test_unknown_nested_key_suggests_fix(tmp_path, capsys):
    bad = {"geometry": {"kind": "sphere", "rho0": 2.0e6, "r0": 1.0}}
    assert run(tmp_path, "constants", bad) == 2
    err = capsys.readouterr().err
    assert "unknown config key 'geometry.rho0'" in err
    assert "did you mean 'geometry.rho'" in err


def test_unknown_top_level_key_suggests_fix(tmp_path, capsys):
    bad = dict(SPHERE, ngrid=200)
    assert run(tmp_path, "constants", bad) == 2
    err = capsys.readouterr().err
    assert "unknown config key 'ngrid'" in err
    assert "did you mean 'n_grid'" in err


def test_unsupported_geometry_kind(tmp_path, capsys):
    bad = {"geometry": {"kind": "torus", "rho": 1.0, "r0": 1.0}}
    assert run(tmp_path, "constants", bad) == 2
    assert "kind" in capsys.readouterr().err


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"geometry": ', encoding="utf-8")
    assert main(["constants", "--out", str(tmp_path), "--config", str(path)]) == 2
    assert "line" in capsys.readouterr().err


def test_spectrum_rejects_slab_geometry(tmp_path, capsys):
    assert run(tmp_path, "spectrum", SLAB) == 2
    assert "sphere and cylinder" in capsys.readouterr().err


def test_slab_command_rejects_sphere(tmp_path, capsys):
    assert run(tmp_path, "slab", SPHERE) == 2
    assert "slab" in capsys.readouterr().err


def test_susy_status_cylinder_unbroken(tmp_path, capsys):
    assert run(tmp_path, "susy-status", CYLINDER) == 0
    out = capsys.readouterr().out
    assert "supersymmetry: Unbroken" in out
    data = json.loads((tmp_path / "susy_status.json").read_text())
    assert data["status"] == "Unbroken"
    assert data["norm_value"] > 0.0
    assert data["threshold_data"]["beta_r0_sq"] == pytest.approx(
        -3.052056600013286, rel=1e-12
    )


def test_susy_status_sphere_broken(tmp_path, capsys):
    assert run(tmp_path, "susy-status", SPHERE) == 0
    out = capsys.readouterr().out
    assert "supersymmetry: Broken" in out
    assert "squared norm: divergent" in out
    data = json.loads((tmp_path / "susy_status.json").read_text())
    assert data["norm_value"] is None


def test_zero_mode_sphere_writes_csv(tmp_path, capsys):
    assert run(tmp_path, "zero-mode", SPHERE) == 0
    out = capsys.readouterr().out
    assert "supersymmetry: Broken" in out
    lines = (tmp_path / "zero_mode_sphere.csv").read_text().splitlines()
    assert lines[0] == "r_cm,value,drift_cm1"
    assert len(lines) == 401  # header + 400 sample rows


def test_zero_mode_slab_reports_interface_jump(tmp_path, capsys):
    assert run(tmp_path, "zero-mode", SLAB) == 0
    out = capsys.readouterr().out
    assert "max relative value jump across interfaces" in out
    lines = (tmp_path / "zero_mode_slab.csv").read_text().splitlines()
    assert lines[0] == "z_cm,value,drift_cm1"
    assert len(lines) == 402


def test_zero_mode_wrong_sign_is_a_note_not_an_error(tmp_path, capsys):
    bad = {"geometry": {"kind": "slab", "rho": -2.0e6, "L": 1.0}}
    assert run(tmp_path, "zero-mode", bad) == 0
    out = capsys.readouterr().out
    assert "no closed-form profile for this configuration" in out
    assert not (tmp_path / "zero_mode_slab.csv").exists()


def test_zero_mode_slab_is_kappa_covariant(tmp_path, capsys):
    # (kappa, rho) -> (-kappa, -rho) leaves every result unchanged: the
    # default slab k is the verdict's representative k, whatever the signs
    for name in ("ref", "a", "b"):
        (tmp_path / name).mkdir()
    assert run(tmp_path / "ref", "zero-mode", SLAB) == 0
    ref = (tmp_path / "ref" / "zero_mode_slab.csv").read_bytes()
    capsys.readouterr()

    nonconfining = dict(SLAB, constants=FLIPPED_KAPPA)
    assert run(tmp_path / "a", "zero-mode", nonconfining) == 0
    out = capsys.readouterr().out
    assert "supersymmetry: Broken" in out
    assert "no closed-form profile for this configuration" in out
    assert not (tmp_path / "a" / "zero_mode_slab.csv").exists()

    both = {"geometry": {"kind": "slab", "rho": -2.0e6, "L": 1.0}, "constants": FLIPPED_KAPPA}
    assert run(tmp_path / "b", "zero-mode", both) == 0
    assert "supersymmetry: Unbroken" in capsys.readouterr().out
    assert (tmp_path / "b" / "zero_mode_slab.csv").read_bytes() == ref


@pytest.mark.parametrize("kappa_sign", [1.0, -1.0])
def test_verify_overlap_runs_exactly_when_the_verdict_is_unbroken(tmp_path, capsys, kappa_sign):
    # cylinders at 0.98 and 1.02 times the critical line density, with
    # both density signs: only kappa rho > 0 past the threshold is Unbroken
    constants = {"kappa_n": kappa_sign * acsusy.DEFAULT_CONSTANTS.kappa_n}
    rho_c = acsusy.lambda_threshold() / math.pi  # r0 = 1
    seen = []
    for rho_sign, ratio in [(1.0, 0.98), (1.0, 1.02), (-1.0, 0.98), (-1.0, 1.02)]:
        rho = rho_sign * ratio * rho_c
        cfg = {"geometry": {"kind": "cylinder", "rho": rho, "r0": 1.0},
               "constants": constants, "oracle_n": 200}
        assert run(tmp_path, "susy-status", cfg) == 0
        assert run(tmp_path, "verify", cfg) == 0
        capsys.readouterr()
        status = json.loads((tmp_path / "susy_status.json").read_text())["status"]
        check = json.loads((tmp_path / "verify.json").read_text())
        assert ("zero_mode_overlap" in check) == (status == "Unbroken")
        seen.append(status == "Unbroken")
    assert seen == [False, kappa_sign > 0, False, kappa_sign < 0]


def test_slab_command_outputs(tmp_path, capsys):
    assert run(tmp_path, "slab", SLAB) == 0
    out = capsys.readouterr().out
    assert "k_max = 3.9168 cm^-1" in out
    assert "(identical: True)" in out
    data = json.loads((tmp_path / "slab.json").read_text())
    assert len(data["family_cm1"]) == 8
    assert data["k_max_cm1"] == pytest.approx(math.sqrt(15.34130974870717), rel=1e-12)
    assert (tmp_path / "slab_z_profile.csv").exists()
    assert (tmp_path / "slab_radial_profile.csv").exists()


def test_reproduce_paper_flags_without_config(tmp_path, capsys):
    assert main(["reproduce-paper", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "OK (+0.40%)" in out
    assert "MISMATCH (-66.04%)" in out
    data = json.loads((tmp_path / "reproduce_paper.json").read_text())
    assert data["rows"][0]["flag"].startswith("OK")
    assert data["rows"][1]["flag"].startswith("MISMATCH")


def test_verify_gauss_defect_strict_vs_displayed(tmp_path, capsys):
    # cylinder: the as-displayed interior field slope violates the
    # divergence identity by rho (1 - 4 pi); the strict variant
    # satisfies it to finite-difference accuracy
    cfg = dict(CYLINDER, oracle_n=200)
    assert run(tmp_path, "verify", cfg) == 0
    displayed = json.loads((tmp_path / "verify.json").read_text())["gauss_defect_rel"]
    assert run(tmp_path, "verify", cfg, "--strict-gauss") == 0
    strict = json.loads((tmp_path / "verify.json").read_text())["gauss_defect_rel"]
    capsys.readouterr()
    assert displayed == pytest.approx((4 * math.pi - 1) / (4 * math.pi), rel=1e-6)
    assert strict < 1e-4


def test_verify_cylinder_matches_closed_form(tmp_path, capsys):
    cfg = dict(CYLINDER, oracle_n=300)
    assert run(tmp_path, "verify", cfg) == 0
    out = capsys.readouterr().out
    assert "spectrum nonnegative: True" in out
    data = json.loads((tmp_path / "verify.json").read_text())
    assert data["algebra"]["nonneg_spectrum_flag"] is True
    assert data["zero_mode_overlap"] > 0.995
    # discretized zero mode: h^2-small against the coupling scale |beta| ~ 3
    assert abs(data["grid_ground_epsilon_cm2"]) < 0.05


def test_spectrum_single_channel_with_oracle(tmp_path, capsys):
    cfg = dict(
        CYLINDER,
        channels=[{"nu": 0}],
        n_grid=80,
        rtol=1e-8,
        oracle_n=200,
    )
    assert run(tmp_path, "spectrum", cfg, "--verify") == 0
    out = capsys.readouterr().out
    assert "zero mode at epsilon = 0" in out
    assert "oracle epsilon" in out
    data = json.loads((tmp_path / "spectrum_cylinder_l0_w0.json").read_text())
    assert data["oracle"]["relative_gap"] < 1e-3
    csv_lines = (tmp_path / "spectrum_cylinder.csv").read_text().splitlines()
    assert csv_lines[0] == "l,w,epsilon_cm2,node_count,match_residual,kind"
    assert csv_lines[-1].endswith("zero_mode")


def test_no_timestamp_reruns_are_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    cfg = write_cfg(tmp_path, SPHERE)
    assert main(["constants", "--config", cfg, "--out", str(a), "--no-timestamp"]) == 0
    assert main(["constants", "--config", cfg, "--out", str(b), "--no-timestamp"]) == 0
    assert (a / "constants.json").read_bytes() == (b / "constants.json").read_bytes()
    assert b"generated_at" not in (a / "constants.json").read_bytes()
    assert main(["constants", "--config", cfg, "--out", str(a)]) == 0
    assert b"generated_at" in (a / "constants.json").read_bytes()


def _cold(args, cwd):
    """Runs python args in a fresh interpreter that imports acsusy from this tree."""
    src = str(Path(acsusy.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )


def test_cli_start_leaves_numpy_and_scipy_unloaded(tmp_path):
    # the setup time of every CLI run depends on it; the verdict
    # commands never need numpy or scipy, so they must not load them
    code = (
        "import contextlib, io, sys\n"
        "from acsusy.cli import load_config, main\n"
        "def heavy():\n"
        "    return sorted(m for m in sys.modules if m.startswith(('numpy', 'scipy')))\n"
        "load_config(sys.argv[1])\n"
        "seen = [heavy()]\n"
        "for cmd in ('susy-status', 'constants'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main([cmd, '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "    seen.append(heavy())\n"
        "print(seen)\n"
    )
    out = _cold(["-c", code, write_cfg(tmp_path, SPHERE), str(tmp_path / "out")], tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[[], [], []]"
    assert {f.name for f in (tmp_path / "out").iterdir()} == {"susy_status.json", "constants.json"}


LAYER_MODULES = ("acsusy.radial", "acsusy.oracle", "acsusy.zeromode", "acsusy.slab",
                 "acsusy.specfun")


def test_cli_start_loads_no_layer_module(tmp_path):
    # reading a config compiles only cli, fields, units and errors; each
    # command then loads the layers it calls, and numpy/scipy stay out
    code = (
        "import contextlib, io, sys\n"
        "from acsusy.cli import load_config, main\n"
        f"layers = {LAYER_MODULES!r}\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m in layers or m.startswith(('numpy', 'scipy')))\n"
        "load_config(sys.argv[1])\n"
        "seen = [loaded()]\n"
        "for cmd in ('constants', 'reproduce-paper', 'susy-status'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main([cmd, '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "    seen.append(loaded())\n"
        "print(seen)\n"
    )
    out = _cold(["-c", code, write_cfg(tmp_path, CYLINDER), str(tmp_path / "out")], tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[[], [], [], ['acsusy.zeromode']]"


# one small config per geometry kind, and the artifacts each subcommand
# writes for it; None marks the documented typed refusal (exit 2). slab
# is the sign of kappa * rho for a slab, which decides whether it has a
# family, and 0 for the other kinds
KIND_CONFIGS = {
    "sphere": dict(SPHERE, channels=[{"l": 0, "j": 0.5}], n_grid=24),
    "cylinder": dict(CYLINDER, channels=[{"nu": 0}], n_grid=24),
    "slab": SLAB,
}
ARTIFACTS = {
    "constants": lambda kind, slab: {"constants.json"},
    "zero-mode": lambda kind, slab: set() if slab < 0 else {f"zero_mode_{kind}.csv"},
    "susy-status": lambda kind, slab: {"susy_status.json"},
    "spectrum": lambda kind, slab: (
        None if kind == "slab" else {f"spectrum_{kind}_l0_w0.json", f"spectrum_{kind}.csv"}
    ),
    "slab": lambda kind, slab: (
        {"slab.json", "slab_z_profile.csv", "slab_radial_profile.csv"} if slab > 0 else None
    ),
    "verify": lambda kind, slab: None if slab < 0 else {"verify.json"},
    "reproduce-paper": lambda kind, slab: {"reproduce_paper.json"},
}
# density factor and kappa_n override of each config variant; a case id
# names its variant unless it runs the config as given
VARIANTS = {
    "as-given": (1.0, None),
    "rho-flipped": (-1.0, None),
    "rho-zero": (0.0, None),
    "kappa-flipped": (1.0, FLIPPED_KAPPA),
}
SUBCOMMAND_CASES = [
    pytest.param(command, kind, variant, id="-".join(
        [command, kind] + ([] if variant == "as-given" else [variant])))
    for command in sorted(ARTIFACTS)
    for kind in sorted(KIND_CONFIGS)
    for variant in VARIANTS
]


@pytest.mark.parametrize("command,kind,variant", SUBCOMMAND_CASES)
def test_every_subcommand_on_every_geometry(tmp_path, capsys, command, kind, variant):
    factor, constants = VARIANTS[variant]
    cfg = copy.deepcopy(KIND_CONFIGS[kind])
    cfg["geometry"]["rho"] *= factor
    if constants is not None:
        cfg["constants"] = constants
    slab = 0.0
    if kind == "slab":
        slab = factor * (-1.0 if constants else 1.0)
    out = tmp_path / "out"
    argv = [command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]
    if command == "spectrum":
        argv.append("--verify")
    expected = ARTIFACTS[command](kind, slab)
    code = main(argv)
    if expected is None:
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists() or not any(out.iterdir())
        return
    assert code == 0
    assert {f.name for f in out.iterdir()} == expected
    for name in expected - {"reproduce_paper.json"}:
        if not name.endswith(".json"):
            continue
        data = json.loads((out / name).read_text())
        if name.startswith("spectrum_"):
            # spectrum JSON names the geometry by its kind string; the
            # default grid box is 10 r0 (sphere) or 20 r0 (cylinder)
            assert data["geometry"] == kind
            assert data["oracle"]["r_max_cm"] == {"sphere": 10.0, "cylinder": 20.0}[kind]
        else:
            assert data["geometry"]["kind"] == kind


@pytest.mark.parametrize("flag,owner", [("--verify", "spectrum"), ("--strict-gauss", "verify")])
def test_check_flags_are_accepted_only_where_they_are_read(capsys, flag, owner):
    assert build_parser().parse_args([owner, flag]).func.__name__ == "cmd_" + owner
    for command in sorted(set(ARTIFACTS) - {owner}):
        with pytest.raises(SystemExit) as exc:
            main([command, flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# the CLI loads each layer, and each layer numpy/scipy, on first use;
# every other test imports them first, so these runs are the only ones
# that take those paths cold
COLD_RUNS = [
    ("constants", "slab"),
    ("susy-status", "cylinder"),
    ("reproduce-paper", "sphere"),
    ("zero-mode", "sphere"),
    ("zero-mode", "cylinder"),
    ("zero-mode", "slab"),
    ("spectrum", "sphere"),
    ("spectrum", "cylinder"),
    ("verify", "sphere"),
    ("verify", "cylinder"),
    ("verify", "slab"),
    ("slab", "slab"),
]


@pytest.mark.parametrize("command,kind", COLD_RUNS)
def test_cold_interpreter_matches_in_process(tmp_path, capsys, monkeypatch, command, kind):
    cfg = write_cfg(tmp_path, KIND_CONFIGS[kind])
    argv = [command, "--config", cfg, "--out", "out", "--no-timestamp"]
    if command == "spectrum":
        argv.append("--verify")
    cold_dir, warm_dir = tmp_path / "cold", tmp_path / "warm"
    cold_dir.mkdir()
    warm_dir.mkdir()
    cold = _cold(["-m", "acsusy.cli", *argv], cold_dir)
    monkeypatch.chdir(warm_dir)
    code = main(argv)
    assert (cold.returncode, cold.stdout) == (code, capsys.readouterr().out)
    names = sorted(f.name for f in (warm_dir / "out").iterdir())
    assert names and names == sorted(f.name for f in (cold_dir / "out").iterdir())
    for name in names:
        assert (cold_dir / "out" / name).read_bytes() == (warm_dir / "out" / name).read_bytes()

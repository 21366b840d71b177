"""Command-line front door: config in, tables plus JSON/CSV out.

Subcommands, in the order of _COMMANDS, the one table that build_parser
reads (each command's function, help text and check flag):
    constants        derived couplings for a geometry, with units
    zero-mode        closed-form ground profile, CSV export, verdict
    susy-status      Broken/Unbroken verdict only
    spectrum         per-channel bound-state scan (sphere, cylinder)
    slab             degeneracy family, profiles, transverse residuals
    verify           independent grid checks for the configured setup
    reproduce-paper  computed vs published reference numbers

main is the one command path. It reads the JSON config and validates
its schema before any work runs (unknown keys are rejected with the full
key path), builds the constants and, for every command but
reproduce-paper, the geometry, creates the output directory, and calls
func(args, raw, constants, cfg). A typed AcsusyError or an OSError
prints "error: ..." and exits 2. Every command is deterministic for a
fixed config; JSON outputs carry a "generated_at" stamp unless
--no-timestamp is set.
"""

from __future__ import annotations

# argparse, difflib and datetime are imported where they are used:
# reading a config needs none of them
import json
import math
import sys
from pathlib import Path

from . import _EXPORTS
from ._lazy import load_on_first_use, np
from .errors import (
    AcsusyError,
    ConfigError,
    InadmissibleK,
    NonconfiningSign,
)
from .fields import GEOMETRIES, Slab, divergence_check
from .units import DEFAULT_CONSTANTS, PhysicalConstants, coupling_eta, lambda_threshold

# each layer module loads when a command first reads one of the names
# the package exports from it, so reading a config loads none of them
__getattr__ = load_on_first_use(globals(), {
    name: home
    for home in ("oracle", "radial", "slab", "specfun", "zeromode")
    for name in _EXPORTS[home]
})


class _Layers:
    """This module's globals as attributes, loading a layer name on first use.

    The commands call each layer function as _layers.<name>, so a caller
    that rebinds acsusy.cli.<name> (a tracer, a test stub) rebinds what
    they call. It reads globals(), not sys.modules[__name__], which under
    python -m with a profiler or runpy need not hold this namespace.
    """

    def __getattr__(self, name: str):
        namespace = globals()
        return namespace[name] if name in namespace else __getattr__(name)


_layers = _Layers()

__all__ = ["main"]

# previously published reference values the reproduce-paper command
# compares against; see README "Known discrepancies"
PUBLISHED_SLAB_BOUND = 15.28  # cm^-2 at the reference density below
PUBLISHED_LAMBDA_MIN = 60.62e6  # esu/cm
REFERENCE_SLAB_DENSITY = 2.0e6  # esu/cm^3
_FLAG_TOL = 0.015  # relative gate separating OK from MISMATCH

_TOP_KEYS = {
    "constants",
    "geometry",
    "channels",
    "epsilon_lo",
    "n_grid",
    "rtol",
    "oracle_n",
    "r_max",
    "k",
    "nu",
    "n_samples",
    "consistent_gaussian",
}
_CONSTANTS_KEYS = {"e_esu", "kappa_n", "m_c2_erg"}
_GEOMETRY_KEYS = {"kind", "rho", "r0", "L"}
_GEOMETRY_KINDS = tuple(GEOMETRIES)


def _reject_unknown(mapping: dict, allowed: set, path: str) -> None:
    for key in mapping:
        if key not in allowed:
            import difflib
            msg = f"unknown config key '{path}{key}'"
            hint = difflib.get_close_matches(str(key), sorted(allowed), n=1)
            if hint:
                msg += f" (did you mean '{path}{hint[0]}'?)"
            raise ConfigError(msg)


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {path} must be a number")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(f"config key {path} must be finite")
    return v


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config key {path} must be an integer")
    return value


def load_config(path: str | None) -> dict:
    """Read and schema-validate the JSON config; {} when no path given."""
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config file {path} is not valid JSON "
            f"(line {exc.lineno}, column {exc.colno}: {exc.msg})"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    validate_config(raw)
    return raw


def validate_config(raw: dict) -> None:
    """Strict schema check with key-path diagnostics."""
    _reject_unknown(raw, _TOP_KEYS, "")

    if "constants" in raw:
        block = raw["constants"]
        if not isinstance(block, dict):
            raise ConfigError("config key constants must be an object")
        _reject_unknown(block, _CONSTANTS_KEYS, "constants.")
        for key, val in block.items():
            _as_number(val, f"constants.{key}")

    if "geometry" in raw:
        geo = raw["geometry"]
        if not isinstance(geo, dict):
            raise ConfigError("config key geometry must be an object")
        _reject_unknown(geo, _GEOMETRY_KEYS, "geometry.")
        if "kind" not in geo:
            raise ConfigError("config key geometry.kind is required")
        kind = geo["kind"]
        if kind not in _GEOMETRY_KINDS:
            raise ConfigError(
                f"config key geometry.kind must be one of {list(_GEOMETRY_KINDS)}, got {kind!r}"
            )
        if "rho" not in geo:
            raise ConfigError("config key geometry.rho is required (esu/cm^3)")
        _as_number(geo["rho"], "geometry.rho")
        size = GEOMETRIES[kind].size_name
        other = "r0" if size == "L" else "L"
        if size not in geo:
            raise ConfigError(f"config key geometry.{size} is required for kind {kind!r}")
        if other in geo:
            raise ConfigError(f"config key geometry.{other} does not apply to kind {kind!r}")
        if _as_number(geo[size], f"geometry.{size}") <= 0.0:
            raise ConfigError(f"config key geometry.{size} must be positive")

    if "channels" in raw:
        channels = raw["channels"]
        if not isinstance(channels, list) or not channels:
            raise ConfigError("config key channels must be a non-empty array")
        for i, entry in enumerate(channels):
            path = f"channels[{i}]"
            if not isinstance(entry, dict):
                raise ConfigError(f"config key {path} must be an object")
            if "nu" in entry:
                _reject_unknown(entry, {"nu", "w"}, path + ".")
                nu = _as_int(entry["nu"], path + ".nu")
                if nu < 0:
                    raise ConfigError(f"config key {path}.nu must be nonnegative")
                if "w" in entry and abs(_as_int(entry["w"], path + ".w")) != nu:
                    raise ConfigError(f"config key {path}.w must satisfy |w| = nu")
            else:
                _reject_unknown(entry, {"l", "j"}, path + ".")
                if "l" not in entry or "j" not in entry:
                    raise ConfigError(
                        f"config key {path} needs l and j (or nu for a planar channel)"
                    )
                l = _as_int(entry["l"], path + ".l")
                if l < 0:
                    raise ConfigError(f"config key {path}.l must be nonnegative")
                _as_number(entry["j"], path + ".j")

    for key in ("epsilon_lo", "rtol", "r_max", "k"):
        if key in raw:
            _as_number(raw[key], key)
    if "epsilon_lo" in raw and float(raw["epsilon_lo"]) >= 0.0:
        raise ConfigError("config key epsilon_lo must be negative (cm^-2)")
    if "rtol" in raw and float(raw["rtol"]) <= 0.0:
        raise ConfigError("config key rtol must be positive")
    if "r_max" in raw and float(raw["r_max"]) <= 0.0:
        raise ConfigError("config key r_max must be positive (cm)")
    if "k" in raw and float(raw["k"]) < 0.0:
        raise ConfigError("config key k must be nonnegative (cm^-1)")
    for key, floor in (("n_grid", 2), ("oracle_n", 100), ("n_samples", 1), ("nu", 0)):
        if key in raw and _as_int(raw[key], key) < floor:
            raise ConfigError(f"config key {key} must be at least {floor}")
    if "consistent_gaussian" in raw and not isinstance(raw["consistent_gaussian"], bool):
        raise ConfigError("config key consistent_gaussian must be a boolean")


def _constants_from(raw: dict) -> PhysicalConstants:
    block = raw.get("constants")
    if not block:
        return DEFAULT_CONSTANTS
    try:
        return PhysicalConstants(**block)
    except ValueError as exc:
        raise ConfigError(f"constants override rejected: {exc}") from exc


def _geometry_from(raw: dict):
    if "geometry" not in raw:
        raise ConfigError(
            "config key 'geometry' is required for this command (pass --config FILE)"
        )
    geo = raw["geometry"]
    cls = GEOMETRIES[geo["kind"]]
    return cls(float(geo["rho"]), float(geo[cls.size_name]))


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_csv(args, name: str, header: list, rows: list) -> None:
    path = Path(args.out) / name
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def _write_json(args, name: str, payload: dict) -> None:
    path = Path(args.out) / name
    body = dict(payload)
    if not args.no_timestamp:
        from datetime import datetime, timezone
        body["generated_at"] = datetime.now(timezone.utc).isoformat()
    path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def _geometry_payload(cfg) -> dict:
    return {"kind": cfg.kind, "rho_esu_cm3": cfg.density, f"{cfg.size_name}_cm": cfg.size}


def cmd_constants(args, raw, constants, cfg) -> int:
    eta = coupling_eta(constants)
    lam = lambda_threshold(constants)
    print(f"eta = {eta:.6g} cm/esu")
    print(f"critical line density = {lam:.6g} esu/cm")
    payload = {
        "eta_cm_per_esu": eta,
        "lambda_threshold_esu_per_cm": lam,
        "geometry": _geometry_payload(cfg),
    }
    if cfg.kind == "slab":
        bound = cfg.k_bound_sq(constants)
        print(f"slab confinement bound 4*pi*eta*rho = {bound:.6g} cm^-2")
        print(
            f"published value at rho = {REFERENCE_SLAB_DENSITY:.3g} esu/cm^3: "
            f"{PUBLISHED_SLAB_BOUND:.6g} cm^-2"
        )
        payload["k_bound_sq_cm2"] = bound
        payload["published_bound_cm2"] = PUBLISHED_SLAB_BOUND
    else:
        beta = cfg.beta(constants)
        print(f"beta ({cfg.kind}) = {beta:.6g} cm^-2, beta*r0^2 = {beta * cfg.r0 ** 2:.6g}")
        payload["beta_cm2"] = beta
    if cfg.kind == "cylinder":
        print(f"line density = {cfg.line_density:.6g} esu/cm (threshold {lam:.6g} esu/cm)")
        payload["line_density_esu_per_cm"] = cfg.line_density
    _write_json(args, "constants.json", payload)
    return 0


def _verdict_lines(verdict) -> None:
    print(f"supersymmetry: {verdict.status}")
    print(f"criterion: {verdict.criterion}")
    norm = verdict.norm_value
    print(f"squared norm: {'divergent' if math.isinf(norm) else format(norm, '.6g')}")


def cmd_susy_status(args, raw, constants, cfg) -> int:
    verdict = _layers.susy_status(cfg, constants)
    _verdict_lines(verdict)
    payload = {
        "status": verdict.status,
        "criterion": verdict.criterion,
        "norm_value": None if math.isinf(verdict.norm_value) else verdict.norm_value,
        "threshold_data": verdict.threshold_data,
        "geometry": _geometry_payload(cfg),
    }
    _write_json(args, "susy_status.json", payload)
    return 0


def _zero_mode_profile(cfg, constants, raw, verdict):
    if cfg.kind == "sphere":
        return _layers.sphere_zero_mode(cfg.beta(constants), cfg.r0)
    if cfg.kind == "cylinder":
        return _layers.cylinder_zero_mode(cfg.beta(constants), cfg.r0)
    # default k: the verdict's representative family member; a Broken
    # slab has none, and k = 0 gives the free profile or the refusal
    k = float(raw.get("k", verdict.threshold_data.get("representative_k", 0.0)))
    return _layers.slab_zero_mode(
        k,
        cfg.rho0,
        cfg.L,
        constants=constants,
        consistent_gaussian=bool(raw.get("consistent_gaussian", False)),
    )


def cmd_zero_mode(args, raw, constants, cfg) -> int:
    verdict = _layers.susy_status(cfg, constants)
    _verdict_lines(verdict)
    try:
        profile = _zero_mode_profile(cfg, constants, raw, verdict)
    except (NonconfiningSign, InadmissibleK) as exc:
        print(f"no closed-form profile for this configuration: {exc}")
        return 0
    if cfg.kind == "slab":
        coords = np.linspace(-3.0 * cfg.L, 3.0 * cfg.L, 401)
        header = ["z_cm", "value", "drift_cm1"]
    else:
        coords = np.linspace(0.0, 5.0 * cfg.r0, 401)[1:]
        header = ["r_cm", "value", "drift_cm1"]
    rows = [(float(x), profile(float(x)), profile.drift_at(float(x))) for x in coords]
    _write_csv(args, f"zero_mode_{cfg.kind}.csv", header, rows)
    if profile.continuity_defects:
        worst = max(profile.continuity_defects)
        print(f"max relative value jump across interfaces: {worst:.3g}")
    return 0


# the (l, w) channels spectrum scans when the config lists none: l = 0,
# 1, 2 with both spin-orbit partners of each l > 0
_DEFAULT_CHANNELS = {
    "sphere": [(0, 0), (1, 1), (1, -2), (2, 2), (2, -3)],
    "cylinder": [(0, 0), (1, 1), (1, -1), (2, 2), (2, -2)],
}


def _channels_from(raw: dict, kind: str) -> list[tuple[int, int]]:
    if "channels" not in raw:
        return _DEFAULT_CHANNELS[kind]
    pairs = []
    for i, entry in enumerate(raw["channels"]):
        if "nu" in entry:
            if kind != "cylinder":
                raise ConfigError(
                    f"config key channels[{i}]: planar (nu) channels need a cylinder geometry"
                )
            nu = int(entry["nu"])
            pairs.append((nu, int(entry.get("w", nu))))
        else:
            if kind != "sphere":
                raise ConfigError(
                    f"config key channels[{i}]: (l, j) channels need a sphere geometry"
                )
            l = int(entry["l"])
            pairs.append((l, _layers.spin_orbit_eigenvalue(l, float(entry["j"]))))
    return pairs


def cmd_spectrum(args, raw, constants, cfg) -> int:
    if cfg.kind == "slab":
        raise ConfigError("spectrum supports sphere and cylinder geometries only")
    kind, beta = cfg.kind, cfg.beta(constants)
    n_grid = int(raw.get("n_grid", 400))
    rtol = float(raw.get("rtol", 1.0e-10))
    oracle_n = int(raw.get("oracle_n", 400))
    r_max = float(raw.get("r_max", cfg.default_r_max))
    eps_lo = float(raw["epsilon_lo"]) if "epsilon_lo" in raw else None

    combined_rows = []
    for l, w in _channels_from(raw, kind):
        p = _layers.RadialProblem(geometry=kind, l=l, w=w, beta=beta, r0=cfg.r0)
        report = _layers.find_spectrum(p, eps_lo, n_grid=n_grid, rtol=rtol)
        payload = report.to_json_dict()
        line = (
            f"{kind} l={l} w={w:+d}: {len(report.bound_states)} bound state(s)"
            f"{', zero mode at epsilon = 0' if report.zero_mode else ''}"
        )
        if args.verify:
            pair = _layers.richardson_pair(p, oracle_n, r_max, m=3)
            oracle_eps = float(pair["extrapolated"][0])
            payload["oracle"] = {
                "n": oracle_n,
                "r_max_cm": r_max,
                "lowest_epsilon_cm2": oracle_eps,
                "extrapolated_cm2": [float(v) for v in pair["extrapolated"]],
            }
            target = 0.0 if report.zero_mode else (
                report.bound_states[0].epsilon if report.bound_states else None
            )
            if target is not None:
                denom = max(abs(target), abs(oracle_eps), abs(beta))
                rel = abs(target - oracle_eps) / denom
                payload["oracle"]["relative_gap"] = rel
                line += f" | oracle epsilon = {oracle_eps:.6g} cm^-2 (rel gap {rel:.2e})"
            else:
                line += f" | oracle lowest epsilon = {oracle_eps:.6g} cm^-2"
        print(line)
        print(f"  note: {report.classification_notes}")
        _write_json(args, f"spectrum_{kind}_l{l}_w{w}.json", payload)
        combined_rows.extend(report.csv_rows())

    _write_csv(
        args,
        f"spectrum_{kind}.csv",
        ["l", "w", "epsilon_cm2", "node_count", "match_residual", "kind"],
        combined_rows,
    )
    return 0


def cmd_slab(args, raw, constants, cfg) -> int:
    if cfg.kind != "slab":
        raise ConfigError("the slab command needs geometry.kind = 'slab'")
    n_samples = int(raw.get("n_samples", 8))
    family = _layers.degeneracy_family(cfg, constants, n_samples)
    # degeneracy_family refused every Broken slab, so the verdict holds a family
    threshold = _layers.susy_status(cfg, constants).threshold_data
    k_max = threshold["k_max"]
    print(f"admissible family: 0 <= k < k_max = {k_max:.6g} cm^-1 (continuous degeneracy)")
    print(f"sampled k values [cm^-1]: {', '.join(format(k, '.6g') for k in family)}")
    probes = [
        math.sqrt(Slab(cfg.rho0, L_probe).k_bound_sq(constants))
        for L_probe in (0.1, 1.0, 10.0)
    ]
    same = all(b == probes[0] for b in probes)
    print(
        f"k_max at this density for thickness 0.1 / 1 / 10 cm: "
        f"{', '.join(format(b, '.6g') for b in probes)} (identical: {same})"
    )

    nu = int(raw.get("nu", 0))
    k_rep = float(raw.get("k", threshold["representative_k"]))
    sol = _layers.build_slab_solution(
        nu, k_rep, cfg, constants,
        consistent_gaussian=bool(raw.get("consistent_gaussian", False)),
    )
    residuals = _layers.slab_residual(sol, cfg, constants)
    print(
        f"representative member nu={nu}, k={k_rep:.6g} cm^-1: transverse-equation "
        f"relative leftover interior {residuals['interior']:.3g}, "
        f"exterior {residuals['exterior']:.3g}"
    )
    _write_csv(args, "slab_z_profile.csv", ["z_cm", "value"], sol.tabulate_z(401, 3.0 * cfg.L))
    r_span = 12.0 / k_rep if k_rep > 0.0 else 10.0 * cfg.L
    _write_csv(args, "slab_radial_profile.csv", ["r_cm", "value"],
               sol.tabulate_radial(401, r_span))
    payload = {
        "geometry": _geometry_payload(cfg),
        "k_max_cm1": k_max,
        "family_cm1": family,
        "representative": {"nu": nu, "k_cm1": k_rep},
        "residuals": residuals,
    }
    _write_json(args, "slab.json", payload)
    return 0


def _field_check(cfg, strict: bool) -> float:
    scale = cfg.size
    h = 1.0e-3 * scale
    points = [
        (0.31 * scale, 0.17 * scale, 0.23 * scale),
        (0.0, 0.11 * scale, 0.41 * scale),
        (1.7 * scale, 0.4 * scale, 2.2 * scale),
    ]
    worst = 0.0
    for x in points:
        worst = max(worst, abs(divergence_check(cfg, x, h, strict_gauss=strict)))
    return worst


def cmd_verify(args, raw, constants, cfg) -> int:
    payload: dict = {"geometry": _geometry_payload(cfg)}

    gauss = _field_check(cfg, args.strict_gauss)
    rel_gauss = gauss / max(4.0 * math.pi * abs(cfg.density), 1.0e-300)
    print(
        f"field divergence check ({'strict' if args.strict_gauss else 'as-displayed'} "
        f"normalization): max |div E - 4 pi rho| / |4 pi rho| = {rel_gauss:.3g}"
    )
    payload["gauss_defect_rel"] = rel_gauss

    if cfg.kind == "slab":
        sol = _layers.build_slab_solution(0, 0.0, cfg, constants)
        residuals = _layers.slab_residual(sol, cfg, constants)
        print(
            f"transverse residuals at k = 0: interior {residuals['interior']:.3g}, "
            f"exterior {residuals['exterior']:.3g}"
        )
        payload["slab_residuals"] = residuals
        _write_json(args, "verify.json", payload)
        return 0

    beta = cfg.beta(constants)
    n = int(raw.get("oracle_n", 400))
    r_max = float(raw.get("r_max", cfg.default_r_max))

    pair = _layers.build_susy_pair(cfg.kind, beta, cfg.r0, n, r_max)
    H = _layers.build_grid_hamiltonian(pair.problem, n, r_max)
    algebra = _layers.susy_algebra_check(pair, H)
    print(f"nilpotency defect |Q^2| = {algebra['q2_norm']:.3g} (structural)")
    print(
        "anticommutator vs grid Hamiltonian, relative band residual = "
        f"{algebra['anticommutator_vs_h_residual']:.3g}"
    )
    print(
        f"spectrum nonnegative: {algebra['nonneg_spectrum_flag']} "
        f"(min eigenvalues {algebra['min_eig_minus']:.6g} / {algebra['min_eig_plus']:.6g} cm^-2)"
    )
    payload["algebra"] = algebra

    ground = float(_layers.lowest_eigenvalues(H, 1)[0])
    print(f"grid ground state epsilon = {ground:.6g} cm^-2 (scale {H.scale():.3g})")
    payload["grid_ground_epsilon_cm2"] = ground

    # of spheres and cylinders, only cylinders past the threshold are Unbroken
    if _layers.susy_status(cfg, constants).status == "Unbroken":
        overlap = _layers.grid_mode_overlap(H, _layers.cylinder_zero_mode(beta, cfg.r0))
        print(f"grid ground state vs closed-form zero mode: overlap = {overlap:.6f}")
        payload["zero_mode_overlap"] = overlap

    _write_json(args, "verify.json", payload)
    return 0


def cmd_reproduce_paper(args, raw, constants, cfg) -> int:
    rho_ref = REFERENCE_SLAB_DENSITY
    computed_bound = Slab(rho_ref, 1.0).k_bound_sq(constants)  # any thickness
    computed_lambda = lambda_threshold(constants)

    def flag(computed: float, published: float) -> str:
        rel = (computed - published) / abs(published)
        verdict = "OK" if abs(rel) <= _FLAG_TOL else "MISMATCH"
        return f"{verdict} ({rel * 100.0:+.2f}%)"

    rows = [
        (
            f"slab confinement bound at rho = {rho_ref:.3g} esu/cm^3 [cm^-2]",
            computed_bound,
            PUBLISHED_SLAB_BOUND,
            flag(computed_bound, PUBLISHED_SLAB_BOUND),
        ),
        (
            "critical line density [esu/cm]",
            computed_lambda,
            PUBLISHED_LAMBDA_MIN,
            flag(computed_lambda, PUBLISHED_LAMBDA_MIN),
        ),
    ]
    width = max(len(r[0]) for r in rows)
    print(f"{'quantity'.ljust(width)}  {'computed':>14}  {'published':>14}  flag")
    for name, comp, pub, fl in rows:
        print(f"{name.ljust(width)}  {comp:>14.6g}  {pub:>14.6g}  {fl}")
    print(
        "note: the published critical line density does not follow from its own "
        "formula with the frozen constants; see README, 'Known discrepancies'."
    )
    payload = {
        "rows": [
            {"quantity": name, "computed": comp, "published": pub, "flag": fl}
            for name, comp, pub, fl in rows
        ]
    }
    _write_json(args, "reproduce_paper.json", payload)
    return 0


# subcommand -> (function, help text, its check flag and that flag's help
# or None), in the order --help lists them
_COMMANDS = {
    "constants": (cmd_constants, "derived couplings with units", None),
    "zero-mode": (cmd_zero_mode, "ground profile, CSV, verdict", None),
    "susy-status": (cmd_susy_status, "Broken/Unbroken verdict", None),
    "spectrum": (
        cmd_spectrum,
        "bound-state scan per channel",
        ("--verify", "add independent grid cross-checks"),
    ),
    "slab": (cmd_slab, "degeneracy family and profiles", None),
    "verify": (
        cmd_verify,
        "independent grid checks",
        ("--strict-gauss", "use Gauss-law field normalizations instead of the as-displayed ones"),
    ),
    "reproduce-paper": (cmd_reproduce_paper, "computed vs published values", None),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH", help="JSON configuration file")
    shared.add_argument("--out", metavar="DIR", default=".", help="output directory")
    shared.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit generated_at from JSON outputs (byte-stable reruns)",
    )

    parser = argparse.ArgumentParser(
        prog="acsusy",
        description="Supersymmetry analysis of a neutral magnetic moment in charged sources",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, flag) in _COMMANDS.items():
        command = sub.add_parser(name, parents=[shared], help=text)
        if flag is not None:
            command.add_argument(flag[0], action="store_true", help=flag[1])
        command.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = load_config(args.config)
        constants = _constants_from(raw)
        cfg = None if args.command == "reproduce-paper" else _geometry_from(raw)
        Path(args.out).mkdir(parents=True, exist_ok=True)
        return args.func(args, raw, constants, cfg)
    except (AcsusyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

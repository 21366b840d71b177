"""The names acsusy and acsusy.cli resolve on first use, and what they resolve to.

A caller that rebinds a layer function on acsusy.cli (a tracer, a test
stub) relies on the commands reading it from that namespace at call time.
"""

import importlib
import json
from pathlib import Path

import pytest

import acsusy
import acsusy.cli
from acsusy.errors import AcsusyError

SUBMODULES = ("cli", "errors", "fields", "oracle", "radial", "slab", "specfun", "units",
              "zeromode")

# home module -> the layer names the CLI commands call from it
CLI_LAYER_NAMES = {
    "fields": ["divergence_check"],
    "oracle": [
        "build_grid_hamiltonian",
        "build_susy_pair",
        "grid_mode_overlap",
        "lowest_eigenvalues",
        "richardson_pair",
        "susy_algebra_check",
    ],
    "radial": ["RadialProblem", "find_spectrum"],
    "slab": ["build_slab_solution", "degeneracy_family", "slab_residual"],
    "specfun": ["spin_orbit_eigenvalue"],
    "zeromode": ["cylinder_zero_mode", "slab_zero_mode", "sphere_zero_mode", "susy_status"],
}


@pytest.mark.parametrize("name", [n for n in acsusy.__all__ if n != "__version__"])
def test_every_export_is_the_object_of_its_home_module(name):
    value = getattr(acsusy, name)
    home = importlib.import_module(value.__module__)
    assert home.__name__.startswith("acsusy.")
    assert getattr(home, name) is value


def test_star_import_binds_every_export():
    namespace = {}
    exec("from acsusy import *", namespace)
    assert set(acsusy.__all__) <= set(namespace)
    for name in acsusy.__all__:
        assert namespace[name] is getattr(acsusy, name)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodules_resolve_as_attributes(name):
    module = getattr(acsusy, name)
    assert module is importlib.import_module(f"acsusy.{name}")
    assert name in dir(acsusy)


@pytest.mark.parametrize("module", [acsusy, acsusy.cli], ids=["acsusy", "acsusy.cli"])
def test_unknown_names_raise_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "NoSuchLayer")


@pytest.mark.parametrize("home,name", [
    (home, name) for home, names in CLI_LAYER_NAMES.items() for name in names
])
def test_cli_layer_names_are_their_home_objects(home, name):
    assert getattr(acsusy.cli, name) is getattr(importlib.import_module(f"acsusy.{home}"), name)


@pytest.mark.parametrize("command,name,config", [
    ("spectrum", "find_spectrum",
     {"geometry": {"kind": "sphere", "rho": 2.0e6, "r0": 1.0}, "channels": [{"l": 0, "j": 0.5}]}),
    ("verify", "susy_algebra_check", {"geometry": {"kind": "cylinder", "rho": 2.0e7, "r0": 1.0}}),
])
def test_commands_call_layers_through_the_cli_namespace(
    tmp_path, monkeypatch, capsys, command, name, config
):
    def refuse(*args, **kwargs):
        raise AcsusyError(f"stubbed {name}")

    monkeypatch.setattr(acsusy.cli, name, refuse)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    assert acsusy.cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: stubbed {name}\n"


def test_commands_run_where_sys_modules_does_not_hold_the_cli(tmp_path, capsys):
    # as under python -m cProfile -m acsusy.cli: the code runs in a
    # namespace that sys.modules[__name__] does not name
    source = Path(acsusy.cli.__file__)
    namespace = {"__name__": "acsusy_cli_copy", "__package__": "acsusy"}
    exec(compile(source.read_text(encoding="utf-8"), str(source), "exec"), namespace)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"geometry": {"kind": "cylinder", "rho": 2.0e7, "r0": 1.0}}),
                   encoding="utf-8")
    for command in ("susy-status", "verify"):
        assert namespace["main"]([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert "grid ground state vs closed-form zero mode" in capsys.readouterr().out

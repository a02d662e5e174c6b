import json
import math
import re
import sys
import warnings
from pathlib import Path

import pytest

from wallflow.config import ingest_waveform, load_config, validate_config
from wallflow.errors import ConfigError, ValidationError
from wallflow.materials import derive_coefficients

from oracles import waveform_at


def minimal_raw():
    return {
        "geometry": {"radius": 0.5, "length": 6.0},
        "fluid": {"density": 1.0, "viscosity": 0.035},
        "wall": {"youngs_modulus": 7.5e5, "poisson_ratio": 0.5,
                 "thickness": 0.1, "density": 1.1},
        "mesh": {"n_z": 8, "n_r": 4, "wall_elements": 8},
        "time": {"t_final": 0.01, "n_steps": 10},
        "waveform": {"inlet": {"kind": "constant", "value": 100.0},
                     "outlet": {"kind": "constant", "value": 0.0}},
    }


def full_raw():
    """The minimal config with every optional key set to a non-default."""
    raw = minimal_raw()
    raw["wall"].update(viscous_modulus=10.0, viscous_poisson=0.3)
    raw["waveform"]["outlet"] = {"kind": "sine", "amplitude": 1.0,
                                 "frequency": 2.0, "phase": 0.5}
    raw["mode"] = "viscoelastic"
    raw["initial_data"] = {"kind": "bump", "eta_amplitude": 0.01,
                           "v_amplitude": 0.1}
    raw["output"] = {"directory": "out", "cadence": 2, "fields": "csv",
                     "ledger": "none"}
    return raw


def key_paths(raw, path=()):
    """Every key path below the sections of ``raw``, kind tags left out."""
    for key, val in raw.items():
        if path and key != "kind":
            yield path + (key,)
        if isinstance(val, dict):
            yield from key_paths(val, path + (key,))


def parent_of(raw, path):
    for key in path[:-1]:
        raw = raw[key]
    return raw


@pytest.mark.parametrize("path", list(key_paths(minimal_raw())), ids=".".join)
def test_deleting_a_required_key_names_it_required(path):
    raw = minimal_raw()
    del parent_of(raw, path)[path[-1]]
    with pytest.raises(ConfigError) as info:
        validate_config(raw)
    assert f"{'.'.join(path)} is required" in info.value.problems


NUMERIC_PATHS = [p for p in key_paths(full_raw())
                 if type(parent_of(full_raw(), p)[p[-1]]) in (int, float)]


@pytest.mark.parametrize("path", NUMERIC_PATHS, ids=".".join)
def test_a_string_in_a_numeric_key_is_named(path):
    raw = full_raw()
    integer = type(parent_of(raw, path)[path[-1]]) is int
    parent_of(raw, path)[path[-1]] = "7"
    with pytest.raises(ConfigError) as info:
        validate_config(raw)
    says = "must be a positive integer" if integer else "must be a number"
    assert f"{'.'.join(path)} {says}" in info.value.problems


DEFAULTS = [
    (("mode",), "viscoelastic"),
    (("wall", "viscous_modulus"), 0.0),
    (("wall", "viscous_poisson"), 0.0),
    (("waveform", "outlet", "phase"), 0.0),
    (("initial_data",), {"kind": "zero"}),
    (("initial_data", "eta_amplitude"), 0.0),
    (("initial_data", "v_amplitude"), 0.0),
    (("output",), {"directory": "wallflow-out", "cadence": 10,
                   "fields": "none", "ledger": "csv"}),
    (("output", "directory"), "wallflow-out"),
    (("output", "cadence"), 10),
    (("output", "fields"), "none"),
    (("output", "ledger"), "csv"),
]


@pytest.mark.parametrize("path, default", DEFAULTS,
                         ids=[".".join(path) for path, _ in DEFAULTS])
def test_a_left_out_key_gets_its_default(path, default):
    raw = full_raw()
    assert validate_config(raw) == raw      # every key set, nothing filled
    del parent_of(raw, path)[path[-1]]
    filled = parent_of(validate_config(raw), path)[path[-1]]
    assert filled == default and type(filled) is type(default)


def test_minimal_config_fills_defaults():
    cfg = validate_config(minimal_raw())
    assert cfg["mode"] == "viscoelastic"
    assert cfg["initial_data"] == {"kind": "zero"}
    assert cfg["output"]["ledger"] == "csv"
    assert cfg["wall"]["viscous_modulus"] == 0.0
    # the filled config validates as it stands, so the wall it gives
    # derive_coefficients lies in every range the table gives a wall field
    assert validate_config(cfg) == cfg
    c = derive_coefficients(cfg)
    assert c.D0 == c.D1 == c.D2 == 0.0


def test_readme_configuration_example_validates():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```json\n(.*?)```", readme.read_text(), re.DOTALL)
    assert len(blocks) == 1
    cfg = validate_config(json.loads(blocks[0]))
    assert cfg["output"]["ledger"] == "csv"


def test_bad_poisson_ratio_named():
    raw = minimal_raw()
    raw["wall"]["poisson_ratio"] = 1.2
    with pytest.raises(ConfigError, match="poisson_ratio"):
        validate_config(raw)


@pytest.mark.parametrize("time, problem", [
    ({"t_final": 0.0, "n_steps": 10}, "time.t_final must be positive"),
    ({"t_final": -0.01, "n_steps": 10}, "time.t_final must be positive"),
    ({"t_final": 0.01, "n_steps": 0}, "time.n_steps must be a positive"),
], ids=["t_final-zero", "t_final-negative", "n_steps-zero"])
def test_nonpositive_time_step_rejected(time, problem):
    # the run's dt = t_final / n_steps is positive for every valid config
    raw = minimal_raw()
    raw["time"] = time
    with pytest.raises(ConfigError, match=problem):
        validate_config(raw)


@pytest.mark.parametrize("t_final, n_steps", [(1e-310, 20), (5e-324, 2)],
                         ids=["subnormal-dt", "zero-dt"])
def test_a_time_step_that_underflows_is_a_config_error(tmp_path, capsys,
                                                       t_final, n_steps):
    # over a subnormal dt the densities' quotients are inf, and a dt that
    # rounds to 0 divides by zero: each stops at the configuration, with no
    # warning and no step
    from wallflow.cli import main
    raw = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / "smoke_zero.json").read_text())
    raw["time"] = {"t_final": t_final, "n_steps": n_steps}
    raw["output"]["directory"] = str(tmp_path / "out")
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error:")
    assert "time.t_final" in err[0] and captured.out == ""
    assert not (tmp_path / "out").exists()
    # a step whose quotients are finite passes
    raw["time"] = {"t_final": 1e-300, "n_steps": n_steps}
    assert validate_config(raw)["time"]["t_final"] == 1e-300


@pytest.mark.parametrize("key", ["eta_amplitude", "v_amplitude"])
@pytest.mark.parametrize("value", [5e-324, -5e-324, 1e-310])
def test_subnormal_initial_amplitude_rejected(key, value):
    # a subnormal bump keeps too few digits for u0's top-edge trace to
    # equal v0 (see test_initial_data); the smallest normal one passes
    raw = minimal_raw()
    raw["initial_data"] = {"kind": "bump", key: value}
    with pytest.raises(ConfigError, match=f"initial_data.{key} must be 0 or"):
        validate_config(raw)
    smallest = math.copysign(sys.float_info.min, value)
    raw["initial_data"][key] = smallest
    assert validate_config(raw)["initial_data"][key] == smallest


def test_elastic_mode_with_viscosity_is_contradictory():
    raw = minimal_raw()
    raw["mode"] = "elastic"
    raw["wall"]["viscous_modulus"] = 10.0
    with pytest.raises(ConfigError, match="contradicts"):
        validate_config(raw)
    raw["wall"]["viscous_modulus"] = 0.0
    assert validate_config(raw)["mode"] == "elastic"


def test_unknown_keys_rejected():
    raw = minimal_raw()
    raw["extra_section"] = {}
    with pytest.raises(ConfigError, match="unknown key"):
        validate_config(raw)
    raw = minimal_raw()
    raw["fluid"]["viscocity"] = 1.0
    with pytest.raises(ConfigError, match="fluid.viscocity"):
        validate_config(raw)


def test_misaligned_meshes_rejected():
    raw = minimal_raw()
    raw["mesh"]["wall_elements"] = 6
    with pytest.raises(ConfigError, match="wall_elements"):
        validate_config(raw)


def test_problems_are_aggregated():
    raw = minimal_raw()
    raw["wall"]["poisson_ratio"] = -1.0
    raw["fluid"]["density"] = -2.0
    del raw["time"]
    try:
        validate_config(raw)
        raise AssertionError("expected ConfigError")
    except ConfigError as exc:
        assert len(exc.problems) >= 3


REQUIRED_SECTIONS = ("geometry", "fluid", "wall", "mesh", "time", "waveform")


@pytest.mark.parametrize("section", REQUIRED_SECTIONS)
@pytest.mark.parametrize("value, says", [(None, "is required"),
                                         ([], "must be an object")],
                         ids=["absent", "not-an-object"])
def test_required_section_absent_or_not_an_object(section, value, says):
    raw = minimal_raw()
    if value is None:
        del raw[section]
    else:
        raw[section] = value
    with pytest.raises(ConfigError) as info:
        validate_config(raw)
    assert f"section '{section}' {says}" in info.value.problems


def test_waveform_specs_validated():
    raw = minimal_raw()
    raw["waveform"]["inlet"] = {"kind": "triangle", "value": 1.0}
    with pytest.raises(ConfigError, match="kind"):
        validate_config(raw)
    raw["waveform"]["inlet"] = {"kind": "pulse", "amplitude": 1.0,
                                "duration": -1.0}
    with pytest.raises(ConfigError, match="duration"):
        validate_config(raw)


def test_rigid_mode_needs_zero_initial_data():
    raw = minimal_raw()
    raw["mode"] = "rigid"
    raw["initial_data"] = {"kind": "bump", "eta_amplitude": 0.1}
    with pytest.raises(ConfigError, match="rigid"):
        validate_config(raw)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(minimal_raw()))
    cfg = load_config(path)
    assert cfg["_base_dir"] == str(tmp_path)
    with pytest.raises(ConfigError, match="not valid JSON"):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        load_config(bad)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")


def test_ingest_csv_waveform(tmp_path):
    path = tmp_path / "wave.csv"
    path.write_text("t,p\n0.0,1.0\n0.5,2.0\n1.0,0.0\n")
    w = ingest_waveform({"kind": "csv", "path": "wave.csv"}, str(tmp_path))
    assert w.average(0.0, 0.5) == pytest.approx(1.5, rel=1e-14)


def test_ingest_csv_rejections(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValidationError, match="no samples"):
        ingest_waveform({"kind": "csv", "path": str(empty)})
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,1.0\n0.0,2.0\n")
    with pytest.raises(ValidationError, match="strictly increasing"):
        ingest_waveform({"kind": "csv", "path": str(bad)})


def test_ingest_closed_forms():
    assert waveform_at(ingest_waveform({"kind": "constant", "value": 2.0}),
                       0.0) == 2.0
    sine = ingest_waveform({"kind": "sine", "amplitude": 1.0,
                            "frequency": 2.0, "phase": 0.0})
    assert waveform_at(sine, 0.125) == pytest.approx(1.0, rel=1e-12)
    pulse = ingest_waveform({"kind": "pulse", "amplitude": 4.0,
                             "duration": 1.0})
    assert waveform_at(pulse, [0.5])[0] == pytest.approx(4.0, rel=1e-12)

"""Run-configuration files: strict JSON schema, defaults, and builders.

A configuration is a JSON object; unknown keys are rejected anywhere in the
tree and all violations are collected into one error.  The reference unit
convention is CGS throughout.
"""

import csv
import json
import math
import os
import sys

import numpy as np

from . import waveforms as wf
from .errors import ConfigError, ValidationError
from .materials import ShellMaterial

_SCHEMA = {
    "geometry": {"radius", "length"},
    "fluid": {"density", "viscosity"},
    "wall": {"youngs_modulus", "poisson_ratio", "thickness", "density",
             "viscous_modulus", "viscous_poisson"},
    "mesh": {"n_z", "n_r", "wall_elements"},
    "time": {"t_final", "n_steps"},
    "waveform": {"inlet", "outlet"},
    "initial_data": {"kind", "eta_amplitude", "v_amplitude"},
    "output": {"directory", "cadence", "fields", "ledger"},
}
_TOP_KEYS = set(_SCHEMA) | {"mode"}
_WAVE_KEYS = {
    "constant": {"kind", "value"},
    "sine": {"kind", "amplitude", "frequency", "phase"},
    "pulse": {"kind", "amplitude", "duration"},
    "csv": {"kind", "path"},
}
_MODES = {"viscoelastic", "elastic", "rigid"}

_DEFAULTS = {
    "mode": "viscoelastic",
    "initial_data": {"kind": "zero"},
    "output": {"directory": "wallflow-out", "cadence": 10,
               "fields": "none", "ledger": "csv"},
}


def is_finite(val):
    """``math.isfinite``, except that an int too large for a float is not
    finite: json parses NaN, Infinity and integers of any size."""
    try:
        return math.isfinite(val)
    except OverflowError:
        return False


def _require_number(problems, obj, section, key, positive=False,
                    nonnegative=False):
    if key not in obj:
        problems.append(f"{section}.{key} is required")
        return None
    val = obj[key]
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        problems.append(f"{section}.{key} must be a number")
        return None
    if not is_finite(val):
        problems.append(f"{section}.{key} must be finite, got {val}")
        return None
    if positive and not val > 0:
        problems.append(f"{section}.{key} must be positive")
    if nonnegative and val < 0:
        problems.append(f"{section}.{key} must be nonnegative")
    return val


def _optional_section(problems, raw, section):
    """The raw ``section``, or its default when absent or not an object."""
    sub = raw.get(section, _DEFAULTS[section])
    if isinstance(sub, dict):
        return sub
    problems.append(f"section '{section}' must be an object")
    return _DEFAULTS[section]


def _check_unknown(problems, obj, allowed, section):
    for key in obj:
        if key not in allowed:
            problems.append(f"unknown key {section}.{key}")


def validate_config(raw):
    """Validate and normalize a raw configuration dict.

    Returns a new dict with defaults filled in; raises :class:`ConfigError`
    listing every violation at once.
    """
    problems = []
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    _check_unknown(problems, raw, _TOP_KEYS, "<top>")

    cfg = {}
    for section in ("geometry", "fluid", "wall", "mesh", "time", "waveform"):
        sub = raw.get(section)
        if not isinstance(sub, dict):
            problems.append(f"section '{section}' must be an object"
                            if section in raw
                            else f"section '{section}' is required")
            sub = {}
        else:
            _check_unknown(problems, sub, _SCHEMA[section], section)
        cfg[section] = dict(sub)

    _require_number(problems, cfg["geometry"], "geometry", "radius", positive=True)
    _require_number(problems, cfg["geometry"], "geometry", "length", positive=True)
    _require_number(problems, cfg["fluid"], "fluid", "density", positive=True)
    _require_number(problems, cfg["fluid"], "fluid", "viscosity", positive=True)

    wall = cfg["wall"]
    wall.setdefault("viscous_modulus", 0.0)
    wall.setdefault("viscous_poisson", 0.0)
    _require_number(problems, wall, "wall", "youngs_modulus", positive=True)
    _require_number(problems, wall, "wall", "thickness", positive=True)
    _require_number(problems, wall, "wall", "density", positive=True)
    _require_number(problems, wall, "wall", "viscous_modulus", nonnegative=True)
    for key in ("poisson_ratio", "viscous_poisson"):
        val = _require_number(problems, wall, "wall", key)
        if val is not None and not 0.0 <= val < 1.0:
            problems.append(f"wall.{key} = {val} must lie in [0, 1)")

    for key in ("n_z", "n_r", "wall_elements"):
        val = cfg["mesh"].get(key)
        if not isinstance(val, int) or isinstance(val, bool) or val < 1:
            problems.append(f"mesh.{key} must be a positive integer")
    _require_number(problems, cfg["time"], "time", "t_final", positive=True)
    nsteps = cfg["time"].get("n_steps")
    if not isinstance(nsteps, int) or isinstance(nsteps, bool) or nsteps < 1:
        problems.append("time.n_steps must be a positive integer")

    mode = raw.get("mode", _DEFAULTS["mode"])
    if not isinstance(mode, str) or mode not in _MODES:
        problems.append(f"mode must be one of {sorted(_MODES)}, got {mode!r}")
    if mode == "elastic" and wall.get("viscous_modulus", 0.0) not in (0, 0.0):
        problems.append("mode 'elastic' contradicts wall.viscous_modulus > 0; "
                        "set it to 0 or use mode 'viscoelastic'")
    cfg["mode"] = mode

    for side in ("inlet", "outlet"):
        spec = cfg["waveform"].get(side)
        if not isinstance(spec, dict):
            problems.append(f"waveform.{side} is required")
            continue
        kind = spec.get("kind")
        if not isinstance(kind, str) or kind not in _WAVE_KEYS:
            problems.append(f"waveform.{side}.kind must be one of "
                            f"{sorted(_WAVE_KEYS)}, got {kind!r}")
            continue
        _check_unknown(problems, spec, _WAVE_KEYS[kind], f"waveform.{side}")
        if kind == "constant":
            _require_number(problems, spec, f"waveform.{side}", "value")
        elif kind == "sine":
            _require_number(problems, spec, f"waveform.{side}", "amplitude")
            _require_number(problems, spec, f"waveform.{side}", "frequency")
            if "phase" in spec:
                _require_number(problems, spec, f"waveform.{side}", "phase")
        elif kind == "pulse":
            _require_number(problems, spec, f"waveform.{side}", "amplitude")
            _require_number(problems, spec, f"waveform.{side}", "duration",
                            positive=True)
        elif kind == "csv" and not isinstance(spec.get("path"), str):
            problems.append(f"waveform.{side}.path must be a string")

    init = dict(_optional_section(problems, raw, "initial_data"))
    _check_unknown(problems, init, _SCHEMA["initial_data"], "initial_data")
    if init.get("kind") not in ("zero", "bump"):
        problems.append("initial_data.kind must be 'zero' or 'bump'")
    if init.get("kind") == "bump":
        init.setdefault("eta_amplitude", 0.0)
        init.setdefault("v_amplitude", 0.0)
        for key in ("eta_amplitude", "v_amplitude"):
            val = _require_number(problems, init, "initial_data", key)
            # a subnormal bump underflows in the compatibility check
            if val is not None and 0 < abs(val) < sys.float_info.min:
                problems.append(f"initial_data.{key} must be 0 or of "
                                f"magnitude at least {sys.float_info.min:.4g},"
                                f" got {val}")
    if mode == "rigid" and init.get("kind") != "zero":
        problems.append("rigid mode requires zero initial data")
    cfg["initial_data"] = init

    output = {**_DEFAULTS["output"],
              **_optional_section(problems, raw, "output")}
    _check_unknown(problems, output, _SCHEMA["output"], "output")
    if not isinstance(output["directory"], str):
        problems.append("output.directory must be a string")
    elif not output["directory"]:
        problems.append("output.directory must not be empty")
    if output["fields"] not in ("none", "csv", "vtk", "both"):
        problems.append("output.fields must be none|csv|vtk|both")
    if output["ledger"] not in ("none", "csv"):
        problems.append(f"output.ledger must be none|csv, got "
                        f"{output['ledger']!r}: the ledger is written as CSV")
    cadence = output["cadence"]
    if not isinstance(cadence, int) or isinstance(cadence, bool) or cadence < 1:
        problems.append("output.cadence must be a positive integer")
    cfg["output"] = output

    if not problems and cfg["mesh"].get("wall_elements") != cfg["mesh"].get("n_z"):
        problems.append("mesh.wall_elements must equal mesh.n_z so interface "
                        "nodes coincide")
    if problems:
        raise ConfigError(problems)
    return cfg


def load_config(path):
    """Parse and validate a configuration file, returning the config dict.

    The dict keeps the file's directory under the key ``_base_dir`` so
    relative waveform paths resolve against the file location.
    """
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    cfg = validate_config(raw)
    cfg["_base_dir"] = os.path.dirname(os.path.abspath(path))
    return cfg


def build_material(cfg):
    """The wall of a validated config: its wall section, whose keys are the
    material's fields, on the tube's radius and length."""
    geo = cfg["geometry"]
    return ShellMaterial(radius=geo["radius"], length=geo["length"],
                         **cfg["wall"])


def _read_waveform_csv(path):
    times, values = [], []
    try:
        with open(path, newline="") as f:
            for row in csv.reader(f):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                try:
                    t, v = float(row[0]), float(row[1])
                except (ValueError, IndexError):
                    # tolerate a single header line, nothing else
                    if not times:
                        continue
                    raise ValidationError(
                        f"{path}: malformed waveform row {row!r}") from None
                if not (math.isfinite(t) and math.isfinite(v)):
                    raise ValidationError(
                        f"{path}: non-finite waveform sample {row!r}")
                times.append(t)
                values.append(v)
    except OSError as exc:
        raise ValidationError(f"cannot read waveform csv {path}: {exc}") from exc
    if not times:
        raise ValidationError(f"waveform csv {path} holds no samples")
    return np.array(times), np.array(values)


def ingest_waveform(spec, base_dir="."):
    """Build a waveform object from its config spec."""
    kind = spec["kind"]
    if kind == "constant":
        return wf.Constant(spec["value"])
    if kind == "sine":
        return wf.Sine(spec["amplitude"], spec["frequency"],
                       spec.get("phase", 0.0))
    if kind == "pulse":
        return wf.HalfCosinePulse(spec["amplitude"], spec["duration"])
    if kind == "csv":
        path = spec["path"]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        return wf.Sampled(*_read_waveform_csv(path))
    raise ConfigError(f"unknown waveform kind {kind!r}")

"""Run-configuration files: strict JSON schema, defaults, and builders.

A configuration is a JSON object checked against one table that gives
each key its rule and default; unknown keys are rejected anywhere in the
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


def is_finite(val):
    """``math.isfinite``, except that an int too large for a float is not
    finite: json parses NaN, Infinity and integers of any size."""
    try:
        return math.isfinite(val)
    except OverflowError:
        return False


# Each rule returns what is wrong with a value, or None when it is admissible.

def _number(val):
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        return "must be a number"
    if not is_finite(val):
        return f"must be finite, got {val}"
    return None


def _positive(val):
    return _number(val) or (None if val > 0 else "must be positive")


def _nonnegative(val):
    return _number(val) or (None if val >= 0 else "must be nonnegative")


def _ratio(val):
    return _number(val) or (None if 0.0 <= val < 1.0
                            else f"= {val} must lie in [0, 1)")


def _amplitude(val):
    # a subnormal bump keeps too few digits for u0's top-edge trace to
    # equal v0
    return _number(val) or (
        None if val == 0 or abs(val) >= sys.float_info.min
        else f"must be 0 or of magnitude at least {sys.float_info.min:.4g},"
             f" got {val}")


def _count(val):
    if isinstance(val, int) and not isinstance(val, bool) and val >= 1:
        return None
    return "must be a positive integer"


def _text(val):
    if not isinstance(val, str):
        return "must be a string"
    return None if val else "must not be empty"


def _choice(*options, why=""):
    def rule(val):
        if isinstance(val, str) and val in options:
            return None
        return f"must be one of {sorted(options)}, got {val!r}{why}"
    return rule


class _Kinds(dict):
    """A kind-tagged object: its ``kind`` names the table of its other keys."""


# key -> (rule, default); a key with no default (None) is required.  A rule
# that is a table, or a _Kinds of tables, is a nested object.
_WAVEFORM = _Kinds(
    constant={"value": (_number, None)},
    sine={"amplitude": (_number, None), "frequency": (_number, None),
          "phase": (_number, 0.0)},
    pulse={"amplitude": (_number, None), "duration": (_positive, None)},
    csv={"path": (_text, None)})
_TABLE = {
    "geometry": ({"radius": (_positive, None), "length": (_positive, None)},
                 None),
    "fluid": ({"density": (_positive, None), "viscosity": (_positive, None)},
              None),
    "wall": ({"youngs_modulus": (_positive, None),
              "poisson_ratio": (_ratio, None),
              "thickness": (_positive, None), "density": (_positive, None),
              "viscous_modulus": (_nonnegative, 0.0),
              "viscous_poisson": (_ratio, 0.0)}, None),
    "mesh": ({"n_z": (_count, None), "n_r": (_count, None),
              "wall_elements": (_count, None)}, None),
    "time": ({"t_final": (_positive, None), "n_steps": (_count, None)}, None),
    "mode": (_choice("viscoelastic", "elastic", "rigid"), "viscoelastic"),
    "waveform": ({"inlet": (_WAVEFORM, None), "outlet": (_WAVEFORM, None)},
                 None),
    "initial_data": (_Kinds(zero={}, bump={
        "eta_amplitude": (_amplitude, 0.0),
        "v_amplitude": (_amplitude, 0.0)}), {"kind": "zero"}),
    "output": ({"directory": (_text, "wallflow-out"),
                "cadence": (_count, 10),
                "fields": (_choice("none", "csv", "vtk", "both"), "none"),
                "ledger": (_choice("none", "csv",
                                   why=": the ledger is written as CSV"),
                           "csv")}, {}),
}


def _check(obj, table, path, problems):
    """``obj`` with the defaults of ``table`` filled in; appends its unknown
    keys, missing keys and broken rules to ``problems``."""
    for key in obj:
        if key not in table:
            problems.append(f"unknown key {path or '<top>'}.{key}")
    out = {}
    for key, (rule, default) in table.items():
        name = (f"{path}.{key}" if path else key if callable(rule)
                else f"section '{key}'")
        val = obj.get(key, default)
        if key not in obj and default is None:
            problems.append(f"{name} is required")
        elif callable(rule):
            says = rule(val)
            if says:
                problems.append(f"{name} {says}")
            out[key] = val
        elif not isinstance(val, dict):
            problems.append(f"{name} must be an object")
        else:
            sub = f"{path}.{key}" if path else key
            if isinstance(rule, _Kinds):
                kind = _choice(*rule)
                says = kind(val.get("kind"))
                if says:
                    problems.append(f"{sub}.kind {says}")
                    continue
                rule = {"kind": (kind, None), **rule[val["kind"]]}
            out[key] = _check(val, rule, sub, problems)
    return out


def validate_config(raw):
    """Validate and normalize a raw configuration dict.

    Returns a new dict with defaults filled in; raises :class:`ConfigError`
    listing every violation at once.
    """
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    problems = []
    cfg = _check(raw, _TABLE, "", problems)
    # the rules that relate two keys
    if (cfg.get("mode") == "elastic"
            and cfg.get("wall", {}).get("viscous_modulus", 0) not in (0, 0.0)):
        problems.append("mode 'elastic' contradicts wall.viscous_modulus > 0; "
                        "set it to 0 or use mode 'viscoelastic'")
    if (cfg.get("mode") == "rigid"
            and cfg.get("initial_data", {}).get("kind", "zero") != "zero"):
        problems.append("rigid mode requires zero initial data")
    if not problems:
        if cfg["mesh"]["wall_elements"] != cfg["mesh"]["n_z"]:
            problems.append("mesh.wall_elements must equal mesh.n_z so "
                            "interface nodes coincide")
        # the bump's interpolant p has 0 <= p <= bump <= 1, so R + eta0 > 0
        amp = cfg["initial_data"].get("eta_amplitude", 0.0)
        if not amp > -cfg["geometry"]["radius"]:
            problems.append(f"initial_data.eta_amplitude = {amp} must exceed "
                            "-geometry.radius: the wall is closed at t = 0")
        # each step's system holds both densities over dt
        t, wall = cfg["time"], cfg["wall"]
        dt = t["t_final"] / t["n_steps"] if is_finite(t["n_steps"]) else 0.0
        rho = max(cfg["fluid"]["density"], wall["density"] * wall["thickness"])
        if not (dt > 0 and math.isfinite(rho / dt)):
            problems.append(
                f"time.t_final = {t['t_final']} over {t['n_steps']} steps "
                f"gives dt = {dt:.4g}, on which fluid.density / dt or "
                "wall.density * wall.thickness / dt is not finite")
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
        return wf.Sine(spec["amplitude"], spec["frequency"], spec["phase"])
    if kind == "pulse":
        return wf.HalfCosinePulse(spec["amplitude"], spec["duration"])
    if kind == "csv":
        path = spec["path"]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        return wf.Sampled(*_read_waveform_csv(path))
    raise ConfigError(f"unknown waveform kind {kind!r}")

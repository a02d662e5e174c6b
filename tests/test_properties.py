"""Property test: the split scheme has no time-step restriction.

Random small admissible cases (mesh, wall model and material, radius,
constant inlet pressure, bump initial data, step count and a step size drawn
over six decades) must all produce a ledger that passes every check of the
verifier.  Each case is drawn from its own seed by NumPy's generator, so the
drawn configs depend on the seed alone, not on the literals of any loaded
module.
"""

import importlib
import json
import math
import sys

import numpy as np
import pytest

from wallflow import driver
from wallflow.config import validate_config
from wallflow.energy import verify_run

SEEDS = range(30)


def case(seed):
    """The raw config of draw ``seed``.  A uniform draw over these ranges
    never gives the subnormal initial amplitude ``validate_config``
    rejects."""
    rng = np.random.default_rng(seed)

    def uniform(lo, hi):
        return float(rng.uniform(lo, hi))

    def log_uniform(lo, hi):
        return 10.0 ** uniform(math.log10(lo), math.log10(hi))

    def integer(lo, hi):    # lo to hi inclusive
        return int(rng.integers(lo, hi, endpoint=True))

    n_z = integer(2, 6)
    mode = ["viscoelastic", "elastic"][integer(0, 1)]
    radius = uniform(0.1, 2.0)
    wall = {"youngs_modulus": log_uniform(1e3, 1e7),
            "poisson_ratio": uniform(0.0, 0.5),
            "thickness": uniform(0.01, 0.3) * radius,
            "density": uniform(0.5, 2.0)}
    if mode == "viscoelastic":
        wall["viscous_modulus"] = log_uniform(1.0, 1e4)
        wall["viscous_poisson"] = uniform(0.0, 0.5)
    n_steps = integer(1, 5)
    dt = log_uniform(1e-6, 1.0)
    return {
        "geometry": {"radius": radius, "length": uniform(1.0, 8.0)},
        "fluid": {"density": uniform(0.5, 2.0),
                  "viscosity": log_uniform(1e-3, 1.0)},
        "wall": wall,
        "mesh": {"n_z": n_z, "n_r": integer(1, 3), "wall_elements": n_z},
        "time": {"t_final": n_steps * dt, "n_steps": n_steps},
        "mode": mode,
        "waveform": {"inlet": {"kind": "constant",
                               "value": uniform(-1e4, 1e4)},
                     "outlet": {"kind": "constant", "value": 0.0}},
        "initial_data": {"kind": "bump",
                         "eta_amplitude": uniform(-0.3, 0.3) * radius,
                         "v_amplitude": uniform(-10.0, 10.0)},
        "output": {"cadence": 1},
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_no_time_step_restriction(seed):
    result = driver.run(validate_config(case(seed)))
    report = verify_run(result.ledger)
    assert report.ok, f"status {result.status}\n{report}"


def test_a_new_literal_leaves_the_draws_unchanged(tmp_path, monkeypatch):
    before = [json.dumps(case(seed)) for seed in SEEDS]
    (tmp_path / "holds_a_new_literal.py").write_text("VALUE = 0.6180339887\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        assert importlib.import_module("holds_a_new_literal").VALUE > 0.6
        assert [json.dumps(case(seed)) for seed in SEEDS] == before
    finally:
        sys.modules.pop("holds_a_new_literal", None)

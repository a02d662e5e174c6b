"""Property test: the split scheme has no time-step restriction.

Random small admissible cases (mesh, wall model and material, radius,
constant inlet pressure, bump initial data, step count and a step size drawn
over six decades) must all produce a ledger that passes every check of the
verifier.  The draw is derandomized so the suite stays deterministic.
"""

import math
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from wallflow import driver
from wallflow.config import validate_config
from wallflow.energy import verify_run


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


def amplitude(lo, hi, scale=1.0):
    """``scale`` times a float in [lo, hi], drawn as 0 or of magnitude at
    least the smallest normal float, as ``validate_config`` requires of an
    initial amplitude."""
    return st.floats(lo, hi).map(lambda a: a * scale).filter(
        lambda a: a == 0.0 or abs(a) >= sys.float_info.min)


@st.composite
def cases(draw):
    n_z = draw(st.integers(2, 6))
    mode = draw(st.sampled_from(["viscoelastic", "elastic"]))
    radius = draw(st.floats(0.1, 2.0))
    wall = {"youngs_modulus": draw(log_uniform(1e3, 1e7)),
            "poisson_ratio": draw(st.floats(0.0, 0.5)),
            "thickness": draw(st.floats(0.01, 0.3)) * radius,
            "density": draw(st.floats(0.5, 2.0))}
    if mode == "viscoelastic":
        wall["viscous_modulus"] = draw(log_uniform(1.0, 1e4))
        wall["viscous_poisson"] = draw(st.floats(0.0, 0.5))
    n_steps = draw(st.integers(1, 5))
    dt = draw(log_uniform(1e-6, 1.0))
    return {
        "geometry": {"radius": radius, "length": draw(st.floats(1.0, 8.0))},
        "fluid": {"density": draw(st.floats(0.5, 2.0)),
                  "viscosity": draw(log_uniform(1e-3, 1.0))},
        "wall": wall,
        "mesh": {"n_z": n_z, "n_r": draw(st.integers(1, 3)),
                 "wall_elements": n_z},
        "time": {"t_final": n_steps * dt, "n_steps": n_steps},
        "mode": mode,
        "waveform": {"inlet": {"kind": "constant",
                               "value": draw(st.floats(-1e4, 1e4))},
                     "outlet": {"kind": "constant", "value": 0.0}},
        "initial_data": {"kind": "bump",
                         "eta_amplitude": draw(amplitude(-0.3, 0.3, radius)),
                         "v_amplitude": draw(amplitude(-10.0, 10.0))},
        "output": {"cadence": 1},
    }


@settings(max_examples=30, deadline=None, derandomize=True)
@given(cases())
def test_no_time_step_restriction(raw):
    result = driver.run(validate_config(raw))
    report = verify_run(result.ledger)
    assert report.ok, f"status {result.status}\n{report}"

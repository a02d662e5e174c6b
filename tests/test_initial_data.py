"""Initial data are compatible by construction: ``RunSetup.initial_data``
builds them, the configuration rejects the one geometric failure (a
collapsed wall) and the run the one numeric one (overflow of the fields
or of their wall energy), and an independent check,
``oracles.compatibility_failures``, confirms the rest."""

import json
import math
import sys

import numpy as np
import pytest

from wallflow.cli import main
from wallflow.config import validate_config
from wallflow.driver import RunSetup
from wallflow.errors import ConfigError

from oracles import compatibility_failures, to_free, to_full


def bump_raw(n_z=8, n_r=4, radius=0.5, length=6.0, eta=0.01, v=1.0):
    return {
        "geometry": {"radius": radius, "length": length},
        "fluid": {"density": 1.0, "viscosity": 0.035},
        "wall": {"youngs_modulus": 7.5e5, "poisson_ratio": 0.5,
                 "thickness": 0.1, "density": 1.1},
        "mesh": {"n_z": n_z, "n_r": n_r, "wall_elements": n_z},
        "time": {"t_final": 0.001, "n_steps": 5},
        "waveform": {"inlet": {"kind": "constant", "value": 0.0},
                     "outlet": {"kind": "constant", "value": 0.0}},
        "initial_data": {"kind": "bump", "eta_amplitude": eta,
                         "v_amplitude": v},
    }


def run_cli(tmp_path, capsys, raw):
    """Exit code and stderr lines of ``wallflow run`` on ``raw``."""
    raw = dict(raw, output={"directory": str(tmp_path / "out")})
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    code = main(["run", str(path)])
    return code, capsys.readouterr().err.splitlines()


def initial_failures(setup):
    """The compatibility conditions that the initial data of ``setup``
    break, its free wall DOFs taken with their clamped ends."""
    eta0, v0, u0 = setup.initial_data()
    return compatibility_failures(setup, to_full(eta0), to_full(v0), u0)


def draws(n_z, count=16):
    """Seeded bump configurations on ``n_z`` wall elements that the
    configuration accepts: radius 1e-2 to 10, length 1e-2 to 1e2, and
    amplitudes over 300 decades, a negative ``eta_amplitude`` above -R."""
    rng = np.random.default_rng(n_z)
    for _ in range(count):
        radius = 10.0 ** rng.uniform(-2.0, 1.0)
        length = 10.0 ** rng.uniform(-2.0, 2.0)
        if rng.random() < 0.5:
            eta = -radius * 10.0 ** rng.uniform(-300.0, 0.0)
        else:
            eta = 10.0 ** rng.uniform(-307.0, 300.0)
        v = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-307.0,
                                                                300.0)
        yield bump_raw(n_z, int(rng.integers(1, 6)), radius, length, eta, v)


def log10_wall_energy(setup, raw):
    """log10 of the larger term of the bump's wall energy ``eta0^T A eta0 +
    rho_s_h v0^T M_s v0``: each amplitude squared in log space against the
    form of the bump's unit Hermite interpolant (nodal values and slopes),
    so nothing overflows; -inf for a fully clamped wall."""
    g, c, nodes = setup.grams, setup.coeffs, setup.shell_mesh.nodes
    length, spec = raw["geometry"]["length"], raw["initial_data"]
    s = nodes / length
    p = to_free(np.column_stack([
        16.0 * s**2 * (1.0 - s)**2,
        32.0 * s * (1.0 - s) * (1.0 - 2.0 * s) / length]).ravel())
    forms = [(spec["eta_amplitude"],
              p @ ((c.C0 * g[0] + c.C1 * g[1] + c.C2 * g[2]) @ p)),
             (spec["v_amplitude"], c.rho_s_h * (p @ (g[0] @ p)))]
    return max((2.0 * math.log10(abs(a)) + math.log10(q)
                for a, q in forms if a != 0 and q > 0), default=-math.inf)


@pytest.mark.parametrize("n_z", range(1, 20))
def test_initial_data_are_compatible(n_z):
    # a draw is rejected exactly when its wall energy leaves the float
    # range (log10 of the largest double is 308.25; two terms at most
    # double the larger), and its data are compatible otherwise
    zero = bump_raw(n_z)
    zero["initial_data"] = {"kind": "zero"}
    for raw in [zero, *draws(n_z)]:
        setup = RunSetup(validate_config(raw))
        energy = (log10_wall_energy(setup, raw)
                  if raw["initial_data"]["kind"] == "bump" else -math.inf)
        try:
            failures = initial_failures(setup)
        except ConfigError as exc:
            assert "overflow" in str(exc) and energy > 308.25 - 0.31, raw
            continue
        assert energy < 308.26, raw
        assert failures == [], (failures, raw)


def test_a_subnormal_amplitude_breaks_the_trace():
    # why the configuration rejects a subnormal amplitude: too few digits
    # are left for u0's top-edge trace to equal v0
    cfg = validate_config(bump_raw(eta=0.0, v=sys.float_info.min))
    setup = RunSetup(cfg)
    assert initial_failures(setup) == []
    cfg["initial_data"]["v_amplitude"] = 1e-320
    assert initial_failures(setup) == ["interface trace"]


@pytest.mark.parametrize("n_z, times_radius", [
    (8, -1.0), (8, -1.5),
    # these ran before the rule: one element clamps the whole wall, and
    # on an odd count the contact check's nodes and quadrature points miss
    # the trough at z = L/2
    (1, -1.5), (3, -1.0), (5, -1.0), (7, -1.0),
])
def test_a_collapsed_wall_is_a_config_error(tmp_path, capsys, n_z,
                                            times_radius):
    raw = bump_raw(n_z, eta=times_radius * 0.5, v=0.0)
    with pytest.raises(ConfigError, match="initial_data.eta_amplitude"):
        validate_config(raw)
    code, err = run_cli(tmp_path, capsys, raw)
    assert code == 1 and len(err) == 1
    assert "initial_data.eta_amplitude" in err[0]


@pytest.mark.parametrize("key", ["eta_amplitude", "v_amplitude"])
def test_overflowing_initial_fields_are_a_config_error(tmp_path, capsys, key):
    raw = bump_raw(length=0.1, eta=0.0, v=0.0)
    raw["initial_data"][key] = 1e307
    setup = RunSetup(validate_config(raw))
    with pytest.raises(ConfigError, match="overflow"):
        setup.initial_data()
    code, err = run_cli(tmp_path, capsys, raw)
    assert code == 1 and len(err) == 1
    assert err[0].startswith("configuration error:")


def test_the_outlet_column_is_at_exactly_the_length():
    # at this length hz * n_z misses L by an ulp; the velocity and pressure
    # columns still end at L, where the clamped wall's bump, and so the
    # radial velocity, is exactly zero.  On this non-dyadic mesh a second
    # Hermite evaluation of v0 misses the trace map by an ulp at some edge
    # nodes: the top edge's radial u0 is the trace map's own, bit for bit
    length = 0.19016851592596093
    setup = RunSetup(validate_config(bump_raw(n_z=5, n_r=2, length=length)))
    fm = setup.fluid_mesh
    assert 10 * (fm.hz / 2.0) != length
    assert fm.velocity_z[-1] == fm.pressure_z[-1] == length
    assert fm.velocity_z[-1] == setup.shell_mesh.nodes[-1]
    _, v0, u0 = setup.initial_data()
    assert np.abs(u0[fm.n_velocity_nodes:]).max() > 0.0
    assert np.all(u0[fm.n_velocity_nodes + fm.outlet_nodes] == 0.0)
    assert np.array_equal(u0[fm.n_velocity_nodes + fm.top_nodes],
                          setup.trace_op @ v0)


def test_the_top_row_is_at_exactly_the_radius():
    # at n_r 49 the top row of ir * hr / 2 misses r = 1 by an ulp; the
    # velocity and pressure rows still end at 1, so a bump's top-edge
    # radial velocity is the wall trace of v0 bit for bit
    setup = RunSetup(validate_config(bump_raw(n_z=4, n_r=49)))
    fm = setup.fluid_mesh
    assert (fm.n_rows - 1) * (fm.hr / 2.0) != 1.0
    assert fm.velocity_r[-1] == fm.pressure_r[-1] == 1.0
    _, v0, u0 = setup.initial_data()
    trace = setup.trace_op @ v0
    assert np.abs(trace).max() > 0.0
    assert np.array_equal(u0[fm.n_velocity_nodes + fm.top_nodes], trace)

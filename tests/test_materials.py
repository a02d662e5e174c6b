from types import SimpleNamespace

import numpy as np
import pytest

from wallflow import coupling, fluid
from wallflow.config import validate_config
from wallflow.errors import ConfigError
from wallflow.materials import derive_coefficients

from oracles import compatibility_failures, to_free


def reference_config(**overrides):
    """The geometry and wall sections that ``derive_coefficients`` reads,
    each key of ``overrides`` set in the section that holds it."""
    geometry = dict(radius=0.5, length=6.0)
    wall = dict(youngs_modulus=7.5e5, poisson_ratio=0.5, thickness=0.1,
                density=1.1, viscous_modulus=1000.0, viscous_poisson=0.5)
    for key, val in overrides.items():
        (geometry if key in geometry else wall)[key] = val
    return {"geometry": geometry, "wall": wall}


def test_bending_coefficient_hand_value():
    # (h^3/12) * E / (1 - sigma^2) at h=0.1, E=7.5e5, sigma=0.5 is 750/9
    c = derive_coefficients(reference_config())
    assert c.C2 == pytest.approx(750.0 / 9.0, rel=1e-14)


def test_all_coefficient_formulas():
    cfg = reference_config()
    c = derive_coefficients(cfg)
    m, r = cfg["wall"], cfg["geometry"]["radius"]
    h = m["thickness"]
    el = m["youngs_modulus"] / (1 - m["poisson_ratio"]**2)
    bend = 1 + h**2 / (12 * r**2)
    assert c.C0 == pytest.approx(h * el / r**2 * bend, rel=1e-14)
    assert c.C1 == pytest.approx(h**3 / 6 * el * m["poisson_ratio"] / r**2,
                                 rel=1e-14)
    nu_v = m["viscous_poisson"]
    cv = m["viscous_modulus"] / (1 - nu_v**2)
    dv = m["viscous_modulus"] * nu_v / (1 - nu_v**2)
    assert c.D0 == pytest.approx(h * cv / r**2 * bend, rel=1e-14)
    assert c.D1 == pytest.approx(h**3 / 6 * dv / r**2, rel=1e-14)
    assert c.D2 == pytest.approx(h**3 / 12 * cv, rel=1e-14)
    assert c.rho_s_h == pytest.approx(m["density"] * h, rel=1e-15)


def test_zero_wall_viscosity_zeroes_damping():
    c = derive_coefficients(reference_config(viscous_modulus=0.0))
    assert c.D0 == 0.0 and c.D1 == 0.0 and c.D2 == 0.0


def test_zero_poisson_drops_c1():
    c = derive_coefficients(reference_config(poisson_ratio=0.0))
    assert c.C1 == 0.0
    assert c.C0 > 0.0 and c.C2 > 0.0


def test_coefficients_scale_linearly_with_stiffness():
    # 50 seeded scales in [0.25, 8], both ends included
    base = derive_coefficients(reference_config())
    scales = np.random.default_rng(64).uniform(0.25, 8.0, 50)
    scales[:2] = 0.25, 8.0
    for scale in scales:
        scaled = derive_coefficients(
            reference_config(youngs_modulus=7.5e5 * scale))
        for name in ("C0", "C1", "C2"):
            assert getattr(scaled, name) == pytest.approx(
                scale * getattr(base, name), rel=1e-12)
        for name in ("D0", "D1", "D2"):
            assert getattr(scaled, name) == getattr(base, name)


def test_derivation_is_deterministic():
    a = derive_coefficients(reference_config())
    b = derive_coefficients(reference_config())
    assert a == b


@pytest.mark.parametrize("field,value", [
    ("youngs_modulus", -1.0),
    ("youngs_modulus", 0.0),
    ("poisson_ratio", 1.2),
    ("poisson_ratio", -0.1),
    ("viscous_modulus", -5.0),
    ("viscous_poisson", 1.0),
    ("thickness", 0.0),
    ("radius", -0.5),
    ("density", 0.0),
    ("length", 0.0),
])
def test_out_of_range_parameters_name_the_field(field, value):
    # derive_coefficients reads only a validated config, whose table holds
    # every range of a wall field and of the radius
    raw = {**reference_config(**{field: value}),
           "fluid": {"density": 1.0, "viscosity": 0.035},
           "mesh": {"n_z": 8, "n_r": 4, "wall_elements": 8},
           "time": {"t_final": 0.01, "n_steps": 10},
           "waveform": {"inlet": {"kind": "constant", "value": 100.0},
                        "outlet": {"kind": "constant", "value": 0.0}}}
    with pytest.raises(ConfigError, match=rf"\.{field} ") as info:
        validate_config(raw)
    assert len(info.value.problems) == 1


# The compatibility conditions on the initial data, as the independent
# oracle check states them, fail on data that break them; that the data
# ``RunSetup.initial_data`` builds pass is tests/test_initial_data.py.

@pytest.fixture
def small_meshes():
    fm = fluid.FluidMesh(8, 4, 6.0)
    sm = fm.wall
    setup = SimpleNamespace(shell_mesh=sm, fluid_mesh=fm, length=6.0,
                            radius=0.5)
    return setup, coupling.build_coupling(fm)


def zero_data(setup):
    n_wall = 2 * setup.shell_mesh.n_nodes
    return (np.zeros(n_wall), np.zeros(n_wall),
            np.zeros(2 * setup.fluid_mesh.n_velocity_nodes))


def test_compatibility_zero_data_passes(small_meshes):
    setup, trace = small_meshes
    assert compatibility_failures(setup, *zero_data(setup), trace=trace) == []


def test_compatibility_flags_unclamped_end(small_meshes):
    setup, trace = small_meshes
    eta0, v0, u0 = zero_data(setup)
    eta0[0] = 0.01
    assert compatibility_failures(setup, eta0, v0, u0, trace=trace) == [
        "clamped ends"]


def test_compatibility_flags_collapsed_wall(small_meshes):
    setup, trace = small_meshes
    eta0, v0, u0 = zero_data(setup)
    eta0[0::2] = -0.5          # nodal values at -R, slopes zero
    eta0[0] = eta0[-2] = 0.0   # keep the clamped ends clean
    assert compatibility_failures(setup, eta0, v0, u0, trace=trace) == [
        "R + eta0 > 0"]


def test_compatibility_flags_trace_mismatch(small_meshes):
    setup, trace = small_meshes
    fm = setup.fluid_mesh
    eta0, v0, u0 = zero_data(setup)
    u0[fm.n_velocity_nodes + fm.top_nodes[3]] = 1.0   # wall moves, trace not
    assert compatibility_failures(setup, eta0, v0, u0, trace=trace) == [
        "interface trace"]


def test_compatibility_flags_a_moving_fixed_dof(small_meshes):
    setup, trace = small_meshes
    fm = setup.fluid_mesh
    eta0, v0, u0 = zero_data(setup)
    u0[fm.n_velocity_nodes + fm.bottom_nodes[3]] = 1.0   # axis moves radially
    assert compatibility_failures(setup, eta0, v0, u0, trace=trace) == [
        "fixed velocity DOFs"]


def test_compatibility_reads_the_trace_map_it_is_given(small_meshes):
    # exactly compatible moving data pass against the run's trace map and
    # fail against any other
    setup, trace = small_meshes
    sm, fm = setup.shell_mesh, setup.fluid_mesh
    eta0, v0, u0 = zero_data(setup)
    v0[4] = 1.0                       # value DOF of an interior node
    u0[fm.n_velocity_nodes + fm.top_nodes] = trace @ to_free(v0)
    assert compatibility_failures(setup, eta0, v0, u0) == []
    assert compatibility_failures(setup, eta0, v0, u0, trace=trace) == []
    assert compatibility_failures(setup, eta0, v0, u0,
                                  trace=0.0 * trace) == ["interface trace"]

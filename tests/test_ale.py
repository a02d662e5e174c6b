import numpy as np
import pytest

from wallflow import ale, fluid
from wallflow.errors import WallContact

from oracles import (symmetrized_transformed_gradient, to_free,
                     transformed_divergence, transformed_gradient)


@pytest.fixture
def meshes():
    fm = fluid.FluidMesh(4, 2, 2.0)
    return fm.wall, fm


def test_flat_wall_snapshot(meshes):
    sm, fm = meshes
    snap = ale.build_snapshot(fm, sm.zero_free(), radius=0.75)
    assert np.all(snap.jac_q == 0.75)
    assert np.all(fluid.shell_field_at_quad(fm, sm.zero_free()) == 0.0)
    assert ale.min_radius_of(fm, sm.zero_free(), 0.75)[0] == 0.75


def test_bump_profile_min_radius_at_the_ends(meshes):
    sm, fm = meshes
    length = sm.length

    def bump(z):
        s = z / length
        return 16.0 * s**2 * (1 - s)**2

    def dbump(z):
        s = z / length
        return 32.0 * s * (1 - s) * (1 - 2 * s) / length

    eta = 0.01 * sm.interpolate(bump, dbump)
    snap = ale.build_snapshot(fm, eta, radius=0.5)
    min_r, min_z = ale.min_radius_of(fm, eta, 0.5)
    assert min_r == pytest.approx(0.5, abs=1e-15)
    assert min_z in (0.0, length)
    # Jacobian weight is radius + eta at every sampled point
    assert np.array_equal(snap.jac_q,
                          0.5 + fluid.shell_field_at_quad(fm, eta))


def test_collapsed_wall_raises_contact(meshes):
    sm, fm = meshes
    full = np.zeros(2 * sm.n_nodes)
    full[2:-2:2] = -0.5        # interior nodal values at -R
    with pytest.raises(WallContact):
        ale.build_snapshot(fm, to_free(full), radius=0.5)


def test_contact_between_the_wall_s_points_is_caught_at_the_fluid_s():
    # nodes 1 and 2 at eta = -0.75 with slopes -1 and +1: the cubic
    # reaches -R at the element midpoint z = 1.5, a fluid quadrature point,
    # while its minimum over the wall's nodes and Gauss points is 0.0289
    fm = fluid.FluidMesh(4, 2, 4.0)
    sm = fm.wall
    full = np.zeros(2 * sm.n_nodes)
    full[2:6] = [-0.75, -1.0, -0.75, 1.0]
    eta = to_free(full)
    zs = np.concatenate([sm.nodes, sm.quad_points()])
    assert (1.0 + sm.evaluate(eta, zs)).min() > 0.028
    with pytest.raises(WallContact) as exc:
        ale.build_snapshot(fm, eta, radius=1.0)
    assert exc.value.z_location == 1.5
    assert exc.value.min_radius == 0.0


def test_identity_collapse_of_transformed_gradient():
    point = (0.0, 1.0, 0.3)    # deta, jac = R + eta = 1, r
    ref = np.array([[0.2, -0.4], [1.1, 0.7]])
    out = transformed_gradient(point, ref)
    assert np.array_equal(out, ref)


def test_constant_offset_scales_only_radial_derivatives():
    c, radius = 0.3, 1.2
    point = (0.0, radius + c, 0.5)
    ref = np.array([[0.2, -0.4], [1.1, 0.7]])
    out = transformed_gradient(point, ref)
    assert np.allclose(out[:, 0], ref[:, 0], rtol=0, atol=0)
    assert np.allclose(out[:, 1], ref[:, 1] / (radius + c), rtol=1e-15)


def test_affine_field_hand_value():
    # u = (r, 0) with a flat wall and R = 2: the only nonzero entry is the
    # radial derivative of the axial component, scaled to 1/2
    point = (0.0, 2.0, 0.7)
    ref = np.array([[0.0, 1.0], [0.0, 0.0]])
    out = transformed_gradient(point, ref)
    assert out[0, 1] == pytest.approx(0.5, rel=1e-15)
    assert out[0, 0] == out[1, 0] == out[1, 1] == 0.0


def test_divergence_examples():
    # u = (z, -r), flat wall, R = 1: exact cancellation
    point = (0.0, 1.0, 0.4)
    ref = np.array([[1.0, 0.0], [0.0, -1.0]])
    assert transformed_divergence(point, ref) == 0.0
    # u = (0, r) with eta = c: divergence is 1 / (R + c)
    c, radius = 0.25, 1.0
    point = (0.0, radius + c, 0.4)
    ref = np.array([[0.0, 0.0], [0.0, 1.0]])
    assert transformed_divergence(point, ref) == pytest.approx(
        1.0 / (radius + c), rel=1e-15)


def test_divergence_is_trace_of_gradient():
    rng = np.random.default_rng(2)
    for _ in range(10):
        point = (rng.standard_normal(), 0.5 + rng.random(), rng.random())
        ref = rng.standard_normal((2, 2))
        g = transformed_gradient(point, ref)
        assert transformed_divergence(point, ref) == pytest.approx(
            g[0, 0] + g[1, 1], rel=1e-14)


def test_symmetrized_gradient_examples():
    point = (0.0, 2.0, 0.7)
    ref = np.array([[0.0, 1.0], [0.0, 0.0]])
    d = symmetrized_transformed_gradient(point, ref)
    assert d[0, 1] == d[1, 0] == pytest.approx(0.25, rel=1e-15)
    assert d[0, 0] == d[1, 1] == 0.0
    rng = np.random.default_rng(4)
    point = (rng.standard_normal(), 1.7, 0.3)
    ref = rng.standard_normal((2, 2))
    d = symmetrized_transformed_gradient(point, ref)
    assert np.array_equal(d, d.T)


def test_map_jacobian_determinant_is_the_weight(meshes):
    sm, fm = meshes
    rng = np.random.default_rng(6)
    eta = 0.05 * rng.standard_normal(sm.n_free)
    snap = ale.build_snapshot(fm, eta, radius=0.8)
    deta_q = fluid.shell_field_at_quad(fm, eta, deriv=1)
    # determinant of [[1, 0], [r deta, R + eta]] at a few sampled points
    for c, q in [(0, 0), (3, 4), (7, 8)]:
        grad_map = np.array([[1.0, 0.0],
                             [fm.quad_r[c, q] * deta_q[c, q],
                              snap.jac_q[c, q]]])
        det = np.linalg.det(grad_map)
        assert det == pytest.approx(snap.jac_q[c, q], rel=1e-14)


def test_physical_map_and_domain_velocity(meshes):
    sm, fm = meshes
    eta = sm.zero_free()
    z, r = ale.map_to_physical(fm, eta, 0.5, np.array([1.0]), np.array([0.5]))
    assert r[0] == pytest.approx(0.25, rel=1e-15)


from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from wallflow import shell, sparsela
from wallflow.materials import ShellCoefficients

from oracles import (copy_shell_state, gauss01, hermite_by_tabulation,
                     hermite_eval, run_setup, shell_energy, shell_gram_dense,
                     structure_step_energy_residual, zero_shell_state)


def coeffs(c0=0.0, c1=0.0, c2=0.0, d0=0.0, d1=0.0, d2=0.0, rho_s_h=1.0):
    return ShellCoefficients(C0=c0, C1=c1, C2=c2, D0=d0, D1=d1, D2=d2,
                             rho_s_h=rho_s_h)


def elastic_form(mesh, c):
    return shell.combine_grams(shell.assemble_grams(mesh), (c.C0, c.C1, c.C2))


def viscous_form(mesh, c):
    return shell.combine_grams(shell.assemble_grams(mesh), (c.D0, c.D1, c.D2))


def test_element_mass_value_diagonal():
    length = 0.37
    me, _, _ = shell.hermite_element_matrices(length)
    assert me[0, 0] == pytest.approx(156.0 * length / 420.0, rel=1e-14)
    assert me[2, 2] == pytest.approx(156.0 * length / 420.0, rel=1e-14)


def test_mass_is_exactly_symmetric_and_spd():
    mesh = shell.ShellMesh(6, 2.0)
    m = shell.assemble_grams(mesh)[0]
    assert abs(m - m.T).max() == 0.0
    assert np.linalg.eigvalsh(m.toarray()).min() > 0.0


@pytest.mark.parametrize("deriv", [0, 1, 2])
def test_grams_match_dense_oracle(deriv):
    mesh = shell.ShellMesh(2, 1.3)
    ours = shell.assemble_grams(mesh)[deriv].toarray()
    ref = shell_gram_dense(mesh.nodes, deriv)
    scale = np.abs(ref).max()
    assert np.abs(ours - ref).max() <= 1e-12 * scale


def test_broadcast_grams_match_a_per_element_loop():
    mesh = shell.ShellMesh(64, 6.0)
    edofs = mesh.element_dofs_free()
    loop = [np.zeros((mesh.n_free, mesh.n_free)) for _ in range(3)]
    for k, length in enumerate(mesh.element_lengths):
        for gram, block in zip(loop, shell.hermite_element_matrices(length)):
            for a, i in enumerate(edofs[k]):
                for b, j in enumerate(edofs[k]):
                    if i >= 0 and j >= 0:
                        gram[i, j] += block[a, b]
    for ours, ref in zip(shell.assemble_grams(mesh), loop):
        assert np.abs(ours.toarray() - ref).max() <= 1e-15 * np.abs(ref).max()


def test_elastic_form_with_only_c0_is_the_mass():
    mesh = shell.ShellMesh(5, 1.0)
    a = elastic_form(mesh, coeffs(c0=1.0))
    m = shell.assemble_grams(mesh)[0]
    assert abs(a - m).max() == 0.0


def test_elastic_form_is_positive_definite():
    mesh = shell.ShellMesh(5, 1.0)
    a = elastic_form(mesh, coeffs(c0=2.0, c1=0.3, c2=1.5))
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.standard_normal(mesh.n_free)
        assert x @ (a @ x) > 0.0


def test_bending_only_form_matches_dense_oracle():
    mesh = shell.ShellMesh(2, 1.0)
    a = elastic_form(mesh, coeffs(c2=1.0)).toarray()
    ref = shell_gram_dense(mesh.nodes, 2)
    assert np.abs(a - ref).max() <= 1e-12 * np.abs(ref).max()


def test_viscous_form_zero_and_mass_cases():
    mesh = shell.ShellMesh(4, 1.0)
    zero = viscous_form(mesh, coeffs())
    assert abs(zero).max() == 0.0
    m = shell.assemble_grams(mesh)[0]
    d0 = viscous_form(mesh, coeffs(d0=1.0))
    assert abs(d0 - m).max() == 0.0


def test_viscous_form_random_coefficients_vs_oracle():
    mesh = shell.ShellMesh(2, 1.0)
    c = coeffs(d0=0.7, d1=1.9, d2=0.23)
    ours = viscous_form(mesh, c).toarray()
    ref = (0.7 * shell_gram_dense(mesh.nodes, 0)
           + 1.9 * shell_gram_dense(mesh.nodes, 1)
           + 0.23 * shell_gram_dense(mesh.nodes, 2))
    assert np.abs(ours - ref).max() <= 1e-12 * np.abs(ref).max()


def test_piecewise_cubic_norm_matches_dense_integral():
    mesh = shell.ShellMesh(2, 1.0)
    m = shell.assemble_grams(mesh)[0]
    free = np.array([0.7, -0.3])
    quad_form = float(free @ (m @ free))
    full = mesh.to_full(free)
    gx, gw = gauss01(6)
    dense = 0.0
    for k in range(mesh.n_elements):
        le = mesh.element_lengths[k]
        zs = mesh.nodes[k] + gx * le
        vals = hermite_eval(mesh.nodes, full, zs)
        dense += le * float(gw @ vals**2)
    assert quad_form == pytest.approx(dense, rel=1e-12)


def test_evaluate_reproduces_a_global_cubic():
    # the interpolant keeps the cubic's value and slope at the interior
    # nodes and clamps both ends to zero: it is the cubic on the interior
    # elements, and everywhere the Hermite field of its full DOFs
    mesh = shell.ShellMesh(5, 2.0)
    poly = np.polynomial.Polynomial([1.0, 1.0, -0.5, 0.125])
    free = mesh.interpolate(poly, poly.deriv())
    assert free.size == mesh.n_free
    z = np.linspace(0.0, 2.0, 41)
    inner = (z >= mesh.nodes[1]) & (z < mesh.nodes[-2])
    for deriv, atol in ((0, 1e-13), (1, 1e-12), (2, 1e-11)):
        vals = mesh.evaluate(free, z, deriv=deriv)
        assert np.allclose(vals[inner], poly.deriv(deriv)(z[inner]),
                           rtol=0, atol=atol)
        assert np.allclose(vals, hermite_eval(mesh.nodes, mesh.to_full(free),
                                              z, deriv), rtol=0, atol=atol)
    assert mesh.evaluate(free, [0.0, 2.0]).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("deriv", [0, 1, 2])
def test_sampler_equals_a_tabulation_at_every_call(deriv):
    # random points, both ends and points of both clamped elements: one
    # map built once gives what tabulating the shapes at each call gives
    mesh = shell.ShellMesh(7, 3.0)
    rng = np.random.default_rng(40 + deriv)
    le = mesh.element_lengths[0]
    z = np.concatenate([rng.uniform(0.0, 3.0, 50), [0.0, 3.0],
                        rng.uniform(0.0, le, 5), rng.uniform(3.0 - le, 3.0, 5),
                        mesh.nodes])
    sampler = mesh.sampler(z, deriv)
    assert sampler.shape == (z.size, mesh.n_free)
    for _ in range(3):
        free = rng.standard_normal(mesh.n_free)
        ref = hermite_by_tabulation(mesh, free, z, deriv)
        assert np.array_equal(sampler @ free, ref)
        assert np.array_equal(mesh.evaluate(free, z, deriv), ref)


def wall_setup(dt, m, a, rho_s_h):
    """What the wall half step reads of a ``RunSetup``, for these forms."""
    matrix = rho_s_h * m + dt * dt * a
    return SimpleNamespace(dt=dt, rho_s_h=rho_s_h, shell_mass=m,
                           wall_matrix=matrix,
                           wall_solve=sparsela.constant_solver(
                               matrix, shell.STRUCTURE_TOL))


def half_step(state, dt, m, a, rho_s_h, setup=None):
    """One wall half step, of ``setup`` or of a fresh one."""
    return shell.structure_step(setup or wall_setup(dt, m, a, rho_s_h), state)


@pytest.fixture
def step_system():
    mesh = shell.ShellMesh(4, 1.0)
    m = shell.assemble_grams(mesh)[0]
    a = elastic_form(mesh, coeffs(c0=3.0, c1=0.4, c2=2.0))
    return mesh, m, a


def test_structure_step_zero_data(step_system):
    mesh, m, a = step_system
    state = zero_shell_state(mesh)
    out = half_step(state, 0.1, m, a, 0.11)
    assert np.all(out.eta == 0.0) and np.all(out.v_star == 0.0)


def test_structure_step_free_flight_without_stiffness(step_system):
    mesh, m, _ = step_system
    rng = np.random.default_rng(5)
    state = shell.ShellState(eta=rng.standard_normal(mesh.n_free),
                             v=rng.standard_normal(mesh.n_free),
                             v_star=np.zeros(mesh.n_free))
    zero_a = sp.csr_matrix((mesh.n_free, mesh.n_free))
    dt = 0.05
    out = half_step(state, dt, m, zero_a, 0.11)
    assert np.allclose(out.eta, state.eta + dt * state.v, rtol=1e-12, atol=0)
    assert np.allclose(out.v_star, state.v, rtol=1e-12, atol=0)


def test_structure_step_matches_dense_solve(step_system):
    mesh, m, a = step_system
    rng = np.random.default_rng(7)
    state = shell.ShellState(eta=rng.standard_normal(mesh.n_free),
                             v=rng.standard_normal(mesh.n_free),
                             v_star=np.zeros(mesh.n_free))
    dt, rho_s_h = 0.02, 0.11
    out = half_step(state, dt, m, a, rho_s_h)
    dense = np.linalg.solve(
        rho_s_h * m.toarray() + dt * dt * a.toarray(),
        rho_s_h * m.toarray() @ (state.eta + dt * state.v))
    assert np.abs(out.eta - dense).max() <= 1e-12 * np.abs(dense).max()


def test_half_step_velocity_is_the_difference_quotient(step_system):
    mesh, m, a = step_system
    rng = np.random.default_rng(9)
    state = shell.ShellState(eta=rng.standard_normal(mesh.n_free),
                             v=rng.standard_normal(mesh.n_free),
                             v_star=np.zeros(mesh.n_free))
    dt = 0.01
    out = half_step(state, dt, m, a, 0.11)
    assert np.array_equal(out.v_star, (out.eta - state.eta) / dt)


def test_structure_step_superposition(step_system):
    mesh, m, a = step_system
    rng = np.random.default_rng(11)
    dt, rho_s_h = 0.02, 0.11
    s1 = shell.ShellState(eta=rng.standard_normal(mesh.n_free),
                          v=rng.standard_normal(mesh.n_free),
                          v_star=np.zeros(mesh.n_free))
    s2 = shell.ShellState(eta=rng.standard_normal(mesh.n_free),
                          v=rng.standard_normal(mesh.n_free),
                          v_star=np.zeros(mesh.n_free))
    both = shell.ShellState(eta=s1.eta + 2.0 * s2.eta, v=s1.v + 2.0 * s2.v,
                            v_star=np.zeros(mesh.n_free))
    setup = wall_setup(dt, m, a, rho_s_h)
    o1, o2, ob = (half_step(s, dt, m, a, rho_s_h, setup)
                  for s in (s1, s2, both))
    scale = np.abs(ob.eta).max()
    assert np.abs(ob.eta - o1.eta - 2.0 * o2.eta).max() <= 1e-12 * scale


def test_wall_system_factors_once_and_matches_a_fresh_factor(monkeypatch):
    # a run's wall matrix is factored by the first half step of its setup,
    # and only then; every solve meets STRUCTURE_TOL and is bitwise the
    # solve of a fresh setup, as each starts from zero on the same LU
    rng = np.random.default_rng(17)

    def fresh_setup():
        return run_setup(4, 2, 1.0, 0.035, {}, 0.02)

    setup = fresh_setup()
    n = setup.shell_mesh.n_free
    states = [shell.ShellState(eta=rng.standard_normal(n),
                               v=rng.standard_normal(n), v_star=np.zeros(n))
              for _ in range(3)]
    built = []
    original = sparsela.DirectFactor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(sparsela.DirectFactor, "__init__", counting_init)
    assert not built
    outs = [shell.structure_step(setup, s) for s in states]
    assert len(built) == 1
    for s, out in zip(states, outs):
        rhs = setup.rho_s_h * (setup.shell_mass @ (s.eta + setup.dt * s.v))
        resid = np.linalg.norm(setup.wall_matrix @ out.eta - rhs)
        assert resid <= shell.STRUCTURE_TOL * np.linalg.norm(rhs)
        fresh = shell.structure_step(fresh_setup(), s)
        assert np.array_equal(out.eta, fresh.eta)
        assert np.array_equal(out.v_star, fresh.v_star)
    assert len(built) == 1 + len(states)


def test_step_energy_equality_and_detector(step_system):
    mesh, m, a = step_system
    state = zero_shell_state(mesh)
    out = half_step(state, 0.1, m, a, 0.11)
    assert structure_step_energy_residual(state, out, m, a, 0.11) == 0.0

    rng = np.random.default_rng(13)
    state = shell.ShellState(eta=rng.standard_normal(mesh.n_free),
                             v=rng.standard_normal(mesh.n_free),
                             v_star=np.zeros(mesh.n_free))
    out = half_step(state, 0.01, m, a, 0.11)
    scale = shell_energy(state.eta, state.v, m, a, 0.11)
    res = structure_step_energy_residual(state, out, m, a, 0.11)
    assert res <= 1e-10 * scale

    tampered = copy_shell_state(out)
    tampered.eta = out.eta * (1.0 + 1e-3)
    bad = structure_step_energy_residual(state, tampered, m, a, 0.11)
    assert bad > 1e-8 * scale

import numpy as np
import pytest

from wallflow import ale, coupling, fluid, shell
from wallflow.sparsela import ReusedFactorSolver

from oracles import (assemble_divergence, assemble_viscous, fixed_dofs,
                     flow_by_terms, fluid_step_energy_residuals, free_dofs,
                     momentum_matrix_by_kron, reduce_by_index, run_setup,
                     top_edge_traction, top_radial_dofs, trace_map_by_loop,
                     two_component, viscous_csr, wall_traction_load,
                     zero_shell_state)


def make_setup(n_z=8, n_r=4, length=6.0, elastic=False, dt=1e-4,
               mode="viscoelastic"):
    wall = ({} if elastic
            else {"viscous_modulus": 1000.0, "viscous_poisson": 0.5})
    cs = run_setup(n_z, n_r, length, 0.035, wall, dt, mode)
    return cs.coeffs, cs.shell_mesh, cs.fluid_mesh, cs


def compatible_state(sm, fm, rng, scale=0.01):
    eta = scale * rng.standard_normal(sm.n_free)
    v = scale * rng.standard_normal(sm.n_free)
    state = shell.ShellState(eta=eta, v=v, v_star=v.copy())
    u = np.zeros(2 * fm.n_velocity_nodes)
    vn = sm.evaluate(v, fm.velocity_z)
    u[fm.n_velocity_nodes:] = np.outer(fm.velocity_r, vn).ravel()
    return state, u


def step_from(cs, state, u, p_in, p_out, solver=None):
    """The wall half step and the coupled fluid step of ``cs`` from
    ``state`` and ``u``, as the driver takes them: (half step, start
    frame, end frame, fluid step result)."""
    half = shell.structure_step(cs, state)
    frame = coupling.build_frame(cs, state.eta)
    end = coupling.build_frame(cs, half.eta)
    res = coupling.fluid_step(cs, frame, end, u, half, p_in, p_out,
                              solver or ReusedFactorSolver(coupling.FLUID_TOL),
                              fluid.componentwise(frame.mass, u))
    return half, frame, end, res


def test_trace_map_basics():
    _, sm, fm, cs = make_setup()
    t = cs.trace_op
    assert t.shape == (fm.n_cols, sm.n_free)
    assert np.all(t @ sm.zero_free() == 0.0)
    v = sm.zero_free()
    v[0] = 1.0                       # value DOF of the first interior node
    tr = t @ v
    assert tr[2] == 1.0              # the node itself
    assert tr[1] == tr[3] == 0.5     # adjacent midpoints of the cubic shape
    assert tr[0] == 0.0


def test_trace_reproduces_wall_fields_at_all_edge_nodes():
    _, sm, fm, cs = make_setup()
    rng = np.random.default_rng(0)
    v = rng.standard_normal(sm.n_free)
    trace = cs.trace_op @ v
    direct = sm.evaluate(v, fm.velocity_z)
    assert np.abs(trace - direct).max() <= 1e-14 * np.abs(direct).max()


@pytest.mark.parametrize("n_z", [1, 2, 8, 13])
def test_trace_map_matches_the_loop_reference(n_z):
    fm = fluid.FluidMesh(n_z, 2, 2.7)
    t = coupling.build_coupling(fm)
    assert np.array_equal(t.toarray(), trace_map_by_loop(fm))


def test_prolongation_places_free_trace_and_fixed_dofs():
    _, sm, fm, cs = make_setup()
    free, p = free_dofs(fm), cs.prolongation
    assert p.format == "csc"
    assert p.shape == (2 * fm.n_velocity_nodes, free.size + sm.n_free)
    rng = np.random.default_rng(5)
    w = rng.standard_normal(free.size)
    v = rng.standard_normal(sm.n_free)
    u = p @ np.concatenate([w, v])
    assert np.array_equal(u[free], w)
    assert np.array_equal(u[top_radial_dofs(fm)], cs.trace_op @ v)
    assert np.all(u[fixed_dofs(fm)] == 0.0)


def test_zero_data_gives_zero_solution():
    coeffs, sm, fm, cs = make_setup()
    state = zero_shell_state(sm)
    u = np.zeros(2 * fm.n_velocity_nodes)
    _, _, _, res = step_from(cs, state, u, 0.0, 0.0)
    assert np.all(res.u_full == 0.0)
    assert np.all(res.v_new == 0.0)
    assert np.all(res.pressure == 0.0)


def test_elastic_case_runs_and_is_finite():
    coeffs, sm, fm, cs = make_setup(elastic=True)
    assert abs(cs.shell_viscous).max() == 0.0
    rng = np.random.default_rng(1)
    state, u = compatible_state(sm, fm, rng)
    _, _, _, res = step_from(cs, state, u, 500.0, 0.0)
    assert np.all(np.isfinite(res.u_full))
    assert np.all(np.isfinite(res.v_new))
    assert np.all(np.isfinite(res.pressure))


def test_fluid_factor_fill_does_not_grow_at_extreme_dt():
    # without threshold pivoting the fill stays near that of the symmetric
    # ordering at every dt; with a pivot threshold of 1e-3 this mesh fills
    # 1.9 times as much at dt = 1e-7 as at dt = 6e-5
    fill = {}
    for dt in (1e-7, 6e-5, 1.0):
        coeffs, sm, fm, cs = make_setup(n_z=16, n_r=8, dt=dt)
        state, u = compatible_state(sm, fm, np.random.default_rng(4))
        solver = ReusedFactorSolver(coupling.FLUID_TOL)
        step_from(cs, state, u, 1500.0, -200.0, solver)
        assert solver.stats.factorizations == 1
        fill[dt] = solver.stats.lu_fill_nnz
    assert fill[6e-5] > 0
    assert fill[1e-7] <= 1.25 * fill[6e-5]
    assert fill[1.0] <= 1.25 * fill[6e-5]


@pytest.fixture
def stepped():
    dt = 5e-5
    coeffs, sm, fm, cs = make_setup(dt=dt)
    rng = np.random.default_rng(2)
    state, u = compatible_state(sm, fm, rng)
    half, frame, end, res = step_from(cs, state, u, 1500.0, -200.0)
    return coeffs, sm, fm, cs, state, u, dt, half, res, frame, end


def test_step_balance_is_exact(stepped):
    (_, _, _, cs, _, u, dt, half, res, old, new) = stepped
    residual, _ = fluid_step_energy_residuals(
        cs, old, new, res, u, half.v_star, dt)
    e_scale = 0.5 * float(u @ fluid.componentwise(old.mass, u)) + 1.0
    assert residual <= 1e-10 * e_scale


def test_zero_pressure_step_dissipates(stepped):
    coeffs, sm, fm, cs, state, u, dt, half, _, old, _ = stepped
    _, _, end, res0 = step_from(cs, state, u, 0.0, 0.0)
    rho_s_h = coeffs.rho_s_h
    e_half = (0.5 * float(u @ fluid.componentwise(old.mass, u))
              + 0.5 * rho_s_h * float(half.v_star @ (cs.shell_mass @ half.v_star)))
    e_new = (0.5 * float(res0.u_full @ fluid.componentwise(end.mass,
                                                           res0.u_full))
             + 0.5 * rho_s_h * float(res0.v_new @ (cs.shell_mass @ res0.v_new)))
    assert e_new < e_half


def wall_block(cs, dt):
    return shell.combine_grams((cs.shell_mass, cs.shell_viscous),
                               (cs.rho_s_h / dt, 1.0))


def flow_data(cs, frame, eta, u_prev, v_half):
    """The flow data of a step of ``cs`` on ``frame``, the frame of the
    wall profile ``eta``, with domain velocity ``v_half``."""
    sm, fm = cs.shell_mesh, cs.fluid_mesh
    end = coupling.build_frame(cs, eta + cs.dt * v_half)
    v_half_q = fluid.shell_field_at_quad(fm, v_half)
    return fluid.assemble_flow(fm, frame.snapshot, u_prev, v_half_q,
                               cs.rho_f, cs.dt, frame.mass, end.mass)


def step_kernels(cs, seed=2):
    """A moving, deformed step of ``cs``: its wall profile, its frame, its
    flow data, and the viscous entries and raw divergence blocks of its
    snapshot."""
    sm, fm = cs.shell_mesh, cs.fluid_mesh
    rng = np.random.default_rng(seed)
    eta = 0.01 * rng.standard_normal(sm.n_free)
    frame = coupling.build_frame(cs, eta)
    flow = flow_data(cs, frame, eta,
                     rng.standard_normal(2 * fm.n_velocity_nodes),
                     rng.standard_normal(sm.n_free))
    return (eta, frame, flow,
            fluid.assemble_viscous_blocks(fm, frame.snapshot, cs.mu),
            fluid.assemble_divergence_blocks(fm, frame.snapshot))


def test_reduction_matches_the_index_reference():
    # the frame's data plus the flow share of the one map, from raw kernels
    # to the step system, against the path it replaced, on coupled, elastic
    # and rigid setups: kernels scattered onto their patterns, the
    # two-component momentum sum, then the reduction by index sets.  The
    # two sum the same products in another order, so they agree to
    # roundoff, 1e-15 of the largest entry
    dt = 5e-5
    for mode, elastic in (("viscoelastic", False), ("elastic", True),
                          ("rigid", False)):
        cs = make_setup(elastic=elastic, dt=dt, mode=mode)[-1]
        _, frame, flow, viscous, _ = step_kernels(cs)
        a_mom = momentum_matrix_by_kron(
            cs, flow, viscous_csr(cs.fluid_mesh, viscous))
        b_div = assemble_divergence(cs.fluid_mesh, frame.snapshot)
        wall = None if mode == "rigid" else wall_block(cs, dt)
        ref = reduce_by_index(cs, a_mom, b_div, wall)
        ours = coupling.reduce_coupled_system(cs, frame, flow)
        assert ours.shape == ref.shape
        assert abs(ours - ref).max() <= 1e-15 * abs(ref).max()


def test_rigid_system_is_the_coupled_one_without_the_wall():
    # a rigid wall is the coupled elimination with no wall velocity left:
    # on the same kernels, deleting the wall rows and columns of the
    # coupled system gives the rigid one, pattern and values bit for bit
    dt = 5e-5
    _, sm, fm, cs = make_setup(dt=dt)
    rigid = make_setup(dt=dt, mode="rigid")[-1]
    eta, frame, flow, _, _ = step_kernels(cs)
    coupled = coupling.reduce_coupled_system(cs, frame, flow)
    ours = coupling.reduce_coupled_system(
        rigid, coupling.build_frame(rigid, eta), flow)
    nf, n = free_dofs(fm).size, cs.prolongation.shape[1]
    keep = np.r_[0:nf, n:coupled.shape[0]]
    assert n - nf == sm.n_free > 0
    assert ours.shape == (keep.size, keep.size)
    kept = coupled[keep][:, keep]
    assert kept.nnz == ours.nnz
    assert np.array_equal(kept.indptr, ours.indptr)
    assert np.array_equal(kept.indices, ours.indices)
    assert np.array_equal(kept.data, ours.data)
    assert rigid.wall_injection.nnz == 0


def test_scalar_operators_act_on_both_components(stepped):
    _, _, fm, _, _, _, _, _, res, old, new = stepped
    u = res.u_full                     # both components nonzero
    for m in (old.mass, new.mass, fm.scalar_pattern.matrix(res.flow)):
        assert m.shape == (fm.n_velocity_nodes, fm.n_velocity_nodes)
        assert np.array_equal(fluid.componentwise(m, u),
                              two_component(m) @ u)
        # bit for bit the product of both components as two columns
        two_columns = (m @ u.reshape(2, -1).T).T.ravel()
        assert fluid.componentwise(m, u).tobytes() == two_columns.tobytes()


def test_step_hands_over_the_flow_data_it_solved_with(stepped):
    # the result's flow data and domain velocity are the step's own: the
    # kernel on the same inputs, bit for bit, and the terms it replaced
    # to roundoff
    _, sm, fm, cs, state, u, _, half, res, old, new = stepped
    snap = ale.build_snapshot(fm, state.eta, cs.radius)
    assert np.array_equal(res.v_half_q,
                          fluid.shell_field_at_quad(fm, half.v_star))
    assert np.array_equal(res.flow, fluid.assemble_flow(
        fm, snap, u, res.v_half_q, cs.rho_f, cs.dt, old.mass, new.mass))
    ref = flow_by_terms(cs, snap, u, res.v_half_q)
    assert np.abs(res.flow - ref).max() <= 1e-14 * np.abs(ref).max()


def test_wall_block_is_the_gram_combination_at_the_run_dt(stepped):
    _, _, _, cs, _, _, dt, _, _, _, _ = stepped
    assert cs.dt == dt
    assert np.array_equal(cs.wall_block.data, wall_block(cs, dt).data)


@pytest.mark.parametrize("mode, elastic", [("viscoelastic", False),
                                           ("viscoelastic", True),
                                           ("rigid", False)],
                         ids=["coupled", "coupled-elastic", "rigid"])
def test_step_system_pattern_is_fixed(mode, elastic):
    # the mesh and P alone set the pattern: a flat wall at rest, where
    # advection and Robin terms vanish, and a deformed moving state give
    # the same indices and indptr at every dt, one setup per dt; the wall
    # velocity is small enough that the end profile at dt 1 keeps clear of
    # contact, which a frame refuses
    setups = [make_setup(elastic=elastic, dt=dt, mode=mode)
              for dt in (1e-7, 6e-5, 1.0)]
    _, sm, fm, _ = setups[0]
    rng = np.random.default_rng(4)
    zero = (sm.zero_free(), sm.zero_free(), np.zeros(2 * fm.n_velocity_nodes))
    moving = (0.05 * rng.standard_normal(sm.n_free),
              0.05 * rng.standard_normal(sm.n_free),
              rng.standard_normal(2 * fm.n_velocity_nodes))
    systems = []
    for eta, v_half, u_prev in (zero, moving):
        for *_, cs in setups:
            frame = coupling.build_frame(cs, eta)
            systems.append(coupling.reduce_coupled_system(
                cs, frame, flow_data(cs, frame, eta, u_prev, v_half)))
    for system in systems[1:]:
        assert np.array_equal(system.indices, systems[0].indices)
        assert np.array_equal(system.indptr, systems[0].indptr)


def test_frozen_operator_solve_is_linear(stepped):
    # the coupled problem is linear: with the assembled operators frozen,
    # the solution superposes over (previous velocity, wall velocity, loads)
    coeffs, sm, fm, cs, state, u, dt, half, res, old, _ = stepped
    p, nf = cs.prolongation, free_dofs(fm).size
    system = coupling.reduce_coupled_system(
        cs, coupling.build_frame(cs, state.eta), res.flow)
    from wallflow.sparsela import DirectFactor
    lu = DirectFactor(system)

    def solve(u_prev, v_half, forcing):
        rhs_full = ((cs.rho_f / dt) * fluid.componentwise(old.mass, u_prev)
                    + forcing)
        load = p.T @ rhs_full
        load[nf:] += (cs.rho_s_h / dt) * (cs.shell_mass @ v_half)
        rhs = np.concatenate([load, np.zeros(fm.n_pressure_nodes)])
        x = lu.apply(rhs)    # one fixed linear map: LU plus one refinement
        return x + lu.apply(rhs - system @ x)

    rng = np.random.default_rng(3)
    u2 = p[:, :nf] @ rng.standard_normal(nf)
    v2 = rng.standard_normal(sm.n_free)
    f1 = res.forcing
    f2 = fluid.assemble_pressure_forcing(fm, -300.0, 100.0, cs.radius)
    xa = solve(u, half.v_star, f1)
    xb = solve(u2, v2, f2)
    xc = solve(u + 2.0 * u2, half.v_star + 2.0 * v2, f1 + 2.0 * f2)
    scale = np.abs(xc).max()
    assert np.abs(xc - xa - 2.0 * xb).max() <= 1e-12 * scale


def test_coercivity_witness(stepped):
    # quadratic form of the velocity-velocity block at the solution equals
    # the midpoint-weighted kinetic term plus dt times the dissipation, and
    # dominates the unweighted kinetic energy through the minimum radius
    coeffs, sm, fm, cs, state, u, dt, half, res, old, new = stepped
    mass_old, mass_new = old.mass, new.mass
    u_new, v_new = res.u_full, res.v_new
    viscous = assemble_viscous(fm, old.snapshot, cs.mu)
    flow = fm.scalar_pattern.matrix(res.flow)
    lhs = dt * (
        float(u_new @ fluid.componentwise(flow, u_new))
        + float(u_new @ (viscous @ u_new))
        + (cs.rho_s_h / dt) * float(v_new @ (cs.shell_mass @ v_new))
        + float(v_new @ (cs.shell_viscous @ v_new)))
    m_mid = 0.5 * (mass_old.data + mass_new.data)
    m_mid = type(mass_old)((m_mid, mass_old.indices, mass_old.indptr),
                           shape=mass_old.shape)
    rhs = (cs.rho_f * float(u_new @ fluid.componentwise(m_mid, u_new))
           + dt * (float(u_new @ (viscous @ u_new))
                   + float(v_new @ (cs.shell_viscous @ v_new)))
           + cs.rho_s_h * float(v_new @ (cs.shell_mass @ v_new)))
    assert lhs == pytest.approx(rhs, rel=1e-11)
    snap_half = ale.min_radius_of(fm, 0.5 * (state.eta + half.eta),
                                  cs.radius)[0]
    unweighted = fluid.assemble_unweighted_mass(fm)
    assert rhs >= (cs.rho_f * snap_half
                   * float(u_new @ fluid.componentwise(unweighted, u_new))
                   - 1e-12 * abs(rhs))


def test_wall_traction_residual_identity(stepped):
    coeffs, sm, fm, cs, state, u, dt, half, res, old, _ = stepped
    load = wall_traction_load(cs, old.snapshot, res, u, dt)
    shell_side = ((coeffs.rho_s_h / dt)
                  * (cs.shell_mass @ (res.v_new - half.v_star))
                  + cs.shell_viscous @ res.v_new)
    scale = max(np.abs(shell_side).max(), 1e-30)
    assert np.abs(load - shell_side).max() <= 1e-10 * scale


def test_wall_traction_zero_state():
    coeffs, sm, fm, cs = make_setup()
    state = zero_shell_state(sm)
    u = np.zeros(2 * fm.n_velocity_nodes)
    _, frame, _, res = step_from(cs, state, u, 0.0, 0.0)
    load = wall_traction_load(cs, frame.snapshot, res, u, cs.dt)
    assert np.abs(load).max() <= 1e-12


def test_rigid_poiseuille_traction_tracks_pressure():
    # steady rigid flow: the wall-normal traction equals the pressure up to
    # discretization effects away from the ends
    dt = 0.05
    cs = run_setup(16, 8, 5.0, 1.0, {}, dt, mode="rigid")
    sm, fm = cs.shell_mesh, cs.fluid_mesh
    frame = coupling.build_frame(cs, sm.zero_free())
    u = np.zeros(2 * fm.n_velocity_nodes)
    mass_u = fluid.componentwise(frame.mass, u)
    p_in, p_out = 1.0, 0.0
    res = None
    solver = ReusedFactorSolver(coupling.FLUID_TOL)
    # the rigid wall's half step: zero, and the start frame is the end one
    half = zero_shell_state(sm)
    for _ in range(300):
        u_prev = u
        res = coupling.fluid_step(cs, frame, frame, u_prev, half, p_in,
                                  p_out, solver, mass_u)
        u, mass_u = res.u_full, res.mass_u
        if np.linalg.norm(u - u_prev) <= 1e-11 * np.linalg.norm(u):
            break
    traction = top_edge_traction(cs, frame.snapshot, res, u_prev, dt)
    z = fm.velocity_z
    expected = p_in + (p_out - p_in) * z / fm.length
    interior = (z > 0.2 * fm.length) & (z < 0.8 * fm.length)
    err = np.linalg.norm(traction[interior] - expected[interior])
    assert err <= 0.05 * np.linalg.norm(expected[interior])

"""Monolithic fluid step with the wall velocity as a coupled unknown.

One linear solve per step over (interior fluid velocities, pressures, wall
velocity): the interface condition u_r = v on the top edge is eliminated
through the Hermite trace map, so wall inertia and wall viscosity land on
the trace block of the system (Robin-type coupling).  The elimination,
fixed DOFs included, is one prolongation ``P`` built per run; every
reduced system, load and recovered field goes through it; the steps read
``P``, ``dt`` and the wall operators, the wall block included, from the
run's ``RunSetup``.  That implicit
treatment of wall inertia is what makes the split scheme unconditionally
stable, and elimination (rather than a multiplier) keeps the discrete
energy identities exact at the algebra level.

The step systems of one run differ only slightly from step to step, so a
run passes one :class:`~wallflow.sparsela.ReusedFactorSolver`, the solve
policy of every linear system of the package, to every step: the LU of an
earlier step preconditions GMRES on the current one, and the system is
refactored only when GMRES misses the residual contract.  The wall half
step and the trace constant have solvers of their own.
They also share one sparsity pattern: the geometry is frozen on the fixed
reference rectangle and ``P`` is fixed, so the reduction is a
:class:`~wallflow.sparsela.ProductMap` built once per run and system kind,
and a step only combines data arrays.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fluid as fl
from .errors import MeshAlignmentError, WallContact
from .sparsela import ProductMap, csr_rows

# relative residual contract ||Ax - b|| <= tol * ||b|| of every fluid-step
# solve; the run's ReusedFactorSolver refactors when GMRES misses it
FLUID_TOL = 1e-10

# wall nodes and fluid top-edge vertices coincide when they agree to this
# fraction of the channel length
ALIGNMENT_TOL = 1e-12


def build_coupling(shell_mesh, fluid_mesh):
    """Trace map from free wall DOFs to top-edge velocity node values.

    Rows follow the top-edge nodes in z order (vertices and midpoints).  A
    vertex row picks the nodal value DOF and a midpoint row evaluates the
    cubic shape functions at the element midpoint, so the map is exact on
    the wall's own space.  Built column by column (CSC): the value DOF of an
    interior node has 1 at its vertex and 1/2 at the two adjacent
    midpoints, its slope DOF -l/8 and +l/8 at the midpoints of the elements
    to its left and right.  The clamped end DOFs are absent, which pins the
    corner trace values to zero.
    """
    if shell_mesh.n_elements != fluid_mesh.n_z:
        raise MeshAlignmentError(
            f"wall elements ({shell_mesh.n_elements}) must match fluid columns "
            f"({fluid_mesh.n_z}) so interface nodes coincide")
    vertex_z = fluid_mesh.velocity_z[0::2]
    tol = ALIGNMENT_TOL * fluid_mesh.length
    if (abs(shell_mesh.length - fluid_mesh.length) > tol
            or np.max(np.abs(shell_mesh.nodes - vertex_z)) > tol):
        raise MeshAlignmentError("wall nodes do not coincide with fluid "
                                 "top-edge vertices")
    k = np.arange(1, shell_mesh.n_nodes - 1, dtype=np.int32)  # interior nodes
    le = shell_mesh.element_lengths
    half = np.full(k.size, 0.5)
    rows = np.stack([2 * k - 1, 2 * k, 2 * k + 1, 2 * k - 1, 2 * k + 1], axis=1)
    vals = np.stack([half, np.ones(k.size), half,
                     -le[k - 1] / 8.0, le[k] / 8.0], axis=1)
    indptr = np.zeros(shell_mesh.n_free + 1, dtype=np.int32)
    indptr[1::2] = 5 * np.arange(k.size) + 3
    indptr[2::2] = 5 * np.arange(1, k.size + 1)
    return sp.csc_matrix((vals.ravel(), rows.ravel(), indptr),
                         shape=(fluid_mesh.n_cols, shell_mesh.n_free))


def build_prolongation(fluid_mesh, partition, trace_op):
    """The elimination as one map ``P`` from reduced unknowns (free fluid
    DOFs, then free wall DOFs) to the full velocity vector.

    Its columns are the identity on the free DOFs and the trace map on the
    top-edge radial DOFs; fixed DOFs get zero rows.  Reduced operators are
    ``P^T A P``, reduced loads ``P^T f`` and recovered fields ``P x``.
    Stored as CSC, so ``P.T`` is a CSR view and column slices are cheap.
    """
    nf = partition.n_free
    t = trace_op.tocsc()
    return sp.csc_matrix(
        (np.concatenate([np.ones(nf), t.data]),
         np.concatenate([partition.free, partition.top_r[t.indices]]),
         np.concatenate([np.arange(nf), nf + t.indptr])),
        shape=(2 * fluid_mesh.n_velocity_nodes, nf + t.shape[1]))


@dataclass
class FluidStepResult:
    u_full: np.ndarray
    v_new: np.ndarray
    pressure: np.ndarray
    operators: dict            # assembled matrices of this step
    forcing: np.ndarray


def assemble_step_operators(setup, snapshot, mass, u_prev_full, v_half_free,
                            dt, p_in, p_out):
    """All matrices, the load and the momentum right-hand side of one fluid
    step, on the frozen geometry; shared by the coupled and the rigid step.

    ``mass`` is the weighted mass of ``snapshot``, which the caller already
    holds.  The geometry weight comes from the start-of-step wall profile
    while the advecting domain velocity uses the half step just produced by
    the wall solve; this asymmetry is deliberate and required by the energy
    identity.  Returns (operators, forcing, rhs_full).
    """
    mesh = setup.fluid_mesh
    v_half_q = fl.shell_field_at_quad(setup.shell_mesh, v_half_free, mesh)
    ops = {
        "mass": mass,
        "viscous": fl.assemble_viscous(mesh, snapshot, setup.mu),
        "advection": fl.assemble_advection(mesh, snapshot, u_prev_full,
                                           v_half_q, setup.rho_f),
        "robin": fl.assemble_robin_mass(mesh, v_half_q),
        "divergence": fl.assemble_divergence(mesh, snapshot),
    }
    forcing = fl.assemble_pressure_forcing(mesh, p_in, p_out, snapshot.radius)
    rhs_full = ((setup.rho_f / dt) * fl.componentwise(mass, u_prev_full)
                + forcing)
    return ops, forcing, rhs_full


def momentum_matrix(setup, ops, dt):
    """(rho_f/dt) M + N + (rho_f/2) S + K on the full velocity space: the
    scalar M, N and S combine on their data, which is added to both diagonal
    blocks of K's, so each entry is the two-component operators' sum."""
    fm = setup.fluid_mesh
    scalar = ((setup.rho_f / dt) * ops["mass"].data + ops["advection"].data
              + (0.5 * setup.rho_f) * ops["robin"].data)
    data = ops["viscous"].data.copy()
    data[fm.diagonal_slots] += np.concatenate([scalar, scalar])
    return fm.vv_pattern.matrix(data)


def build_reduction(setup, coupled):
    """The reduction of :func:`reduce_coupled_system` for the run of
    ``setup``, as a map of the operands' data arrays: the momentum matrix
    on the velocity pattern, the divergence on the pressure-velocity
    pattern and, when ``coupled``, the wall block on the wall-Gram
    pattern.  The rigid system reduces through the free columns of ``P``
    and has no wall block."""
    fm, nf = setup.fluid_mesh, setup.partition.n_free
    p = setup.prolongation if coupled else setup.prolongation[:, :nf]
    n, n_p = p.shape[1], fm.n_pressure_nodes
    vv, pv = fm.vv_pattern, fm.pv_pattern
    a_rows, b_rows = csr_rows(vv), csr_rows(pv)
    eye_p = sp.identity(n_p, format="csr")
    terms = [(0, a_rows, vv.indices, p.T, p, (0, 0), 1.0),
             (vv.nnz, b_rows, pv.indices, eye_p, p, (n, 0), 1.0),
             (vv.nnz, pv.indices, b_rows, p.T, eye_p, (0, n), -1.0)]
    if coupled:
        ms = setup.shell_mass
        eye_w = sp.identity(n - nf, format="csr")
        terms.append((vv.nnz + pv.nnz, csr_rows(ms), ms.indices, eye_w, eye_w,
                      (nf, nf), 1.0))
    return ProductMap(terms, (n + n_p, n + n_p))


def reduce_coupled_system(setup, a_mom, b_div, wall=None):
    """The step's saddle system ``[[P^T A P + W, -(B P)^T], [B P, 0]]``,
    reduced through the run's prolongation ``P``.

    ``wall`` (W) acts on the trailing reduced unknowns, the wall velocity;
    without it the system is the rigid one, over the free columns of ``P``
    with no wall block.  The operands must be on their fixed patterns (see
    :func:`build_reduction`); the map is built on the first call of each
    kind and kept on ``setup``, so every step system of a run has the same
    pattern.
    """
    if wall is None:
        return setup.rigid_reduction(np.concatenate([a_mom.data, b_div.data]))
    return setup.coupled_reduction(
        np.concatenate([a_mom.data, b_div.data, wall.data]))


def _solve_reduced(setup, p, ops, load, solver, wall=None):
    """Reduce the step, solve it with the reduced momentum load ``load``
    and prolong through ``p``; returns (reduced velocity, full velocity,
    pressure)."""
    system = reduce_coupled_system(
        setup, momentum_matrix(setup, ops, setup.dt), ops["divergence"], wall)
    n = p.shape[1]
    x = solver.solve(system, np.concatenate(
        [load, np.zeros(setup.fluid_mesh.n_pressure_nodes)]))
    return x[:n], p @ x[:n], x[n:]


def fluid_step(setup, snapshot, mass, u_prev_full, shell_half, p_in, p_out,
               solver):
    """Solve the coupled fluid/wall-velocity problem for one step of the
    run's ``dt``.

    ``mass`` is the weighted mass of ``snapshot``.  ``shell_half`` is the
    wall state after the elastodynamics half step (its ``v_star`` is the
    half-step velocity).  Returns the end-of-step velocity field, wall
    velocity, and pressure; the wall displacement does not change in this
    half step.  ``solver`` is the run's fluid-step
    :class:`~wallflow.sparsela.ReusedFactorSolver`.
    """
    if snapshot.min_radius <= 0.0:
        raise WallContact(snapshot.min_radius, snapshot.min_radius_z)
    v_half = shell_half.v_star
    ops, forcing, rhs_full = assemble_step_operators(
        setup, snapshot, mass, u_prev_full, v_half, setup.dt, p_in, p_out)
    p, nf = setup.prolongation, setup.partition.n_free
    load = p.T @ rhs_full
    load[nf:] += (setup.rho_s_h / setup.dt) * (setup.shell_mass @ v_half)
    x, u_full, pressure = _solve_reduced(setup, p, ops, load, solver,
                                         setup.wall_block)
    return FluidStepResult(u_full=u_full, v_new=x[nf:], pressure=pressure,
                           operators=ops, forcing=forcing)


def rigid_fluid_step(setup, snapshot, mass, u_prev_full, p_in, p_out, solver):
    """The fluid step of :func:`fluid_step` with the wall frozen: the wall
    velocity is zero and the reduced system has no wall block (every
    top-edge DOF is zero).  Test harness for rigid-wall channel flow."""
    ops, forcing, rhs_full = assemble_step_operators(
        setup, snapshot, mass, u_prev_full, setup.shell_mesh.zero_free(),
        setup.dt, p_in, p_out)
    p = setup.prolongation[:, :setup.partition.n_free]
    _, u_full, pressure = _solve_reduced(setup, p, ops, p.T @ rhs_full,
                                         solver)
    return FluidStepResult(u_full=u_full, v_new=setup.shell_mesh.zero_free(),
                           pressure=pressure, operators=ops, forcing=forcing)

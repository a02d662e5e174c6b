"""Monolithic fluid step with the wall velocity as a coupled unknown.

One linear solve per step over (interior fluid velocities, pressures, wall
velocity): the interface condition u_r = v on the top edge is eliminated
through the Hermite trace map, so wall inertia and wall viscosity land on
the trace block of the system (Robin-type coupling).  That implicit
treatment of wall inertia is what makes the split scheme unconditionally
stable, and elimination (rather than a multiplier) keeps the discrete
energy identities exact at the algebra level.

The step systems of one run differ only slightly from step to step, so a
run passes one :class:`~wallflow.sparsela.ReusedFactorSolver` to every
step: the LU of an earlier step preconditions GMRES on the current one, and
the system is refactored only when GMRES misses the residual contract.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fluid as fl
from . import shell as sh
from .errors import MeshAlignmentError, WallContact


def build_coupling(shell_mesh, fluid_mesh, tol=1e-12):
    """Trace map from free wall DOFs to top-edge velocity node values.

    Rows follow the top-edge nodes in z order (vertices and midpoints);
    vertex rows pick the nodal value DOF, midpoint rows evaluate the cubic
    shape functions at the element midpoint, so the map is exact on the
    wall's own space.  The clamped end DOFs are absent, which pins the
    corner trace values to zero.
    """
    if shell_mesh.n_elements != fluid_mesh.n_z:
        raise MeshAlignmentError(
            f"wall elements ({shell_mesh.n_elements}) must match fluid columns "
            f"({fluid_mesh.n_z}) so interface nodes coincide")
    vertex_z = fluid_mesh.velocity_z[0::2]
    if (abs(shell_mesh.length - fluid_mesh.length) > tol * fluid_mesh.length
            or np.max(np.abs(shell_mesh.nodes - vertex_z)) > tol * fluid_mesh.length):
        raise MeshAlignmentError("wall nodes do not coincide with fluid "
                                 "top-edge vertices")
    n_top = fluid_mesh.n_cols
    rows, cols, vals = [], [], []
    f2f = shell_mesh.full_to_free
    for k in range(shell_mesh.n_nodes):
        j = f2f[2 * k]
        if j >= 0:
            rows.append(2 * k)
            cols.append(j)
            vals.append(1.0)
    for e in range(shell_mesh.n_elements):
        le = shell_mesh.element_lengths[e]
        weights = (0.5, le / 8.0, 0.5, -le / 8.0)   # cubic shapes at midpoint
        for local, w in enumerate(weights):
            j = f2f[2 * e + local]
            if j >= 0:
                rows.append(2 * e + 1)
                cols.append(j)
                vals.append(w)
    t = sp.coo_matrix((vals, (rows, cols)),
                      shape=(n_top, shell_mesh.n_free)).tocsr()
    return t


@dataclass
class CoupledSetup:
    """Per-run immutable pieces of the coupled step.

    ``solver_tol`` is the residual contract ``||Ax - b|| <= tol * ||b||`` of
    every step solve.  The mutable solve policy is not part of the setup:
    each run creates its own :class:`~wallflow.sparsela.ReusedFactorSolver`.
    """

    fluid_mesh: object
    shell_mesh: object
    partition: object
    trace_op: object          # top-edge values from free wall DOFs
    grams: tuple              # wall Gram matrices (G0, G1, G2); G0 = M_s
    shell_elastic: object     # A_s (only used by energy bookkeeping here)
    shell_viscous: object     # A'_s, zero matrix in the elastic case
    rho_f: float
    mu: float
    rho_s_h: float
    solver_tol: float = 1e-10

    @property
    def shell_mass(self):
        """M_s, the L2 Gram matrix of the wall basis."""
        return self.grams[0]


def make_setup(fluid_mesh, shell_mesh, coeffs, rho_f, mu, solver_tol=1e-10):
    grams = sh.assemble_grams(shell_mesh)
    return CoupledSetup(
        fluid_mesh=fluid_mesh,
        shell_mesh=shell_mesh,
        partition=fl.DofPartition(fluid_mesh),
        trace_op=build_coupling(shell_mesh, fluid_mesh),
        grams=grams,
        shell_elastic=sh.assemble_elastic_form(shell_mesh, coeffs, grams),
        shell_viscous=sh.assemble_viscous_form(shell_mesh, coeffs, grams),
        rho_f=rho_f,
        mu=mu,
        rho_s_h=coeffs.rho_s_h,
        solver_tol=solver_tol,
    )


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
    rhs_full = (setup.rho_f / dt) * (mass @ u_prev_full) + forcing
    return ops, forcing, rhs_full


def momentum_matrix(setup, ops, dt):
    """(rho_f/dt) M + N + (rho_f/2) S + K on the full velocity space."""
    return ((setup.rho_f / dt) * ops["mass"] + ops["advection"]
            + 0.5 * setup.rho_f * ops["robin"] + ops["viscous"])


def reduce_coupled_system(setup, a_mom, b_div, dt):
    """Eliminate constrained DOFs and append the wall-velocity block."""
    part, t = setup.partition, setup.trace_op
    free, topr = part.free, part.top_r
    a_rows_f = a_mom[free]
    a_rows_t = a_mom[topr]
    a_ff = a_rows_f[:, free]
    a_ft = a_rows_f[:, topr] @ t
    a_tf = t.T @ a_rows_t[:, free]
    a_tt = (t.T @ a_rows_t[:, topr] @ t
            + (setup.rho_s_h / dt) * setup.shell_mass + setup.shell_viscous)
    b_f = b_div[:, free]
    b_t = b_div[:, topr] @ t
    system = sp.bmat([
        [a_ff, a_ft, -b_f.T],
        [a_tf, a_tt, -b_t.T],
        [b_f, b_t, None],
    ], format="csc")
    return system, b_f, b_t


def fluid_step(setup, snapshot, mass, u_prev_full, shell_half, dt, p_in,
               p_out, solver):
    """Solve the coupled fluid/wall-velocity problem for one step.

    ``mass`` is the weighted mass of ``snapshot``.  ``shell_half`` is the
    wall state after the elastodynamics half step (its ``v_star`` is the
    half-step velocity).  Returns the end-of-step velocity field, wall
    velocity, and pressure; the wall displacement does not change in this
    half step.  ``solver`` is the run's
    :class:`~wallflow.sparsela.ReusedFactorSolver`.
    """
    part, t = setup.partition, setup.trace_op
    if snapshot.min_radius <= 0.0:
        raise WallContact(snapshot.min_radius, snapshot.min_radius_z)
    v_half = shell_half.v_star
    ops, forcing, rhs_full = assemble_step_operators(
        setup, snapshot, mass, u_prev_full, v_half, dt, p_in, p_out)
    a_mom = momentum_matrix(setup, ops, dt)
    system, _, _ = reduce_coupled_system(setup, a_mom, ops["divergence"], dt)
    rhs = np.concatenate([
        rhs_full[part.free],
        t.T @ rhs_full[part.top_r] + (setup.rho_s_h / dt) * (setup.shell_mass @ v_half),
        np.zeros(setup.fluid_mesh.n_pressure_nodes),
    ])
    x = solver.solve(system, rhs)

    nf = part.n_free
    ns = setup.shell_mesh.n_free
    w, v_new, pressure = x[:nf], x[nf:nf + ns], x[nf + ns:]
    u_full = np.zeros(2 * setup.fluid_mesh.n_velocity_nodes)
    u_full[part.free] = w
    u_full[part.top_r] = t @ v_new
    return FluidStepResult(u_full=u_full, v_new=v_new, pressure=pressure,
                           operators=ops, forcing=forcing)


def rigid_fluid_step(setup, snapshot, mass, u_prev_full, dt, p_in, p_out,
                     solver):
    """The fluid step of :func:`fluid_step` with the wall frozen: the wall
    velocity is zero and the reduced system has no wall block (every
    top-edge DOF is zero).  Test harness for rigid-wall channel flow."""
    part = setup.partition
    free = part.free
    ops, forcing, rhs_full = assemble_step_operators(
        setup, snapshot, mass, u_prev_full, setup.shell_mesh.zero_free(), dt,
        p_in, p_out)
    a_mom = momentum_matrix(setup, ops, dt)
    a_ff = a_mom[free][:, free]
    b_f = ops["divergence"][:, free]
    system = sp.bmat([[a_ff, -b_f.T], [b_f, None]], format="csc")
    rhs = np.concatenate([rhs_full[free],
                          np.zeros(setup.fluid_mesh.n_pressure_nodes)])
    x = solver.solve(system, rhs)
    u_full = np.zeros(2 * setup.fluid_mesh.n_velocity_nodes)
    u_full[free] = x[:part.n_free]
    return FluidStepResult(u_full=u_full, v_new=setup.shell_mesh.zero_free(),
                           pressure=x[part.n_free:], operators=ops,
                           forcing=forcing)

"""Monolithic fluid step with the wall velocity as a coupled unknown.

One linear solve per step over (interior fluid velocities, pressures, wall
velocity): the interface condition u_r = v on the top edge is eliminated
through the Hermite trace map, so wall inertia and wall viscosity land on
the trace block of the system (Robin-type coupling).  That implicit
treatment of wall inertia is what makes the split scheme unconditionally
stable, and elimination (rather than a multiplier) keeps the discrete
energy identities exact at the algebra level.

The elimination is the run's prolongation ``P`` (reduced unknowns to the
full velocity, fixed DOFs included) and wall injection ``E`` (a wall vector
among the reduced unknowns), both on its ``RunSetup``: a step solves
``P^T A P + E W E^T``, loads ``P^T f + E g`` and recovers ``u = P x`` and
``v = E^T x``.  A rigid wall is the same elimination with no wall velocity
left to couple (no wall columns in ``P``, ``E`` zero), so a rigid run takes
the same step, on a half step that leaves its wall at zero.

Every step of a run is solved by one
:class:`~wallflow.sparsela.ReusedFactorSolver`: the LU of an earlier step
preconditions GMRES on the current one, and the system is refactored only
when GMRES misses the residual contract.  The geometry is frozen on the
fixed reference rectangle and ``P`` and ``E`` are fixed, so every step
system has one pattern and its data are linear in the element kernels'
output.  One :class:`~wallflow.sparsela.ProductMap` per run composes the
assembly scatter with the reduction.  :func:`build_frame` makes each wall
profile's :class:`Frame`, which holds what the profile alone fixes: its
contact-checked snapshot, its weighted mass and, built by the first step
that starts from it, its share of the step system.  A step on a frame
runs one flow kernel, adds the share through the map and solves.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import ale, fluid as fl
from .errors import SolverError
from .sparsela import ProductMap, csr_rows

# relative residual contract ||Ax - b|| <= tol * ||b|| of every fluid-step
# solve; the run's ReusedFactorSolver refactors when GMRES misses it
FLUID_TOL = 1e-10


def build_coupling(fluid_mesh):
    """Trace map from the free DOFs of ``fluid_mesh.wall`` to top-edge
    velocity node values.

    Rows follow the top-edge nodes in z order (vertices and midpoints).  A
    vertex row picks the nodal value DOF and a midpoint row evaluates the
    cubic shape functions at the element midpoint, so the map is exact on
    the wall's own space.  Built column by column (CSC): the value DOF of an
    interior node has 1 at its vertex and 1/2 at the two adjacent
    midpoints, its slope DOF -l/8 and +l/8 at the midpoints of the elements
    to its left and right.  The clamped end DOFs are absent, which pins the
    corner trace values to zero.  The wall mesh is the fluid mesh's top
    edge: one wall element per fluid column.
    """
    wall = fluid_mesh.wall
    k = np.arange(1, wall.n_nodes - 1, dtype=np.int32)  # interior nodes
    le = wall.element_lengths
    half = np.full(k.size, 0.5)
    rows = np.stack([2 * k - 1, 2 * k, 2 * k + 1, 2 * k - 1, 2 * k + 1], axis=1)
    vals = np.stack([half, np.ones(k.size), half,
                     -le[k - 1] / 8.0, le[k] / 8.0], axis=1)
    indptr = np.zeros(wall.n_free + 1, dtype=np.int32)
    indptr[1::2] = 5 * np.arange(k.size) + 3
    indptr[2::2] = 5 * np.arange(1, k.size + 1)
    return sp.csc_matrix((vals.ravel(), rows.ravel(), indptr),
                         shape=(fluid_mesh.n_cols, wall.n_free))


def build_prolongation(fluid_mesh, trace_op, n_wall):
    """The elimination as one map ``P`` from reduced unknowns (free fluid
    DOFs, then the first ``n_wall`` columns of the CSC ``trace_op``: all
    free wall DOFs, or 0 for a rigid wall) to the full velocity vector;
    the one place that classifies the velocity DOFs.

    Fixed (eliminated at zero, so zero rows): axial component on the top
    edge, radial component on the bottom, inlet and outlet edges.  Coupled:
    radial component on the top edge, in z order, slaved to the wall
    velocity through the trace map's rows (the corner values come out
    exactly zero because the wall space is clamped).  Everything else is
    free, and ``P`` is the identity there.  Reduced operators are ``P^T A
    P``, reduced loads ``P^T f`` and recovered fields ``P x``.  Stored as
    CSC, so ``P.T`` is a CSR view and column slices are cheap.
    """
    fm, nv = fluid_mesh, fluid_mesh.n_velocity_nodes
    top_r = nv + fm.top_nodes
    free = np.ones(2 * nv, dtype=bool)
    free[np.r_[fm.top_nodes, top_r, nv + fm.bottom_nodes,
               nv + fm.inlet_nodes, nv + fm.outlet_nodes]] = False
    free = np.flatnonzero(free)
    nf = free.size
    indptr = trace_op.indptr[:n_wall + 1]
    rows = trace_op.indices[:indptr[-1]]
    return sp.csc_matrix(
        (np.concatenate([np.ones(nf), trace_op.data[:indptr[-1]]]),
         np.concatenate([free, top_r[rows]]),
         np.concatenate([np.arange(nf), nf + indptr])),
        shape=(2 * nv, nf + n_wall))


GEOMETRY, FLOW = 0, 1      # the operand groups of the run's reduction map


@dataclass
class Frame:
    """A wall profile's ``snapshot``, scalar weighted ``mass`` and ``data``,
    the geometry group's share of every step system on it: None until the
    first step on the frame builds it."""
    snapshot: object
    mass: object
    data: np.ndarray = None


@dataclass
class FluidStepResult:
    """A fluid step's end state; ``mass_u`` is ``u_full`` under the end
    frame's mass, the next step's ``mass_u_prev``."""
    u_full: np.ndarray
    v_new: np.ndarray
    pressure: np.ndarray
    mass_u: np.ndarray
    flow: np.ndarray           # the flow data, for the ledger's checks
    v_half_q: np.ndarray       # the domain velocity at the quadrature points
    forcing: np.ndarray


def geometry_operands(setup, snapshot):
    """The geometry group's input on ``snapshot``, written in place: the
    viscous entries, the raw divergence blocks, the wall block's data."""
    mesh, step_map = setup.fluid_mesh, setup.reduction
    x = np.empty(step_map.g[GEOMETRY].shape[1])
    nk, nd = fl.VISCOUS_PER_CELL * mesh.n_cells, x.size - setup.wall_block.nnz
    fl.assemble_viscous_blocks(mesh, snapshot, setup.mu, out=x[:nk])
    fl.assemble_divergence_blocks(mesh, snapshot, out=x[nk:nd])
    x[nd:] = setup.wall_block.data
    return x


def reduced_viscous(setup, snapshot):
    """``P^T K P`` on ``snapshot``: the geometry group on its viscous
    entries, every other operand zero."""
    mesh, step_map = setup.fluid_mesh, setup.reduction
    k, n = np.zeros(step_map.g[GEOMETRY].shape[1]), setup.prolongation.shape[1]
    fl.assemble_viscous_blocks(mesh, snapshot, setup.mu,
                               out=k[:fl.VISCOUS_PER_CELL * mesh.n_cells])
    return step_map.matrix(step_map(GEOMETRY, k))[:n, :n]


def build_frame(setup, eta):
    """The :class:`Frame` of the wall profile ``eta`` (free wall DOFs): its
    snapshot, which raises WallContact near contact, and weighted mass."""
    snapshot = ale.build_snapshot(setup.fluid_mesh, eta, setup.radius)
    return Frame(snapshot, fl.assemble_weighted_mass(setup.fluid_mesh,
                                                     snapshot))


def build_reduction(setup):
    """The map of :func:`reduce_coupled_system` for the run of ``setup``:
    the assembly scatter of its raw operands composed with the reduction,
    the wall block injected by the run's ``E`` (zero for a rigid wall).
    Viscous entries off the diagonal are read at their entry and at its
    mirror, as the divergence blocks are by ``B P`` and ``-(B P)^T``; the
    scalar data, the flow group, once per velocity component."""
    fm, w, e = setup.fluid_mesh, setup.wall_block, setup.wall_injection
    p = setup.prolongation.tocsr()
    n, n_p, nv = p.shape[1], fm.n_pressure_nodes, fm.n_velocity_nodes
    eye_p = sp.identity(n_p, format="csr")
    s_rows, s_cols = csr_rows(fm.scalar_pattern), fm.scalar_pattern.indices
    v_rows, v_cols, m = fm.viscous_entries()
    d_rows, d_cols = fm.divergence_entries()
    d0, w0 = v_rows.size, v_rows.size + d_rows.size
    return ProductMap(
        [[(0, v_rows, v_cols, p.T, p, (0, 0), 1.0),
          (m, v_cols[m:], v_rows[m:], p.T, p, (0, 0), 1.0),
          (d0, d_rows, d_cols, eye_p, p, (n, 0), 1.0),
          (d0, d_cols, d_rows, p.T, eye_p, (0, n), -1.0),
          (w0, csr_rows(w), w.indices, e, e.T, (0, 0), 1.0)],
         [(0, s_rows, s_cols, p.T, p, (0, 0), 1.0),
          (0, s_rows + nv, s_cols + nv, p.T, p, (0, 0), 1.0)]],
        (n + n_p, n + n_p))


def reduce_coupled_system(setup, frame, flow):
    """The step's saddle system ``[[P^T A P + E W E^T, -(B P)^T], [B P,
    0]]``, ``A = K + I_2 (x) F``: the ``frame``'s data, built here on the
    first step on the frame, plus the flow group's share of the scalar
    flow data ``flow`` (``F``), through the run's one map, so every step
    system of a run has the same pattern."""
    if frame.data is None:
        frame.data = setup.reduction(GEOMETRY,
                                     geometry_operands(setup, frame.snapshot))
    data = setup.reduction(FLOW, flow)
    data += frame.data
    return setup.reduction.matrix(data)


def fluid_step(setup, frame, end, u_prev_full, shell_half, p_in, p_out,
               solver, mass_u_prev):
    """The coupled step of the run's ``dt`` from the start-of-step
    ``frame`` to the end-of-step frame ``end``, whose mass alone it reads,
    on the start frame's geometry but with the half-step velocity of
    ``shell_half`` (the asymmetry the energy identity needs), solved by
    the run's fluid-step ``solver``; ``mass_u_prev`` is
    ``componentwise(frame.mass, u_prev_full)``, the previous step's
    ``mass_u``.  One reduced solve for ``x``, then ``u = P x`` and
    ``v_new = E^T x``; a non-finite ``x`` is a SolverError."""
    mesh, v_half = setup.fluid_mesh, shell_half.v_star
    v_half_q = fl.shell_field_at_quad(mesh, v_half)
    flow = fl.assemble_flow(mesh, frame.snapshot, u_prev_full, v_half_q,
                            setup.rho_f, setup.dt, frame.mass, end.mass)
    forcing = fl.assemble_pressure_forcing(mesh, p_in, p_out,
                                           frame.snapshot.radius)
    rhs_full = (setup.rho_f / setup.dt) * mass_u_prev + forcing
    p, e = setup.prolongation, setup.wall_injection
    load = p.T @ rhs_full + e @ ((setup.rho_s_h / setup.dt)
                                 * (setup.shell_mass @ v_half))
    system = reduce_coupled_system(setup, frame, flow)
    x = solver.solve(system, np.concatenate([load,
                                             np.zeros(mesh.n_pressure_nodes)]))
    if not np.isfinite(x).all():
        raise SolverError("non-finite solution fields")
    n = p.shape[1]
    u_full = p @ x[:n]
    return FluidStepResult(u_full=u_full, v_new=e.T @ x[:n], pressure=x[n:],
                           mass_u=fl.componentwise(end.mass, u_full),
                           flow=flow, v_half_q=v_half_q, forcing=forcing)

"""The one time loop of every mode: alternate the wall elastodynamics half
step and the coupled fluid step, manage state history, pressure averaging,
contact halting, the steady stop of a rigid run, and run finalization.

The splitting per step n:

1. wall half step from (eta_n, v_n), giving eta_half and v_half; the fluid
   is untouched;
2. coupled fluid step on the geometry frozen at eta_n, with domain velocity
   v_half, giving (u_new, v_new); the wall displacement is untouched, so
   eta_{n+1} = eta_half = eta_n + dt * v_half exactly.

The geometry-from-the-start-of-step / velocity-from-the-half-step pairing
is what makes the kinetic-energy weight update an identity; don't "fix" it.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import coupling, fluid, shell
from .config import ingest_waveform, validate_config
from .energy import EnergyLedger, EnergyMonitor
from .errors import ConfigError, SolverError, ValidationError, WallContact
from .materials import derive_coefficients
from .sparsela import ReusedFactorSolver, SolveStats

STATUS_COMPLETED = "completed"
STATUS_WALL_CONTACT = "wall-contact"
STATUS_SOLVER_FAILURE = "solver-failure"

EXIT_CODES = {STATUS_COMPLETED: 0, STATUS_WALL_CONTACT: 2,
              STATUS_SOLVER_FAILURE: 3}

# a rigid run is steady, and stops, once the relative velocity increment of
# a step falls below this
STEADY_TOL = 1e-10


@dataclass
class TrajectoryRecord:
    """The t = 0 state, snapshots at the configured cadence, the end state.

    Stored fields are piecewise constant in time between steps; timestamps
    are exact multiples of dt.  Wall fields are free DOFs, as the run's
    ``ShellState`` holds them; ``ShellMesh.to_full`` gives their node values.
    """

    times: list = field(default_factory=list)
    etas: list = field(default_factory=list)        # free wall DOFs
    vs: list = field(default_factory=list)          # free wall DOFs
    v_stars: list = field(default_factory=list)     # free wall DOFs
    us: list = field(default_factory=list)          # full velocity DOFs
    ps: list = field(default_factory=list)

    def store(self, t, state, u_full, p):
        self.times.append(float(t))
        for stored, vec in ((self.etas, state.eta), (self.vs, state.v),
                            (self.v_stars, state.v_star),
                            (self.us, u_full), (self.ps, p)):
            stored.append(vec.copy())

    def __len__(self):
        return len(self.times)


@dataclass
class RunResult:
    """The one result of every ending of a run: ``record`` starts at t = 0
    and its last entry is always the end state, the last completed step's,
    and ``ledger``, formed only when the config's ``output.ledger`` is
    ``csv`` and None otherwise, has one row per completed step."""

    status: str
    setup: "RunSetup"                # the run's meshes, operators, data
    record: TrajectoryRecord
    ledger: EnergyLedger
    contact: tuple = None            # (t, z) of first threshold crossing
    failure: str = None
    solver: SolveStats = None        # fluid-step solve counts; not in the ledger
    steps: int = 0                   # completed steps
    increment: float = None          # a rigid run's last scaled increment

    @property
    def exit_code(self):
        return EXIT_CODES[self.status]


class RunSetup:
    """Meshes, operators, and parameters shared by every step of a run: the
    one per-run object, which carries the wall Gram matrices and forms, the
    wall half step's matrix, the fluid step's wall block, the trace map, the
    prolongation ``P`` (with no wall columns for a rigid wall: the run's one
    mode choice) and, built on first use, the wall injection ``E`` and the
    fluid step's reduction map.  Each linear system of a run is solved
    through a ``ReusedFactorSolver`` of its own, not here."""

    def __init__(self, cfg):
        self.cfg = cfg
        # elastic mode: D = 0, as the config forces viscous_modulus = 0
        self.coeffs = coeffs = derive_coefficients(cfg)
        self.radius = cfg["geometry"]["radius"]
        self.length = cfg["geometry"]["length"]
        self.rho_f = cfg["fluid"]["density"]
        self.mu = cfg["fluid"]["viscosity"]
        self.t_final = cfg["time"]["t_final"]
        self.n_steps = cfg["time"]["n_steps"]
        self.dt = self.t_final / self.n_steps
        self.fluid_mesh = fm = fluid.FluidMesh(
            cfg["mesh"]["n_z"], cfg["mesh"]["n_r"], self.length)
        # the wall mesh is the fluid mesh's top edge
        self.shell_mesh = sm = shell.ShellMesh(fm.n_z, self.length)
        self.grams = g = shell.assemble_grams(sm)    # (G0, G1, G2)
        self.shell_mass = g[0]                       # M_s = G0
        self.shell_elastic = shell.combine_grams(g, (coeffs.C0, coeffs.C1,
                                                     coeffs.C2))
        self.shell_viscous = shell.combine_grams(g, (coeffs.D0, coeffs.D1,
                                                     coeffs.D2))
        self.rho_s_h = coeffs.rho_s_h
        # the fluid step's wall block rho_s_h/dt M_s + D and the wall half
        # step's matrix rho_s_h M_s + dt^2 A, constant for a run
        self.wall_block = shell.combine_grams(
            (g[0], self.shell_viscous), (coeffs.rho_s_h / self.dt, 1.0))
        self.wall_matrix = shell.combine_grams(
            (g[0], self.shell_elastic), (coeffs.rho_s_h, self.dt * self.dt))
        self.partition = fluid.DofPartition(fm)
        self.trace_op = coupling.build_coupling(sm, fm)   # top edge <- wall
        # a rigid wall leaves no wall velocity to couple: P has no wall columns
        n_wall = 0 if cfg["mode"] == "rigid" else sm.n_free
        self.prolongation = coupling.build_prolongation(
            fm, self.partition, self.trace_op, n_wall)
        # the last time a run asks for: its last step's end or t_final
        t_end = max(self.t_final, self.n_steps * self.dt)
        self.wave_in = ingest_waveform(cfg["waveform"]["inlet"], t_end)
        self.wave_out = ingest_waveform(cfg["waveform"]["outlet"], t_end)

    @functools.cached_property
    def wall_injection(self):
        """``E``, the wall velocity's place among the reduced unknowns: a
        wall vector ``v`` enters as ``E v`` and ``E^T x`` is the wall
        velocity of ``x``; zero for a rigid wall.  Built on first use."""
        return sp.eye(self.prolongation.shape[1], self.shell_mesh.n_free,
                      k=-self.partition.n_free, format="csr")

    @functools.cached_property
    def reduction(self):
        """The fluid step's reduction map, built on its first use."""
        return coupling.build_reduction(self)

    def initial_data(self):
        """Initial fields ``(eta0, v0, u0)`` per the config, the wall's as
        free DOFs and the velocity's as full DOFs, compatible by
        construction; a bump whose fields overflow is a ConfigError."""
        spec = self.cfg["initial_data"]
        sm, fm = self.shell_mesh, self.fluid_mesh
        if spec["kind"] == "zero":
            return sm.zero_free(), sm.zero_free(), np.zeros(
                2 * fm.n_velocity_nodes)
        length = self.length
        amp_e = spec.get("eta_amplitude", 0.0)
        amp_v = spec.get("v_amplitude", 0.0)

        def bump(z):
            s = z / length
            return 16.0 * s**2 * (1.0 - s)**2

        def dbump(z):
            s = z / length
            return 32.0 * s * (1.0 - s) * (1.0 - 2.0 * s) / length

        u0 = np.zeros(2 * fm.n_velocity_nodes)
        with np.errstate(over="ignore", invalid="ignore"):
            eta0 = amp_e * sm.interpolate(bump, dbump)
            v0 = amp_v * sm.interpolate(bump, dbump)
            # radial velocity grows linearly from the symmetry line to the
            # wall trace of v0 through the trace map of every step's P, so
            # the interface condition holds exactly at every edge node; the
            # r = 0 row (the first) stays +0 whatever the sign of v0
            u0[fm.n_velocity_nodes + fm.n_cols:] = np.outer(
                fm.velocity_r[1:], self.trace_op @ v0).ravel()
        if not all(np.isfinite(f).all() for f in (eta0, v0, u0)):
            raise ConfigError("initial_data: the bump's fields overflow on "
                              "this geometry; lower its amplitudes")
        return eta0, v0, u0


def run(cfg):
    """Execute a configured run of any mode; returns trajectory, ledger,
    status.  The run's :class:`EnergyMonitor` forms the ledger, its ``e0``
    and trace constant, only when the config's ``output.ledger`` is ``csv``.

    A rigid wall's half step leaves it at zero, so a rigid run keeps one
    frame; it stops once a step's relative velocity increment, taken on
    ``u`` and ``du`` scaled by the power of two of ``max |u|`` so no norm
    underflows, falls below :data:`STEADY_TOL`.

    A :class:`WallContact` of any snapshot, or a :class:`SolverError` of a
    wall or fluid step, ends the run in one handler with the steps completed
    so far: a ledger prefix that verifies on its own (a contact at t = 0
    keeps the zero energy header) and a record ending with the last state.
    """
    setup = RunSetup(cfg)
    # the run's map is built before the first step's arrays, so its
    # transient memory adds to none of theirs
    setup.reduction
    dt, n_steps = setup.dt, setup.n_steps
    solver = ReusedFactorSolver(coupling.FLUID_TOL)
    wall_solver = ReusedFactorSolver(shell.STRUCTURE_TOL)
    steady_stop = cfg["mode"] == "rigid"

    eta0, v0, u = setup.initial_data()
    state = shell.ShellState(eta=eta0, v=v0, v_star=v0)
    pressure = np.zeros(setup.fluid_mesh.n_pressure_nodes)

    record = TrajectoryRecord()
    record.store(0.0, state, u, pressure)
    monitor = (EnergyMonitor(setup) if cfg["output"]["ledger"] == "csv"
               else None)
    cadence = cfg["output"]["cadence"]

    status, contact, failure = STATUS_COMPLETED, None, None
    t = t_next = 0.0
    steps, increment = 0, None
    try:
        frame = coupling.build_frame(setup, state.eta)
        # e0 and the first load; each step returns the next product
        mass_u = fluid.componentwise(frame.mass, u)
        if monitor is not None:
            monitor.start(state, u, mass_u, frame)

        for n in range(n_steps):
            t_next = (n + 1) * dt
            p_in = setup.wave_in.average(n * dt, t_next)
            p_out = setup.wave_out.average(n * dt, t_next)

            half = shell.structure_step(setup, state, wall_solver)
            # the end-of-step profile, checked for contact before the
            # fluid step, which still runs on the start-of-step frame; a
            # wall that has not moved ends on the frame it started on
            end = (frame if np.array_equal(half.eta, state.eta)
                   else coupling.build_frame(setup, half.eta))
            result = coupling.fluid_step(setup, frame, end, u, half,
                                         p_in, p_out, solver, mass_u)
            if monitor is not None:
                monitor.record_step(state, u, half, result, frame, end, p_in,
                                    p_out)
            if steady_stop:
                e = -np.frexp(np.max(np.abs(result.u_full)))[1]
                increment = (
                    np.linalg.norm(np.ldexp(result.u_full - u, e))
                    / max(np.linalg.norm(np.ldexp(result.u_full, e)), 1e-30))
            frame, mass_u = end, result.mass_u
            state = shell.ShellState(eta=half.eta, v=result.v_new,
                                     v_star=half.v_star)
            u, pressure = result.u_full, result.pressure
            t, steps = t_next, n + 1
            if steps % cadence == 0:
                record.store(t, state, u, pressure)
            if steady_stop and increment < STEADY_TOL:
                break
    except WallContact as exc:
        status, contact = STATUS_WALL_CONTACT, (t_next, exc.z_location)
    except SolverError as exc:
        status, failure = STATUS_SOLVER_FAILURE, str(exc)

    if record.times[-1] != t:
        record.store(t, state, u, pressure)
    ledger = monitor.ledger if monitor is not None else None
    return RunResult(status, setup, record, ledger, contact=contact,
                     failure=failure, solver=solver.stats, steps=steps,
                     increment=increment)


# -- rigid-wall test harness -------------------------------------------------


_P2_MASS = np.array([[4.0, 2.0, -1.0], [2.0, 16.0, 2.0],
                     [-1.0, 2.0, 4.0]]) / 30.0


def _column_l2_sq(vals, h):
    """Exact L2 norm squared of the per-cell quadratic interpolant through
    3-node column values spaced h/2 apart: ``h v^T M v`` per cell of width
    h, with M the P2 mass matrix of a unit cell."""
    vals = np.asarray(vals, dtype=float)
    cells = np.stack([vals[0:-1:2], vals[1::2], vals[2::2]], axis=1)
    return h * float(np.einsum("ci,ij,cj->", cells, _P2_MASS, cells))


def poiseuille_profile_error(cfg):
    """L2-relative mismatch of the mid-channel axial profile that
    ``run(cfg)`` of a rigid ``cfg`` ends on against the parabolic solution
    of pressure-driven flow between the symmetry line and a no-slip wall;
    a failed step is a SolverError.  ``info["steady"]`` is false when the
    march ran out of steps before its increment fell below
    :data:`STEADY_TOL`.  A config of another mode is a ConfigError."""
    if cfg["mode"] != "rigid":
        raise ConfigError("poiseuille needs a rigid-mode configuration")
    result = run(cfg)
    if result.failure is not None:
        raise SolverError(result.failure)
    setup, u = result.setup, result.record.us[-1]
    fm = setup.fluid_mesh
    radius, length, mu = setup.radius, setup.length, setup.mu
    dp = (setup.wave_in.average(0.0, setup.dt)
          - setup.wave_out.average(0.0, setup.dt))
    mid = fm.n_z  # velocity column at z = L/2
    profile = u[:fm.n_velocity_nodes].reshape(fm.n_rows, fm.n_cols)[:, mid]
    r_phys = radius * fm.velocity_r
    exact = dp / (2.0 * mu * length) * (radius**2 - r_phys**2)
    err = math.sqrt(_column_l2_sq(profile - exact, fm.hr))
    norm = math.sqrt(_column_l2_sq(exact, fm.hr))
    return err / norm, {"steps": result.steps, "increment": result.increment,
                        "steady": result.increment < STEADY_TOL,
                        "profile": profile, "exact": exact}


# -- temporal self-convergence harness ----------------------------------------


def fit_order(dts, errors):
    """Least-squares slope of log(error) against log(dt); an error of zero
    has no logarithm and is rejected."""
    dts = np.asarray(dts, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if np.any(errors <= 0.0):
        raise ValidationError("order fit got a zero error rung: the run's "
                              "fields do not change with dt")
    slope, _ = np.polyfit(np.log(dts), np.log(errors), 1)
    return float(slope)


def _with_steps(cfg, n_steps):   # with the ledger whose gap the study reads
    return validate_config({**cfg, "time": {**cfg["time"], "n_steps": n_steps},
                            "output": {**cfg["output"], "ledger": "csv"}})


def _run_final(cfg):
    result = run(cfg)
    if result.status != STATUS_COMPLETED:
        raise SolverError(f"convergence rung with {cfg['time']['n_steps']} "
                          f"steps ended with status {result.status}")
    # the error norms come from the run's own setup, so the study builds
    # no meshes of its own; every run of a study has the same meshes
    rec = result.record
    return {"eta": rec.etas[-1], "v": rec.vs[-1], "u": rec.us[-1],
            "gap": result.ledger.v_vstar_gap(),
            "norms": (result.setup.shell_mass, fluid.assemble_unweighted_mass(
                result.setup.fluid_mesh))}


@dataclass
class ConvergenceReport:
    dts: list
    errors: dict        # field -> list of errors per rung
    orders: dict        # field -> fitted slope
    gaps: list
    gap_order: float

    def __str__(self):
        lines = ["dt ladder: " + ", ".join(f"{d:.4e}" for d in self.dts)]
        for name, errs in self.errors.items():
            errline = ", ".join(f"{e:.4e}" for e in errs)
            lines.append(f"{name} errors: {errline}  (order "
                         f"{self.orders[name]:.3f})")
        lines.append("v-v* gaps: " + ", ".join(f"{g:.4e}" for g in self.gaps)
                     + f"  (order {self.gap_order:.3f})")
        return "\n".join(lines)


def self_convergence_study(cfg, rung_steps, reference_steps):
    """Errors at the final time against a fine-dt reference of the same run.

    The spatial mesh is shared by every rung, so the observed order isolates
    the time discretization.  Before any run, a step count the schema
    rejects, a rigid wall, fewer than two distinct rungs or a reference no
    finer than the finest rung is a ConfigError.
    """
    reference = _with_steps(cfg, reference_steps)
    if reference["mode"] == "rigid":
        raise ConfigError("a convergence study needs a moving wall: a rigid "
                          "wall's eta and v are zero on every rung")
    rung_cfgs = sorted((_with_steps(cfg, n) for n in rung_steps),
                       key=lambda c: c["time"]["n_steps"])
    rung_steps = [c["time"]["n_steps"] for c in rung_cfgs]
    if (len(set(rung_steps)) < max(len(rung_steps), 2)
            or reference_steps <= rung_steps[-1]):
        raise ConfigError(
            f"a convergence study needs two or more rungs of distinct step "
            f"counts and a reference finer than them all, got rungs "
            f"{rung_steps} and reference {reference_steps}")
    *rungs, ref = [_run_final(c) for c in rung_cfgs + [reference]]

    ms, mu_mass = ref["norms"]

    def norm(x, mx):    # sqrt(x^T M x) from x and M x
        return math.sqrt(max(float(x @ mx), 0.0))

    errors = {"eta": [], "u": [], "v": []}
    for out in rungs:
        d_eta, d_v, d_u = (out[k] - ref[k] for k in ("eta", "v", "u"))
        errors["eta"].append(norm(d_eta, ms @ d_eta))
        errors["v"].append(norm(d_v, ms @ d_v))
        errors["u"].append(norm(d_u, fluid.componentwise(mu_mass, d_u)))
    dts = [cfg["time"]["t_final"] / n for n in rung_steps]
    orders = {name: fit_order(dts, errs) for name, errs in errors.items()}
    gaps = [out["gap"] for out in rungs]
    gap_order = fit_order(dts, gaps)
    return ConvergenceReport(dts=dts, errors=errors, orders=orders,
                             gaps=gaps, gap_order=gap_order)

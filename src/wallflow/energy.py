"""Per-step energy bookkeeping and the run-level verifier.

Every completed step appends one ledger row holding the semi-discrete
energies, the dissipation, every squared jump term, the pressure work, and
the defects of the per-step identities:

* the wall half step satisfies an exact energy *equality* (kinetic +
  elastic energy plus squared jumps is conserved);
* the fluid step satisfies an exact balance whose damped form is the
  stability inequality: the end-of-step energy plus jumps plus dissipation
  equals the start energy plus the pressure work;
* entrywise, on the fluid step's own data: its domain velocity takes the
  start profile's quadrature weights to the end one's, and its flow data
  less the two masses are skew.

Summing both telescopes to the uniform bound
``E_final + sum(dissipation + jumps) - sum(pressure work) = E_0``, which
:func:`verify_run` checks along with per-step residuals, monotonicity under
zero forcing, and the pressure-data bound with a computed (never assumed)
constant.

Conventions: ``d_fluid`` rows store dt * mu * integral of the weighted
squared strain rate (half the quadratic form of the assembled viscous
operator); the exact balance carries twice that, and the inequality form
keeps the difference as slack against the pressure-work estimate.  Jumps
are stored as raw quadratic forms (no 1/2, no densities), with densities
reapplied by the verifier from the header.
"""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from . import coupling
from .config import _number, _positive
from .errors import SolverError, WallflowError
from .fluid import assemble_pressure_forcing, componentwise, viscous_form
from .sparsela import constant_solver

LEDGER_COLUMNS = [
    "step", "t", "e_n", "e_half", "e_full",
    "d_fluid", "d_shell",
    "jump_u", "jump_v_a2", "jump_v_a1",
    "jump_eta_c0", "jump_eta_c1", "jump_eta_c2",
    "pwork", "p_in", "p_out",
    "wall_step_residual", "balance_residual",
    "mass_update_residual", "mass_update_scale",
    "advection_skew", "advection_scale",
]

ENERGY_FLOOR = 1e-30
CSV_HEADER_TAG = "# wallflow-ledger-header:"

# verifier tolerances, relative; the acceptance criteria rest on them
TOL_WALL_EQUALITY = 1e-10
TOL_BALANCE = 1e-8
TOL_TELESCOPED = 1e-8
TOL_SLACK = 1e-10
TOL_MONOTONE = 1e-12
TOL_ENTRYWISE = 1e-13

# every header key the verifier reads, each required, with its rule
HEADER_RULES = {
    "dt": _positive, "rho_s_h": _positive, "e0": _number, "c_ref": _number,
    "p_in_l2_sq": _number, "p_out_l2_sq": _number,
    "c_ref_computed": lambda val: (None if isinstance(val, bool)
                                   else "must be true or false"),
}


class EnergyLedger:
    """Append-only record of per-step energies and identity residuals."""

    def __init__(self, header):
        self.header = header
        self.rows = []

    def append(self, row):
        missing = [c for c in LEDGER_COLUMNS if c not in row]
        if missing:
            raise WallflowError(f"ledger row is missing columns: {missing}")
        self.rows.append({c: row[c] for c in LEDGER_COLUMNS})

    def __len__(self):
        return len(self.rows)

    def column(self, name):
        return np.array([r[name] for r in self.rows], dtype=float)

    def energy_scale(self):
        vals = [float(self.header["e0"]), ENERGY_FLOOR]
        if self.rows:
            vals += [self.column("e_half").max(), self.column("e_full").max()]
        return max(vals)

    def v_vstar_gap(self):
        """Space-time L2 distance between the wall velocity and its
        half-step predictor, from the piecewise-constant records."""
        if not self.rows:
            return 0.0
        dt = float(self.header["dt"])
        return math.sqrt(dt * float(np.sum(self.column("jump_v_a2"))))

    # -- serialization ---------------------------------------------------

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            f.write(CSV_HEADER_TAG + " "
                    + json.dumps(self.header, sort_keys=True) + "\n")
            w = csv.writer(f)
            w.writerow(LEDGER_COLUMNS)
            for r in self.rows:
                w.writerow([_fmt(r[c]) for c in LEDGER_COLUMNS])


def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _parse_row(cells, where):
    """The ledger columns of one stored row as numbers; a missing or
    non-numeric cell is a WallflowError naming ``where``."""
    row = {}
    for c in LEDGER_COLUMNS:
        cell = cells.get(c)
        if cell is None:     # a CSV row cut short
            raise WallflowError(f"{where}: column {c} is missing")
        try:
            row[c] = int(cell) if c == "step" else float(cell)
        except ValueError:
            raise WallflowError(f"{where}: column {c} holds {cell!r}, "
                                "not a number") from None
    return row


def load_ledger(path):
    """Read a ledger CSV.  A file that cannot be read, is not UTF-8 text or
    cannot be parsed, or whose header breaks a rule of
    :data:`HEADER_RULES`, raises :class:`WallflowError` naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            first = f.readline()
            if not first.startswith(CSV_HEADER_TAG):
                raise WallflowError(f"{path} is not a ledger CSV")
            header = json.loads(first[len(CSV_HEADER_TAG):])
            if not isinstance(header, dict):
                raise WallflowError(f"{path}: ledger JSON is not an object")
            for key, rule in HEADER_RULES.items():
                says = ("is missing" if key not in header
                        else rule(header[key]))
                if says:
                    raise WallflowError(f"{path}: ledger header {key} {says}")
            led = EnergyLedger(header)
            reader = csv.DictReader(f)
            missing = set(LEDGER_COLUMNS) - set(reader.fieldnames or ())
            if missing:
                raise WallflowError(f"{path}: no columns {sorted(missing)}")
            for rec in reader:
                led.append(_parse_row(rec, f"{path} line {reader.line_num}"))
    except OSError as exc:
        raise WallflowError(
            f"cannot read ledger {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise WallflowError(f"{path} is not a ledger CSV") from None
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise WallflowError(f"{path}: malformed ledger JSON: {exc}") from None
    except csv.Error as exc:    # e.g. a cell over the csv module's limit
        raise WallflowError(f"{path}: malformed ledger CSV: {exc}") from None
    return led


class EnergyMonitor:
    """The one owner of a run's ledger: forms its header from the run's
    ``RunSetup`` (its per-run operators, coefficients and dt), its ``e0`` and
    trace constant at the first frame, and one row from the states and
    operators of each completed step.  A row's start energies are the last
    row's end ones, or ``e0``'s: each energy is formed once per time level."""

    def __init__(self, setup):
        self.setup = setup
        c = setup.coeffs
        self.ledger = EnergyLedger({
            "rho_f": setup.rho_f, "mu": setup.mu, "rho_s_h": c.rho_s_h,
            "radius": setup.radius, "length": setup.length,
            "dt": setup.dt, "n_steps": setup.n_steps, "mode": setup.cfg["mode"],
            "C0": c.C0, "C1": c.C1, "C2": c.C2,
            "D0": c.D0, "D1": c.D1, "D2": c.D2,
            "n_z": setup.fluid_mesh.n_z, "n_r": setup.fluid_mesh.n_r,
            "wall_elements": setup.shell_mesh.n_elements,
            "e0": 0.0, "c_ref": 0.0, "c_ref_computed": False,
            "p_in_l2_sq": setup.wave_in.l2_norm_sq(0.0, setup.t_final),
            "p_out_l2_sq": setup.wave_out.l2_norm_sq(0.0, setup.t_final),
        })
        self._start = None      # (energy, fluid kinetic energy) of the next row

    def _wall_elastic(self, eta):
        g0, g1, g2 = self.setup.grams
        c = self.setup.coeffs
        return (c.C0 * float(eta @ (g0 @ eta)) + c.C1 * float(eta @ (g1 @ eta))
                + c.C2 * float(eta @ (g2 @ eta)))

    def _kinetic(self, u_full, mass_u):
        return 0.5 * self.setup.rho_f * float(u_full @ mass_u)

    def _wall_kinetic(self, v):
        s = self.setup
        return 0.5 * s.rho_s_h * float(v @ (s.shell_mass @ v))

    def start(self, state, u, mass_u, frame):
        """Set the header's ``e0`` from the initial wall ``state`` and
        velocity ``u`` (``mass_u`` is ``u`` under ``frame.mass``), and its
        pressure-work constant from the discrete trace inequality at the
        initial ``frame``.  A failed factorization of the constant leaves
        ``c_ref`` 0 and ``c_ref_computed`` false, which the verifier reports."""
        s = self.setup
        kinetic = self._kinetic(u, mass_u)
        e0 = (kinetic + self._wall_kinetic(state.v)
              + 0.5 * self._wall_elastic(state.eta))
        p, k_red = s.prolongation, coupling.reduced_viscous(s, frame.snapshot)
        # both functionals as signed flux integrals
        ell = [p.T @ np.abs(assemble_pressure_forcing(s.fluid_mesh, p_in,
                                                      p_out, 1.0))
               for p_in, p_out in ((1.0, 0.0), (0.0, 1.0))]
        try:
            c_ref, computed = discrete_trace_constant(
                k_red, ell[0], ell[1], s.radius), True
        except SolverError:
            c_ref, computed = 0.0, False
        self.ledger.header.update(e0=e0, c_ref=c_ref, c_ref_computed=computed)
        self._start = (e0, kinetic)

    def record_step(self, state_n, u_n, shell_half, result, old, new, p_in,
                    p_out):
        """Append the ledger row of the next completed (wall + fluid) step,
        from the frames ``old`` and ``new`` of its start and end wall
        profiles, and return it; ``result.mass_u`` is the end velocity under
        ``new.mass``."""
        s = self.setup
        dt, c = s.dt, s.coeffs
        g0, g1, g2 = s.grams
        ms = s.shell_mass
        step = len(self.ledger)

        # the energy sum in one order at every time level (bitwise equal
        # start and end energies), with the shared fluid kinetic (e_n,
        # e_half) and elastic (e_half, e_full) terms once
        e_n, kinetic_n = self._start
        kinetic_full = self._kinetic(result.u_full, result.mass_u)
        elastic_half = 0.5 * self._wall_elastic(shell_half.eta)
        e_half = kinetic_n + self._wall_kinetic(shell_half.v_star) + elastic_half
        e_full = kinetic_full + self._wall_kinetic(result.v_new) + elastic_half

        d_eta = shell_half.eta - state_n.eta
        dv1 = shell_half.v_star - state_n.v
        du = result.u_full - u_n
        dv2 = result.v_new - shell_half.v_star
        jump_eta = [c.C0 * float(d_eta @ (g0 @ d_eta)),
                    c.C1 * float(d_eta @ (g1 @ d_eta)),
                    c.C2 * float(d_eta @ (g2 @ d_eta))]
        jump_v_a1 = float(dv1 @ (ms @ dv1))
        jump_u = s.rho_f * float(du @ componentwise(old.mass, du))
        jump_v_a2 = float(dv2 @ (ms @ dv2))

        d_fluid = dt * 0.5 * viscous_form(s.fluid_mesh, old.snapshot, s.mu,
                                          result.u_full)
        d_shell = dt * float(result.v_new @ (s.shell_viscous @ result.v_new))
        pwork = dt * float(result.forcing @ result.u_full)

        # w_old + dt w_dv v_half = w_new at every quadrature point, with the
        # step's v_half; the step's flow data F less its masses are skew
        w_new, flow = new.snapshot.w, result.flow
        mass_resid = float(np.abs(old.snapshot.w - w_new + dt * (
            s.fluid_mesh.quad_w_dv * result.v_half_q)).max())
        mass_scale = float(np.abs(w_new).max())
        skew = float(np.abs(
            flow + flow[s.fluid_mesh.scalar_pattern.transpose_slots]
            - (s.rho_f / dt) * (old.mass.data + new.mass.data)).max())
        skew_scale = float(np.abs(flow).max())

        scale = max(e_n, e_half, e_full, ENERGY_FLOOR)
        for name, val in (("e_n", e_n), ("e_half", e_half), ("e_full", e_full)):
            if val < -1e-12 * scale:
                raise WallflowError(
                    f"internal consistency: negative energy {name} = {val:.3e}")

        row = {
            "step": step, "t": (step + 1) * dt,
            "e_n": e_n, "e_half": e_half, "e_full": e_full,
            "d_fluid": d_fluid, "d_shell": d_shell,
            "jump_u": jump_u, "jump_v_a2": jump_v_a2, "jump_v_a1": jump_v_a1,
            "jump_eta_c0": jump_eta[0], "jump_eta_c1": jump_eta[1],
            "jump_eta_c2": jump_eta[2],
            "pwork": pwork, "p_in": p_in, "p_out": p_out,
            "mass_update_residual": mass_resid, "mass_update_scale": mass_scale,
            "advection_skew": skew, "advection_scale": skew_scale,
        }
        row["wall_step_residual"] = wall_step_residual(row, s.rho_s_h)
        row["balance_residual"] = balance_residual(row, s.rho_s_h)
        self.ledger.append(row)
        self._start = (e_full, kinetic_full)
        return row


def wall_step_residual(row, rho_s_h):
    """Defect of the wall half step's energy equality from the terms of a
    ledger row: of one row's numbers or of the ledger's columns alike, in
    the association the row was written with."""
    return abs(row["e_half"] + 0.5 * (rho_s_h * row["jump_v_a1"] + (
        row["jump_eta_c0"] + row["jump_eta_c1"] + row["jump_eta_c2"]))
        - row["e_n"])


def balance_residual(row, rho_s_h):
    """Defect of the fluid step's exact energy balance from the terms of a
    ledger row, as :func:`wall_step_residual` takes them."""
    return abs(row["e_full"] + 0.5 * row["jump_u"]
               + 0.5 * rho_s_h * row["jump_v_a2"] + 2.0 * row["d_fluid"]
               + row["d_shell"] - row["e_half"] - row["pwork"])


# relative residual contract of the two solves of the trace constant
TRACE_CONSTANT_TOL = 1e-10


def discrete_trace_constant(k_reduced, l_in_reduced, l_out_reduced, radius):
    """Pressure-work constant from the discrete trace inequality.

    Largest ratio of the squared inlet/outlet flux functionals to the fluid
    viscous dissipation quadratic form, computed exactly from two sparse
    solves (the numerator is rank two) with one LU of ``k_reduced``.  The
    returned value C satisfies

        R * (P_in t_in(u) - P_out t_out(u)) <= d(u) + C * (P_in^2 + P_out^2)

    for every discrete u, where d is the *spare* half of the viscous form.
    """
    solve = constant_solver(k_reduced, TRACE_CONSTANT_TOL)
    sols = [solve(2.0 * l) for l in (l_in_reduced, l_out_reduced)]
    gram = np.array([[float(l @ x) for x in sols]
                     for l in (l_in_reduced, l_out_reduced)])
    kappa = float(np.linalg.eigvalsh(0.5 * (gram + gram.T)).max())
    return radius**2 * kappa / 4.0


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    tolerance: float
    detail: str = ""

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        msg = f"[{tag}] {self.name}: value {self.value:.3e}, tolerance {self.tolerance:.1e}"
        if self.detail:
            msg += f" ({self.detail})"
        return msg


@dataclass
class VerdictReport:
    checks: list
    ok: bool
    scale: float
    c_impl: float
    c_needed: float
    c_ref_computed: bool

    def __str__(self):
        lines = [c.line() for c in self.checks]
        if not self.c_ref_computed:
            lines.append("trace constant c_ref was not computed (its "
                         "factorization failed); C_impl rests on the "
                         "recorded steps alone")
        lines.append(f"energy scale {self.scale:.6e}, pressure constant "
                     f"C_impl {self.c_impl:.6e}, recorded steps need "
                     f"c_needed {self.c_needed:.6e}")
        lines.append("verdict: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def _at_most(name, value, tol, detail=""):
    return CheckResult(name, bool(value <= tol), float(value), tol, detail)


def _every_row(name, holds):
    """An exact check that ``holds`` at every row; its value is the number
    of rows where it does not, and it names the first of them."""
    bad = np.flatnonzero(~holds)
    return CheckResult(name, bad.size == 0, float(bad.size), 0.0,
                       f"first bad row {bad[0]}" if bad.size else "")


def verify_run(ledger):
    """Run-level verification of the per-step identities and uniform bounds.

    Checks, all relative to max(E0, max energies, floor):

    1. wall half-step energy equality residual per step;
    2. fluid-step balance residual per step, and nonnegative slack of the
       damped inequality with the computed pressure constant;
    3. telescoped identity E_final + sum(dissipation + jumps) - sum(work) = E0;
    4. with zero pressure data: the energy chain is nonincreasing;
    5. max energy bounded by E0 plus C_impl times the squared L2 norms of
       the pressure data.

    Both residuals are recomputed from each row's terms, and exact checks
    trust nothing else the run wrote about itself: each stored residual
    equals its recomputation, each row starts from the energy the last one
    ended on (the first from the header's ``e0``), and the rows are steps
    0, 1, ... at times (step + 1) dt.

    ``C_impl`` is the trace constant computed from the actual mesh (stored
    by the monitor in the header), so a step whose pressure work exceeds
    what it allows fails the slack and the uniform bound.  The header key
    ``c_ref_computed`` says whether it was computed.  When it was not,
    ``C_impl`` is the smallest constant the recorded steps require,
    ``c_needed``, which is reported in either case.  The header is read
    with no default: :func:`load_ledger` admits only one that has every
    key of :data:`HEADER_RULES`.
    """
    h = ledger.header
    rho_s_h = float(h["rho_s_h"])
    dt = float(h["dt"])
    e0 = float(h["e0"])
    scale = ledger.energy_scale()
    checks = []

    c_ref_computed = h["c_ref_computed"]
    if not ledger.rows:
        checks.append(CheckResult("nonempty ledger", True, 0.0, 0.0,
                                  "empty run: nothing to verify"))
        return VerdictReport(checks, True, scale, float(h["c_ref"]), 0.0,
                             c_ref_computed)

    col = {c: ledger.column(c) for c in LEDGER_COLUMNS}
    matching = np.ones(len(ledger), dtype=bool)
    for name, column, identity, tol in (
            ("wall half-step energy equality", "wall_step_residual",
             wall_step_residual, TOL_WALL_EQUALITY),
            ("fluid-step energy balance", "balance_residual",
             balance_residual, TOL_BALANCE)):
        residual = identity(col, rho_s_h)
        matching &= residual == col[column]
        rel = residual / scale
        checks.append(_at_most(name, rel.max(), tol,
                               f"worst step {int(np.argmax(rel))}"))

    # smallest constant the recorded steps require: C_impl only when the
    # run could not compute the mesh trace constant of the header
    p_sq = col["p_in"] ** 2 + col["p_out"] ** 2
    trace_work = col["pwork"] / dt
    spare = col["d_fluid"] / dt
    need = np.zeros_like(p_sq)
    active = p_sq > ENERGY_FLOOR
    need[active] = (trace_work[active] - spare[active]) / p_sq[active]
    c_needed = float(max(0.0, need.max() if need.size else 0.0))
    c_impl = float(h["c_ref"]) if c_ref_computed else c_needed

    e_half, e_full = col["e_half"], col["e_full"]
    jump_eta = col["jump_eta_c0"] + col["jump_eta_c1"] + col["jump_eta_c2"]
    d_fluid, d_shell = col["d_fluid"], col["d_shell"]

    slack = (e_half + c_impl * dt * p_sq - e_full - 0.5 * col["jump_u"]
             - 0.5 * rho_s_h * col["jump_v_a2"] - (d_fluid + d_shell))
    checks.append(CheckResult("stability inequality slack",
                              bool(slack.min() / scale >= -TOL_SLACK),
                              float(slack.min() / scale), -TOL_SLACK,
                              f"worst step {int(np.argmin(slack))}"))

    dissipation_identity = 2.0 * d_fluid + d_shell
    all_jumps = (0.5 * col["jump_u"]
                 + 0.5 * rho_s_h * (col["jump_v_a1"] + col["jump_v_a2"])
                 + 0.5 * jump_eta)
    telescoped = abs(float(e_full[-1] + np.sum(dissipation_identity + all_jumps)
                           - np.sum(col["pwork"]) - e0)) / scale
    checks.append(_at_most("telescoped energy identity", telescoped,
                           TOL_TELESCOPED))

    if p_sq.max() <= ENERGY_FLOOR:
        chain = np.empty(2 * len(ledger) + 1)
        chain[0] = e0
        chain[1::2] = e_half
        chain[2::2] = e_full
        increases = np.diff(chain)
        checks.append(_at_most(
            "zero-forcing energy monotonicity", increases.max() / scale,
            TOL_MONOTONE,
            f"{int(np.sum(increases > TOL_MONOTONE * scale))} violations"))
    else:
        p_l2 = float(h["p_in_l2_sq"]) + float(h["p_out_l2_sq"])
        bound = e0 + c_impl * p_l2
        ratio = float(max(e_half.max(), e_full.max()) / max(bound, ENERGY_FLOOR))
        checks.append(CheckResult("uniform energy bound", bool(ratio <= 1.0 + 1e-12),
                                  ratio, 1.0,
                                  f"max energy / (E0 + C_impl ||P||^2)"))

    for name, column, ref in (
            ("mass/geometry update identity", "mass_update_residual",
             "mass_update_scale"),
            ("transport skew-symmetry", "advection_skew", "advection_scale")):
        rel = col[column] / np.maximum(col[ref], ENERGY_FLOOR)
        checks.append(_at_most(name, rel.max(), TOL_ENTRYWISE))

    checks.append(_every_row("stored residuals match their terms", matching))
    start = np.r_[e0, e_full[:-1]]
    checks.append(_every_row("energy chain", col["e_n"] == start))
    step = col["step"]
    checks.append(_every_row("step and time columns",
                             (step == np.arange(len(ledger)))
                             & (col["t"] == (step + 1) * dt)))

    return VerdictReport(checks, all(c.passed for c in checks), scale, c_impl,
                         c_needed, c_ref_computed)

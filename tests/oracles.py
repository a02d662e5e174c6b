"""Independent dense-quadrature assembly oracles.

Everything here is rederived from first principles: shape functions come
from solving nodal-condition systems (not from the closed forms the package
hardcodes), the geometric transform is applied by explicitly inverting the
2x2 map Jacobian per point, and assembly is plain nested loops into dense
matrices.  Quadrature rules agree with the production choices (3x3 Gauss
per fluid cell, 4-point per wall element) because the weighted integrands
are not polynomial and the comparison targets the same discrete operator.

Global DOF ordering follows the documented package conventions: velocity
nodes row-major (r outer, z inner), component-blocked; wall DOFs (value,
slope) per node with clamped ends dropped.

``expanded_products`` keeps the product map's general expansion of every
term, the reference for its direct path through selection operands, and
``one_sort_product_map`` its symbolic phase as one sort of all groups'
products, the reference for the sort per group.
``ledger_header`` is a header for hand-made ledgers that the verifier
admits.  ``womersley_velocity`` and ``long_wave_speed`` are closed forms of
the physics: oscillatory flow in a rigid channel and the speed of a
pressure wave along an elastic wall.
"""

import os
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss

from wallflow import fluid, shell, sparsela
from wallflow.ale import map_to_physical
from wallflow.config import validate_config
from wallflow.driver import RunSetup
from wallflow.materials import derive_coefficients
from wallflow.shell import ShellState
from wallflow.sparsela import ScatterPattern, _key, csr_rows
from wallflow.waveforms import Constant, HalfCosinePulse, Sampled, Sine


def run_setup(n_z, n_r, length, mu, wall, dt, mode="viscoelastic"):
    """A RunSetup in ``mode`` for the given mesh, viscosity and wall section
    with one time step of size ``dt``, which its fluid steps and wall block
    use."""
    return RunSetup(validate_config({
        "geometry": {"radius": 0.5, "length": length},
        "fluid": {"density": 1.0, "viscosity": mu},
        "wall": {"youngs_modulus": 7.5e5, "poisson_ratio": 0.5,
                 "thickness": 0.1, "density": 1.1, **wall},
        "mesh": {"n_z": n_z, "n_r": n_r, "wall_elements": n_z},
        "time": {"t_final": dt, "n_steps": 1},
        "mode": mode,
        "waveform": {"inlet": {"kind": "constant", "value": 0.0},
                     "outlet": {"kind": "constant", "value": 0.0}}}))


def ledger_header(without=(), **values):
    """A ledger header that every rule of ``energy.HEADER_RULES`` admits,
    with ``values`` put in and the keys ``without`` left out."""
    header = {"dt": 1e-3, "rho_s_h": 1.0, "e0": 1.0, "c_ref": 1.0,
              "p_in_l2_sq": 1.0, "p_out_l2_sq": 1.0, "c_ref_computed": True,
              **values}
    return {k: v for k, v in header.items() if k not in without}


def gauss01(n):
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


# -- 1D bases from nodal conditions -------------------------------------------


def lagrange_coeffs(nodes):
    """Monomial coefficients (ascending) of the Lagrange basis on ``nodes``."""
    n = len(nodes)
    v = np.vander(nodes, n, increasing=True)
    return np.linalg.solve(v, np.eye(n))      # column k: basis k


def poly_eval(coeffs, s, deriv=0):
    c = np.array(coeffs, dtype=float)
    for _ in range(deriv):
        c = c[1:] * np.arange(1, c.size)
    return sum(ck * np.asarray(s, dtype=float)**k for k, ck in enumerate(c))


def hermite_coeffs(length):
    """Monomial coefficients of the four cubic shapes on [0, 1] whose nodal
    values/z-slopes at the element ends are the unit vectors."""
    # conditions: p(0), p'(0)/length, p(1), p'(1)/length (z-derivatives)
    cond = np.zeros((4, 4))
    for k in range(4):
        cond[0, k] = 0.0**k if k > 0 else 1.0
        cond[1, k] = (k * 0.0**(k - 1) if k >= 1 else 0.0) / length
        cond[2, k] = 1.0
        cond[3, k] = k / length
    return np.linalg.solve(cond, np.eye(4))   # column m: shape m


def hermite_eval(nodes, full_dofs, z, deriv=0):
    """Evaluate a Hermite field from its full DOF vector, independently."""
    nodes = np.asarray(nodes, dtype=float)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.empty_like(z)
    for i, zi in enumerate(z):
        k = min(np.searchsorted(nodes, zi, side="right") - 1, len(nodes) - 2)
        k = max(k, 0)
        le = nodes[k + 1] - nodes[k]
        s = (zi - nodes[k]) / le
        coeffs = hermite_coeffs(le)
        val = 0.0
        for m, dof in enumerate(full_dofs[2 * k:2 * k + 4]):
            val += dof * poly_eval(coeffs[:, m], s, deriv) / le**deriv
        out[i] = val
    return out


def hermite_by_tabulation(mesh, free, z, deriv=0):
    """The wall field of the free DOFs ``free`` at ``z`` by a tabulation of
    the package's Hermite shapes at every call: the four terms of each
    point's element summed left to right against the full DOF vector."""
    dofs = mesh.to_full(free)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    k = np.clip(np.searchsorted(mesh.nodes, z, side="right") - 1,
                0, mesh.n_elements - 1)
    lk = mesh.element_lengths[k]
    s = (z - mesh.nodes[k]) / lk
    t = shell._shape_table(s, deriv) / lk[:, None] ** deriv
    t[:, 1] *= lk
    t[:, 3] *= lk
    base = 2 * k
    return (t[:, 0] * dofs[base] + t[:, 1] * dofs[base + 1]
            + t[:, 2] * dofs[base + 2] + t[:, 3] * dofs[base + 3])


def shell_gram_dense(nodes, deriv, n_gauss=6):
    """Dense free-DOF Gram matrix of the ``deriv``-th Hermite derivative."""
    nodes = np.asarray(nodes, dtype=float)
    n_nodes = len(nodes)
    gx, gw = gauss01(n_gauss)
    full = np.zeros((2 * n_nodes, 2 * n_nodes))
    for k in range(n_nodes - 1):
        le = nodes[k + 1] - nodes[k]
        coeffs = hermite_coeffs(le)
        for a in range(4):
            for b in range(4):
                acc = 0.0
                for x, w in zip(gx, gw):
                    pa = poly_eval(coeffs[:, a], x, deriv) / le**deriv
                    pb = poly_eval(coeffs[:, b], x, deriv) / le**deriv
                    acc += w * le * pa * pb
                full[2 * k + a, 2 * k + b] += acc
    return full[2:-2, 2:-2]


# -- dense fluid assembly ------------------------------------------------------


class DenseFluidOracle:
    """Loop-based Taylor-Hood assembly on (0, L) x (0, 1).

    The wall profile arrives as a full Hermite DOF vector with its node
    positions; the advecting velocity as a full velocity DOF vector.  All
    matrices are dense, in the package's global ordering.
    """

    def __init__(self, n_z, n_r, length):
        self.n_z, self.n_r, self.length = n_z, n_r, length
        self.hz, self.hr = length / n_z, 1.0 / n_r
        self.n_cols, self.n_rows = 2 * n_z + 1, 2 * n_r + 1
        self.nv = self.n_cols * self.n_rows
        self.np_ = (n_z + 1) * (n_r + 1)
        self.q2 = lagrange_coeffs(np.array([0.0, 0.5, 1.0]))
        self.q1 = lagrange_coeffs(np.array([0.0, 1.0]))
        self.gx, self.gw = gauss01(3)

    def vnode(self, iz, ir):
        return ir * self.n_cols + iz

    def pnode(self, iz, ir):
        return ir * (self.n_z + 1) + iz

    def cell_vnodes(self, cz, cr):
        return [self.vnode(2 * cz + jz, 2 * cr + jr)
                for jr in range(3) for jz in range(3)]

    def cell_pnodes(self, cz, cr):
        return [self.pnode(cz + jz, cr + jr)
                for jr in range(2) for jz in range(2)]

    def _quad_data(self, cz, cr, shell_nodes, eta_dofs, radius):
        """Per-quad-point geometry and basis tables for one cell."""
        data = []
        for qr, (t, wt) in enumerate(zip(self.gx, self.gw)):
            for qz, (s, ws) in enumerate(zip(self.gx, self.gw)):
                z = (cz + s) * self.hz
                r = (cr + t) * self.hr
                eta = hermite_eval(shell_nodes, eta_dofs, z)[0]
                deta = hermite_eval(shell_nodes, eta_dofs, z, deriv=1)[0]
                grad_a = np.array([[1.0, 0.0], [r * deta, radius + eta]])
                inv_a = np.linalg.inv(grad_a)
                phi = np.empty(9)
                gref = np.empty((9, 2))
                for a, (jr, jz) in enumerate([(jr, jz) for jr in range(3)
                                              for jz in range(3)]):
                    ps = poly_eval(self.q2[:, jz], s)
                    pt = poly_eval(self.q2[:, jr], t)
                    dps = poly_eval(self.q2[:, jz], s, 1) / self.hz
                    dpt = poly_eval(self.q2[:, jr], t, 1) / self.hr
                    phi[a] = ps * pt
                    gref[a] = [dps * pt, ps * dpt]
                gphys = gref @ inv_a
                chi = np.empty(4)
                for a, (jr, jz) in enumerate([(jr, jz) for jr in range(2)
                                              for jz in range(2)]):
                    chi[a] = (poly_eval(self.q1[:, jz], s)
                              * poly_eval(self.q1[:, jr], t))
                data.append({
                    "w": ws * wt * self.hz * self.hr,
                    "z": z, "r": r, "jac": radius + eta,
                    "phi": phi, "gphys": gphys, "chi": chi,
                })
        return data

    def _basis_strain(self, comp, gphys_a):
        g = np.zeros((2, 2))
        g[comp] = gphys_a
        return 0.5 * (g + g.T)

    def mass(self, shell_nodes, eta_dofs, radius, weighted=True):
        m = np.zeros((2 * self.nv, 2 * self.nv))
        for cz in range(self.n_z):
            for cr in range(self.n_r):
                vn = self.cell_vnodes(cz, cr)
                for q in self._quad_data(cz, cr, shell_nodes, eta_dofs, radius):
                    wj = q["w"] * (q["jac"] if weighted else 1.0)
                    for a in range(9):
                        for b in range(9):
                            val = wj * q["phi"][a] * q["phi"][b]
                            for comp in range(2):
                                m[comp * self.nv + vn[a],
                                  comp * self.nv + vn[b]] += val
        return m

    def viscous(self, shell_nodes, eta_dofs, radius, mu):
        k = np.zeros((2 * self.nv, 2 * self.nv))
        for cz in range(self.n_z):
            for cr in range(self.n_r):
                vn = self.cell_vnodes(cz, cr)
                for q in self._quad_data(cz, cr, shell_nodes, eta_dofs, radius):
                    strains = [[self._basis_strain(c, q["gphys"][a])
                                for a in range(9)] for c in range(2)]
                    for ca in range(2):
                        for cb in range(2):
                            for a in range(9):
                                for b in range(9):
                                    val = (2.0 * mu * q["w"] * q["jac"]
                                           * np.sum(strains[ca][a]
                                                    * strains[cb][b]))
                                    k[ca * self.nv + vn[a],
                                      cb * self.nv + vn[b]] += val
        return k

    def advection(self, shell_nodes, eta_dofs, radius, u_dofs, v_half_dofs,
                  rho_f):
        n = np.zeros((2 * self.nv, 2 * self.nv))
        for cz in range(self.n_z):
            for cr in range(self.n_r):
                vn = self.cell_vnodes(cz, cr)
                for q in self._quad_data(cz, cr, shell_nodes, eta_dofs, radius):
                    az = sum(u_dofs[vn[a]] * q["phi"][a] for a in range(9))
                    ar = sum(u_dofs[self.nv + vn[a]] * q["phi"][a]
                             for a in range(9))
                    vh = hermite_eval(shell_nodes, v_half_dofs, q["z"])[0]
                    avec = np.array([az, ar - vh * q["r"]])
                    conv = q["gphys"] @ avec     # (a . grad) of each basis
                    for comp in range(2):
                        for a in range(9):
                            for b in range(9):
                                val = 0.5 * rho_f * q["w"] * q["jac"] * (
                                    conv[b] * q["phi"][a]
                                    - conv[a] * q["phi"][b])
                                n[comp * self.nv + vn[a],
                                  comp * self.nv + vn[b]] += val
        return n

    def robin(self, shell_nodes, v_half_dofs):
        s = np.zeros((2 * self.nv, 2 * self.nv))
        zero_eta = np.zeros_like(v_half_dofs)
        for cz in range(self.n_z):
            for cr in range(self.n_r):
                vn = self.cell_vnodes(cz, cr)
                for q in self._quad_data(cz, cr, shell_nodes, zero_eta, 1.0):
                    vh = hermite_eval(shell_nodes, v_half_dofs, q["z"])[0]
                    for a in range(9):
                        for b in range(9):
                            val = q["w"] * vh * q["phi"][a] * q["phi"][b]
                            for comp in range(2):
                                s[comp * self.nv + vn[a],
                                  comp * self.nv + vn[b]] += val
        return s

    def divergence(self, shell_nodes, eta_dofs, radius):
        b = np.zeros((self.np_, 2 * self.nv))
        for cz in range(self.n_z):
            for cr in range(self.n_r):
                vn = self.cell_vnodes(cz, cr)
                pn = self.cell_pnodes(cz, cr)
                for q in self._quad_data(cz, cr, shell_nodes, eta_dofs, radius):
                    for ap in range(4):
                        for bv in range(9):
                            for comp in range(2):
                                b[pn[ap], comp * self.nv + vn[bv]] += (
                                    q["w"] * q["jac"] * q["chi"][ap]
                                    * q["gphys"][bv][comp])
        return b

    def forcing(self, p_in, p_out, radius):
        f = np.zeros(2 * self.nv)
        gx, gw = gauss01(3)
        for cr in range(self.n_r):
            for jr in range(3):
                weight = 0.0
                for t, w in zip(gx, gw):
                    weight += w * self.hr * poly_eval(self.q2[:, jr], t)
                f[self.vnode(0, 2 * cr + jr)] += radius * p_in * weight
                f[self.vnode(self.n_cols - 1, 2 * cr + jr)] -= (
                    radius * p_out * weight)
        return f


# -- helpers only the tests call ------------------------------------------------
#
# These sit on top of the package's own data structures and operators; they
# are checks and conveniences of the test suite, not independent oracles.


def transformed_gradient(snapshot_point, ref_jacobian):
    """Transformed gradient of a vector field at one or many points.

    ``snapshot_point`` is a (deta, jac, r) triple (scalars or broadcastable
    arrays); ``ref_jacobian[..., i, j]`` holds the reference partial of
    component i along direction j (j = 0 for z, j = 1 for r).
    """
    deta, jac, r = snapshot_point
    ref = np.asarray(ref_jacobian, dtype=float)
    out = np.empty_like(ref)
    out[..., 0] = ref[..., 0] - np.asarray(r * deta / jac)[..., None] * ref[..., 1]
    out[..., 1] = ref[..., 1] / np.asarray(jac)[..., None]
    return out


def transformed_divergence(snapshot_point, ref_jacobian):
    """Trace of the transformed gradient (the moving-domain divergence)."""
    g = transformed_gradient(snapshot_point, ref_jacobian)
    return g[..., 0, 0] + g[..., 1, 1]


def symmetrized_transformed_gradient(snapshot_point, ref_jacobian):
    """Symmetric part of the transformed gradient (viscous strain rate)."""
    g = transformed_gradient(snapshot_point, ref_jacobian)
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def state_at(record, t):
    """Piecewise-constant reading of a trajectory record: the latest stored
    state with time <= t."""
    if not record.times:
        raise ValueError("empty record")
    i = int(np.searchsorted(record.times, t + 1e-15, side="right") - 1)
    i = max(i, 0)
    return {"t": record.times[i], "eta": record.etas[i], "v": record.vs[i],
            "v_star": record.v_stars[i], "u": record.us[i], "p": record.ps[i]}


def linear_interpolant(record, t):
    """Continuous, linear-in-time reading between stored snapshots."""
    ts = np.asarray(record.times)
    if not len(ts):
        raise ValueError("empty record")
    t = min(max(t, ts[0]), ts[-1])
    j = int(np.clip(np.searchsorted(ts, t, side="right"), 1, len(ts) - 1))
    w = (t - ts[j - 1]) / (ts[j] - ts[j - 1]) if ts[j] > ts[j - 1] else 0.0
    lerp = lambda a: (1 - w) * a[j - 1] + w * a[j]
    return {"t": t, "eta": lerp(record.etas), "v": lerp(record.vs),
            "u": lerp(record.us)}


def to_free(full):
    """The free DOFs of a full wall vector: the four clamped end DOFs,
    value and slope at each end, dropped."""
    return np.asarray(full, dtype=float)[2:-2].copy()


def to_full(free):
    """The full wall vector of free DOFs: zero value and slope at each
    clamped end."""
    return np.concatenate([np.zeros(2), free, np.zeros(2)])


def interpolate_velocity(mesh, fz, fr):
    """Full velocity DOF vector from component callables fz(z, r), fr(z, r)."""
    zg, rg = np.meshgrid(mesh.velocity_z, mesh.velocity_r)
    u = np.empty(2 * mesh.n_velocity_nodes)
    u[:mesh.n_velocity_nodes] = np.asarray(fz(zg, rg)).ravel()
    u[mesh.n_velocity_nodes:] = np.asarray(fr(zg, rg)).ravel()
    return u


def top_edge_mass(mesh):
    """1D mass matrix of the axial trace basis on the top edge (dense)."""
    q2 = lagrange_coeffs(np.array([0.0, 0.5, 1.0]))
    gx, gw = gauss01(3)
    v = np.stack([poly_eval(q2[:, a], gx) for a in range(3)], axis=-1)
    cellm = mesh.hz * np.einsum("q,qa,qb->ab", gw, v, v)
    m = np.zeros((mesh.n_cols, mesh.n_cols))
    for c in range(mesh.n_z):
        sl = slice(2 * c, 2 * c + 3)
        m[sl, sl] += cellm
    return m


def zero_shell_state(mesh):
    return ShellState(mesh.zero_free(), mesh.zero_free(), mesh.zero_free())


def copy_shell_state(state):
    return ShellState(state.eta.copy(), state.v.copy(), state.v_star.copy())


def shell_energy(eta, v, mass, elastic, rho_s_h):
    """0.5 * (rho_s_h ||v||_M^2 + ||eta||_A^2), the wall part of the energy."""
    return 0.5 * (rho_s_h * float(v @ (mass @ v)) + float(eta @ (elastic @ eta)))


def total_energy(setup, u_full, mass_u, v, eta):
    """Fluid and wall kinetic plus wall elastic energy, summed in the
    ledger's order; ``mass_u`` is ``u_full`` under the weighted mass of the
    profile ``eta``."""
    g0, g1, g2 = setup.grams
    c = setup.coeffs
    elastic = (c.C0 * float(eta @ (g0 @ eta)) + c.C1 * float(eta @ (g1 @ eta))
               + c.C2 * float(eta @ (g2 @ eta)))
    return (0.5 * setup.rho_f * float(u_full @ mass_u)
            + 0.5 * setup.rho_s_h * float(v @ (setup.shell_mass @ v))
            + 0.5 * elastic)


def structure_step_energy_residual(before, after, mass, elastic, rho_s_h):
    """Absolute defect of the half-step energy equality.

    The half step satisfies, exactly in exact arithmetic,

        E_half + 0.5 * (rho_s_h ||v_half - v||_M^2 + ||eta_half - eta||_A^2) = E

    where E collects the wall kinetic and elastic energies (the fluid
    kinetic term is identical on both sides and cancels).  The returned
    value is |LHS - RHS|, not normalized.
    """
    e_before = shell_energy(before.eta, before.v, mass, elastic, rho_s_h)
    e_after = shell_energy(after.eta, after.v_star, mass, elastic, rho_s_h)
    dv = after.v_star - before.v
    de = after.eta - before.eta
    jumps = 0.5 * (rho_s_h * float(dv @ (mass @ dv)) + float(de @ (elastic @ de)))
    return abs(e_after + jumps - e_before)


def fluid_step_energy_residuals(setup, old, new, result, u_prev_full, v_half,
                                dt, c_tilde=0.0, pressures_sq=0.0):
    """Exact balance defect and stability-inequality slack of one fluid step.

    Testing the step with its own solution gives, exactly in exact
    arithmetic (the skew transport and the pressure constraint drop out),

        E_new + (rho_f/2)||u_new - u_old||_{M(old)}^2
              + (rho_s_h/2)||v_new - v_half||_M^2
              + dt * (u K u + v A' v)  =  E_half + dt * <forcing, u_new>,

    where E collects fluid kinetic (old weight on the left of the step, new
    weight on the right, the masses of the step's start and end frames
    ``old`` and ``new``) and wall kinetic terms; the wall elastic terms are
    identical on both sides and omitted.  The first return value is the
    absolute defect of this identity.

    The second is the slack of the damped inequality: the same balance with
    only half the viscous dissipation kept and the pressure work replaced by
    c_tilde * dt * (P_in^2 + P_out^2); nonnegative whenever ``c_tilde``
    dominates the discrete trace constant.
    """
    rho_f, rho_s_h = setup.rho_f, setup.rho_s_h
    ms, asp = setup.shell_mass, setup.shell_viscous
    mass_old, mass_new = two_component(old.mass), two_component(new.mass)
    u_new, v_new = result.u_full, result.v_new
    e_half = (0.5 * rho_f * float(u_prev_full @ (mass_old @ u_prev_full))
              + 0.5 * rho_s_h * float(v_half @ (ms @ v_half)))
    e_new = (0.5 * rho_f * float(u_new @ (mass_new @ u_new))
             + 0.5 * rho_s_h * float(v_new @ (ms @ v_new)))
    du = u_new - u_prev_full
    dv = v_new - v_half
    jump_f = 0.5 * rho_f * float(du @ (mass_old @ du))
    jump_s = 0.5 * rho_s_h * float(dv @ (ms @ dv))
    # 2 mu |D|^2 on the step's geometry
    visc = float(u_new @ (assemble_viscous(setup.fluid_mesh, old.snapshot,
                                           setup.mu) @ u_new))
    wall_visc = float(v_new @ (asp @ v_new))
    pwork = float(result.forcing @ u_new)
    equality_residual = abs(e_new + jump_f + jump_s + dt * (visc + wall_visc)
                            - e_half - dt * pwork)
    # inequality form keeps half the fluid viscous term as ledger dissipation
    d_ledger = dt * (0.5 * visc + wall_visc)
    slack = (e_half + c_tilde * dt * pressures_sq
             - e_new - jump_f - jump_s - d_ledger)
    return equality_residual, slack


def waveform_at(wave, t):
    """Pointwise value of a package waveform at the times ``t``, from its
    defining formula; a sampled waveform holds its end values outside its
    samples."""
    t = np.asarray(t, dtype=float)
    if isinstance(wave, Constant):
        return np.full_like(t, wave.value)
    if isinstance(wave, Sine):
        return wave.amplitude * np.sin(wave.omega * t + wave.phase)
    if isinstance(wave, HalfCosinePulse):
        inside = (t >= 0.0) & (t < wave.duration)
        return np.where(inside, 0.5 * wave.amplitude
                        * (1.0 - np.cos(2.0 * np.pi * t / wave.duration)), 0.0)
    if isinstance(wave, Sampled):
        return np.interp(t, wave.times, wave.values)
    raise TypeError(f"no pointwise oracle for {type(wave).__name__}")


def womersley_velocity(r, t, amplitude, omega, rho, mu, length, radius):
    """Axial velocity of fully developed planar Womersley flow between the
    symmetry line ``r = 0`` and a no-slip wall at ``r = radius``, driven by
    the pressure drop ``amplitude sin(omega t)`` over ``length``:
    ``Im[A / (i w rho L) (1 - cosh(k r) / cosh(k R)) e^{i w t}]`` with
    ``k = sqrt(i w rho / mu)``, the periodic solution of
    ``rho u_t = A sin(w t) / L + mu u_rr``, ``u_r(0) = 0``, ``u(R) = 0``."""
    k = np.sqrt(1j * omega * rho / mu)
    shape = 1.0 - np.cosh(k * np.asarray(r, dtype=float)) / np.cosh(k * radius)
    return (amplitude / (1j * omega * rho * length) * shape
            * np.exp(1j * omega * t)).imag


def long_wave_speed(cfg):
    """``sqrt(R C0 / rho_f)``, the speed of long pressure waves in the
    linearized 1D model of the planar channel of ``cfg``: mass
    ``eta_t + Q_z = 0`` and momentum ``Q_t + (R / rho_f) p_z = 0`` for the
    flux ``Q`` through the half-width, with the wall's membrane law
    ``p = C0 eta``."""
    c0 = derive_coefficients(cfg).C0
    return np.sqrt(cfg["geometry"]["radius"] * c0 / cfg["fluid"]["density"])


def fixed_dofs(mesh):
    """Velocity DOFs eliminated at zero, from the boundary conditions: the
    axial component on the top edge and the radial component on the
    bottom, inlet and outlet edges, less the coupled top-edge radial
    DOFs."""
    nv = mesh.n_velocity_nodes
    fixed = np.concatenate([mesh.top_nodes, nv + mesh.bottom_nodes,
                            nv + mesh.inlet_nodes, nv + mesh.outlet_nodes])
    return np.setdiff1d(fixed, top_radial_dofs(mesh))


def top_radial_dofs(mesh):
    """The coupled velocity DOFs: the radial component on the top edge,
    in z order, the rows of the trace map."""
    return mesh.n_velocity_nodes + mesh.top_nodes


def free_dofs(mesh):
    """Velocity DOFs neither fixed nor coupled, in increasing order."""
    return np.setdiff1d(np.arange(2 * mesh.n_velocity_nodes),
                        np.r_[fixed_dofs(mesh), top_radial_dofs(mesh)])


def trace_map_by_loop(fluid_mesh):
    """Reference trace map, row by row: a vertex row picks the nodal value
    DOF, a midpoint row evaluates the cubic shapes at the element midpoint."""
    wall = fluid_mesh.wall
    t = np.zeros((fluid_mesh.n_cols, wall.n_free))
    f2f = wall.full_to_free
    for k in range(wall.n_nodes):
        if f2f[2 * k] >= 0:
            t[2 * k, f2f[2 * k]] = 1.0
    for e in range(wall.n_elements):
        le = wall.element_lengths[e]
        for local, w in enumerate((0.5, le / 8.0, 0.5, -le / 8.0)):
            j = f2f[2 * e + local]
            if j >= 0:
                t[2 * e + 1, j] = w
    return t


def compatibility_failures(setup, eta0, v0, u0, trace=None):
    """Names of the compatibility conditions that the full-DOF initial data
    ``(eta0, v0, u0)`` on the meshes of ``setup`` break.  Exactly: clamped
    wall ends and ``R + eta0 > 0`` at the wall nodes.  To 1e-10 of the
    largest velocity: ``u0`` zero on the fixed DOFs, and the top edge's
    radial ``u0`` equal to ``trace`` (by default the loop reference map)
    applied to ``v0``.  To this evaluation's roundoff, 1e-12 of the largest
    displacement: ``R + eta0 > 0`` at 8 points per wall element, element
    midpoints among them."""
    sm, fm = setup.shell_mesh, setup.fluid_mesh
    if trace is None:
        trace = trace_map_by_loop(fm)
    ends = [0, 1, -2, -1]
    top_r = u0[top_radial_dofs(fm)]
    tol = 1e-10 * (max(np.abs(u0).max(), np.abs(v0).max()) or 1.0)
    z = np.linspace(0.0, setup.length, 8 * sm.n_elements + 1)
    r = setup.radius
    held = {
        "clamped ends": not (eta0[ends].any() or v0[ends].any()),
        "fixed velocity DOFs": np.abs(u0[fixed_dofs(fm)]).max() <= tol,
        "interface trace": np.abs(top_r - trace @ v0[2:-2]).max() <= tol,
        "R + eta0 > 0": ((r + eta0[0::2]).min() > 0.0
                         and (r + hermite_eval(sm.nodes, eta0, z)).min()
                         > -1e-12 * np.abs(eta0).max()),
    }
    return [name for name, ok in held.items() if not ok]


def reduce_by_index(setup, a_mom, b_div, wall=None):
    """Reference block reduction of a step system by index sets.

    Picks the free rows and columns, pairs the top-edge radial ones with
    the trace map and appends ``wall`` to the wall block; without ``wall``
    every top-edge DOF is zero and there is no wall block (the system of a
    rigid-mode setup).
    """
    fm, t = setup.fluid_mesh, setup.trace_op
    free, topr = free_dofs(fm), top_radial_dofs(fm)
    a_ff = a_mom[free][:, free]
    b_f = b_div[:, free]
    if wall is None:
        return sp.bmat([[a_ff, -b_f.T], [b_f, None]], format="csc")
    a_ft = a_mom[free][:, topr] @ t
    a_tf = t.T @ a_mom[topr][:, free]
    a_tt = t.T @ a_mom[topr][:, topr] @ t + wall
    b_t = b_div[:, topr] @ t
    return sp.bmat([[a_ff, a_ft, -b_f.T],
                    [a_tf, a_tt, -b_t.T],
                    [b_f, b_t, None]], format="csc")


def two_component(m):
    """``I_2 (x) m``: a scalar velocity operator ``m`` acting on both
    velocity components, as one CSR matrix."""
    return sp.kron(sp.identity(2), m, format="csr")


def assemble_divergence(mesh, snapshot):
    """The package's raw divergence kernel summed into its matrix by COO:
    rows pressures, columns velocities."""
    return sp.coo_matrix(
        (fluid.assemble_divergence_blocks(mesh, snapshot).ravel(),
         mesh.divergence_entries()),
        shape=(mesh.n_pressure_nodes, 2 * mesh.n_velocity_nodes)).tocsr()


def transport_blocks(mesh, snapshot, u_advect_full, v_half_q, rho_f):
    """Each cell's full 9x9 transport block ``rho_f (a . grad phi_b, phi_a)``,
    (n_cells, 9, 9), with the advecting field the previous velocity minus
    the domain velocity v_half * r * e_r; not antisymmetrized."""
    def outer(x, y):
        return (x[:, :, None] * y[:, None, :]).reshape(mesh.n_quad, -1)
    w, f = snapshot.w, snapshot.slope
    u = u_advect_full.reshape(2, -1)[:, mesh.conn_v].reshape(-1, 9)
    a1, a2 = (u @ mesh.phi.T).reshape(2, mesh.n_cells, 9)
    a2 = a2 - v_half_q * mesh.quad_r
    table = np.vstack([outer(mesh.phi, mesh.dphi_dz),
                       outer(mesh.phi, mesh.dphi_dr)])
    return rho_f * (np.hstack([w * a1, w * (a2 / snapshot.jac_q - a1 * f)])
                    @ table).reshape(-1, 9, 9)


def assemble_advection(mesh, snapshot, u_advect_full, v_half_q, rho_f):
    """The skew-symmetrized scalar transport ``N``: each cell's full
    transport block ``x`` as ``0.5 (x - x^T)``, scattered onto the scalar
    pattern."""
    x = transport_blocks(mesh, snapshot, u_advect_full, v_half_q, rho_f)
    return mesh.scalar_pattern.csr(0.5 * (x - x.transpose(0, 2, 1)))


def assemble_robin_mass(mesh, v_half_q):
    """The scalar velocity mass weighted by the wall half-step velocity
    alone, ``S``: no Jacobian weight and no r factor, so ``M_old + dt S``
    is the mass of the weight R + eta + dt * v_half."""
    w = mesh.quad_w_dv[None, :] * np.broadcast_to(
        np.asarray(v_half_q, dtype=float), (mesh.n_cells, mesh.n_quad))
    return mesh.scalar_pattern.csr(w @ mesh.tables["mass"])


def flow_by_terms(setup, snapshot, u_prev_full, v_half_q):
    """Reference for the step's flow data: ``(rho_f/dt) M + N + (rho_f/2)
    S`` on ``snapshot``, from the start-of-step mass, the transport and the
    Robin mass, summed on their data arrays."""
    mesh, rho_f = setup.fluid_mesh, setup.rho_f
    return ((rho_f / setup.dt) * fluid.assemble_weighted_mass(mesh,
                                                              snapshot).data
            + assemble_advection(mesh, snapshot, u_prev_full, v_half_q,
                                 rho_f).data
            + (0.5 * rho_f) * assemble_robin_mass(mesh, v_half_q).data)


def viscous_blocks_by_four(mesh, snapshot, mu, deta_q):
    """Reference for the package's viscous kernel on ``snapshot``, whose
    wall slope at the quadrature points is ``deta_q``: its four full element
    blocks, (4, n_cells, 9, 9) for the component blocks (0, 0), (1, 1),
    (0, 1) and (1, 0), the diagonal ones computed in full and symmetrized,
    the last the transpose of the third."""
    def outer(x, y):
        return (x[:, :, None] * y[:, None, :]).reshape(mesh.n_quad, -1)
    dz, dr = mesh.dphi_dz, mesh.dphi_dr
    w, jac = snapshot.w, snapshot.jac_q
    f = mesh.quad_r * deta_q / jac
    wj = w / jac
    f22 = wj / jac
    diag = np.concatenate([
        np.hstack([2.0 * w, -2.0 * w * f, 2.0 * w * f * f + f22]),
        np.hstack([w, -w * f, w * f * f + 2.0 * f22])]) @ np.vstack(
            [outer(dz, dz), outer(dz, dr) + outer(dr, dz), outer(dr, dr)])
    diag = (mu * diag).reshape(-1, 9, 9)
    diag = 0.5 * (diag + diag.transpose(0, 2, 1))
    f21 = (mu * (np.hstack([wj, -wj * f])
                 @ np.vstack([outer(dr, dz), outer(dr, dr)]))).reshape(-1, 9, 9)
    return np.stack([*diag.reshape(2, -1, 9, 9), f21, f21.transpose(0, 2, 1)])


def viscous_by_four(mesh, snapshot, mu, deta_q):
    """The reference four-block viscous kernel scattered into its matrix."""
    nv = mesh.n_velocity_nodes
    blocks = viscous_blocks_by_four(mesh, snapshot, mu, deta_q)
    conn = mesh.conn_v
    rows, cols = [], []
    for r, c in ((0, 0), (1, 1), (0, 1), (1, 0)):
        rows.append(np.broadcast_to(conn[:, :, None] + r * nv, (*conn.shape, 9)))
        cols.append(np.broadcast_to(conn[:, None, :] + c * nv, (*conn.shape, 9)))
    return sp.coo_matrix(
        (blocks.ravel(), (np.ravel(rows), np.ravel(cols))),
        shape=(2 * nv, 2 * nv)).tocsr()


def viscous_pattern(mesh):
    """The pattern of the viscous operator: the mesh's viscous entries, then
    the mirror of each one off the diagonal."""
    rows, cols, m = mesh.viscous_entries()
    nv2 = 2 * mesh.n_velocity_nodes
    return ScatterPattern(np.r_[rows, cols[m:]], np.r_[cols, rows[m:]],
                          (nv2, nv2))


def viscous_csr(mesh, viscous):
    """The viscous operator of the kernel's entries ``viscous``: each
    entry at its place, and each one off the diagonal at its mirror too."""
    m = mesh.viscous_entries()[2]
    return viscous_pattern(mesh).csr(np.r_[viscous, viscous[m:]])


def assemble_viscous(mesh, snapshot, mu):
    """The package's viscous kernel scattered onto its pattern."""
    return viscous_csr(mesh, fluid.assemble_viscous_blocks(mesh, snapshot, mu))


def momentum_matrix_by_kron(setup, flow, viscous):
    """Reference for the momentum block of the step system: the
    two-component sum ``I_2(x)F + K`` of the scalar flow data ``flow`` and
    the assembled viscous operator ``viscous``, formed on the data arrays
    of the viscous pattern, structural zeros included."""
    fm = setup.fluid_mesh
    vv = viscous_pattern(fm)
    lifted = two_component(fm.scalar_pattern.matrix(flow)).toarray()
    return vv.matrix(lifted[csr_rows(vv), vv.indices] + viscous.data)


def _momentum_residual(setup, snapshot, result, u_prev_full, dt):
    """Residual of the full momentum equations at the step's solution on
    the step's geometry ``snapshot``; it vanishes on free DOFs and is the
    fluid load on the constrained ones."""
    mass = two_component(fluid.assemble_weighted_mass(setup.fluid_mesh,
                                                      snapshot))
    rhs_full = (setup.rho_f / dt) * (mass @ u_prev_full) + result.forcing
    a_mom = momentum_matrix_by_kron(
        setup, result.flow,
        assemble_viscous(setup.fluid_mesh, snapshot, setup.mu))
    b_div = assemble_divergence(setup.fluid_mesh, snapshot)
    return rhs_full - a_mom @ result.u_full + b_div.T @ result.pressure


def wall_traction_load(setup, snapshot, result, u_prev_full, dt):
    """Variationally consistent load the fluid exerts on the wall tests.

    Computed as the momentum residual at the constrained top-edge DOFs,
    paired through the trace map; by construction it equals the wall-side
    terms of the coupled equations to solver precision.
    """
    resid_full = _momentum_residual(setup, snapshot, result, u_prev_full, dt)
    return setup.trace_op.T @ resid_full[top_radial_dofs(setup.fluid_mesh)]


def top_edge_traction(setup, snapshot, result, u_prev_full, dt):
    """Pointwise wall-normal traction on the top edge (rigid diagnostics).

    Returns nodal values of the traction by inverting the 1D trace mass
    against the constrained-DOF residual.
    """
    resid_full = _momentum_residual(setup, snapshot, result, u_prev_full, dt)
    load = resid_full[top_radial_dofs(setup.fluid_mesh)]
    return np.linalg.solve(top_edge_mass(setup.fluid_mesh), load)


# -- field writers, one formatted node at a time ------------------------------


def _fmt(x):
    return "%.17g" % float(x)


def write_fields_csv_by_loop(record, fluid_mesh, radius, directory):
    """Reference for ``exporters.write_fields_csv``: every row formatted
    number by number in a Python loop."""
    os.makedirs(directory, exist_ok=True)
    written = []
    zg_v, rg_v = np.meshgrid(fluid_mesh.velocity_z, fluid_mesh.velocity_r)
    zg_p, rg_p = np.meshgrid(fluid_mesh.pressure_z, fluid_mesh.pressure_r)
    for k in range(len(record)):
        eta = record.etas[k]
        u = record.us[k]
        p = record.ps[k]
        nv = fluid_mesh.n_velocity_nodes
        _, rp_v = map_to_physical(fluid_mesh, eta, radius, zg_v.ravel(),
                                  rg_v.ravel())
        path = os.path.join(directory, f"velocity_{k:04d}.csv")
        with open(path, "w") as f:
            f.write("z,r_ref,r_phys,u_z,u_r\n")
            for i in range(nv):
                f.write(",".join([_fmt(zg_v.ravel()[i]), _fmt(rg_v.ravel()[i]),
                                  _fmt(rp_v[i]), _fmt(u[i]), _fmt(u[nv + i])])
                        + "\n")
        written.append(path)
        _, rp_p = map_to_physical(fluid_mesh, eta, radius, zg_p.ravel(),
                                  rg_p.ravel())
        path = os.path.join(directory, f"pressure_{k:04d}.csv")
        with open(path, "w") as f:
            f.write("z,r_ref,r_phys,p\n")
            for i in range(fluid_mesh.n_pressure_nodes):
                f.write(",".join([_fmt(zg_p.ravel()[i]), _fmt(rg_p.ravel()[i]),
                                  _fmt(rp_p[i]), _fmt(p[i])]) + "\n")
        written.append(path)
        path = os.path.join(directory, f"wall_{k:04d}.csv")
        walls = [to_full(w[k]) for w in (record.etas, record.vs,
                                         record.v_stars)]
        with open(path, "w") as f:
            f.write("z,eta,v,v_star\n")
            for i, z in enumerate(fluid_mesh.wall.nodes):
                f.write(",".join([_fmt(z)] + [_fmt(w[2 * i]) for w in walls])
                        + "\n")
        written.append(path)
    return written


def pressure_at_velocity_nodes_by_take(fluid_mesh, p):
    """Bilinear pressure at the velocity nodes, each axis refined by
    ``np.take`` of consecutive entries."""
    grid = p.reshape(fluid_mesh.n_r + 1, fluid_mesh.n_z + 1)

    def refine(a, axis):
        mids = 0.5 * (np.take(a, np.arange(a.shape[axis] - 1), axis=axis)
                      + np.take(a, np.arange(1, a.shape[axis]), axis=axis))
        out_shape = list(a.shape)
        out_shape[axis] = 2 * a.shape[axis] - 1
        out = np.empty(out_shape)
        sl_even = [slice(None)] * a.ndim
        sl_even[axis] = slice(0, None, 2)
        sl_odd = [slice(None)] * a.ndim
        sl_odd[axis] = slice(1, None, 2)
        out[tuple(sl_even)] = a
        out[tuple(sl_odd)] = mids
        return out

    return refine(refine(grid, 0), 1).ravel()


def write_fields_vtk_by_loop(record, fluid_mesh, radius, directory):
    """Reference for ``exporters.write_fields_vtk``: every point formatted
    number by number in a Python loop."""
    os.makedirs(directory, exist_ok=True)
    written = []
    zg, rg = np.meshgrid(fluid_mesh.velocity_z, fluid_mesh.velocity_r)
    nz, nr = fluid_mesh.n_cols, fluid_mesh.n_rows
    nv = fluid_mesh.n_velocity_nodes
    for k in range(len(record)):
        _, rp = map_to_physical(fluid_mesh, record.etas[k], radius,
                                zg.ravel(), rg.ravel())
        u = record.us[k]
        p_nodes = pressure_at_velocity_nodes_by_take(fluid_mesh, record.ps[k])
        path = os.path.join(directory, f"fields_{k:04d}.vtk")
        with open(path, "w") as f:
            f.write("# vtk DataFile Version 3.0\n")
            f.write(f"wallflow fields t={_fmt(record.times[k])}\n")
            f.write("ASCII\nDATASET STRUCTURED_GRID\n")
            f.write(f"DIMENSIONS {nz} {nr} 1\n")
            f.write(f"POINTS {nv} double\n")
            for i in range(nv):
                f.write(f"{_fmt(zg.ravel()[i])} {_fmt(rp[i])} 0\n")
            f.write(f"POINT_DATA {nv}\n")
            f.write("VECTORS velocity double\n")
            for i in range(nv):
                f.write(f"{_fmt(u[i])} {_fmt(u[nv + i])} 0\n")
            f.write("SCALARS pressure double 1\nLOOKUP_TABLE default\n")
            for i in range(nv):
                f.write(f"{_fmt(p_nodes[i])}\n")
        written.append(path)
    return written


def _expand_ranges(starts, counts):
    """Owner and position of every item of the ranges ``[starts[k],
    starts[k] + counts[k])``, in order."""
    owner = np.repeat(np.arange(counts.size, dtype=np.int32), counts)
    shift = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return owner, np.arange(owner.size) + shift


def expanded_products(terms, shape):
    """Reference for ``sparsela._products``: every term's products by
    expanding each operand entry over the column of ``left`` and the row of
    ``right`` it reads, whatever the operands, yielding (key, input, value)
    per term as the product map takes them."""
    for src, rows, cols, left, right, (r0, c0), scale in terms:
        left, right = sp.csc_matrix(left), sp.csr_matrix(right)
        k, lpos = _expand_ranges(left.indptr[rows],
                                 np.diff(left.indptr)[rows])
        kc = cols[k]
        t, rpos = _expand_ranges(right.indptr[kc],
                                 np.diff(right.indptr)[kc])
        lpos = lpos[t]
        yield (_key(left.indices[lpos] + r0, right.indices[rpos] + c0, shape),
               (src + k[t]).astype(np.int32),
               scale * left.data[lpos] * right.data[rpos])


def one_sort_product_map(groups, shape):
    """Reference for the symbolic phase of ``sparsela.ProductMap``: one
    stable sort of every group's products together gives the result's
    pattern and each group's ``G``.  Returns the pattern (``indices``,
    ``indptr``), ``g`` and ``shape`` of that map."""
    keys, srcs, vals, ends = [], [], [], [0]
    for terms in groups:
        for key, src, val in sparsela._products(terms, shape):
            keys.append(key)
            srcs.append(src)
            vals.append(val)
        ends.append(sum(v.size for v in vals))
    key = np.concatenate(keys)
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.diff(key, prepend=-1) != 0
    key = key[new]
    indptr = np.searchsorted(key // shape[1], np.arange(shape[0] + 1))
    indices = (key % shape[1]).astype(np.int32)
    indptr = indptr.astype(np.int32)
    entry = np.cumsum(new, dtype=np.int32) - 1   # of each sorted product
    srcs, vals = np.concatenate(srcs), np.concatenate(vals)
    g, nnz = [], indices.size
    for terms, start, end in zip(groups, ends, ends[1:]):
        n_in = max((src + len(rows) for src, rows, *_ in terms), default=0)
        mine = (order >= start) & (order < end)
        pick = order[mine]              # the group's products, sorted
        major, minor = entry[mine], srcs[pick]
        if n_in + pick.size < nnz:      # stored by input
            by_input = np.argsort(minor, kind="stable")
            pick, major, minor = (pick[by_input], minor[by_input],
                                  major[by_input])
            fmt, n = sp.csc_matrix, n_in
        else:
            fmt, n = sp.csr_matrix, nnz
        g_indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(major, minlength=n), out=g_indptr[1:])
        g.append(fmt((vals[pick], minor, g_indptr), shape=(nnz, n_in)))
    return SimpleNamespace(indices=indices, indptr=indptr, g=g, shape=shape)

"""Mixed finite elements for the fluid on the reference rectangle.

Structured quadrilateral grid on (0, L) x (0, 1), biquadratic velocity and
bilinear pressure (an inf-sup stable pair).  All operators are assembled
with the same 3x3 Gauss rule.  The mass and the fluid step's flow data are
``I_2 (x) m``, so each is its scalar matrix ``m`` on one scalar pattern,
applied by :func:`componentwise`; the viscous and divergence kernels
return raw element entries, which the run's reduction maps into the step
system.  The viscous and transport kernels compute only the independent
entries of a symmetric and an antisymmetric operator.  The ledger's
dissipation :func:`viscous_form` is the same quadratic form at the
quadrature points.  Every element kernel is (n_cells, 9) quadrature
weights times a shape-function product table built once per mesh.

DOF layout: velocity component c, node n -> index c * n_velocity_nodes + n,
with nodes numbered row-major bottom-to-top (n = ir * n_cols + iz).
Essential velocity values (axial on the top edge, radial on the bottom,
inlet and outlet edges) are imposed by DOF elimination downstream; the
radial top-edge values are the coupling unknowns.
"""

import functools

import numpy as np
from numpy.polynomial.legendre import leggauss

from .sparsela import ScatterPattern

# local (row, column) of the independent entries of a symmetric 9x9 cell
# block: the diagonal, then the strict upper triangle
_UPPER = np.hstack([np.tile(np.arange(9), (2, 1)), np.triu_indices(9, 1)])

# local entries a * 9 + b of a cell block's strict upper triangle, then of
# their mirrors: the layout of the transport table and of its slots
_SKEW = np.r_[_UPPER[0, 9:] * 9 + _UPPER[1, 9:],
              _UPPER[1, 9:] * 9 + _UPPER[0, 9:]]

# entries per cell of the viscous kernel: the upper triangles of both
# diagonal blocks, then the (0, 1) cross block
VISCOUS_PER_CELL = 2 * _UPPER.shape[1] + 81

# 3x3 tensor Gauss on the unit cell
_gx, _gw = leggauss(3)
_gx = 0.5 * (_gx + 1.0)
_gw = 0.5 * _gw


def _q2_shapes(s):
    """1D quadratic Lagrange shapes at nodes {0, 1/2, 1} and derivatives."""
    s = np.asarray(s, dtype=float)
    val = np.stack([2 * s**2 - 3 * s + 1, 4 * s * (1 - s), 2 * s**2 - s], axis=-1)
    der = np.stack([4 * s - 3, 4 - 8 * s, 4 * s - 1], axis=-1)
    return val, der


def _q1_shapes(s):
    s = np.asarray(s, dtype=float)
    return np.stack([1 - s, s], axis=-1)


def _cell_entries(row_conn, col_conn, offsets):
    """Row and column of each entry of each cell's ``row_conn x col_conn``
    block per (row, col) offset, ordered by offset, cell, row, column."""
    offsets = np.asarray(offsets, dtype=np.int32)[:, :, None, None, None]
    rows = offsets[:, 0] + row_conn[None, :, :, None]
    cols = offsets[:, 1] + col_conn[None, :, None, :]
    return tuple(a.ravel() for a in np.broadcast_arrays(rows, cols))


class FluidMesh:
    """Structured Taylor-Hood grid with precomputed shape/quadrature tables."""

    def __init__(self, n_z, n_r, length):
        self.n_z, self.n_r = int(n_z), int(n_r)
        self.length = float(length)
        self.hz = self.length / self.n_z
        self.hr = 1.0 / self.n_r
        self.n_cols = 2 * self.n_z + 1
        self.n_rows = 2 * self.n_r + 1
        self.n_velocity_nodes = self.n_cols * self.n_rows
        self.n_pressure_nodes = (self.n_z + 1) * (self.n_r + 1)
        self.n_cells = self.n_z * self.n_r

        iz = np.arange(self.n_cols)
        ir = np.arange(self.n_rows)
        # linspace ends the outlet columns at exactly z = L and the top
        # row at exactly r = 1
        self.velocity_z = np.linspace(0.0, self.length, self.n_cols)
        self.velocity_r = np.linspace(0.0, 1.0, self.n_rows)
        self.pressure_z = np.linspace(0.0, self.length, self.n_z + 1)
        self.pressure_r = np.linspace(0.0, 1.0, self.n_r + 1)

        # cell -> node connectivity (cells row-major: c = cr * n_z + cz)
        cz = np.arange(self.n_z)
        cr = np.arange(self.n_r)
        czg, crg = np.meshgrid(cz, cr)                    # (n_r, n_z)
        czg, crg = czg.ravel(), crg.ravel()
        jz, jr = np.meshgrid(np.arange(3), np.arange(3))  # local a = jr*3 + jz
        jz, jr = jz.ravel(), jr.ravel()
        self.conn_v = ((2 * crg[:, None] + jr[None, :]) * self.n_cols
                       + 2 * czg[:, None] + jz[None, :]).astype(np.int32)
        jzp, jrp = np.meshgrid(np.arange(2), np.arange(2))
        jzp, jrp = jzp.ravel(), jrp.ravel()
        self.conn_p = ((crg[:, None] + jrp[None, :]) * (self.n_z + 1)
                       + czg[:, None] + jzp[None, :]).astype(np.int32)

        # quadrature: q = qr*3 + qz on the unit cell, weights sum to 1
        qz, qr = np.meshgrid(_gx, _gx)
        wz, wr = np.meshgrid(_gw, _gw)
        self.quad_s = qz.ravel()
        self.quad_t = qr.ravel()
        self.quad_w_dv = (wz * wr).ravel() * self.hz * self.hr
        self.n_quad = 9

        # shape tables at quadrature points, derivatives already global
        v_s, d_s = _q2_shapes(self.quad_s)
        v_t, d_t = _q2_shapes(self.quad_t)
        self.phi = v_s[:, jz] * v_t[:, jr]                            # (9q, 9a)
        self.dphi_dz = d_s[:, jz] * v_t[:, jr] / self.hz
        self.dphi_dr = v_s[:, jz] * d_t[:, jr] / self.hr
        p_s = _q1_shapes(self.quad_s)
        p_t = _q1_shapes(self.quad_t)
        self.chi = p_s[:, jzp] * p_t[:, jrp]                          # (9q, 4a)

        # global quadrature coordinates; z values are shared along columns
        self.quad_z_flat = (cz[:, None] * self.hz
                            + _gx[None, :] * self.hz).ravel()         # (n_z*3,)
        qcol = np.arange(self.n_cells)[:, None] % self.n_z
        self.quad_z_index = qcol * 3 + (np.arange(9)[None, :] % 3)    # (nc, 9)
        self.quad_r = (crg[:, None] + self.quad_t[None, :]) * self.hr

        # boundary node sets (top nodes ordered by z to match the trace map)
        top_row = self.n_rows - 1
        self.top_nodes = top_row * self.n_cols + iz
        self.bottom_nodes = iz.copy()
        self.inlet_nodes = ir * self.n_cols
        self.outlet_nodes = ir * self.n_cols + (self.n_cols - 1)

        # inlet/outlet edge integrals of the axial trace basis (sum to 1)
        w1d = np.zeros(self.n_rows)
        v_t1, _ = _q2_shapes(_gx)
        cellw = self.hr * (_gw @ v_t1)            # (1/6, 2/3, 1/6) * hr
        for c in range(self.n_r):
            w1d[2 * c:2 * c + 3] += cellw
        self.edge_weights = w1d
        self._wall_constants = {}

    # -- raw entries and the scalar pattern (built on first use) -----------

    def viscous_entries(self):
        """Rows and columns of :func:`assemble_viscous_blocks`' entries, and
        how many of them, all first, lie on the diagonal; each later entry
        also stands for its mirror (column, row)."""
        conn, nv = self.conn_v.T, self.n_velocity_nodes
        shift = nv * np.arange(2, dtype=np.int32)[:, None]
        a, b = _UPPER
        rows = [conn[a][:, None] + shift, conn.repeat(9, axis=0)]
        cols = [conn[b][:, None] + shift, np.tile(conn, (9, 1)) + nv]
        return (np.concatenate([x.ravel() for x in rows]),
                np.concatenate([x.ravel() for x in cols]), 18 * self.n_cells)

    def divergence_entries(self):
        """Rows and columns of :func:`assemble_divergence_blocks`' entries."""
        return _cell_entries(self.conn_p, self.conn_v,
                             [(0, 0), (0, self.n_velocity_nodes)])

    @functools.cached_property
    def scalar_pattern(self):
        """Pattern of one velocity component against itself, ``conn_v x
        conn_v``: the mass and the flow data."""
        nv = self.n_velocity_nodes
        return ScatterPattern(*_cell_entries(self.conn_v, self.conn_v,
                                             [(0, 0)]), (nv, nv))

    @functools.cached_property
    def skew_slots(self):
        """The scalar pattern's slots of each cell's strict-upper entries,
        then of their mirrors, cell by cell: where ``skew`` goes."""
        return self.scalar_pattern.slot.reshape(-1, 81)[:, _SKEW].ravel()

    def wall_constant(self, shell_mesh, name, build):
        """``build(shell_mesh, self)``, what a run derives from its two meshes
        alone, kept by ``name`` and the wall mesh's element count and length."""
        key = (shell_mesh.n_elements, shell_mesh.length, name)
        if key not in self._wall_constants:
            self._wall_constants[key] = build(shell_mesh, self)
        return self._wall_constants[key]

    @functools.cached_property
    def tables(self):
        """Products of the shape tables at each quadrature point, built on
        first use.  Each is (9 quadrature points, element block entries),
        so an element kernel is (n_cells, 9) weights times one table.  The
        pullback gradients ``g1 = dz - f dr`` and ``g2 = dr / (R + eta)``
        expand into ``dz dz``, ``dz dr + dr dz`` and ``dr dr`` (``strain``,
        at the upper-triangle entries only), ``dr dz`` and ``dr dr``
        (``cross``), ``phi dz - dz phi`` and ``phi dr - dr phi`` (``skew``,
        at the strict upper triangle, then negated), ``chi dz`` and ``chi
        dr`` (``divergence``), each stack holding its tables in that order."""
        def outer(x, y):
            return (x[:, :, None] * y[:, None, :]).reshape(self.n_quad, -1)
        phi, dz, dr = self.phi, self.dphi_dz, self.dphi_dr
        transport = np.vstack([outer(phi, dz), outer(phi, dr)])[:, _SKEW]
        return {
            "mass": outer(phi, phi),
            "strain": np.vstack([outer(dz, dz), outer(dz, dr) + outer(dr, dz),
                                 outer(dr, dr)])[:, _UPPER[0] * 9 + _UPPER[1]],
            "cross": np.vstack([outer(dr, dz), outer(dr, dr)]),
            "skew": transport - np.roll(transport, 36, axis=1),
            "divergence": np.vstack([outer(self.chi, dz),
                                     outer(self.chi, dr)]),
        }


def shell_field_at_quad(shell_mesh, field_free, fluid_mesh, deriv=0):
    """Sample a wall field (z-dependent only) on the fluid quadrature grid,
    through the wall's sampler at the quadrature columns, built once."""
    sampler = fluid_mesh.wall_constant(
        shell_mesh, deriv, lambda sm, fm: sm.sampler(fm.quad_z_flat, deriv))
    return (sampler @ field_free)[fluid_mesh.quad_z_index]


def componentwise(m, u_full):
    """``(I_2 (x) m) u_full``: the scalar velocity operator ``m`` applied
    to each component of ``u_full``, a contiguous half, as one vector."""
    n = m.shape[1]
    return np.concatenate([m @ u_full[:n], m @ u_full[n:]])


def assemble_weighted_mass(mesh, snapshot):
    """Scalar velocity mass with the Jacobian weight R + eta (SPD)."""
    return mesh.scalar_pattern.csr(snapshot.w @ mesh.tables["mass"])


def assemble_unweighted_mass(mesh):
    """Plain scalar velocity mass on the reference rectangle (norms)."""
    w = np.broadcast_to(mesh.quad_w_dv, (mesh.n_cells, mesh.n_quad))
    return mesh.scalar_pattern.csr(w @ mesh.tables["mass"])


def assemble_viscous_blocks(mesh, snapshot, mu, out=None):
    """The independent entries of the weighted viscous operator
    2*mu*(strain(u), strain(q)), a flat array at the entries of
    :meth:`FluidMesh.viscous_entries`, entry-major: each upper-triangle
    entry of both diagonal blocks over (component, cell), then each entry
    of the (0, 1) cross block over cells; written into ``out`` when given.

    With ``F_ij`` the form of ``g_i`` against ``g_j``, the blocks are
    ``2 mu F11 + mu F22``, ``2 mu F22 + mu F11`` and ``mu F21``; the
    reduction reads the diagonal blocks' strict upper triangle and the
    cross block again at their mirrors, so the operator is exactly
    symmetric, like the bilinear form.
    """
    w, f, wj = snapshot.w, snapshot.slope, snapshot.w_over_jac
    f22, nc = wj / snapshot.jac_q, mesh.n_cells
    out = np.empty(VISCOUS_PER_CELL * nc) if out is None else out
    # weights of (dz dz, dz dr + dr dz, dr dr) for F11 and F22 combined
    diag = mu * np.concatenate([
        np.hstack([2.0 * w, -2.0 * w * f, 2.0 * w * f * f + f22]),
        np.hstack([w, -w * f, w * f * f + 2.0 * f22])])
    np.matmul(mesh.tables["strain"].T, diag.T,
              out=out[:90 * nc].reshape(45, 2 * nc))
    np.matmul(mesh.tables["cross"].T, mu * np.hstack([wj, -wj * f]).T,
              out=out[90 * nc:].reshape(81, nc))
    return out


def viscous_form(mesh, snapshot, mu, u_full):
    """``u^T K u`` of the viscous operator, at the quadrature points:
    ``mu sum w (2 (g1 u_z)^2 + 2 (g2 u_r)^2 + (g2 u_z + g1 u_r)^2)``."""
    u = np.take(u_full.reshape(2, -1), mesh.conn_v, axis=1).reshape(-1, 9)
    dz = (u @ mesh.dphi_dz.T).reshape(2, mesh.n_cells, 9)
    dr = (u @ mesh.dphi_dr.T).reshape(2, mesh.n_cells, 9)
    g1 = dz - snapshot.slope * dr
    g2 = dr / snapshot.jac_q
    return mu * float(np.sum(snapshot.w * (2.0 * (g1[0] ** 2 + g2[1] ** 2)
                                           + (g2[0] + g1[1]) ** 2)))


def assemble_flow(mesh, snapshot, u_advect_full, v_half_q, rho_f, dt,
                  mass_old, mass_new):
    """A fluid step's flow data on the scalar pattern, ``(rho_f/2dt)(M_old
    + M_new) + N``.  The end weight is the start weight plus ``dt v_half``
    at each quadrature point, so the mass part is the ALE Robin form
    ``(rho_f/dt) M_old + (rho_f/2) S(v_half)``, the kinetic-energy update
    the scheme relies on.  ``N`` is the transport by the previous velocity
    minus the domain velocity v_half * r * e_r, each cell's block ``0.5
    rho_f (x - x^T)`` taken at its strict upper triangle and, negated, at
    its mirror, so ``q^T N q = 0``."""
    w, f = snapshot.w, snapshot.slope
    # np.take gathers several times faster than fancy indexing here
    u = np.take(u_advect_full.reshape(2, -1), mesh.conn_v, axis=1)
    a1, a2 = (u.reshape(-1, 9) @ mesh.phi.T).reshape(2, mesh.n_cells, 9)
    a2 = a2 - v_half_q * mesh.quad_r          # minus the domain velocity
    # a1 g1 + a2 g2 = a1 dz + (a2 / (R + eta) - a1 f) dr
    weights = (0.5 * rho_f) * np.hstack([w * a1,
                                         w * (a2 / snapshot.jac_q - a1 * f)])
    data = np.bincount(mesh.skew_slots,
                       weights=(weights @ mesh.tables["skew"]).ravel(),
                       minlength=mesh.scalar_pattern.nnz)
    data += (rho_f / (2.0 * dt)) * (mass_old.data + mass_new.data)
    return data


def assemble_divergence_blocks(mesh, snapshot, out=None):
    """Raw element blocks of the weighted divergence, (2 n_cells, 36): each
    cell's pressures against the axial, then the radial component; written
    into ``out`` when given."""
    w, f, nc = snapshot.w, snapshot.slope, mesh.n_cells
    table = mesh.tables["divergence"]
    out = np.empty((2 * nc, 36)) if out is None else out.reshape(2 * nc, 36)
    np.matmul(np.hstack([w, -w * f]), table, out=out[:nc])
    np.matmul(snapshot.w_over_jac, table[mesh.n_quad:], out=out[nc:])
    return out


def assemble_pressure_forcing(mesh, p_in, p_out, radius):
    """Inlet/outlet load vector R * (P_in * int q_z|_in - P_out * int q_z|_out).

    Loads only axial DOFs on the vertical edges; inflow is positive at z = 0.
    """
    f = np.zeros(2 * mesh.n_velocity_nodes)
    f[mesh.inlet_nodes] += radius * p_in * mesh.edge_weights
    f[mesh.outlet_nodes] -= radius * p_out * mesh.edge_weights
    return f


class DofPartition:
    """Classification of velocity DOFs into free, coupled, and fixed sets;
    the free and coupled indices are kept.

    Fixed (eliminated at zero): axial component on the top edge, radial
    component on the bottom, inlet and outlet edges.  Coupled: radial
    component on the top edge, slaved to the wall velocity through the
    trace map (the corner values come out exactly zero because the wall
    space is clamped).  Everything else is free.
    """

    def __init__(self, mesh):
        nv = mesh.n_velocity_nodes
        fixed = np.zeros(2 * nv, dtype=bool)
        coupled = np.zeros(2 * nv, dtype=bool)
        fixed[mesh.top_nodes] = True                     # u_z = 0 on top
        fixed[nv + mesh.bottom_nodes] = True             # u_r = 0 symmetry
        fixed[nv + mesh.inlet_nodes] = True
        fixed[nv + mesh.outlet_nodes] = True
        coupled[nv + mesh.top_nodes] = True              # u_r = trace of wall v
        self.top_r = nv + mesh.top_nodes                 # ordered by z
        self.free = np.where(~(fixed | coupled))[0]
        self.n_free = self.free.size

"""Cubic Hermite discretization of the wall on (0, L).

The wall displacement and velocity live in the clamped space (value and
slope pinned at both ends), which the C1 Hermite elements represent
conformingly; that is what makes the fourth-order bending term assemblable
as a plain Gram matrix of second derivatives.  The wall half step solves
the run's constant wall matrix through the run's solve policy
(:class:`~wallflow.sparsela.ReusedFactorSolver`), like every other linear
system of a run.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss

from . import sparsela

# 4-point Gauss on [0,1]: exact through degree 7, enough for products of
# cubic shape functions and their derivatives.
_QX, _QW = leggauss(4)
_QX = 0.5 * (_QX + 1.0)
_QW = 0.5 * _QW

# relative residual contract ||Ax - b|| <= tol * ||b|| of the wall half step
STRUCTURE_TOL = 1e-12


def _shape_table(s, deriv):
    """Hermite shapes on [0,1] for unit element length, one row per point.

    Columns: value-left, slope-left, value-right, slope-right.  Slope
    columns must be scaled by the element length l, derivative order d
    divides the whole table by l**d.
    """
    s = np.asarray(s, dtype=float)
    if deriv == 0:
        cols = [1 - 3 * s**2 + 2 * s**3, s - 2 * s**2 + s**3,
                3 * s**2 - 2 * s**3, s**3 - s**2]
    elif deriv == 1:
        cols = [-6 * s + 6 * s**2, 1 - 4 * s + 3 * s**2,
                6 * s - 6 * s**2, 3 * s**2 - 2 * s]
    elif deriv == 2:
        cols = [-6 + 12 * s, -4 + 6 * s, 6 - 12 * s, 6 * s - 2]
    else:
        raise ValueError(f"unsupported derivative order {deriv}")
    return np.stack(cols, axis=-1)


def _unit_element_matrices():
    """Gram matrices (L2, first-, second-derivative) of the unit element."""
    out = []
    for deriv in (0, 1, 2):
        t = _shape_table(_QX, deriv)
        base = np.einsum("q,qa,qb->ab", _QW, t, t)
        out.append(0.5 * (base + base.T))    # forms are symmetric; make it exact
    return tuple(out)


_UNIT_ELEMENT_MATRICES = _unit_element_matrices()


def hermite_element_matrices(length):
    """Element Gram matrices (L2, first-, second-derivative) for elements of
    the given length; an array of lengths gives one stacked matrix each."""
    length = np.asarray(length, dtype=float)[..., None, None]
    scale = np.ones(length.shape[:-2] + (4,))
    scale[..., 1::2] = length[..., 0]
    return tuple(length ** (1 - 2 * deriv)
                 * (scale[..., :, None] * base * scale[..., None, :])
                 for deriv, base in enumerate(_UNIT_ELEMENT_MATRICES))


class ShellMesh:
    """1D mesh of ``n_elements`` equal Hermite elements on (0, ``length``),
    with clamped end conditions.

    DOF conventions: a *full* vector stores (value, slope) per node,
    ``full[2k]`` and ``full[2k+1]``; the *free* vector drops the four
    clamped end DOFs and is the one form every wall vector of a run takes.
    :meth:`to_full` gives the node values a writer reads.
    """

    def __init__(self, n_elements, length):
        self.n_elements = int(n_elements)
        self.length = float(length)
        self.nodes = np.linspace(0.0, self.length, self.n_elements + 1)
        self.n_nodes = self.nodes.size
        self.element_lengths = np.diff(self.nodes)
        self.n_free = 2 * (self.n_nodes - 2)
        # full-dof index -> free index, -1 for clamped DOFs
        self.full_to_free = -np.ones(2 * self.n_nodes, dtype=np.int64)
        self.full_to_free[2:-2] = np.arange(self.n_free)

    def to_full(self, free):
        full = np.zeros(2 * self.n_nodes)
        full[2:-2] = free
        return full

    def zero_free(self):
        return np.zeros(self.n_free)

    def quad_points(self):
        """Global coordinates of all element quadrature points."""
        return (self.nodes[:-1, None] + self.element_lengths[:, None] * _QX[None, :]).ravel()

    def interpolate(self, fn, dfn):
        """Free DOF vector interpolating ``fn`` with exact slopes ``dfn`` at
        the interior nodes; the clamped ends are zero whatever ``fn`` is."""
        inner = self.nodes[1:-1]
        return np.stack([fn(inner), dfn(inner)], axis=1).ravel()

    def sampler(self, z, deriv=0):
        """The CSR map from free DOFs to the field's ``deriv``-th
        z-derivative at the points ``z``: row ``i`` holds the shapes of the
        element of ``z[i]`` in DOF order, clamped columns dropped, so a
        product adds an element's terms in the order of a tabulation."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        k = np.clip(np.searchsorted(self.nodes, z, side="right") - 1,
                    0, self.n_elements - 1)
        lk = self.element_lengths[k]
        s = (z - self.nodes[k]) / lk
        t = _shape_table(s, deriv) / lk[:, None] ** deriv
        t[:, 1] *= lk
        t[:, 3] *= lk
        cols = self.element_dofs_free()[k]
        keep = cols >= 0
        indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
        return sp.csr_matrix((t[keep], cols[keep], indptr),
                             shape=(z.size, self.n_free))

    def evaluate(self, free, z, deriv=0):
        """Evaluate the Hermite field of the free DOF vector ``free`` (or a
        z-derivative of it) at points ``z``, through :meth:`sampler`."""
        return self.sampler(z, deriv) @ free

    def element_dofs_free(self):
        """(n_elements, 4) free indices per element, -1 where clamped."""
        base = 2 * np.arange(self.n_elements)[:, None]
        cols = base + np.array([0, 1, 2, 3])[None, :]
        return self.full_to_free[cols]


def assemble_grams(mesh):
    """The three free-space Gram matrices (L2, d/dz, d2/dz2) of the Hermite
    basis, used by the wall forms; the unit element's matrices are scaled to
    every element in one broadcast onto one shared scatter pattern."""
    edofs = mesh.element_dofs_free()
    blocks = hermite_element_matrices(mesh.element_lengths)  # 3 x (n_el, 4, 4)
    rows = np.repeat(edofs[:, :, None], 4, axis=2)
    cols = np.repeat(edofs[:, None, :], 4, axis=1)
    keep = (rows >= 0) & (cols >= 0)
    pattern = sparsela.ScatterPattern(rows[keep], cols[keep],
                                      (mesh.n_free, mesh.n_free))
    return tuple(pattern.csr(blocks[d][keep]) for d in range(3))


def combine_grams(grams, weights):
    """``sum_d weights[d] * grams[d]`` for matrices on the shared Gram
    pattern, combined entry by entry on that pattern (structural zeros
    kept), so the result is on the pattern too."""
    g0 = grams[0]
    data = sum(c * g.data for c, g in zip(weights, grams))
    return sp.csr_matrix((data, g0.indices, g0.indptr), shape=g0.shape)


@dataclass
class ShellState:
    """Free-DOF wall state: displacement, velocity, and the half-step
    velocity produced by the elastodynamics half step."""

    eta: np.ndarray
    v: np.ndarray
    v_star: np.ndarray


def structure_step(setup, state, solver):
    """Advance the wall elastodynamics half step.

    Solves, through the run's wall ``solver`` (a
    :class:`~wallflow.sparsela.ReusedFactorSolver` at :data:`STRUCTURE_TOL`),
    the one-matrix eliminated system whose matrix ``setup.wall_matrix`` is
    built once per run,

        (rho_s_h * M + dt^2 * A) eta_half = rho_s_h * M (eta + dt * v)

    and recovers the half-step velocity v_half = (eta_half - eta) / dt,
    which is exact by definition.  The matrix is constant, so the solver
    factors it on the first step and reuses that factor on every later one.
    The fluid state is untouched in this half step.  Returns a new
    ShellState with ``eta`` advanced and ``v_star`` holding v_half; its
    ``v`` is ``state.v`` itself, as the fluid step, not this half step,
    makes the next wall velocity.
    """
    if state.eta.size == 0:    # fully clamped wall (single-element mesh)
        return ShellState(eta=state.eta, v=state.v, v_star=np.zeros(0))
    dt = setup.dt
    rhs = setup.rho_s_h * (setup.shell_mass @ (state.eta + dt * state.v))
    eta_half = solver.solve(setup.wall_matrix, rhs)
    v_half = (eta_half - state.eta) / dt
    return ShellState(eta=eta_half, v=state.v, v_star=v_half)

"""Sparse storage, assembly scatter, fixed-pattern products, and the solve
kernels.

:class:`ScatterPattern` (assembly) and :class:`ProductMap` (sums of sparse
products) do their symbolic work once per pattern, so each later call only
forms a data array.

:class:`DirectFactor` is the only LU constructor and :func:`krylov_solve`
the one solve: flexible GMRES preconditioned with an LU, its contract
``||Ax - b|| <= tol * ||b||`` checked on the true residual against the
matrix being solved.  A constant system (the wall half step, the trace
constant) is factored by its first nonzero load (:func:`constant_solver`).
The fluid system changes from step to step, so :class:`ReusedFactorSolver`
keeps the last LU it factored, refactors only when GMRES misses, and starts
GMRES from its last :data:`PROJECTION_DEPTH` solutions, combined as their
right-hand sides best fit the new one, so a system close to the ones
before it needs few GMRES iterations, or none.
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack, solve_triangular

from .errors import SolverError


def _key(rows, cols, shape):
    """``row * n_cols + col`` of each entry, in int32 where that holds."""
    dtype = np.int32 if shape[0] * shape[1] < 2**31 else np.int64
    return (np.asarray(rows, dtype=dtype) * shape[1]
            + np.asarray(cols, dtype=dtype))


def _entries(key):
    """The stable order that sorts ``key``, the index of each sorted key
    among the distinct keys, and the distinct keys, sorted."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.ones(key.size, dtype=bool)     # np.diff would copy to int64
    np.not_equal(key[1:], key[:-1], out=new[1:])
    return order, np.cumsum(new, dtype=np.int32) - 1, key[new]


def _slots(key, shape, dtype):
    """The index of each :func:`_key` in ``key`` among the distinct keys, as
    ``dtype``, and the CSR indices and indptr of the distinct keys."""
    order, entry, key = _entries(key)
    slot = np.empty(order.size, dtype=dtype)
    slot[order] = entry
    # both sides in the keys' dtype, so that searchsorted copies neither
    indptr = np.searchsorted(key // shape[1],
                             np.arange(shape[0] + 1, dtype=key.dtype))
    return slot, (key % shape[1]).astype(np.int32), indptr.astype(np.int32)


class ScatterPattern:
    """Precomputed duplicate-summing COO -> CSR map for a fixed sparsity pattern.

    Each raw (row, col) entry, in a fixed order, maps to its CSR data slot,
    so repeated assemblies only touch the data array, summed in raw entry
    order, bit-reproducibly.  An empty pattern (a wall with no free DOFs)
    gives empty matrices.  Every matrix of one pattern stores every slot,
    structural zeros included, so linear combinations of them are
    combinations of their ``data`` arrays.
    """

    def __init__(self, rows, cols, shape):
        # intp: np.bincount casts any other index type on every call
        self.slot, self.indices, self.indptr = _slots(
            _key(np.ravel(rows), np.ravel(cols), shape), shape, np.intp)
        self.nnz = self.indices.size
        self.shape = shape

    def csr(self, raw_data):
        """Scatter raw COO data, one value per raw entry, into a fresh CSR
        matrix on this pattern."""
        raw = np.asarray(raw_data, dtype=float).ravel()
        return self.matrix(np.bincount(self.slot, weights=raw,
                                       minlength=self.nnz))

    def matrix(self, data):
        """The CSR matrix on this pattern with CSR data array ``data``."""
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=self.shape)

    @functools.cached_property
    def transpose_slots(self):
        """For a structurally symmetric pattern, the slot of entry (j, i) at
        the slot of each entry (i, j): ``data + data[transpose_slots]`` are
        the entries of ``A + A^T``.  Built on first use."""
        t = self.matrix(np.arange(self.nnz)).T.tocsr()
        if not (np.array_equal(t.indptr, self.indptr)
                and np.array_equal(t.indices, self.indices)):
            raise ValueError("pattern is not structurally symmetric")
        return t.data


def csr_rows(m):
    """Row index of every stored entry of a CSR matrix or pattern ``m``."""
    return np.repeat(np.arange(m.shape[0], dtype=np.int32), np.diff(m.indptr))


def _expand(starts, counts):
    """Owner ``k`` and position of every item of the index ranges
    ``[starts[k], starts[k] + counts[k])``, in order."""
    owner = np.repeat(np.arange(counts.size), counts)
    shift = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return owner, np.arange(owner.size) + shift


def _single_entries(m, offset):
    """Of ``m``, CSC or CSR, whose every column or row (line) holds one
    entry at most: the mask of lines that hold one, and tables of each
    line's entry, its index plus ``offset`` and its value (0 where none)."""
    has = np.diff(m.indptr) > 0
    at = m.indptr[:-1][has]
    index = np.zeros(has.size, dtype=m.indices.dtype)
    value = np.zeros(has.size, dtype=m.data.dtype)
    index[has], value[has] = m.indices[at] + offset, m.data[at]
    return has, index, value


def _products(terms, shape):
    """For each of the :class:`ProductMap` ``terms`` in turn, the result
    key, the input and the value of its every scalar product."""
    for src, rows, cols, left, right, (r0, c0), scale in terms:
        left, right = sp.csc_matrix(left), sp.csr_matrix(right)
        lcount, rcount = np.diff(left.indptr), np.diff(right.indptr)
        if max(lcount.max(initial=0), rcount.max(initial=0)) <= 1:
            # selections: entry k has one product or none; intp indices,
            # as a gather casts any other index type
            lhas, lrow, lval = _single_entries(left, r0)
            rhas, rcol, rval = _single_entries(right, c0)
            rows, cols = rows.astype(np.intp), cols.astype(np.intp)
            k = np.flatnonzero(lhas[rows] & rhas[cols])
            rk, ck = rows[k], cols[k]
            yield (_key(lrow[rk], rcol[ck], shape),
                   (src + k).astype(np.int32), (scale * lval)[rk] * rval[ck])
            continue
        # every product left[r, rows[k]] * right[cols[k], s]
        k, lpos = _expand(left.indptr[rows], lcount[rows])
        kc = cols[k]
        t, rpos = _expand(right.indptr[kc], rcount[kc])
        lpos = lpos[t]
        yield (_key(left.indices[lpos] + r0, right.indices[rpos] + c0, shape),
               (src + k[t]).astype(np.int32),
               scale * left.data[lpos] * right.data[rpos])


def _sorted_products(terms, shape):
    """The products of one :class:`ProductMap` group, sorted stably by
    result key: the group's distinct keys, sorted, and the products' values,
    inputs and index each among those keys."""
    key, src, val = map(np.concatenate, zip(*_products(terms, shape)))
    order, local, key = _entries(key)
    return key, (val[order], src[order], local)


class ProductMap:
    """The numeric phase of a fixed sum of sparse triple products, its terms
    in ``groups`` of operands.

    Each term ``(src, rows, cols, left, right, corner, scale)`` of a group
    reads an operand ``X`` whose entry ``k`` sits at ``(rows[k], cols[k])``
    and is input ``src + k`` of its group (terms may share inputs), and adds
    ``scale * left @ X @ right`` at ``corner`` of the result.  Building the
    map is the symbolic phase (Gustavson, ACM TOMS 4, 1978), one group at a
    time: a stable sort of the group's products by result entry, freed
    before the next group's products exist.  One stable sort of the
    groups' sorted distinct entries then merges them into the result's one
    pattern, structural zeros included, and places each group's entries in
    it.  Each group's scalar products, in term order, are the rows of a CSR
    ``G_g``, one per result entry; products on one entry stay separate.  A
    call is the numeric phase of one group, ``G_g @ input``, that group's
    share of the result's data; the shares of all groups add up to the
    result.  A group whose inputs and products together are fewer than the
    result's entries is stored by input (CSC, each column in result order),
    so that a call walks its inputs and not every result entry.

    A term's products take one of two paths, chosen per term from its
    operands.  When every column of ``left`` and every row of ``right``
    holds one entry at most (selections, such as a rigid run's ``P``, the
    identity or the wall injection), each operand entry has one product or
    none, gathered from tables of those single entries.  Any other term
    expands each operand entry over the column and row it reads.  Both
    paths give the same products in the same order, so the map does not
    depend on the path.
    """

    def __init__(self, groups, shape):
        keys, parts = zip(*(_sorted_products(t, shape) for t in groups))
        ends = np.cumsum([k.size for k in keys])[:-1]
        slot, self.indices, self.indptr = _slots(np.concatenate(keys), shape,
                                                 np.int32)
        del keys                        # before any G is built
        self.g, nnz = [], self.indices.size
        for terms, (vals, minor, local), slot_g in zip(groups, parts,
                                                       np.split(slot, ends)):
            n_in = max((src + len(rows) for src, rows, *_ in terms), default=0)
            major = slot_g[local]
            if n_in + vals.size < nnz:      # stored by input: see the class
                by_input = np.argsort(minor, kind="stable")
                vals, major, minor = (vals[by_input], minor[by_input],
                                      major[by_input])
                fmt, n = sp.csc_matrix, n_in
            else:
                fmt, n = sp.csr_matrix, nnz
            indptr = np.zeros(n + 1, dtype=np.int32)
            np.cumsum(np.bincount(major, minlength=n), out=indptr[1:])
            self.g.append(fmt((vals, minor, indptr), shape=(nnz, n_in)))
        self.shape = shape

    def __call__(self, group, data):
        """``G_group @ data``: the share of group ``group`` in the result's
        data, from the array ``data`` of its inputs."""
        g = self.g[group]
        if data.size != g.shape[1]:
            raise ValueError(f"product map group {group} takes {g.shape[1]} "
                             f"operand entries, got {data.size}")
        return g @ data

    def matrix(self, data):
        """The CSR result with the data array ``data``."""
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=self.shape)


class DirectFactor:
    """Sparse LU factorization, applied as a preconditioner.

    The factorization is immutable after construction; concurrent
    applications of one factor are safe.  Every matrix gets the same policy:
    SuperLU's symmetric mode, a minimum-degree ordering of ``A^T + A`` and
    diagonal pivots unless a diagonal entry is exactly zero.  All matrices
    factored here are symmetric or saddle systems with a symmetric
    pattern, where this keeps the fill near that of the symmetric
    ordering at every ``dt``; the residual check of :func:`krylov_solve`
    guards the stability that threshold pivoting would otherwise buy.

    SuperLU takes a CSC matrix, and every matrix factored here is CSR,
    whose transpose is a CSC view of the same arrays.  So the factor is
    that of ``A^T``, and :meth:`apply` runs SuperLU's transposed sweep,
    which solves ``A x = b``: no format conversion, and on the pulse and
    rigid step systems a sweep faster than the plain one, with the same
    fill.
    """

    def __init__(self, a):
        if a.shape[0] != a.shape[1]:
            raise SolverError(f"matrix is not square: {a.shape}")
        try:
            self._lu = spla.splu(sp.csc_matrix(a.T),
                                 permc_spec="MMD_AT_PLUS_A",
                                 diag_pivot_thresh=0.0,
                                 options={"SymmetricMode": True})
        except RuntimeError as exc:  # SuperLU signals singularity this way
            raise SolverError(f"sparse factorization failed: {exc}") from exc

    @property
    def fill_nnz(self):
        """Entries SuperLU stores for L plus U, the zeros it keeps inside
        its supernodes included; read without building copies of the
        factors, as ``.L`` and ``.U`` would."""
        return int(self._lu.nnz)

    def apply(self, b):
        """Unchecked solve of ``A x = b`` with the LU factors of ``A^T``,
        for use as a preconditioner."""
        return self._lu.solve(b, trans="T")


# GMRES iterations one solve may spend, restarts included.  Each applies
# the LU once, so a miss costs at most this many LU applications on top of
# the factorization.
GMRES_MAX_ITERATIONS = 20

# Earlier (solution, right-hand side) pairs a ReusedFactorSolver keeps to
# start the next solve from (Fischer, CMAME 163, 1998): the last eight take
# the pulse run's mean GMRES count from 5.7 to 1.3.
PROJECTION_DEPTH = 8


def krylov_solve(a, b, factor, tol, callback=None, *, x0=None,
                 on_residual=None):
    """Flexible GMRES on ``a x = b``, right-preconditioned by the LU
    ``factor`` of ``a`` or of a nearby matrix, within
    :data:`GMRES_MAX_ITERATIONS` iterations.

    Returns ``x`` with ``||a x - b|| <= tol * ||b||``, checked against ``a``
    itself; raises :class:`SolverError` otherwise.  ``callback`` is called
    once per iteration with the residual estimate, ``on_residual`` once
    with the checked relative residual ``||b - a x|| / ||b||`` of the ``x``
    returned.

    GMRES starts from ``x = 0``, or from ``x0`` on its true residual
    ``b - a x0``; a start that meets the contract is returned after 0
    iterations.  Arnoldi with modified Gram-Schmidt builds a basis ``V`` of
    the Krylov space of ``a M^-1`` and keeps ``Z = M^-1 V`` beside it
    (Saad, SIAM J. Sci. Comput. 14, 1993), so ``x + Z y`` costs no further
    LU application and ``a Z = V H`` holds whatever the preconditioner.
    Givens rotations keep the least squares residual, which estimates the
    true residual.  Once the estimate meets the contract, ``x + Z y`` is
    formed and its true residual checked; when only the estimate meets it,
    GMRES restarts from the new ``x`` on its true residual, a step of
    iterative refinement (Arioli & Duff, ETNA 33, 2009).  The cycles share
    the iteration cap, and each iteration applies the LU once, so a solve
    applies it at most :data:`GMRES_MAX_ITERATIONS` times.

    GMRES solves for ``b / 2^e``, with ``2^e`` the power of two that takes
    ``max |b|`` into [1/2, 1), from ``x0 / 2^e``, and returns ``x 2^e``.
    Scaling by a power of two is exact short of underflow, so the solution
    keeps its digits, while no norm underflows: ``np.linalg.norm`` squares
    the entries, so it loses accuracy on a vector whose entries are all
    below about 1e-154 and reads 0 below about 1e-162.
    """
    b = np.asarray(b, dtype=float)
    big = np.max(np.abs(b), initial=0.0)
    if big == 0.0:
        return np.zeros_like(b)
    e = np.frexp(big)[1]
    b = np.ldexp(b, -e)
    norm_b = np.linalg.norm(b)
    target = tol * norm_b
    m = GMRES_MAX_ITERATIONS
    basis = np.empty((m + 1, b.size))
    zs = np.empty((m, b.size))      # M^-1 applied to each basis vector
    hess = np.zeros((m + 1, m))
    cos, sin = np.zeros(m), np.zeros(m)
    g = np.zeros(m + 1)             # rotated right-hand side ||r|| e_1
    if x0 is None:
        x, r = np.zeros_like(b), b
    else:
        x = np.ldexp(x0, -e)
        r = b - a @ x
    left = m
    while True:
        resid = np.linalg.norm(r)   # the true residual of x
        if resid <= target:         # also rejects a NaN residual
            if on_residual is not None:
                on_residual(float(resid / norm_b))
            if left == m and x0 is not None:
                return x0       # the start itself, checked
            return np.ldexp(x, e)
        if left <= 0:
            break
        g[0] = resid                # one GMRES cycle from x on r
        basis[0] = r / resid
        for j in range(left):
            zs[j] = factor.apply(basis[j])
            w = a @ zs[j]
            for i in range(j + 1):
                hess[i, j] = w @ basis[i]
                w -= hess[i, j] * basis[i]
            h_next = np.linalg.norm(w)
            for i in range(j):
                hess[i, j], hess[i + 1, j] = (
                    cos[i] * hess[i, j] + sin[i] * hess[i + 1, j],
                    -sin[i] * hess[i, j] + cos[i] * hess[i + 1, j])
            rho = np.hypot(hess[j, j], h_next)
            if not rho > 0.0:       # singular or non-finite Hessenberg column
                left = 0
                break
            cos[j], sin[j] = hess[j, j] / rho, h_next / rho
            hess[j, j] = rho
            g[j + 1] = -sin[j] * g[j]
            g[j] *= cos[j]
            if callback is not None:
                callback(np.ldexp(abs(g[j + 1]), e))
            if abs(g[j + 1]) <= target:
                y = solve_triangular(hess[:j + 1, :j + 1], g[:j + 1])
                x = x + y @ zs[:j + 1]
                r = b - a @ x
                left -= j + 1
                break
            basis[j + 1] = w / h_next
        else:
            left = 0
    raise SolverError(
        f"gmres missed {tol:.1e} * ||b|| within {GMRES_MAX_ITERATIONS} "
        f"iterations (residual {np.ldexp(resid, e):.3e})")


def constant_solver(a, tol):
    """The solve ``b -> x`` of the constant ``a``: :func:`krylov_solve` from
    zero with the exact LU of ``a``, formed by the first load that is not all
    zeros; the residual is at rounding level, and a miss of ``tol`` raises."""
    factor = functools.cache(lambda: DirectFactor(a))
    return lambda b: krylov_solve(a, b, factor() if np.any(b) else None, tol)


# Rows per block of the projected start's QR.  A block of a full window
# and its right-hand side (1,024 x 9 doubles, 72 KB) stays in cache, and
# every BLAS call on it stays below the size at which OpenBLAS wakes its
# thread pool.  That matters because SciPy's LAPACK links its own OpenBLAS, beside
# NumPy's: the two pools spinning against each other made a pulse run with
# the default thread count 1.5 times slower on a 2-core host when the whole
# window went to one LAPACK call.
QR_BLOCK_ROWS = 1024


def fit_coefficients(bs, b):
    """``c`` minimizing ``||b - bs^T c||`` for the ``(k, n)`` rows ``bs``:
    the fit ``np.linalg.lstsq(bs.T, b)`` makes, at lower cost.

    A Householder QR of ``[bs^T  b]`` (LAPACK ``dgeqrf``) gives the
    triangle ``R`` of ``bs^T`` and, in its last column, ``Q^T b``.  It is
    taken by blocks of :data:`QR_BLOCK_ROWS` rows, whose triangles are
    stacked and factored once more (TSQR: Demmel, Grigori, Hoemmen &
    Langou, SIAM J. Sci. Comput. 34, 2012).  ``c`` is the minimum-norm
    solution of ``R c = (Q^T b)[:min(n, k)]`` by the SVD of ``R``, which
    drops the singular values at or below ``eps * max(n, k) * sigma_max``,
    as ``lstsq``'s default ``rcond`` does.
    """
    k, n = bs.shape
    w = np.vstack((bs, b)).T
    r = np.vstack([np.triu(lapack.dgeqrf(w[i:i + QR_BLOCK_ROWS])[0][:k + 1])
                   for i in range(0, n, QR_BLOCK_ROWS)])
    r = lapack.dgeqrf(r)[0]
    m = min(n, k)
    u, s, vt = np.linalg.svd(np.triu(r[:m, :k]), full_matrices=False)
    kept = s > np.finfo(float).eps * max(n, k) * s[0]
    return (r[:m, k] @ u[:, kept] / s[kept]) @ vt[kept]


@dataclass
class SolveStats:
    """What one :class:`ReusedFactorSolver` did over its lifetime."""

    factorizations: int = 0
    reused_solves: int = 0
    gmres_iterations: int = 0      # summed over the reused solves
    max_gmres_iterations: int = 0
    worst_rel_residual: float = 0.0
    # entries SuperLU stores for L+U of the last factor, the zeros inside
    # its supernodes included (DirectFactor.fill_nnz)
    lu_fill_nnz: int = 0

    @property
    def mean_gmres_iterations(self):
        return self.gmres_iterations / max(self.reused_solves, 1)

    def summary(self):
        return (f"solver: {self.factorizations} factorizations, "
                f"{self.reused_solves} reused solves, GMRES iterations "
                f"mean {self.mean_gmres_iterations:.1f} max "
                f"{self.max_gmres_iterations}, worst relative residual "
                f"{self.worst_rel_residual:.2e}, LU fill {self.lu_fill_nnz}")


class ReusedFactorSolver:
    """The fluid step's solve policy: nearby systems, one per time step.

    It keeps the LU of the last system it factored and solves each new
    system by GMRES preconditioned with it (:func:`krylov_solve`).  When
    GMRES misses ``||Ax - b|| <= tol * ||b||`` within its iteration cap, the
    stale factor is released and the new system is factored and solved by
    GMRES again, now preconditioned with its own LU, so at most one factor
    is alive at any time.

    GMRES starts from the last :data:`PROJECTION_DEPTH` solutions ``X`` and
    their right-hand sides ``B``: ``x0 = X c`` with ``c`` minimizing
    ``||b - B c||`` (:func:`fit_coefficients`, a blocked Householder QR
    and an SVD of its small triangle), which needs no product with ``a``
    (Fischer, CMAME 163, 1998).  When ``a`` has changed the fit is only a
    guess, and the true residual of ``x0`` decides.  The history survives a
    refactorization; a right-hand side with ``max|b| < 2^-511``, whose
    ``b·b`` may underflow, adds nothing, as the fit of a start to such pairs
    goes to NaN.  Each run owns its own instance, so a result never depends
    on what ran before it.

    ``X`` and ``B`` are windows on ``(2 depth, n)`` buffers, allocated by
    the first pair kept: pair ``j`` is written at row ``j mod depth`` and
    ``depth`` rows below, so the pairs held are one slice, oldest first.
    """

    def __init__(self, tol):
        self.tol = tol
        self.stats = SolveStats()
        self._factor = None
        self._depth = PROJECTION_DEPTH
        self._xs = self._bs = None      # the window's buffers
        self._kept = self._next = 0     # pairs held; row of the next pair

    def _history(self):
        """The held solutions and right-hand sides, oldest first."""
        start = (self._next - self._kept) % self._depth
        rows = slice(start, start + self._kept)
        return self._xs[rows], self._bs[rows]

    def _keep(self, x, b):
        """Add the pair ``(x, b)``, over the oldest one once ``depth`` are
        held."""
        if self._xs is None:
            self._xs, self._bs = np.empty((2, 2 * self._depth, b.size))
        i = self._next
        self._xs[i] = self._xs[i + self._depth] = x
        self._bs[i] = self._bs[i + self._depth] = b
        self._next = (i + 1) % self._depth
        self._kept = min(self._kept + 1, self._depth)

    def solve(self, a, b):
        """``x`` with ``||a x - b|| <= tol * ||b||``; raises
        :class:`SolverError` when even a fresh factor of ``a`` misses."""
        stats = self.stats
        b = np.asarray(b, dtype=float)
        x = x0 = None
        if self._kept:
            xs, bs = self._history()
            x0 = fit_coefficients(bs, b) @ xs
        checked, iterations = [], []
        if self._factor is not None:
            try:
                x = krylov_solve(a, b, self._factor, self.tol,
                                 iterations.append, x0=x0,
                                 on_residual=checked.append)
            except SolverError:
                # the stale LU is freed when this handler drops the
                # traceback, before the next factorization starts
                self._factor = None
            else:
                stats.reused_solves += 1
                stats.gmres_iterations += len(iterations)
                stats.max_gmres_iterations = max(stats.max_gmres_iterations,
                                                 len(iterations))
        if x is None:
            self._factor = DirectFactor(a)
            stats.factorizations += 1
            stats.lu_fill_nnz = self._factor.fill_nnz
            x = krylov_solve(a, b, self._factor, self.tol, x0=x0,
                             on_residual=checked.append)
        if checked:     # a zero right-hand side has no residual to check
            stats.worst_rel_residual = max(stats.worst_rel_residual,
                                           checked[0])
            if np.abs(b).max() >= 2.0**-511:   # so b·b does not underflow
                self._keep(x, b)
        return x

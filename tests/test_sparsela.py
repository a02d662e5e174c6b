import os
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from wallflow import coupling, sparsela
from wallflow.config import load_config
from wallflow.driver import RunSetup
from wallflow.errors import SolverError
from wallflow.sparsela import (DirectFactor, ReusedFactorSolver,
                               ScatterPattern, krylov_solve)

import oracles
from test_driver import CONFIG_DIR, count_calls


def factor_solve(a, b, tol=1e-12):
    return ReusedFactorSolver(tol).solve(a, b)


def test_identity_solve_returns_rhs():
    a = sp.eye(7, format="csc")
    b = np.arange(7.0)
    assert np.array_equal(factor_solve(a, b), b)


def test_spd_solve_matches_dense_inverse():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, 5))
    a_dense = m @ m.T + 5.0 * np.eye(5)
    b = rng.standard_normal(5)
    x = factor_solve(sp.csc_matrix(a_dense), b)
    ref = np.linalg.inv(a_dense) @ b
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


def test_singular_matrix_raises_not_garbage():
    a = sp.csc_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SolverError):
        factor_solve(a, np.array([1.0, 1.0]))


def test_nonsquare_rejected():
    a = sp.csc_matrix(np.ones((3, 2)))
    with pytest.raises(SolverError, match="square"):
        DirectFactor(a)


def test_residual_contract_enforced():
    rng = np.random.default_rng(1)
    a = sp.random(40, 40, density=0.2, random_state=2, format="csc")
    a = a + sp.eye(40) * 10.0
    b = rng.standard_normal(40)
    x = factor_solve(a, b, tol=1e-12)
    assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_zero_rhs_returns_zero():
    a = sp.eye(4, format="csc") * 3.0
    assert np.all(factor_solve(a, np.zeros(4)) == 0.0)


def test_a_constant_system_is_factored_by_its_first_nonzero_load(
        monkeypatch):
    # built, or given zero loads only (+0, -0.0, or none at all in a 0x0
    # system), a constant solver forms no LU and returns krylov_solve's +0
    # zeros; the first nonzero load forms the one LU that solves it and
    # every later load
    built = count_calls(monkeypatch, DirectFactor, "__init__")
    a = sp.csr_matrix(np.diag([3.0, 1.0, 2.0, 5.0]) + np.eye(4, k=1))
    empty = sp.csr_matrix((0, 0))
    solve = sparsela.constant_solver(a, 1e-12)
    solve_empty = sparsela.constant_solver(empty, 1e-12)
    for m, s, b in ((a, solve, np.zeros(4)), (a, solve, -np.zeros(4)),
                    (a, solve, np.array([0.0, -0.0, -0.0, 0.0])),
                    (empty, solve_empty, np.zeros(0))):
        x = s(b)
        assert x.tobytes() == krylov_solve(m, b, None, 1e-12).tobytes()
        assert x.shape == b.shape and not np.signbit(x).any()
    assert built == []
    rng = np.random.default_rng(5)
    loads = [rng.standard_normal(4) for _ in range(3)] + [np.zeros(4)]
    xs = [solve(b) for b in loads]
    assert len(built) == 1
    factor = DirectFactor(a)
    for b, x in zip(loads, xs):
        assert np.array_equal(x, krylov_solve(a, b, factor, 1e-12))


def test_scatter_pattern_matches_coo():
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 6, size=40)
    cols = rng.integers(0, 5, size=40)
    vals = rng.standard_normal(40)
    pattern = ScatterPattern(rows, cols, (6, 5))
    ours = pattern.csr(vals).toarray()
    ref = sp.coo_matrix((vals, (rows, cols)), shape=(6, 5)).toarray()
    assert np.abs(ours - ref).max() <= 1e-15
    # second scatter on the same pattern is independent of the first
    vals2 = rng.standard_normal(40)
    ref2 = sp.coo_matrix((vals2, (rows, cols)), shape=(6, 5)).toarray()
    assert np.abs(pattern.csr(vals2).toarray() - ref2).max() <= 1e-15


def test_product_map_matches_scipy_products():
    # [[R^T A R, -(B R)^T], [B R, 0]] plus W in a corner, as the step
    # reduction forms it, for two sets of operand values: A, B and W in
    # three groups, the shares added; W's few inputs and products make its
    # group the one stored by input
    rng = np.random.default_rng(8)
    a = sp.random(7, 7, density=0.4, random_state=1, format="csr")
    b = sp.random(3, 7, density=0.5, random_state=2, format="csr")
    w = sp.random(2, 2, density=1.0, random_state=3, format="csr")
    r = sp.random(7, 4, density=0.5, random_state=4, format="csc")
    eye = sp.identity(3, format="csr")
    a_rows, b_rows = sparsela.csr_rows(a), sparsela.csr_rows(b)
    pmap = sparsela.ProductMap(
        [[(0, a_rows, a.indices, r.T, r, (0, 0), 1.0)],
         [(0, b_rows, b.indices, eye, r, (4, 0), 1.0),
          (0, b.indices, b_rows, r.T, eye, (0, 4), -1.0)],
         [(0, sparsela.csr_rows(w), w.indices,
           sp.identity(2), sp.identity(2), (2, 2), 1.0)]], (7, 7))
    assert [(g.format, g.shape) for g in pmap.g] == [
        ("csr", (pmap.indices.size, a.nnz)),
        ("csr", (pmap.indices.size, b.nnz)),
        ("csc", (pmap.indices.size, w.nnz))]
    for _ in range(2):
        a.data, b.data, w.data = (rng.standard_normal(m.nnz) for m in (a, b, w))
        ours = pmap.matrix(pmap(0, a.data) + pmap(1, b.data) + pmap(2, w.data))
        ref = sp.bmat([[r.T @ a @ r + sp.block_diag((sp.csr_matrix((2, 2)), w)),
                        -(b @ r).T], [b @ r, None]]).toarray()
        assert np.abs(ours.toarray() - ref).max() <= 1e-14 * np.abs(ref).max()
    with pytest.raises(ValueError, match="operand entries"):
        pmap(1, np.zeros(3))


def test_product_map_keeps_products_that_share_an_input_and_a_slot():
    # X + X^T through a map with two terms on one operand: a diagonal
    # entry of X is read by both terms and lands on one slot twice.  Each
    # product stays its own entry of G's row, in term order, so the call
    # sums 2 * x_kk as x_kk + x_kk
    rng = np.random.default_rng(11)
    x = sp.random(5, 5, density=0.5, random_state=5, format="csr")
    x.setdiag(rng.standard_normal(5))
    x = sp.csr_matrix(x)
    rows, eye = sparsela.csr_rows(x), sp.identity(5, format="csr")
    pmap = sparsela.ProductMap(
        [[(0, rows, x.indices, eye, eye, (0, 0), 1.0),
          (0, x.indices, rows, eye, eye, (0, 0), 1.0)]], (5, 5))
    g, = pmap.g
    assert g.shape == (abs(x + x.T).nnz, x.nnz)
    assert g.nnz == 2 * x.nnz
    diagonal = np.flatnonzero(rows == x.indices)
    for k in diagonal:
        slot = np.flatnonzero(g.indices == k)
        assert slot.size == 2          # one row, both products
        assert np.searchsorted(g.indptr, slot[0], side="right") == \
            np.searchsorted(g.indptr, slot[1], side="right")
    ours = pmap.matrix(pmap(0, x.data))
    assert np.array_equal(ours.toarray(), (x + x.T).toarray())
    assert np.array_equal(ours.diagonal(), x.diagonal() + x.diagonal())


def test_product_map_with_no_products():
    # a term whose operand or sides are empty adds no row to G, and the map
    # is bitwise the one-sort build's
    empty = np.zeros(0, dtype=np.int32)
    groups = [[(0, empty, empty, sp.identity(3), sp.identity(3), (0, 0),
                1.0)]]
    pmap = sparsela.ProductMap(groups, (3, 3))
    assert [g.shape for g in pmap.g] == [(0, 0)]
    out = pmap.matrix(pmap(0, np.zeros(0)))
    assert out.shape == (3, 3) and out.nnz == 0
    assert_same_map(pmap, oracles.one_sort_product_map(groups, (3, 3)))


def random_side(rng, kind, n_out, n_in, by_row):
    """``left`` (``by_row`` False: ``n_out x n_in`` CSC, read by column) or
    ``right`` (``n_in x n_out`` CSR, read by row) of a term: the identity,
    a selection of ones or of random values (each of the ``n_in`` lines it
    is read by holds one entry at random, or none) or a general matrix."""
    if kind == "identity":
        return sp.identity(n_in, format="csr")
    if kind == "general":
        shape = (n_in, n_out) if by_row else (n_out, n_in)
        return sp.random(*shape, density=0.5, random_state=rng, format="csr")
    lines = np.flatnonzero(rng.random(n_in) < 0.7)
    others = rng.integers(0, n_out, size=lines.size)
    data = (np.ones(lines.size) if kind == "ones"
            else rng.standard_normal(lines.size))
    if by_row:
        return sp.csr_matrix((data, (lines, others)), shape=(n_in, n_out))
    return sp.csc_matrix((data, (others, lines)), shape=(n_out, n_in))


SIDES = ("identity", "ones", "values", "general")


def random_groups(rng, shape=(23, 19)):
    """Groups of terms on operands of random sizes, each side a selection
    (the identity, a 0/1 selection with empty lines, a selection with other
    values) or a general matrix, at random corners with scale 1 or -1."""
    groups = []
    for _ in range(2):
        terms, n_inputs = [], 0
        for lkind in SIDES:
            for rkind in SIDES:
                a, b = rng.integers(2, 7, size=2)
                n_r = a if lkind == "identity" else rng.integers(1, 9)
                n_c = b if rkind == "identity" else rng.integers(1, 9)
                nx = int(rng.integers(0, 3 * a * b))
                src = int(rng.integers(0, n_inputs + 1))
                terms.append((src, rng.integers(0, a, size=nx),
                              rng.integers(0, b, size=nx),
                              random_side(rng, lkind, n_r, a, False),
                              random_side(rng, rkind, n_c, b, True),
                              (int(rng.integers(0, shape[0] - n_r + 1)),
                               int(rng.integers(0, shape[1] - n_c + 1))),
                              float(rng.choice([1.0, -1.0]))))
                n_inputs = max(n_inputs, src + nx)
        groups.append(terms)
    return groups


def assert_same_products(ours, ref):
    ours, ref = list(ours), list(ref)
    assert len(ours) == len(ref)
    for mine, theirs in zip(ours, ref):
        for a, b in zip(mine, theirs):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def assert_same_map(ours, ref):
    assert ours.shape == ref.shape
    for a, b in ((ours.indices, ref.indices), (ours.indptr, ref.indptr)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert len(ours.g) == len(ref.g)
    for g, h in zip(ours.g, ref.g):
        assert (g.format, g.shape) == (h.format, h.shape)
        for a, b in ((g.data, h.data), (g.indices, h.indices),
                     (g.indptr, h.indptr)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def map_from_oracle(monkeypatch, build, *args):
    """``build(*args)`` with the product map's products from the oracle."""
    with monkeypatch.context() as m:
        m.setattr(sparsela, "_products", oracles.expanded_products)
        return build(*args)


@pytest.mark.parametrize("seed", range(6))
def test_products_match_the_expansion(monkeypatch, seed):
    # selection operands take the direct path, the others the expansion;
    # either way each term's triples equal the expansion's, in its order
    # and dtypes, and so does the map built from them
    groups = random_groups(np.random.default_rng(seed))
    for terms in groups:
        assert_same_products(sparsela._products(terms, (23, 19)),
                             oracles.expanded_products(terms, (23, 19)))
    assert_same_map(sparsela.ProductMap(groups, (23, 19)),
                    map_from_oracle(monkeypatch, sparsela.ProductMap,
                                    groups, (23, 19)))


@pytest.mark.parametrize("mode, expansions", [("rigid", 0),
                                              ("viscoelastic", 12)])
def test_reduction_map_matches_the_expansion(monkeypatch, mode, expansions):
    # a rigid P holds one entry a row at most, so every term of its map is
    # on selections; a moving wall's trace rows keep the six terms through
    # P on the expansion, two ranges each, and its wall block off it
    setup = oracles.run_setup(4, 3, 2.0, 0.1, {}, 1e-3, mode)
    expand = count_calls(monkeypatch, sparsela, "_expand")
    ours = coupling.build_reduction(setup)
    assert len(expand) == expansions
    assert_same_map(ours, map_from_oracle(monkeypatch,
                                          coupling.build_reduction, setup))


def pulse_setup():
    """The RunSetup of ``configs/pulse.json``, on its 64x16 mesh."""
    return RunSetup(load_config(os.path.join(CONFIG_DIR, "pulse.json")))


@pytest.mark.parametrize("seed", range(6))
def test_map_sorted_by_group_matches_the_one_sort_build(seed):
    # each group's products sorted on their own and the groups' distinct
    # keys merged give the pattern and every G of one sort of all products,
    # bitwise: products on one entry keep their term order
    groups = random_groups(np.random.default_rng(seed))
    assert_same_map(sparsela.ProductMap(groups, (23, 19)),
                    oracles.one_sort_product_map(groups, (23, 19)))


@pytest.mark.parametrize("make_setup", [
    lambda: oracles.run_setup(4, 3, 2.0, 0.1, {}, 1e-3, "rigid"),
    lambda: oracles.run_setup(4, 3, 2.0, 0.1, {}, 1e-3, "viscoelastic"),
    pulse_setup], ids=["rigid", "viscoelastic", "pulse"])
def test_reduction_map_matches_the_one_sort_build(monkeypatch, make_setup):
    # the run's map is bitwise the one-sort build's, so every step system
    # is too
    setup = make_setup()
    ours = coupling.build_reduction(setup)
    monkeypatch.setattr(coupling, "ProductMap", oracles.one_sort_product_map)
    assert_same_map(ours, coupling.build_reduction(setup))


def test_reduction_map_build_peaks_below_30_mib():
    # sorted one group at a time, a group's keys, sort order and per-term
    # products are freed before the next group's exist: on the pulse setup
    # the build peaks at 26.2 MiB under tracemalloc, of which the map keeps
    # 10.8; one sort of both groups' products peaked at 35.2.  tracemalloc
    # sees NumPy's allocations, so the figure repeats exactly on one NumPy
    # version
    setup = pulse_setup()
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before = tracemalloc.get_traced_memory()[0]
        coupling.build_reduction(setup)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert peak < 30 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_empty_scatter_pattern_gives_empty_matrices():
    # the Gram pattern of a single-element wall, which has no free DOFs
    pattern = ScatterPattern([], [], (0, 0))
    a = pattern.csr([])
    assert a.shape == (0, 0) and a.nnz == 0
    assert ScatterPattern([], [], (3, 2)).csr([]).shape == (3, 2)


def nonsymmetric_system(seed, n=60):
    """A well-conditioned nonsymmetric sparse matrix and a right-hand side."""
    rng = np.random.default_rng(seed)
    a = sp.random(n, n, density=0.1, random_state=seed, format="csc")
    a = (a - a.T) + sp.diags(4.0 + rng.random(n))
    return sp.csc_matrix(a), rng.standard_normal(n)


def nearby(a, scale, seed):
    """``a`` with every stored entry perturbed by ``scale`` relative."""
    rng = np.random.default_rng(seed)
    out = a.copy()
    out.data = out.data * (1.0 + scale * rng.standard_normal(out.data.size))
    return out


def rel_residual(a, x, b):
    return np.linalg.norm(a @ x - b) / np.linalg.norm(b)


def test_policy_reuses_the_factor_for_a_nearby_matrix():
    a0, b = nonsymmetric_system(5)
    solver = ReusedFactorSolver(tol=1e-12)
    solver.solve(a0, b)
    a1 = nearby(a0, 1e-3, 6)
    x1 = solver.solve(a1, b)
    assert solver.stats.factorizations == 1
    assert solver.stats.reused_solves == 1
    assert 1 <= solver.stats.max_gmres_iterations <= sparsela.GMRES_MAX_ITERATIONS
    assert rel_residual(a1, x1, b) <= 1e-12
    assert solver.stats.worst_rel_residual <= 1e-12


def test_policy_refactors_for_a_far_matrix():
    a0, b = nonsymmetric_system(7)
    far, _ = nonsymmetric_system(8)
    solver = ReusedFactorSolver(tol=1e-12)
    solver.solve(a0, b)
    with pytest.raises(SolverError, match="gmres missed"):
        krylov_solve(far, b, DirectFactor(a0), tol=1e-12)
    x = solver.solve(far, b)
    assert solver.stats.factorizations == 2
    assert solver.stats.reused_solves == 0
    assert rel_residual(far, x, b) <= 1e-12


def test_policy_singular_matrix_raises():
    a0, b = nonsymmetric_system(9)
    singular = a0.tolil()
    singular[3, :] = 0.0
    singular = singular.tocsc()
    solver = ReusedFactorSolver(tol=1e-12)
    solver.solve(a0, b)
    with pytest.raises(SolverError):
        solver.solve(singular, b)
    with pytest.raises(SolverError):
        ReusedFactorSolver(tol=1e-12).solve(singular, b)


def test_policy_zero_rhs_returns_zero():
    a0, _ = nonsymmetric_system(10)
    solver = ReusedFactorSolver(tol=1e-12)
    assert np.all(solver.solve(a0, np.zeros(a0.shape[0])) == 0.0)
    x = solver.solve(nearby(a0, 1e-3, 11), np.zeros(a0.shape[0]))
    assert np.all(x == 0.0)
    assert solver.stats.factorizations == 1


def test_policy_checks_the_residual_against_the_new_matrix():
    a0, b = nonsymmetric_system(12)
    a1 = nearby(a0, 1e-2, 13)
    solver = ReusedFactorSolver(tol=1e-11)
    solver.solve(a0, b)
    x1 = solver.solve(a1, b)
    assert solver.stats.reused_solves == 1
    assert rel_residual(a1, x1, b) <= 1e-11
    # the stale factor's own solution misses the new system by far
    assert rel_residual(a1, factor_solve(a0, b), b) > 1e-6


def test_policy_releases_the_stale_factor_before_refactoring(monkeypatch):
    a0, b = nonsymmetric_system(14)
    far, _ = nonsymmetric_system(15)
    solver = ReusedFactorSolver(tol=1e-12)
    solver.solve(a0, b)
    stale = weakref.ref(solver._factor)
    alive_at_refactor = []
    original = DirectFactor.__init__

    def watching_init(self, *args, **kwargs):
        alive_at_refactor.append(stale() is not None)
        original(self, *args, **kwargs)

    monkeypatch.setattr(DirectFactor, "__init__", watching_init)
    solver.solve(far, b)
    assert alive_at_refactor == [False]
    assert solver.stats.factorizations == 2


def count_applications(monkeypatch):
    """Wrap ``DirectFactor.apply`` to count LU applications."""
    return count_calls(monkeypatch, DirectFactor, "apply")


def test_reused_solve_applies_the_lu_once_per_iteration(monkeypatch):
    # flexible GMRES forms x from the stored M^-1 v_j: no LU application
    # beyond the iterations'
    a0, b = nonsymmetric_system(16)
    solver = ReusedFactorSolver(tol=1e-12)
    solver.solve(a0, b)
    applied = count_applications(monkeypatch)
    for k, scale in enumerate((1e-4, 1e-3, 1e-2)):
        before = (len(applied), solver.stats.gmres_iterations)
        solver.solve(nearby(a0, scale, 17 + k), b)
        iterations = solver.stats.gmres_iterations - before[1]
        assert iterations >= 1
        assert len(applied) - before[0] == iterations
    assert solver.stats.factorizations == 1
    assert solver.stats.reused_solves == 3


def test_far_matrix_raises_within_the_application_cap(monkeypatch):
    a0, b = nonsymmetric_system(20)
    far, _ = nonsymmetric_system(21)
    factor = DirectFactor(a0)
    applied = count_applications(monkeypatch)
    estimates = []
    with pytest.raises(SolverError, match="gmres missed"):
        krylov_solve(far, b, factor, tol=1e-12, callback=estimates.append)
    assert len(estimates) <= sparsela.GMRES_MAX_ITERATIONS
    assert len(applied) <= sparsela.GMRES_MAX_ITERATIONS


def test_krylov_solution_meets_the_true_residual_contract():
    a0, b = nonsymmetric_system(22)
    a1 = nearby(a0, 1e-2, 23)
    estimates = []
    x = krylov_solve(a1, b, DirectFactor(a0), tol=1e-11,
                     callback=estimates.append)
    assert rel_residual(a1, x, b) <= 1e-11
    assert estimates[-1] <= 1e-11 * np.linalg.norm(b)
    assert all(e1 <= e0 for e0, e1 in zip(estimates, estimates[1:]))


class DriftingPreconditioner:
    """A preconditioner that is not the same linear map on every call."""

    def __init__(self, factor, drift, seed):
        self.factor, self.drift = factor, drift
        self.rng = np.random.default_rng(seed)

    def apply(self, v):
        return self.factor.apply(v) * (1.0 + self.drift
                                       * self.rng.standard_normal())


class DriftingOperator:
    """A matrix whose first ``drifting`` products (every one when
    ``None``) are scaled by ``1 + drift * noise``, a new draw each time.
    It is not the same linear map on every call, which breaks the link
    between the GMRES estimate and the true residual; a drifting
    preconditioner no longer does, since flexible GMRES keeps ``a Z = V H``
    for any preconditioner.  ``products`` counts every product."""

    def __init__(self, a, drift, seed, drifting=None):
        self.a, self.shape, self.drift = a, a.shape, drift
        self.rng = np.random.default_rng(seed)
        self.drifting, self.products = drifting, 0

    def __matmul__(self, x):
        self.products += 1
        out = self.a @ x
        if self.drifting is None or self.products <= self.drifting:
            out = out * (1.0 + self.drift * self.rng.standard_normal())
        return out


def test_flexible_gmres_meets_the_contract_with_a_drifting_preconditioner(
        monkeypatch):
    # right-preconditioned GMRES that forms x as x + M^-1 V y rejected
    # this solve: its estimate no longer matched the true residual
    a0, b = nonsymmetric_system(24)
    drifting = DriftingPreconditioner(DirectFactor(a0), 0.3, 25)
    applied = count_applications(monkeypatch)
    estimates = []
    x = krylov_solve(a0, b, drifting, tol=1e-12, callback=estimates.append)
    assert rel_residual(a0, x, b) <= 1e-12
    assert len(applied) == len(estimates) <= sparsela.GMRES_MAX_ITERATIONS


def test_krylov_restarts_when_only_its_estimate_meets_the_contract(
        monkeypatch):
    a0, b = nonsymmetric_system(24)
    drifting = DriftingOperator(a0, 1e-6, 25, drifting=1)
    applied = count_applications(monkeypatch)
    estimates = []
    # the first cycle's update misses by about the drift; a restart on
    # the true residual, a refinement step, closes the gap
    x = krylov_solve(drifting, b, DirectFactor(a0), tol=1e-12,
                     callback=estimates.append)
    assert rel_residual(a0, x, b) <= 1e-12
    cycles = drifting.products - len(estimates)   # one check per cycle
    assert cycles >= 2
    assert len(applied) == len(estimates) <= sparsela.GMRES_MAX_ITERATIONS


def test_krylov_rejects_a_solution_only_its_estimate_accepts(
        monkeypatch):
    a0, b = nonsymmetric_system(24)
    drifting = DriftingOperator(a0, 0.3, 25)
    applied = count_applications(monkeypatch)
    estimates = []
    with pytest.raises(SolverError, match="gmres missed"):
        krylov_solve(drifting, b, DirectFactor(a0), tol=1e-12,
                     callback=estimates.append)
    assert min(estimates) <= 1e-12 * np.linalg.norm(b)
    assert len(estimates) <= sparsela.GMRES_MAX_ITERATIONS
    assert len(applied) <= sparsela.GMRES_MAX_ITERATIONS


def test_stats_record_the_fill_of_the_last_factor():
    a0, b = nonsymmetric_system(26)
    far, _ = nonsymmetric_system(27)
    solver = ReusedFactorSolver(tol=1e-12)
    solver.solve(a0, b)
    assert solver.stats.lu_fill_nnz == DirectFactor(a0).fill_nnz > 0
    solver.solve(far, b)
    assert solver.stats.factorizations == 2
    assert solver.stats.lu_fill_nnz == DirectFactor(far).fill_nnz
    assert f"LU fill {solver.stats.lu_fill_nnz}" in solver.stats.summary()


def test_factor_solves_the_matrix_not_its_transpose():
    # the LU is of a^T, swept transposed: on a strongly nonsymmetric saddle
    # matrix with a zero diagonal block, apply must solve a x = b
    rng = np.random.default_rng(44)
    n, m = 30, 6
    k = sp.random(n, n, density=0.2, random_state=45) + 4.0 * sp.eye(n)
    a = sp.csr_matrix(sp.bmat(
        [[k, sp.random(n, m, density=0.5, random_state=46)],
         [5.0 * sp.random(m, n, density=0.5, random_state=47), None]]))
    assert abs(a - a.T).max() > 1.0
    b = rng.standard_normal(n + m)
    factor = DirectFactor(a)
    x = factor.apply(b)
    assert rel_residual(a, x, b) <= 1e-12
    assert rel_residual(a.T, x, b) > 1e-2
    assert factor.fill_nnz == factor._lu.nnz > 0


class CountingMatrix:
    """A matrix that counts its products, one per ``@`` whatever the width
    of the operand."""

    def __init__(self, a):
        self.a, self.shape, self.products = a, a.shape, 0

    def __matmul__(self, x):
        self.products += 1
        return self.a @ x


def drifting_systems(seed, count):
    """``count`` systems whose matrix and right-hand side drift smoothly
    from step to step, as the systems of consecutive time steps do."""
    a0, b0 = nonsymmetric_system(seed)
    rng = np.random.default_rng(seed + 1)
    da, db = rng.standard_normal(a0.nnz), rng.standard_normal(b0.size)
    for k in range(count):
        a = a0.copy()
        a.data = a0.data * (1.0 + 2e-3 * np.sin(0.3 * k) * da)
        yield a, b0 + 0.2 * np.sin(0.2 * k) * db + 0.01 * k * b0


def test_warm_start_cuts_iterations_on_a_drifting_sequence():
    systems = list(drifting_systems(30, 16))
    warm = ReusedFactorSolver(tol=1e-12)
    for a, b in systems:
        assert rel_residual(a, warm.solve(a, b), b) <= 1e-12
    # the same reused solves from zero with the first system's LU
    factor, cold = DirectFactor(systems[0][0]), []
    for a, b in systems[1:]:
        x = krylov_solve(a, b, factor, 1e-12, cold.append)
        assert rel_residual(a, x, b) <= 1e-12
    assert warm.stats.factorizations == 1
    assert warm.stats.gmres_iterations < len(cold)
    assert warm.stats.worst_rel_residual <= 1e-12


def test_same_system_twice_returns_checked_without_iterating(monkeypatch):
    a, b = nonsymmetric_system(31)
    solver = ReusedFactorSolver(tol=1e-12)
    solver.solve(a, b)
    applied = count_applications(monkeypatch)
    counted = CountingMatrix(a)
    x = solver.solve(counted, b)
    assert solver.stats.reused_solves == 1
    assert solver.stats.gmres_iterations == 0 and applied == []
    # the true residual of the start, which meets the contract
    assert counted.products == 1
    assert rel_residual(a, x, b) <= 1e-12


def test_reused_solve_makes_one_product_per_iteration_plus_two():
    # the start's residual, one per GMRES iteration, one check: a duplicate
    # residual product after the solve would show here
    a0, b = nonsymmetric_system(32)
    solver = ReusedFactorSolver(tol=1e-12)
    solver.solve(a0, b)
    for k, scale in enumerate((1e-4, 1e-3, 1e-2)):
        counted = CountingMatrix(nearby(a0, scale, 33 + k))
        before = solver.stats.gmres_iterations
        x = solver.solve(counted, b)
        iterations = solver.stats.gmres_iterations - before
        assert iterations >= 1
        assert counted.products == iterations + 2
        assert rel_residual(counted.a, x, b) <= 1e-12
    assert solver.stats.factorizations == 1


def test_history_holds_at_most_projection_depth_solutions():
    a, _ = nonsymmetric_system(34)
    rng = np.random.default_rng(35)
    solver, pairs = ReusedFactorSolver(tol=1e-12), []
    for k in range(sparsela.PROJECTION_DEPTH + 4):
        b = rng.standard_normal(a.shape[0])
        pairs.append((solver.solve(a, b), b))
        xs, bs = solver._history()
        assert len(xs) == len(bs) == min(k + 1, sparsela.PROJECTION_DEPTH)
        # the window is the last pairs, oldest first
        kept = pairs[-len(xs):]
        assert np.array_equal(xs, [x for x, _ in kept])
        assert np.array_equal(bs, [b for _, b in kept])
    # a zero right-hand side adds nothing: its solution spans nothing
    oldest = xs[0].copy()
    assert np.all(solver.solve(a, np.zeros(a.shape[0])) == 0.0)
    xs, _ = solver._history()
    assert len(xs) == sparsela.PROJECTION_DEPTH
    assert np.array_equal(xs[0], oldest)


def test_window_start_equals_a_stacked_history_start(monkeypatch):
    # the fit reads the window in place; fitting the last pairs stacked
    # into new arrays, as a queue of pairs would, gives the same start bit
    # for bit
    starts, original = [], sparsela.krylov_solve

    def recorded(*args, x0=None, **kwargs):
        starts.append(x0)
        return original(*args, x0=x0, **kwargs)

    monkeypatch.setattr(sparsela, "krylov_solve", recorded)
    solver, pairs = ReusedFactorSolver(tol=1e-12), []
    assert sparsela.PROJECTION_DEPTH == 8
    for a, b in drifting_systems(42, 12):
        del starts[:]
        x = solver.solve(a, b)
        last = pairs[-sparsela.PROJECTION_DEPTH:]
        if last:
            xs, bs = (np.array(rows) for rows in zip(*last))
            stacked = sparsela.fit_coefficients(bs, b) @ xs
            assert starts and all(s.tobytes() == stacked.tobytes()
                                  for s in starts)
        else:
            assert starts == [None]
        pairs.append((x, b))
    assert solver.stats.reused_solves == 11


def fit_window(kind, seed):
    """Held solutions ``xs``, their right-hand sides ``bs = (a xs^T)^T``
    for a well-conditioned ``a``, and a new right-hand side, for a window
    of the given ``kind``."""
    rng = np.random.default_rng(seed)
    n, k = {"tall": (2 * sparsela.QR_BLOCK_ROWS + 5, 8), "wide": (4, 8),
            "rank-deficient": (200, 8), "single pair": (200, 1)}[kind]
    xs = rng.standard_normal((k, n))
    if kind == "rank-deficient":
        # near-repeated pairs, as a run that settles to constant holds
        xs[4:] = xs[:4] * (1.0 + 1e-16 * rng.standard_normal((4, 1)))
    a, _ = nonsymmetric_system(seed, n)
    bs = (a @ xs.T).T
    return xs, bs, bs.T @ rng.standard_normal(k) + rng.standard_normal(n)


@pytest.mark.parametrize("kind", ["tall", "wide", "rank-deficient",
                                  "single pair"])
def test_fit_matches_lstsq(kind):
    # "tall" spans two full QR blocks and a last block of fewer rows than
    # the window has columns; "wide" is a 3-element wall's 4 free DOFs
    xs, bs, b = fit_window(kind, 43)
    fitted = sparsela.fit_coefficients(bs, b)
    reference = np.linalg.lstsq(bs.T, b, rcond=None)[0]
    if kind == "rank-deficient":
        s = np.linalg.svd(bs, compute_uv=False)
        assert s[-1] / s[0] < 1e-15
    start, lstsq_start = fitted @ xs, reference @ xs
    assert (np.linalg.norm(start - lstsq_start)
            <= 1e-12 * np.linalg.norm(lstsq_start))
    assert (np.linalg.norm(b - bs.T @ fitted)
            <= np.linalg.norm(b - bs.T @ reference)
            + 1e-14 * np.linalg.norm(b))


def test_history_survives_a_refactorization():
    a0, b = nonsymmetric_system(36)
    far, b_far = nonsymmetric_system(37)
    solver = ReusedFactorSolver(tol=1e-12)
    solver.solve(a0, b)
    solver.solve(far, b_far)
    assert solver.stats.factorizations == 2
    assert len(solver._history()[0]) == 2
    x = solver.solve(far, b_far)     # the refactored solution starts it
    assert solver.stats.reused_solves == 1
    assert solver.stats.max_gmres_iterations == 0
    assert rel_residual(far, x, b_far) <= 1e-12


def test_same_rhs_against_two_matrices_meets_the_contract():
    # a right-hand-side fit cannot tell the two systems apart, so each
    # start is a solution of the other matrix; only the true residual of
    # the start shows it, and GMRES solves on from there
    a0, b = nonsymmetric_system(40)
    a1 = nearby(a0, 1e-2, 41)
    solver = ReusedFactorSolver(tol=1e-12)
    for a in (a0, a1, a0, a1):
        assert rel_residual(a, solver.solve(a, b), b) <= 1e-12
    assert solver.stats.factorizations == 1
    assert solver.stats.reused_solves == 3
    assert solver.stats.max_gmres_iterations >= 1
    assert solver.stats.worst_rel_residual <= 1e-12


def test_krylov_from_a_start_that_meets_the_target_checks_it(monkeypatch):
    a, b = nonsymmetric_system(38)
    factor = DirectFactor(a)
    x = krylov_solve(a, b, factor, tol=1e-12)
    applied = count_applications(monkeypatch)
    counted, checked, estimates = CountingMatrix(a), [], []
    # a passing start costs the product of its true residual, nothing more
    out = krylov_solve(counted, b, factor, 1e-12, estimates.append,
                       x0=x, on_residual=checked.append)
    assert out is x and counted.products == 1
    assert estimates == [] and applied == []
    assert checked == [pytest.approx(rel_residual(a, x, b), rel=1e-12)]
    # a wrong start is caught on its true residual and solved on
    out = krylov_solve(a, b, factor, 1e-12, estimates.append, x0=x + 1e-3)
    assert len(estimates) >= 1
    assert rel_residual(a, out, b) <= 1e-12

"""L-operator blocks, coproduct tower, Casimir, centralizer, orbit evidence."""

import cmath
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import tlspin as t
from tlspin import qalg
from tlspin.linalg import flip_operator
from tlspin.qalg import GENERATOR_GRID, _left_append, l_matrix

KLS_P2_Q = -(21 + math.sqrt(377)) / 8


def kls_p2_l_literal(q=KLS_P2_Q, p=2.0):
    """Frozen 9x9 L for the antidiagonal family at p = 2 (1-indexed positions)."""
    L = np.zeros((9, 9), dtype=complex)
    L[0, 0] = q
    L[1, 3] = q
    L[2, 2] = 1
    L[2, 4] = 1 / p
    L[2, 6] = q + p ** -2
    L[3, 1] = q
    L[4, 2] = p
    L[4, 4] = q + 1
    L[4, 6] = 1 / p
    L[5, 7] = q
    L[6, 2] = q + p ** 2
    L[6, 4] = p
    L[6, 6] = 1
    L[7, 5] = q
    L[8, 8] = q
    return L


def _row(report, name):
    """The residual of the report row called name."""
    return next(c.residual for c in report.checks if c.name == name)


def aux_product_oracle(f, N):
    """T(N) as dense blocks of the auxiliary-space product L_{0N} ... L_{02} L_{01}.

    L_{0j} carries L on the auxiliary space and on chain site j, the j-th
    Kronecker factor of the chain; T(N)[a, b] is block (a, b) of the product.
    """
    n = f.n
    lm = l_matrix(f).mat
    dim = n ** N
    total = np.eye(n * dim, dtype=complex)
    for j in range(1, N + 1):
        site = np.zeros((n * dim, n * dim), dtype=complex)
        for a in range(n):
            for k in range(n):
                e_ak = np.zeros((n, n))
                e_ak[a, k] = 1.0
                block = lm[a * n:(a + 1) * n, k * n:(k + 1) * n]
                placed = np.kron(np.kron(np.eye(n ** (j - 1)), block), np.eye(n ** (N - j)))
                site += np.kron(e_ak, placed)
        total = site @ total
    return [[total[a * dim:(a + 1) * dim, b * dim:(b + 1) * dim] for b in range(n)] for a in range(n)]


def kron_matmul_tower(f, N):
    """The left-appended assembly sum_k (L[k, b] (x) I) @ (I (x) T(m-1)[a, k]), by sparse products."""
    n = f.n
    blocks = [[sp.csr_matrix(t.coproduct_T(f, 1).dense_entry(a, b)) for b in range(n)] for a in range(n)]
    grid = blocks
    for m in range(2, N + 1):
        eye = sp.identity(n ** (m - 1), format="csr")
        new_grid = []
        for a in range(n):
            row = []
            for b in range(n):
                acc = None
                for k in range(n):
                    term = sp.kron(blocks[k][b], eye, format="csr") @ sp.kron(sp.identity(n), grid[a][k], format="csr")
                    acc = term if acc is None else acc + term
                row.append(acc.tocsr())
            new_grid.append(row)
        grid = new_grid
    return grid


def right_appended_tower(f, N):
    """The right-appended recursion T(m)[a, b] = sum_k T(m-1)[k, b] (x) L[a, k], by sp.kron and CSR sums."""
    n = f.n
    blocks = [[sp.csr_matrix(t.coproduct_T(f, 1).dense_entry(a, b)) for b in range(n)] for a in range(n)]
    grid = blocks
    for _ in range(2, N + 1):
        new_grid = []
        for a in range(n):
            row = []
            for b in range(n):
                acc = None
                for k in range(n):
                    term = sp.kron(grid[k][b], blocks[a][k], format="csr")
                    acc = term if acc is None else acc + term
                row.append(acc)
            new_grid.append(row)
        grid = new_grid
    return grid


def complex_left_append(row, column):
    """The left-appending writer with complex storage: every segment staged, one gather for all rows."""
    n = column.shape[0]
    d = row[0].shape[0]
    x, y, k = np.nonzero(column.transpose(1, 2, 0))
    coef = column[k, x, y]
    parts = [row[kk] for kk in k]
    offset = np.cumsum([0] + [m.nnz for m in parts])
    data = np.empty(offset[-1], dtype=complex)
    indices = np.empty(offset[-1], dtype=row[0].indices.dtype)
    for s, m in enumerate(parts):
        np.multiply(m.data, coef[s], out=data[offset[s]:offset[s + 1]])
        np.add(m.indices, y[s] * d, out=indices[offset[s]:offset[s + 1]])
    count = np.bincount(x, minlength=n)
    row_ptr = np.concatenate(([0], np.cumsum(np.repeat(count, d))))
    out_row = np.repeat(np.arange(n * d), np.diff(row_ptr))
    seg = (np.cumsum(count) - count)[out_row // d] + np.arange(out_row.size) - row_ptr[out_row]
    i = out_row % d
    ptr = np.stack([m.indptr for m in parts])
    start = offset[seg] + ptr[seg, i]
    length = ptr[seg, i + 1] - ptr[seg, i]
    run_ptr = np.concatenate(([0], np.cumsum(length)))
    gather = np.repeat(start - run_ptr[:-1], length) + np.arange(run_ptr[-1])
    indptr = run_ptr[row_ptr].astype(indices.dtype)
    matrix = sp.csr_matrix((data[gather], indices[gather], indptr), shape=(n * d, n * d))
    matrix.sum_duplicates()
    matrix.eliminate_zeros()
    return matrix


def complex_stored_tower(f, N):
    """T(N) written by complex_left_append from the complex128 blocks of L."""
    n = f.n
    blocks = l_matrix(f).mat.astype(complex).reshape(n, n, n, n).transpose(0, 2, 1, 3)
    grid = [[sp.csr_matrix(blocks[a, b]) for b in range(n)] for a in range(n)]
    for _ in range(2, N + 1):
        for a in range(n):
            grid[a] = [complex_left_append(grid[a], blocks[:, b]) for b in range(n)]
    return grid


def gauged_kls(m):
    """kls p=2 under the congruence M b M^t: no zero entry in b, several segments on every block."""
    return t.gauge_transform(t.builtin_bform("kls", 2), np.array(m))


GAUGE = [[1.0, 0.4, -0.3], [0.2, 1.5, 0.1], [-0.5, 0.3, 2.0]]


def assert_canonical(matrix):
    """Sorted, duplicate-free column indices and no stored zeros."""
    assert matrix.has_canonical_format
    assert np.all(matrix.data != 0)


class TestLOperator:
    def test_kls_p2_matches_literal(self, kls):
        assert np.max(np.abs(l_matrix(kls).mat - kls_p2_l_literal())) <= 1e-12

    def test_xxz_is_flip_times_braid(self, xxz):
        oracle = flip_operator(2) @ t.constant_R(xxz).mat
        assert np.array_equal(l_matrix(xxz).mat, oracle)


class TestGeneratorBlocks:
    def test_lowering_blocks(self, kls):
        g = t.generator_blocks(kls)
        q = kls.q
        b1 = np.array([[0, 0, 0], [q, 0, 0], [0, 0.5, 0]], dtype=complex)
        b2 = np.array([[0, 0, 0], [0.5, 0, 0], [0, q, 0]], dtype=complex)
        assert np.max(np.abs(g["B1"] - b1)) <= 1e-12
        assert np.max(np.abs(g["B2"] - b2)) <= 1e-12

    def test_diagonal_block(self, kls):
        g = t.generator_blocks(kls)
        assert np.max(np.abs(g["A1"] - np.diag([kls.q, 0, 1]))) <= 1e-12

    def test_reassembly_round_trip(self, kls):
        for f, dtype in ((kls, np.float64), (t.builtin_bform("kls", 1.5 + 0.5j), np.complex128)):
            g = t.generator_blocks(f)
            assert np.array_equal(np.block([[g[name] for name in row] for row in GENERATOR_GRID]), l_matrix(f).mat)
            # in the dtype of L, like the tower built from them
            assert all(block.dtype == dtype for block in g.values())

    def test_wrong_dimension(self, xxz):
        with pytest.raises(t.UnsupportedDimension):
            t.generator_blocks(xxz)


class TestCoproduct:
    def test_single_site_tower_is_block_grid(self, kls):
        tower = t.coproduct_T(kls, 1)
        lm = l_matrix(kls).mat
        for a in range(3):
            for b in range(3):
                assert np.array_equal(tower.dense_entry(a, b), lm[a * 3:(a + 1) * 3, b * 3:(b + 1) * 3])

    def test_lowering_coproducts_match_block_formulas(self, kls):
        # frozen two-site expansion of each lowering entry
        g = t.generator_blocks(kls)
        tower = t.coproduct_T(kls, 2)
        expected = {
            (0, 1): np.kron(g["B1"], g["A1"]) + np.kron(g["A2"], g["B1"]) + np.kron(g["C2"], g["B3"]),
            (1, 2): np.kron(g["B3"], g["C1"]) + np.kron(g["B2"], g["A2"]) + np.kron(g["A3"], g["B2"]),
            (0, 2): np.kron(g["B3"], g["A1"]) + np.kron(g["B2"], g["B1"]) + np.kron(g["A3"], g["B3"]),
        }
        for (a, b), mat in expected.items():
            assert np.max(np.abs(tower.dense_entry(a, b) - mat)) <= 1e-12

    def test_matches_aux_product_oracle(self, kls, xxz, random_bform):
        cases = [kls, t.builtin_bform("kls", 1.5 + 0.5j), xxz, random_bform(610, 3), random_bform(611, 4)]
        # full towers of n = 2, and of b with zero entries (L graded, T(N >= 2) full)
        cases += [random_bform(612, 2), b_with_zeros(3, [(0, 0)]), b_with_zeros(8, [(0, 1), (2, 2)])]
        for f in cases:
            for N in range(1, 5):
                tower = t.coproduct_T(f, N)
                oracle = aux_product_oracle(f, N)
                scale = max(np.max(np.abs(o)) for row in oracle for o in row)
                for a in range(f.n):
                    for b in range(f.n):
                        err = np.max(np.abs(tower.dense_entry(a, b) - oracle[a][b]))
                        assert err <= 1e-12 * scale, (f.family, f.n, N, a, b)

    def test_real_families_equal_kron_matmul_exactly(self, kls, xxz):
        # each product entry is a single term L * T', so for real entries the sums agree bit for bit
        for f, n_max in ((kls, 5), (xxz, 7)):
            for N in range(2, n_max + 1):
                tower = t.coproduct_T(f, N)
                old = kron_matmul_tower(f, N)
                for a in range(f.n):
                    for b in range(f.n):
                        got = tower.entry(a, b).matrix
                        assert got.nnz == old[a][b].nnz
                        assert np.array_equal(got.toarray(), old[a][b].toarray())

    def test_graded_families_match_right_appended_recursion(self, kls, xxz):
        # one segment per block: the same pattern, and values that differ only by
        # the association of each product of N coefficients
        for f in (kls, t.builtin_bform("kls", 1.5 + 0.5j), xxz):
            for N in range(2, 8):
                tower = t.coproduct_T(f, N)
                ref = right_appended_tower(f, N)
                for a in range(f.n):
                    for b in range(f.n):
                        got, want = tower.entry(a, b).matrix, ref[a][b]
                        assert_canonical(got)
                        assert np.array_equal(got.indptr, want.indptr), (f.family, N, a, b)
                        assert np.array_equal(got.indices, want.indices), (f.family, N, a, b)
                        assert np.all(np.abs(got.data - want.data) <= 1e-15 * np.abs(want.data)), (f.family, N, a, b)

    def test_coassociativity(self, kls, xxz):
        assert t.check_coassociativity(kls).passed
        assert t.check_coassociativity(xxz).passed

    def test_budget(self, xxz):
        with pytest.raises(t.SizeBudgetExceeded):
            t.coproduct_T(xxz, 16)

    @pytest.mark.parametrize(
        "family, param, N, nnz", [("kls", 2, 9, 5859375), ("kls", 1.5 + 0.5j, 7, 234375), ("xxz", 3, 12, 32768)]
    )
    def test_nonzero_bound_is_exact_on_the_graded_families(self, monkeypatch, family, param, N, nnz):
        f = t.builtin_bform(family, param)
        monkeypatch.setattr(qalg, "TOWER_NNZ_BUDGET", nnz - 1)
        with pytest.raises(t.SizeBudgetExceeded, match=f"up to {nnz} nonzeros"):
            t.coproduct_T(f, N)
        monkeypatch.setattr(qalg, "TOWER_NNZ_BUDGET", nnz)
        tower = t.coproduct_T(f, N)
        assert sum(op.matrix.nnz for row in tower.entries for op in row) == nnz


def _congruent_kls_diag():
    """kls p=2 under D b D: the support of kls b, so a graded tower."""
    return t.gauge_transform(t.builtin_bform("kls", 2), np.diag([1.0, 1.3, 0.7]))


def dense_random_bform(seed, n):
    rng = np.random.default_rng(seed)
    return t.make_bform(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))


# D b D keeps the support of kls b, one segment per block; a dense random b puts
# several segments on each block, and their sums take the duplicate-column path
TOWER_BFORMS = st.one_of(
    st.builds(
        lambda p, d1, d2: t.gauge_transform(t.builtin_bform("kls", p), np.diag([1.0, d1, d2])),
        st.floats(1.1, 3.0),
        st.floats(0.5, 2.0),
        st.floats(0.5, 2.0),
    ),
    st.builds(dense_random_bform, st.integers(0, 2 ** 32 - 1), st.sampled_from([3, 4])),
)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(f=TOWER_BFORMS, N=st.integers(2, 4))
def test_tower_matches_right_appended_recursion(f, N):
    N = min(N, 7 - f.n)
    tower = t.coproduct_T(f, N)
    ref = right_appended_tower(f, N)
    scale = max(abs(ref[a][b]).max() for a in range(f.n) for b in range(f.n))
    for a in range(f.n):
        for b in range(f.n):
            got = tower.entry(a, b).matrix
            assert_canonical(got)
            assert abs(got - ref[a][b]).max() <= 1e-13 * scale


def complex_twin(f):
    """f with b, b^{-1}, tau and q stored as complex: its tower is stored complex128."""
    return t.BForm(n=f.n, b=f.b.astype(complex), b_inv=f.b_inv.astype(complex), tau=complex(f.tau), q=complex(f.q))


def bound_fills(f, N):
    """Whether S(N) = min(S(N-1) S(1), n^(2N)), S(1) the nonzero counts of L's blocks, fills every entry."""
    n = f.n
    counts = bound = np.count_nonzero(l_matrix(f).mat.reshape(n, n, n, n), axis=(1, 3))
    for m in range(2, N + 1):
        bound = np.minimum(bound @ counts, n ** (2 * m))
    return bool((bound == n ** (2 * N)).all())


def assert_bits_match_writer(f, N, tower):
    """Every entry has the pattern of complex_stored_tower, and its data are that tower's bit for bit."""
    ref = complex_stored_tower(f, N)
    for a in range(f.n):
        for b in range(f.n):
            got, want = tower.entry(a, b).matrix, ref[a][b]
            assert_canonical(got)
            assert np.array_equal(got.indptr, want.indptr), (f.family, N, a, b)
            assert np.array_equal(got.indices, want.indices), (f.family, N, a, b)
            if got.dtype == np.float64:
                assert not want.data.imag.any()
                want = want.real
            assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64)), (f.family, N, a, b)


def assert_close_to_writer(f, N, tower):
    """Every entry is canonical and within 1e-15 of complex_stored_tower, relative to its largest entry."""
    ref = complex_stored_tower(f, N)
    scale = max(abs(m).max() for row in ref for m in row)
    for a in range(f.n):
        for b in range(f.n):
            got = tower.entry(a, b).matrix
            assert_canonical(got)
            assert abs(got - ref[a][b]).max() <= 1e-15 * scale, (N, a, b)


class TestTowerStorage:
    """The tower is stored in the dtype of L; graded towers have the arrays of the complex-stored writer."""

    def test_real_l_stores_float64(self, kls, xxz):
        # real q, b and b^{-1}: a graded tower (kls, xxz; one segment per
        # block) holds the real parts of the complex-stored writer's tower bit
        # for bit; a full one (a dense real b) is the real part of the tower
        # of its complex twin bit for bit, and the writer's within rounding
        for f, N_max in ((kls, 7), (xxz, 7), (gauged_kls(GAUGE), 4)):
            for N in range(1, N_max + 1):
                tower = t.coproduct_T(f, N)
                assert all(op.matrix.dtype == np.float64 for row in tower.entries for op in row)
                if not bound_fills(f, N):
                    assert_bits_match_writer(f, N, tower)
                    continue
                assert_close_to_writer(f, N, tower)
                twin = t.coproduct_T(complex_twin(f), N)
                for a in range(f.n):
                    for b in range(f.n):
                        got, want = tower.entry(a, b).matrix, twin.entry(a, b).matrix
                        assert want.dtype == np.complex128 and not want.data.imag.any()
                        assert np.array_equal(got.indptr, want.indptr), (N, a, b)
                        assert np.array_equal(got.indices, want.indices), (N, a, b)
                        assert np.array_equal(got.data.view(np.int64), want.data.real.view(np.int64)), (N, a, b)

    def test_complex_l_keeps_complex128(self):
        cases = [(t.builtin_bform("kls", 1.5 + 0.5j), 6), (gauged_kls(np.array(GAUGE) + 0.3j * np.eye(3)), 4)]
        for f, N_max in cases:
            for N in range(1, N_max + 1):
                tower = t.coproduct_T(f, N)
                assert all(op.matrix.dtype == np.complex128 for row in tower.entries for op in row)
                if bound_fills(f, N):
                    assert_close_to_writer(f, N, tower)
                else:
                    assert_bits_match_writer(f, N, tower)

    def test_casimir_of_three_site_tower_unchanged(self, kls):
        # real b and the float64 tower against complex b and the complex-stored
        # tower: the same rows, and c2 within rounding
        twin = complex_twin(kls)
        ref = complex_stored_tower(kls, 3)
        entries = tuple(tuple(t.ChainOp(n=3, N=3, matrix=m) for m in row) for row in ref)
        want = t.casimir(twin, aux=t.AuxOperatorMatrix(n_a=3, N=3, entries=entries))
        got = t.casimir(kls, aux=t.coproduct_T(kls, 3))
        assert abs(got.c2 - want.c2) <= 1e-14 * abs(want.c2)
        assert [c.name for c in got.report.checks] == [c.name for c in want.report.checks]
        assert got.report.passed and want.report.passed

    @pytest.mark.parametrize("segments", [1, 2])
    def test_exact_zeros_are_dropped(self, segments):
        # one segment per block row: 1e-200 * 1e-200 underflows to 0.0; two
        # segments on one block: equal rows with opposite signs cancel
        row = [sp.csr_matrix(np.array([[1e-200, 1.0], [0.0, 2.0]])) for _ in range(2)]
        column = np.zeros((2, 2, 2))
        column[0, 0, 0] = 1e-200
        column[1, 1, 1] = 1.0
        if segments == 2:
            column[0, 0, 0], column[1, 0, 0] = 1.0, -1.0
        got = _left_append(row, column)
        want = sum(np.kron(column[k], row[k].toarray()) for k in range(2))
        assert_canonical(got)
        assert np.array_equal(got.toarray(), want)
        assert got.nnz == np.count_nonzero(want)


def b_with_zeros(seed, zeros):
    """A random complex 3 x 3 b with the given entries set to zero: L has zeros, but S(N) fills from N = 2."""
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    for i, j in zeros:
        b[i, j] = 0
    return t.make_bform(b)


class TestFullTower:
    def cases(self, kls, xxz):
        graded = [(kls, 5), (xxz, 7), (t.builtin_bform("kls", 1.5 + 0.5j), 4), (_congruent_kls_diag(), 4)]
        full = [(gauged_kls(GAUGE), 4), (dense_random_bform(5, 4), 3), (dense_random_bform(6, 2), 6)]
        return graded + full + [(b_with_zeros(3, [(0, 0)]), 4)]

    def test_taken_exactly_when_the_bound_fills(self, kls, xxz):
        seen = set()
        for f, N_max in self.cases(kls, xxz):
            for N in range(1, N_max + 1):
                full = bound_fills(f, N)
                seen.add(full)
                grid = qalg._tower(f, N)
                assert isinstance(grid, np.ndarray) == full, (f.family, f.n, N)
                if full:
                    assert grid.shape == (f.n, f.n, f.n ** N, f.n ** N)
                    assert grid.dtype == l_matrix(f).mat.dtype
                else:
                    assert all(isinstance(m, sp.csr_matrix) for row in grid for m in row)
        assert seen == {False, True}
        # L has a zero, so T(1) is graded, yet the bound fills from two sites on
        f = b_with_zeros(3, [(0, 0)])
        assert not bound_fills(f, 1) and bound_fills(f, 2)

    def test_entries_are_canonical_csr_in_the_dtype_of_l(self, kls, xxz):
        # gauged kls is real, the random and zero-entry b complex
        for f, N_max in self.cases(kls, xxz):
            for N in range(1, N_max + 1):
                if not bound_fills(f, N):
                    continue
                grid = qalg._tower(f, N)
                tower = t.coproduct_T(f, N)
                for a in range(f.n):
                    for b in range(f.n):
                        got = tower.entry(a, b).matrix
                        assert_canonical(got)
                        assert got.dtype == l_matrix(f).mat.dtype == grid.dtype
                        assert got.indices.dtype == got.indptr.dtype == np.int32
                        assert np.array_equal(got.toarray(), grid[a, b])
                        assert got.nnz == np.count_nonzero(grid[a, b])

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (9, 9), (81, 81)])
    def test_csr_helper_has_the_arrays_of_scipy(self, shape, dtype):
        rng = np.random.default_rng(shape[0])
        for fill in (0.0, 0.4, 1.0):
            a = (rng.normal(size=shape) * (rng.random(shape) < fill)).astype(dtype)
            got, want = qalg._csr(a), sp.csr_matrix(a)
            assert got.shape == want.shape
            for name in ("data", "indices", "indptr"):
                x, y = getattr(got, name), getattr(want, name)
                assert x.dtype == y.dtype and np.array_equal(x, y), name
            assert_canonical(got)


class TestCentralizer:
    def test_kls_two_and_three_sites(self, kls):
        for N in (2, 3):
            report = t.check_centralizer(kls, N)
            assert report.passed
            assert report.max_residual <= 1e-8

    def test_xxz_four_sites(self, xxz):
        report = t.check_centralizer(xxz, 4)
        assert report.passed

    def test_report_covers_all_entries(self, kls):
        report = t.check_centralizer(kls, 3)
        # (N-1) braid generators x 9 entries + 9 Hamiltonian entries
        assert len(report.checks) == 2 * 9 + 9

    @pytest.mark.parametrize("model, N", [("gauged kls", 3), ("gauged kls", 4), ("random n=4", 3)])
    def test_dense_b_matches_spgemm_reference(self, model, N):
        # full towers: dense entries times the sparse R_k and H, against the
        # CSR writer's entries and one SpGEMM pair per entry
        f = gauged_kls(GAUGE) if model == "gauged kls" else dense_random_bform(611, 4)
        assert bound_fills(f, N)
        report = t.check_centralizer(f, N)
        tower = complex_stored_tower(f, N)
        tower_scale = max(abs(m).max() for row in tower for m in row)
        ops = [(f"R{k}", t.embed(t.constant_R(f), k, N).matrix) for k in range(1, N)]
        ops.append(("H", t.hamiltonian(f, N).matrix))
        want = []
        for name, op in ops:
            for a in range(f.n):
                for b in range(f.n):
                    comm = op @ tower[a][b] - tower[a][b] @ op
                    residual = abs(comm).max() / (abs(op).max() * tower_scale)
                    want.append((f"centralizer_{name}_T[{a + 1},{b + 1}]", residual))
        assert [c.name for c in report.checks] == [name for name, _ in want]
        assert report.passed
        for check, (_, residual) in zip(report.checks, want):
            assert abs(check.residual - residual) <= 1e-15, check.name


def loop_casimir_grid(f, aux):
    """The contraction C[a, b] = sum_{j,k,l} b_inv[a, j] b[k, l] aux[j, k] @ aux[b, l], entry by entry.

    Also returns the largest entry of any one summand, the scale of its rounding.
    """
    n = f.n
    blocks = [[aux.dense_entry(a, b) for b in range(n)] for a in range(n)]
    dim = blocks[0][0].shape[0]
    out = np.zeros((n, n, dim, dim), dtype=complex)
    largest = 0.0
    for a in range(n):
        for b_ in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        term = f.b_inv[a, j] * f.b[k, l] * (blocks[j][k] @ blocks[b_][l])
                        out[a, b_] += term
                        largest = max(largest, np.max(np.abs(term)))
    return out, largest


CASIMIR_MODELS = {
    "kls 2": lambda: t.builtin_bform("kls", 2),
    "kls 1.5+0.5j": lambda: t.builtin_bform("kls", 1.5 + 0.5j),
    "xxz 3": lambda: t.builtin_bform("xxz", 3),
    "xxz 2+1j": lambda: t.builtin_bform("xxz", 2 + 1j),
    "gauged kls 2": lambda: gauged_kls(GAUGE),
}


class TestCasimir:
    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("model", list(CASIMIR_MODELS))
    def test_block_product_matches_entrywise_loop(self, model, N):
        f = CASIMIR_MODELS[model]()
        aux = t.coproduct_T(f, N)
        ref, largest_term = loop_casimir_grid(f, aux)
        grid = qalg._casimir_grid(f, aux)
        assert grid.shape == ref.shape
        # relative to the summands: the sum cancels down to c2 I (by about 600x
        # for the gauged kls at T(3)), so both sides round at the summands' scale
        assert np.max(np.abs(grid - ref)) <= 1e-13 * largest_term
        c2_ref = qalg._scalar_casimir(f, ref).c2
        assert abs(t.casimir(f, aux=aux).c2 - c2_ref) <= 2e-14 * abs(c2_ref)

    @pytest.mark.parametrize("p", [2, 1.5 + 0.5j, 3, 0.3])
    def test_combination_is_the_hand_formula(self, p):
        # b^{-1}[1, j] is nonzero only at j = 3 and b only on the antidiagonal
        f = t.builtin_bform("kls", p)
        assert f.b[0, 2] == p
        g = t.generator_blocks(f)
        hand = p * ((1 / p) * g["A3"] @ g["A1"] + g["C2"] @ g["B1"] + p * g["C3"] @ g["B3"])
        entry = qalg._casimir_grid(f, t.coproduct_T(f, 1))[0, 0]
        assert np.max(np.abs(entry - hand)) <= 1e-13 * np.max(np.abs(hand))
        report = t.casimir_combination(f)
        assert [c.name for c in report.checks] == ["casimir_combination"]
        assert report.passed and report.max_residual <= 1e-13

    @pytest.mark.xfail(
        strict=True,
        raises=t.ConventionMismatch,
        reason="ROADMAP item 4 and its FOUND line in CHANGES.md: in float64 the T(2) contraction "
        "at kls p = 20 misses a scalar by 4.2e-8, above PRODUCT_TOL",
    )
    def test_grouplike_at_large_p(self):
        _, _, report = t.casimir_grouplike(t.builtin_bform("kls", 20))
        assert report.passed

    def test_kls_scalar_is_q(self, kls):
        res = t.casimir(kls)
        assert abs(res.c2 - kls.q) <= 1e-8 * abs(kls.q)
        assert res.report.passed

    def test_explicit_combination(self, kls):
        assert t.casimir_combination(kls).passed

    def test_grouplike_contracts_each_tower_once(self, kls, monkeypatch):
        # the one-site rows, casimir_combination among them, share one contraction
        towers = []
        contract = qalg._casimir_grid
        monkeypatch.setattr(qalg, "_casimir_grid", lambda f, aux: towers.append(aux.N) or contract(f, aux))
        _, _, report = t.casimir_grouplike(kls)
        assert towers == [1, 2]
        names = ["casimir_scalar", "casimir_value_q", "casimir_grouplike", "casimir_combination"]
        assert [c.name for c in report.checks] == names
        assert report.checks[0] == t.casimir(kls).report.checks[0]
        assert report.checks[-1] == t.casimir_combination(kls).checks[0]

    def test_group_like_on_two_sites(self, kls):
        base = t.casimir(kls)
        two = t.casimir(kls, aux=t.coproduct_T(kls, 2))
        assert abs(two.c2 - base.c2 ** 2) <= 1e-8 * abs(base.c2) ** 2

    def test_xxz_scalar(self, xxz):
        res = t.casimir(xxz)
        assert res.report.passed

    def test_generic_b_scalar_only(self, random_bform):
        for seed in range(5):
            f = random_bform(900 + seed, 2 + seed % 2)
            res = t.casimir(f)
            assert res.report.checks[0].passed

    def test_non_scalar_grid_fails_loudly(self, kls):
        tower = t.coproduct_T(kls, 2)
        assert t.casimir(kls, aux=tower).report.passed
        rows = [list(row) for row in tower.entries]
        entry = rows[0][1]
        rows[0][1] = t.ChainOp(entry.n, entry.N, (entry.matrix + 0.1 * sp.identity(9, format="csr")).tocsr())
        perturbed = t.AuxOperatorMatrix(n_a=3, N=2, entries=tuple(tuple(row) for row in rows))
        with pytest.raises(t.ConventionMismatch, match="relative misfit"):
            t.casimir(kls, aux=perturbed)

    def test_combination_requires_family(self, xxz):
        with pytest.raises(t.UnsupportedDimension):
            t.casimir_combination(xxz)


class TestExchangeRelation:
    def test_builtin_families(self, kls, xxz):
        assert t.check_rll(kls).max_residual <= 1e-8
        assert t.check_rll(xxz).max_residual <= 1e-8

    def test_random_b(self, random_bform):
        for seed in range(5):
            assert t.check_rll(random_bform(700 + seed, 3)).passed


class TestHighestWeightScan:
    def test_orbit_rank(self, kls):
        report = t.highest_weight_scan(kls)
        assert _row(report, "orbit_rank_8") == 0.0
        assert report.passed

    def test_line_eigenvalue(self, kls):
        assert _row(t.highest_weight_scan(kls), "invariant_line_eigenvalue") <= 1e-12

    def test_terminal_vector(self, kls):
        # four lowerings of the reference vector align with e3 (x) e3
        assert _row(t.highest_weight_scan(kls), "lowering_terminates_on_e3e3") <= 1e-10

    def test_other_p(self):
        f = t.builtin_bform("kls", 3)
        assert _row(t.highest_weight_scan(f), "orbit_rank_8") == 0.0

    def test_requires_family(self, xxz):
        with pytest.raises(t.UnsupportedDimension):
            t.highest_weight_scan(xxz)


# p ranges over 0.05 <= |p| <= 50, where the lowered vectors grow like p^k
ORBIT_P = st.one_of(
    st.floats(0.05, 50),
    st.builds(lambda r, phi: r * cmath.exp(1j * phi), st.floats(0.05, 50), st.floats(0, 2 * math.pi)),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(p=ORBIT_P)
def test_orbit_rank_is_eight_for_small_and_large_p(p):
    try:
        f = t.builtin_bform("kls", p)
    except t.DegenerateParameter:
        reject()  # |p| = 1 makes tau real, in [-1, 3], which can put q on the unit circle
    assert _row(t.highest_weight_scan(f), "orbit_rank_8") == 0.0


class TestProjectorInvariance:
    def test_rank_one_image_stable(self, kls, xxz):
        assert t.check_pminus_invariance(kls).passed
        assert t.check_pminus_invariance(xxz).passed

    def test_rejects_a_tower_entry_that_moves_the_line(self, kls, monkeypatch):
        # T(2)[1,1] + eps e_1 vec(b)^H sends vec(b) off its line: for kls
        # b[0, 0] = 0, so e_1 lies off the line, and b_inv[0, 0] = 0, so I - P- keeps e_1
        tower = t.coproduct_T(kls, 2)
        entries = [list(row) for row in tower.entries]
        kick = 1e-6 * np.outer(np.eye(9)[0], kls.b.ravel().conj())
        entries[0][0] = t.ChainOp(n=3, N=2, matrix=sp.csr_matrix(tower.dense_entry(0, 0) + kick), label="moved")
        moved = t.AuxOperatorMatrix(n_a=3, N=2, entries=tuple(tuple(row) for row in entries))
        monkeypatch.setattr(qalg, "coproduct_T", lambda f, N: moved)
        report = t.check_pminus_invariance(kls)
        assert report.checks[0].name == "pminus_image_stable"
        assert report.checks[0].residual > 1e-8
        assert not report.passed

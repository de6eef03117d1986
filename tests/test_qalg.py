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
from tlspin.cli import run_verify_suite
from tlspin.linalg import flip_operator, max_abs, scaled
from tlspin.qalg import GENERATOR_GRID, _block, _left_append, l_matrix

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


def block_diagonal_bform(top_right=2.0):
    """b = 2 x 2 (+) 1 x 1: neither graded nor full, so blocks of L hold two segments and S(N) never fills."""
    return t.make_bform(np.array([[1.0, top_right, 0], [0.5, -1.0, 0], [0, 0, 1.7]]))


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


# D b D keeps the support of kls b, one segment per block, so its tower is written
# as CSR; a dense random b fills its tower, which is contracted densely
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
        for f, N_max in ((kls, 7), (xxz, 7), (gauged_kls(GAUGE), 4), (block_diagonal_bform(), 5)):
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
        cases.append((block_diagonal_bform(2.0j), 5))
        for f, N_max in cases:
            for N in range(1, N_max + 1):
                tower = t.coproduct_T(f, N)
                assert all(op.matrix.dtype == np.complex128 for row in tower.entries for op in row)
                if bound_fills(f, N):
                    assert_close_to_writer(f, N, tower)
                else:
                    assert_bits_match_writer(f, N, tower)

    def test_block_diagonal_b_sums_several_segments(self, monkeypatch):
        # the two storage tests above hold its tower to the complex-stored writer
        # bit for bit; here it is neither graded nor full
        segments = []
        monkeypatch.setattr(qalg, "_block", lambda terms, empty: segments.append(len(terms)) or _block(terms, empty))
        for top_right in (2.0, 2.0j):
            f = block_diagonal_bform(top_right)
            for N in range(1, 6):
                assert not bound_fills(f, N)
                t.coproduct_T(f, N)
        assert set(segments) == {0, 1, 2}

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


class TestLeftAppend:
    """One compiled hstack per block row, against the Kronecker sum it writes."""

    @staticmethod
    def inputs(seed, column_dtype, empty_part):
        # d = 4 rows, row[1] with an empty row and, if empty_part, row[2]
        # storing nothing; column: block (0, 0) three segments, (0, 1) one,
        # (0, 2) none, block row 1 no segment at all, block row 2 two, one and
        # three segments
        rng = np.random.default_rng(seed)
        dense = [rng.normal(size=(4, 4)) * (rng.random((4, 4)) < 0.8) for _ in range(3)]
        dense[1][2] = 0
        if empty_part:
            dense[2][:] = 0
        row = [sp.csr_matrix(m) for m in dense]
        column = np.zeros((3, 3, 3), dtype=column_dtype)
        for k, x, y in [(0, 0, 0), (1, 0, 0), (2, 0, 0), (1, 0, 1), (0, 2, 0), (2, 2, 0), (1, 2, 1),
                        (0, 2, 2), (1, 2, 2), (2, 2, 2)]:
            column[k, x, y] = rng.normal() + (1j * rng.normal() if column_dtype == complex else 0)
        return row, column

    @pytest.mark.parametrize("empty_part", [False, True])
    @pytest.mark.parametrize("column_dtype", [float, complex])
    @pytest.mark.parametrize("seed", range(4))
    def test_bits_match_the_kron_sum(self, seed, column_dtype, empty_part):
        # float64 rows; summed in k order, as the Kronecker sum is
        row, column = self.inputs(seed, column_dtype, empty_part)
        got = _left_append(row, column)
        want = sp.csr_matrix(sum(np.kron(column[k], row[k].toarray()) for k in range(3)))
        assert got.shape == want.shape == (12, 12)
        assert got.dtype == want.dtype == np.dtype(column_dtype)
        assert got.indices.dtype == got.indptr.dtype == np.int32
        assert_canonical(got)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()
        # block row 1 holds no segment
        assert got.indptr[4] == got.indptr[8]

    def test_private_hstack_kernel_writes_a_small_graded_tower(self, kls):
        # csr_hstack is private to scipy and loads with the first graded tower,
        # not with tlspin: a scipy without it must fail here
        from scipy.sparse._sparsetools import csr_hstack

        assert callable(csr_hstack)
        tower = t.coproduct_T(kls, 3)
        want = aux_product_oracle(kls, 3)
        scale = max(np.abs(w).max() for row in want for w in row)
        for a in range(3):
            for b in range(3):
                got = tower.entry(a, b).matrix
                assert_canonical(got)
                assert np.abs(got.toarray() - want[a][b]).max() <= 1e-12 * scale


def random_csr(rng, dtype, density=0.3, dim=12):
    """A random dim x dim canonical CSR matrix of the given dtype."""
    dense = rng.normal(size=(dim, dim)) * (rng.random((dim, dim)) < density)
    if dtype == complex:
        dense = dense + 1j * rng.normal(size=dense.shape) * (dense != 0)
    return sp.csr_matrix(dense)


@pytest.mark.parametrize("dtypes", [(float, float), (complex, complex), (float, complex)])
def test_private_product_and_sum_kernels_match_scipy_operators(dtypes):
    # every scipy.sparse._sparsetools kernel tlspin calls is private to scipy and
    # loads with the first chain-sized call, not with tlspin: a scipy without
    # one must fail here.  _Csr's @, - and + match scipy's byte for byte, on
    # canonical operands and on unsorted SpGEMM outputs
    from scipy.sparse._sparsetools import csr_hstack, csr_matmat, csr_matmat_maxnnz, csr_minus_csr, csr_plus_csr
    from tlspin.linalg import _Csr, max_abs

    assert all(map(callable, (csr_hstack, csr_matmat, csr_matmat_maxnnz, csr_minus_csr, csr_plus_csr)))
    rng = np.random.default_rng(32)
    unsorted = 0
    for _ in range(6):
        a, b = (random_csr(rng, dtype) for dtype in dtypes)
        ab, ba = a @ b, b @ a
        unsorted += not (ab.has_sorted_indices and ba.has_sorted_indices)
        ca, cb = _Csr.of(a), _Csr.of(b)
        raw_ab, raw_ba = ca @ cb, cb @ ca
        total = raw_ab
        total += raw_ba  # a tuple has no __iadd__: this rebinds through _Csr.__add__
        cases = [
            (raw_ab, ab),
            (raw_ab - raw_ba, ab - ba),
            (raw_ab + ca, ab + a),
            (ca - ca, a - a),  # every entry cancels
            (ca @ _Csr.of(sp.csr_matrix(a.shape)), a @ sp.csr_matrix(a.shape)),
            (total, ab + ba),
        ]
        for got, want in cases:
            assert isinstance(got, _Csr)
            for x, y in zip(got, (want.indptr, want.indices, want.data), strict=True):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
            assert max_abs(got) == max_abs(want)
    assert unsorted


def b_with_zeros(seed, zeros):
    """A random complex 3 x 3 b with the given entries set to zero: L has zeros, but S(N) fills from N = 2."""
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    for i, j in zeros:
        b[i, j] = 0
    return t.make_bform(b)


def one_shot_dense_tower(f, N):
    """A full T(N) as one (n, n, n^N, n^N) array, each level one einsum over the whole grid."""
    n = f.n
    blocks = l_matrix(f).mat.reshape(n, n, n, n).transpose(0, 2, 1, 3)
    tower = blocks
    for _ in range(2, N + 1):
        d = n * tower.shape[2]
        tower = np.einsum("kbxy,akij->abxiyj", blocks, tower, order="C").reshape(n, n, d, d)
    return tower


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
                rows = list(qalg._tower(f, N))
                assert len(rows) == f.n
                for row in rows:
                    assert isinstance(row, np.ndarray) == full, (f.family, f.n, N)
                    if full:
                        assert row.shape == (f.n, f.n ** N, f.n ** N)
                        assert row.dtype == l_matrix(f).mat.dtype
                    else:
                        assert len(row) == f.n and all(isinstance(m, sp.csr_matrix) for m in row)
        assert seen == {False, True}
        # L has a zero, so T(1) is graded, yet the bound fills from two sites on
        f = b_with_zeros(3, [(0, 0)])
        assert not bound_fills(f, 1) and bound_fills(f, 2)

    def test_entries_are_canonical_csr_in_the_dtype_of_l(self, kls, xxz):
        # gauged kls is real, the random and zero-entry b complex; each row is
        # carried up the levels on its own, bit for bit the one-shot contraction
        for f, N_max in self.cases(kls, xxz):
            for N in range(1, N_max + 1):
                if not bound_fills(f, N):
                    continue
                grid = one_shot_dense_tower(f, N)
                rows = np.stack(list(qalg._tower(f, N)))
                assert rows.dtype == grid.dtype and rows.tobytes() == grid.tobytes(), (f.family, f.n, N)
                tower = t.coproduct_T(f, N)
                for a in range(f.n):
                    for b in range(f.n):
                        got, want = tower.entry(a, b).matrix, sp.csr_matrix(grid[a, b])
                        assert_canonical(got)
                        assert got.dtype == l_matrix(f).mat.dtype == grid.dtype
                        assert got.indices.dtype == got.indptr.dtype == np.int32
                        assert np.array_equal(got.indptr, want.indptr)
                        assert np.array_equal(got.indices, want.indices)
                        assert got.data.tobytes() == want.data.tobytes()

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


CENTRALIZER_MODELS = {
    "gauged kls": lambda: gauged_kls(GAUGE),
    "random n=4": lambda: dense_random_bform(611, 4),
    "kls 2": lambda: t.builtin_bform("kls", 2),
    "kls 1.5+0.5j": lambda: t.builtin_bform("kls", 1.5 + 0.5j),
    "xxz 3": lambda: t.builtin_bform("xxz", 3),
    "xxz 2+1j": lambda: t.builtin_bform("xxz", 2 + 1j),
}


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

    @pytest.mark.parametrize("model, N", [
        ("gauged kls", 3), ("gauged kls", 4), ("random n=4", 3),
        ("kls 2", 4), ("kls 2", 5), ("kls 1.5+0.5j", 4), ("kls 1.5+0.5j", 5),
        ("xxz 3", 7), ("xxz 3", 8), ("xxz 2+1j", 7), ("xxz 2+1j", 8),
    ])
    def test_dense_b_matches_spgemm_reference(self, model, N):
        # full towers, graded towers on both sides of DENSE_CENTRALIZER_DIM, and
        # the R_k and H of the chain in one SpGEMM pair per entry of coproduct_T
        f = CENTRALIZER_MODELS[model]()
        assert bound_fills(f, N) == model.startswith(("gauged", "random"))
        report = t.check_centralizer(f, N)
        tower = [[op.matrix for op in row] for row in t.coproduct_T(f, N).entries]
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

    @pytest.mark.parametrize("model, N", [("kls 2", 6), ("kls 1.5+0.5j", 5), ("xxz 3", 8), ("xxz 2+1j", 8)])
    def test_csr_path_rows_equal_scipy_operators_bit_for_bit(self, model, N):
        # the raw-kernel commutators and their sum are scipy's x @ t - t @ x and
        # total + comm on the same _tower rows and the same placed bonds
        f = CENTRALIZER_MODELS[model]()
        assert f.n ** N > qalg.DENSE_CENTRALIZER_DIM and not bound_fills(f, N)
        xs = [t.embed(t.local_X(f), k, N).matrix for k in range(1, N)]
        raw = np.empty((N, f.n, f.n))
        tower_scale = 0.0
        for a, row in enumerate(qalg._tower(f, N)):
            for b, entry in enumerate(row):
                tower_scale = max(tower_scale, max_abs(entry))
                total = None
                for k, x in enumerate(xs):
                    comm = x @ entry - entry @ x
                    raw[k, a, b] = max_abs(comm)
                    total = comm if total is None else total + comm
                raw[N - 1, a, b] = max_abs(total)
        scales = [max_abs(t.constant_R(f).mat) * tower_scale] * (N - 1) + [max_abs(sum(xs[1:], xs[0])) * tower_scale]
        want = [
            (f"centralizer_{name}_T[{a + 1},{b + 1}]", scaled(raw[i, a, b], scale))
            for i, (name, scale) in enumerate(zip([f"R{k}" for k in range(1, N)] + ["H"], scales))
            for a in range(f.n)
            for b in range(f.n)
        ]
        assert [(c.name, c.residual) for c in t.check_centralizer(f, N).checks] == want

    @pytest.mark.parametrize("model, N", [("gauged kls", 5), ("kls 2", 4), ("kls 2", 5), ("xxz 2+1j", 8)])
    def test_an_entry_that_does_not_commute_fails_its_rows(self, model, N, monkeypatch):
        # full dense, small dense and CSR paths: the largest value of T(N)[2,1] on
        # a state that X_1 moves changes sign, so T(N)[2,1] no longer commutes
        # with X_1; T(2), which the Casimir rows read, is left alone.  The whole
        # verify suite still reports every row, and only that entry's fail
        f = CENTRALIZER_MODELS[model]()
        moved = np.asarray(abs(t.embed(t.local_X(f), 1, N).matrix).sum(axis=0)).ravel() != 0
        tower = qalg._tower

        def broken(f, sites, dense=False):
            for a, row in enumerate(tower(f, sites, dense)):
                if a == 1 and sites == N:
                    entry = row[0]
                    if isinstance(entry, np.ndarray):
                        values = entry.reshape(-1)
                        on_moved = np.repeat(moved, entry.shape[1])
                    else:
                        values = entry.data
                        on_moved = moved[np.repeat(np.arange(entry.shape[0]), np.diff(entry.indptr))]
                    at = np.argmax(np.where(on_moved, abs(values), 0))
                    assert values[at] != 0
                    values[at] *= -1
                yield row

        names = [c.name for c in run_verify_suite(f, N, 42).checks]
        monkeypatch.setattr(qalg, "_tower", broken)
        report = run_verify_suite(f, N, 42)
        failing = {c.name for c in report.failing()}
        assert [c.name for c in report.checks] == names
        assert {"centralizer_R1_T[2,1]", "centralizer_H_T[2,1]"} <= failing
        assert all(name.startswith("centralizer_") and name.endswith("_T[2,1]") for name in failing)

    @pytest.mark.parametrize("model", list(CENTRALIZER_MODELS))
    def test_hamiltonian_scale_is_the_chain_operators(self, model, monkeypatch):
        # full dense, small dense and CSR paths: each H row is its raw commutator
        # scaled by max_abs of chain.hamiltonian times the tower scale, bit for bit
        f = CENTRALIZER_MODELS[model]()
        largest_N = {"gauged kls": 5, "random n=4": 4}.get(model, 6 if f.n == 3 else 8)
        raw = []
        monkeypatch.setattr(qalg, "scaled", lambda num, scale: raw.append(num) or scaled(num, scale))
        for N in range(2, largest_N + 1):
            raw.clear()
            rows = t.check_centralizer(f, N).checks[-f.n ** 2:]
            tower_scale = max(max_abs(op.matrix) for row in t.coproduct_T(f, N).entries for op in row)
            scale = max_abs(t.hamiltonian(f, N).matrix) * tower_scale
            names = [f"centralizer_H_T[{a + 1},{b + 1}]" for a in range(f.n) for b in range(f.n)]
            want = [(name, scaled(x, scale)) for name, x in zip(names, raw[-f.n ** 2:])]
            assert [(c.name, c.residual) for c in rows] == want, N


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


def combination_row(f):
    """The ``casimir_combination`` row of ``casimir_grouplike``."""
    _, _, report = t.casimir_grouplike(f)
    return next(c for c in report.checks if c.name == "casimir_combination")


class TestCasimir:
    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("model", list(CASIMIR_MODELS))
    def test_block_product_matches_entrywise_loop(self, model, N):
        f = CASIMIR_MODELS[model]()
        aux = t.coproduct_T(f, N)
        ref, largest_term = loop_casimir_grid(f, aux)
        grid = qalg._casimir_grid(f, np.array([[aux.dense_entry(a, b) for b in range(f.n)] for a in range(f.n)]))
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
        entry = qalg._casimir_grid(f, qalg._l_blocks(f))[0, 0]
        assert np.max(np.abs(entry - hand)) <= 1e-13 * np.max(np.abs(hand))
        row = combination_row(f)
        assert row.passed and row.residual <= 1e-13

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 7 and its FOUND line in CHANGES.md: in float64 the T(2) contraction "
        "at kls p = 20 misses c2^2 delta_ab I by 4.2e-8, above PRODUCT_TOL",
    )
    def test_grouplike_at_large_p(self):
        _, _, report = t.casimir_grouplike(t.builtin_bform("kls", 20))
        assert report.passed

    @pytest.mark.parametrize("model", [*CASIMIR_MODELS, "random n=3"])
    def test_one_site_contraction_is_the_one_site_tower(self, model):
        # casimir(f) contracts L's own blocks; the CSR tower T(1) densifies to them
        f = dense_random_bform(613, 3) if model == "random n=3" else CASIMIR_MODELS[model]()
        got, want = t.casimir(f), t.casimir(f, aux=t.coproduct_T(f, 1))
        assert got.c2 == want.c2
        assert got.report.checks == want.report.checks

    def test_kls_scalar_is_q(self, kls):
        res = t.casimir(kls)
        assert abs(res.c2 - kls.q) <= 1e-8 * abs(kls.q)
        assert res.report.passed

    def test_explicit_combination(self, kls):
        assert combination_row(kls).passed

    def test_grouplike_contracts_each_tower_once(self, kls, monkeypatch):
        # the one-site rows, casimir_combination among them, share one contraction
        towers = []
        contract = qalg._casimir_grid
        monkeypatch.setattr(qalg, "_casimir_grid", lambda f, g: towers.append(g.shape[2]) or contract(f, g))
        _, _, report = t.casimir_grouplike(kls)
        assert towers == [3, 9]
        names = ["casimir_scalar", "casimir_value_q", "casimir_grouplike", "casimir_combination"]
        assert [c.name for c in report.checks] == names
        assert report.checks[0] == t.casimir(kls).report.checks[0]

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
        report = t.casimir(kls, aux=perturbed).report
        assert [c.name for c in report.failing()] == ["casimir_scalar"]

    def test_combination_requires_family(self, xxz):
        _, _, report = t.casimir_grouplike(xxz)
        assert [c.name for c in report.checks] == ["casimir_scalar", "casimir_grouplike"]


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

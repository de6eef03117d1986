"""Two-site generator, chain embeddings, and the defining relations."""

import numpy as np
import pytest
import scipy.sparse as sp

import tlspin as t
from tlspin import tl_rep
from tlspin.linalg import rel_residual
from tlspin.rmatrix import constant_R


def kls_p2_generator_literal():
    # the 9x9 rank-one matrix at p = 2: nonzero block on rows/cols {3, 5, 7}
    # (1-indexed) with values from the outer product of (p, 1, 1/p)
    expected = np.zeros((9, 9), dtype=complex)
    idx = [2, 4, 6]
    block = [[4, 2, 1], [2, 1, 0.5], [1, 0.5, 0.25]]
    expected[np.ix_(idx, idx)] = block
    return expected


class TestLocalGenerator:
    def test_kls_p2_matrix(self, kls):
        assert np.array_equal(t.local_X(kls).mat, kls_p2_generator_literal())

    def test_xxz_q3_matrix(self, xxz):
        x = t.local_X(xxz).mat
        expected = np.zeros((4, 4), dtype=complex)
        expected[1:3, 1:3] = [[-1 / 3, 1], [1, -3]]
        assert np.max(np.abs(x - expected)) <= 1e-15

    def test_xxz_equals_shifted_braid_matrix(self, xxz):
        # X must equal the 4x4 constant braid matrix minus q on the diagonal
        r_literal = np.array(
            [[3, 0, 0, 0], [0, 3 - 1 / 3, 1, 0], [0, 1, 0, 0], [0, 0, 0, 3]], dtype=complex
        )
        assert np.max(np.abs(t.local_X(xxz).mat - (r_literal - 3 * np.eye(4)))) <= 1e-15

    def test_rank_one(self, kls, xxz, random_bform):
        for f in (kls, xxz, random_bform(5, 4)):
            s = np.linalg.svd(t.local_X(f).mat, compute_uv=False)
            assert int(np.sum(s > 1e-10 * s[0])) == 1

    def test_square_identity_random(self, random_bform):
        for seed in range(20):
            f = random_bform(seed, 2 + seed % 3)
            x = t.local_X(f).mat
            assert np.max(np.abs(x @ x - f.tau * x)) <= 1e-10 * max(1.0, np.max(np.abs(x)) ** 2)


class TestEmbed:
    def test_two_sites_is_identity_embedding(self, kls):
        x = t.local_X(kls)
        emb = t.embed(x, 1, 2)
        assert np.array_equal(emb.matrix.toarray(), x.mat)

    def test_against_dense_kron_oracle(self, kls, xxz):
        for op in (t.local_X(kls), constant_R(xxz)):
            n = op.n
            for j in range(1, 4):
                oracle = np.kron(np.kron(np.eye(n ** (j - 1)), op.mat), np.eye(n ** (3 - j)))
                assert np.max(np.abs(t.embed(op, j, 4).matrix.toarray() - oracle)) == 0.0

    def test_disjoint_supports_commute(self, kls):
        x = t.local_X(kls)
        a = t.embed(x, 1, 4).matrix
        b = t.embed(x, 3, 4).matrix
        assert abs(a @ b - b @ a).max() <= 1e-15

    def test_nonzero_count(self, xxz):
        x = t.local_X(xxz)
        for j in range(1, 5):
            emb = t.embed(x, j, 5)
            assert emb.matrix.nnz == sp.csr_matrix(x.mat).nnz * xxz.n ** 3
            assert emb.matrix.has_canonical_format

    def test_composition(self, kls):
        x = t.local_X(kls)
        r = constant_R(kls)
        product = t.embed(x, 2, 3).matrix @ t.embed(r, 2, 3).matrix
        combined = t.embed(t.LocalOp(3, x.mat @ r.mat, label="XR"), 2, 3).matrix
        assert abs(product - combined).max() <= 1e-12

    def test_matvec_matches_einsum_placement(self, kls, random_bform):
        # independent placement: view v as (left, n*n, right) and contract the middle
        rng = np.random.default_rng(11)
        for op, N in ((t.local_X(kls), 4), (constant_R(random_bform(3, 2)), 5)):
            d = op.mat.shape[0]
            for j in range(1, N):
                emb = t.embed(op, j, N)
                v = rng.normal(size=emb.dim) + 1j * rng.normal(size=emb.dim)
                placed = np.einsum("ab,lbr->lar", op.mat, v.reshape(op.n ** (j - 1), d, -1)).reshape(-1)
                assert np.max(np.abs(emb.matrix @ v - placed)) <= 1e-12 * np.max(np.abs(placed))

    def test_bad_site_index(self, kls):
        x = t.local_X(kls)
        with pytest.raises(ValueError):
            t.embed(x, 0, 3)
        with pytest.raises(ValueError):
            t.embed(x, 3, 3)

    def test_size_budget(self, kls):
        x = t.local_X(kls)
        t.embed(x, 1, 9)  # 3^9 = 19683 fits
        with pytest.raises(t.SizeBudgetExceeded):
            t.embed(x, 1, 10)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dense_writer_is_the_densified_placement_byte_for_byte(self, n, dtype):
        # op holds exact zeros of both signs, and complex entries with a -0.0
        # part; every zero the placement writes is +0.0, as in the densified CSR
        rng = np.random.default_rng(n)
        mat = rng.normal(size=(n * n, n * n)) * (rng.random((n * n, n * n)) < 0.6)
        if dtype == complex:
            mat = mat + 1j * rng.normal(size=mat.shape) * (mat != 0)
            mat.imag[0, :] = -0.0
        mat[1, :n] = -0.0
        op = t.LocalOp(n, mat, label="op")
        for N in range(2, 5):
            for j in range(1, N):
                got, want = tl_rep._embed_dense(op, j, N), t.embed(op, j, N).to_dense()
                assert got.dtype == want.dtype == mat.dtype
                assert got.tobytes() == want.tobytes(), (N, j)
                parts = got.view(np.float64)  # real and imaginary parts of a complex op
                assert not np.signbit(parts[parts == 0]).any()

    def test_dense_writer_budget(self, kls):
        x = t.local_X(kls)
        assert tl_rep._embed_dense(x, 1, 7).shape == (3 ** 7, 3 ** 7)  # 2187 fits
        with pytest.raises(t.SizeBudgetExceeded):
            tl_rep._embed_dense(x, 1, 8)
        with pytest.raises(ValueError):
            tl_rep._embed_dense(x, 3, 3)


def chain_tl_relations(f, N):
    """The rows of check_tl_relations from every relation evaluated on all N sites, by chain-sized SpGEMMs."""
    x = t.local_X(f)
    xs = {j: t.embed(x, j, N).matrix for j in range(1, N)}
    rows = []
    for j in range(1, N):
        sq = xs[j] @ xs[j]
        rows.append((f"tl_square_j{j}", rel_residual(sq + f.nu * xs[j], [sq, f.nu * xs[j]])))
    for j in range(1, N):
        for k in (j - 1, j + 1):
            if 1 <= k <= N - 1:
                triple = xs[j] @ xs[k] @ xs[j]
                rows.append((f"tl_sandwich_j{j}_k{k}", rel_residual(triple - xs[j], [triple, xs[j]])))
    for j in range(1, N):
        for k in range(j + 2, N):
            ab, ba = xs[j] @ xs[k], xs[k] @ xs[j]
            rows.append((f"tl_commute_j{j}_k{k}", rel_residual(ab - ba, [ab, ba])))
    return rows


# random n = 4 stops at N = 6: its reference alone takes seconds at N = 7
@pytest.mark.parametrize("model, largest_N", [
    ("kls 2", 7), ("xxz 3", 7), ("xxz 2+1j", 7), ("random n=2", 7), ("random n=3", 7), ("random n=4", 6),
])
def test_local_relations_equal_the_chain_level_reference_bit_for_bit(model, largest_N, random_bform):
    if model.startswith("random"):
        f = random_bform(2900, int(model[-1]))
    else:
        family, param = model.split()
        f = t.builtin_bform(family, complex(param) if "j" in param else float(param))
    for N in range(3, largest_N + 1):
        got = [(c.name, c.residual, c.threshold) for c in t.check_tl_relations(f, N).checks]
        assert got == [(name, residual, 1e-10) for name, residual in chain_tl_relations(f, N)], N


def scipy_tl_relations(f):
    """The residuals of check_tl_relations by scipy's operators on the same placements: square, sandwiches by k - j, commutator."""
    x = t.local_X(f)
    x1 = t.embed(x, 1, 2).matrix
    sq = x1 @ x1
    rows = {"square": rel_residual(sq + f.nu * x1, [sq, f.nu * x1])}
    xs = {j: t.embed(x, j, 3).matrix for j in (1, 2)}
    for j, k in ((1, 2), (2, 1)):
        triple = xs[j] @ xs[k] @ xs[j]
        rows[k - j] = rel_residual(triple - xs[j], [triple, xs[j]])
    x1, x3 = (t.embed(x, j, 4).matrix for j in (1, 3))
    ab, ba = x1 @ x3, x3 @ x1
    rows["commute"] = rel_residual(ab - ba, [ab, ba])
    return rows


def tl_row_key(name):
    """The key of scipy_tl_relations that a check_tl_relations row reads."""
    if name.startswith("tl_sandwich"):
        j, k = map(int, name.removeprefix("tl_sandwich_j").split("_k"))
        return k - j
    return name.split("_")[1]


@pytest.mark.parametrize("model", ["kls 2", "xxz 2+1j", "random n=3"])
def test_rows_equal_scipy_operators_on_the_few_site_placements_bit_for_bit(model, random_bform):
    # the raw-kernel products and sums, and the scaling x1.data * nu, are scipy's
    # own: with FMA, nu * data moves a complex square row in its last digits
    if model.startswith("random"):
        f = random_bform(1, 3)
    else:
        family, param = model.split()
        f = t.builtin_bform(family, complex(param) if "j" in param else float(param))
    want = scipy_tl_relations(f)
    for N in (3, 4, 5):
        got = [(c.name, c.residual) for c in t.check_tl_relations(f, N).checks]
        assert got == [(name, want[tl_row_key(name)]) for name, _ in got], N


class TestDefiningRelations:
    def test_kls_chain(self, kls):
        report = t.check_tl_relations(kls, 3)
        assert report.max_residual <= 1e-12
        assert report.passed

    def test_xxz_chain(self, xxz):
        report = t.check_tl_relations(xxz, 4)
        assert report.max_residual <= 1e-12

    def test_check_names_cover_all_relations(self, xxz):
        names = {c.name for c in t.check_tl_relations(xxz, 4).checks}
        assert "tl_square_j1" in names
        assert "tl_sandwich_j1_k2" in names
        assert "tl_sandwich_j2_k1" in names
        assert "tl_commute_j1_k3" in names

    def test_random_b(self, random_bform):
        for seed in range(20):
            f = random_bform(1000 + seed, 4)
            assert t.check_tl_relations(f, 3).max_residual <= 1e-10

    @pytest.mark.parametrize("model", ["kls 2", "xxz 2+1j", "random n=4"])
    def test_four_site_products_within_the_nonzero_budget(self, model, random_bform, monkeypatch):
        # X_1 X_3 is X (x) X on four sites, with nnz(X)^2 stored entries: over
        # the budget the call raises before any four-site placement
        if model.startswith("random"):
            f = random_bform(2900, 4)
        else:
            family, param = model.split()
            f = t.builtin_bform(family, complex(param) if "j" in param else float(param))
        nnz = np.count_nonzero(t.local_X(f).mat) ** 2
        embed, sites = tl_rep.embed, []
        monkeypatch.setattr(tl_rep, "embed", lambda op, j, N: sites.append(N) or embed(op, j, N))
        monkeypatch.setattr(tl_rep, "TOWER_NNZ_BUDGET", nnz - 1)
        with pytest.raises(t.SizeBudgetExceeded, match=f"{nnz} nonzeros"):
            t.check_tl_relations(f, 5)
        assert 4 not in sites
        monkeypatch.setattr(tl_rep, "TOWER_NNZ_BUDGET", nnz)
        got = [(c.name, c.residual, c.threshold) for c in t.check_tl_relations(f, 5).checks]
        assert got == [(name, residual, 1e-10) for name, residual in chain_tl_relations(f, 5)]

    def test_three_site_products_within_the_nonzero_budget(self, monkeypatch):
        # X_1 X_2 stores up to nnz(b) n rows times nnz(b^{-1}) n columns,
        # nnz(X) n^2 entries: over the budget the call raises before any
        # placement.  This b has zeros, so the bound is neither n^6 nor nnz(X)^2
        rng = np.random.default_rng(33)
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b[[0, 2, 3], [1, 3, 0]] = 0
        f = t.make_bform(b)
        x = t.local_X(f)
        bound = np.count_nonzero(x.mat) * 4 ** 2
        assert bound not in (4 ** 6, np.count_nonzero(x.mat) ** 2)
        x1, x2 = (t.embed(x, j, 3).matrix for j in (1, 2))
        # the bound is the product's structural count: met with no cancellation
        assert (x1 @ x2).nnz <= (abs(x1) @ abs(x2)).nnz == bound
        embed, sites = tl_rep.embed, []
        monkeypatch.setattr(tl_rep, "embed", lambda op, j, N: sites.append(N) or embed(op, j, N))
        monkeypatch.setattr(tl_rep, "TOWER_NNZ_BUDGET", bound - 1)
        with pytest.raises(t.SizeBudgetExceeded, match=f"X_1 X_2 needs {bound} nonzeros"):
            t.check_tl_relations(f, 3)
        assert sites == []
        monkeypatch.setattr(tl_rep, "TOWER_NNZ_BUDGET", bound)
        assert t.check_tl_relations(f, 3).passed
        assert sites == [2, 3, 3]

    def test_needs_three_sites(self, kls):
        with pytest.raises(ValueError):
            t.check_tl_relations(kls, 2)

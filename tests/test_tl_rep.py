"""Two-site generator, chain embeddings, and the defining relations."""

import numpy as np
import pytest
import scipy.sparse as sp

import tlspin as t
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

    def test_needs_three_sites(self, kls):
        with pytest.raises(ValueError):
            t.check_tl_relations(kls, 2)

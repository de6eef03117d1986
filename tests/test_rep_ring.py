"""Integer representation-ring identities and their numerical shadows."""

import functools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components
from scipy.special import eval_chebyu

import tlspin as t
from tlspin import rep_ring
from tlspin.linalg import numerical_rank
from tlspin.rep_ring import _blocks_by_level


def paths_to_level(N):
    """Brute-force oracle: count Bratteli paths 1 -> k over N-1 steps of +-1, k >= 0."""
    counts = {1: 1}
    for _ in range(N - 1):
        nxt = {}
        for k, c in counts.items():
            for k2 in (k - 1, k + 1):
                if k2 >= 0:
                    nxt[k2] = nxt.get(k2, 0) + c
        counts = nxt
    return dict(sorted(counts.items()))


def dense_kron_symmetrizer(f, N):
    """Symmetrizer recursion with explicit dense Kronecker placements and products."""
    n = f.n
    cur = t.projectors(f)[0].mat
    for m in range(3, N + 1):
        ext = np.kron(cur, np.eye(n))
        rme = np.kron(np.eye(n ** (m - 2)), t.spectral_R(f, f.q ** (m - 1)).mat)
        raw = ext @ rme @ ext
        cur = raw * np.trace(raw) / np.trace(raw @ raw)
    return cur


def generator_components(f, N):
    """Component label of each index in the union of the patterns of X_1 ... X_{N-1}, via scipy."""
    x = t.local_X(f)
    union = sum(abs(t.embed(x, j, N).matrix) for j in range(1, N))
    return connected_components(union, directed=True, connection="weak")[1]


def gauged_kls():
    """kls p=2 under a dense congruence M b M^t: b has no zero entry, so the symmetrizer is one block."""
    m = np.array([[1.0, 0.4, -0.3], [0.2, 1.5, 0.1], [-0.5, 0.3, 2.0]])
    return t.gauge_transform(t.builtin_bform("kls", 2), m)


class TestDims:
    def test_frozen_sequences(self):
        assert t.dims_p(3, 4) == [1, 3, 8, 21, 55]
        assert t.dims_p(2, 4) == [1, 2, 3, 4, 5]
        assert t.dims_p(4, 3) == [1, 4, 15, 56]

    def test_chebyshev_evaluation_oracle(self):
        for n in range(2, 7):
            dims = t.dims_p(n, 10)
            for k, p in enumerate(dims):
                assert p == round(float(eval_chebyu(k, n / 2)))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            t.dims_p(1, 3)
        with pytest.raises(ValueError):
            t.dims_p(3, -1)


class TestMultiplicities:
    def test_frozen_values(self):
        assert t.mult_nu(2) == {0: 1, 2: 1}
        assert t.mult_nu(3) == {1: 2, 3: 1}
        assert t.mult_nu(4) == {0: 2, 2: 3, 4: 1}

    def test_path_counting_oracle(self):
        for N in range(1, 11):
            assert t.mult_nu(N) == paths_to_level(N)

    def test_top_multiplicity_is_one(self):
        for N in range(1, 13):
            assert t.mult_nu(N)[N] == 1


class TestCatalan:
    def test_small_values(self):
        assert t.catalan(0) == 1
        assert t.catalan(3) == 5
        assert t.catalan(4) == 14

    def test_factorial_oracle(self):
        for N in range(13):
            assert t.catalan(N) == math.factorial(2 * N) // (
                math.factorial(N) * math.factorial(N + 1)
            )

    def test_budget(self):
        t.catalan(30)
        with pytest.raises(t.SizeBudgetExceeded):
            t.catalan(31)
        with pytest.raises(ValueError):
            t.catalan(-1)
        with pytest.raises(t.SizeBudgetExceeded):
            t.decomposition_table(3, 31)

    def test_series_budget(self):
        # K * bit_length(n) <= 14000: the last term still prints in decimal
        assert len(str(t.dims_p(3, 7000)[-1])) < 4300
        assert len(str(t.poincare_series(2 ** 13999, 1)[-1])) < 4300
        for n, K in ((3, 7001), (2 ** 14000, 1), (10 ** 200, 30)):
            with pytest.raises(t.SizeBudgetExceeded):
                t.dims_p(n, K)
            with pytest.raises(t.SizeBudgetExceeded):
                t.poincare_series(n, K)


class TestDecompositionTable:
    def test_three_sites(self):
        table = t.decomposition_table(3, 3)
        rows = {r.k: (r.p_k, r.nu_k) for r in table.rows}
        assert rows == {1: (3, 2), 3: (21, 1)}
        assert table.checks["sum_pk_nuk"] == 27
        assert table.checks["catalan_check"] == 5

    def test_two_sites(self):
        rows = {r.k: (r.p_k, r.nu_k) for r in t.decomposition_table(3, 2).rows}
        assert rows == {0: (1, 1), 2: (8, 1)}

    def test_four_sites(self):
        table = t.decomposition_table(3, 4)
        rows = {r.k: (r.p_k, r.nu_k) for r in table.rows}
        assert rows == {0: (1, 2), 2: (8, 3), 4: (55, 1)}
        assert table.checks["sum_pk_nuk"] == 81

    def test_counting_identities_across_range(self):
        for n in range(2, 7):
            for N in range(1, 13):
                table = t.decomposition_table(n, N)
                assert table.checks["sum_pk_nuk"] == n ** N
                assert table.checks["catalan_check"] == t.catalan(N)


class TestPoincareSeries:
    def test_frozen_coefficients(self):
        assert t.poincare_series(3, 3) == [1, 3, 8, 21]
        assert t.poincare_series(2, 4) == [1, 2, 3, 4, 5]

    def test_matches_dims_everywhere(self):
        for n in range(2, 7):
            assert t.poincare_series(n, 12) == t.dims_p(n, 12)

    def test_denominator_recurrence(self):
        for n in (2, 5):
            c = t.poincare_series(n, 10)
            for k in range(2, 11):
                assert c[k] == n * c[k - 1] - c[k - 2]


class TestQuantumPlaneDims:
    def test_kls(self, kls):
        dims = t.quantum_plane_dims(kls)
        assert dims["sym"] == [1, 3, 8, 21]
        assert dims["ext"] == [1, 3, 1, 0]

    def test_xxz(self, xxz):
        dims = t.quantum_plane_dims(xxz)
        assert dims["sym"] == [1, 2, 3, 4]
        assert dims["ext"] == [1, 2, 1, 0]

    def test_random_b(self, random_bform):
        for n in (2, 3, 4, 5):
            for seed in range(5):
                dims = t.quantum_plane_dims(random_bform(40 + seed, n))
                assert dims["sym"] == t.dims_p(n, 3)
                assert dims["ext"] == [1, n, 1, 0]

    def test_random_b_n4(self, random_bform):
        f = random_bform(51, 4)
        dims = t.quantum_plane_dims(f)
        assert dims["sym"] == [1, 4, 15, 56]
        assert dims["ext"] == [1, 4, 1, 0]

    @pytest.mark.parametrize("cond", [1, 10, 100, 1000])
    @pytest.mark.parametrize("p", [2, 1.5 + 0.5j])
    def test_gauged_kls(self, cond, p):
        # M = U diag(1, sqrt(cond), cond) V: a congruence of condition number cond
        rng = np.random.default_rng(cond)
        u, v = (np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(2))
        f = t.gauge_transform(t.builtin_bform("kls", p), u @ np.diag([1.0, np.sqrt(cond), cond]) @ v)
        assert t.quantum_plane_dims(f) == {"sym": [1, 3, 8, 21], "ext": [1, 3, 1, 0]}


class TestSymmetrizer:
    def test_kls_ranks(self, kls):
        for N, expected in ((2, 8), (3, 21), (4, 55)):
            proj = t.symmetrizer(kls, N).projector
            dense = proj.to_dense()
            assert numerical_rank(dense) == expected
            assert np.max(np.abs(dense @ dense - dense)) <= 1e-8 * max(1.0, np.max(np.abs(dense)))

    def test_xxz_rank(self, xxz):
        proj = t.symmetrizer(xxz, 3).projector
        assert numerical_rank(proj.to_dense()) == t.dims_p(2, 3)[3]

    def test_commutes_with_tower(self, kls):
        proj = t.symmetrizer(kls, 3).projector.to_dense()
        tower = t.coproduct_T(kls, 3)
        scale = max(
            np.max(np.abs(tower.dense_entry(a, b))) for a in range(3) for b in range(3)
        )
        for a in range(3):
            for b in range(3):
                e = tower.dense_entry(a, b)
                assert np.max(np.abs(proj @ e - e @ proj)) <= 1e-8 * scale

    def test_budget(self, kls):
        with pytest.raises(t.SizeBudgetExceeded):
            t.symmetrizer(kls, 8)

    def test_rank_mismatch_is_a_failing_row(self, kls, monkeypatch):
        # the rank is decided by its report row, not by a raise
        exact = rep_ring.dims_p
        monkeypatch.setattr(rep_ring, "dims_p", lambda n, k: [d + 1 for d in exact(n, k)])
        res = t.symmetrizer(kls, 3)
        assert res.rank == 21
        row = next(c for c in res.report.checks if c.name == "symmetrizer_rank")
        assert row.residual == 1.0
        assert not row.passed
        assert not res.report.passed

    def test_projector_is_canonical_csr(self, kls, xxz, random_bform):
        cases = [(kls, 5), (t.builtin_bform("kls", 1.5 + 0.5j), 4), (xxz, 7), (gauged_kls(), 4)]
        cases += [(random_bform(303, 3), 3)]
        for f, N in cases:
            got = t.symmetrizer(f, N).projector.matrix
            # rebuilt from the dense array: sorted columns, no duplicates, no stored zeros
            want = sp.csr_matrix(got.toarray())
            assert got.has_canonical_format
            assert got.data.all(), (f.family, N)
            for name in ("indptr", "indices", "data"):
                x, y = getattr(got, name), getattr(want, name)
                assert x.dtype == y.dtype and np.array_equal(x, y), (f.family, N, name)

    def test_trace_rank_equals_numerical_rank(self, kls, xxz, random_bform):
        cases = [(kls, range(3, 6)), (xxz, range(3, 9)), (random_bform(300, 3), range(3, 5))]
        for f, sizes in cases:
            for N in sizes:
                res = t.symmetrizer(f, N)
                assert res.rank == numerical_rank(res.projector.to_dense()) == t.dims_p(f.n, N)[N]

    def test_matches_dense_kron_recursion(self, kls, xxz, random_bform):
        cases = [(kls, 6), (t.builtin_bform("kls", 1.5 + 0.5j), 5), (xxz, 7), (random_bform(301, 3), 4)]
        cases += [(gauged_kls(), 5)]
        for f, N_max in cases:
            for N in range(2, N_max + 1):
                got = t.symmetrizer(f, N).projector.to_dense()
                want = dense_kron_symmetrizer(f, N)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (f.family, N)

    def test_reference_vanishes_off_blocks(self, kls, xxz):
        # the blocks are exact: the dense reference holds 0.0, not a small number,
        # between components, and the library stores exactly its nonzeros
        for f, N in ((kls, 5), (xxz, 7)):
            want = dense_kron_symmetrizer(f, N)
            label = generator_components(f, N)
            assert label.max() > 0
            # the library's star pattern has the components of the X_j patterns
            *_, stacks = _blocks_by_level(f, N)
            blocks = [b for stack in stacks for b in stack]
            assert sorted(sorted(b.tolist()) for b in blocks) == sorted(
                np.flatnonzero(label == c).tolist() for c in range(label.max() + 1)
            )
            assert np.all(want[label[:, None] != label[None, :]] == 0.0)
            got = t.symmetrizer(f, N).projector.matrix
            assert got.has_canonical_format
            assert np.array_equal(sp.csr_matrix(want).indptr, got.indptr)
            assert np.array_equal(sp.csr_matrix(want).indices, got.indices)


    def test_levels_match_components_built_from_scratch(self, kls, xxz, random_bform):
        # each level is derived from the last; it must equal the components of
        # the whole union pattern, in the same order: blocks by smallest index,
        # indices by last site then ascending, stacks by per-site counts
        sparse4 = t.make_bform(np.diag([1.0, 2.0, -1.5, 0.7]) + np.diag([0.5, 0.0, 0.3], 1))
        cases = [(kls, 6), (xxz, 9), (t.builtin_bform("kls", 1.5 + 0.5j), 5), (gauged_kls(), 4)]
        cases += [(sparse4, 5), (random_bform(302, 3), 3)]
        for f, N in cases:
            n = f.n
            for m, got in zip(range(2, N + 1), _blocks_by_level(f, N), strict=True):
                label = generator_components(f, m)
                first = [np.flatnonzero(label == c)[0] for c in range(label.max() + 1)]
                comps = [np.flatnonzero(label == c) for c in np.argsort(first)]
                comps = [c[np.lexsort((c, c % n))] for c in comps]
                counts = [tuple(np.bincount(c % n, minlength=n)) for c in comps]
                want = [np.array([c for c, k in zip(comps, counts) if k == key]) for key in sorted(set(counts))]
                assert len(got) == len(want), (f.family, m)
                assert all(np.array_equal(g, w) for g, w in zip(got, want)), (f.family, m)


def _congruent_kls(p, d1, d2):
    return t.gauge_transform(t.builtin_bform("kls", p), np.diag([1.0, d1, d2]))


def _dense_random(seed):
    rng = np.random.default_rng(seed)
    try:
        return t.make_bform(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    except (t.DegenerateParameter, t.SingularMatrix):
        return None


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    f=st.one_of(
        st.builds(_congruent_kls, st.floats(1.1, 3.0), st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
        st.builds(_dense_random, st.integers(0, 2 ** 32 - 1)),
    ),
    N=st.integers(2, 4),
)
def test_blocks_match_dense_reference(f, N):
    # D b D keeps the support of b and so the blocks; a dense random b is one block
    assume(f is not None)
    res = t.symmetrizer(f, N)
    assert res.rank == t.dims_p(3, N)[N]
    want = dense_kron_symmetrizer(f, N)
    assert np.max(np.abs(res.projector.to_dense() - want)) <= 1e-12 * np.max(np.abs(want))


def gauged_xxz():
    """xxz q = -1.39 under M b M^t, M the first seed-9 normal draw with condition number at most 50 (31)."""
    return t.gauge_transform(t.builtin_bform("xxz", -1.39), _gauge_xxz())


def _gauge_xxz():
    rng = np.random.default_rng(9)
    m = rng.normal(size=(2, 2))
    while np.linalg.cond(m) > 50:
        m = rng.normal(size=(2, 2))
    return m


@pytest.mark.parametrize("N", [3, 4])
def test_gauged_symmetrizer_is_the_gauged_projector(N):
    # M b M^t gives X -> G X G^-1 with G = M^(x)N, so the projector is G P G^-1 exactly
    g = functools.reduce(np.kron, [_gauge_xxz()] * N)
    exact = g @ t.symmetrizer(t.builtin_bform("xxz", -1.39), N).projector.to_dense() @ np.linalg.inv(g)
    got = t.symmetrizer(gauged_xxz(), N).projector.to_dense()
    assert np.max(np.abs(got - exact)) <= 1e-10 * np.max(np.abs(exact))


@pytest.mark.parametrize(
    "N",
    [
        5,
        pytest.param(
            6,
            marks=pytest.mark.xfail(
                strict=True,
                reason="FOUND in CHANGES.md: the gauged symmetrizer loses idempotence as N grows, "
                "residual 3.0e-8 at N = 6 against PRODUCT_TOL (8.1e-9 at N = 5)",
            ),
        ),
    ],
)
def test_gauged_symmetrizer_stays_idempotent(N):
    assert t.symmetrizer(gauged_xxz(), N).report.passed


@pytest.mark.parametrize("k", [3, 4, 5])
def test_root_of_unity_fails_before_any_level(k, monkeypatch):
    # Delta_{k-1} = +-[k]_q vanishes at q = e^(i pi / k): the recursion exists below k sites only
    f = t.builtin_bform("xxz", np.exp(1j * np.pi / k), allow_unimodular_q=True)
    for N in range(2, k):
        assert t.symmetrizer(f, N).rank == t.dims_p(2, N)[N]

    def no_levels(*args):
        raise AssertionError("a level was built")

    monkeypatch.setattr(rep_ring, "_blocks_by_level", no_levels)
    for N in range(k, k + 3):
        with pytest.raises(t.NormalizationFailure, match="vanishes"):
            t.symmetrizer(f, N)

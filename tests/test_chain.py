"""Chain Hamiltonian assembly, spectra, and isotypic multiplicity matching."""

import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import tlspin as t
from tlspin.chain import (
    CLUSTER_TOL_GENERAL,
    CLUSTER_TOL_HERMITIAN,
    Cluster,
    SpectrumReport,
    _cluster_eigenvalues,
    _link_states,
    _standard_module,
)
from tlspin.linalg import _blocks, rel_residual


def dense_chain_oracle(f, N):
    """Independent dense assembly: sum of np.kron placements of the generator."""
    x = t.local_X(f).mat
    n = f.n
    total = np.zeros((n ** N, n ** N), dtype=complex)
    for j in range(1, N):
        term = np.eye(1, dtype=complex)
        for site in range(1, N + 1):
            if site == j:
                term = np.kron(term, x)
            elif site == j + 1:
                continue
            else:
                term = np.kron(term, np.eye(n, dtype=complex))
        total += term
    return total


def cluster_map(report):
    return {round(c.value.real, 6) + 1j * round(c.value.imag, 6): c.multiplicity for c in report.clusters}


class TestHamiltonian:
    def test_two_sites_is_generator(self, kls):
        h = t.hamiltonian(kls, 2)
        assert np.array_equal(h.matrix.toarray(), t.local_X(kls).mat)

    def test_kls_three_sites_real_symmetric(self, kls):
        h = t.hamiltonian(kls, 3)
        dense = h.matrix.toarray()
        assert dense.shape == (27, 27)
        assert np.max(np.abs(dense.imag)) == 0.0
        assert np.max(np.abs(dense - dense.T)) == 0.0
        assert h.is_hermitian()

    def test_matches_dense_oracle(self, kls, xxz):
        for f, N in ((kls, 3), (xxz, 3), (xxz, 4)):
            h = t.hamiltonian(f, N)
            assert np.max(np.abs(h.matrix.toarray() - dense_chain_oracle(f, N))) <= 1e-14

    def test_budget(self, xxz):
        t.hamiltonian(xxz, 14)  # 16384 fits the sparse budget
        with pytest.raises(t.SizeBudgetExceeded):
            t.hamiltonian(xxz, 15)


class TestSpectrum:
    def test_kls_two_sites(self, kls):
        rep = t.spectrum(t.hamiltonian(kls, 2))
        assert rep.hermitian
        assert cluster_map(rep) == {0: 8, 5.25: 1}

    def test_kls_three_sites(self, kls):
        rep = t.spectrum(t.hamiltonian(kls, 3))
        clusters = cluster_map(rep)
        assert clusters == {0: 21, 4.25: 3, 6.25: 3}

    def test_kls_cluster_values_tight(self, kls):
        rep = t.spectrum(t.hamiltonian(kls, 3))
        values = sorted(c.value.real for c in rep.clusters)
        for got, want in zip(values, (0.0, 4.25, 6.25)):
            assert abs(got - want) <= 1e-8

    def test_xxz_two_sites(self, xxz):
        rep = t.spectrum(t.hamiltonian(xxz, 2))
        clusters = cluster_map(rep)
        assert clusters[0] == 3
        (other,) = [v for v in clusters if v != 0]
        assert abs(other - (-10 / 3)) <= 1e-6
        assert clusters[other] == 1

    def test_two_sites_generic_b(self, random_bform):
        # {0 x (n^2-1), tau x 1} for every valid b; general solver path
        for seed in range(6):
            f = random_bform(70 + seed, 2 + seed % 3)
            rep = t.spectrum(t.hamiltonian(f, 2))
            mults = sorted(c.multiplicity for c in rep.clusters)
            assert mults == [1, f.n ** 2 - 1]
            tau_cluster = min(rep.clusters, key=lambda c: c.multiplicity)
            assert abs(tau_cluster.value - f.tau) <= 1e-6 * (1 + abs(f.tau))

    def test_non_hermitian_flagged(self):
        f = t.builtin_bform("kls", 1 + 0.5j)
        h = t.hamiltonian(f, 2)
        assert not h.is_hermitian()
        rep = t.spectrum(h)
        assert not rep.hermitian

    def test_total_conservation(self, kls):
        rep = t.spectrum(t.hamiltonian(kls, 4))
        assert rep.total == 81
        assert sum(c.multiplicity for c in rep.clusters) == 81

    def test_clusters_sorted(self, kls):
        rep = t.spectrum(t.hamiltonian(kls, 4))
        vals = [(c.value.real, c.value.imag) for c in rep.clusters]
        assert vals == sorted(vals)

    def test_raw_eigenvalues_consistent_with_clusters(self, kls):
        rep = t.spectrum(t.hamiltonian(kls, 3))
        assert len(rep.eigenvalues) == 27
        for c in rep.clusters:
            members = [
                v for v in rep.eigenvalues
                if abs(v - c.value) <= rep.cluster_tol * (1 + abs(v))
            ]
            assert len(members) == c.multiplicity

    def test_interleaved_real_parts_stay_together(self):
        # two clusters on one vertical line: sorted by real part, their
        # members alternate, and each must still come out whole
        rng = np.random.default_rng(3)
        a = 1e-12 * rng.normal(size=6) + 0j
        b = 1e-12 * rng.normal(size=4) + 1.5j
        clusters = _cluster_eigenvalues(np.concatenate([a, b]), 1e-6)
        assert [c.multiplicity for c in clusters] == [6, 4]
        assert clusters[0].value == complex(np.mean(np.sort(a.real)))

    def test_kls_shared_real_parts(self):
        # p = 1 + 1j: the clusters at 0 and near 1.5j share a real part
        f = t.builtin_bform("kls", 1 + 1j)
        rep = t.spectrum(t.hamiltonian(f, 3))
        assert sorted(c.multiplicity for c in rep.clusters) == [3, 3, 21]
        assert assigned(rep, t.decomposition_table(3, 3), f.tau).per_k == {1: 2, 3: 1}

    def test_budget(self, xxz):
        h = t.hamiltonian(xxz, 13)
        with pytest.raises(t.SizeBudgetExceeded):
            t.spectrum(h)

    def test_one_wide_cluster_stays_small(self):
        # 4096 values within 1e-15 of one point: one run of linked sorted
        # neighbours, where a graph of all close pairs would hold 8.4M links
        rng = np.random.default_rng(5)
        values = 0.5 + 1e-15 * (rng.uniform(-1, 1, 4096) + 1j * rng.uniform(-1, 1, 4096))
        tracemalloc.start()
        try:
            clusters = _cluster_eigenvalues(values, 1e-8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [c.multiplicity for c in clusters] == [4096]
        assert peak < 4 * 2 ** 20


def _single_linkage(values, tol):
    """Brute-force clusters: every pair within max(r_i, r_j) joins, groups merged until none meet.

    Returns (real, imag, multiplicity) per cluster, its value the mean of its
    members in (real, imag) order.
    """
    radius = tol * (1 + np.abs(values))
    groups = [[i] for i in range(values.size)]
    merged = True
    while merged:
        merged = False
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                if any(abs(values[i] - values[j]) <= max(radius[i], radius[j]) for i in groups[a] for j in groups[b]):
                    groups[a] += groups.pop(b)
                    merged = True
                    break
            if merged:
                break
    out = []
    for g in groups:
        members = values[g]
        value = complex(np.mean(members[np.lexsort((members.imag, members.real))]))
        out.append((value.real, value.imag, len(g)))
    return sorted(out)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    tol=st.sampled_from([3e-9, 1e-8, 1e-6]),
    points=st.lists(
        st.tuples(
            # a few centres, several on one vertical line
            st.sampled_from([0.0, 1.0, -2.0]),
            st.sampled_from([0.0, 1.0, 1.0 + 2e-8, -1.5]),
            # offsets in radii, on either side of the linking distance
            st.sampled_from([0.0, 0.3, 0.5, 0.99, 1.01, 1.5, 2.2]),
            st.sampled_from([1, -1, 1j, -1j, (1 + 1j) / np.sqrt(2)]),
        ),
        min_size=1,
        max_size=40,
    ),
    data=st.data(),
)
def test_clusters_match_brute_force_single_linkage(tol, points, data):
    centres = np.array([re + 1j * im for re, im, _, _ in points])
    offsets = np.array([k * d for _, _, k, d in points]) * tol * (1 + np.abs(centres))
    values = (centres + offsets)[data.draw(st.permutations(range(len(points))))]
    got = [(c.value.real, c.value.imag, c.multiplicity) for c in _cluster_eigenvalues(values, tol)]
    assert sorted(got) == _single_linkage(values, tol)


def _gauged_kls(seed):
    """kls p=2 under a dense congruence M b M^t: b has no zero entry left."""
    rng = np.random.default_rng(seed)
    return t.gauge_transform(t.builtin_bform("kls", 2), _haar(rng, 3) @ np.diag([1.0, 1.5, 2.0]) @ _haar(rng, 3))


def assert_matches_whole_solve(rep, h):
    """Clusters of the block solve against those of one np.linalg.eigvals call on all of H.

    Matched one to one by value within the clustering radius, with equal
    multiplicities.
    """
    whole = _cluster_eigenvalues(np.linalg.eigvals(h.to_dense()), rep.cluster_tol)
    assert len(whole) == len(rep.clusters)
    got = np.array([c.value for c in rep.clusters])
    want = np.array([c.value for c in whole])
    gap = np.abs(got[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(gap)
    assert np.all(gap[rows, cols] <= rep.cluster_tol * (1 + np.abs(want[cols])))
    assert [rep.clusters[i].multiplicity for i in rows] == [whole[j].multiplicity for j in cols]


class TestBlocks:
    def test_partition_with_no_coupling_between_blocks(self, kls, xxz):
        for f, N in ((kls, 2), (kls, 5), (xxz, 8), (t.builtin_bform("xxz", 2j), 6), (_gauged_kls(5), 4)):
            h = t.hamiltonian(f, N)
            blocks = _blocks(h.matrix)
            assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(h.dim))
            owner = np.empty(h.dim, dtype=int)
            for i, b in enumerate(blocks):
                assert np.all(np.diff(b) > 0)
                owner[b] = i
            coo = h.matrix.tocoo()
            assert np.array_equal(owner[coo.row[coo.data != 0]], owner[coo.col[coo.data != 0]])

    def test_one_sided_coupling_joins(self):
        # only M[i, i+1] is set: an entry on either side of the diagonal joins two indices
        m = sp.csr_matrix((np.ones(4), (np.arange(4), np.arange(1, 5))), shape=(6, 6))
        for mat in (m, m.T.tocsr()):
            assert [b.tolist() for b in _blocks(mat)] == [[0, 1, 2, 3, 4], [5]]

    def test_block_counts(self, kls):
        assert len(_blocks(t.hamiltonian(kls, 6).matrix)) > 1
        assert len(_blocks(t.hamiltonian(t.builtin_bform("xxz", 3), 8).matrix)) > 1
        assert len(_blocks(t.hamiltonian(_gauged_kls(5), 4).matrix)) == 1

    def test_clusters_match_whole_matrix_solve(self, kls):
        cases = [(kls, N) for N in range(2, 7)]
        cases += [(t.builtin_bform("kls", 1.5 + 0.5j), 5), (t.builtin_bform("xxz", 3), 8)]
        cases += [(t.builtin_bform("xxz", 2j), N) for N in (6, 7)] + [(_gauged_kls(5), 4)]
        for f, N in cases:
            h = t.hamiltonian(f, N)
            assert_matches_whole_solve(t.spectrum(h), h)

    def test_single_block_is_the_whole_solve(self):
        # a dense b: one block, scattered into a stack of one, bit for bit
        h = t.hamiltonian(_gauged_kls(5), 4)
        whole = np.linalg.eigvals(h.to_dense())
        assert np.array_equal(np.array(t.spectrum(h).eigenvalues), whole[np.lexsort((whole.imag, whole.real))])


@settings(max_examples=20, deadline=2000, derandomize=True, database=None)
@given(p=st.floats(1.1, 3.0), d1=st.floats(1.0, 1.2), d2=st.floats(1.5, 2.0), N=st.integers(2, 5))
def test_diagonal_congruence_keeps_blocks_and_multiplicities(p, d1, d2, N):
    # D b D keeps the support of b, so H keeps its blocks; it is similar to the
    # kls H through D^(x)N (condition <= 2^N), and d1^2 != d2 makes it non-Hermitian
    f = t.builtin_bform("kls", p)
    g = t.gauge_transform(f, np.diag([1.0, d1, d2]))
    h = t.hamiltonian(g, N)
    assert [b.tolist() for b in _blocks(h.matrix)] == [b.tolist() for b in _blocks(t.hamiltonian(f, N).matrix)]
    rep = t.spectrum(h)
    assert not rep.hermitian
    assert_matches_whole_solve(rep, h)


def assigned(rep, table, tau):
    """``check_isotypic``'s assignment, whose one row passes."""
    asg = t.check_isotypic(rep, table, tau)
    assert asg.report.passed
    return asg


def assert_fails(asg):
    """The assignment's report is its one failing row: a misfit is reported, never raised."""
    assert [(c.name, c.residual, c.threshold) for c in asg.report.checks] == [("isotypic_assignment", 1.0, 0.0)]


class TestIsotypic:
    def test_kls_three_sites(self, kls):
        rep = t.spectrum(t.hamiltonian(kls, 3))
        table = t.decomposition_table(3, 3)
        asg = t.check_isotypic(rep, table, kls.tau)
        assert [(c.name, c.residual, c.threshold) for c in asg.report.checks] == [("isotypic_assignment", 0.0, 0.0)]
        assert asg.per_k == {1: 2, 3: 1}
        by_mult = {c.multiplicity: d for c, d in zip(rep.clusters, asg.per_cluster)}
        assert by_mult[21] == {3: 1}
        assert by_mult[3] == {1: 1}

    def test_kls_two_sites(self, kls):
        rep = t.spectrum(t.hamiltonian(kls, 2))
        asg = assigned(rep, t.decomposition_table(3, 2), kls.tau)
        assert asg.per_k == {0: 1, 2: 1}

    def test_kls_four_sites(self, kls):
        rep = t.spectrum(t.hamiltonian(kls, 4))
        asg = assigned(rep, t.decomposition_table(3, 4), kls.tau)
        assert asg.per_k == {0: 2, 2: 3, 4: 1}
        # every cluster multiplicity decomposes over {1, 8, 55}
        for combo, cluster in zip(asg.per_cluster, rep.clusters):
            dims = {0: 1, 2: 8, 4: 55}
            assert sum(a * dims[k] for k, a in combo.items()) == cluster.multiplicity

    def test_xxz_five_sites(self, xxz):
        rep = t.spectrum(t.hamiltonian(xxz, 5))
        asg = assigned(rep, t.decomposition_table(2, 5), xxz.tau)
        assert asg.per_k == {k: v for k, v in t.mult_nu(5).items()}

    def test_longer_chains_recover_all_multiplicities(self, xxz, kls):
        for f, n, N in ((xxz, 2, 6), (xxz, 2, 8), (kls, 3, 5)):
            rep = t.spectrum(t.hamiltonian(f, N))
            asg = assigned(rep, t.decomposition_table(n, N), f.tau)
            assert asg.per_k == t.mult_nu(N)

    def test_xxz_imaginary_q(self):
        f = t.builtin_bform("xxz", 2j)
        for N in (6, 7):
            rep = t.spectrum(t.hamiltonian(f, N))
            assert assigned(rep, t.decomposition_table(2, N), f.tau).per_k == t.mult_nu(N)

    def test_non_hermitian_path(self):
        # complex p: general eigensolver, looser clustering, same bookkeeping
        f = t.builtin_bform("kls", 1 + 0.5j)
        rep = t.spectrum(t.hamiltonian(f, 3))
        assert not rep.hermitian
        asg = assigned(rep, t.decomposition_table(3, 3), f.tau)
        assert asg.per_k == {1: 2, 3: 1}
        zero_cluster = min(rep.clusters, key=lambda c: abs(c.value))
        assert zero_cluster.multiplicity == 21

    def test_mismatched_shapes_rejected(self, kls):
        rep = t.spectrum(t.hamiltonian(kls, 2))
        with pytest.raises(ValueError):
            t.check_isotypic(rep, t.decomposition_table(3, 3), kls.tau)

    def test_impossible_multiplicities(self):
        fake = SpectrumReport(
            n=3,
            N=2,
            clusters=(Cluster(0.0 + 0j, 2), Cluster(1.0 + 0j, 7)),
            total=9,
            hermitian=True,
        )
        assert_fails(t.check_isotypic(fake, t.decomposition_table(3, 2), 5.25))

    def test_xxz_negative_q_eight_sites(self):
        f = t.builtin_bform("xxz", -2)
        rep = t.spectrum(t.hamiltonian(f, 8))
        start = time.perf_counter()
        asg = assigned(rep, t.decomposition_table(2, 8), f.tau)
        assert time.perf_counter() - start <= 2.0
        assert asg.per_k == t.mult_nu(8)


    def test_split_cluster_rejected(self, kls):
        # the 21 states at 0 reported as two clusters: the counts still sum
        # to 27, but the W_3 eigenvalue 0 can fill only one of them
        rep = t.spectrum(t.hamiltonian(kls, 3))
        zero, *rest = rep.clusters
        split = (Cluster(zero.value, 11), Cluster(zero.value + 1e-3, 10), *rest)
        bad = SpectrumReport(n=3, N=3, clusters=split, total=27, hermitian=True)
        assert_fails(t.check_isotypic(bad, t.decomposition_table(3, 3), kls.tau))

    def test_moved_cluster_rejected(self, kls):
        # same multiplicities, but one value moved beyond its clustering radius
        rep = t.spectrum(t.hamiltonian(kls, 3))
        radius = rep.cluster_tol * (1 + abs(rep.clusters[1].value))
        moved = list(rep.clusters)
        moved[1] = Cluster(moved[1].value + 2 * radius, moved[1].multiplicity)
        bad = SpectrumReport(n=3, N=3, clusters=tuple(moved), total=27, hermitian=True)
        assert_fails(t.check_isotypic(bad, t.decomposition_table(3, 3), kls.tau))

    def test_radius_follows_hermiticity(self, kls):
        # all 81 states of kls p=2 N=4 as one cluster: the caller sets no radius
        # that could take in every module eigenvalue
        rep = t.spectrum(t.hamiltonian(kls, 4))
        merged = (Cluster(complex(np.mean(rep.eigenvalues)), 81),)
        with pytest.raises(TypeError):
            SpectrumReport(n=3, N=4, clusters=merged, total=81, hermitian=True, cluster_tol=1e3)
        for hermitian, radius in ((True, CLUSTER_TOL_HERMITIAN), (False, CLUSTER_TOL_GENERAL)):
            bad = SpectrumReport(n=3, N=4, clusters=merged, total=81, hermitian=hermitian)
            assert bad.cluster_tol == bad.to_dict()["cluster_tol"] == radius
            assert_fails(t.check_isotypic(bad, t.decomposition_table(3, 4), kls.tau))


class TestStandardModules:
    @pytest.mark.parametrize("tau", [5.25, 1.3 + 0.7j])
    def test_tl_relations(self, tau):
        for N in range(2, 7):
            for k in t.mult_nu(N):
                e = _standard_module(N, k, tau)
                for i in range(N - 1):
                    assert np.max(np.abs(e[i] @ e[i] - tau * e[i])) <= 1e-12
                    if i + 1 < N - 1:
                        assert np.max(np.abs(e[i] @ e[i + 1] @ e[i] - e[i])) <= 1e-12
                        assert np.max(np.abs(e[i + 1] @ e[i] @ e[i + 1] - e[i + 1])) <= 1e-12
                    for j in range(i + 2, N - 1):
                        assert np.max(np.abs(e[i] @ e[j] - e[j] @ e[i])) <= 1e-12

    def test_dimensions(self):
        for N in range(1, 13):
            assert {k: len(_link_states(N, k)) for k in t.mult_nu(N)} == t.mult_nu(N)

    def test_module_spectra_repeat_p_k_times_in_chain_spectrum(self, kls, xxz):
        gauged = t.gauge_transform(kls, _haar(np.random.default_rng(11), 3) @ np.diag([1.0, 1.5, 2.0]))
        for f, N in ((kls, 4), (xxz, 6), (gauged, 4)):
            full = np.linalg.eigvals(t.hamiltonian(f, N).to_dense())
            table = t.decomposition_table(f.n, N)
            modules = np.concatenate(
                [np.repeat(np.linalg.eigvals(sum(_standard_module(N, r.k, f.tau))), r.p_k) for r in table.rows]
            )
            gap = np.abs(full[:, None] - modules[None, :])
            rows, cols = linear_sum_assignment(gap)
            assert np.max(gap[rows, cols]) <= 1e-9

    def test_twelve_site_module_spectra_in_bounded_time(self, xxz):
        np.linalg.eigvals(sum(_standard_module(4, 0, xxz.tau)))  # first LAPACK call outside the timing
        start = time.perf_counter()
        for k in t.mult_nu(12):
            np.linalg.eigvals(sum(_standard_module(12, k, xxz.tau)))
        assert time.perf_counter() - start <= 1.0


def former_weight_checks(f, N):
    """Test-local copies of the former local and global weight checks, as (name, residual, threshold) rows."""
    h = np.diag([1.0, 0.0, -1.0]).astype(complex)
    eye = np.eye(3, dtype=complex)
    total = np.kron(h, eye) + np.kron(eye, h)
    r = t.constant_R(f).mat
    comm = r @ total - total @ r
    rows = [("weight_symmetry_local", rel_residual(comm, [r @ total, total @ r]), 1e-12)]
    diag = np.zeros(1, dtype=complex)
    for _ in range(N):
        diag = (diag[:, None] + np.diag(h)[None, :]).ravel()
    weight = sp.diags(diag, format="csr")
    hm = t.hamiltonian(f, N).matrix
    hw, wh = hm @ weight, weight @ hm
    return rows + [("weight_symmetry_global", rel_residual(hw - wh, [hw, wh]), 1e-10)]


class TestGlobalWeight:
    def test_kls_chains(self, kls):
        for N in (3, 4):
            report = t.check_weight_symmetry(kls, N)
            assert [c.name for c in report.checks] == ["weight_symmetry_local", "weight_symmetry_global"]
            assert report.checks[1].residual <= 1e-10

    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    @pytest.mark.parametrize("p", [2, 1.5 + 0.5j, 0.3, 20])
    def test_rows_are_bit_identical_to_the_former_checks(self, p, N):
        f = t.builtin_bform("kls", p)
        rows = [(c.name, c.residual, c.threshold) for c in t.check_weight_symmetry(f, N).checks]
        assert rows == former_weight_checks(f, N)


def _haar(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@settings(max_examples=20, deadline=2000, derandomize=True, database=None)
@given(p=st.floats(1.1, 3.0), seed=st.integers(0, 2 ** 32 - 1), N=st.integers(2, 4))
def test_gauge_keeps_cluster_multiplicities(p, seed, N):
    # M b M^t conjugates H by M^(x)N: a non-Hermitian H with the same spectrum.
    # M has condition number 2, so the eigenvalue error stays far below the tolerance.
    f = t.builtin_bform("kls", p)
    rng = np.random.default_rng(seed)
    g = t.gauge_transform(f, _haar(rng, 3) @ np.diag([1.0, 1.5, 2.0]) @ _haar(rng, 3))
    # the Hermitian reference clustered at the general radius, which the gauged H takes
    herm = t.spectrum(t.hamiltonian(f, N))
    ref = replace(
        herm,
        clusters=tuple(_cluster_eigenvalues(np.array(herm.eigenvalues), CLUSTER_TOL_GENERAL)),
        hermitian=False,
    )
    rep = t.spectrum(t.hamiltonian(g, N))
    assert not rep.hermitian and rep.cluster_tol == CLUSTER_TOL_GENERAL
    assert sorted(c.multiplicity for c in rep.clusters) == sorted(c.multiplicity for c in ref.clusters)
    # dense b: the same isotypic content per cluster, clusters matched by value
    table = t.decomposition_table(3, N)
    got = dict(zip((c.value for c in rep.clusters), assigned(rep, table, g.tau).per_cluster))
    want = dict(zip((c.value for c in ref.clusters), assigned(ref, table, f.tau).per_cluster))
    for value, combo in want.items():
        assert got[min(got, key=lambda v: abs(v - value))] == combo


@pytest.mark.parametrize("N, clusters", [(4, 6), (6, 19)])
def test_unitary_gauge_is_hermitian_relative_to_its_scale(N, clusters):
    # M b M^t with M unitary conjugates H by the unitary M^(x)N, so H stays
    # Hermitian; at kls p=50 its entries reach 2e3 and H - H^H rounds to 1e-14
    # of them.  Read as non-Hermitian, H took the general radius 1e-6, which
    # merged its eigenvalues into 5 and 14 clusters
    f = t.builtin_bform("kls", 50)
    rep = t.spectrum(t.hamiltonian(t.gauge_transform(f, _haar(np.random.default_rng(0), 3)), N))
    assert rep.hermitian
    assert len(rep.clusters) == len(t.spectrum(t.hamiltonian(f, N)).clusters) == clusters


def _dense_b(kind, seed, n, param):
    """A dense b: random real or complex (n x n), or a complex gauge M b M^t of kls (p) or xxz (q).

    A random b has condition number at most 50, and M has 2, so the
    whole-matrix solve of the non-normal H_b, the reference here, stays
    accurate.
    """
    rng = np.random.default_rng(seed)
    if kind == "kls":
        f = t.builtin_bform("kls", param)
        return t.gauge_transform(f, _haar(rng, 3) @ np.diag([1.0, 1.5, 2.0]) @ _haar(rng, 3))
    if kind == "xxz":
        f = t.builtin_bform("xxz", param)
        return t.gauge_transform(f, _haar(rng, 2) @ np.diag([1.0, 2.0]) @ _haar(rng, 2))
    b = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if kind == "complex" else 0)
    if np.linalg.cond(b) > 50:
        reject()
    try:
        return t.make_bform(b)
    except (t.DegenerateParameter, t.SingularMatrix):
        reject()


def _isotypic(rep, f):
    """The isotypic assignment of ``rep``, or None when its ``isotypic_assignment`` row fails."""
    asg = t.check_isotypic(rep, t.decomposition_table(f.n, rep.N), f.tau)
    return asg if asg.report.passed else None


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["real", "complex", "kls", "xxz"]),
    seed=st.integers(0, 2 ** 32 - 1),
    n=st.integers(2, 4),
    param=st.floats(1.2, 3.0),
    sign=st.sampled_from([1.0, -1.0]),
    N=st.integers(2, 6),
)
def test_chain_spectrum_matches_the_solve_of_h_b(kind, seed, n, param, sign, N):
    # the graded congruence, where it is used, moves cluster values in their
    # last digits only: the same clusters, radius and isotypic content
    f = _dense_b(kind, seed, n, sign * param if kind == "xxz" else param)
    N = min(N, {2: 6, 3: 5, 4: 4}[f.n])
    rep = t.chain_spectrum(f, N)
    ref = t.spectrum(t.hamiltonian(f, N))
    fields = ("n", "N", "total", "hermitian", "cluster_tol")
    assert [getattr(rep, name) for name in fields] == [getattr(ref, name) for name in fields]
    assert len(rep.clusters) == len(ref.clusters)
    got = np.array([c.value for c in rep.clusters])
    want = np.array([c.value for c in ref.clusters])
    gap = np.abs(got[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(gap)
    assert np.all(gap[rows, cols] <= 1e-10 * (1 + np.abs(want[cols])))
    assert [rep.clusters[i].multiplicity for i in rows] == [ref.clusters[j].multiplicity for j in cols]
    got_iso, want_iso = _isotypic(rep, f), _isotypic(ref, f)
    assert (got_iso is None) == (want_iso is None)
    if want_iso is not None:
        assert got_iso.per_k == want_iso.per_k
        assert [got_iso.per_cluster[i] for i in rows] == [want_iso.per_cluster[j] for j in cols]


class TestChainSpectrum:
    def test_graded_families_solve_h_b_itself(self, kls, xxz):
        # b with n nonzeros is its own graded form: the same report, bit for bit
        for f, N in ((kls, 5), (xxz, 7), (t.builtin_bform("kls", 1.5 + 0.5j), 4)):
            assert t.chain_spectrum(f, N) == t.spectrum(t.hamiltonian(f, N))

    def test_dense_b_splits_into_weight_sectors(self):
        # a gauge of kls p=2: H_b is one block; its graded form has the blocks of kls
        f = _gauged_kls(5)
        g = t.graded_congruence(f)
        assert len(_blocks(t.hamiltonian(f, 5).matrix)) == 1
        sectors = _blocks(t.hamiltonian(t.builtin_bform("kls", 2), 5).matrix)
        assert len(_blocks(t.hamiltonian(g, 5).matrix)) == len(sectors)

    def test_hermiticity_mismatch_falls_back_to_h_b(self, xxz):
        # a complex gauge of xxz q=3: the graded form gives a Hermitian H, H_b is not
        f = _dense_b("xxz", 0, 2, 3.0)
        g = t.graded_congruence(f)
        assert g is not f and t.hamiltonian(g, 5).is_hermitian()
        assert t.chain_spectrum(f, 5) == t.spectrum(t.hamiltonian(f, 5))

"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible under `pytest -s`); the
assertions carry the same tolerances, so the suite going green is the
acceptance signal.
"""

import math
import time

import numpy as np

import tlspin as t
from tlspin.linalg import numerical_rank

KLS_P2_Q = -(21 + math.sqrt(377)) / 8


def _line(num, desc, ok):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _seeded_uv(seed, count=5):
    rng = np.random.default_rng(seed)
    return [
        (m_u * np.exp(1j * p_u), m_v * np.exp(1j * p_v))
        for m_u, m_v, p_u, p_v in zip(
            rng.uniform(0.5, 2, count),
            rng.uniform(0.5, 2, count),
            rng.uniform(0, 2 * np.pi, count),
            rng.uniform(0, 2 * np.pi, count),
        )
    ]


def test_criterion_01_tl_relation_suite(kls, xxz):
    start = time.perf_counter()
    worst = 0.0
    for f in (kls, xxz):
        for N in (3, 4, 5):
            worst = max(worst, t.check_tl_relations(f, N).max_residual)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    _line(1, f"defining relations N=3..5 both families (max {worst:.2e}, {elapsed:.2f}s)", ok)


def test_criterion_02_braid_and_spectral_ybe(kls, xxz, random_bform):
    start = time.perf_counter()
    forms = [kls, xxz] + [random_bform(seed, 2 + seed % 3) for seed in range(20)]
    worst = 0.0
    for i, f in enumerate(forms):
        worst = max(worst, t.check_braid(f).max_residual)
        for u, v in _seeded_uv(1000 + i):
            worst = max(worst, t.check_spectral_ybe(f, u, v).max_residual)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    _line(2, f"braid + spectral consistency, 22 forms x 5 pairs (max {worst:.2e}, {elapsed:.1f}s)", ok)


def test_criterion_03_cubic_identities(kls, xxz):
    worst = max(t.check_tl_cubic(kls).max_residual, t.check_tl_cubic(xxz).max_residual)
    _line(3, f"cubic identities both families (max {worst:.2e})", worst <= 1e-8)


def test_criterion_04_two_site_decomposition(kls):
    p_plus, p_minus = t.projectors(kls)
    ranks_ok = numerical_rank(p_plus.mat) == 8 and numerical_rank(p_minus.mat) == 1
    rows = {c.name: c.residual for c in t.highest_weight_scan(kls).checks}
    line_eigenvalue = rows["invariant_line_eigenvalue"]
    ok = ranks_ok and rows["orbit_rank_8"] == 0.0 and line_eigenvalue <= 1e-10
    _line(
        4,
        f"3x3 tensor square splits 8+1 (orbit rank off 8 by {rows['orbit_rank_8']:g}, "
        f"line eigenvalue residual {line_eigenvalue:.2e})",
        ok,
    )


def test_criterion_05_three_site_decomposition(kls):
    start = time.perf_counter()
    proj = t.symmetrizer(kls, 3).projector
    rank = numerical_rank(proj.to_dense())
    rep = t.spectrum(t.hamiltonian(kls, 3))
    clusters = sorted((c.value.real, c.multiplicity) for c in rep.clusters)
    expected = [(0.0, 21), (4.25, 3), (6.25, 3)]
    values_ok = len(clusters) == 3 and all(
        abs(got[0] - want[0]) <= 1e-8 and got[1] == want[1]
        for got, want in zip(clusters, expected)
    )
    asg = t.check_isotypic(rep, t.decomposition_table(3, 3), kls.tau)
    elapsed = time.perf_counter() - start
    ok = rank == 21 and values_ok and asg.report.passed and asg.per_k == {1: 2, 3: 1} and elapsed < 2.0
    _line(5, f"27 = 21+3+3: symmetrizer rank {rank}, clusters {clusters}, {elapsed:.2f}s", ok)


def test_criterion_06_centralizer(kls, xxz):
    start = time.perf_counter()
    worst = 0.0
    for f, N in ((kls, 2), (kls, 3), (kls, 4), (xxz, 5)):
        worst = max(worst, t.check_centralizer(f, N).max_residual)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 60.0
    _line(6, f"tower centralizes braid generators (max {worst:.2e}, {elapsed:.1f}s)", ok)


def test_criterion_07_casimir(kls):
    res = t.casimir(kls)
    value_ok = abs(res.c2 - kls.q) <= 1e-8 * abs(kls.q) and res.report.passed
    comb_ok = next(c for c in t.casimir_grouplike(kls)[2].checks if c.name == "casimir_combination").passed
    two = t.casimir(kls, aux=t.coproduct_T(kls, 2))
    group_ok = abs(two.c2 - res.c2 ** 2) <= 1e-8 * abs(res.c2) ** 2
    ok = value_ok and comb_ok and group_ok
    _line(7, f"Casimir scalar q (c2 = {res.c2:.6f}), combination and square both match", ok)


def test_criterion_08_integer_identities(kls, xxz, random_bform):
    start = time.perf_counter()
    counting_ok = True
    for n in range(2, 7):
        for N in range(1, 13):
            table = t.decomposition_table(n, N)
            counting_ok &= table.checks["sum_pk_nuk"] == n ** N
            counting_ok &= table.checks["catalan_check"] == t.catalan(N)
    series_ok = all(t.poincare_series(n, 12) == t.dims_p(n, 12) for n in range(2, 7))
    graded_ok = True
    for f in (xxz, kls, random_bform(51, 4)):
        n = f.n
        dims = t.quantum_plane_dims(f)
        graded_ok &= dims["sym"] == [1, n, n ** 2 - 1, n ** 3 - 2 * n]
        graded_ok &= dims["ext"] == [1, n, 1, 0]
    elapsed = time.perf_counter() - start
    ok = counting_ok and series_ok and graded_ok and elapsed < 5.0
    _line(8, f"integer identities n=2..6, N=1..12 + graded dims n=2..4 ({elapsed:.2f}s)", ok)


def test_criterion_09_coproduct_blocks(kls):
    g = t.generator_blocks(kls)
    tower = t.coproduct_T(kls, 2)
    expected = {
        (0, 1): np.kron(g["B1"], g["A1"]) + np.kron(g["A2"], g["B1"]) + np.kron(g["C2"], g["B3"]),
        (1, 2): np.kron(g["B3"], g["C1"]) + np.kron(g["B2"], g["A2"]) + np.kron(g["A3"], g["B2"]),
        (0, 2): np.kron(g["B3"], g["A1"]) + np.kron(g["B2"], g["B1"]) + np.kron(g["A3"], g["B3"]),
    }
    worst = max(
        np.max(np.abs(tower.dense_entry(a, b) - mat)) for (a, b), mat in expected.items()
    )
    _line(9, f"two-site coproducts of the lowering blocks (max {worst:.2e})", worst <= 1e-12)


def test_criterion_10_antisymmetrizer_coefficient(kls, xxz, random_bform):
    ok = True
    worst = 0.0
    for f in [kls, xxz] + [random_bform(80 + s, 2 + s % 3) for s in range(6)]:
        report = t.check_antisymmetrizer(f)
        # the unique-candidate row fails unless q^-3 alone of (q^-1, q^-3) annihilates A3
        ok &= [c.name for c in report.checks] == ["antisym_vanishing[q^-3]", "antisym_unique_named_candidate"]
        ok &= report.passed
        worst = max(worst, report.checks[0].residual)
    _line(10, f"antisymmetrizer vanishes for exactly one coefficient, q^-3 (max {worst:.2e})", ok)

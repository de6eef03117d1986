"""BForm construction: parameter derivation, root selection, gauge moves, file I/O, arithmetic."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import tlspin as t
from tlspin.qalg import l_matrix

# Closed form for the |q| > 1 root at tau = 21/4: q = -(21 + sqrt(377))/8.
KLS_P2_Q = -(21 + math.sqrt(377)) / 8


def quadratic_roots(tau):
    # independent oracle for q^2 + tau q + 1 = 0
    disc = cmath.sqrt(tau * tau - 4)
    return (-tau + disc) / 2, (-tau - disc) / 2


class TestMakeBForm:
    def test_kls_p2_matrix(self):
        f = t.make_bform([[0, 0, 2], [0, 1, 0], [0.5, 0, 0]])
        assert f.n == 3
        assert abs(f.tau - 5.25) <= 1e-14
        assert abs(f.q - KLS_P2_Q) <= 1e-12

    def test_identity_is_degenerate(self):
        with pytest.raises(t.DegenerateParameter):
            t.make_bform(np.eye(2))

    def test_xxz_style_matrix(self):
        f = t.make_bform([[0, 1], [-3, 0]])
        assert abs(f.tau + (3 + 1 / 3)) <= 1e-14
        assert abs(f.q - 3) <= 1e-12

    def test_singular_rejected(self):
        with pytest.raises(t.SingularMatrix):
            t.make_bform([[1, 1], [1, 1]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            t.make_bform(np.ones((2, 3)))

    def test_n1_rejected(self):
        with pytest.raises(ValueError):
            t.make_bform([[2]])

    def test_root_selection_and_consistency(self, random_bform):
        for seed in range(30):
            f = random_bform(seed, 3)
            r1, r2 = quadratic_roots(f.tau)
            assert abs(r1 * r2 - 1) <= 1e-10  # mutual inverses
            assert abs(f.q) >= max(abs(r1), abs(r2)) - 1e-8
            assert abs(f.q + 1 / f.q + f.tau) <= 1e-12

    def test_unimodular_q_rejected_by_default(self):
        # p = i gives tau = -1, putting both roots on the unit circle
        with pytest.raises(t.DegenerateParameter):
            t.builtin_bform("kls", 1j)

    def test_unimodular_q_optin(self):
        f = t.builtin_bform("kls", 1j, allow_unimodular_q=True)
        assert abs(abs(f.q) - 1) <= 1e-9
        assert f.q.imag >= 0

    def test_explicit_root_must_match_selection_rule(self):
        for q_root in (1 / 3, 0):
            with pytest.raises(ValueError):
                t.make_bform([[0, 1], [-3, 0]], q_root=q_root)

    def test_unit_circle_root_with_negative_imaginary_part_rejected(self):
        q0 = cmath.exp(-0.3j)
        b = [[0, 1], [-q0, 0]]
        with pytest.raises(ValueError, match="selection rule"):
            t.make_bform(b, q_root=q0, allow_unimodular_q=True)
        # the rule takes the root with non-negative imaginary part, 1/q0
        q = t.builtin_bform("xxz", q0, allow_unimodular_q=True).q
        assert q.imag > 0
        assert abs(t.make_bform(b, allow_unimodular_q=True).q - q) <= 1e-12
        assert t.make_bform(b, q_root=q, allow_unimodular_q=True).q == q


def former_kls_q(p, allow):
    """q of the kls family as the root rule was written out in make_bform's root search."""
    p = complex(p)
    b = np.zeros((3, 3), dtype=complex)
    for i in (1, 2, 3):
        b[i - 1, 3 - i] = p ** (2 - i)
    r1, r2 = np.roots([1.0, complex(np.trace(b.T @ b)), 1.0])
    if abs(abs(r1) - abs(r2)) <= 1e-9:
        return complex(r1 if r1.imag >= 0 else r2) if allow else t.DegenerateParameter
    return complex(r1 if abs(r1) > abs(r2) else r2)


def former_xxz_q(q0, allow):
    """q of the xxz family as the root rule was written out in builtin_bform."""
    q0 = complex(q0)
    if abs(abs(q0) - 1) <= 1e-9:
        return (q0 if q0.imag >= 0 else 1 / q0) if allow else t.DegenerateParameter
    return q0 if abs(q0) > 1 else 1 / q0


BUILTIN_Q_CASES = [("kls", p) for p in (2, 1.5 + 0.5j, 3, 0.3, 20, 2j, 1e-3 + 1j, 1j)] + [
    ("xxz", q0) for q0 in (3, -2, 2 + 1j, 0.5, 0.9j, cmath.exp(0.4j), cmath.exp(-0.4j), -0.5)
]


class TestBuiltinFamilies:
    @pytest.mark.parametrize("allow", [False, True])
    @pytest.mark.parametrize("family, param", BUILTIN_Q_CASES)
    def test_q_is_bit_identical_to_the_former_rules(self, family, param, allow):
        expected = (former_kls_q if family == "kls" else former_xxz_q)(param, allow)
        if expected is t.DegenerateParameter:
            with pytest.raises(t.DegenerateParameter, match="unit circle"):
                t.builtin_bform(family, param, allow_unimodular_q=allow)
        else:
            assert t.builtin_bform(family, param, allow_unimodular_q=allow).q == expected

    def test_kls_p2_entries(self, kls):
        expected = np.array([[0, 0, 2], [0, 1, 0], [0.5, 0, 0]], dtype=complex)
        assert np.array_equal(kls.b, expected)
        assert np.array_equal(kls.b_inv, expected)

    def test_kls_is_involution(self, kls):
        # p = 2 is exactly representable, so b @ b is the exact identity
        assert np.array_equal(kls.b @ kls.b, np.eye(3))

    def test_kls_involution_generic_p(self):
        f = t.builtin_bform("kls", 1.7)
        assert np.max(np.abs(f.b @ f.b - np.eye(3))) <= 1e-14

    def test_kls_tau_formula(self):
        for p in (2, 3, 0.5, 1 + 2j):
            f = t.builtin_bform("kls", p)
            assert abs(f.tau - (p ** 2 + 1 + p ** -2)) <= 1e-12

    def test_kls_p1_is_valid(self):
        f = t.builtin_bform("kls", 1)
        assert abs(f.tau - 3) <= 1e-14

    def test_kls_large_p_builds(self):
        # at tau ~ p^2 the rounding of q + 1/q exceeds 1e-12 in absolute terms
        for p in (70, 100, 150, 300, 1e3):
            f = t.builtin_bform("kls", p)
            assert abs(f.q + 1 / f.q + f.tau) <= 1e-12 * abs(f.tau)

    def test_wrong_root_rejected(self):
        good = t.builtin_bform("kls", 70)
        for q in (good.q * (1 + 1e-9), good.q + 1, -good.q):
            with pytest.raises(ValueError, match="not a root"):
                t.BForm(n=3, b=good.b.copy(), b_inv=good.b_inv.copy(), tau=good.tau, q=q)

    def test_kls_degenerate_tau(self):
        # p^2 + p^-2 = 1 puts tau exactly at 2
        p = cmath.exp(1j * cmath.pi / 6)
        with pytest.raises(t.DegenerateParameter):
            t.builtin_bform("kls", p)

    def test_kls_p0_rejected(self):
        with pytest.raises(t.DegenerateParameter):
            t.builtin_bform("kls", 0)

    def test_xxz_entries_and_parameters(self, xxz):
        assert np.array_equal(xxz.b, np.array([[0, 1], [-3, 0]], dtype=complex))
        assert xxz.q == 3.0
        assert abs(xxz.tau + 10 / 3) <= 1e-14

    def test_xxz_small_parameter_picks_inverse_root(self):
        f = t.builtin_bform("xxz", 0.5)
        assert f.q == 2.0

    def test_xxz_excluded_parameters(self):
        for bad in (0, 1, -1):
            with pytest.raises(t.DegenerateParameter):
                t.builtin_bform("xxz", bad)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            t.builtin_bform("heisenberg", 1)


class TestGaugeTransform:
    def test_identity_gauge(self, kls):
        g = t.gauge_transform(kls, np.eye(3))
        assert np.allclose(g.b, kls.b)
        assert g.tau == kls.tau
        assert g.q == kls.q

    def test_diagonal_gauge_preserves_tau_and_conjugates_X(self, kls):
        m = np.diag([2.0, 1.0, 1.0])
        g = t.gauge_transform(kls, m)
        assert abs(g.tau - kls.tau) <= 1e-12
        mm = np.kron(m, m)
        conj = mm @ t.local_X(kls).mat @ np.linalg.inv(mm)
        assert np.max(np.abs(t.local_X(g).mat - conj)) <= 1e-10

    def test_random_gauge_conjugates_X(self, random_bform):
        rng = np.random.default_rng(9)
        for seed in range(5):
            f = random_bform(seed, 3)
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            g = t.gauge_transform(f, m)
            mm = np.kron(m, m)
            conj = mm @ t.local_X(f).mat @ np.linalg.inv(mm)
            scale = max(1.0, np.max(np.abs(conj)))
            assert np.max(np.abs(t.local_X(g).mat - conj)) <= 1e-9 * scale

    def test_permutation_gauge_inverts_p(self, kls):
        swap = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=float)
        g = t.gauge_transform(kls, swap)
        assert np.allclose(g.b, t.builtin_bform("kls", 0.5).b)

    def test_singular_gauge_rejected(self, kls):
        with pytest.raises(t.SingularMatrix):
            t.gauge_transform(kls, np.zeros((3, 3)))

    def test_tau_preserved_over_random_trials(self, random_bform):
        trials = 0
        for n in (2, 3, 4):
            rng = np.random.default_rng(100 + n)
            for _ in range(35):
                f = random_bform(int(rng.integers(0, 10 ** 6)), n)
                m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                g = t.gauge_transform(f, m)
                assert abs(g.tau - f.tau) <= 1e-12
                assert g.q == f.q
                trials += 1
        assert trials >= 100

    def test_trace_cyclicity_cross_check(self, random_bform):
        # the recomputed trace of the transformed matrix agrees with the
        # carried tau; restricted to well-conditioned draws so the float
        # error of the recomputation stays below the absolute bound
        for n in (2, 3, 4):
            rng = np.random.default_rng(200 + n)
            count = 0
            while count < 10:
                f = random_bform(int(rng.integers(0, 10 ** 6)), n)
                m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                if np.linalg.cond(m) > 50 or np.linalg.cond(f.b) > 50:
                    continue
                g = t.gauge_transform(f, m)
                recomputed = np.trace(g.b.T @ np.linalg.inv(g.b))
                assert abs(recomputed - f.tau) <= 1e-12
                count += 1


def _haar(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestGradedCongruence:
    def test_graded_and_symmetric_b_are_returned_as_they_are(self, tmp_path, kls, xxz):
        from tlspin.bform import b_matrix_to_obj

        # a generalized permutation from a file, and a real symmetric b, whose cosquare is I
        path = tmp_path / "b.json"
        path.write_text(json.dumps(b_matrix_to_obj(t.make_bform([[0, 2, 0], [0.5j, 0, 0], [0, 0, -1.5]]))))
        a = np.random.default_rng(3).normal(size=(3, 3))
        for f in (kls, xxz, t.builtin_bform("kls", 1.5 + 0.5j), t.load_bform(path), t.make_bform(a + a.T)):
            assert t.graded_congruence(f) is f

    @pytest.mark.parametrize("seed", range(6))
    def test_dense_b_becomes_a_generalized_permutation(self, random_bform, seed):
        f = random_bform(300 + seed, 2 + seed % 3)
        g = t.graded_congruence(f)
        assert (np.count_nonzero(g.b, axis=0) == 1).all() and (np.count_nonzero(g.b, axis=1) == 1).all()
        assert np.array_equal(g.b_inv != 0, g.b.T != 0)
        assert np.max(np.abs(g.b @ g.b_inv - np.eye(f.n))) <= 1e-15
        assert (g.tau, g.q, g.n) == (f.tau, f.q, f.n)
        assert abs(np.trace(g.b.T @ g.b_inv) - f.tau) <= 1e-12 * (1 + abs(f.tau))

    @pytest.mark.parametrize("seed", range(10))
    def test_dropped_entries_on_a_gauge_of_kls_are_rounding(self, seed):
        # the benchmark's input: kls p=2 under M = U diag(1, 1.5, 2) V with Haar U, V
        rng = np.random.default_rng(seed)
        f = t.gauge_transform(t.builtin_bform("kls", 2), _haar(rng, 3) @ np.diag([1.0, 1.5, 2.0]) @ _haar(rng, 3))
        g = t.graded_congruence(f)
        assert g is not f
        _, v = np.linalg.eig(np.linalg.solve(f.b.T, f.b))
        full = v.T @ f.b @ v
        assert np.array_equal(g.b, np.where(g.b != 0, full, 0))
        assert np.max(np.abs(full[g.b == 0])) <= 1e-13 * np.max(np.abs(full))


class TestFileFormat:
    def test_round_trip(self, tmp_path, kls):
        from tlspin.bform import b_matrix_to_obj

        path = tmp_path / "b.json"
        path.write_text(json.dumps(b_matrix_to_obj(kls)))
        f = t.load_bform(path)
        assert np.allclose(f.b, kls.b)
        assert abs(f.q - kls.q) <= 1e-12

    def test_rejects_wrong_row_count(self):
        with pytest.raises(ValueError):
            t.parse_b_matrix({"n": 2, "entries": [[[1, 0], [0, 0]]]})

    def test_rejects_wrong_row_length(self):
        with pytest.raises(ValueError):
            t.parse_b_matrix({"n": 2, "entries": [[[1, 0]], [[0, 0], [1, 0]]]})

    def test_rejects_bad_entry(self):
        with pytest.raises(ValueError):
            t.parse_b_matrix({"n": 2, "entries": [[[1, 0], [0]], [[0, 0], [1, 0]]]})

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError):
            t.parse_b_matrix({"entries": []})


def chain_operators(f, N):
    """Every operator from b down, by name: X, R, R^-1, P+-, R(u) at two real u, L, T(N), H, the symmetrizer."""
    ops = {"X": t.local_X(f).mat, "R": t.constant_R(f).mat, "R_inv": t.constant_R_inverse(f).mat}
    ops["P+"], ops["P-"] = (p.mat for p in t.projectors(f))
    ops["R(1.7)"], ops["R(q^2)"] = t.spectral_R(f, 1.7).mat, t.spectral_R(f, f.q ** 2).mat
    ops["L"] = l_matrix(f).mat
    tower = t.coproduct_T(f, N)
    ops.update({f"T[{a},{b}]": tower.entry(a, b).matrix for a in range(f.n) for b in range(f.n)})
    ops["H"] = t.hamiltonian(f, N).matrix
    ops["P+^N"] = t.symmetrizer(f, N).projector.matrix
    return ops


def complex_twin(f):
    """The same b, b^-1, tau and q stored complex, so every operator built from it takes complex arithmetic."""
    return t.BForm(n=f.n, b=f.b.astype(complex), b_inv=f.b_inv.astype(complex), tau=complex(f.tau), q=complex(f.q))


def real_gauged(seed, n, b0):
    """M b0 M^t for a seeded real M with condition number at most 50."""
    rng = np.random.default_rng(seed)
    while True:
        m = rng.normal(size=(n, n))
        if np.linalg.cond(m) <= 50:
            return t.make_bform(m @ b0 @ m.T)


def real_random(seed, n):
    """A seeded real b near a symmetric one, so tau is near n and q is real."""
    rng = np.random.default_rng(seed)
    a, c = rng.normal(size=(2, n, n))
    try:
        return t.make_bform(a + a.T + 0.3 * (c - c.T))
    except (t.DegenerateParameter, t.SingularMatrix):
        reject()


# real b: dense random, and gauge transforms of kls and of xxz with tau within 1e-6 to 0.17 of -+2
REAL_BFORMS = st.one_of(
    st.builds(real_random, st.integers(0, 2 ** 32 - 1), st.sampled_from([3, 4])),
    st.builds(
        lambda seed, p: real_gauged(seed, 3, t.builtin_bform("kls", p).b),
        st.integers(0, 2 ** 32 - 1),
        st.floats(0.3, 20.0),
    ),
    st.builds(
        lambda seed, sign, eps: real_gauged(seed, 2, t.builtin_bform("xxz", sign * (1 + eps)).b),
        st.integers(0, 2 ** 32 - 1),
        st.sampled_from([1.0, -1.0]),
        st.floats(1e-3, 0.5),
    ),
)


class TestArithmetic:
    """Real or complex is decided once, in make_bform; every operator takes the result type of its inputs."""

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(f=REAL_BFORMS, N=st.integers(2, 4))
    def test_real_b_gives_float64_within_rounding_of_complex_arithmetic(self, f, N):
        N = min(N, 6 - f.n)
        assert f.b.dtype == f.b_inv.dtype == np.float64
        assert isinstance(f.tau, float) and isinstance(f.q, float)
        twin = chain_operators(complex_twin(f), N)
        # each symmetrizer lies within its rounding level, which its idempotence residual
        # shows, of the exact projector; that level grows with the conditioning of the gauge
        idem = sum(t.symmetrizer(g, N).report.checks[0].residual for g in (f, complex_twin(f)))
        rtol = {"P+^N": max(1e-14, 10 * idem)}
        for name, op in chain_operators(f, N).items():
            assert op.dtype == np.float64, name
            assert twin[name].dtype == np.complex128, name
            ref = twin[name].toarray() if hasattr(twin[name], "toarray") else twin[name]
            got = op.toarray() if hasattr(op, "toarray") else op
            assert np.max(np.abs(got - ref)) <= rtol.get(name, 1e-14) * np.max(np.abs(ref)), name

    def test_real_parameters_and_real_file_b_are_float64(self, tmp_path, kls, xxz):
        from tlspin.bform import b_matrix_to_obj

        path = tmp_path / "b.json"
        path.write_text(json.dumps(b_matrix_to_obj(real_random(614, 3))))
        for f in (kls, xxz, t.load_bform(path)):
            assert all(op.dtype == np.float64 for op in chain_operators(f, 3).values())

    def test_complex_b_stays_complex128(self, random_bform):
        cases = [t.builtin_bform("kls", 1.5 + 0.5j), t.builtin_bform("xxz", 2 + 1j), random_bform(612, 3)]
        for f in cases:
            assert f.b.dtype == np.complex128 and isinstance(f.q, complex)
            assert all(op.dtype == np.complex128 for op in chain_operators(f, 3).values())

    def test_complex_spectral_point_keeps_its_label(self, kls):
        assert t.spectral_R(kls, 2).label == "R(u=2+0j)"
        op = t.spectral_R(kls, 0.5 + 1.25j)
        assert op.label == "R(u=0.5+1.25j)" and op.mat.dtype == np.complex128

"""Constant and Baxterized braid matrices: algebraic identity checks."""

import numpy as np
import pytest

import tlspin as t
from tlspin.linalg import max_abs, rel_residual


def xxz_braid_literal(q):
    w = q - 1 / q
    return np.array([[q, 0, 0, 0], [0, w, 1, 0], [0, 1, 0, 0], [0, 0, 0, q]], dtype=complex)


class TestConstantR:
    def test_xxz_matches_literal(self, xxz):
        assert np.max(np.abs(t.constant_R(xxz).mat - xxz_braid_literal(3))) <= 1e-14

    def test_characteristic_equation(self, kls, xxz, random_bform):
        for f in (kls, xxz, random_bform(2, 3)):
            r = t.constant_R(f).mat
            eye = np.eye(f.n ** 2)
            resid = (r - f.q * eye) @ (r + eye / f.q)
            assert max_abs(resid) <= 1e-12 * max(1.0, max_abs(r) ** 2)

    def test_inverse_formula(self, kls):
        prod = t.constant_R(kls).mat @ t.constant_R_inverse(kls).mat
        assert max_abs(prod - np.eye(9)) <= 1e-12

    def test_spectrum_two_clusters(self, kls, xxz, random_bform):
        for f in (kls, xxz, random_bform(8, 3)):
            vals = np.linalg.eigvals(t.constant_R(f).mat)
            near_q = np.sum(np.abs(vals - f.q) <= 1e-8 * (1 + abs(f.q)))
            near_inv = np.sum(np.abs(vals + 1 / f.q) <= 1e-8 * (1 + abs(f.q)))
            assert near_q == f.n ** 2 - 1
            assert near_inv == 1


class TestProjectors:
    def test_kls_ranks(self, kls):
        p_plus, p_minus = t.projectors(kls)
        s_plus = np.linalg.svd(p_plus.mat, compute_uv=False)
        s_minus = np.linalg.svd(p_minus.mat, compute_uv=False)
        assert int(np.sum(s_plus > 1e-8 * s_plus[0])) == 8
        assert int(np.sum(s_minus > 1e-8 * s_minus[0])) == 1

    def test_xxz_ranks(self, xxz):
        p_plus, p_minus = t.projectors(xxz)
        assert np.linalg.matrix_rank(p_plus.mat, tol=1e-8) == 3
        assert np.linalg.matrix_rank(p_minus.mat, tol=1e-8) == 1

    def test_idempotent_orthogonal_complete(self, kls):
        p_plus, p_minus = t.projectors(kls)
        assert max_abs(p_plus.mat @ p_plus.mat - p_plus.mat) <= 1e-12
        assert max_abs(p_minus.mat @ p_minus.mat - p_minus.mat) <= 1e-12
        assert max_abs(p_plus.mat @ p_minus.mat) <= 1e-12
        assert max_abs(p_plus.mat + p_minus.mat - np.eye(9)) == 0.0

    def test_projector_resolution_of_R(self, kls):
        p_plus, p_minus = t.projectors(kls)
        resolved = kls.q * p_plus.mat - p_minus.mat / kls.q
        assert max_abs(t.constant_R(kls).mat - resolved) <= 1e-12

    def test_zero_tau_rejected(self):
        # q0 = i gives tau = 0 (only constructible with the unimodular opt-in)
        f = t.builtin_bform("xxz", 1j, allow_unimodular_q=True)
        assert abs(f.tau) <= 1e-15
        with pytest.raises(t.DegenerateParameter):
            t.projectors(f)


class TestSpectralR:
    def test_unit_parameter_is_scalar(self, kls):
        mat = t.spectral_R(kls, 1).mat
        w = kls.q - 1 / kls.q
        assert max_abs(mat - w * np.eye(9)) <= 1e-14

    def test_inverse_q_parameter_is_pure_generator(self, kls):
        mat = t.spectral_R(kls, 1 / kls.q).mat
        w = kls.q - 1 / kls.q
        assert max_abs(mat + w * t.local_X(kls).mat) <= 1e-12

    def test_two_construction_formulas_agree(self, kls):
        u = 2.0
        first = t.spectral_R(kls, u).mat
        second = u * t.constant_R(kls).mat - (1 / u) * t.constant_R_inverse(kls).mat
        assert max_abs(first - second) <= 1e-12

    def test_zero_parameter_rejected(self, kls):
        with pytest.raises(t.ZeroSpectralParameter):
            t.spectral_R(kls, 0)

    def test_unitarity_closed_form(self, kls, xxz):
        rng = np.random.default_rng(17)
        for f in (kls, xxz):
            for _ in range(5):
                u = rng.uniform(0.5, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                assert t.check_unitarity(f, u).passed


class TestBraidAndYangBaxter:
    def test_braid_builtin(self, kls, xxz):
        assert t.check_braid(kls).max_residual <= 1e-10
        assert t.check_braid(xxz).max_residual <= 1e-12

    def test_braid_random(self, random_bform):
        for seed in range(20):
            f = random_bform(300 + seed, 2 + seed % 3)
            assert t.check_braid(f).max_residual <= 1e-9

    def test_spectral_trivial_point(self, kls):
        assert t.check_spectral_ybe(kls, 1, 1).max_residual == 0.0

    def test_spectral_kls(self, kls):
        assert t.check_spectral_ybe(kls, 2, 0.7).max_residual <= 1e-9

    def test_spectral_xxz_unit_circle(self, xxz):
        rng = np.random.default_rng(23)
        for _ in range(20):
            u, v = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
            assert t.check_spectral_ybe(xxz, u, v).max_residual <= 1e-10


class TestCubicIdentities:
    def test_scalar_prefactor_identity(self, random_bform):
        # nu(q) q - q^2 = 1 underlies the constant cubic identity
        for seed in range(10):
            f = random_bform(seed, 3)
            assert abs(f.nu * f.q - f.q ** 2 - 1) <= 1e-10 * (1 + abs(f.q) ** 2)

    def test_kls(self, kls):
        report = t.check_tl_cubic(kls)
        assert report.max_residual <= 1e-8
        assert {c.name for c in report.checks} == {
            "cubic_spectral_121",
            "cubic_spectral_212",
            "cubic_constant_121",
            "cubic_constant_212",
        }

    def test_xxz(self, xxz):
        assert t.check_tl_cubic(xxz).max_residual <= 1e-10


def antisymmetrizer_residual(f, c):
    """Test-local A3 with top coefficient c, relative to its largest term."""
    q = f.q
    r = t.constant_R(f)
    r12, r23 = t.embed(r, 1, 3).to_dense(), t.embed(r, 2, 3).to_dense()
    terms = [np.eye(f.n ** 3), -(r12 + r23) / q, (r12 @ r23 + r23 @ r12) / q ** 2, -c * r12 @ r23 @ r12]
    return max_abs(sum(terms)) / max_abs(terms)


ANTISYM_ROWS = ["antisym_vanishing[q^-3]", "antisym_unique_named_candidate"]


class TestAntisymmetrizer:
    def test_winner_is_cubed_inverse_for_both_families(self, kls, xxz):
        for f in (kls, xxz):
            report = t.check_antisymmetrizer(f)
            assert [c.name for c in report.checks] == ANTISYM_ROWS
            assert report.checks[0].residual <= 1e-8
            assert antisymmetrizer_residual(f, f.q ** -3) <= 1e-8
            # q^-1 in the place of the Hecke coefficient leaves A3 far from zero
            assert antisymmetrizer_residual(f, 1 / f.q) > 1e-2

    def test_same_winner_across_random_b(self, random_bform):
        for seed in range(10):
            f = random_bform(600 + seed, 2 + seed % 3)
            report = t.check_antisymmetrizer(f)
            assert [c.name for c in report.checks] == ANTISYM_ROWS
            assert report.passed
            assert antisymmetrizer_residual(f, 1 / f.q) > 1e-2

    def test_report_flags_unique_candidate(self, kls):
        assert t.check_antisymmetrizer(kls).passed


def embed_per_operator_rows(f, u, v):
    """The three-site rows with each R placed on its own through embed, in report order."""
    q = f.q

    def placed(op):
        return t.embed(op, 1, 3).to_dense(), t.embed(op, 2, 3).to_dense()

    r12, r23 = placed(t.constant_R(f))
    rows = [("braid", rel_residual(r12 @ r23 @ r12 - r23 @ r12 @ r23, [r12 @ r23 @ r12, r23 @ r12 @ r23]))]
    (ru12, ru23), (ruv12, ruv23), (rv12, rv23) = (placed(t.spectral_R(f, z)) for z in (u, u * v, v))
    lhs, rhs = ru12 @ ruv23 @ rv12, rv23 @ ruv12 @ ru23
    rows.append(("spectral_ybe", rel_residual(lhs - rhs, [lhs, rhs])))
    eye = np.eye(f.n ** 3)
    (a12, a23), (b12, b23) = placed(t.spectral_R(f, 1 / q)), placed(t.spectral_R(f, 1 / q ** 2))
    rows.append(("cubic_spectral_121", rel_residual(a12 @ b23 @ a12, [a12, b23])))
    rows.append(("cubic_spectral_212", rel_residual(a23 @ b12 @ a23, [a23, b12])))
    for name, (ri, rk) in (("cubic_constant_121", (r12, r23)), ("cubic_constant_212", (r23, r12))):
        left, mid = ri - q * eye, f.nu * rk - q ** 2 * eye
        rows.append((name, rel_residual(left @ mid @ left, [left, mid])))
    single, double = (r12 + r23) / q, (r12 @ r23 + r23 @ r12) / q ** 2
    triple = r12 @ r23 @ r12
    top = eye - single + double - q ** -3 * triple
    rows.append(("antisym_vanishing[q^-3]", rel_residual(top, [eye, single, double, q ** -3 * triple])))
    return rows


THREE_SITE_MODELS = {
    "kls 2": lambda: t.builtin_bform("kls", 2),
    "kls 1.5+0.5j": lambda: t.builtin_bform("kls", 1.5 + 0.5j),
    "xxz 3": lambda: t.builtin_bform("xxz", 3),
    "xxz 2+1j": lambda: t.builtin_bform("xxz", 2 + 1j),
    "dense b": lambda: t.make_bform(np.array([[1.0, 0.4 - 0.2j, -0.3], [0.2j, 1.5, 0.1], [-0.5, 0.3 + 0.1j, 2.0]])),
}


@pytest.mark.parametrize("model", list(THREE_SITE_MODELS))
def test_three_site_rows_equal_embed_per_operator(model):
    # X is placed once per check, and R = c I + c_X X formed on three sites:
    # the same float operations as placing each R, so the same bits
    f = THREE_SITE_MODELS[model]()
    for u, v in ((2, 0.7), (0.5 + 1.25j, 1.3 - 0.4j), (-1.7, 0.9j)):
        got = t.check_braid(f).checks + t.check_spectral_ybe(f, u, v).checks
        got += t.check_tl_cubic(f).checks + t.check_antisymmetrizer(f).checks[:1]
        assert [(c.name, c.residual) for c in got] == embed_per_operator_rows(f, u, v), (model, u, v)


class TestWeightSymmetry:
    def test_kls_local(self, kls):
        local = t.check_weight_symmetry(kls, 3).checks[0]
        assert local.name == "weight_symmetry_local"
        assert local.residual <= 1e-12

    def test_rejects_wrong_dimension(self, xxz):
        with pytest.raises(t.UnsupportedDimension):
            t.check_weight_symmetry(xxz, 3)

"""Braid-form R-matrix, its Baxterization, projectors, and identity checks.

The constant solution is R = q I + X; it obeys the quadratic characteristic
equation (R - q)(R + 1/q) = 0 and the braid relation, and splits into
complementary projectors R = q P_plus - (1/q) P_minus.  Promoting it with
the weight w(z) = z - 1/z gives the one-parameter family
R(u) = w(uq) I + w(u) X solving the spectral Yang-Baxter equation.  On
three sites R also satisfies the Hecke relation of the Temperley-Lieb
quotient: its degree-3 q-antisymmetrizer, with top coefficient q^-3,
vanishes.  Every check returns its ResidualReport.
"""

from __future__ import annotations

import numpy as np

from .bform import BForm
from .errors import DegenerateParameter, ZeroSpectralParameter
from .linalg import GLOBAL_TOL, PRODUCT_TOL, _real_if_exact, rel_residual
from .reports import ResidualReport
from .tl_rep import LocalOp, embed, local_X


def spectral_weight(z: complex) -> complex:
    """The Baxterization weight w(z) = z - 1/z."""
    if z == 0:
        raise ZeroSpectralParameter("weight undefined at z = 0")
    return z - 1 / z


def constant_R(f: BForm) -> LocalOp:
    """The constant braid solution R = q I + X."""
    x = local_X(f)
    return LocalOp(f.n, f.q * np.eye(f.n ** 2) + x.mat, label="R")


def constant_R_inverse(f: BForm) -> LocalOp:
    """R^{-1} = (1/q) I + X, inverse of constant_R by the quadratic relation."""
    x = local_X(f)
    return LocalOp(f.n, (1 / f.q) * np.eye(f.n ** 2) + x.mat, label="R_inv")


def projectors(f: BForm) -> tuple[LocalOp, LocalOp]:
    """Complementary idempotents (P_plus, P_minus) with R = q P_plus - (1/q) P_minus.

    P_minus = X / tau has rank one; P_plus = I - P_minus has rank n^2 - 1.
    """
    if abs(f.tau) <= GLOBAL_TOL:
        raise DegenerateParameter("projectors need tau != 0")
    x = local_X(f)
    p_minus = x.mat / f.tau
    p_plus = np.eye(f.n ** 2) - p_minus
    return LocalOp(f.n, p_plus, label="P+"), LocalOp(f.n, p_minus, label="P-")


def spectral_R(f: BForm, u: complex) -> LocalOp:
    """The Baxterized solution R(u) = w(uq) I + w(u) X, labelled "R(u=...)"; equals u R - (1/u) R^{-1}."""
    u, w_uq, w_u = _spectral_point(f, u)
    mat = w_uq * np.eye(f.n ** 2) + w_u * local_X(f).mat
    return LocalOp(f.n, mat, label=f"R(u={complex(u):g})")


def _spectral_point(f: BForm, u: complex) -> tuple:
    """u, nonzero and real when exact, and the coefficients w(uq), w(u) of I and X in R(u)."""
    u = _real_if_exact(complex(u))
    if u == 0:
        raise ZeroSpectralParameter("spectral parameter u must be nonzero")
    return u, spectral_weight(u * f.q), spectral_weight(u)


def _on_three_sites(f: BForm, weights: list) -> list[tuple[np.ndarray, np.ndarray]]:
    """Dense (R12, R23) on three sites for each pair (c, c_X) of R = c I + c_X X.

    X is placed once, at sites (1, 2) and (2, 3); each entry is the same
    float operation as in the placement of c I + c_X X, so the products are
    those of the placed two-site operators, bit for bit.
    """
    x = local_X(f)
    x12, x23 = embed(x, 1, 3).to_dense(), embed(x, 2, 3).to_dense()
    eye = np.eye(f.n ** 3)
    return [(c * eye + c_x * x12, c * eye + c_x * x23) for c, c_x in weights]


def check_braid(f: BForm) -> ResidualReport:
    """Residual of R12 R23 R12 - R23 R12 R23 on three sites, against PRODUCT_TOL (1e-8)."""
    [(r12, r23)] = _on_three_sites(f, [(f.q, 1)])
    lhs = r12 @ r23 @ r12
    rhs = r23 @ r12 @ r23
    report = ResidualReport()
    report.add("braid", rel_residual(lhs - rhs, [lhs, rhs]), PRODUCT_TOL)
    return report


def check_spectral_ybe(f: BForm, u: complex, v: complex) -> ResidualReport:
    """Residual of R12(u) R23(uv) R12(v) - R23(v) R12(uv) R23(u), against PRODUCT_TOL (1e-8)."""
    (ru12, ru23), (ruv12, ruv23), (rv12, rv23) = _on_three_sites(f, [_spectral_point(f, z)[1:] for z in (u, u * v, v)])
    lhs = ru12 @ ruv23 @ rv12
    rhs = rv23 @ ruv12 @ ru23
    report = ResidualReport()
    report.add("spectral_ybe", rel_residual(lhs - rhs, [lhs, rhs]), PRODUCT_TOL)
    return report


def check_tl_cubic(f: BForm) -> ResidualReport:
    """Both cubic identities: the Baxterized product at (q^-1, q^-2, q^-1)
    and the constant form (R_i - q)(nu R_k - q^2)(R_i - q), in both site
    orders, each against PRODUCT_TOL (1e-8)."""
    q = f.q
    eye3 = np.eye(f.n ** 3)
    report = ResidualReport()
    weights = [_spectral_point(f, 1 / q)[1:], _spectral_point(f, 1 / q ** 2)[1:], (q, 1)]
    (a12, a23), (b12, b23), (r12, r23) = _on_three_sites(f, weights)

    # residuals are relative to the largest factor entry (|q| > 1 inflates
    # absolute products)
    report.add("cubic_spectral_121", rel_residual(a12 @ b23 @ a12, [a12, b23]), PRODUCT_TOL)
    report.add("cubic_spectral_212", rel_residual(a23 @ b12 @ a23, [a23, b12]), PRODUCT_TOL)

    nu = f.nu
    for name, (ri, rk) in (("cubic_constant_121", (r12, r23)), ("cubic_constant_212", (r23, r12))):
        left = ri - q * eye3
        mid = nu * rk - q ** 2 * eye3
        report.add(name, rel_residual(left @ mid @ left, [left, mid]), PRODUCT_TOL)
    return report


def check_antisymmetrizer(f: BForm) -> ResidualReport:
    """The degree-3 q-antisymmetrizer vanishes, against PRODUCT_TOL (1e-8).

    A3 = I - q^-1 (R12 + R23) + q^-2 (R12 R23 + R23 R12) - q^-3 R12 R23 R12.
    Its top coefficient q^-3 is fixed by the Hecke relation: TL_3 is the
    Hecke algebra modulo this antisymmetrizer (Jones 1987; Jimbo 1986).
    ``antisym_unique_named_candidate`` is |#{c in (q^-1, q^-3) whose A3
    vanishes} - 1|, so it fails where q^-1 also annihilates A3 (q near +-1).
    """
    q = f.q
    [(r12, r23)] = _on_three_sites(f, [(q, 1)])
    eye = np.eye(f.n ** 3)
    single = (r12 + r23) / q
    double = (r12 @ r23 + r23 @ r12) / q ** 2
    base = eye - single + double
    triple = r12 @ r23 @ r12
    low, top = (rel_residual(base - c * triple, [eye, single, double, c * triple]) for c in (1 / q, q ** -3))
    report = ResidualReport()
    report.add("antisym_vanishing[q^-3]", top, PRODUCT_TOL)
    report.add("antisym_unique_named_candidate", float(abs((low <= PRODUCT_TOL) + (top <= PRODUCT_TOL) - 1)), 0.0)
    return report


def check_unitarity(f: BForm, u: complex) -> ResidualReport:
    """Regression guard: R(u) R(1/u) against its closed scalar form, within GLOBAL_TOL (1e-10)."""
    w = spectral_weight
    q = f.q
    x = local_X(f).mat
    eye = np.eye(f.n ** 2)
    lhs = spectral_R(f, u).mat @ spectral_R(f, 1 / u).mat
    coeff_x = w(u * q) * w(1 / u) + w(u) * w(q / u) + f.tau * w(u) * w(1 / u)
    rhs = w(u * q) * w(q / u) * eye + coeff_x * x
    report = ResidualReport()
    report.add("spectral_unitarity", rel_residual(lhs - rhs, [lhs, rhs]), GLOBAL_TOL)
    return report

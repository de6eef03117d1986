"""The invertible matrix b and its derived deformation parameters.

Everything in this library is built from a single invertible n x n matrix
b, real or complex: the Temperley-Lieb generator is the rank-one operator
assembled from b and its inverse, the loop parameter tau = tr(b^t b^{-1})
fixes the deformation parameter q through q^2 + tau q + 1 = 0, and
congruence transformations b -> M b M^t relate gauge-equivalent models.

Two built-in families are provided:

* ``kls`` -- the 3 x 3 antidiagonal involution diag-flip(p, 1, 1/p), for
  which tau = p^2 + 1 + p^{-2} and b equals its own inverse;
* ``xxz`` -- the 2 x 2 matrix [[0, 1], [-q0, 0]] reproducing the spin-1/2
  anisotropic chain generator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateParameter, SingularMatrix
from .linalg import GLOBAL_TOL, _real_if_exact, _square_matrix, max_abs, require_finite, scaled

# Moduli closer than this are treated as a tie (both roots on the unit circle).
_MODULUS_TIE_TOL = 1e-9


@dataclass(frozen=True)
class BForm:
    """An invertible matrix b with its inverse and derived scalars.

    ``make_bform`` stores b, b^{-1}, tau and q real when their imaginary parts
    are exactly zero, and every operator built from them takes their result
    type: float64 when all four are real, complex128 otherwise.  Instances
    are immutable; the arrays are marked read-only so a BForm can be shared
    freely between concurrent checks.
    """

    n: int
    b: np.ndarray
    b_inv: np.ndarray
    tau: float | complex
    q: float | complex
    family: str | None = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("local dimension n must be at least 2")
        if self.b.shape != (self.n, self.n) or self.b_inv.shape != (self.n, self.n):
            raise ValueError("b and b_inv must both be n x n")
        require_finite(self.b, "b")
        require_finite(self.b_inv, "b_inv")
        if not np.isfinite([self.tau.real, self.tau.imag, self.q.real, self.q.imag]).all():
            raise ValueError("tau and q must be finite")
        if self.q == 0:
            raise DegenerateParameter("q must be nonzero")
        resid = max_abs(self.b @ self.b_inv - np.eye(self.n))
        if resid > GLOBAL_TOL:
            raise SingularMatrix(f"b * b_inv deviates from identity by {resid:.3e}")
        # relative to the larger of |q| and |tau|: at large tau the rounding of
        # q + 1/q alone exceeds any absolute threshold
        if scaled(abs(self.q + 1 / self.q + self.tau), max(abs(self.q), abs(self.tau))) > 1e-12:
            raise ValueError("q is not a root of q^2 + tau*q + 1 = 0")
        self.b.setflags(write=False)
        self.b_inv.setflags(write=False)

    @property
    def nu(self) -> complex:
        """The scalar q + 1/q (equal to -tau)."""
        return self.q + 1 / self.q


def _select_root(r1: complex, r2: complex, allow_unimodular_q: bool) -> complex:
    """The root of q^2 + tau q + 1 = 0 that is taken as q: the one with |q| > 1.

    The roots multiply to 1, so equal moduli means both sit on |q| = 1; then
    the root with non-negative imaginary part is taken, and only if
    ``allow_unimodular_q`` is set.
    """
    if abs(abs(r1) - abs(r2)) <= _MODULUS_TIE_TOL:
        if not allow_unimodular_q:
            raise DegenerateParameter(f"q = {complex(r1)} lies on the unit circle; pass allow_unimodular_q=True")
        return complex(r1 if r1.imag >= 0 else r2)
    return complex(r1 if abs(r1) > abs(r2) else r2)


def _q_from_tau(tau: complex, allow_unimodular_q: bool) -> complex:
    if abs(tau - 2) <= GLOBAL_TOL or abs(tau + 2) <= GLOBAL_TOL:
        raise DegenerateParameter(f"tau = {tau} forces q = -+1, which is excluded")
    r1, r2 = np.roots([1.0, complex(tau), 1.0])
    return _select_root(r1, r2, allow_unimodular_q)


def _require_regular(mat: np.ndarray, name: str) -> None:
    """Raise SingularMatrix when sigma_min <= GLOBAL_TOL * sigma_max."""
    s = np.linalg.svd(mat, compute_uv=False)
    if s[-1] <= GLOBAL_TOL * s[0]:
        raise SingularMatrix(
            f"{name} is singular at tolerance {GLOBAL_TOL:.1e} (sigma_min/sigma_max = {scaled(s[-1], s[0]):.3e})"
        )


def make_bform(
    b,
    *,
    allow_unimodular_q: bool = False,
    family: str | None = None,
    b_inv=None,
    q_root: complex | None = None,
) -> BForm:
    """Build a BForm from an arbitrary invertible matrix.

    The deformation parameter q is the root of q^2 + tau q + 1 = 0 with
    |q| > 1; when both roots lie on the unit circle the root with
    non-negative imaginary part is taken, and only if ``allow_unimodular_q``
    is set (such q are rejected by default since the construction assumes q
    is not a root of unity).

    ``b_inv`` and ``q_root`` may be supplied when the inverse or the root is
    known in closed form (the built-in families use both, which keeps
    structurally zero operator entries exactly zero); ``q_root`` must obey
    the same selection rule and is validated against tau.  b counts as
    singular, and tau as degenerate (q = -+1), at the fixed GLOBAL_TOL.
    """
    mat = _square_matrix(b, "b")
    n = mat.shape[0]
    if n < 2:
        raise ValueError("local dimension n must be at least 2")
    _require_regular(mat, "b")
    inv = np.linalg.inv(mat) if b_inv is None else _square_matrix(b_inv, "b_inv")
    tau = _real_if_exact(complex(np.trace(mat.T @ inv)))
    if q_root is not None:
        q = complex(q_root)
        if q == 0 or _select_root(q, 1 / q, allow_unimodular_q) != q:
            raise ValueError("q_root violates the root selection rule")
    else:
        q = _q_from_tau(tau, allow_unimodular_q)
    return BForm(n=n, b=mat, b_inv=inv, tau=tau, q=_real_if_exact(q), family=family)


def builtin_bform(family: str, param, *, allow_unimodular_q: bool = False) -> BForm:
    """One of the built-in families: ``kls`` (n=3, parameter p) or ``xxz`` (n=2).

    The xxz parameter counts as degenerate within GLOBAL_TOL of 0, 1 and -1.
    """
    if family == "kls":
        p = complex(param)
        if p == 0:
            raise DegenerateParameter("kls family requires p != 0")
        b = np.fliplr(np.diag([p ** k for k in (1, 0, -1)]))
        # b is an involution, so pass the exact inverse.
        return make_bform(b, allow_unimodular_q=allow_unimodular_q, family="kls", b_inv=b.copy())
    if family == "xxz":
        q0 = complex(param)
        if abs(q0) <= GLOBAL_TOL or abs(q0 - 1) <= GLOBAL_TOL or abs(q0 + 1) <= GLOBAL_TOL:
            raise DegenerateParameter("xxz family requires q != 0, +-1")
        b = np.array([[0, 1], [-q0, 0]])
        inv = np.array([[0, -1 / q0], [1, 0]])
        # the roots of the quadratic are exactly {q0, 1/q0}
        root = _select_root(q0, 1 / q0, allow_unimodular_q)
        return make_bform(b, allow_unimodular_q=allow_unimodular_q, family="xxz", b_inv=inv, q_root=root)
    raise ValueError(f"unknown family {family!r} (expected 'kls' or 'xxz')")


def gauge_transform(f: BForm, m) -> BForm:
    """BForm built from the congruence M b M^t.

    Trace cyclicity makes tau (hence q) exactly invariant, so both scalars
    are carried over rather than recomputed through the transformed inverse;
    the two-site generator transforms by conjugation with M (x) M.  M and
    M b M^t count as singular by the rule of ``make_bform``.
    """
    mat = _square_matrix(m, "M")
    if mat.shape != (f.n, f.n):
        raise ValueError(f"M must be {f.n} x {f.n}")
    _require_regular(mat, "gauge matrix M")
    b2 = mat @ f.b @ mat.T
    _require_regular(b2, "transformed matrix M b M^t")
    return BForm(n=f.n, b=b2, b_inv=np.linalg.inv(b2), tau=f.tau, q=f.q)


def graded_congruence(f: BForm) -> BForm:
    """The congruent form V^t b V in the eigenbasis V of the cosquare b^{-t} b, or f itself.

    The cosquare is the congruence invariant of b; its eigenvectors carry the
    one-site Cartan weights.  For eigenvalues with lambda_i lambda_j != 1
    the entry v_i^t b v_j vanishes, so a generic b becomes a generalized
    permutation, whose chain Hamiltonian splits into weight sectors.  Entries
    of V^t b V at most GLOBAL_TOL times its largest are dropped; the form is
    returned when exactly one entry is left in each row and column, with its
    exact inverse (reciprocals, transposed) and tau and q carried over as in
    ``gauge_transform``.  f itself is returned when b already has n nonzeros
    (kls, xxz) or the dropped form is not a generalized permutation.
    """
    if np.count_nonzero(f.b) == f.n:
        return f
    _, v = np.linalg.eig(np.linalg.solve(f.b.T, f.b))
    g = v.T @ f.b @ v
    g[np.abs(g) <= GLOBAL_TOL * max_abs(g)] = 0
    kept = g != 0
    if not (kept.sum(axis=0) == 1).all() or not (kept.sum(axis=1) == 1).all():
        return f
    g = _real_if_exact(g)
    inv = np.zeros_like(g)
    inv[kept] = 1 / g[kept]
    return BForm(n=f.n, b=g, b_inv=inv.T.copy(), tau=f.tau, q=f.q)


def parse_b_matrix(obj: dict) -> np.ndarray:
    """Parse the b-matrix JSON object {"n": int, "entries": [[[re,im],...],...]}."""
    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        raise ValueError("b-matrix object must have 'n' and 'entries' fields")
    n = obj["n"]
    if not isinstance(n, int) or n < 2:
        raise ValueError("'n' must be an integer >= 2")
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != n:
        raise ValueError(f"'entries' must be a list of {n} rows")
    mat = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f"row {i} must have exactly {n} entries")
        for j, pair in enumerate(row):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValueError(f"entry ({i},{j}) must be an [re, im] pair")
            mat[i, j] = complex(float(pair[0]), float(pair[1]))
    return mat


def b_matrix_to_obj(f: BForm) -> dict:
    """Serialize the b matrix back to the JSON object form."""
    return {
        "n": f.n,
        "entries": [[[v.real, v.imag] for v in row] for row in f.b],
    }


def load_bform(path) -> BForm:
    """Read a b matrix from a JSON file and build the BForm."""
    with open(Path(path), "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return make_bform(parse_b_matrix(obj))

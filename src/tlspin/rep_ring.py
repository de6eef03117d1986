"""Representation-ring combinatorics and graded-dimension checks.

All sequences here are exact integers: the irreducible dimensions p_k(n)
from the three-term recurrence n p_k = p_{k+1} + p_{k-1} (Chebyshev of the
second kind evaluated at n/2), the multiplicities nu_k(N) from the
Bratteli path recurrence, Catalan numbers, and the power-series
coefficients of 1/(1 - n t + t^2).  The numerical members reproduce these
integers: the graded dimensions of the quadratic-algebra quotients through
numerical ranks, and the symmetrizer tower through the trace of its
projector, read only once the projector is verified idempotent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .bform import BForm
from .errors import NormalizationFailure, SizeBudgetExceeded
from .linalg import (
    DENSE_SIZE_BUDGET,
    PRODUCT_TOL,
    RANK_RTOL,
    check_size_budget,
    max_abs,
    numerical_rank,
    rel_residual,
    scaled,
)
from .reports import ResidualReport
from .rmatrix import projectors, spectral_R
from .tl_rep import ChainOp

# Catalan numbers above this N are outside the artifact's integer budget.
CATALAN_MAX_N = 30

# Largest K * bit_length(n) for the sequences p_0..p_K(n): since p_K(n) < n^K,
# every term then has fewer than 4300 decimal digits, CPython's default
# int-to-str limit, and no term is longer than this many bits.
SERIES_BITS_BUDGET = 14000


def _check_series_budget(n: int, K: int, what: str) -> None:
    """SizeBudgetExceeded unless K * bit_length(n) lies within SERIES_BITS_BUDGET."""
    width = int(n).bit_length()
    if K * width > SERIES_BITS_BUDGET:
        raise SizeBudgetExceeded(
            f"{what}: order {K} x {width}-bit n = {K * width} bits exceeds budget {SERIES_BITS_BUDGET} bits"
        )


def dims_p(n: int, k_max: int) -> list[int]:
    """[p_0, ..., p_k_max] from the recurrence n p_k = p_{k+1} + p_{k-1}.

    k_max * bit_length(n) must lie within SERIES_BITS_BUDGET.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    _check_series_budget(n, k_max, "dims_p")
    out = [1]
    prev, cur = 0, 1
    for _ in range(k_max):
        prev, cur = cur, n * cur - prev
        out.append(cur)
    return out


def mult_nu(N: int) -> dict[int, int]:
    """{k: nu_k(N)} over k = N, N-2, ..., from the Bratteli path recurrence."""
    if N < 1:
        raise ValueError("N must be >= 1")
    nu = {1: 1}
    for _ in range(N - 1):
        nxt: dict[int, int] = {}
        for k, count in nu.items():
            for k2 in (k - 1, k + 1):
                if k2 >= 0:
                    nxt[k2] = nxt.get(k2, 0) + count
        nu = nxt
    return dict(sorted(nu.items()))


def catalan(N: int) -> int:
    """The N-th Catalan number (2N)! / (N! (N+1)!)."""
    if N < 0:
        raise ValueError("N must be >= 0")
    if N > CATALAN_MAX_N:
        raise SizeBudgetExceeded(f"catalan: N = {N} exceeds the integer budget {CATALAN_MAX_N}")
    return math.comb(2 * N, N) // (N + 1)


@dataclass(frozen=True)
class DecompositionRow:
    k: int
    p_k: int
    nu_k: int


@dataclass(frozen=True)
class DecompositionTable:
    """Double-decomposition bookkeeping for n^N local states.

    Row k pairs the nu_k(N)-dimensional standard module with the p_k(n)-
    dimensional symmetry-algebra module; sum nu_k p_k = n^N counts the full
    space and sum nu_k^2 = C_N counts the diagram algebra itself.
    """

    n: int
    N: int
    rows: tuple
    checks: dict

    def __post_init__(self) -> None:
        total = sum(r.p_k * r.nu_k for r in self.rows)
        square = sum(r.nu_k ** 2 for r in self.rows)
        if total != self.n ** self.N:
            raise ValueError(f"sum nu_k p_k = {total} != n^N = {self.n ** self.N}")
        if square != catalan(self.N):
            raise ValueError(f"sum nu_k^2 = {square} != C_N = {catalan(self.N)}")
        by_k = {r.k: r for r in self.rows}
        if by_k[self.N].nu_k != 1 or (0 in by_k and by_k[0].p_k != 1):
            raise ValueError("boundary rows violated: nu_N = 1 and p_0 = 1 expected")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "N": self.N,
            "rows": [{"k": r.k, "p_k": r.p_k, "nu_k": r.nu_k} for r in self.rows],
            "checks": dict(self.checks),
        }


def decomposition_table(n: int, N: int) -> DecompositionTable:
    """All rows of matching parity with both invariant sums; N within CATALAN_MAX_N."""
    catalan(N)
    nu = mult_nu(N)
    p = dims_p(n, N)
    rows = tuple(DecompositionRow(k=k, p_k=p[k], nu_k=nu_k) for k, nu_k in nu.items())
    checks = {
        "sum_pk_nuk": sum(r.p_k * r.nu_k for r in rows),
        "catalan_check": sum(r.nu_k ** 2 for r in rows),
    }
    return DecompositionTable(n=n, N=N, rows=rows, checks=checks)


def poincare_series(n: int, K: int) -> list[int]:
    """Coefficients of 1/(1 - n t + t^2) up to order K by exact series division.

    K * bit_length(n) must lie within SERIES_BITS_BUDGET.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    _check_series_budget(n, K, "poincare_series")
    denom = [1, -n, 1]
    coeffs = [1]
    for k in range(1, K + 1):
        acc = 0
        for j in range(1, min(k, 2) + 1):
            acc -= denom[j] * coeffs[k - j]
        coeffs.append(acc)
    return coeffs


def quantum_plane_dims(f: BForm, d_max: int = 3) -> dict:
    """Graded dimensions of the two quadratic-algebra quotients of T(V).

    ``sym``: quotient by the single relation spanned by the flattened b
    inverse (expected p_d(n) in degree d); ``ext``: quotient by the image
    of the complementary projector (expected 1, n, 1, 0, ...).  Ranks
    count singular values above RANK_RTOL * sigma_max.
    """
    if d_max > 4:
        raise ValueError("graded dimensions are tabulated up to degree 4")
    n = f.n
    check_size_budget(n ** max(d_max, 0), DENSE_SIZE_BUDGET, "quantum_plane_dims")
    rel_sym = f.b_inv.ravel().reshape(-1, 1).astype(complex)
    p_plus, _ = projectors(f)
    u, s, _ = np.linalg.svd(p_plus.mat)
    r = int(np.sum(s > RANK_RTOL * s[0]))
    rel_ext = u[:, :r]
    out = {}
    for name, rel in (("sym", rel_sym), ("ext", rel_ext)):
        dims = []
        for d in range(d_max + 1):
            if d < 2:
                dims.append(n ** d)
                continue
            cols = [
                np.kron(np.kron(np.eye(n ** i), rel), np.eye(n ** (d - 2 - i)))
                for i in range(d - 1)
            ]
            stacked = np.hstack(cols)
            dims.append(n ** d - numerical_rank(stacked))
        out[name] = dims
    return out


@dataclass(frozen=True)
class SymmetrizerResult:
    """Top isotypic projector of N sites with its rank and the report rows
    ``symmetrizer_idempotent`` and ``symmetrizer_rank``."""

    projector: ChainOp
    rank: int
    report: ResidualReport


def symmetrizer(f: BForm, N: int) -> SymmetrizerResult:
    """Projector onto the top isotypic component of N sites.

    Recursion: starting from I - P_minus on two sites, multiply on the last
    bond by the Baxterized matrix at u = q^(N-1) and renormalize by
    lambda = tr(M^2)/tr(M) (the exact proportionality constant when M is a
    scalar multiple of a projector).  Both factors act locally: R(u) on the
    last two column indices, and the previous projector on all but the
    last, so no chain-sized Kronecker product is multiplied.  n^N must lie
    within DENSE_SIZE_BUDGET.  The result must be idempotent within
    PRODUCT_TOL (1e-8); its rank is then its trace, which must be an integer
    and equal p_N(n).  Otherwise NormalizationFailure is raised.
    """
    n = f.n
    if N < 2:
        raise ValueError("symmetrizer tower starts at N = 2")
    check_size_budget(n ** N, DENSE_SIZE_BUDGET, "symmetrizer")
    p_plus, _ = projectors(f)
    cur = p_plus.mat.copy()
    for m in range(3, N + 1):
        d = n ** m
        ext = np.kron(cur, np.eye(n, dtype=complex))
        # ext @ (I (x) R(u)): R(u) mixes the last two column indices
        half = (ext.reshape(-1, n * n) @ spectral_R(f, f.q ** (m - 1)).mat).reshape(d, d // n, n)
        # half @ (cur (x) I): cur contracts the column index of the first m - 1 sites
        raw = np.tensordot(half, cur, axes=(1, 0)).transpose(0, 2, 1).reshape(d, d)
        trace = np.trace(raw)
        if scaled(abs(trace), max_abs(raw) * raw.shape[0]) <= 1e-12:
            raise NormalizationFailure(f"symmetrizer at {m} sites has vanishing trace")
        lam = np.sum(raw * raw.T) / trace  # tr(raw @ raw) without the product
        cur = raw / lam
    idem = rel_residual(cur @ cur - cur, [cur])
    if idem > PRODUCT_TOL:
        raise NormalizationFailure(f"normalized symmetrizer is not idempotent (residual {idem:.3e})")
    trace = np.trace(cur)
    rank = int(round(trace.real))
    if abs(trace - rank) > 1e-6:
        raise NormalizationFailure(f"idempotent symmetrizer has non-integer trace {trace:.6g}")
    expected = dims_p(n, N)[N]
    if rank != expected:
        raise NormalizationFailure(f"symmetrizer rank {rank} != p_N(n) = {expected}")
    report = ResidualReport()
    report.add("symmetrizer_idempotent", idem, PRODUCT_TOL)
    report.add("symmetrizer_rank", float(abs(rank - expected)), 0.0)
    projector = ChainOp(n=n, N=N, matrix=sp.csr_matrix(cur), label=f"P+^{N}")
    return SymmetrizerResult(projector=projector, rank=rank, report=report)

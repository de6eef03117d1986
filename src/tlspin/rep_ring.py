"""Representation-ring combinatorics and graded-dimension checks.

All sequences here are exact integers: the irreducible dimensions p_k(n)
from the three-term recurrence n p_k = p_{k+1} + p_{k-1} (Chebyshev of the
second kind evaluated at n/2), the multiplicities nu_k(N) from the
Bratteli path recurrence, Catalan numbers, and the power-series
coefficients of 1/(1 - n t + t^2).  The numerical members reproduce these
integers: the graded dimensions of the quadratic-algebra quotients through
numerical ranks, and the symmetrizer tower through the trace of its
projector, read only once the projector is verified idempotent.

The symmetrizer is a polynomial in the Temperley-Lieb generators, so it is
exactly block diagonal on the connected components of the union of their
patterns: off the blocks each of its entries is a sum of exact zeros.  Its
recursion runs on those blocks alone, one level of sites at a time, and
each block splits its last factor by the last site, which keeps a dense b
(one block, the whole space) at the cost of one local action.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .bform import BForm
from .errors import NormalizationFailure, SizeBudgetExceeded
from .linalg import (
    DENSE_SIZE_BUDGET,
    PRODUCT_TOL,
    _blocks,
    check_size_budget,
    max_abs,
    numerical_rank,
    rel_residual,
    scaled,
)
from .reports import ResidualReport
from .rmatrix import projectors, spectral_R
from .tl_rep import ChainOp, embed, local_X

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
    space and sum nu_k^2 = C_N counts the diagram algebra itself.  ``checks``
    records the two sums, which the ``sum_pk_nuk`` and ``catalan_check``
    rows of ``tlspin decompose`` hold to n^N and C_N; construction raises
    only when the boundary rows nu_N = 1 and p_0 = 1 fail.
    """

    n: int
    N: int
    rows: tuple
    checks: dict

    def __post_init__(self) -> None:
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


def quantum_plane_dims(f: BForm) -> dict:
    """Graded dimensions of the two quadratic-algebra quotients of T(V) in degrees 0 to 3.

    ``sym``: quotient by the single relation spanned by the flattened b
    inverse (expected p_d(n) in degree d); ``ext``: quotient by the image
    of the complementary projector, spanned by its columns (expected 1, n,
    1, 0).  Ranks are ``numerical_rank``.
    """
    n = f.n
    check_size_budget(n ** 3, DENSE_SIZE_BUDGET, "quantum_plane_dims")
    rel_sym = f.b_inv.ravel().reshape(-1, 1)
    rel_ext = projectors(f)[0].mat
    out = {}
    for name, rel in (("sym", rel_sym), ("ext", rel_ext)):
        dims = []
        for d in range(4):
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


def _blocks_by_level(f: BForm, N: int) -> Iterator[list[np.ndarray]]:
    """The blocks of m sites for m = 2, ..., N, stacked as (blocks, size) index arrays.

    The blocks are the connected components (``linalg._blocks``) of the
    stored positions of X_1 ... X_{m-1}, stacked unsummed: never the pattern
    of H = sum X_j, whose entries can cancel.  Components come in the order
    of their smallest index.  Each block lists its indices by last site,
    then ascending; blocks that hold equally many indices of each last site
    share one array.
    """
    n = f.n
    x = local_X(f)
    for m in range(2, N + 1):
        rows, cols = np.concatenate([embed(x, j, m).matrix.nonzero() for j in range(1, m)], axis=1)
        components = _blocks(sp.coo_matrix((np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(n ** m,) * 2))
        label = np.empty(n ** m, dtype=int)
        label[np.concatenate(components)] = np.repeat(np.arange(len(components)), [c.size for c in components])
        # (block, last site) of each index: sorted stably, each block by last site, then ascending
        key = label * n + np.arange(n ** m) % n
        sizes = np.bincount(label)
        keys, which = np.unique(np.bincount(key, minlength=sizes.size * n).reshape(-1, n), axis=0, return_inverse=True)
        flat = np.argsort(key, kind="stable")
        starts = np.cumsum(sizes) - sizes
        yield [flat[starts[which.ravel() == g][:, None] + np.arange(k.sum())] for g, k in enumerate(keys)]


def symmetrizer(f: BForm, N: int) -> SymmetrizerResult:
    """Projector onto the top isotypic component of N sites.

    Recursion: starting from I - P_minus on two sites, multiply on the last
    bond by the Baxterized matrix at u = q^(m-1) and renormalize by
    lambda = tr(M^2)/tr(M) (the exact proportionality constant when M is a
    scalar multiple of a projector), for m = 3 .. N sites.  Both factors act
    locally: R(u) on the last two column indices, and the previous projector
    on all but the last, so no chain-sized Kronecker product is multiplied.

    Only the diagonal blocks are computed.  Every factor, P_plus on bond 1,
    R(u) = w(uq) I + w(u) X on the last bond and the previous projector
    (x) I, lies in the algebra of X_1 ... X_{m-1}, so each level is zero off
    the connected components of the union of their patterns: exactly, not
    up to rounding, since every product of such factors only adds terms
    that are exact zeros.  In a block B the last factor splits by the value
    s of the last site, raw[B, B_s] = half[B, B_s] @ cur[B_s // n, B_s // n],
    at a cost of |B| sum_s |B_s|^2; a dense b is one block, and the split
    keeps it at d^3 / n a level, the cost of one local action.  lambda, the
    idempotence residual, the trace and the CSR projector are all taken
    from the blocks, and each equals its dense value, since P and P^2 both
    vanish off the blocks.

    n^N must lie within DENSE_SIZE_BUDGET.  NormalizationFailure is raised
    when a level has vanishing trace, when the result misses idempotence by
    more than PRODUCT_TOL (1e-8), since its rank is read off its trace only
    once it is a projector, and when that trace is not an integer.  Whether
    the rank equals p_N(n) is the ``symmetrizer_rank`` row.
    """
    n = f.n
    if N < 2:
        raise ValueError("symmetrizer tower starts at N = 2")
    check_size_budget(n ** N, DENSE_SIZE_BUDGET, "symmetrizer")
    p_plus, _ = projectors(f)
    levels = _blocks_by_level(f, N)
    parts = [(idx, p_plus.mat[idx[:, :, None], idx[:, None, :]]) for idx in next(levels)]
    for m, blocks in zip(range(3, N + 1), levels):
        d = n ** m
        cur = np.zeros((d // n, d // n), dtype=parts[0][1].dtype)
        for idx, stack in parts:
            cur[idx[:, :, None], idx[:, None, :]] = stack
        # half = (cur (x) I)(I (x) R(u)) with axes [i', j'', t, a, s] for the row
        # (i', t) and the column (j'', a, s): R(u) joins the last site a' of cur's
        # column to the row's last site t; row_at and col_at are the offsets
        half = (cur.reshape(-1, n) @ spectral_R(f, f.q ** (m - 1)).mat.reshape(n, n ** 3)).ravel()
        i = np.arange(d)
        row_at, col_at = i // n * d * n + i % n * n * n, i // (n * n) * n ** 3 + i % (n * n)
        raws = []
        for idx in blocks:
            raw = np.empty(idx.shape + idx.shape[1:], dtype=half.dtype)
            rows, prev = row_at[idx][:, :, None], idx // n
            counts = np.bincount(idx[0] % n, minlength=n)
            for lo, hi in zip(np.cumsum(counts) - counts, np.cumsum(counts)):
                # half @ (cur (x) I) on the columns lo:hi, those of one last site
                c = slice(lo, hi)
                raw[:, :, c] = half[rows + col_at[idx[:, None, c]]] @ cur[prev[:, c, None], prev[:, None, c]]
            raws.append((idx, raw))
        trace = sum(np.trace(raw, axis1=1, axis2=2).sum() for _, raw in raws)
        if scaled(abs(trace), max_abs([raw for _, raw in raws]) * d) <= 1e-12:
            raise NormalizationFailure(f"symmetrizer at {m} sites has vanishing trace")
        # tr(raw @ raw) without the product
        lam = sum(np.einsum("kij,kji->", raw, raw) for _, raw in raws) / trace
        for _, raw in raws:
            raw /= lam
        parts = raws
    stacks = [p for _, p in parts]
    idem = rel_residual([p @ p - p for p in stacks], stacks)
    if idem > PRODUCT_TOL:
        raise NormalizationFailure(f"normalized symmetrizer is not idempotent (residual {idem:.3e})")
    trace = sum(np.trace(p, axis1=1, axis2=2).sum() for p in stacks)
    rank = int(round(trace.real))
    if abs(trace - rank) > 1e-6:
        raise NormalizationFailure(f"idempotent symmetrizer has non-integer trace {trace:.6g}")
    report = ResidualReport()
    report.add("symmetrizer_idempotent", idem, PRODUCT_TOL)
    report.add("symmetrizer_rank", float(abs(rank - dims_p(n, N)[N])), 0.0)
    # the blocks are disjoint, so each entry is stored once and the conversion only sorts
    at_row = np.concatenate([np.broadcast_to(idx[:, :, None], p.shape).ravel() for idx, p in parts])
    at_col = np.concatenate([np.broadcast_to(idx[:, None, :], p.shape).ravel() for idx, p in parts])
    data = np.concatenate([p.ravel() for p in stacks])
    matrix = sp.csr_matrix((data, (at_row, at_col)), shape=(n ** N, n ** N))
    matrix.eliminate_zeros()
    projector = ChainOp(n=n, N=N, matrix=matrix, label=f"P+^{N}")
    return SymmetrizerResult(projector=projector, rank=rank, report=report)

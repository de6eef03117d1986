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
recursion is Wenzl's, with scalar coefficients only, and runs on those
blocks alone, one level of sites at a time; the rank-one X enters each
block through the m - 2 sites it does not act on, so a dense b (one
block, the whole space) costs d^3 / n^2 a level.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .bform import BForm
from .errors import NormalizationFailure, SizeBudgetExceeded
from .linalg import (
    DENSE_SIZE_BUDGET,
    GLOBAL_TOL,
    PRODUCT_TOL,
    _blocks,
    check_size_budget,
    numerical_rank,
    rel_residual,
)
from .reports import ResidualReport
from .rmatrix import projectors
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
    ``symmetrizer_idempotent`` and ``symmetrizer_rank``; the rank is None
    when the projector is not verified."""

    projector: ChainOp
    rank: int | None
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
    import scipy.sparse as sp
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

    Wenzl's recursion for the Jones-Wenzl idempotent: from f_2 = P_plus on
    two sites, for m = 3 .. N sites,

        f_m = (f_{m-1} (x) I) - (Delta_{m-2} / Delta_{m-1}) (f_{m-1} (x) I) X_{m-1} (f_{m-1} (x) I),

    with Delta_0 = 1, Delta_1 = tau and Delta_{k+1} = tau Delta_k - Delta_{k-1}
    (Delta_k = +-[k+1]_q).  X = vec(b) vec(b^{-1})^t has rank one, so the
    product term is u @ v: u = (f_{m-1} (x) I)(I (x) vec b), of size
    n^m x n^(m-2), is one matmul with b, and v = (I (x) vec(b^{-1})^t)
    (f_{m-1} (x) I) one with b^{-1}; no chain-sized Kronecker product is
    formed.

    Only the diagonal blocks are computed: f_{m-1} (x) I and X_{m-1} lie in
    the algebra of X_1 ... X_{m-1}, so each level is zero off the connected
    components of the union of their patterns, exactly, since every product
    of such factors only adds exact zeros there.  A block B takes u @ v on
    its rows and columns through the sites 1 .. m-2 of its indices, at a
    cost of |B|^2 n^(m-2) at most; a dense b is one block, at d^3 / n^2 a
    level.  The idempotence residual, the trace and the CSR projector are
    taken from the blocks, and each equals its dense value.

    n^N must lie within DENSE_SIZE_BUDGET.  NormalizationFailure is raised,
    before any level is built, only when some Delta_{m-1} with m <= N
    vanishes (q a root of unity, reachable only through
    ``allow_unimodular_q``): no projector exists then.  The result's
    idempotence residual is the ``symmetrizer_idempotent`` row, within
    PRODUCT_TOL (1e-8).  Its rank is read off its trace only once it is a
    projector, idempotent and with a trace within 1e-6 of an integer;
    otherwise ``rank`` is None and the ``symmetrizer_rank`` row fails with
    residual 1.  That row holds the rank to p_N(n) exactly.
    """
    import scipy.sparse as sp
    n = f.n
    if N < 2:
        raise ValueError("symmetrizer tower starts at N = 2")
    check_size_budget(n ** N, DENSE_SIZE_BUDGET, "symmetrizer")
    p_plus, _ = projectors(f)
    delta = [1, f.tau]
    for m in range(3, N + 1):
        delta.append(f.tau * delta[-1] - delta[-2])
        if abs(delta[-1]) <= GLOBAL_TOL * (abs(f.tau * delta[-2]) + abs(delta[-3])):
            raise NormalizationFailure(f"Delta_{m - 1} vanishes at q = {f.q:.6g}: no symmetrizer at {m} sites")
    levels = _blocks_by_level(f, N)
    parts = [(idx, p_plus.mat[idx[:, :, None], idx[:, None, :]]) for idx in next(levels)]
    for m, blocks in zip(range(3, N + 1), levels):
        d = n ** m
        cur = np.zeros((d // n, d // n), dtype=parts[0][1].dtype)
        for idx, stack in parts:
            cur[idx[:, :, None], idx[:, None, :]] = stack
        # u[(i, t), j] = sum_c cur[i, (j, c)] b[c, t] and v[j, (k, s)] = sum_c cur[(j, c), k] b_inv[c, s]
        u = (f.b.T @ cur.reshape(d // n, d // n ** 2, n).transpose(0, 2, 1)).reshape(d, -1)
        v = (cur.reshape(d // n ** 2, n, d // n).transpose(0, 2, 1) @ f.b_inv).reshape(-1, d)
        parts = []
        for idx in blocks:
            sites = np.unique(idx // n ** 2)
            raw = u[idx[:, :, None], sites] @ v[sites[:, None], idx[:, None, :]]
            raw *= -delta[m - 2] / delta[m - 1]
            counts = np.bincount(idx[0] % n, minlength=n)
            for lo, hi in zip(np.cumsum(counts) - counts, np.cumsum(counts)):
                # cur (x) I on the run of one last site
                raw[:, lo:hi, lo:hi] += cur[idx[:, lo:hi, None] // n, idx[:, None, lo:hi] // n]
            parts.append((idx, raw))
    cur = u = v = None  # the last level's dense factors go before the checks
    stacks = [p for _, p in parts]
    idem = rel_residual([p @ p - p for p in stacks], stacks)
    trace = sum(np.trace(p, axis1=1, axis2=2).sum() for p in stacks)
    nearest = np.round(trace.real)
    # a rank is read only off a projector with an integer trace
    rank = int(nearest) if idem <= PRODUCT_TOL and abs(trace - nearest) <= 1e-6 else None
    report = ResidualReport()
    report.add("symmetrizer_idempotent", idem, PRODUCT_TOL)
    report.add("symmetrizer_rank", 1.0 if rank is None else float(abs(rank - dims_p(n, N)[N])), 0.0)
    # each row lies in one block and holds that block's columns, so the CSR
    # arrays are written from the blocks: an entry goes to its row's slice, at
    # the rank of its column among the block's indices
    dim = n ** N
    indptr = np.zeros(dim + 1, dtype=np.int32)
    for idx, _ in parts:
        indptr[idx + 1] = idx.shape[1]
    np.cumsum(indptr, out=indptr)
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1], dtype=stacks[0].dtype)
    for idx, p in parts:
        slot = np.argsort(np.argsort(idx, axis=1), axis=1).astype(np.int32)
        at = indptr[idx][:, :, None] + slot[:, None, :]
        indices[at] = idx[:, None, :]
        data[at] = p
    matrix = sp.csr_matrix((data, indices, indptr), shape=(dim, dim))
    matrix.eliminate_zeros()
    projector = ChainOp(n=n, N=N, matrix=matrix, label=f"P+^{N}")
    return SymmetrizerResult(projector=projector, rank=rank, report=report)

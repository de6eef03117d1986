"""Temperley-Lieb generator on two sites and its embeddings in a chain.

The two-site generator is the rank-one operator X with entries
X[(c,d),(x,y)] = b[c,d] * b_inv[x,y]; it satisfies X^2 = tau X for
tau = tr(b^t b^{-1}), and X_j X_{j+-1} X_j = X_j holds for every invertible
b with no further condition.  Chain operators are stored sparse (CSR) up to
a size budget; ``embed`` is the one way a two-site operator is placed on a
chain, and dense placements are its ``to_dense()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .bform import BForm
from .linalg import (
    DENSE_SIZE_BUDGET,
    GLOBAL_TOL,
    SPARSE_SIZE_BUDGET,
    check_size_budget,
    max_abs,
    rel_residual,
    require_finite,
)
from .reports import ResidualReport


@dataclass(frozen=True)
class LocalOp:
    """Dense operator on C^n (x) C^n."""

    n: int
    mat: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        d = self.n * self.n
        if self.mat.shape != (d, d):
            raise ValueError(f"LocalOp {self.label!r}: expected shape {(d, d)}, got {self.mat.shape}")
        require_finite(self.mat, f"LocalOp {self.label!r}")
        self.mat.setflags(write=False)


@dataclass(frozen=True)
class ChainOp:
    """Operator on (C^n)^(x)N, stored as a sparse CSR matrix.

    A holder with no arithmetic: sums and products are taken on ``matrix``.
    """

    n: int
    N: int
    matrix: sp.csr_matrix
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.matrix.shape != (self.dim, self.dim):
            raise ValueError(f"ChainOp {self.label!r}: matrix shape {self.matrix.shape} != {self.dim}")

    @property
    def dim(self) -> int:
        return self.n ** self.N

    def to_dense(self) -> np.ndarray:
        """Dense form, within DENSE_SIZE_BUDGET."""
        check_size_budget(self.dim, DENSE_SIZE_BUDGET, f"densifying {self.label or 'chain operator'}")
        return self.matrix.toarray()

    def is_hermitian(self) -> bool:
        """Whether the largest entry of M - M^H is at most 1e-12."""
        return max_abs(self.matrix - self.matrix.conj().T) <= 1e-12


def local_X(f: BForm) -> LocalOp:
    """The rank-one two-site generator built from b and b^{-1}."""
    mat = np.outer(f.b.ravel(), f.b_inv.ravel())
    return LocalOp(n=f.n, mat=mat, label="X")


def embed(op: LocalOp, j: int, N: int) -> ChainOp:
    """Place a two-site operator on sites (j, j+1) of an N-site chain, 1-indexed.

    Returns I^(x)(j-1) (x) op (x) I^(x)(N-j-1) in CSR form, within
    SPARSE_SIZE_BUDGET; stored nonzeros equal nnz(op) * n^(N-2).
    """
    n = op.n
    if N < 2:
        raise ValueError("embedding needs N >= 2")
    if not 1 <= j <= N - 1:
        raise ValueError(f"site index j={j} outside 1..{N - 1}")
    dim = n ** N
    check_size_budget(dim, SPARSE_SIZE_BUDGET, "embed")
    d, right = n * n, n ** (N - j - 1)
    # nonzeros enumerated over (left, a, right, b): rows ascend, and columns
    # ascend within each row, so the arrays are already canonical CSR
    mask = np.broadcast_to((op.mat != 0)[None, :, None, :], (n ** (j - 1), d, right, d))
    l, a, r, b = np.nonzero(mask)
    indptr = np.searchsorted((l * d + a) * right + r, np.arange(dim + 1))
    matrix = sp.csr_matrix((op.mat[a, b], (l * d + b) * right + r, indptr), shape=(dim, dim))
    return ChainOp(n=n, N=N, matrix=matrix, label=f"{op.label}_{j}")


def check_tl_relations(f: BForm, N: int) -> ResidualReport:
    """Residuals of the defining relations for all generators on N sites.

    Checks, with relative max-abs residuals, each against GLOBAL_TOL (1e-10):
    X_j^2 + nu(q) X_j for every j, the sandwich relation X_j X_k X_j - X_j
    for adjacent (j, k), and the commutator [X_j, X_k] for |j - k| > 1.
    """
    if N < 3:
        raise ValueError("the sandwich relation needs N >= 3")
    x = local_X(f)
    xs = {j: embed(x, j, N).matrix for j in range(1, N)}
    report = ResidualReport()
    nu = f.nu
    for j in range(1, N):
        sq = xs[j] @ xs[j]
        report.add(
            f"tl_square_j{j}",
            rel_residual(sq + nu * xs[j], [sq, nu * xs[j]]),
            GLOBAL_TOL,
        )
    for j in range(1, N):
        for k in (j - 1, j + 1):
            if not 1 <= k <= N - 1:
                continue
            triple = xs[j] @ xs[k] @ xs[j]
            report.add(
                f"tl_sandwich_j{j}_k{k}",
                rel_residual(triple - xs[j], [triple, xs[j]]),
                GLOBAL_TOL,
            )
    for j in range(1, N):
        for k in range(j + 2, N):
            ab = xs[j] @ xs[k]
            ba = xs[k] @ xs[j]
            report.add(f"tl_commute_j{j}_k{k}", rel_residual(ab - ba, [ab, ba]), GLOBAL_TOL)
    return report

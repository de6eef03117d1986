"""Temperley-Lieb generator on two sites and its embeddings in a chain.

The two-site generator is the rank-one operator X with entries
X[(c,d),(x,y)] = b[c,d] * b_inv[x,y]; it satisfies X^2 = tau X for
tau = tr(b^t b^{-1}), and X_j X_{j+-1} X_j = X_j holds for every invertible
b with no further condition.  Chain operators are stored sparse (CSR) up to
a size budget.  One index rule places a two-site operator on a chain, with
two materializations: ``embed`` writes its CSR, and ``_embed_dense`` the
same operator dense, byte for byte ``embed(...).to_dense()``, for the
few-site checks that need no CSR.  The relations are evaluated on
``linalg._Csr`` operators, whose ``@``, ``+`` and ``-`` are scipy's own on
CSR matrices, bit for bit, through its compiled kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .bform import BForm
from .errors import SizeBudgetExceeded
from .linalg import (
    DENSE_SIZE_BUDGET,
    GLOBAL_TOL,
    SPARSE_SIZE_BUDGET,
    TOWER_NNZ_BUDGET,
    _Csr,
    check_size_budget,
    rel_residual,
    require_finite,
)
from .reports import ResidualReport

if TYPE_CHECKING:
    import scipy.sparse as sp


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
        """Whether M - M^H is within 1e-12 of M's largest entry (``rel_residual``)."""
        return rel_residual(self.matrix - self.matrix.conj().T, [self.matrix]) <= 1e-12


def local_X(f: BForm) -> LocalOp:
    """The rank-one two-site generator built from b and b^{-1}."""
    mat = np.outer(f.b.ravel(), f.b_inv.ravel())
    return LocalOp(n=f.n, mat=mat, label="X")


def embed(op: LocalOp, j: int, N: int) -> ChainOp:
    """Place a two-site operator on sites (j, j+1) of an N-site chain, 1-indexed.

    Returns I^(x)(j-1) (x) op (x) I^(x)(N-j-1) in CSR form, within
    SPARSE_SIZE_BUDGET; stored nonzeros equal nnz(op) * n^(N-2).
    """
    import scipy.sparse as sp
    dim = op.n ** N
    rows, cols, values = _placement(op, j, N, SPARSE_SIZE_BUDGET, "embed")
    indptr = np.searchsorted(rows, np.arange(dim + 1))
    matrix = sp.csr_matrix((values, cols, indptr), shape=(dim, dim))
    return ChainOp(n=op.n, N=N, matrix=matrix, label=f"{op.label}_{j}")


def _embed_dense(op: LocalOp, j: int, N: int) -> np.ndarray:
    """``embed(op, j, N).to_dense()`` byte for byte, written straight into zeros, within DENSE_SIZE_BUDGET.

    Each nonzero of op is added into a zero where ``embed`` places it, as
    scipy's densification adds each stored entry, so a -0.0 part of it
    reads +0.0; every other entry is +0.0.
    """
    dim = op.n ** N
    rows, cols, values = _placement(op, j, N, DENSE_SIZE_BUDGET, f"densifying {op.label}_{j}")
    out = np.zeros((dim, dim), dtype=op.mat.dtype)
    out[rows, cols] += values
    return out


def _placement(op: LocalOp, j: int, N: int, budget: int, what: str) -> tuple:
    """Rows, columns and values of the nonzeros of I^(x)(j-1) (x) op (x) I^(x)(N-j-1), n^N within ``budget``.

    With d = n^2 and right = n^(N-j-1), op[a, b] lands at row
    (l d + a) right + r and column (l d + b) right + r for every left index
    l and right index r.  The nonzeros are enumerated over (l, a, r, b):
    rows ascend, and columns ascend within each row (canonical CSR order).
    """
    n = op.n
    if N < 2:
        raise ValueError("embedding needs N >= 2")
    if not 1 <= j <= N - 1:
        raise ValueError(f"site index j={j} outside 1..{N - 1}")
    check_size_budget(n ** N, budget, what)
    d, right = n * n, n ** (N - j - 1)
    mask = np.broadcast_to((op.mat != 0)[None, :, None, :], (n ** (j - 1), d, right, d))
    l, a, r, b = np.nonzero(mask)
    return (l * d + a) * right + r, (l * d + b) * right + r, op.mat[a, b]


def check_tl_relations(f: BForm, N: int) -> ResidualReport:
    """Residuals of the defining relations for all generators on N sites.

    Checks, with relative max-abs residuals, each against GLOBAL_TOL (1e-10):
    X_j^2 + nu(q) X_j for every j, the sandwich relation X_j X_k X_j - X_j
    for adjacent (j, k), and the commutator [X_j, X_k] for |j - k| > 1.
    Each relation is evaluated once, on the fewest sites that hold it: the
    square on two, the sandwiches on three and the commutator on four.  On
    N sites each product is that local one placed by ``embed`` with identity
    factors around it, its entries summed over the same terms in the same
    order, so the residual is the same for every j, bit for bit.  Each
    three-site product stores up to nnz(X) n^2 entries (nnz(b) n rows times
    nnz(b^{-1}) n columns) and each four-site product, X (x) X, nnz(X)^2;
    both bounds must lie within TOWER_NNZ_BUDGET, checked before anything
    is placed.  The products, sums and differences are taken on ``_Csr``,
    bit for bit scipy's own operators on the placed matrices.  The commutator
    rows read exactly 0 for every finite b: each entry of X_j X_k with
    |j - k| > 1 is a single product x y, and IEEE multiplication commutes, so
    no defect fails them.
    """
    if N < 3:
        raise ValueError("the sandwich relation needs N >= 3")
    x = local_X(f)
    nnz = np.count_nonzero(x.mat)
    for product, bound in (("X_1 X_2", nnz * f.n ** 2), ("X_1 X_3", nnz ** 2 if N > 3 else 0)):
        if bound > TOWER_NNZ_BUDGET:
            raise SizeBudgetExceeded(f"check_tl_relations: {product} needs {bound} nonzeros, budget {TOWER_NNZ_BUDGET}")
    x1 = _Csr.of(embed(x, 1, 2).matrix)
    sq = x1 @ x1
    # data * nu, the operand order of scipy's nu * x1: with FMA, a complex
    # product is not commutative bit for bit
    nu_x1 = x1._replace(data=x1.data * f.nu)
    square = rel_residual(sq + nu_x1, [sq, nu_x1])
    xs = {j: _Csr.of(embed(x, j, 3).matrix) for j in (1, 2)}
    sandwich = {}
    for j, k in ((1, 2), (2, 1)):
        triple = xs[j] @ xs[k] @ xs[j]
        sandwich[k - j] = rel_residual(triple - xs[j], [triple, xs[j]])
    if N > 3:
        x1, x3 = (_Csr.of(embed(x, j, 4).matrix) for j in (1, 3))
        ab, ba = x1 @ x3, x3 @ x1
        commute = rel_residual(ab - ba, [ab, ba])
    report = ResidualReport()
    for j in range(1, N):
        report.add(f"tl_square_j{j}", square, GLOBAL_TOL)
    for j in range(1, N):
        for k in (j - 1, j + 1):
            if 1 <= k <= N - 1:
                report.add(f"tl_sandwich_j{j}_k{k}", sandwich[k - j], GLOBAL_TOL)
    for j in range(1, N):
        for k in range(j + 2, N):
            report.add(f"tl_commute_j{j}_k{k}", commute, GLOBAL_TOL)
    return report

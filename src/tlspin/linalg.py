"""Small dense/sparse kernels shared by the operator modules.

Norm convention: operators are compared with the max-abs entry norm, and a
residual is that norm divided by a scale that is clamped away from zero
(``scaled``), so every reported residual is finite and reproducible.
Arithmetic convention: ``_real_if_exact`` decides real or complex once, on
b, b^{-1}, tau, q (``make_bform``) and u (``spectral_R``); every operator
takes the result type of its inputs: float64 for kls and xxz with a real
parameter and for a real file b, complex128 otherwise.
Import convention: the functions that build sparse operators import
scipy.sparse themselves, so ``import tlspin`` loads numpy only.
Sparse products and sums of the checks run on ``_Csr``, a CSR operator as
its three arrays, whose ``@``, ``+`` and ``-`` call scipy's compiled CSR
kernels: bit for bit scipy's own operators, without a sparse matrix object
per result.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import SizeBudgetExceeded

if TYPE_CHECKING:
    import scipy.sparse as sp

# Global working tolerance (epsilon) for identity residuals.
GLOBAL_TOL = 1e-10

# Threshold of the identities whose residuals go through products of several
# three-site, chain-sized or tower operators: braid, Yang-Baxter, cubic,
# antisymmetrizer, RLL, centralizer, Casimir and symmetrizer idempotence.
PRODUCT_TOL = 1e-8

# Largest n**N for which chain operators are materialized in sparse form.
SPARSE_SIZE_BUDGET = 20000

# Largest bound on the nonzeros that the coproduct tower T(N) can store.
TOWER_NNZ_BUDGET = 2 ** 23

# Largest n**N for which densification / dense eigensolves / dense ranks run.
DENSE_SIZE_BUDGET = 4096

# Singular values above RANK_RTOL * sigma_max count toward the numerical rank.
RANK_RTOL = 1e-8

# Floor for residual scales: the smallest positive normal double.
_TINY = float(np.finfo(float).tiny)


def max_abs(a) -> float:
    """Largest entry magnitude of a dense array or sparse matrix, or of every one in a list."""
    if isinstance(a, list):
        return max((max_abs(x) for x in a), default=0.0)
    if hasattr(a, "tocsr"):  # sparse, told apart without loading scipy
        data = a.tocsr().data  # no copy for CSR, which every caller passes
        return float(np.max(np.abs(data))) if data.size else 0.0
    arr = np.asarray(a)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def scaled(num, scale) -> float:
    """``num / scale`` with the scale clamped away from zero."""
    return num / max(scale, _TINY)


def rel_residual(diff, scale_terms: list) -> float:
    """max-abs of ``diff`` (one operator or a list) relative to the largest entry among ``scale_terms``."""
    return scaled(max_abs(diff), max_abs(scale_terms))


def require_finite(arr, label: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{label} contains NaN or Inf entries")


def _real_if_exact(a):
    """``a`` (array or scalar) unchanged, or its real part when its imaginary part is exactly zero."""
    if np.iscomplexobj(a) and not np.any(np.imag(a)):
        return a.real.copy() if isinstance(a, np.ndarray) else a.real
    return a


def _square_matrix(a, label: str) -> np.ndarray:
    """Validated square matrix copy, real when its imaginary part is exactly zero."""
    m = np.array(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{label} must be square, got shape {m.shape}")
    require_finite(m, label)
    return _real_if_exact(m)


def flip_operator(n: int) -> np.ndarray:
    """Permutation matrix exchanging the two factors of C^n (x) C^n."""
    p = np.zeros((n * n, n * n))
    for a in range(n):
        for b in range(n):
            p[a * n + b, b * n + a] = 1.0
    return p


def check_size_budget(dim: int, budget: int, what: str) -> None:
    if dim > budget:
        raise SizeBudgetExceeded(f"{what}: dimension {dim} exceeds budget {budget}")


def numerical_rank(a: np.ndarray) -> int:
    """Count of singular values above RANK_RTOL * sigma_max."""
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


class _Csr(NamedTuple):
    """A square CSR operator as its arrays (indptr, indices, data), trimmed to the stored entries.

    ``@``, ``+`` and ``-`` are one call each of scipy's compiled CSR kernels
    (``csr_matmat_maxnnz`` then ``csr_matmat``, ``csr_plus_csr``,
    ``csr_minus_csr``), with the operands, index dtype and capacity of
    scipy's own operators on CSR matrices and none of its Python wrapper: a
    result holds the same entries in the same order, a product's columns
    possibly unsorted within a row, and no exact zeros.  Results are views
    of the kernels' output, not copies.  ``tocsr`` returns the operator
    itself, so ``max_abs`` reads it as it reads a sparse matrix.  A tuple
    has no ``__iadd__``: ``total += comm`` rebinds through ``__add__``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @classmethod
    def of(cls, m: sp.csr_matrix) -> _Csr:
        """The arrays of a CSR matrix."""
        return cls(m.indptr, m.indices, m.data)

    def tocsr(self) -> _Csr:
        return self

    def __matmul__(self, other: _Csr) -> _Csr:
        from scipy.sparse._sparsetools import csr_matmat, csr_matmat_maxnnz
        dim = self.indptr.size - 1
        indexing = (self.indptr, self.indices, other.indptr, other.indices)
        idx = _index_dtype(indexing, 0)
        nnz = csr_matmat_maxnnz(dim, dim, *(np.asarray(x, dtype=idx) for x in indexing))
        return self._kernel(csr_matmat, other, nnz)

    def __add__(self, other: _Csr) -> _Csr:
        from scipy.sparse._sparsetools import csr_plus_csr
        return self._kernel(csr_plus_csr, other, int(self.indptr[-1]) + int(other.indptr[-1]))

    def __sub__(self, other: _Csr) -> _Csr:
        from scipy.sparse._sparsetools import csr_minus_csr
        return self._kernel(csr_minus_csr, other, int(self.indptr[-1]) + int(other.indptr[-1]))

    def _kernel(self, kernel, other: _Csr, capacity: int) -> _Csr:
        """One call of a compiled CSR kernel on self and other, into new arrays of ``capacity`` entries."""
        dim = self.indptr.size - 1
        indexing = (self.indptr, self.indices, other.indptr, other.indices)
        idx = _index_dtype(indexing, capacity)
        ap, ai, bp, bi = (np.asarray(x, dtype=idx) for x in indexing)
        indptr, indices = np.empty(dim + 1, dtype=idx), np.empty(capacity, dtype=idx)
        data = np.empty(capacity, dtype=np.result_type(self.data, other.data))
        kernel(dim, dim, ap, ai, self.data, bp, bi, other.data, indptr, indices, data)
        return _Csr(indptr, indices[:indptr[-1]], data[:indptr[-1]])


def _index_dtype(arrays: tuple, maxval: int) -> type:
    """scipy's index dtype for CSR kernels on ``arrays`` writing up to ``maxval``: int32 unless either needs int64."""
    fits = maxval <= np.iinfo(np.int32).max and all(np.can_cast(x.dtype, np.int32) for x in arrays)
    return np.int32 if fits else np.int64


def _blocks(matrix: sp.spmatrix) -> list[np.ndarray]:
    """Ascending index sets of the connected components of the pattern of M + M^T.

    One routine serves three graphs: the sparsity pattern of the Hamiltonian
    in ``chain.spectrum``, the links between close eigenvalues in
    ``chain._cluster_eigenvalues``, and the stacked patterns of the
    generators X_j for the symmetrizer (``rep_ring._blocks_by_level``).  Only
    the positions of the stored entries count, and they may repeat.  Each index
    starts as its own label and takes the smallest label among itself and
    its neighbours, and labels are then chased to their roots (pointer
    jumping), until a sweep changes nothing; every index of a component then
    carries one root label, its smallest index, and the sets come in the
    order of that index.  A COO matrix is read as it is.
    """
    import scipy.sparse as sp
    dim = matrix.shape[0]
    coo = matrix.tocoo()
    rows = np.concatenate([coo.row, coo.col, np.arange(dim)])
    cols = np.concatenate([coo.col, coo.row, np.arange(dim)])
    pattern = sp.csr_matrix((np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(dim, dim))
    labels = np.arange(dim)
    while True:
        swept = np.minimum.reduceat(labels[pattern.indices], pattern.indptr[:-1])
        while not np.array_equal(swept[swept], swept):
            swept = swept[swept]
        if np.array_equal(swept, labels):
            break
        labels = swept
    _, counts = np.unique(labels, return_counts=True)
    return np.split(np.argsort(labels, kind="stable"), np.cumsum(counts)[:-1])

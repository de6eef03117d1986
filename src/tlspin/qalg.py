"""L-operator, coproduct tower, Casimir, and centralizer checks.

The L-operator is L = P R with P the two-factor flip; viewed as an n x n
matrix over the auxiliary (first) space its entries are n x n matrices
acting on the local quantum space.  Multiplying N copies of L over the
auxiliary space, with the copy on chain site m placed m-th from the right,
yields the global coproduct tower T(N) whose entries generate the symmetry
algebra of the open chain: they commute with every braid generator
R_{k,k+1} and hence with the chain Hamiltonian.

Chain site index increases rightward in Kronecker products, so at N = 2 the
entry T(2)[a, b] equals sum_k L[k, b] (x) L[a, k].  In general each new site
enters on the left, as site 1,

    T(m)[a, b] = sum_k L[k, b] (x) T(m-1)[a, k],

which by coassociativity equals the right-appended Kronecker sum
sum_k T(m-1)[k, b] (x) L[a, k] (check_coassociativity compares the two).
Entry (a, b) is then the n x n block matrix whose block (x, y) is
sum_k L[k, b][x, y] * T(m-1)[a, k], in the dtype of L.  When the bound on
the tower's nonzeros fills every entry (as it does when every block of L
is full, for a dense b), each level is one dense contraction.
Otherwise (the graded kls and xxz towers) each level is written as
canonical CSR by one call of scipy's compiled CSR hstack kernel per block
row: no Kronecker product and no index gather is formed.  Row a of T(m)
reads only row a of T(m-1), so the tower is built one auxiliary row at a
time, and coproduct_T converts each dense row of a full tower's last level
to CSR before the next is contracted.

The centralizer check meets every R_k = q I + X_k as X_k, and H = sum_k X_k
as the sum of the bond commutators; it places the bonds X_k once, dense
on at most DENSE_CENTRALIZER_DIM states and CSR above, and takes the scale
of H from their sum.  It contracts a full tower, and any tower of at most
DENSE_CENTRALIZER_DIM states, densely, and applies X_k to a dense entry
through its rank one, X = vec(b) vec(b^{-1})^t: one contraction of two
sites of t with a vector and one outer product on each side.  Larger
graded towers take X_k t - t X_k on ``linalg._Csr``, scipy's compiled
SpGEMM and sum kernels, bit for bit scipy's own operators.

The Casimir is the contraction C[a, b] = sum_{jkl} b^{-1}[a, j] T[j, k] b[k, l] T[b, l]
over the auxiliary space, one block product of a dense grid, L's own blocks
or the densified T(2) (``_casimir_grid``); it equals c2 delta_ab I, and c2
is group-like.  ``casimir_grouplike`` reads every one-site row off one
contraction.  Every check returns its ResidualReport, and a misfit is a
failing row of it, never a raise.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .bform import BForm
from .errors import SizeBudgetExceeded, UnsupportedDimension
from .linalg import (
    GLOBAL_TOL,
    PRODUCT_TOL,
    SPARSE_SIZE_BUDGET,
    TOWER_NNZ_BUDGET,
    _Csr,
    check_size_budget,
    flip_operator,
    max_abs,
    numerical_rank,
    rel_residual,
    scaled,
)
from .reports import ResidualReport
from .rmatrix import constant_R, projectors
from .tl_rep import ChainOp, LocalOp, _embed_dense, embed, local_X

if TYPE_CHECKING:
    import scipy.sparse as sp

# Auxiliary-space block names, row-major over the 3 x 3 grid.
GENERATOR_GRID = (("A1", "B1", "B3"), ("C1", "A2", "B2"), ("C3", "C2", "A3"))

# Largest n^N at which check_centralizer contracts a graded tower densely:
# below it, scipy's cost per call outweighs the arithmetic of a dense entry.
DENSE_CENTRALIZER_DIM = 128


@dataclass(frozen=True)
class AuxOperatorMatrix:
    """Square grid of chain operators indexed by the auxiliary space."""

    n_a: int
    N: int
    entries: tuple

    def __post_init__(self) -> None:
        if len(self.entries) != self.n_a or any(len(row) != self.n_a for row in self.entries):
            raise ValueError("entries must form an n_a x n_a grid")
        for row in self.entries:
            for op in row:
                if op.N != self.N:
                    raise ValueError("all grid entries must share the chain length N")

    def entry(self, a: int, b: int) -> ChainOp:
        return self.entries[a][b]

    def dense_entry(self, a: int, b: int) -> np.ndarray:
        return self.entries[a][b].to_dense()


def l_matrix(f: BForm) -> LocalOp:
    """The full L = P R as a dense operator on aux (x) quantum."""
    mat = flip_operator(f.n) @ constant_R(f).mat
    return LocalOp(f.n, mat, label="L")


def _l_blocks(f: BForm) -> np.ndarray:
    """(n, n, n, n) array of auxiliary blocks: blocks[a, b] acts on the quantum space."""
    n = f.n
    return l_matrix(f).mat.reshape(n, n, n, n).transpose(0, 2, 1, 3)


def generator_blocks(f: BForm) -> dict[str, np.ndarray]:
    """The nine 3 x 3 blocks of L, in its dtype, keyed by their GENERATOR_GRID names (n = 3 only)."""
    if f.n != 3:
        raise UnsupportedDimension("named generator blocks are defined for n = 3")
    return {name: block for names, row in zip(GENERATOR_GRID, _l_blocks(f)) for name, block in zip(names, row)}


def coproduct_T(f: BForm, N: int) -> AuxOperatorMatrix:
    """The N-fold coproduct tower T(N) as an auxiliary-space grid of canonical CSR.

    Built iteratively: T(1) is the block grid of L, and each further site
    enters on the left of the Kronecker product (rightmost in the auxiliary
    product), T(m)[a, b] = sum_k L[k, b] (x) T(m-1)[a, k], which by
    coassociativity is the same T(m) as appending it on the right.  A full
    tower is contracted densely and a graded one written level by level as
    CSR (``_tower``), in the dtype of L; a dense row is converted to CSR as
    it arrives, before the next is contracted.  n^N must lie within
    SPARSE_SIZE_BUDGET, and the bound on its nonzeros that the counts of L's
    blocks give within TOWER_NNZ_BUDGET, checked before any level is built.
    """
    # map holds no row once it is converted, so one dense row lives at a time
    grid = list(map(lambda row: row if isinstance(row, list) else [_csr(t) for t in row], _tower(f, N)))
    entries = tuple(
        tuple(ChainOp(n=f.n, N=N, matrix=grid[a][b], label=f"T{N}[{a + 1},{b + 1}]") for b in range(f.n))
        for a in range(f.n)
    )
    return AuxOperatorMatrix(n_a=f.n, N=N, entries=entries)


def _tower(f: BForm, N: int, dense: bool = False) -> Iterator[np.ndarray | list]:
    """The rows of T(N), one at a time: (n, n^N, n^N) arrays when the tower is full, else lists of n canonical CSR.

    The bound S(m) = min(S(m-1) S(1), n^(2m)) on the nonzeros of each entry,
    S(1) the nonzero counts of L's blocks, decides, before anything is
    allocated: T(N) is full when S(N) fills every entry, as for a dense b.
    Row a of T(m) reads only row a of T(m-1), so each row is carried up the
    levels on its own, by one dense contraction a level when the tower is
    full or ``dense`` is set, and otherwise by ``_left_append``.
    """
    n = f.n
    if N < 1:
        raise ValueError("coproduct tower needs N >= 1")
    check_size_budget(n ** N, SPARSE_SIZE_BUDGET, "coproduct_T")
    blocks = _l_blocks(f)
    # nnz T(m)[a, b] <= sum_k nnz T(m-1)[a, k] nnz L[k, b], and at most dim^2
    counts = bound = np.count_nonzero(blocks, axis=(2, 3))
    for m in range(2, N + 1):
        bound = np.minimum(bound @ counts, n ** (2 * m))
    if bound.sum() > TOWER_NNZ_BUDGET:
        raise SizeBudgetExceeded(f"coproduct_T: up to {bound.sum()} nonzeros exceed budget {TOWER_NNZ_BUDGET}")
    full = dense or (bound == n ** (2 * N)).all()
    for a in range(n):
        row = blocks[a] if full else [_csr(blocks[a, b]) for b in range(n)]
        for _ in range(2, N + 1):
            if full:
                # block (x, y) of T(m)[a, b] is sum_k L[k, b][x, y] T(m-1)[a, k];
                # C order makes the reshape a view
                d = n * row.shape[1]
                row = np.einsum("kbxy,kij->bxiyj", blocks, row, order="C").reshape(n, d, d)
            else:
                row = [_left_append(row, blocks[:, b]) for b in range(n)]
        yield row


def _csr(a: np.ndarray) -> sp.csr_matrix:
    """Dense ``a`` as canonical CSR with no stored zeros: the arrays of ``sp.csr_matrix(a)``, without its COO pass.

    Every tower entry fits int32 indices, which scipy also chooses there.
    """
    import scipy.sparse as sp
    mask = a != 0
    indptr = np.zeros(a.shape[0] + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(mask, axis=1), out=indptr[1:])
    # one flat index per entry, reduced in place to its column
    cols = np.flatnonzero(mask)
    cols %= a.shape[1]
    return sp.csr_matrix((a[mask], cols.astype(np.int32), indptr), shape=a.shape)


def _left_append(row: list, column: np.ndarray) -> sp.csr_matrix:
    """sum_k column[k] (x) row[k] in canonical CSR, for n x n blocks column[k] = L[k, b].

    The result is the n x n block matrix whose block (x, y) is
    sum_k L[k, b][x, y] * row[k], in the result type of L and row.  A block
    with one nonzero coefficient is row[k] scaled by it, one with several the
    canonical CSR sum of its scaled parts in k order, and one with none is
    empty.  Each block row is one call of scipy's compiled CSR hstack kernel,
    which reads the block row's scaled data from one buffer and writes its
    indices and data straight into their slice of the output.  Exact zeros
    (cancellation or underflow) are dropped.
    """
    import scipy.sparse as sp
    from scipy.sparse._sparsetools import csr_hstack
    n = column.shape[0]
    d = row[0].shape[0]
    dtype = np.result_type(column, row[0].dtype)
    idx = row[0].indices.dtype
    terms = [[[] for _ in range(n)] for _ in range(n)]
    for x, y, k in zip(*np.nonzero(column.transpose(1, 2, 0))):
        terms[x][y].append((row[k], column[k, x, y]))
    no_entry = np.zeros(d + 1, dtype=idx)
    empty = (no_entry, no_entry[:0], np.empty(0, dtype=dtype), None)
    blocks = [[_block(t, empty) for t in line] for line in terms]
    nnz = np.cumsum([0] + [sum(b[2].size for b in line) for line in blocks])
    indptr = np.empty(n * d + 1, dtype=idx)
    indices = np.empty(nnz[-1], dtype=idx)
    data = np.empty(nnz[-1], dtype=dtype)
    widths = np.full(n, d, dtype=idx)
    for x, line in enumerate(blocks):
        scaled_data = np.empty(nnz[x + 1] - nnz[x], dtype=dtype)
        offset = 0
        for _, _, values, c in line:
            part = scaled_data[offset:offset + values.size]
            if c is None:
                part[...] = values
            else:
                np.multiply(values, c, out=part)
            offset += values.size
        ptr = indptr[x * d:(x + 1) * d + 1]
        csr_hstack(
            n, d, widths,
            np.concatenate([b[0] for b in line], dtype=idx),
            np.concatenate([b[1] for b in line], dtype=idx),
            scaled_data, ptr, indices[nnz[x]:nnz[x + 1]], data[nnz[x]:nnz[x + 1]],
        )
        # the kernel counts from 0; its first entry overwrites the last of the block row above
        ptr += nnz[x]
    matrix = sp.csr_matrix((data, indices, indptr), shape=(n * d, n * d))
    if not matrix.data.all():
        matrix.eliminate_zeros()
    return matrix


def _block(terms: list, empty: tuple) -> tuple:
    """One block of ``_left_append`` from its (row[k], coefficient) terms, as (indptr, indices, data, coefficient).

    One term is row[k] with its coefficient still to apply; several are the
    canonical CSR sum of their scaled parts in k order, with no coefficient
    left (None); none is ``empty``.
    """
    if len(terms) == 1:
        (m, c), = terms
        return m.indptr, m.indices, m.data, c
    if not terms:
        return empty
    total = terms[0][0] * terms[0][1]
    for m, c in terms[1:]:
        total = total + m * c
    return total.indptr, total.indices, total.data, None


def check_centralizer(f: BForm, N: int) -> ResidualReport:
    """Commutators of every R_{k,k+1} and of H with every tower entry.

    Reports one relative residual per (k, a, b) triple plus one per (a, b)
    for the Hamiltonian, each against PRODUCT_TOL (1e-8); all must vanish
    for the tower to centralize the braid generators.  R_k = q I + X_k and
    q I commutes with t, so [R_k, t] is taken as [X_k, t], and [H, t] as
    the running sum of the bond commutators (H = sum_k X_k); the scales are
    max_abs(R_k) and max_abs(H) times the tower scale, H the sum of the
    bonds X_k as ``chain.hamiltonian`` forms it, the bonds written dense
    on at most DENSE_CENTRALIZER_DIM states and as CSR above.  The entries
    of a full tower, and of every tower of at most DENSE_CENTRALIZER_DIM
    states, are contracted densely and meet X_k through its rank one
    (``_x_commutator``); a larger graded tower takes X_k t - t X_k on
    ``_Csr``.  The tower is read one auxiliary row at a time, with one
    commutator and one sum of them alive for its current entry.
    """
    if N < 2:
        raise ValueError("centralizer check needs N >= 2")
    n = f.n
    small = n ** N <= DENSE_CENTRALIZER_DIM
    op = local_X(f)
    xs = [_embed_dense(op, k, N) if small else _Csr.of(embed(op, k, N).matrix) for k in range(1, N)]
    # largest entry of [X_k, t] for k = 1 .. N-1, then of [H, t]
    comm_max = np.empty((N, n, n))
    tower_scale = 0.0
    for a, row in enumerate(_tower(f, N, dense=small)):
        for b, t in enumerate(row):
            tower_scale = max(tower_scale, max_abs(t))
            dense = isinstance(t, np.ndarray)
            t = t if dense else _Csr.of(t)
            total = None
            for k, x in enumerate(xs, 1):
                comm = _x_commutator(f, t, k) if dense else x @ t - t @ x
                comm_max[k - 1, a, b] = max_abs(comm)
                if total is None:
                    total = comm
                else:
                    total += comm  # in place for a dense entry
            comm_max[N - 1, a, b] = max_abs(total)
        del row, t, comm, total  # nothing of this row stays alive while the next is contracted
    # residuals are relative to the tower's global scale: an entry that is
    # structurally zero must not be divided by its own vanishing magnitude
    scales = [max_abs(constant_R(f).mat) * tower_scale] * (N - 1) + [max_abs(sum(xs[1:], xs[0])) * tower_scale]
    report = ResidualReport()
    for name, raw, scale in zip([f"R{k}" for k in range(1, N)] + ["H"], comm_max, scales):
        for a in range(n):
            for b in range(n):
                report.add(f"centralizer_{name}_T[{a + 1},{b + 1}]", scaled(raw[a, b], scale), PRODUCT_TOL)
    return report


def _x_commutator(f: BForm, t: np.ndarray, k: int) -> np.ndarray:
    """[X_k, t] for a dense chain operator t, through the rank one of X = vec(b) vec(b^{-1})^t.

    X_k t contracts the row sites (k, k+1) of t with vec(b^{-1}) and spreads
    the result over them by vec(b); t X_k contracts its column sites with
    vec(b) and spreads by vec(b^{-1}).  No chain-sized X_k is formed.
    """
    n, d = f.n, t.shape[0]
    left = n ** (k - 1)
    vec_b, vec_b_inv = f.b.ravel(), f.b_inv.ravel()
    # t as (left, (x, y), (right, column)), and as ((row, left), (x, y), right)
    xt = vec_b[:, None] * (vec_b_inv @ t.reshape(left, n * n, -1))[:, None, :]
    tx = (vec_b @ t.reshape(d * left, n * n, -1))[:, None, :] * vec_b_inv[:, None]
    comm = xt.reshape(d, d)
    comm -= tx.reshape(d, d)
    return comm


@dataclass(frozen=True)
class CasimirResult:
    """Scalar central value extracted from the bilinear contraction of L."""

    c2: complex
    report: ResidualReport


def _casimir_grid(f: BForm, g: np.ndarray) -> np.ndarray:
    """C[a, b] = sum_{jkl} b_inv[a, j] g[j, k] b[k, l] g[b, l] for a dense (n, n, dim, dim) grid g, one block product.

    With G the block matrix of the grid and G^bt its block transpose (block
    (l, b) is g[b, l], not transposed), C = (b^{-1} (x) I) G (b (x) I) G^bt.
    """
    n, _, dim, _ = g.shape
    blocks = g.transpose(0, 2, 1, 3).reshape(n * dim, n * dim)
    blocks_bt = g.transpose(1, 2, 0, 3).reshape(n * dim, n * dim)
    eye = np.eye(dim)
    c = np.kron(f.b_inv, eye) @ blocks @ np.kron(f.b, eye) @ blocks_bt
    return c.reshape(n, dim, n, dim).transpose(0, 2, 1, 3)


def _scalar_misfit(grid: np.ndarray, c: complex) -> float:
    """Relative misfit of a dense (n, n, dim, dim) grid from c delta_ab I."""
    n, _, dim, _ = grid.shape
    return rel_residual(grid - c * np.eye(n)[:, :, None, None] * np.eye(dim), [grid])


def _scalar_casimir(f: BForm, grid: np.ndarray) -> CasimirResult:
    """The mean diagonal trace c2 of the contraction ``grid``, and its checks; see ``casimir``."""
    n, _, dim, _ = grid.shape
    c2 = complex(np.mean([np.trace(grid[a, a]) / dim for a in range(n)]))
    report = ResidualReport()
    report.add("casimir_scalar", _scalar_misfit(grid, c2), PRODUCT_TOL)
    if f.family == "kls" and dim == n:
        report.add("casimir_value_q", scaled(abs(c2 - f.q), abs(f.q)), PRODUCT_TOL)
    return CasimirResult(c2=c2, report=report)


def _dense_grid(aux: AuxOperatorMatrix) -> np.ndarray:
    """The (n, n, dim, dim) array of the densified entries of ``aux``."""
    return np.array([[op.to_dense() for op in row] for row in aux.entries])


def casimir(f: BForm, *, aux: AuxOperatorMatrix | None = None) -> CasimirResult:
    """The scalar c2 of the Casimir contraction of the grid ``aux``, and its checks.

    ``aux`` defaults to the one-site tower, contracted as L's own blocks; a
    grid that is passed is densified.  c2 is the mean of the diagonal traces
    of the contraction (``_casimir_grid``), which must equal c2 delta_ab I:
    the ``casimir_scalar`` row holds its relative misfit to PRODUCT_TOL
    (1e-8).  For the kls family the one-site c2 also equals q, the
    ``casimir_value_q`` row, against the same threshold.
    """
    g = _l_blocks(f) if aux is None else _dense_grid(aux)
    return _scalar_casimir(f, _casimir_grid(f, g))


def casimir_grouplike(f: BForm) -> tuple[CasimirResult, CasimirResult, ResidualReport]:
    """The one-site Casimir c2, the two-site one, and their checks.

    The Casimir is group-like: its contraction C2 on the two-site tower T(2)
    must be c2^2 delta_ab I, the ``casimir_grouplike`` row, the relative
    misfit of C2 from it within PRODUCT_TOL (1e-8); it holds both that C2 is
    a scalar and that the scalar is c2^2.  The two-site result carries the
    mean diagonal trace of C2.  The report holds the one-site checks
    followed by ``casimir_grouplike`` and, for the kls family,
    ``casimir_combination``: entry (1, 1) of the one-site contraction equals
    q I within the same threshold.  b^{-1}[1, j] is nonzero only at j = 3
    and b only on the antidiagonal, so that entry is the combination
    p (A3 A1 / p + C2 B1 + p C3 B3) of the GENERATOR_GRID blocks, p = b[1, 3].
    Each tower is contracted once.
    """
    grid = _casimir_grid(f, _l_blocks(f))
    cas = _scalar_casimir(f, grid)
    two = _casimir_grid(f, _dense_grid(coproduct_T(f, 2)))
    cas2 = _scalar_casimir(f, two)
    report = ResidualReport(list(cas.report.checks))
    report.add("casimir_grouplike", _scalar_misfit(two, cas.c2 ** 2), PRODUCT_TOL)
    if f.family == "kls":
        comb, target = grid[0, 0], f.q * np.eye(3)
        report.add("casimir_combination", rel_residual(comb - target, [comb, target]), PRODUCT_TOL)
    return cas, cas2, report


def check_rll(f: BForm) -> ResidualReport:
    """Exchange relation R12 L1 L2 = L1 L2 R12 on aux (x) aux (x) quantum, within PRODUCT_TOL (1e-8).

    L2 is L on sites (2, 3); L1 is L on sites (1, 3), the placement on
    (1, 2) conjugated by the flip of sites 2 and 3.
    """
    l = l_matrix(f)
    p23 = _embed_dense(LocalOp(f.n, flip_operator(f.n), label="P"), 2, 3)
    l1 = p23 @ _embed_dense(l, 1, 3) @ p23
    l2 = _embed_dense(l, 2, 3)
    r12 = _embed_dense(constant_R(f), 1, 3)
    lhs = r12 @ l1 @ l2
    rhs = l1 @ l2 @ r12
    report = ResidualReport()
    report.add("rll", rel_residual(lhs - rhs, [lhs, rhs]), PRODUCT_TOL)
    return report


def check_coassociativity(f: BForm) -> ResidualReport:
    """T(3), built with site 1 entering last, equals T(2) with site 3 appended, within GLOBAL_TOL (1e-10).

    The right-hand side is the Kronecker sum sum_k T(2)[k, b] (x) L[a, k].
    """
    import scipy.sparse as sp
    n = f.n
    t3 = coproduct_T(f, 3)
    t2 = coproduct_T(f, 2)
    blocks = _l_blocks(f)
    # T(2) on sites 1,2 times a single L on site 3
    diffs = [
        t3.entry(a, b).matrix - sum(sp.kron(t2.entry(k, b).matrix, blocks[a, k], format="csr") for k in range(n))
        for a in range(n)
        for b in range(n)
    ]
    report = ResidualReport()
    report.add("coassociativity", rel_residual(diffs, [op.matrix for row in t3.entries for op in row]), GLOBAL_TOL)
    return report


def highest_weight_scan(f: BForm) -> ResidualReport:
    """Orbit of the two-site reference vector under the lowering entries.

    Starting from theta (x) theta with theta = e_1, the iterated actions of
    the lowering blocks T(2)[1,2] and T(2)[2,3] span an (n^2 - 1)-dimensional
    subspace, the remaining direction being the invariant line spanned by the
    flattened b matrix, on which R acts with eigenvalue -1/q.  The orbit
    rank must be exactly 8, the eigenvalue residual within GLOBAL_TOL
    (1e-10) and the other residuals within PRODUCT_TOL (1e-8).  That the
    line is stable under every T(2) entry is ``check_pminus_invariance``.
    """
    if f.n != 3 or f.family != "kls":
        raise UnsupportedDimension("highest-weight scan is implemented for the kls family")
    tower = coproduct_T(f, 2)
    d_b1, d_b2, d_b3 = (tower.dense_entry(a, b) for a, b in ((0, 1), (1, 2), (0, 2)))

    tt = np.eye(9)[0]  # theta (x) theta
    # powers[i][k] = B^k (theta (x) theta), k = 0..4, for B = B1, B2
    powers = []
    for op in (d_b1, d_b2):
        chain = [tt]
        for _ in range(4):
            chain.append(op @ chain[-1])
        powers.append(chain)
    # unit vectors: the lowered vectors grow like p^k, and rank is scale-free
    vectors = [tt] + powers[0][1:] + powers[1][1:]
    stack = np.array([scaled(v, np.linalg.norm(v)) for v in vectors])

    # the double-lowered vectors absorb the mixed lowering direction
    basis = np.array([powers[0][2], powers[1][2]]).T
    w = d_b3 @ tt
    coef, *_ = np.linalg.lstsq(basis, w, rcond=None)
    b3_residual = float(scaled(np.linalg.norm(basis @ coef - w), np.linalg.norm(w)))

    # four lowerings terminate on e_3 (x) e_3, the last basis vector
    terminal = max(float(scaled(np.linalg.norm(chain[4][:-1]), np.linalg.norm(chain[4]))) for chain in powers)

    bvec = f.b.ravel()
    r = constant_R(f).mat
    eig_res = float(scaled(max_abs(r @ bvec - (-1 / f.q) * bvec), np.linalg.norm(bvec)))

    report = ResidualReport()
    report.add("orbit_rank_8", float(abs(numerical_rank(stack) - 8)), 0.0)
    report.add("b3_in_double_lowering_span", b3_residual, PRODUCT_TOL)
    report.add("lowering_terminates_on_e3e3", terminal, PRODUCT_TOL)
    report.add("invariant_line_eigenvalue", eig_res, GLOBAL_TOL)
    return report


def check_pminus_invariance(f: BForm) -> ResidualReport:
    """The rank-one projector image, the line spanned by the flattened b, is
    stable under every T(2) entry, within GLOBAL_TOL (1e-10)."""
    tower = coproduct_T(f, 2)
    comp, pm = (p.mat for p in projectors(f))
    entries = [tower.dense_entry(a, b) for a in range(f.n) for b in range(f.n)]
    report = ResidualReport()
    report.add("pminus_image_stable", rel_residual([comp @ t @ pm for t in entries], entries), GLOBAL_TOL)
    return report

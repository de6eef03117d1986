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
is full, for a dense b), each level is one dense contraction and the
centralizer check multiplies the dense entries by the sparse R_k and H.
Otherwise (the graded kls and xxz towers) each level is written directly
as canonical CSR from row slices of the previous level: no Kronecker
product and no sparse addition is formed.

The Casimir is the contraction C[a, b] = sum_{jkl} b^{-1}[a, j] T[j, k] b[k, l] T[b, l]
over the auxiliary space, one block product of the grid's block matrix
(``_casimir_grid``); it equals c2 delta_ab I, and c2 is group-like.
``casimir_grouplike`` reads every one-site row off one contraction.  Every
check, the highest-weight scan among them, returns its ResidualReport.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .bform import BForm
from .chain import hamiltonian
from .errors import ConventionMismatch, SizeBudgetExceeded, UnsupportedDimension
from .linalg import (
    GLOBAL_TOL,
    PRODUCT_TOL,
    SPARSE_SIZE_BUDGET,
    TOWER_NNZ_BUDGET,
    check_size_budget,
    flip_operator,
    max_abs,
    rel_residual,
    scaled,
)
from .reports import ResidualReport
from .rmatrix import constant_R, projectors
from .tl_rep import ChainOp, LocalOp, embed

# Auxiliary-space block names, row-major over the 3 x 3 grid.
GENERATOR_GRID = (("A1", "B1", "B3"), ("C1", "A2", "B2"), ("C3", "C2", "A3"))


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
    CSR (``_tower``), in the dtype of L.  n^N must lie within
    SPARSE_SIZE_BUDGET, and the bound on its nonzeros that the counts of L's
    blocks give within TOWER_NNZ_BUDGET, checked before any level is built.
    """
    grid = _tower(f, N)
    if isinstance(grid, np.ndarray):
        grid = [[_csr(t) for t in row] for row in grid]
    entries = tuple(
        tuple(ChainOp(n=f.n, N=N, matrix=grid[a][b], label=f"T{N}[{a + 1},{b + 1}]") for b in range(f.n))
        for a in range(f.n)
    )
    return AuxOperatorMatrix(n_a=f.n, N=N, entries=entries)


def _tower(f: BForm, N: int) -> np.ndarray | list:
    """T(N) as an (n, n, n^N, n^N) array when it is full, else as an n x n grid of canonical CSR.

    The bound S(m) = min(S(m-1) S(1), n^(2m)) on the nonzeros of each entry,
    S(1) the nonzero counts of L's blocks, decides, before anything is
    allocated: T(N) is full when S(N) fills every entry, as for a dense b.
    Then each level is one dense contraction, and otherwise each level is
    written as CSR by ``_left_append``.
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
    if (bound == n ** (2 * N)).all():
        tower = blocks
        for _ in range(2, N + 1):
            # block (x, y) of T(m)[a, b] is sum_k L[k, b][x, y] T(m-1)[a, k];
            # C order makes the reshape a view
            d = n * tower.shape[2]
            tower = np.einsum("kbxy,akij->abxiyj", blocks, tower, order="C").reshape(n, n, d, d)
        return tower
    grid = [[_csr(blocks[a, b]) for b in range(n)] for a in range(n)]
    for _ in range(2, N + 1):
        # row a of T(m) reads only row a of T(m-1), which is then dropped
        for a in range(n):
            grid[a] = [_left_append(grid[a], blocks[:, b]) for b in range(n)]
    return grid


def _csr(a: np.ndarray) -> sp.csr_matrix:
    """Dense ``a`` as canonical CSR with no stored zeros: the arrays of ``sp.csr_matrix(a)``, without its COO pass.

    Every tower entry fits int32 indices, which scipy also chooses there.
    """
    rows, cols = np.nonzero(a)
    indptr = np.searchsorted(rows, np.arange(a.shape[0] + 1))
    return sp.csr_matrix((a[rows, cols], cols.astype(np.int32), indptr.astype(np.int32)), shape=a.shape)


def _left_append(row: list, column: np.ndarray) -> sp.csr_matrix:
    """sum_k column[k] (x) row[k] in canonical CSR, for n x n blocks column[k] = L[k, b].

    The result is the n x n block matrix whose block (x, y) is
    sum_k L[k, b][x, y] * row[k], in the result type of L and row.  Its
    segments (x, y, k) are the nonzero coefficients, in that order, and its
    row (x, i) is the run of row i of each segment of block row x, scaled by
    the coefficient and shifted by y blocks; index arithmetic lays the runs
    down.  When each block holds one segment (the graded built-in families)
    the runs are already canonical; otherwise duplicate columns are summed.
    Exact zeros (cancellation or underflow) are dropped.
    """
    n = column.shape[0]
    d = row[0].shape[0]
    x, y, k = np.nonzero(column.transpose(1, 2, 0))
    coef = column[k, x, y]
    # each segment's scaled, shifted copy of its entry, one after another
    parts = [row[kk] for kk in k]
    offset = np.cumsum([0] + [m.nnz for m in parts])
    data = np.empty(offset[-1], dtype=np.result_type(column, row[0].dtype))
    indices = np.empty(offset[-1], dtype=row[0].indices.dtype)
    for s, m in enumerate(parts):
        np.multiply(m.data, coef[s], out=data[offset[s]:offset[s + 1]])
        np.add(m.indices, y[s] * d, out=indices[offset[s]:offset[s + 1]])
    # one run per (output row, segment of its block row), in output order
    count = np.bincount(x, minlength=n)
    row_ptr = np.concatenate(([0], np.cumsum(np.repeat(count, d))))
    out_row = np.repeat(np.arange(n * d), np.diff(row_ptr))
    seg = (np.cumsum(count) - count)[out_row // d] + np.arange(out_row.size) - row_ptr[out_row]
    i = out_row % d
    ptr = np.stack([m.indptr for m in parts])
    start = offset[seg] + ptr[seg, i]
    length = ptr[seg, i + 1] - ptr[seg, i]
    run_ptr = np.concatenate(([0], np.cumsum(length)))
    gather = np.repeat(start - run_ptr[:-1], length) + np.arange(run_ptr[-1])
    indptr = run_ptr[row_ptr].astype(indices.dtype)
    # the gather is in range by construction, so take skips its bounds check
    data = data.take(gather, mode="clip")
    indices = indices.take(gather, mode="clip")
    matrix = sp.csr_matrix((data, indices, indptr), shape=(n * d, n * d))
    if x.size > np.count_nonzero(column.any(axis=0)):
        # some block holds several segments
        matrix.sum_duplicates()
    if not matrix.data.all():
        matrix.eliminate_zeros()
    return matrix


def check_centralizer(f: BForm, N: int) -> ResidualReport:
    """Commutators of every R_{k,k+1} and of H with every tower entry.

    Reports one relative residual per (k, a, b) triple plus one per (a, b)
    for the Hamiltonian, each against PRODUCT_TOL (1e-8); all must vanish
    for the tower to centralize the braid generators.  R_k and H are CSR;
    the entries of a full tower are dense, so its commutators are sparse x
    dense products, and those of a graded tower are SpGEMMs.
    """
    if N < 2:
        raise ValueError("centralizer check needs N >= 2")
    tower = _tower(f, N)
    r = constant_R(f)
    ops = [(f"R{k}", embed(r, k, N).matrix) for k in range(1, N)] + [("H", hamiltonian(f, N).matrix)]
    report = ResidualReport()
    # residuals are relative to the tower's global scale: an entry that is
    # structurally zero must not be divided by its own vanishing magnitude
    tower_scale = max_abs([t for row in tower for t in row])
    for name, op in ops:
        scale = max_abs(op) * tower_scale
        for a in range(f.n):
            for b in range(f.n):
                t = tower[a][b]
                comm = op @ t - t @ op
                report.add(f"centralizer_{name}_T[{a + 1},{b + 1}]", scaled(max_abs(comm), scale), PRODUCT_TOL)
    return report


@dataclass(frozen=True)
class CasimirResult:
    """Scalar central value extracted from the bilinear contraction of L."""

    c2: complex
    report: ResidualReport


def _casimir_grid(f: BForm, aux: AuxOperatorMatrix) -> np.ndarray:
    """C[a, b] = sum_{j,k,l} b_inv[a, j] aux[j, k] b[k, l] aux[b, l], as one block product.

    With G the block matrix of the grid and G^bt its block transpose (block
    (l, b) is aux[b, l], not transposed), C = (b^{-1} (x) I) G (b (x) I) G^bt.
    """
    g = np.array([[op.to_dense() for op in row] for row in aux.entries])
    n, _, dim, _ = g.shape
    blocks = g.transpose(0, 2, 1, 3).reshape(n * dim, n * dim)
    blocks_bt = g.transpose(1, 2, 0, 3).reshape(n * dim, n * dim)
    eye = np.eye(dim)
    c = np.kron(f.b_inv, eye) @ blocks @ np.kron(f.b, eye) @ blocks_bt
    return c.reshape(n, dim, n, dim).transpose(0, 2, 1, 3)


def _scalar_casimir(f: BForm, grid: np.ndarray) -> CasimirResult:
    """The best scalar c2 with grid ~ c2 delta_ab I, and its checks; see ``casimir``."""
    n, _, dim, _ = grid.shape
    c2 = complex(np.mean([np.trace(grid[a, a]) / dim for a in range(n)]))
    misfit = rel_residual(grid - c2 * np.eye(n)[:, :, None, None] * np.eye(dim), [grid])
    if misfit > PRODUCT_TOL:
        raise ConventionMismatch(f"the contraction yields no scalar Casimir; relative misfit {misfit:.3e}")
    report = ResidualReport()
    report.add("casimir_scalar", misfit, PRODUCT_TOL)
    if f.family == "kls" and dim == n:
        report.add("casimir_value_q", scaled(abs(c2 - f.q), abs(f.q)), PRODUCT_TOL)
    return CasimirResult(c2=c2, report=report)


def casimir(f: BForm, *, aux: AuxOperatorMatrix | None = None) -> CasimirResult:
    """Fit the scalar c2 of the Casimir contraction of the grid ``aux``.

    ``aux`` defaults to the one-site tower coproduct_T(f, 1), the block grid
    of L.  The contraction (``_casimir_grid``) must equal c2 delta_ab I: the
    relative misfit must be within PRODUCT_TOL (1e-8), or ConventionMismatch
    is raised with it.  For the kls family the one-site c2 also equals q,
    asserted in the report against the same threshold.
    """
    return _scalar_casimir(f, _casimir_grid(f, aux if aux is not None else coproduct_T(f, 1)))


def casimir_grouplike(f: BForm) -> tuple[CasimirResult, CasimirResult, ResidualReport]:
    """The one-site Casimir c2, the two-site one, and their checks.

    The Casimir is group-like: its value on the two-site tower T(2) must be
    c2^2 within PRODUCT_TOL (1e-8).  The report holds the one-site checks
    followed by ``casimir_grouplike`` and, for the kls family,
    ``casimir_combination``; every one-site row reads one contraction.
    """
    grid = _casimir_grid(f, coproduct_T(f, 1))
    cas = _scalar_casimir(f, grid)
    cas2 = casimir(f, aux=coproduct_T(f, 2))
    report = ResidualReport(list(cas.report.checks))
    report.add("casimir_grouplike", scaled(abs(cas2.c2 - cas.c2 ** 2), abs(cas.c2 ** 2)), PRODUCT_TOL)
    if f.family == "kls":
        report.extend(_combination(f, grid))
    return cas, cas2, report


def casimir_combination(f: BForm) -> ResidualReport:
    """Entry (1, 1) of the one-site contraction equals q I, within PRODUCT_TOL (1e-8).

    For the kls family, b^{-1}[1, j] is nonzero only at j = 3 and b only on
    the antidiagonal, so the entry is the combination
    p (A3 A1 / p + C2 B1 + p C3 B3) of the GENERATOR_GRID blocks, p = b[1, 3].
    """
    return _combination(f, _casimir_grid(f, coproduct_T(f, 1)))


def _combination(f: BForm, grid: np.ndarray) -> ResidualReport:
    """The ``casimir_combination`` row of a one-site contraction ``grid``."""
    if f.family != "kls":
        raise UnsupportedDimension("the explicit combination is specific to the kls family")
    comb, target = grid[0, 0], f.q * np.eye(3)
    report = ResidualReport()
    report.add("casimir_combination", rel_residual(comb - target, [comb, target]), PRODUCT_TOL)
    return report


def check_rll(f: BForm) -> ResidualReport:
    """Exchange relation R12 L1 L2 = L1 L2 R12 on aux (x) aux (x) quantum, within PRODUCT_TOL (1e-8).

    L2 is L on sites (2, 3); L1 is L on sites (1, 3), the placement on
    (1, 2) conjugated by the flip of sites 2 and 3.
    """
    l = l_matrix(f)
    p23 = embed(LocalOp(f.n, flip_operator(f.n), label="P"), 2, 3).matrix
    l1 = p23 @ embed(l, 1, 3).to_dense() @ p23
    l2 = embed(l, 2, 3).to_dense()
    r12 = embed(constant_R(f), 1, 3).to_dense()
    lhs = r12 @ l1 @ l2
    rhs = l1 @ l2 @ r12
    report = ResidualReport()
    report.add("rll", rel_residual(lhs - rhs, [lhs, rhs]), PRODUCT_TOL)
    return report


def check_coassociativity(f: BForm) -> ResidualReport:
    """T(3), built with site 1 entering last, equals T(2) with site 3 appended, within GLOBAL_TOL (1e-10).

    The right-hand side is the Kronecker sum sum_k T(2)[k, b] (x) L[a, k].
    """
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
    svals = np.linalg.svd(stack, compute_uv=False)
    orbit_rank = int(np.sum(svals > 1e-10 * svals[0]))

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
    report.add("orbit_rank_8", float(abs(orbit_rank - 8)), 0.0)
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

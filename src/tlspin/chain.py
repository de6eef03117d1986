"""Open-chain Hamiltonian, spectra, and degeneracy bookkeeping.

The Hamiltonian is the sum of the two-site generators over all bonds.  Its
eigenvalue multiplicities are explained entirely by the double
decomposition V^(x)N = sum_k W_k (x) V_k: the spectrum of H on the
Temperley-Lieb standard module W_k (dim nu_k(N)), which depends on tau
alone, recurs p_k(n) = dim V_k times.  The isotypic assignment reads each
cluster's multiplicity off these small module spectra.

The spectrum is solved one block at a time: the connected components of
the sparsity pattern of H + H^T are invariant subspaces of H, so the
eigenvalues of the diagonal blocks on them are those of H.  For the
built-in families the blocks refine the U_q(sl2) weight sectors, with no
grading computed.  A dense b gives a single block, the whole matrix, so
``chain_spectrum`` solves it through its congruent form in the eigenbasis
of the cosquare b^{-t} b (``bform.graded_congruence``): a generalized
permutation, whose H is similar to H_b and splits into weight sectors
(Pasquier-Saleur).  The connected-components routine ``linalg._blocks``
serves both the sparsity pattern of H and the links between close
eigenvalues that form the degenerate clusters (and the symmetrizer's
blocks in ``rep_ring``).

For the kls family the weight h = diag(1, 0, -1) commutes with R and,
summed over the sites, with H; ``check_weight_symmetry`` reads both
weights off one diagonal of base-n digit sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .bform import BForm, graded_congruence
from .errors import ConvergenceFailure, UnsupportedDimension
from .linalg import (
    DENSE_SIZE_BUDGET,
    GLOBAL_TOL,
    SPARSE_SIZE_BUDGET,
    _blocks,
    check_size_budget,
    rel_residual,
)
from .reports import ResidualReport, complex_to_pair
from .rep_ring import DecompositionTable
from .rmatrix import constant_R
from .tl_rep import ChainOp, embed, local_X

if TYPE_CHECKING:
    import scipy.sparse as sp

CLUSTER_TOL_HERMITIAN = 1e-8
CLUSTER_TOL_GENERAL = 1e-6


def hamiltonian(f: BForm, N: int) -> ChainOp:
    """H = sum over bonds of the embedded two-site generator, in sparse form.

    n^N must lie within SPARSE_SIZE_BUDGET; the bonds are added left to right.
    """
    if N < 2:
        raise ValueError("chain needs N >= 2")
    check_size_budget(f.n ** N, SPARSE_SIZE_BUDGET, "hamiltonian")
    x = local_X(f)
    matrix = sum((embed(x, j, N).matrix for j in range(2, N)), embed(x, 1, N).matrix)
    return ChainOp(n=f.n, N=N, matrix=matrix, label="H")


@dataclass(frozen=True)
class Cluster:
    value: complex
    multiplicity: int


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues grouped into degenerate clusters.

    The raw (unclustered) eigenvalue list is kept alongside for the CSV
    hand-off; the JSON form carries clusters only.
    """

    n: int
    N: int
    clusters: tuple
    total: int
    hermitian: bool
    eigenvalues: tuple = ()

    def __post_init__(self) -> None:
        if sum(c.multiplicity for c in self.clusters) != self.total:
            raise ValueError("cluster multiplicities do not sum to the space dimension")

    @property
    def cluster_tol(self) -> float:
        """The clustering radius, fixed by hermiticity."""
        return CLUSTER_TOL_HERMITIAN if self.hermitian else CLUSTER_TOL_GENERAL

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "N": self.N,
            "hermitian": self.hermitian,
            "cluster_tol": self.cluster_tol,
            "total": self.total,
            "clusters": [
                {"value": complex_to_pair(c.value), "multiplicity": c.multiplicity}
                for c in self.clusters
            ],
        }


def _cluster_eigenvalues(values: np.ndarray, tol: float) -> list[Cluster]:
    """Single-linkage clusters: eigenvalues within tol * (1 + |lambda|) of each other join.

    The clusters are the connected components (``_blocks``) of the graph
    that links two (real, imag)-sorted values lying within the larger of
    their radii.  Close sorted neighbours are linked, which connects each run
    of them; past its run, each value is tested against every later one
    whose real part is still within reach, so values that share a real part
    and interleave by round-off still meet.  Every pair skipped lies inside
    one run.  Members keep the sorted order, and a cluster's value is their
    mean.
    """
    import scipy.sparse as sp
    ordered = values[np.lexsort((values.imag, values.real))]
    radius = tol * (1 + np.abs(ordered))
    stop = np.searchsorted(ordered.real, ordered.real + np.max(radius, initial=0.0), side="right")
    step = np.abs(np.diff(ordered)) <= np.maximum(radius[:-1], radius[1:])
    # a run ends after the first index not linked to its successor
    breaks = np.append(np.flatnonzero(~step), ordered.size - 1)
    run_end = breaks[np.searchsorted(breaks, np.arange(ordered.size))] + 1
    reach = np.maximum(stop - run_end, 0)
    first = np.repeat(np.arange(ordered.size), reach)
    later = np.repeat(run_end - np.cumsum(reach) + reach, reach) + np.arange(first.size)
    close = np.abs(ordered[later] - ordered[first]) <= np.maximum(radius[first], radius[later])
    linked = np.flatnonzero(step)
    rows = np.concatenate([linked, first[close]])
    cols = np.concatenate([linked + 1, later[close]])
    links = sp.coo_matrix((np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(ordered.size,) * 2)
    clusters = [Cluster(value=complex(np.mean(ordered[b])), multiplicity=b.size) for b in _blocks(links)]
    clusters.sort(key=lambda c: (c.value.real, c.value.imag))
    return clusters


def _block_stacks(coo: sp.coo_matrix, blocks: list[np.ndarray]):
    """Yield the diagonal blocks of M as one (count, size, size) stack per block size, ascending.

    The blocks are laid end to end by size (blocks of one size keep their
    order), which makes M block diagonal; its entries are sorted once by
    their row in that order, and each stack is a contiguous run of them.
    Every entry in a row of a block lies in a column of the same block,
    since the blocks are connected components of the pattern of M + M^T.
    """
    blocks = sorted(blocks, key=len)
    sizes = np.array([b.size for b in blocks])
    position = np.empty(coo.shape[0], dtype=int)
    position[np.concatenate(blocks)] = np.arange(coo.shape[0])
    rows, cols = position[coo.row], position[coo.col]
    order = np.argsort(rows, kind="stable")
    rows, cols, data = rows[order], cols[order], coo.data[order]
    start = 0
    for size, count in zip(*np.unique(sizes, return_counts=True)):
        lo, hi = np.searchsorted(rows, [start, start + count * size])
        r, c = rows[lo:hi] - start, cols[lo:hi] - start
        stack = np.zeros((count, size, size), dtype=data.dtype)
        stack[r // size, r % size, c % size] = data[lo:hi]
        yield stack
        start += count * size


def spectrum(h: ChainOp) -> SpectrumReport:
    """Full eigenvalue list of a chain operator, clustered by single linkage.

    Each connected component of the sparsity pattern of H + H^T spans an
    invariant subspace, so its diagonal block is solved on its own; blocks
    of one size go to one stacked solver call, scattered straight from the
    sparse entries.  A Hermitian operator takes the Hermitian solver and the
    clustering radius CLUSTER_TOL_HERMITIAN; any other, the general solver
    and CLUSTER_TOL_GENERAL.  n^N must lie within DENSE_SIZE_BUDGET.
    """
    check_size_budget(h.dim, DENSE_SIZE_BUDGET, f"densifying {h.label or 'chain operator'}")
    hermitian = h.is_hermitian()
    solve = np.linalg.eigvalsh if hermitian else np.linalg.eigvals
    coo = h.matrix.tocoo()
    coo.sum_duplicates()
    try:
        parts = [solve(stack).ravel() for stack in _block_stacks(coo, _blocks(coo))]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc
    values = np.concatenate(parts).astype(complex)
    order = np.lexsort((values.imag, values.real))
    return SpectrumReport(
        n=h.n,
        N=h.N,
        clusters=tuple(_cluster_eigenvalues(values, CLUSTER_TOL_HERMITIAN if hermitian else CLUSTER_TOL_GENERAL)),
        total=h.dim,
        hermitian=hermitian,
        eigenvalues=tuple(complex(v) for v in values[order]),
    )


def chain_spectrum(f: BForm, N: int) -> SpectrumReport:
    """The spectrum of H on N sites of f, solved in the weight sectors of its graded congruence.

    ``graded_congruence`` gives a generalized permutation congruent to a
    generic dense b; its H is similar to H_b, through M^(x)N, and splits
    into weight sectors that ``spectrum`` solves block by block.  It is used
    only when its H has the hermiticity of H_b, so the solver and the
    clustering radius are those of H_b; otherwise, and when f is returned
    unchanged, H_b is solved as it is.
    """
    h = hamiltonian(f, N)
    g = graded_congruence(f)
    if g is not f:
        graded = hamiltonian(g, N)
        if graded.is_hermitian() == h.is_hermitian():
            h = graded
    return spectrum(h)


@dataclass(frozen=True)
class IsotypicAssignment:
    """Integer explanation of every cluster multiplicity, and its verdict.

    per_cluster[i] maps k -> a_k, the number of W_k eigenvalues nearest to
    cluster i, and per_k totals the a_k over clusters: nu_k(N).  The report
    holds one row, ``isotypic_assignment``, which passes when every
    multiplicity_i equals sum a_k p_k(n) (see ``check_isotypic``).
    """

    per_cluster: tuple
    per_k: dict
    report: ResidualReport

    def to_dict(self) -> dict:
        return {
            "per_cluster": [dict(sorted(d.items())) for d in self.per_cluster],
            "per_k": dict(sorted(self.per_k.items())),
        }


def _link_states(N: int, k: int) -> list[tuple[int, ...]]:
    """Basis of W_k: each site's partner on its arc, or -1 for one of the k defects.

    Arcs do not cross and pass over no defect.  Site i + 1 joins a state of
    i sites as a new defect, or closes an arc with its rightmost defect.
    """
    states = [()]
    for i in range(N):
        grown = [s + (-1,) for s in states]
        for s in states:
            if -1 in s:
                d = len(s) - 1 - s[::-1].index(-1)
                grown.append(s[:d] + (i,) + s[d + 1:] + (d,))
        states = grown
    return [s for s in states if s.count(-1) == k]


def _standard_module(N: int, k: int, tau: complex) -> list[np.ndarray]:
    """Matrices of e_1, ..., e_{N-1} on the link states of W_k, with loop weight tau.

    e_j acts on sites (j, j+1): an arc between them gives tau, two defects
    give 0, and otherwise the two sites are joined by an arc and their former
    partners are joined to each other (a partner of a defect becomes a defect).
    """
    states = _link_states(N, k)
    index = {s: i for i, s in enumerate(states)}
    mats = [np.zeros((len(states), len(states)), dtype=type(tau)) for _ in range(N - 1)]
    for j, e in enumerate(mats):
        for col, s in enumerate(states):
            a, b = s[j], s[j + 1]
            if a == j + 1:
                e[col, col] = tau
            elif a >= 0 or b >= 0:
                new = list(s)
                new[j], new[j + 1] = j + 1, j
                if a >= 0:
                    new[a] = b
                if b >= 0:
                    new[b] = a
                e[index[tuple(new)], col] = 1.0
    return mats


def check_isotypic(report: SpectrumReport, table: DecompositionTable, tau: complex) -> IsotypicAssignment:
    """Read each cluster's multiplicity off the Temperley-Lieb standard modules.

    Under the double centralizer, V^(x)N = sum_k W_k (x) V_k, so every
    eigenvalue of H = sum_j e_j on the standard module W_k (dim nu_k(N))
    occurs p_k(n) times in the chain spectrum.  Each eigenvalue of each
    module goes to the nearest cluster, and a[cluster, k] counts those from
    W_k.  The ``isotypic_assignment`` row reads 0 when every module
    eigenvalue lies within the clustering radius cluster_tol * (1 + |lambda|)
    of its cluster, with cluster_tol fixed by the report's hermiticity, and
    every cluster multiplicity equals sum_k a p_k exactly, and 1 otherwise,
    against a threshold of 0.  A failed assignment is that row, never a
    raise.
    """
    if (report.n, report.N) != (table.n, table.N):
        raise ValueError("spectrum and table describe different (n, N)")
    values = np.array([c.value for c in report.clusters])
    counts = np.zeros((values.size, len(table.rows)), dtype=int)
    outside = 0
    for col, row in enumerate(table.rows):
        lam = np.linalg.eigvals(sum(_standard_module(table.N, row.k, tau)))
        nearest = np.argmin(np.abs(lam[:, None] - values[None, :]), axis=1)
        outside += np.count_nonzero(np.abs(lam - values[nearest]) > report.cluster_tol * (1 + np.abs(lam)))
        np.add.at(counts[:, col], nearest, 1)
    predicted = counts @ np.array([r.p_k for r in table.rows])
    consistent = not outside and np.array_equal(predicted, [c.multiplicity for c in report.clusters])
    verdict = ResidualReport()
    verdict.add("isotypic_assignment", 0.0 if consistent else 1.0, 0.0)
    per_cluster = tuple({r.k: int(a) for r, a in zip(table.rows, line) if a} for line in counts)
    per_k = {r.k: int(total) for r, total in zip(table.rows, counts.sum(axis=0))}
    return IsotypicAssignment(per_cluster=per_cluster, per_k=per_k, report=verdict)


def check_weight_symmetry(f: BForm, N: int) -> ResidualReport:
    """The weight h = diag(1, 0, -1) of the antidiagonal (kls) family is conserved.

    Reports ``weight_symmetry_local``, [R, h (x) I + I (x) h] within 1e-12,
    then ``weight_symmetry_global``, [H, sum_j h_j] on N sites within
    GLOBAL_TOL (1e-10).  Both weights are diagonal: a basis state's entry
    adds the site weights of its base-n digits.
    """
    import scipy.sparse as sp
    if f.n != 3:
        raise UnsupportedDimension("the weight h = diag(1, 0, -1) is defined for n = 3")
    hm = hamiltonian(f, N).matrix
    h = np.array([1.0, 0.0, -1.0])
    digit_sums = [np.zeros(1)]
    for _ in range(N):
        digit_sums.append((digit_sums[-1][:, None] + h[None, :]).ravel())
    local, weight = np.diag(digit_sums[2]), sp.diags(digit_sums[N], format="csr")
    r = constant_R(f).mat
    rl, lr = r @ local, local @ r
    hw, wh = hm @ weight, weight @ hm
    report = ResidualReport()
    report.add("weight_symmetry_local", rel_residual(rl - lr, [rl, lr]), 1e-12)
    report.add("weight_symmetry_global", rel_residual(hw - wh, [hw, wh]), GLOBAL_TOL)
    return report

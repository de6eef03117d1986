"""Open-chain Hamiltonian, spectra, and degeneracy bookkeeping.

The Hamiltonian is the sum of the two-site generators over all bonds.  Its
eigenvalue multiplicities are explained entirely by the double
decomposition: every cluster multiplicity is an integer combination of the
p_k(n), with each k used across clusters exactly nu_k(N) times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bform import BForm
from .errors import ConvergenceFailure, NoConsistentAssignment
from .linalg import GLOBAL_TOL, SPARSE_SIZE_BUDGET, check_size_budget, rel_residual
from .reports import ResidualReport, complex_to_pair
from .rep_ring import DecompositionTable
from .rmatrix import weight_operator
from .tl_rep import ChainOp, LocalOp, embed, local_X

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
    cluster_tol: float
    eigenvalues: tuple = ()

    def __post_init__(self) -> None:
        if sum(c.multiplicity for c in self.clusters) != self.total:
            raise ValueError("cluster multiplicities do not sum to the space dimension")

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

    A sweep over the real-sorted list links each value to every later one
    whose real part is still within reach, so values that share a real part
    and interleave by round-off still meet their partners.  Each cluster is
    labelled by its first member; members keep the (real, imag) order, and
    a cluster's value is their mean.
    """
    ordered = values[np.lexsort((values.imag, values.real))]
    radius = tol * (1 + np.abs(ordered))
    stop = np.searchsorted(ordered.real, ordered.real + np.max(radius, initial=0.0), side="right")
    labels = np.arange(ordered.size)  # a label is the first index of its cluster
    for i in range(ordered.size):
        window = slice(i + 1, stop[i])
        close = np.abs(ordered[window] - ordered[i]) <= np.maximum(radius[i], radius[window])
        view = labels[window]
        met = view[close]
        formed = met[met <= i]  # partners already linked to an earlier value
        if np.any(formed != labels[i]):
            # merge clusters; nothing at or past stop[i] is linked yet
            joined = np.unique(np.append(formed, labels[i]))
            span = labels[joined[0]:stop[i]]
            span[np.isin(span, joined)] = joined[0]
        view[close] = labels[i]
    _, counts = np.unique(labels, return_counts=True)
    groups = np.split(ordered[np.argsort(labels, kind="stable")], np.cumsum(counts)[:-1])
    clusters = [Cluster(value=complex(np.mean(g)), multiplicity=g.size) for g in groups]
    clusters.sort(key=lambda c: (c.value.real, c.value.imag))
    return clusters


def spectrum(h: ChainOp, cluster_tol: float | None = None) -> SpectrumReport:
    """Full eigenvalue list of a chain operator, clustered by single linkage.

    Uses the Hermitian solver when the operator is Hermitian (tighter
    default clustering); the general solver otherwise.  The operator is
    densified within DENSE_SIZE_BUDGET.  An explicit ``cluster_tol`` must be
    finite and positive, or ValueError is raised.
    """
    if cluster_tol is not None and not 0 < cluster_tol < np.inf:
        raise ValueError(f"cluster_tol must be finite and positive, got {cluster_tol}")
    dense = h.to_dense()
    hermitian = h.is_hermitian()
    if cluster_tol is None:
        cluster_tol = CLUSTER_TOL_HERMITIAN if hermitian else CLUSTER_TOL_GENERAL
    try:
        if hermitian:
            values = np.linalg.eigvalsh(dense).astype(complex)
        else:
            values = np.linalg.eigvals(dense)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc
    clusters = tuple(_cluster_eigenvalues(values, cluster_tol))
    order = np.lexsort((values.imag, values.real))
    return SpectrumReport(
        n=h.n,
        N=h.N,
        clusters=clusters,
        total=h.dim,
        hermitian=hermitian,
        cluster_tol=cluster_tol,
        eigenvalues=tuple(complex(v) for v in values[order]),
    )


@dataclass(frozen=True)
class IsotypicAssignment:
    """Integer explanation of every cluster multiplicity.

    per_cluster[i] maps k -> a_k with multiplicity_i = sum a_k p_k(n);
    per_k totals the a_k over clusters and equals nu_k(N).
    """

    per_cluster: tuple
    per_k: dict

    def to_dict(self) -> dict:
        return {
            "per_cluster": [dict(sorted(d.items())) for d in self.per_cluster],
            "per_k": dict(sorted(self.per_k.items())),
        }


def _decompositions(target: int, dims: list[tuple[int, int]], caps: dict[int, int]):
    """All ways to write target = sum a_k p_k with 0 <= a_k <= caps[k]."""
    if not dims:
        if target == 0:
            yield {}
        return
    k, p = dims[0]
    for a in range(min(target // p, caps[k]) + 1):
        for rest in _decompositions(target - a * p, dims[1:], caps):
            if a:
                yield {k: a, **rest}
            else:
                yield rest


def check_isotypic(report: SpectrumReport, table: DecompositionTable) -> IsotypicAssignment:
    """Match cluster multiplicities against the decomposition table.

    Finds non-negative integers a[cluster, k] with every cluster multiplicity
    equal to sum_k a p_k(n) and the per-k totals equal to nu_k(N).  The
    depth-first search visits clusters in ascending multiplicity.  Clusters
    of equal multiplicity are interchangeable, so along them the index of
    the chosen decomposition never decreases, and a state (position, first
    index, remaining nu) that failed once is not searched again.  Each
    decomposition is reported at its cluster's own position.
    """
    if (report.n, report.N) != (table.n, table.N):
        raise ValueError("spectrum and table describe different (n, N)")
    dims = sorted(((r.k, r.p_k) for r in table.rows), key=lambda t: -t[1])
    nu = {r.k: r.nu_k for r in table.rows}
    keys = sorted(nu)
    clusters = report.clusters
    order = sorted(range(len(clusters)), key=lambda i: clusters[i].multiplicity)
    mults = [clusters[i].multiplicity for i in order]
    options = {m: [tuple(c.get(k, 0) for k in keys) for c in _decompositions(m, dims, nu)] for m in set(mults)}

    def steps(pos: int, first: int, remaining: tuple):
        """(option index, remaining nu after it) for each feasible choice at pos."""
        opts = options[mults[pos]]
        for idx in range(first, len(opts)):
            rest = tuple(r - a for r, a in zip(remaining, opts[idx]))
            if min(rest) >= 0:
                yield idx, rest

    # an explicit stack: one frame per cluster would come close to Python's
    # default recursion limit of 1000 (up to 924 clusters at n = 2, N = 12)
    root = (0, 0, tuple(nu[k] for k in keys))
    stack = [(root, steps(*root))] if order else []
    chosen: list[int] = []  # option index per position; one fewer than the stack
    solved = False
    failed: set = set()
    while stack and not solved:
        state, pending = stack[-1]
        pos = state[0]
        step = next(pending, None)
        if step is None:
            failed.add(state)
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        idx, rest = step
        if pos + 1 == len(order):
            solved = not any(rest)
            if solved:
                chosen.append(idx)
            continue
        child = (pos + 1, idx if mults[pos + 1] == mults[pos] else 0, rest)
        if child not in failed:
            chosen.append(idx)
            stack.append((child, steps(*child)))
    if not solved:
        detail = ", ".join(f"{c.value:.6g} x{c.multiplicity}" for c in clusters)
        raise NoConsistentAssignment(
            f"no integer assignment for clusters [{detail}] against p_k/nu_k of (n={table.n}, N={table.N})"
        )
    assignment: list = [None] * len(clusters)
    for pos, idx in enumerate(chosen):
        combo = options[mults[pos]][idx]
        assignment[order[pos]] = {k: a for k, a in zip(keys, combo) if a}
    per_k = {r.k: sum(d.get(r.k, 0) for d in assignment) for r in table.rows}
    return IsotypicAssignment(per_cluster=tuple(assignment), per_k=per_k)


def check_global_weight_symmetry(f: BForm, N: int) -> ResidualReport:
    """[H, sum_j h_j] for the antidiagonal family's diagonal weight h, within GLOBAL_TOL (1e-10)."""
    h_local = weight_operator(f.n)
    eye = np.eye(f.n)
    # h at sites 1..N-1 via the left slot of each bond, site N via the last right slot
    weight = embed(LocalOp(f.n, np.kron(eye, h_local), label="h_r"), N - 1, N).matrix
    left = LocalOp(f.n, np.kron(h_local, eye), label="h_l")
    for j in range(1, N):
        weight = weight + embed(left, j, N).matrix
    hm = hamiltonian(f, N).matrix
    report = ResidualReport(config={"family": f.family, "N": N})
    report.add(
        "weight_symmetry_global",
        rel_residual(hm @ weight - weight @ hm, [hm @ weight, weight @ hm]),
        GLOBAL_TOL,
    )
    return report

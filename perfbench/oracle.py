"""Expected values for tlspin outputs, computed apart from the program.

Nothing here imports tlspin.  Every expectation comes from a closed form
(ballot numbers, Chebyshev polynomials, traces of H and its square) or from
this module's own numpy kron code built from the matrix b alone, so a wrong
answer from the program cannot also be the value it is checked against.

Each ``check_*`` function returns a Verdict: whether the operation failed
(nonzero exit), the list of disagreements found in an output that claims
success, and the decimal-digit margin of the program's float decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# The q-antisymmetrizer of S_3 weights the longest word R12 R23 R12 by
# (-1/q)^3, so the vanishing triple-term coefficient is q^-3.
ANTISYM_WINNER = "q^-3"

# Relative tolerance for the oracle's own float comparisons (moments, tower
# matvecs, commutators).  Round-off in the program is near 1e-14.
ORACLE_RTOL = 1e-9


@dataclass
class Verdict:
    failed: bool = False
    errors: list = field(default_factory=list)
    margin: float = math.inf
    reason: str = ""  # what the program reported when it failed

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def clear(self, threshold: float, value: float) -> None:
        """Record the margin by which ``value`` stays at or below ``threshold``."""
        if threshold > 0 and value > 0:
            self.margin = min(self.margin, math.log10(threshold / value))


# ---------------------------------------------------------------- integers


def nu_ballot(N: int) -> dict:
    """{k: nu_k(N)}: walks of N steps from 0 that stay >= 0 and end at k."""
    out = {}
    for k in range(N % 2, N + 1, 2):
        m = (N - k) // 2
        out[k] = math.comb(N, m) - (math.comb(N, m - 1) if m >= 1 else 0)
    return out


def p_chebyshev(n: int, k: int) -> int:
    """p_k(n) = U_k(n/2) from the explicit Chebyshev sum."""
    return sum((-1) ** j * math.comb(k - j, j) * n ** (k - 2 * j) for j in range(k // 2 + 1))


# ------------------------------------------------------------------- model


def kls_b(p: complex) -> np.ndarray:
    b = np.zeros((3, 3), dtype=complex)
    b[0, 2], b[1, 1], b[2, 0] = p, 1.0, 1 / p
    return b


def xxz_b(q0: complex) -> np.ndarray:
    return np.array([[0, 1], [-q0, 0]], dtype=complex)


def place(op: np.ndarray, j: int, N: int, n: int, v: np.ndarray) -> np.ndarray:
    """Apply a two-site operator on sites (j, j+1), 1-indexed, to a vector."""
    t = v.reshape(n ** (j - 1), n * n, n ** (N - j - 1))
    return np.einsum("ab,lbr->lar", op, t).reshape(-1)


class Model:
    """The Temperley-Lieb data of one matrix b, built with plain numpy."""

    def __init__(self, b: np.ndarray):
        self.b = np.array(b, dtype=complex)
        self.n = n = self.b.shape[0]
        self.b_inv = np.linalg.inv(self.b)
        self.tau = complex(np.sum(self.b * self.b_inv))  # tr(b^t b^-1)
        disc = np.sqrt(complex(self.tau) ** 2 - 4)
        roots = ((-self.tau + disc) / 2, (-self.tau - disc) / 2)
        self.q = max(roots, key=abs)
        self.X = np.outer(self.b.ravel(), self.b_inv.ravel())
        eye = np.eye(n, dtype=complex)
        flip = np.zeros((n * n, n * n))
        for a in range(n):
            for c in range(n):
                flip[a * n + c, c * n + a] = 1.0
        lmat = flip @ (self.q * np.eye(n * n) + self.X)
        # blocks[a, c] acts on the quantum site; a, c index the auxiliary space
        self.blocks = lmat.reshape(n, n, n, n).transpose(0, 2, 1, 3)
        x1, x2 = np.kron(self.X, eye), np.kron(eye, self.X)
        self.tr_x1x2 = complex(np.trace(x1 @ x2))
        self.tl_residuals = {
            "square": _rel(self.X @ self.X - self.tau * self.X, self.X @ self.X),
            "sandwich": _rel(x1 @ x2 @ x1 - x1, x1),
        }

    def trace_h(self, N: int) -> complex:
        return (N - 1) * self.tau * self.n ** (N - 2)

    def trace_h2(self, N: int) -> complex:
        n, t = self.n, self.tau
        far_pairs = (N - 1) * (N - 2) // 2 - (N - 2)
        total = (N - 1) * t * t * n ** (N - 2)
        if N >= 3:
            total += 2 * (N - 2) * self.tr_x1x2 * n ** (N - 3)
        if far_pairs:
            total += 2 * far_pairs * t * t * n ** (N - 4)
        return total

    def tower_apply(self, N: int, v: np.ndarray) -> np.ndarray:
        """y[a, b] = T(N)[a, b] v for every auxiliary pair, as a matrix product state.

        Site 1 is the leftmost Kronecker factor; site m carries L[k_m, k_(m-1)],
        so T(2)[a, b] = sum_k L[k, b] (x) L[a, k].
        """
        n = self.n
        state = np.einsum("cb,v->cbv", np.eye(n), v)
        for s in range(N):
            t = state.reshape(n, n, n ** s, n, n ** (N - s - 1))
            state = np.einsum("xcij,cbljr->xblir", self.blocks, t, optimize=True)
        return state.reshape(n, n, n ** N)


def _rel(diff: np.ndarray, scale: np.ndarray) -> float:
    return float(np.max(np.abs(diff)) / max(np.max(np.abs(scale)), 1e-300))


# --------------------------------------------------------- verify command


def verify_names(n: int, N: int, kls: bool) -> list:
    """Names of the checks the verify suite reports, in order."""
    bonds = range(1, N)
    names = [f"tl_square_j{j}" for j in bonds]
    names += [f"tl_sandwich_j{j}_k{k}" for j in bonds for k in (j - 1, j + 1) if 1 <= k <= N - 1]
    names += [f"tl_commute_j{j}_k{k}" for j in bonds for k in range(j + 2, N)]
    names += ["braid"] + [f"spectral_ybe_{i}" for i in range(5)]
    names += ["cubic_spectral_121", "cubic_spectral_212", "cubic_constant_121", "cubic_constant_212"]
    names += [f"antisym_vanishing[{ANTISYM_WINNER}]", "antisym_unique_named_candidate"]
    names += ["spectral_unitarity", "rll"]
    names += _centralizer_names(n, N)
    names += ["casimir_scalar"] + (["casimir_value_q"] if kls else []) + ["casimir_grouplike"]
    if kls:
        names += ["casimir_combination", "weight_symmetry_local", "weight_symmetry_global"]
    return names


def _centralizer_names(n: int, N: int) -> list:
    grid = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    names = [f"centralizer_R{k}_T[{a},{b}]" for k in range(1, N) for a, b in grid]
    return names + [f"centralizer_H_T[{a},{b}]" for a, b in grid]


def _check_report(verdict: Verdict, out: dict, names: list) -> None:
    """Exit field, check names in order, pass flags and the float margins."""
    checks = out.get("checks", [])
    got = [c["name"] for c in checks]
    verdict.expect(got == names, f"checks {len(got)} named {got[:3]}..., expected {len(names)} named {names[:3]}...")
    verdict.expect(out.get("exit") == 0, f"report exit {out.get('exit')}")
    for c in checks:
        passed = c["residual"] <= c["threshold"]
        verdict.expect(c["pass"] == passed, f"{c['name']}: pass flag {c['pass']} disagrees with residual")
        verdict.expect(passed, f"{c['name']}: residual {c['residual']:.3e} above {c['threshold']:.1e}")
        verdict.clear(c["threshold"], c["residual"])


def check_verify(code: int, out: dict | None, model: Model, N: int, kls: bool) -> Verdict:
    verdict = Verdict(failed=code != 0)
    if verdict.failed:
        return verdict
    # the relations the suite reports as holding must hold for this b
    for name, res in model.tl_residuals.items():
        verdict.expect(res <= 1e-10, f"oracle: TL {name} relation fails for this b ({res:.2e})")
    _check_report(verdict, out, verify_names(model.n, N, kls))
    return verdict


# ------------------------------------------------------- spectrum command


def check_spectrum(code: int, out: dict | None, model: Model, N: int) -> Verdict:
    """Cluster multiplicities, isotypic assignment and eigenvalue moments."""
    verdict = Verdict(failed=code != 0)
    if verdict.failed:
        return verdict
    n, dim = model.n, model.n ** N
    nu = nu_ballot(N)
    tables = out["tables"]
    spec = tables["spectrum"]
    mults = [c["multiplicity"] for c in spec["clusters"]]
    values = np.array([complex(*c["value"]) for c in spec["clusters"]])
    raw = np.array([complex(*v) for v in tables["raw_eigenvalues"]])
    verdict.expect(spec["total"] == dim and sum(mults) == dim, f"multiplicities sum to {sum(mults)}, not n^N = {dim}")
    verdict.expect(raw.size == dim, f"{raw.size} raw eigenvalues, not {dim}")

    rows = {r["k"]: r for r in tables["decomposition"]["rows"]}
    verdict.expect(set(rows) == set(nu), f"decomposition rows k = {sorted(rows)}, expected {sorted(nu)}")
    for k, r in rows.items():
        verdict.expect(r["p_k"] == p_chebyshev(n, k), f"p_{k}({n}) = {r['p_k']}, expected {p_chebyshev(n, k)}")
        verdict.expect(r["nu_k"] == nu.get(k), f"nu_{k}({N}) = {r['nu_k']}, expected {nu.get(k)}")

    iso = tables.get("isotypic")
    verdict.expect(iso is not None, "no isotypic assignment")
    if iso is not None:
        per_k = {int(k): v for k, v in iso["per_k"].items()}
        verdict.expect(per_k == nu, f"isotypic per_k {per_k}, expected nu_k {nu}")
        per_cluster = iso["per_cluster"]
        verdict.expect(len(per_cluster) == len(mults), "one isotypic entry per cluster expected")
        totals = dict.fromkeys(nu, 0)
        for i, (combo, m) in enumerate(zip(per_cluster, mults)):
            explained = sum(a * p_chebyshev(n, int(k)) for k, a in combo.items())
            verdict.expect(explained == m, f"cluster {i}: sum a_k p_k = {explained}, multiplicity {m}")
            for k, a in combo.items():
                totals[int(k)] = totals.get(int(k), 0) + a
        verdict.expect(totals == nu, f"isotypic column sums {totals}, expected {nu}")

    scale = dim * (1 + float(np.max(np.abs(raw), initial=0.0)))
    first = complex(np.dot(mults, values))
    verdict.expect(
        abs(first - model.trace_h(N)) <= ORACLE_RTOL * scale,
        f"sum m*lambda = {first:.12g}, tr H = {model.trace_h(N):.12g}",
    )
    second = complex(np.sum(raw ** 2))
    verdict.expect(
        abs(second - model.trace_h2(N)) <= ORACLE_RTOL * scale ** 2 / dim,
        f"sum lambda^2 = {second:.12g}, tr H^2 = {model.trace_h2(N):.12g}",
    )
    _cluster_margins(verdict, raw, values, mults, spec["cluster_tol"])
    return verdict


def _cluster_margins(verdict: Verdict, raw, values, mults, tol: float) -> None:
    """Each eigenvalue sits in its cluster and the clusters stay apart.

    Margin terms: log10(tol (1+|lambda|) / largest spread in a cluster) and
    log10(smallest gap between clusters / (tol (1+|lambda|))).  Either below
    zero means a clustering decision that the tolerance does not support.
    """
    if values.size == 0 or raw.size == 0:
        verdict.expect(False, "empty spectrum")
        return
    nearest = np.argmin(np.abs(raw[:, None] - values[None, :]), axis=1)
    counts = np.bincount(nearest, minlength=values.size)
    verdict.expect(list(counts) == list(mults), "raw eigenvalues do not fall into the clusters reported")
    for i, v in enumerate(values):
        members = raw[nearest == i]
        spread = float(np.max(np.abs(members - v))) if members.size else 0.0
        allowed = tol * (1 + abs(v))
        verdict.expect(spread <= allowed, f"cluster {v:.6g} spreads {spread:.2e} > {allowed:.2e}")
        verdict.clear(allowed, spread)
    if values.size > 1:
        gaps = np.abs(values[:, None] - values[None, :])
        np.fill_diagonal(gaps, np.inf)
        i, j = np.unravel_index(np.argmin(gaps), gaps.shape)
        needed = tol * (1 + max(abs(values[i]), abs(values[j])))
        verdict.expect(gaps[i, j] > needed, f"clusters {values[i]:.6g} and {values[j]:.6g} closer than tol")
        verdict.clear(gaps[i, j], needed)


# --------------------------------------------------------- tower commands


def check_symmetrizer(code: int, out: dict | None, n: int, N: int) -> Verdict:
    verdict = Verdict(failed=code != 0)
    if verdict.failed:
        return verdict
    table = out["tables"]["symmetrizer"]
    expected = p_chebyshev(n, N)
    verdict.expect(table["rank"] == expected, f"symmetrizer rank {table['rank']}, expected p_{N}({n}) = {expected}")
    verdict.expect(table["expected_rank"] == expected, f"expected_rank {table['expected_rank']} != {expected}")
    _check_report(verdict, out, ["symmetrizer_idempotent", "symmetrizer_rank"])
    return verdict


def check_centralizer(code: int, out: dict | None, n: int, N: int) -> Verdict:
    verdict = Verdict(failed=code != 0)
    if not verdict.failed:
        _check_report(verdict, out, _centralizer_names(n, N))
    return verdict


def check_tower(grid, model: Model, N: int, v: np.ndarray) -> Verdict:
    """T(N) against the matrix-product contraction, and [X_j, T(N)[a,b]] = 0.

    ``grid[a][b]`` is the program's sparse T(N)[a, b]; both identities are
    tested on the vector v.
    """
    verdict = Verdict()
    n = model.n
    expected = model.tower_apply(N, v)
    got = np.array([[grid[a][b] @ v for b in range(n)] for a in range(n)])
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    mismatch = float(np.max(np.abs(got - expected))) / scale
    verdict.expect(mismatch <= ORACLE_RTOL, f"T({N}) v differs from the contraction by {mismatch:.2e}")
    worst, comm_scale = 0.0, 0.0
    for j in range(1, N):
        xv = place(model.X, j, N, n, v)
        for a in range(n):
            for b in range(n):
                lhs = grid[a][b] @ xv
                rhs = place(model.X, j, N, n, got[a, b])
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
                comm_scale = max(comm_scale, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    comm = worst / max(comm_scale, 1e-300)
    verdict.expect(comm <= ORACLE_RTOL, f"[X_j, T({N})] v does not vanish ({comm:.2e})")
    return verdict


def check_casimir(c2: complex, checks: list, model: Model, sites: int) -> Verdict:
    """The Casimir of T(m) is grouplike: c2 = c2(L)^m = q^m for the kls family."""
    verdict = Verdict()
    target = model.q ** sites
    err = abs(c2 - target) / abs(target)
    verdict.expect(err <= 1e-8, f"c2 of T({sites}) = {c2:.12g}, expected q^{sites} = {target:.12g}")
    for name, residual, threshold in checks:
        verdict.expect(residual <= threshold, f"{name}: residual {residual:.3e} above {threshold:.1e}")
        verdict.clear(threshold, residual)
    return verdict

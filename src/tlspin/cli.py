"""Command-line front end: builds the model from flags and emits reports.

Each subcommand returns its tables and its report; ``main`` alone writes
the report's rows and reads the exit code off it.  Exit codes: 0 all checks
passed, 1 at least one check failed (or no verdict exists: an eigensolver
that does not converge, a symmetrizer recursion whose Delta vanishes),
2 usage or configuration errors.  Reports are JSON on stdout by default
("schema": 2); errors are JSON on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import chain as chain_mod
from . import qalg, rep_ring, rmatrix
from .bform import BForm, builtin_bform, load_bform
from .errors import ConvergenceFailure, NormalizationFailure, TLSpinError
from .reports import REPORT_SCHEMA_VERSION, ResidualReport, complex_to_pair, matrix_to_pairs
from .tl_rep import check_tl_relations

_NO_VERDICT_ERRORS = (NormalizationFailure, ConvergenceFailure)


def parse_complex(text: str) -> complex:
    """Accept Python complex literals: '2', '-5.05', '1+2j', '0.5j'."""
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="tlspin",
        description="Construct and verify the algebraic structure generated by an invertible matrix b.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_b_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("--family", choices=["kls", "xxz", "file"], default="kls")
        p.add_argument("--p", type=parse_complex, default=None, help="kls family parameter")
        p.add_argument("--q", type=parse_complex, default=None, help="xxz family parameter")
        p.add_argument("--b-file", default=None, help="JSON b-matrix file (family 'file')")
        p.add_argument("--n", type=int, default=None, help="expected local dimension (validated)")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=["json", "csv", "text"], default="json")

    cmd = sub.add_parser("verify", help="run the full identity suite")
    add_b_source(cmd)
    cmd.add_argument("--N", type=int, default=3)
    add_common(cmd)
    cmd.add_argument("--seed", type=int, default=42, help="draws the spectral points of the Yang-Baxter rows")

    cmd = sub.add_parser("spectrum", help="chain Hamiltonian spectrum and isotypic assignment")
    add_b_source(cmd)
    cmd.add_argument("--N", type=int, default=3)
    cmd.add_argument("--raw", action="store_true", help="CSV lists raw eigenvalues, not clusters")
    add_common(cmd)

    cmd = sub.add_parser("decompose", help="decomposition table for (n, N)")
    cmd.add_argument("--n", type=int, required=True)
    cmd.add_argument("--N", type=int, required=True)
    add_common(cmd)

    cmd = sub.add_parser("rmatrix", help="emit the constant or Baxterized matrix")
    add_b_source(cmd)
    cmd.add_argument("--u", type=parse_complex, default=None, help="spectral parameter")
    add_common(cmd)

    cmd = sub.add_parser("casimir", help="scalar Casimir contraction checks")
    add_b_source(cmd)
    add_common(cmd)

    cmd = sub.add_parser("centralizer", help="commutators of the braid generators with the tower")
    add_b_source(cmd)
    cmd.add_argument("--N", type=int, default=2)
    add_common(cmd)

    cmd = sub.add_parser("poincare", help="series coefficients of 1/(1 - n t + t^2)")
    cmd.add_argument("--n", type=int, required=True)
    cmd.add_argument("--K", type=int, required=True)
    add_common(cmd)

    cmd = sub.add_parser("symmetrizer", help="top isotypic projector rank")
    add_b_source(cmd)
    cmd.add_argument("--N", type=int, default=2)
    add_common(cmd)

    return parser


def _build_bform(args) -> BForm:
    family = args.family
    needed = {"kls": "--p", "xxz": "--q", "file": "--b-file"}[family]
    provided = {
        flag for flag, val in (("--p", args.p), ("--q", args.q), ("--b-file", args.b_file))
        if val is not None
    }
    if needed not in provided:
        raise ValueError(f"family {family!r} requires {needed}")
    if provided != {needed}:
        raise ValueError(
            f"exactly one b source allowed: family {family!r} takes {needed}, "
            f"got {sorted(provided)}"
        )
    if family == "kls":
        f = builtin_bform("kls", args.p)
    elif family == "xxz":
        f = builtin_bform("xxz", args.q)
    else:
        f = load_bform(args.b_file)
    if args.n is not None and args.n != f.n:
        raise ValueError(f"--n {args.n} does not match the local dimension {f.n} of b")
    return f


def _config_echo(args) -> dict:
    """The parsed flags of the subcommand, with complex values as [re, im] pairs."""
    return {key: complex_to_pair(val) if isinstance(val, complex) else val for key, val in vars(args).items()}


def _seeded_uv_pairs(seed: int) -> list[tuple[complex, complex]]:
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(5):
        mu, mv = rng.uniform(0.5, 2.0, size=2)
        pu, pv = rng.uniform(0.0, 2 * np.pi, size=2)
        pairs.append((mu * np.exp(1j * pu), mv * np.exp(1j * pv)))
    return pairs


def run_verify_suite(f: BForm, N: int, seed: int) -> ResidualReport:
    """The fixed-order identity suite used by the `verify` subcommand.

    The centralizer check runs first, since its tower budget is the
    tightest of the suite, and its rows are placed after RLL.
    """
    centralizer = qalg.check_centralizer(f, N)
    report = ResidualReport()
    report.extend(check_tl_relations(f, N))
    report.extend(rmatrix.check_braid(f))
    for i, (u, v) in enumerate(_seeded_uv_pairs(seed)):
        ybe = rmatrix.check_spectral_ybe(f, u, v)
        for c in ybe.checks:
            report.add(f"{c.name}_{i}", c.residual, c.threshold)
    report.extend(rmatrix.check_tl_cubic(f))
    report.extend(rmatrix.check_antisymmetrizer(f))
    u0 = 0.5 + 1.25j  # fixed regression point away from |u| = 1
    report.extend(rmatrix.check_unitarity(f, u0))
    report.extend(qalg.check_rll(f))
    report.extend(centralizer)
    report.extend(qalg.casimir_grouplike(f)[2])
    if f.family == "kls":
        report.extend(chain_mod.check_weight_symmetry(f, N))
    return report


def _cmd_verify(args) -> tuple[dict, ResidualReport]:
    f = _build_bform(args)
    start = time.perf_counter()
    report = run_verify_suite(f, args.N, args.seed)
    return {"wall_time_ms": (time.perf_counter() - start) * 1000.0}, report


def _cmd_spectrum(args) -> tuple[dict, ResidualReport]:
    f = _build_bform(args)
    rep = chain_mod.chain_spectrum(f, args.N)
    table = rep_ring.decomposition_table(f.n, args.N)
    body: dict = {"tables": {"spectrum": rep.to_dict(), "decomposition": table.to_dict()}}
    if args.raw:
        body["tables"]["raw_eigenvalues"] = [complex_to_pair(v) for v in rep.eigenvalues]
    assignment = chain_mod.check_isotypic(rep, table, f.tau)
    if assignment.report.passed:
        body["tables"]["isotypic"] = assignment.to_dict()
    return body, assignment.report


def _cmd_decompose(args) -> tuple[dict, ResidualReport]:
    table = rep_ring.decomposition_table(args.n, args.N)
    checks = ResidualReport()
    checks.add("sum_pk_nuk", float(abs(table.checks["sum_pk_nuk"] - args.n ** args.N)), 0.0)
    checks.add("catalan_check", float(abs(table.checks["catalan_check"] - rep_ring.catalan(args.N))), 0.0)
    return {"tables": {"decomposition": table.to_dict()}}, checks


def _cmd_rmatrix(args) -> tuple[dict, ResidualReport]:
    f = _build_bform(args)
    if args.u is not None:
        op = rmatrix.spectral_R(f, args.u)
    else:
        op = rmatrix.constant_R(f)
    table = {"label": op.label, "n": f.n, "entries": matrix_to_pairs(op.mat)}
    return {"tables": {"matrix": table}}, ResidualReport()


def _cmd_casimir(args) -> tuple[dict, ResidualReport]:
    f = _build_bform(args)
    cas, cas2, report = qalg.casimir_grouplike(f)
    table = {"c2": complex_to_pair(cas.c2), "ordering": "direct", "c2_two_sites": complex_to_pair(cas2.c2)}
    return {"tables": {"casimir": table}}, report


def _cmd_centralizer(args) -> tuple[dict, ResidualReport]:
    return {}, qalg.check_centralizer(_build_bform(args), args.N)


def _cmd_poincare(args) -> tuple[dict, ResidualReport]:
    coeffs = rep_ring.poincare_series(args.n, args.K)
    dims = rep_ring.dims_p(args.n, args.K)
    checks = ResidualReport()
    checks.add("series_matches_dims", float(coeffs != dims), 0.0)
    return {"tables": {"poincare": {"n": args.n, "K": args.K, "coefficients": coeffs, "dims_p": dims}}}, checks


def _cmd_symmetrizer(args) -> tuple[dict, ResidualReport]:
    f = _build_bform(args)
    sym = rep_ring.symmetrizer(f, args.N)
    expected = rep_ring.dims_p(f.n, args.N)[args.N]
    return {"tables": {"symmetrizer": {"rank": sym.rank, "expected_rank": expected, "N": args.N}}}, sym.report


_COMMANDS = {
    "verify": _cmd_verify,
    "spectrum": _cmd_spectrum,
    "decompose": _cmd_decompose,
    "rmatrix": _cmd_rmatrix,
    "casimir": _cmd_casimir,
    "centralizer": _cmd_centralizer,
    "poincare": _cmd_poincare,
    "symmetrizer": _cmd_symmetrizer,
}


def _emit(body: dict, args, code: int) -> None:
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        payload = {"schema": REPORT_SCHEMA_VERSION, "config": _config_echo(args)}
        payload.update(body)
        payload["exit"] = code
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    if fmt == "csv":
        print(_to_csv(body, args), end="")
        return
    print(_to_text(body, args, code), end="")


def _to_csv(body: dict, args) -> str:
    lines = []
    tables = body.get("tables", {})
    if args.command == "spectrum" and getattr(args, "raw", False):
        lines.append("re,im")
        for re, im in tables["raw_eigenvalues"]:
            lines.append(f"{re},{im}")
    elif args.command == "spectrum" and "spectrum" in tables:
        lines.append("value_re,value_im,multiplicity")
        for c in tables["spectrum"]["clusters"]:
            lines.append(f"{c['value'][0]},{c['value'][1]},{c['multiplicity']}")
    elif args.command == "decompose":
        lines.append("k,p_k,nu_k")
        for r in tables["decomposition"]["rows"]:
            lines.append(f"{r['k']},{r['p_k']},{r['nu_k']}")
    elif args.command == "poincare":
        lines.append("k,coefficient")
        for k, c in enumerate(tables["poincare"]["coefficients"]):
            lines.append(f"{k},{c}")
    elif args.command == "rmatrix":
        lines.append("i,j,re,im")
        entries = tables["matrix"]["entries"]
        for i, row in enumerate(entries):
            for j, (re, im) in enumerate(row):
                lines.append(f"{i},{j},{re},{im}")
    else:
        lines.append("name,residual,threshold,pass")
        for c in body.get("checks", []):
            lines.append(f"{c['name']},{c['residual']},{c['threshold']},{c['pass']}")
    return "\n".join(lines) + "\n"


def _to_text(body: dict, args, code: int) -> str:
    lines = [f"tlspin {args.command}"]
    for c in body.get("checks", []):
        status = "PASS" if c["pass"] else "FAIL"
        lines.append(f"  [{status}] {c['name']}: residual {c['residual']:.3e} (<= {c['threshold']:.3e})")
    tables = body.get("tables", {})
    for name, table in tables.items():
        lines.append(f"  {name}: {json.dumps(table)}")
    lines.append(f"exit {code}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        body, report = _COMMANDS[args.command](args)
    except _NO_VERDICT_ERRORS as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
    except (TLSpinError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    body["checks"] = [c.to_dict() for c in report.checks]
    code = 0 if report.passed else 1
    try:
        _emit(body, args, code)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: the command's verdict stands, and stdout
        # points at devnull so the flush at exit raises nothing more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())

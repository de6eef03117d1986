"""The three workloads: inputs made from the seed, and the operations of a pass.

``make_inputs`` is what a user pays before the first call (b files written,
BForm objects built); the set-up probe times it in a fresh interpreter.
``make_ops`` pairs each timed call into tlspin with the check of its output
against ``oracle``.  Every pass runs the same operations in the same order.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
import tlspin
from tlspin import cli

WORKLOADS = ("verify", "spectrum", "tower")


@dataclass
class Op:
    label: str
    call: Callable[[], object]  # the timed call into tlspin
    check: Callable[[object], oracle.Verdict]


@dataclass
class Inputs:
    workload: str
    seed: int
    cli_runs: list = field(default_factory=list)  # (label, argv, b, N, kind)
    lib: dict = field(default_factory=dict)  # objects handed to library calls


def run_cli(argv: list) -> tuple:
    """tlspin.cli.main with stdout and stderr captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _num(z: complex) -> str:
    """A complex flag value the program parses back to exactly z."""
    z = complex(z)
    return repr(z.real) if z.imag == 0 else f"{z.real!r}{z.imag:+.17g}j"


def _haar(rng, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _fixed_condition(rng, singular_values) -> np.ndarray:
    """Haar-random U diag(s) V: random directions, condition number max(s)/min(s).

    Fixing the singular values keeps the accuracy of the checks, and so
    margin_digits, from swinging with how well a random draw is conditioned.
    """
    n = len(singular_values)
    return _haar(rng, n) @ np.diag(singular_values) @ _haar(rng, n)


def _write_b(path: Path, b: np.ndarray) -> str:
    obj = {"n": b.shape[0], "entries": [[[v.real, v.imag] for v in row] for row in b]}
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _family(name: str, param: complex):
    b = oracle.kls_b(param) if name == "kls" else oracle.xxz_b(param)
    flag = "--p" if name == "kls" else "--q"
    return ["--family", name, flag, _num(param)], b


def make_inputs(workload: str, seed: int, workdir: Path) -> Inputs:
    seed %= 2 ** 32  # numpy seeds, and so the CLI's --seed, must be non-negative
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    inputs = Inputs(workload, seed)
    runs = inputs.cli_runs
    if workload == "verify":
        fixed = [("kls", 2.0, (3, 6)), ("kls", 1.5 + 0.5j, (4, 5)), ("xxz", 3.0, (3, 4, 5, 6)), ("xxz", 2 + 1j, (4, 6))]
        for name, param, sizes in fixed:
            source, b = _family(name, param)
            for N in sizes:
                argv = ["verify", *source, "--N", str(N), "--seed", str(seed)]
                runs.append((f"{name}:{_num(param)}:N{N}", argv, b, N, name))
        for n, sv, N in ((3, (1.0, 2.0, 3.0), 4), (4, (1.0, 1.5, 2.0, 3.0), 3)):
            b = _fixed_condition(rng, sv)
            argv = ["verify", "--family", "file", "--b-file", _write_b(workdir / f"b{n}.json", b)]
            argv += ["--N", str(N), "--seed", str(seed)]
            runs.append((f"file:n{n}:N{N}", argv, b, N, "file"))
    elif workload == "spectrum":
        fixed = [("kls", p, 6) for p in (1.5, 2.5, 3.0)]
        fixed += [("xxz", -2.0, 7), ("xxz", 2.0, 7), ("xxz", 3.0, 7), ("xxz", 3.0, 8), ("xxz", 2 + 1j, 6)]
        fixed += [("kls", 1 + 1j, 3)]  # fails every time: see README
        for name, param, N in fixed:
            source, b = _family(name, param)
            argv = ["spectrum", *source, "--N", str(N), "--raw"]
            runs.append((f"{name}:{_num(param)}:N{N}", argv, b, N, name))
        # a random congruence M b M^t of kls p=2: same spectrum, non-Hermitian H
        m = _fixed_condition(rng, (1.0, 1.5, 2.0))
        b = m @ oracle.kls_b(2.0) @ m.T
        argv = ["spectrum", "--family", "file", "--b-file", _write_b(workdir / "gauge.json", b), "--N", "5", "--raw"]
        runs.append(("gauge-kls:2.0:N5", argv, b, 5, "file"))
    elif workload == "tower":
        p = 2.0
        source, b = _family("kls", p)
        runs.append((f"symmetrizer:kls:{_num(p)}:N6", ["symmetrizer", *source, "--N", "6"], b, 6, "kls"))
        runs.append((f"centralizer:kls:{_num(p)}:N7", ["centralizer", *source, "--N", "7"], b, 7, "kls"))
        inputs.lib = {"bform": tlspin.builtin_bform("kls", p), "b": b, "p": p}
        # the vector the oracle tests T(9) on
        inputs.lib["vector"] = rng.normal(size=3 ** 9) + 1j * rng.normal(size=3 ** 9)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return inputs


def _failing_checks(stdout: str) -> str:
    try:
        checks = json.loads(stdout)["checks"]
    except (ValueError, KeyError):
        return stdout[:200]
    return "failing checks " + ", ".join(c["name"] for c in checks if not c["pass"])


def _op(label: str, call: Callable, checker: Callable) -> Op:
    """An exception from the call counts as a failed operation, as does a nonzero exit."""

    def run():
        try:
            return call()
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            return exc

    def check(result) -> oracle.Verdict:
        if isinstance(result, Exception):
            return oracle.Verdict(failed=True, reason=f"{type(result).__name__}: {result}")
        return checker(result)

    return Op(label, run, check)


def _cli_op(label: str, argv: list, checker: Callable) -> Op:
    def check(result) -> oracle.Verdict:
        code, stdout, stderr = result
        verdict = checker(code, json.loads(stdout) if code == 0 else None)
        if verdict.failed:
            verdict.reason = f"exit {code}: {stderr.strip() or _failing_checks(stdout)}"
        return verdict

    return _op(label, lambda: run_cli(argv), check)


def make_ops(inputs: Inputs) -> list:
    ops = []
    for label, argv, b, N, kind in inputs.cli_runs:
        command, model = argv[0], oracle.Model(b)
        if command == "verify":
            checker = lambda code, out, m=model, N=N, kls=kind == "kls": oracle.check_verify(code, out, m, N, kls)
        elif command == "spectrum":
            checker = lambda code, out, m=model, N=N: oracle.check_spectrum(code, out, m, N)
        elif command == "symmetrizer":
            checker = lambda code, out, n=model.n, N=N: oracle.check_symmetrizer(code, out, n, N)
        else:
            checker = lambda code, out, n=model.n, N=N: oracle.check_centralizer(code, out, n, N)
        ops.append(_cli_op(label, argv, checker))
    if inputs.workload == "tower":
        lib = inputs.lib
        f, model, v = lib["bform"], oracle.Model(lib["b"]), lib["vector"]
        ops.append(
            _op(
                f"coproduct_T:kls:{_num(lib['p'])}:N9",
                lambda: tlspin.coproduct_T(f, 9),
                lambda tower: oracle.check_tower([[op.matrix for op in row] for row in tower.entries], model, 9, v),
            )
        )
        ops.append(
            _op(
                f"casimir:T3:kls:{_num(lib['p'])}",
                lambda: tlspin.casimir(f, aux=tlspin.coproduct_T(f, 3)),
                lambda res: oracle.check_casimir(
                    res.c2, [(c.name, c.residual, c.threshold) for c in res.report.checks], model, 3
                ),
            )
        )
    return ops

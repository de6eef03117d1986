"""Command-line interface: exit codes, report schema, output formats."""

import json
import os
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import tlspin as t
from tlspin import chain, qalg, rep_ring, rmatrix, tl_rep
from tlspin.bform import b_matrix_to_obj
from tlspin.cli import build_parser, main, parse_complex

# Every check the program reports, as a full-match name pattern, with the
# threshold that check is held to.
THRESHOLDS = {
    r"tl_(square_j\d+|sandwich_j\d+_k\d+|commute_j\d+_k\d+)": 1e-10,
    r"braid": 1e-8,
    r"spectral_ybe_\d+": 1e-8,
    r"cubic_(spectral|constant)_(121|212)": 1e-8,
    r"antisym_vanishing\[q\^-3\]": 1e-8,
    r"antisym_unique_named_candidate": 0.0,
    r"spectral_unitarity": 1e-10,
    r"rll": 1e-8,
    r"centralizer_(R\d+|H)_T\[\d,\d\]": 1e-8,
    r"casimir_(scalar|value_q|grouplike|combination)": 1e-8,
    r"weight_symmetry_local": 1e-12,
    r"weight_symmetry_global": 1e-10,
    r"symmetrizer_idempotent": 1e-8,
    r"symmetrizer_rank": 0.0,
    r"isotypic_assignment": 0.0,
    r"sum_pk_nuk|catalan_check|series_matches_dims": 0.0,
    # reported by the library only
    r"coassociativity|pminus_image_stable": 1e-10,
    r"orbit_rank_8": 0.0,
    r"b3_in_double_lowering_span|lowering_terminates_on_e3e3": 1e-8,
    r"invariant_line_eigenvalue": 1e-10,
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_complex_literals(self):
        assert parse_complex("2") == 2
        assert parse_complex("-5.05") == -5.05
        assert parse_complex("1+2j") == 1 + 2j
        assert parse_complex("0.5j") == 0.5j

    def test_bad_literal(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex("two")


class TestVerify:
    def test_kls_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "kls", "--p", "2", "--n", "3", "--N", "3")
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 2
        assert report["exit"] == 0
        assert report["checks"] and all(c["pass"] for c in report["checks"])
        assert {"name", "residual", "threshold", "pass"} <= set(report["checks"][0])

    def test_xxz_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "xxz", "--q", "3", "--N", "4")
        assert code == 0

    def test_degenerate_parameter_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--family", "xxz", "--q", "1")
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "DegenerateParameter"

    @pytest.mark.parametrize("argv", [
        ("verify", "--family", "kls", "--p", "inf"),
        ("verify", "--family", "kls", "--p", "infj"),
        ("rmatrix", "--family", "kls", "--p", "inf"),
    ])
    def test_non_finite_kls_parameter_is_config_error(self, capsys, argv):
        # p ** k would overflow in b; p is refused before b is built
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert payload["message"].startswith("kls family requires a finite p")

    def test_missing_parameter_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--family", "kls")
        assert code == 2
        assert json.loads(err)["error"] == "ValueError"

    def test_conflicting_b_sources_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--family", "kls", "--p", "2", "--q", "3")
        assert code == 2
        assert "exactly one b source" in json.loads(err)["message"]

    def test_dimension_mismatch_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--family", "kls", "--p", "2", "--n", "2")
        assert code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["verify", "--bogus"]) == 2

    def test_deterministic_output(self, capsys):
        args = ("verify", "--family", "xxz", "--q", "3", "--N", "3", "--seed", "7")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("wall_time_ms"), d2.pop("wall_time_ms")
        assert d1 == d2

    def test_parser_built_once_per_process(self, capsys):
        # main reuses one parser: parsing leaves it as it was, so a later call
        # prints what an earlier one did, and usage errors still exit 2
        assert build_parser() is build_parser()
        args = ("centralizer", "--family", "kls", "--p", "2", "--N", "3", "--format", "csv")
        code1, out1, _ = run_cli(capsys, *args)
        assert run_cli(capsys, "centralizer", "--N", "three")[0] == 2
        assert run_cli(capsys, "verify", "--bogus")[0] == 2
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2 and "centralizer_H_T[3,3]" in out1

    def test_file_family(self, capsys, tmp_path, kls):
        from tlspin.bform import b_matrix_to_obj

        path = tmp_path / "b.json"
        path.write_text(json.dumps(b_matrix_to_obj(kls)))
        code, out, _ = run_cli(capsys, "verify", "--family", "file", "--b-file", str(path), "--N", "3")
        assert code == 0

    def test_missing_file_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--family", "file", "--b-file", "/nonexistent.json")
        assert code == 2

    @pytest.mark.parametrize("flag", ["--u", "--v"])
    def test_half_a_spectral_point_is_usage_error(self, capsys, flag):
        # verify takes no explicit spectral point: its points come from --seed
        code, out, err = run_cli(capsys, "verify", "--family", "kls", "--p", "2", "--N", "3", flag, "2")
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {flag} 2" in err

    def test_antisymmetrizer_row_near_q_one(self, capsys):
        # q^-1 and q^-3 both annihilate A3 at q -> 1: the q^-3 row is still
        # reported, and the unique-candidate row fails
        code, out, _ = run_cli(capsys, "verify", "--family", "xxz", "--q", "1.000000001", "--N", "3")
        assert code == 1
        rows = {c["name"]: c for c in json.loads(out)["checks"] if c["name"].startswith("antisym_")}
        assert list(rows) == ["antisym_vanishing[q^-3]", "antisym_unique_named_candidate"]
        assert rows["antisym_unique_named_candidate"]["residual"] == 1.0
        assert not rows["antisym_unique_named_candidate"]["pass"]


class TestSpectrumCommand:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--family", "kls", "--p", "2", "--N", "3")
        assert code == 0
        report = json.loads(out)
        clusters = report["tables"]["spectrum"]["clusters"]
        mults = sorted(c["multiplicity"] for c in clusters)
        assert mults == [3, 3, 21]
        assert report["tables"]["isotypic"]["per_k"] == {"1": 2, "3": 1}

    def test_csv_clusters(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--family", "xxz", "--q", "3", "--N", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "value_re,value_im,multiplicity"
        assert len(lines) == 3

    def test_csv_raw_eigenvalues(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--family", "xxz", "--q", "3", "--N", "2",
            "--format", "csv", "--raw",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "re,im"
        assert len(lines) == 5  # one row per eigenvalue of the 4-dim space

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_bad_cluster_tol_is_usage_error(self, capsys, value):
        # the clustering radius is fixed by hermiticity; no value is accepted
        code, out, err = run_cli(capsys, "spectrum", "--family", "kls", "--p", "2", "--N", "3", "--cluster-tol", value)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: --cluster-tol {value}" in err

    def test_a_failed_assignment_is_a_failing_row(self, capsys, monkeypatch):
        # a clustering radius of 0 splits the degenerate clusters by round-off:
        # no assignment explains them, its row fails and no isotypic table is printed
        monkeypatch.setattr(chain, "CLUSTER_TOL_HERMITIAN", 0.0)
        code, out, err = run_cli(capsys, "spectrum", "--family", "kls", "--p", "2", "--N", "3")
        assert (code, err) == (1, "")
        body = json.loads(out)
        assert body["exit"] == 1
        assert body["checks"] == [{"name": "isotypic_assignment", "residual": 1.0, "threshold": 0.0, "pass": False}]
        assert set(body["tables"]) == {"spectrum", "decomposition"}

    def test_shared_real_parts_pass(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--family", "kls", "--p", "1+1j", "--N", "3")
        assert code == 0
        mults = sorted(c["multiplicity"] for c in json.loads(out)["tables"]["spectrum"]["clusters"])
        assert mults == [3, 3, 21]


class TestDecomposeCommand:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--n", "3", "--N", "4")
        assert code == 0
        rows = json.loads(out)["tables"]["decomposition"]["rows"]
        assert rows == [
            {"k": 0, "p_k": 1, "nu_k": 2},
            {"k": 2, "p_k": 8, "nu_k": 3},
            {"k": 4, "p_k": 55, "nu_k": 1},
        ]
        assert json.loads(out)["tables"]["decomposition"]["checks"]["sum_pk_nuk"] == 81

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--n", "3", "--N", "4", "--format", "csv")
        assert out.splitlines()[0] == "k,p_k,nu_k"
        assert "4,55,1" in out

    def test_wrong_sums_fail_their_rows(self, capsys, monkeypatch):
        # a wrong nu_0 is decided by the two sum rows (exit 1), not by a raise (exit 2)
        exact = rep_ring.mult_nu
        monkeypatch.setattr(rep_ring, "mult_nu", lambda N: {**exact(N), 0: exact(N)[0] + 1})
        code, out, err = run_cli(capsys, "decompose", "--n", "3", "--N", "4")
        assert code == 1
        assert err == ""
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        # 3 p_0 + 3 p_2 + p_4 = 82 against 3^4; 3^2 + 3^2 + 1^2 = 19 against C_4 = 14
        assert checks["sum_pk_nuk"] == {"name": "sum_pk_nuk", "residual": 1.0, "threshold": 0.0, "pass": False}
        assert checks["catalan_check"] == {"name": "catalan_check", "residual": 5.0, "threshold": 0.0, "pass": False}

    def test_boundary_rows_still_raise(self, capsys, monkeypatch):
        exact = rep_ring.mult_nu
        monkeypatch.setattr(rep_ring, "mult_nu", lambda N: {**exact(N), N: 2})
        code, out, err = run_cli(capsys, "decompose", "--n", "3", "--N", "4")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValueError"

    def test_catalan_budget_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "decompose", "--n", "3", "--N", "31")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "SizeBudgetExceeded"


# over-budget integer commands and their stderr messages; the series
# budgets count bits, not a dimension
OVER_BUDGET = {
    ("decompose", "--n", "3", "--N", "20000"): "catalan: N = 20000 exceeds the integer budget 30",
    ("poincare", "--n", "3", "--K", "300000"):
        "poincare_series: order 300000 x 2-bit n = 600000 bits exceeds budget 14000 bits",
    ("poincare", "--n", "2", "--K", "50000000"):
        "poincare_series: order 50000000 x 2-bit n = 100000000 bits exceeds budget 14000 bits",
    # terms past CPython's 4300-digit int-to-str limit
    ("poincare", "--n", "3", "--K", "12000"):
        "poincare_series: order 12000 x 2-bit n = 24000 bits exceeds budget 14000 bits",
    ("decompose", "--n", str(10 ** 200), "--N", "30"):
        "dims_p: order 30 x 665-bit n = 19950 bits exceeds budget 14000 bits",
}


class TestIntegerBudgets:
    @pytest.mark.parametrize("argv", list(OVER_BUDGET))
    def test_over_budget_fails_fast(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 2.0
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "SizeBudgetExceeded", "message": OVER_BUDGET[argv]}


class TestTowerBudget:
    @pytest.mark.parametrize("command", ["verify", "centralizer"])
    def test_dense_tower_over_nonzero_budget_fails_fast(self, capsys, tmp_path, random_bform, command):
        # a dense n = 4 b at N = 6: n^N = 4096 is inside the sparse budget, but the
        # tower would store 16 entries of 4096^2 nonzeros, about 5 GB
        path = tmp_path / "b.json"
        path.write_text(json.dumps(b_matrix_to_obj(random_bform(613, 4))))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--family", "file", "--b-file", str(path), "--N", "6")
        assert time.perf_counter() - start < 5.0
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "SizeBudgetExceeded",
            "message": "coproduct_T: up to 268435456 nonzeros exceed budget 8388608",
        }

    def test_verify_meets_the_tower_budget_before_any_other_check(self, monkeypatch):
        # a dense b's tower stores up to n^(2N+2) nonzeros, the tightest budget of
        # the suite: n = 8 at N = 3 is refused before any three-site check is
        # formed, and the centralizer rows keep their place after rll
        from tlspin import cli

        suite = [(cli, "check_tl_relations"), (qalg, "check_centralizer"), (qalg, "check_rll"),
                 (qalg, "casimir_grouplike"), (chain, "check_weight_symmetry")]
        suite += [(rmatrix, name) for name in ("check_braid", "check_spectral_ybe", "check_tl_cubic",
                                               "check_antisymmetrizer", "check_unitarity")]
        called = []
        for module, name in suite:
            check = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _c=check, _n=name: called.append(_n) or _c(*a))
        rng = np.random.default_rng(8)
        dense = t.make_bform(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        with pytest.raises(t.SizeBudgetExceeded, match="coproduct_T: up to 16777216 nonzeros"):
            cli.run_verify_suite(dense, 3, 42)
        assert called == ["check_centralizer"]
        called.clear()
        names = [c.name for c in cli.run_verify_suite(t.builtin_bform("kls", 2.0), 3, 42).checks]
        assert called == ["check_centralizer", "check_tl_relations", "check_braid", *["check_spectral_ybe"] * 5,
                          "check_tl_cubic", "check_antisymmetrizer", "check_unitarity", "check_rll",
                          "casimir_grouplike", "check_weight_symmetry"]
        assert names[names.index("rll") + 1] == "centralizer_R1_T[1,1]"
        assert names[-1].startswith("weight_symmetry")


class TestRmatrixCommand:
    def test_constant_matrix(self, capsys):
        code, out, _ = run_cli(capsys, "rmatrix", "--family", "xxz", "--q", "3")
        entries = json.loads(out)["tables"]["matrix"]["entries"]
        assert entries[0][0] == [3.0, 0.0]
        assert entries[1][2] == [1.0, 0.0]

    def test_spectral_matrix(self, capsys):
        code, out, _ = run_cli(capsys, "rmatrix", "--family", "xxz", "--q", "3", "--u", "1")
        entries = json.loads(out)["tables"]["matrix"]["entries"]
        # at u = 1 the matrix is w(q) I
        w = 3 - 1 / 3
        assert abs(entries[0][0][0] - w) <= 1e-12
        assert entries[0][1] == [0.0, 0.0]


class TestOtherCommands:
    def test_casimir(self, capsys):
        code, out, _ = run_cli(capsys, "casimir", "--family", "kls", "--p", "2")
        assert code == 0
        table = json.loads(out)["tables"]["casimir"]
        assert table["ordering"] == "direct"
        assert abs(table["c2"][0] ** 2 - table["c2_two_sites"][0]) <= 1e-6

    def test_centralizer(self, capsys):
        code, out, _ = run_cli(capsys, "centralizer", "--family", "xxz", "--q", "3", "--N", "3")
        assert code == 0

    def test_poincare(self, capsys):
        code, out, _ = run_cli(capsys, "poincare", "--n", "2", "--K", "4")
        table = json.loads(out)["tables"]["poincare"]
        assert table["coefficients"] == [1, 2, 3, 4, 5]
        assert code == 0

    def test_symmetrizer(self, capsys):
        code, out, _ = run_cli(capsys, "symmetrizer", "--family", "kls", "--p", "2", "--N", "3")
        assert code == 0
        assert json.loads(out)["tables"]["symmetrizer"]["rank"] == 21

    def test_symmetrizer_reports_library_result(self, capsys):
        code, out, _ = run_cli(capsys, "symmetrizer", "--family", "xxz", "--q", "3", "--N", "4")
        body = json.loads(out)
        lib = t.symmetrizer(t.builtin_bform("xxz", 3), 4)
        residuals = {c["name"]: c["residual"] for c in body["checks"]}
        assert code == 0
        assert body["tables"]["symmetrizer"]["rank"] == lib.rank
        idempotent = next(c.residual for c in lib.report.checks if c.name == "symmetrizer_idempotent")
        assert residuals["symmetrizer_idempotent"] == idempotent

    def test_symmetrizer_rank_mismatch_exits_1_with_report(self, capsys, monkeypatch):
        exact = rep_ring.dims_p
        monkeypatch.setattr(rep_ring, "dims_p", lambda n, k: [d + 1 for d in exact(n, k)])
        code, out, err = run_cli(capsys, "symmetrizer", "--family", "kls", "--p", "2", "--N", "3")
        assert code == 1
        assert err == ""
        body = json.loads(out)
        assert body["exit"] == 1
        assert body["tables"]["symmetrizer"] == {"rank": 21, "expected_rank": 22, "N": 3}
        rank_row = next(c for c in body["checks"] if c["name"] == "symmetrizer_rank")
        assert rank_row["residual"] == 1.0
        assert not rank_row["pass"]

    def test_grouplike_residual_shared_by_verify_and_casimir(self, capsys):
        source = ("--family", "kls", "--p", "1.5+0.5j")
        reports = [json.loads(run_cli(capsys, *cmd, *source)[1]) for cmd in (("verify", "--N", "3"), ("casimir",))]
        grouplike = [next(c for c in r["checks"] if c["name"] == "casimir_grouplike") for r in reports]
        assert grouplike[0] == grouplike[1]
        lib = t.casimir_grouplike(t.builtin_bform("kls", 1.5 + 0.5j))[2]
        assert grouplike[0]["residual"] == next(c.residual for c in lib.checks if c.name == "casimir_grouplike")

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "poincare", "--n", "3", "--K", "3", "--format", "text")
        assert "[PASS]" in out
        assert "exit 0" in out


class TestThresholds:
    def test_every_check_has_its_fixed_threshold(self, capsys, tmp_path, kls, random_bform):
        path = tmp_path / "b.json"
        path.write_text(json.dumps(b_matrix_to_obj(random_bform(500, 3))))
        runs = [
            ("verify", "--family", "kls", "--p", "2", "--N", "3"),
            ("verify", "--family", "xxz", "--q", "3", "--N", "4"),
            ("verify", "--family", "file", "--b-file", str(path), "--N", "3"),
            ("centralizer", "--family", "kls", "--p", "2", "--N", "3"),
            ("casimir", "--family", "kls", "--p", "2"),
            ("symmetrizer", "--family", "xxz", "--q", "3", "--N", "4"),
            ("spectrum", "--family", "kls", "--p", "2", "--N", "3"),
            ("decompose", "--n", "3", "--N", "4"),
            ("poincare", "--n", "3", "--K", "5"),
        ]
        rows = []
        for argv in runs:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0, argv
            rows += [(c["name"], c["threshold"]) for c in json.loads(out)["checks"]]
        for report in (t.check_coassociativity(kls), t.check_pminus_invariance(kls), t.highest_weight_scan(kls)):
            rows += [(c.name, c.threshold) for c in report.checks]
        matched = set()
        for name, threshold in rows:
            patterns = [p for p in THRESHOLDS if re.fullmatch(p, name)]
            assert len(patterns) == 1, name
            assert threshold == THRESHOLDS[patterns[0]], name
            matched.add(patterns[0])
        assert matched == set(THRESHOLDS)


KLS = ("--family", "kls", "--p", "2")


# The row families of `verify`, each a full-match name pattern.
VERIFY_FAMILIES = {
    "tl": r"tl_(square|sandwich)_j\d+(_k\d+)?",
    "tl_commute": r"tl_commute_j\d+_k\d+",
    "rmatrix": r"braid|spectral_ybe_\d+|cubic_.*|antisym_.*|spectral_unitarity",
    "rll": r"rll",
    "centralizer": r"centralizer_.*",
    "casimir": r"casimir_.*",
    "weight_symmetry": r"weight_symmetry_(local|global)",
}


def failing_families(checks):
    return {f for c in checks if not c["pass"] for f, p in VERIFY_FAMILIES.items() if re.fullmatch(p, c["name"])}


def verify_rows(capsys, source, N):
    code, out, err = run_cli(capsys, "verify", *source, "--N", str(N))
    assert err == ""
    body = json.loads(out)
    assert body["exit"] == code
    for c in body["checks"]:
        assert sum(bool(re.fullmatch(p, c["name"])) for p in VERIFY_FAMILIES.values()) == 1, c["name"]
    return code, body["checks"]


def x_with_b_inv_entry(at, delta):
    """local_X with b^{-1}[at] moved by delta times the largest entry of b^{-1}, inside X only."""

    def local_x(f):
        b_inv = f.b_inv.copy()
        index = np.unravel_index(np.argmax(abs(b_inv)), b_inv.shape) if at is None else at
        b_inv[index] += delta * abs(b_inv).max()
        return tl_rep.LocalOp(n=f.n, mat=np.outer(f.b.ravel(), b_inv.ravel()), label="X")

    return local_x


class TestEveryFailureIsARow:
    """A named defect fails its row family, and `verify` still prints every row.

    A flipped tower entry, which fails its centralizer rows alone, is
    ``tests/test_qalg.py::TestCentralizer::test_an_entry_that_does_not_commute_fails_its_rows``.
    ``tl_commute_j*_k*`` is the one family that no defect fails: each entry
    of X_j X_k with |j - k| > 1 is a single product x y, and IEEE
    multiplication commutes, so the row reads exactly 0 for every finite b.
    """

    @pytest.mark.parametrize("source", [KLS, ("--family", "xxz", "--q", "3")])
    def test_a_perturbed_x_fails_every_family_that_reads_it(self, capsys, monkeypatch, source):
        # X is no longer vec(b) vec(b^{-1})^t for the b the checks also read, and
        # no longer a TL generator; the largest entry of b^{-1} keeps its place,
        # so the weight grading of kls survives
        _, rows = verify_rows(capsys, source, 4)
        for module in (tl_rep, rmatrix, qalg, chain, rep_ring):
            monkeypatch.setattr(module, "local_X", x_with_b_inv_entry(None, 1e-6))
        code, broken = verify_rows(capsys, source, 4)
        assert code == 1
        assert [c["name"] for c in broken] == [c["name"] for c in rows]
        assert failing_families(broken) == {"tl", "rmatrix", "rll", "centralizer", "casimir"}

    def test_an_entry_off_the_grading_fails_the_weight_rows(self, capsys, monkeypatch):
        # b^{-1}[1, 1] = 0 for kls: a nonzero value there gives X a column of
        # weight 2, which the antidiagonal rows of weight 0 cannot balance
        _, rows = verify_rows(capsys, KLS, 4)
        for module in (tl_rep, rmatrix, qalg, chain, rep_ring):
            monkeypatch.setattr(module, "local_X", x_with_b_inv_entry((0, 0), 1e-6))
        code, broken = verify_rows(capsys, KLS, 4)
        assert code == 1
        assert [c["name"] for c in broken] == [c["name"] for c in rows]
        assert "weight_symmetry" in failing_families(broken)
        assert "tl_commute" not in failing_families(broken)

    def test_large_p_fails_one_row_and_prints_the_rest(self, capsys):
        # ROADMAP item 7: the float64 T(2) contraction misses c2^2 delta_ab I by 4.2e-8 at p = 20
        code, rows = verify_rows(capsys, ("--family", "kls", "--p", "20"), 3)
        _, reference = verify_rows(capsys, KLS, 3)
        assert code == 1
        assert [c["name"] for c in rows] == [c["name"] for c in reference]
        assert [c["name"] for c in rows if not c["pass"]] == ["casimir_grouplike"]

    def test_a_symmetrizer_that_misses_idempotence_prints_its_rows(self, capsys, tmp_path):
        # xxz q = -1.39 under M b M^t, cond(M) = 31, read back from its file (which
        # recomputes tau from b): idempotence misses by 8.5e-4 at N = 7
        m = np.random.default_rng(9).normal(size=(2, 2))
        path = tmp_path / "gauged.json"
        path.write_text(json.dumps(b_matrix_to_obj(t.gauge_transform(t.builtin_bform("xxz", -1.39), m))))
        code, out, err = run_cli(capsys, "symmetrizer", "--family", "file", "--b-file", str(path), "--N", "7")
        body = json.loads(out)
        assert (code, body["exit"], err) == (1, 1, "")
        assert body["tables"]["symmetrizer"] == {"rank": None, "expected_rank": 8, "N": 7}
        assert [(c["name"], c["pass"]) for c in body["checks"]] == [
            ("symmetrizer_idempotent", False),
            ("symmetrizer_rank", False),
        ]


# Options that no caller set, removed with the code that served them: a
# construction tolerance, a clustering radius, an explicit Yang-Baxter point,
# and a seed on the subcommands that draw nothing.
REMOVED_OPTIONS = [
    # merged all 81 eigenvalues into one cluster, which passes isotypic_assignment vacuously
    ("spectrum", *KLS, "--N", "4", "--cluster-tol", "1e3"),
    ("verify", *KLS, "--N", "3", "--tol", "1e-3"),
    ("spectrum", *KLS, "--N", "3", "--tol", "1e-3"),
    ("casimir", *KLS, "--tol", "1e-3"),
    ("verify", "--family", "xxz", "--q", "3", "--N", "3", "--u", "2", "--v", "0.7"),
    ("spectrum", *KLS, "--N", "3", "--seed", "1"),
    ("decompose", "--n", "3", "--N", "4", "--seed", "1"),
    ("rmatrix", *KLS, "--seed", "1"),
    ("casimir", *KLS, "--seed", "1"),
    ("centralizer", *KLS, "--N", "3", "--seed", "1"),
    ("poincare", "--n", "3", "--K", "5", "--seed", "1"),
    ("symmetrizer", *KLS, "--N", "3", "--seed", "1"),
]

# The flags each subcommand parses, which its JSON config echoes.
B_SOURCE = {"family", "p", "q", "b_file", "n"}
CONFIG_KEYS = {
    ("verify", *KLS): {"command", "format", "N", "seed"} | B_SOURCE,
    ("spectrum", *KLS): {"command", "format", "N", "raw"} | B_SOURCE,
    ("decompose", "--n", "3", "--N", "4"): {"command", "format", "n", "N"},
    ("rmatrix", *KLS): {"command", "format", "u"} | B_SOURCE,
    ("casimir", *KLS): {"command", "format"} | B_SOURCE,
    ("centralizer", *KLS): {"command", "format", "N"} | B_SOURCE,
    ("poincare", "--n", "3", "--K", "5"): {"command", "format", "n", "K"},
    ("symmetrizer", *KLS): {"command", "format", "N"} | B_SOURCE,
}


class TestOptions:
    @pytest.mark.parametrize("argv", REMOVED_OPTIONS)
    def test_removed_option_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("argv", list(CONFIG_KEYS))
    def test_config_echoes_exactly_the_parsed_flags(self, capsys, argv):
        report = json.loads(run_cli(capsys, *argv)[1])
        assert report["schema"] == 2
        assert set(report["config"]) == CONFIG_KEYS[argv]
        assert report["config"]["command"] == argv[0]

    def test_config_values(self, capsys):
        out = run_cli(capsys, "verify", "--family", "kls", "--p", "1.5+0.5j", "--N", "3", "--seed", "7")[1]
        assert json.loads(out)["config"] == {
            "command": "verify", "family": "kls", "p": [1.5, 0.5], "q": None, "b_file": None,
            "n": None, "N": 3, "format": "json", "seed": 7,
        }
        out = run_cli(capsys, "rmatrix", "--family", "xxz", "--q", "3", "--u", "2")[1]
        config = json.loads(out)["config"]
        assert (config["q"], config["u"], config["p"]) == ([3.0, 0.0], [2.0, 0.0], None)


def _child_env() -> dict:
    """The environment of a child that finds the package where this process found it, installed or not."""
    src = str(Path(t.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tlspin", "decompose", "--n", "3", "--N", "2"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["exit"] == 0

    def test_closed_stdout_keeps_the_exit_code(self):
        # the reader is gone before the report is written (as with `| head -c 10`):
        # no traceback, and the command's own code, not the 1 of a failed check
        proc = subprocess.Popen(
            [sys.executable, "-m", "tlspin", "verify", "--family", "kls", "--p", "2", "--N", "3"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_child_env(),
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == b""

    def test_scipy_sparse_loads_on_the_first_chain_sized_call(self):
        # a fresh interpreter: the import, the integer commands, rmatrix and a
        # BForm need numpy only; verify loads scipy.sparse, and every layer
        # module is loaded from the start
        code = textwrap.dedent("""
            import contextlib, io, sys
            import tlspin
            from tlspin import cli
            tlspin.builtin_bform("kls", 2)
            commands = (["poincare", "--n", "3", "--K", "8"], ["decompose", "--n", "3", "--N", "4"],
                        ["rmatrix", "--family", "xxz", "--q", "3"])
            for argv in commands:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv) == 0, argv
            assert "scipy.sparse" not in sys.modules
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["verify", "--family", "kls", "--p", "2", "--N", "3"]) == 0
            assert "scipy.sparse" in sys.modules
            layers = ("cli", "bform", "tl_rep", "rmatrix", "qalg", "chain", "rep_ring", "linalg")
            assert all(f"tlspin.{layer}" in sys.modules for layer in layers)
        """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr

    def test_a_small_centralizer_loads_no_scipy(self):
        # a fresh interpreter: a tower of at most DENSE_CENTRALIZER_DIM states is
        # contracted densely, and its bonds, read only for the scale of H, are
        # written dense, so neither command loads scipy.sparse
        code = textwrap.dedent("""
            import contextlib, io, sys
            from tlspin import cli
            for argv in (["centralizer", "--family", "kls", "--p", "2", "--N", "3"],
                         ["centralizer", "--family", "xxz", "--q", "3", "--N", "6"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv) == 0, argv
            assert "scipy.sparse" not in sys.modules
        """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr

"""Each oracle check accepts the program's answer and rejects a changed one;
the tracer's spans nest through names the library imported from each other.

    python3 perfbench/test_oracle.py
"""

import copy
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import common  # noqa: E402

common.prepare()
import numpy as np  # noqa: E402

import oracle  # noqa: E402
import tlspin  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def cli_json(argv):
    code, out, _ = workloads.run_cli(argv)
    return code, json.loads(out) if code == 0 else None


class IntegerForms(unittest.TestCase):
    def test_closed_forms(self):
        self.assertEqual(oracle.nu_ballot(4), {0: 2, 2: 3, 4: 1})
        self.assertEqual([oracle.p_chebyshev(3, k) for k in range(5)], [1, 3, 8, 21, 55])
        self.assertEqual([oracle.p_chebyshev(2, k) for k in range(4)], [1, 2, 3, 4])
        for N in range(1, 9):
            self.assertEqual(sum(v * v for v in oracle.nu_ballot(N).values()), tlspin.catalan(N))

    def test_trace_moments_match_dense_h(self):
        model = oracle.Model(oracle.kls_b(1.7 + 0.3j))
        n, N = 3, 4
        h = sum(
            np.kron(np.kron(np.eye(n ** (j - 1)), model.X), np.eye(n ** (N - j - 1))) for j in range(1, N)
        )
        self.assertAlmostEqual(np.trace(h), model.trace_h(N), places=8)
        self.assertAlmostEqual(np.trace(h @ h), model.trace_h2(N), places=6)


class VerifyCheck(unittest.TestCase):
    def setUp(self):
        self.model = oracle.Model(oracle.kls_b(2.0))
        self.code, self.out = cli_json(["verify", "--family", "kls", "--p", "2", "--N", "3"])

    def test_accepts_program_output(self):
        v = oracle.check_verify(self.code, self.out, self.model, 3, kls=True)
        self.assertEqual(v.errors, [])
        self.assertTrue(4 < v.margin < 8)

    def test_rejects_missing_check(self):
        out = copy.deepcopy(self.out)
        out["checks"].pop(3)
        self.assertTrue(oracle.check_verify(0, out, self.model, 3, kls=True).errors)

    def test_rejects_changed_residual(self):
        out = copy.deepcopy(self.out)
        out["checks"][0]["residual"] = 10 * out["checks"][0]["threshold"]
        self.assertTrue(oracle.check_verify(0, out, self.model, 3, kls=True).errors)

    def test_wrong_family_names(self):
        self.assertTrue(oracle.check_verify(0, self.out, self.model, 3, kls=False).errors)

    def test_nonzero_exit_is_a_failure(self):
        v = oracle.check_verify(1, None, self.model, 3, kls=True)
        self.assertTrue(v.failed)


class SpectrumCheck(unittest.TestCase):
    def setUp(self):
        self.model = oracle.Model(oracle.kls_b(2.0))
        self.code, self.out = cli_json(["spectrum", "--family", "kls", "--p", "2", "--N", "4", "--raw"])

    def check(self, out):
        return oracle.check_spectrum(0, out, self.model, 4)

    def test_accepts_program_output(self):
        v = oracle.check_spectrum(self.code, self.out, self.model, 4)
        self.assertEqual(v.errors, [])
        self.assertTrue(3 < v.margin < 10)

    def test_rejects_changed_multiplicity(self):
        out = copy.deepcopy(self.out)
        clusters = out["tables"]["spectrum"]["clusters"]
        clusters[0]["multiplicity"] -= 1
        clusters[1]["multiplicity"] += 1
        self.assertTrue(self.check(out).errors)

    def test_rejects_changed_isotypic_count(self):
        out = copy.deepcopy(self.out)
        per_k = out["tables"]["isotypic"]["per_k"]
        key = next(iter(per_k))
        per_k[key] += 1
        self.assertTrue(self.check(out).errors)

    def test_rejects_moved_eigenvalue(self):
        out = copy.deepcopy(self.out)
        top = out["tables"]["spectrum"]["clusters"][-1]
        out["tables"]["raw_eigenvalues"][-1][0] += 0.5
        top["value"][0] += 0.5 / top["multiplicity"]
        self.assertTrue(self.check(out).errors)

    def test_rejects_split_cluster(self):
        out = copy.deepcopy(self.out)
        clusters = out["tables"]["spectrum"]["clusters"]
        big = max(clusters, key=lambda c: c["multiplicity"])
        half = dict(value=list(big["value"]), multiplicity=1)
        big["multiplicity"] -= 1
        clusters.append(half)
        self.assertTrue(self.check(out).errors)


class TowerChecks(unittest.TestCase):
    def setUp(self):
        self.f = tlspin.builtin_bform("kls", 2.0)
        self.model = oracle.Model(oracle.kls_b(2.0))

    def test_symmetrizer_rank(self):
        code, out = cli_json(["symmetrizer", "--family", "kls", "--p", "2", "--N", "3"])
        self.assertEqual(oracle.check_symmetrizer(code, out, 3, 3).errors, [])
        out["tables"]["symmetrizer"]["rank"] += 1
        self.assertTrue(oracle.check_symmetrizer(0, out, 3, 3).errors)

    def test_centralizer_report(self):
        code, out = cli_json(["centralizer", "--family", "kls", "--p", "2", "--N", "3"])
        self.assertEqual(oracle.check_centralizer(code, out, 3, 3).errors, [])
        self.assertTrue(oracle.check_centralizer(code, out, 3, 4).errors)
        out["checks"][5]["residual"] = 1.0
        self.assertTrue(oracle.check_centralizer(0, out, 3, 3).errors)

    def test_coproduct_tower(self):
        N = 4
        grid = [[op.matrix for op in row] for row in tlspin.coproduct_T(self.f, N).entries]
        v = np.random.default_rng(0).normal(size=3 ** N) + 0j
        self.assertEqual(oracle.check_tower(grid, self.model, N, v).errors, [])
        wrong = [row[:] for row in grid]
        wrong[0][1] = wrong[0][1] * (1 + 1e-6)
        self.assertTrue(oracle.check_tower(wrong, self.model, N, v).errors)
        swapped = [row[:] for row in grid]
        swapped[0][1], swapped[1][0] = grid[1][0], grid[0][1]
        self.assertTrue(oracle.check_tower(swapped, self.model, N, v).errors)

    def test_casimir_value(self):
        res = tlspin.casimir(self.f, aux=tlspin.coproduct_T(self.f, 3))
        checks = [(c.name, c.residual, c.threshold) for c in res.report.checks]
        self.assertEqual(oracle.check_casimir(res.c2, checks, self.model, 3).errors, [])
        self.assertTrue(oracle.check_casimir(res.c2 * (1 + 1e-6), checks, self.model, 3).errors)
        self.assertTrue(oracle.check_casimir(res.c2, [("casimir_scalar", 1e-6, 1e-8)], self.model, 3).errors)


class Tracing(unittest.TestCase):
    def test_spans_nest_and_self_times_add_up(self):
        f = tlspin.builtin_bform("kls", 2.0)
        original = tlspin.qalg.embed
        t = tracer.Tracer()
        t.install()
        try:
            root = t.open("op:test")
            tlspin.check_centralizer(f, 3)
            t.close(root)
        finally:
            t.uninstall()
        self.assertIs(tlspin.qalg.embed, original)
        by_id = {s[0]: s for s in t.spans}
        embeds = [s for s in t.spans if s[2] == "tl_rep.embed"]
        # qalg imported embed from tl_rep; its calls still nest under the check
        self.assertTrue(embeds)
        self.assertTrue(all(by_id[s[1]][2] == "qalg.check_centralizer" for s in embeds))
        summary = t.summarize()
        total = sum(v[0] for v in summary.values())
        self.assertAlmostEqual(total, by_id[root[0]][4] - by_id[root[0]][3], places=9)
        tower = tlspin.coproduct_T(f, 3)
        self.assertEqual(summary["qalg.coproduct_T"][2], sum(op.matrix.nnz for row in tower.entries for op in row))


if __name__ == "__main__":
    unittest.main()

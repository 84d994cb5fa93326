"""Self-tests of the benchmark's answer checks; no twistpoly needed.

    python3 perfbench/selftest.py

Each wrong answer below (a coefficient moved, a flipped `check` verdict,
a THEOREM line with checked=0, a wrong count, ...) must be counted as a
failed operation, and the right answers, built from the oracle, must pass.
"""

from __future__ import annotations

import json
import os
import tempfile
import unittest
from random import Random

import oracle
import run
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def poly_text(coeffs: list[int]) -> str:
    return oracle.render_human(coeffs) + "\ncoeffs: " + " ".join(map(str, coeffs)) + "\n"


def moved(coeffs: list[int], src: int, dst: int) -> list[int]:
    """The polynomial with one unit of coefficient moved from z^src to z^dst."""
    out = list(coeffs) + [0] * max(0, dst + 1 - len(coeffs))
    out[src] -= 1
    out[dst] += 1
    return out


def built(build, seed: int = 7):
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    tmp = tempfile.TemporaryDirectory(dir=out)
    return tmp, build(Random(seed), tmp.name)


class PolyChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp, ops = built(workloads.build_poly)
        cls.op = next(op for op in ops if op.kind == "K16")
        family = oracle.feasible_sets_of_matrix(cls.op.meta["rows"])
        cls.dm = oracle.dm_text(16, family)
        cls.coeffs = oracle.interleaved_closed_form(16)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def result(self, dm, coeffs, codes=(0, 0)):
        return {"codes": list(codes), "out": [dm, poly_text(coeffs)], "err": ""}

    def test_right_answer_passes(self):
        self.assertIsNone(workloads.check_poly(self.op, self.result(self.dm, self.coeffs), {}))

    def test_moved_coefficient_fails(self):
        for src, dst in ((16, 15), (14, 12), (16, 0)):
            bad = self.result(self.dm, moved(self.coeffs, src, dst))
            self.assertIsNotNone(workloads.check_poly(self.op, bad, {}), (src, dst))

    def test_missing_sampled_feasible_set_fails(self):
        # the empty set is always sampled, and always feasible in D(C)
        lines = self.dm.splitlines()
        self.assertEqual(lines[2], "-")
        lines[1] = str(int(lines[1]) - 1)
        del lines[2]
        bad = self.result("\n".join(lines) + "\n", self.coeffs)
        self.assertIn("rank", workloads.check_poly(self.op, bad, {}))

    def test_miscounted_dm_fails(self):
        lines = self.dm.splitlines()
        del lines[5]
        bad = self.result("\n".join(lines) + "\n", self.coeffs)
        self.assertIsNotNone(workloads.check_poly(self.op, bad, {}))

    def test_nonzero_exit_fails(self):
        bad = self.result(self.dm, self.coeffs, codes=(0, 2))
        self.assertIsNotNone(workloads.check_poly(self.op, bad, {}))

    def test_bipartite_constant_term(self):
        # a path is bipartite: its polynomial must have a constant term
        op = workloads.Op({}, "sparse", {"rows": [0b10, 0b101, 0b10] + [0] * 13, "sample": []})
        family = oracle.feasible_sets_of_matrix(op.meta["rows"])
        no_constant = [0, 0, 1 << 16]
        bad = self.result(oracle.dm_text(16, family), no_constant)
        self.assertIn("constant term", workloads.check_poly(op, bad, {}))


class GenusChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp, cls.ops = built(workloads.build_genus)
        cls.right = poly_text(oracle.interleaved_closed_form(16))

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def result(self, text):
        return {"codes": [0], "out": [text], "err": ""}

    def test_b16_closed_form(self):
        op = self.ops[0]
        self.assertEqual(op.kind, "B16")
        self.assertIsNone(workloads.check_genus(op, self.result(self.right), {}))
        bad = poly_text(moved(oracle.interleaved_closed_form(16), 16, 12))
        self.assertIsNotNone(workloads.check_genus(op, self.result(bad), {}))

    def test_twins_must_agree(self):
        op = self.ops[0]
        other = self.result(poly_text(moved(oracle.interleaved_closed_form(16), 16, 12)))
        problem = workloads.check_genus(op, self.result(self.right), {op.meta["twin"]: other})
        self.assertIn("twin", problem)

    def test_human_line_must_match_coeffs(self):
        text = "2z^2\ncoeffs: 2 0 2\n"
        self.assertIsInstance(oracle.parse_poly_output(text), str)


class CheckChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp, cls.ops = built(workloads.build_check)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def answer(self, op, verdict_ok=True):
        family = op.meta["family"]
        lines = [f"n: {workloads.N_CHECK}", f"feasible sets: {len(family)}"]
        accepted = (op.meta["witness"] is None) == verdict_ok
        if accepted:
            lines += ["delta-matroid"] + oracle.check_lines(workloads.N_CHECK, family)
        else:
            lines += ["not a delta-matroid"]
        return {"codes": [0], "out": ["\n".join(lines) + "\n"], "err": ""}

    def test_inputs_have_their_intended_verdict(self):
        kinds = [op.kind for op in self.ops]
        self.assertEqual(kinds.count("accepted-twist"), 12)
        self.assertEqual(kinds.count("broken-exchange"), 4)
        for op in self.ops:
            family, witness = op.meta["family"], op.meta["witness"]
            if witness is None:
                self.assertIn(len(family), workloads.CHECK_FAMILY_SIZES)
            else:
                self.assertTrue(oracle.exchange_fails(set(family), *witness))
        self.assertTrue(oracle.is_delta_matroid(self.ops[0].meta["family"]))

    def test_right_verdicts_pass(self):
        for op in self.ops:
            self.assertIsNone(workloads.check_check(op, self.answer(op), {}))

    def test_flipped_verdicts_fail(self):
        for op in self.ops:
            self.assertIsNotNone(workloads.check_check(op, self.answer(op, False), {}))

    def test_wrong_predicate_line_fails(self):
        op = self.ops[0]
        res = self.answer(op)
        res["out"][0] = res["out"][0].replace("width: ", "width: 1")
        self.assertIsNotNone(workloads.check_check(op, res, {}))


class VerifyChecks(unittest.TestCase):
    expected = {"interlacement-oracle": 10134, "same-interlacement-pairs": 56}
    right = (
        "THEOREM interlacement-oracle PASS checked=10134 seed=3 elapsed=0.96s\n"
        "THEOREM same-interlacement-pairs PASS checked=56 seed=- elapsed=0.01s\n"
    )

    def test_right_output_passes(self):
        self.assertIsNone(workloads.check_suite_output(0, self.right, self.expected))

    def test_wrong_outputs_fail(self):
        wrong = {
            "checked=0": self.right.replace("checked=56", "checked=0"),
            "wrong count": self.right.replace("checked=10134", "checked=10133"),
            "FAIL": self.right.replace("PASS checked=56", "FAIL checked=56"),
            "missing line": self.right.splitlines()[0],
            "repeated line": self.right + self.right.splitlines()[1],
        }
        for label, text in wrong.items():
            self.assertIsNotNone(workloads.check_suite_output(0, text, self.expected), label)
        self.assertIsNotNone(workloads.check_suite_output(1, self.right, self.expected))

    def test_suite_counts(self):
        # the repository's README quotes 6,133 delta-matroids with n <= 4
        counts = {s: e for s, _, e in workloads.verify_suites()}
        self.assertEqual(counts["fastnaive"], {"fast-naive": 6133 + 500})
        self.assertEqual(counts["prop2"], {"prop2": 174})
        self.assertEqual(counts["bipartite"], {"bipartite-constant": 1100})
        self.assertEqual(counts["interlacement"], self.expected)


class Counting(unittest.TestCase):
    """A wrong answer is a failed operation, in every execution of it."""

    def test_judge_counts_failures(self):
        tmp, ops = built(workloads.build_genus)
        self.addCleanup(tmp.cleanup)
        right = {"codes": [0], "out": [poly_text(oracle.interleaved_closed_form(16))],
                 "err": ""}
        wrong = {"codes": [0], "out": [poly_text(moved(oracle.interleaved_closed_form(16),
                                                      16, 12))], "err": ""}
        res = {
            "first": {"0": wrong, "1": right},
            # op 0 wrong twice; op 1 right, then a different answer
            "execs": [[0, 1.0, False, "a"], [1, 1.0, False, "b"],
                      [0, 1.0, False, "a"], [1, 1.0, False, "c"]],
        }
        problems = [e.problem for e in run.judge(ops, workloads.check_genus, res)]
        self.assertEqual([p is not None for p in problems], [True, True, True, True])

        res["first"]["0"] = right
        res["execs"][3][3] = "b"
        problems = [e.problem for e in run.judge(ops, workloads.check_genus, res)]
        self.assertEqual(problems, [None] * 4)


class Metrics(unittest.TestCase):
    def test_self_time(self):
        recorded = [
            ["cli.run", 0, 0.0, 10.0, -1, None],
            ["gf2.dc", 0, 1.0, 4.0, 0, {"subsets": 16, "feasible": 4}],
            ["poly.fast", 0, 5.0, 6.0, 0, {"subsets": 16}],
        ]
        summary = spans.summarize(recorded)
        self.assertAlmostEqual(summary["cli.run"]["self_s"], 6.0)
        self.assertAlmostEqual(summary["gf2.dc"]["self_s"], 3.0)
        self.assertEqual(summary["gf2.dc"]["feasible"], 4)

    def test_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        res = {
            "execs": [run.Exec(2.0, False, 1, None, 0), run.Exec(2.5, True, 1, None, 0)],
            "setups": [0.2], "imports": [0.1], "elapsed_s": 2.0, "peak_rss_kb": 1024,
            "layers": {}, "checked": {}, "dm_enum_s": 0.0,
        }
        for key, metrics in (("end_to_end", run.end_to_end(res)),
                             ("per_layer", run.per_layer(res))):
            declared = {m["name"]: m["unit"] for m in bench[key]}
            self.assertEqual(declared, {k: unit for k, (_, unit) in metrics.items()})
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()

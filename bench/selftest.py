"""Checks that the benchmark's verification catches corrupted outputs.

Run from the repository root:

    python3 bench/selftest.py

Each test takes a real output of one workload item, corrupts it on
purpose, and expects the workload's check (or the runner's digest
comparison) to count it as a failure.  The last test traces the same
items twice and expects identical work counts.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, run.SRC)
MODULES = run.import_package()
SEED = workloads.DEFAULT_SEED


class AuditCorpusChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.w = workloads.AuditCorpus(MODULES, SEED)
        cls.item = cls.w.items[0]
        cls.output = cls.w.run(cls.item)

    def tampered(self, edit) -> str:
        doc = json.loads(self.output)
        edit(doc)
        return json.dumps(doc)

    def test_untouched_output_passes(self):
        self.assertIsNone(self.w.check(self.item, self.output))

    def test_missing_value_that_is_a_member_fails(self):
        def edit(doc):
            member = doc["elements"][0][0]
            doc["defects"]["cond1"][0]["missing"] = member
        self.assertIsNotNone(self.w.check(self.item, self.tampered(edit)))

    def test_empty_cond1_fails(self):
        self.assertIsNotNone(self.w.check(self.item, self.tampered(lambda d: d["defects"].update(cond1=[]))))

    def test_wrong_cond3_count_fails(self):
        def edit(doc):
            doc["totals"]["cond3_checked"] += 1
        self.assertIsNotNone(self.w.check(self.item, self.tampered(edit)))

    def test_dropped_defect_differs_from_recorded_digest(self):
        runner = run.Runner(self.w, SEED)
        self.assertIn(self.item.label, runner.recorded)
        def edit(doc):
            for defects in doc["defects"].values():
                if defects:
                    defects.pop()
                    return
        runner.verify(0, self.item, self.tampered(edit))
        self.assertEqual(runner.failed, 1)

    def test_added_schema_key_keeps_the_digest(self):
        runner = run.Runner(self.w, SEED)
        runner.verify(0, self.item, self.tampered(lambda d: d.update(extra={"new": 1})))
        self.assertEqual(runner.failed, 0)


class DeepBuildChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.w = workloads.DeepBuild(MODULES, SEED)
        cls.item = cls.w.items[0]
        cls.frag, cls.text = cls.w.run(cls.item)

    def test_untouched_output_passes(self):
        self.assertIsNone(self.w.check(self.item, (self.frag, self.text)))

    def test_tampered_ledger_entry_fails(self):
        ledger = list(self.frag.ledger)
        admitted = [i for i, e in enumerate(ledger) if e.op not in ("seed", "round") and e.cutoff is None]
        first, other = ledger[admitted[0]], ledger[admitted[-1]]
        self.assertNotEqual(first.result, other.result)
        ledger[admitted[0]] = dataclasses.replace(first, result=other.result)
        bad = dataclasses.replace(self.frag, ledger=tuple(ledger))
        self.assertIsNotNone(self.w.check(self.item, (bad, bad.to_json())))

    def test_changed_elements_differ_from_recorded_digest(self):
        runner = run.Runner(self.w, SEED)
        self.assertIn(self.item.label, runner.recorded)
        doc = json.loads(self.text)
        doc["elements"] = doc["elements"][1:]
        runner.verify(0, self.item, (self.frag, json.dumps(doc)))
        self.assertEqual(runner.failed, 1)


class ScriptEvalChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.w = workloads.ScriptEval(MODULES, SEED)

    def first(self, kind):
        return next(it for it in self.w.items if it.data[0] == kind)

    def test_every_kind_of_item_passes(self):
        for kind in ("gen", "laws", "ref", "demo"):
            item = self.first(kind)
            self.assertIsNone(self.w.check(item, self.w.run(item)), item.label)

    def test_injected_failing_check_fails(self):
        item = self.first("gen")
        kind, argv, script, expect = item.data
        lines = script.splitlines()
        i = next(n for n, line in enumerate(lines) if line.startswith("check eq(qc(prod("))
        head, _, _ = lines[i].rpartition(",")
        lines[i] = head + ", 100000)"
        bad = workloads.Item(item.label, (kind, argv, "\n".join(lines) + "\n", expect))
        self.assertIsNotNone(self.w.check(bad, self.w.run(bad)))

    def test_flipped_check_result_fails(self):
        item = self.first("gen")
        code, stdout, stderr = self.w.run(item)
        doc = json.loads(stdout)
        next(r for r in doc["results"] if r["kind"] == "check")["passed"] = False
        self.assertIsNotNone(self.w.check(item, (code, json.dumps(doc), stderr)))

    def test_changed_reference_output_fails(self):
        item = self.first("ref")
        code, stdout, stderr = self.w.run(item)
        self.assertIsNotNone(self.w.check(item, (code, stdout.replace("0", "1", 1), stderr)))


class TracedCounts(unittest.TestCase):
    def test_two_traced_passes_count_the_same_work(self):
        counts = []
        for cls in (workloads.AuditCorpus, workloads.DeepBuild, workloads.ScriptEval):
            w = cls(MODULES, SEED)
            w.items = w.items[:4]
            runs = []
            for _ in range(2):
                tracer = tracing.Tracer()
                tracer.install(MODULES)
                try:
                    run.Runner(w, SEED).one_pass(tracer)
                finally:
                    tracer.uninstall()
                calls = {k: v["calls"] for k, v in tracer.layer_totals(lambda item: True)["spans"].items()}
                runs.append((tracer.counts, calls))
            self.assertEqual(runs[0], runs[1], cls.name)
            counts.append(runs[0])
        self.assertTrue(all(c for c, _ in counts))


if __name__ == "__main__":
    unittest.main()

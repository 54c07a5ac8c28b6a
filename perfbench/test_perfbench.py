"""Tests of the benchmark itself: bad outputs must be failed operations.

    python3 -m unittest discover -s perfbench -p "test_*.py"

Small instances go through the real CLI; the outputs are then tampered with
between the program and the benchmark's checks.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
import unittest
from fractions import Fraction
from pathlib import Path

import checks
import run
import tracer


class Bench(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="test-", dir=run.WORK))
        self.real = run.Runner(self.work, time.perf_counter() + 120, traced=False)

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def runner(self, after_construct=None, fake_stdout=None):
        """The real CLI, with the certificate or a later job's stdout altered."""

        def call(name, args):
            job = self.real(name, args)
            if name == "construct" and after_construct:
                path = Path(args[-1])
                data = json.loads(path.read_text())
                after_construct(data)
                path.write_text(json.dumps(data))
            if fake_stdout and name != "construct":
                job.stdout = fake_stdout(job.stdout)
            return job

        return call

    def pipeline(self, **kwargs):
        return run.pipeline_op(self.runner(**kwargs), self.work, {"n": 4, "k": 2})

    def test_genuine_pipeline_passes(self):
        op = self.pipeline()
        self.assertIsNone(op.failure)
        self.assertEqual([job.name for job in op.jobs], ["construct", "verify"])
        self.assertGreater(op.out_bytes, 0)

    def test_width_in_subset_changed_is_caught_without_the_verifier(self):
        def tamper(data):
            row = data["bodies"][data["subset"][0]]
            row[0] = str(Fraction(row[0]) + 1)

        op = self.pipeline(after_construct=tamper, fake_stdout=lambda out: '{"ok": true}')
        self.assertIn("det M_I", op.failure)

    def test_width_outside_subset_changed_fails_verify(self):
        def tamper(data):
            outside = min(set(range(len(data["bodies"]))) - set(data["subset"]))
            data["bodies"][outside][0] = "99"

        op = self.pipeline(after_construct=tamper)
        self.assertIn("verify exited 1", op.failure)

    def test_negated_subset_det_fails(self):
        def tamper(data):
            data["subset_det"] = str(-Fraction(data["subset_det"]))

        op = self.pipeline(after_construct=tamper, fake_stdout=lambda out: '{"ok": true}')
        self.assertIn("certificate states", op.failure)

    def test_float_width_is_malformed(self):
        def tamper(data):
            data["bodies"][data["subset"][0]][0] = 1.5

        op = self.pipeline(after_construct=tamper, fake_stdout=lambda out: '{"ok": true}')
        self.assertIn("malformed output", op.failure)

    def shephard_inputs(self):
        inputs = run.shephard_prepare(5, self.work)
        small = {"n": 4, "bodies": inputs["bodies"][:3], "c_bodies": inputs["c_bodies"][:2]}
        for key in ("bodies", "c_bodies"):
            small[key] = [row[:4] for row in small[key]]
        path = self.work / "small.json"
        path.write_text(
            json.dumps(
                {
                    "n": 4,
                    "bodies": [{"widths": [str(w) for w in b]} for b in small["bodies"]],
                    "c_bodies": [{"widths": [str(w) for w in c]} for c in small["c_bodies"]],
                }
            )
        )
        return {**small, "path": str(path)}

    def test_genuine_shephard_passes(self):
        op = run.shephard_op(self.real, self.work, self.shephard_inputs())
        self.assertIsNone(op.failure)

    def test_wrong_subsets_checked_fails(self):
        def tamper(out):
            data = json.loads(out)
            data["instances"][0]["subsets_checked"] -= 1
            return json.dumps(data)

        op = run.shephard_op(self.runner(fake_stdout=tamper), self.work, self.shephard_inputs())
        self.assertIn("subsets_checked", op.failure)

    def test_wrong_shephard_det_fails(self):
        def tamper(out):
            data = json.loads(out)
            data["instances"][0]["det"] = str(Fraction(data["instances"][0]["det"]) + 1)
            return json.dumps(data)

        op = run.shephard_op(self.runner(fake_stdout=tamper), self.work, self.shephard_inputs())
        self.assertIn("recomputed", op.failure)

    def test_genuine_hodge_passes(self):
        op = run.hodge_op(self.real, self.work, {"n": 4, "k": 2})
        self.assertIsNone(op.failure)

    def test_wrong_hodge_dimension_fails(self):
        def tamper(out):
            data = json.loads(out)
            data["dimension"] += 1
            return json.dumps(data)

        op = run.hodge_op(self.runner(fake_stdout=tamper), self.work, {"n": 4, "k": 2})
        self.assertIn("primitive dimension", op.failure)

    def test_unparsable_output_and_bad_exit_fail(self):
        op = run.hodge_op(self.runner(fake_stdout=lambda out: "not json"), self.work, {"n": 4, "k": 2})
        self.assertIn("malformed output", op.failure)
        op = run.hodge_op(self.real, self.work, {"n": 4, "k": 3})
        self.assertIn("hodge exited 2", op.failure)


class Exact(unittest.TestCase):
    def test_permanent_and_determinant(self):
        rows = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(1, 2)]]
        # V = perm / 2! = (1/2 + 6) / 2
        self.assertEqual(checks.mixed_volume(rows), Fraction(13, 4))
        self.assertEqual(checks.determinant([[0, 2], [3, 4]]), -6)
        self.assertEqual(checks.determinant([[1, 2], [2, 4]]), 0)


class Spans(unittest.TestCase):
    def test_self_time_and_counts(self):
        names = ["cli.main", "hypmat.greedy_core", "exactlin.inertia"]
        doc = {
            "import_s": 0.5,
            "names": names,
            "spans": [
                [0, 0.0, 10.0, -1, None],
                [1, 1.0, 5.0, 0, 3],
                [2, 2.0, 3.0, 1, 7],
                [2, 6.0, 8.0, 0, 9],
            ],
        }
        metrics = tracer.layer_metrics([doc, doc])
        self.assertEqual(metrics["cli.main.self_s"], 2 * (10.0 - 4.0 - 2.0))
        self.assertEqual(metrics["hypmat.greedy_core.s"], 8.0)
        self.assertEqual(metrics["exactlin.inertia.calls"], 4)
        self.assertEqual(metrics["hypmat.greedy_core.inertia_calls"], 2)
        self.assertEqual(metrics["exactlin.inertia.max_dim"], 9)
        self.assertEqual(metrics["hypmat.core_size"], 3)
        self.assertEqual(metrics["cli.import_s"], 1.0)

    def test_counter_drift_is_flagged_for_the_same_source_only(self):
        saved = run.WORK
        saved.mkdir(exist_ok=True)
        run.WORK = Path(tempfile.mkdtemp(prefix="test-", dir=saved))
        try:
            self.assertEqual(run.compare_snapshot("w", "a", {"x": 1}), [])
            self.assertEqual(run.compare_snapshot("w", "a", {"x": 1, "y": 2}), [])
            self.assertEqual(run.compare_snapshot("w", "a", {"x": 3}), ["x: 1 earlier, 3 now"])
            self.assertEqual(run.compare_snapshot("w", "b", {"x": 3}), [])
        finally:
            shutil.rmtree(run.WORK)
            run.WORK = saved

    def test_benchmark_json_names_every_printed_metric(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual(
            [m["name"] for m in spec["per_layer"]], list(tracer.LAYER_METRICS) + list(run.TRACE_METRICS)
        )
        for metric in spec["end_to_end"]:
            self.assertEqual(metric["unit"], run.END_TO_END[metric["name"]])
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()

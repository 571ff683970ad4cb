"""Self-test of the benchmark harness: span arithmetic and correctness checks.

    python3 bench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from spans import Tracer, covered, self_time, self_times  # noqa: E402


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once_and_clipped(self):
        # [1, 3] and [2, 5] overlap on [2, 3]; [8, 12] sticks out past 10
        self.assertEqual(covered(0.0, 10.0, [(2.0, 5.0), (8.0, 12.0), (1.0, 3.0)]), 6.0)
        self.assertEqual(self_time(0.0, 10.0, [(2.0, 5.0), (8.0, 12.0), (1.0, 3.0)]), 4.0)
        self.assertEqual(self_time(0.0, 10.0, []), 10.0)

    def test_only_direct_children_count(self):
        spans = [
            ["pipeline.batch", 0.0, 10.0, -1, None, 0],
            ["perception.perceive", 1.0, 5.0, 0, "s1", 1],
            ["scene.depth_read", 2.0, 4.0, 1, "s1", 1],
            ["scene.depth_read", 6.0, 7.0, 0, "s1", 1],
        ]
        self.assertEqual(
            self_times(spans),
            {"pipeline.batch": 5.0, "perception.perceive": 2.0, "scene.depth_read": 3.0},
        )

    def test_tracer_nests_spans_and_counts(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda x: x * 2, after=lambda c, a, k, r: c.update(calls=1))
        outer = tracer.wrap("outer", lambda x: inner(x) + inner(x))
        self.assertEqual(outer(3), 12)
        self.assertEqual([(s[0], s[3]) for s in tracer.spans], [("outer", -1), ("inner", 0), ("inner", 0)])
        self.assertEqual(tracer.counts["calls"], 2)
        total = self_times(tracer.spans)
        self.assertAlmostEqual(sum(total.values()), tracer.spans[0][2] - tracer.spans[0][1])


class Checks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from scenefix import benchgen, pipeline, wire

        samples = benchgen.generate_for_lmd(20, 5)
        samples, ledger = benchgen.apply_corruption(samples, 0.8, 5)
        with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
            path = str(Path(tmp) / "d.ndjson")
            wire.write_dataset(path, samples)
            cls.report = pipeline.run_batch(pipeline.RunConfig(path, rounds=1))
        cls.corrupted = {inj.sample_id for inj in ledger}

    def broken(self, index: int, **changes):
        """The report with one trajectory replaced."""
        trajectories = list(self.report.trajectories)
        trajectories[index] = replace(trajectories[index], **changes)
        return replace(self.report, trajectories=tuple(trajectories))

    def test_good_report_passes(self):
        checks.check_summary(self.report)
        checks.check_round_zero(self.report, self.corrupted, 0.8)
        checks.check_converged(self.report)
        checks.check_improves(self.report)
        checks.check_same(checks.verdicts(self.report), checks.verdicts(self.report), "same")

    def test_changed_verdict_trips_comparison(self):
        first = self.report.trajectories[0]
        broken = self.broken(0, rounds=first.rounds[:1])
        with self.assertRaises(checks.CheckFailed):
            checks.check_same(checks.verdicts(self.report), checks.verdicts(broken), "broken")

    def test_errored_sample_trips_convergence(self):
        with self.assertRaises(checks.CheckFailed):
            checks.check_converged(self.broken(3, error="UnsatisfiableError: injected"))

    def test_wrong_round_zero_trips_ledger_check(self):
        clean = next(i for i, t in enumerate(self.report.trajectories) if t.sample_id not in self.corrupted)
        trajectory = self.report.trajectories[clean]
        broken = self.broken(clean, rounds=(replace(trajectory.rounds[0], result=None),) + trajectory.rounds[1:])
        with self.assertRaises(checks.CheckFailed):
            checks.check_round_zero(broken, self.corrupted, 0.8)

    def test_summary_must_match_verdicts(self):
        with self.assertRaises(checks.CheckFailed):
            checks.check_summary(replace(self.report, accuracy=(0.2, 0.95)))

    def test_broken_solver_fails_the_benchmark(self):
        """A solver that proposes the perceived layout unchanged leaves the
        corrupted samples wrong: the run exits 1 and prints no result."""
        import scenefix.pipeline as pipeline
        from scenefix.interpreter import LayoutProposal

        original = pipeline.suggest_layout
        pipeline.suggest_layout = lambda expr, layout: LayoutProposal(layout=layout, rationale=())
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run.main(["--workload", "clean-r1", "--seed", "5", "--seconds", "1"])
        finally:
            pipeline.suggest_layout = original
        self.assertEqual(code, 1)
        self.assertEqual(stdout.getvalue(), "")
        self.assertIn("correctness check failed", stderr.getvalue())


if __name__ == "__main__":
    unittest.main()

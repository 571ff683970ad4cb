"""Correctness checks on run reports; any failure fails the benchmark.

A verdict is what a run decided for one sample: its id, whether it was
correct after each round, and whether it errored. Every workload's loop
is deterministic for a fixed seed, so verdicts must repeat exactly
across batches, between traced and untraced runs, and between the pool
or external-solver paths and the serial builtin run on the same data.
"""

from __future__ import annotations


class CheckFailed(Exception):
    """A run produced output the benchmark knows to be wrong."""


def verdicts(report) -> tuple:
    return tuple(
        (
            t.sample_id,
            tuple(o.result is not None and o.result.correct for o in t.rounds),
            t.error is not None,
        )
        for t in report.trajectories
    )


def check_same(expected: tuple, got: tuple, what: str) -> None:
    """Per-sample verdicts of two runs must be identical."""
    if len(expected) != len(got):
        raise CheckFailed(f"{what}: {len(got)} samples, expected {len(expected)}")
    for want, have in zip(expected, got):
        if want != have:
            raise CheckFailed(f"{what}: sample {want[0]} gave {have[1:]}, expected {want[1:]}")


def check_summary(report) -> None:
    """The summary's per-round accuracy must count the per-sample verdicts."""
    n = len(report.trajectories)
    for r, accuracy in enumerate(report.accuracy):
        correct = sum(t.correct_at(r) for t in report.trajectories)
        if accuracy != correct / n:
            raise CheckFailed(f"round {r} accuracy {accuracy} != {correct}/{n} correct samples")


def check_round_zero(report, corrupted: set[str], fraction: float) -> None:
    """Without perception noise, round 0 is wrong exactly on the corrupted
    samples, so its accuracy is 1 - fraction."""
    n = len(report.trajectories)
    if len(corrupted) != round(n * fraction):
        raise CheckFailed(f"{len(corrupted)} corrupted samples of {n}, expected {round(n * fraction)}")
    for t in report.trajectories:
        if t.correct_at(0) == (t.sample_id in corrupted):
            state = "corrupted" if t.sample_id in corrupted else "clean"
            raise CheckFailed(f"round 0 judged {state} sample {t.sample_id} {'correct' if t.correct_at(0) else 'wrong'}")


def check_converged(report) -> None:
    """The zero-noise one-round repair must fix every sample without error."""
    errors = [t.sample_id for t in report.trajectories if t.error is not None]
    if errors:
        raise CheckFailed(f"{len(errors)} samples errored, first {errors[0]}")
    if report.accuracy[-1] != 1.0:
        raise CheckFailed(f"final accuracy {report.accuracy[-1]}, expected 1.0")


def check_improves(report) -> None:
    """The loop must end more accurate than it started."""
    if report.accuracy[-1] <= report.accuracy[0]:
        raise CheckFailed(f"accuracy went {report.accuracy[0]} -> {report.accuracy[-1]}")

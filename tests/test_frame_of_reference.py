"""What the frame-of-reference conversion buys: the loop against a camera-only arm.

The paper's claim is that reading every relation from the camera, as a
loop without the conversion does, leaves intrinsic clauses broken. The
camera-only arm patches ``pipeline.convert_expression`` to keep each
clause's literal relation under the camera's perspective, and runs the
same samples as the converting loop.
"""

from __future__ import annotations

import pytest

import scenefix.pipeline as pipeline
from scenefix import (
    CAMERA,
    RelationClause,
    RunConfig,
    SpatialExpression,
    apply_corruption,
    generate_for_lmd,
    run_sample,
)


def _camera_only(expr: SpatialExpression, layout) -> SpatialExpression:
    literal = tuple(RelationClause(c.target, c.relation, c.relatum, CAMERA) for c in expr.relations)
    return SpatialExpression(
        expr.mentions, literal, expr.facings, expr.negations, expr.background, expr.raw_text
    )


def _round_one_accuracy(samples) -> dict[str, float]:
    cfg = RunConfig(dataset_path="unused", rounds=1, seed=78)
    correct: dict[str, list[bool]] = {"relative": [], "intrinsic": []}
    for sample in samples:
        trajectory = run_sample(sample, cfg)
        assert trajectory.error is None, (sample.id, trajectory.error)
        correct[sample.split].append(trajectory.correct_at(1))
    return {split: sum(v) / len(v) for split, v in correct.items()}


@pytest.fixture(scope="module")
def samples():
    corrupted, _ = apply_corruption(generate_for_lmd(200, seed=78), fraction=0.8, seed=78)
    return corrupted


def test_conversion_repairs_what_the_camera_reading_cannot(samples, monkeypatch):
    converted = _round_one_accuracy(samples)
    monkeypatch.setattr(pipeline, "convert_expression", _camera_only)
    camera_only = _round_one_accuracy(samples)

    assert converted["intrinsic"] == 1.0
    assert camera_only["intrinsic"] < 0.75
    # a relative clause is already in the camera frame: both arms agree
    assert camera_only["relative"] == converted["relative"]

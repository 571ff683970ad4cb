"""What FoR-SALE's additions to SLD buy: the loop against arms without them.

The paper's claim is that reading every relation from the camera, as a
loop without the conversion does, leaves intrinsic clauses broken. The
camera-only arm patches ``pipeline.convert_expression`` to keep each
clause's literal relation under the camera's perspective, and runs the
same samples as the converting loop.

The paper also adds two edit operations SLD lacks, one for depth and one
for facing. The "no depth op" and "no facing op" arms patch
``pipeline.diff_layouts`` to drop ``DepthModify`` or ``FacingModify``
(a box change a dropped ``DepthModify`` carried stays, as a
``Reposition``). Each operation must repair every sample it is needed
for, and the loop without it must fall at least to the named bound.
"""

from __future__ import annotations

import pytest

import scenefix.pipeline as pipeline
from scenefix import (
    CAMERA,
    DepthModify,
    FacingModify,
    RelationClause,
    RunConfig,
    Reposition,
    SpatialExpression,
    apply_corruption,
    diff_layouts,
    generate_for_lmd,
    generate_forest_style,
    run_sample,
)

# Round-1 accuracy of each arm without its operation, at most (200
# corrupted samples, seed 78, zero noise, one round; measured 0.800 and
# 0.765, against 1.000 with the operation).
NO_DEPTH_OP_BOUND = 0.85  # for-lmd
NO_FACING_OP_BOUND = 0.85  # forest-style


def _camera_only(expr: SpatialExpression, layout) -> SpatialExpression:
    literal = tuple(RelationClause(c.target, c.relation, c.relatum, CAMERA) for c in expr.relations)
    return SpatialExpression(
        expr.mentions, literal, expr.facings, expr.negations, expr.background
    )


def _round_one_accuracy(samples) -> dict[str, float]:
    cfg = RunConfig(dataset_path="unused", rounds=1, seed=78)
    correct: dict[str, list[bool]] = {"relative": [], "intrinsic": []}
    for sample in samples:
        trajectory = run_sample(sample, cfg)
        assert trajectory.error is None, (sample.id, trajectory.error)
        correct[sample.split].append(trajectory.correct_at(1))
    accuracy = {split: sum(v) / len(v) for split, v in correct.items()}
    accuracy["all"] = sum(map(sum, correct.values())) / len(samples)
    return accuracy


def _no_depth_op(current, proposed):
    actions = []
    for action in diff_layouts(current, proposed):
        if not isinstance(action, DepthModify):
            actions.append(action)
        elif action.new_bbox is not None:
            actions.append(Reposition(action.object_id, action.new_bbox))
    return actions


def _no_facing_op(current, proposed):
    return [a for a in diff_layouts(current, proposed) if not isinstance(a, FacingModify)]


@pytest.fixture(scope="module")
def samples():
    corrupted, _ = apply_corruption(generate_for_lmd(200, seed=78), fraction=0.8, seed=78)
    return corrupted


@pytest.fixture(scope="module")
def forest_samples():
    corrupted, _ = apply_corruption(generate_forest_style(200, seed=78), fraction=0.8, seed=78)
    return corrupted


def test_conversion_repairs_what_the_camera_reading_cannot(samples, monkeypatch):
    converted = _round_one_accuracy(samples)
    monkeypatch.setattr(pipeline, "convert_expression", _camera_only)
    camera_only = _round_one_accuracy(samples)

    assert converted["intrinsic"] == 1.0
    assert camera_only["intrinsic"] < 0.75
    # a relative clause is already in the camera frame: both arms agree
    assert camera_only["relative"] == converted["relative"]


def test_the_depth_op_repairs_what_the_loop_without_it_cannot(samples, monkeypatch):
    with_op = _round_one_accuracy(samples)["all"]
    monkeypatch.setattr(pipeline, "diff_layouts", _no_depth_op)
    without_op = _round_one_accuracy(samples)["all"]

    assert with_op == 1.0
    assert without_op <= NO_DEPTH_OP_BOUND


def test_the_facing_op_repairs_what_the_loop_without_it_cannot(forest_samples, monkeypatch):
    with_op = _round_one_accuracy(forest_samples)["all"]
    monkeypatch.setattr(pipeline, "diff_layouts", _no_facing_op)
    without_op = _round_one_accuracy(forest_samples)["all"]

    assert with_op == 1.0
    assert without_op <= NO_FACING_OP_BOUND

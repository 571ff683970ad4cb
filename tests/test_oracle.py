"""Vector-geometry cross-check of the conversion table."""

from __future__ import annotations

import math
import random

import pytest

from scenefix import FacingDirection, Relation, evaluate
from scenefix.oracle import (
    CARDINAL_FACINGS,
    agreement_over_scenes,
    camera_relations,
    check_rule_table,
    forward_vector,
    implied_camera_relation,
    left_vector,
    nearness,
    project_cx,
    relation_direction,
    sample_scene,
)


class TestVectors:
    def test_zero_yaw_faces_the_camera(self):
        fx, fy = forward_vector(0.0)
        assert fx == pytest.approx(0.0, abs=1e-12)
        assert fy == pytest.approx(-1.0)

    def test_left_vector_is_90_ccw_of_forward(self):
        for yaw in (0.0, 45.0, 90.0, 180.0, 270.0, 313.0):
            fx, fy = forward_vector(yaw)
            lx, ly = left_vector(yaw)
            assert fx * lx + fy * ly == pytest.approx(0.0, abs=1e-12)
            # cross product z-component fixes the handedness
            assert fx * ly - fy * lx == pytest.approx(1.0)

    def test_relation_directions_are_opposed_pairs(self):
        for yaw in (0.0, 90.0, 37.0):
            for rel in Relation:
                dx, dy = relation_direction(yaw, rel)
                ox, oy = relation_direction(yaw, rel.opposite)
                assert dx == pytest.approx(-ox)
                assert dy == pytest.approx(-oy)
                assert math.hypot(dx, dy) == pytest.approx(1.0)


class TestProjection:
    def test_cx_affine_and_centered(self):
        assert project_cx(0.0) == pytest.approx(0.5)
        assert project_cx(3.0) == pytest.approx(0.95)
        assert project_cx(-3.0) == pytest.approx(0.05)

    def test_nearness_decreasing_in_distance(self):
        assert nearness(1.0) == pytest.approx(0.95)
        assert nearness(9.0) == pytest.approx(0.05)
        assert nearness(5.0) == pytest.approx(0.5)

    def test_camera_relations_strict(self):
        rels = camera_relations((-1.0, 2.0), (1.0, 6.0))
        assert rels == {Relation.LEFT, Relation.FRONT}
        assert camera_relations((0.0, 5.0), (0.0, 5.0)) == set()


class TestTableAgreement:
    def test_all_16_cardinal_pairs_agree(self):
        records = check_rule_table()
        assert len(records) == 16
        assert all(rec["agree"] for rec in records)

    def test_implied_relation_spots(self):
        # left of a camera-facing object appears on the camera's right
        assert (
            implied_camera_relation(FacingDirection.FRONT, Relation.LEFT)
            is Relation.RIGHT
        )
        # front of a left-facing object is to the camera's left
        assert (
            implied_camera_relation(FacingDirection.LEFT, Relation.FRONT)
            is Relation.LEFT
        )


class TestSampledScenes:
    def test_scene_fields_well_formed(self):
        rng = random.Random(11)
        for _ in range(25):
            scene = sample_scene(rng)
            assert scene.layout.find(2).facing in CARDINAL_FACINGS
            assert scene.layout.find(1).facing is FacingDirection.NONE
            clause = scene.expression.relations[0]
            assert clause.perspective.relatum == "pillar"

    def test_evaluator_matches_truth_sample(self):
        rng = random.Random(3)
        for _ in range(200):
            scene = sample_scene(rng)
            assert evaluate(scene.expression, scene.layout).correct == scene.truth

    def test_agreement_helper_counts(self):
        agree, n = agreement_over_scenes(300, seed=7)
        assert n == 300
        assert agree == 300

    def test_agreement_helper_refuses_a_negative_count(self):
        assert agreement_over_scenes(0, seed=7) == (0, 0)
        with pytest.raises(ValueError, match="scene count must be >= 0"):
            agreement_over_scenes(-1, seed=7)

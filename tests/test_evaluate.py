"""Layout-vs-expression scoring across the three stages."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scenefix import (
    CAMERA,
    ErrorCategory,
    EvaluationResult,
    FacingAssertion,
    FacingDirection,
    Intrinsic,
    ObjectMention,
    Relation,
    RelationClause,
    SpatialExpression,
    categorize_run,
    evaluate,
    parse_expression,
)
from scenefix.dsl import FRAME
from scenefix.evaluate import (
    eval_frame_relation,
    eval_relation,
    find_matching,
    mention_matches,
)

from helpers import (
    ATTR_POOL,
    layout,
    obj,
    reference_eval_frame_relation,
    reference_eval_relation,
    relation_pairs,
)


class TestMentionMatching:
    def test_name_and_attr_subset(self):
        o = obj("chair", attrs=("red", "large"))
        assert mention_matches(o, ObjectMention("chair"))
        assert mention_matches(o, ObjectMention("chair", ("red",)))
        assert not mention_matches(o, ObjectMention("chair", ("blue",)))
        assert not mention_matches(o, ObjectMention("table"))

    @given(
        st.lists(st.sampled_from(ATTR_POOL), max_size=4),
        st.lists(st.sampled_from(ATTR_POOL), max_size=4),
        st.sampled_from(["chair", "table"]),
    )
    def test_attribute_test_is_set_containment(self, have, want, name):
        o = obj("chair", attrs=tuple(have))
        mention = ObjectMention(name, tuple(want))
        expected = name == "chair" and set(want) <= set(have)
        assert mention_matches(o, mention) is expected

    def test_find_matching_filters(self):
        lay = layout(
            obj("chair", oid=1, attrs=("red",)),
            obj("chair", oid=2, x=0.5),
            obj("table", oid=3, y=0.5),
        )
        assert len(find_matching(lay, ObjectMention("chair"))) == 2
        assert len(find_matching(lay, ObjectMention("chair", ("red",)))) == 1


class TestPairwisePredicates:
    def test_left_right_on_centers(self):
        a = obj("cat", oid=1, x=0.1, w=0.2)  # cx 0.2
        b = obj("dog", oid=2, x=0.55, w=0.2)  # cx 0.65
        assert eval_relation(Relation.LEFT, a, b)
        assert not eval_relation(Relation.RIGHT, a, b)

    def test_equal_depth_fails_both_ways(self):
        a = obj("cat", oid=1, depth=0.5)
        b = obj("dog", oid=2, x=0.5, depth=0.5)
        assert not eval_relation(Relation.FRONT, a, b)
        assert not eval_relation(Relation.BACK, a, b)

    def test_front_is_nearer(self):
        a = obj("cow", oid=1, depth=0.82)
        b = obj("sheep", oid=2, x=0.5, depth=0.41)
        assert eval_relation(Relation.FRONT, a, b)
        assert not eval_relation(Relation.BACK, a, b)

    def test_frame_relation_against_midline(self):
        assert eval_frame_relation(Relation.LEFT, obj("cat", x=0.1, w=0.2))
        assert not eval_frame_relation(Relation.LEFT, obj("cat", x=0.45, w=0.1))

    def test_frame_relation_vertical_rejected(self):
        with pytest.raises(ValueError):
            eval_frame_relation(Relation.FRONT, obj("cat"))

    @given(relation_pairs())
    def test_pair_predicate_matches_the_four_branch_reference(self, pair):
        a, b = pair
        for relation in Relation:
            assert eval_relation(relation, a, b) is reference_eval_relation(relation, a, b)
            assert eval_relation(relation, b, a) is reference_eval_relation(relation, b, a)

    @given(relation_pairs())
    def test_frame_predicate_matches_the_four_branch_reference(self, pair):
        for a in pair:
            for relation in Relation:
                try:
                    expected = reference_eval_frame_relation(relation, a)
                except ValueError:
                    with pytest.raises(ValueError):
                        eval_frame_relation(relation, a)
                    continue
                assert eval_frame_relation(relation, a) is expected

    @pytest.mark.parametrize("relation", [Relation.LEFT, Relation.RIGHT])
    def test_a_centre_on_the_midline_is_on_neither_side(self, relation):
        centred = obj("cat", x=0.375, w=0.25)
        assert centred.bbox.cx == 0.5
        assert not eval_frame_relation(relation, centred)
        assert not eval_relation(relation, centred, obj("dog", oid=2, x=0.45, w=0.1))


def _two_object_expr(relation=Relation.LEFT, perspective=CAMERA):
    return SpatialExpression(
        mentions=(ObjectMention("cat"), ObjectMention("dog")),
        relations=(RelationClause("cat", relation, "dog", perspective),),
    )


class TestEvaluateStages:
    def test_satisfied_camera_clause(self):
        lay = layout(obj("cat", oid=1, x=0.05), obj("dog", oid=2, x=0.6))
        result = evaluate(_two_object_expr(), lay)
        assert result.correct
        assert result.failures == ()
        assert result.per_clause[0].satisfied

    def test_missing_object_counted_once(self):
        result = evaluate(_two_object_expr(), layout(obj("cat")))
        assert not result.correct
        assert result.failures == (ErrorCategory.MISSING_OBJECT,)
        # the clause itself reports no extra category for the absent relatum
        assert result.per_clause[0].satisfied is False

    def test_duplicate_object_flagged(self):
        lay = layout(
            obj("cat", oid=1, x=0.05),
            obj("dog", oid=2, x=0.6),
            obj("dog", oid=3, y=0.6, x=0.7),
        )
        result = evaluate(_two_object_expr(), lay)
        assert ErrorCategory.MULTIPLE_OBJECT in result.failures

    def test_attribute_mismatch_is_missing(self):
        expr = SpatialExpression(mentions=(ObjectMention("chair", ("red",)),))
        result = evaluate(expr, layout(obj("chair", attrs=("blue",))))
        assert result.failures == (ErrorCategory.MISSING_OBJECT,)

    def test_orientation_assertion_checked(self):
        expr = SpatialExpression(
            mentions=(ObjectMention("sheep"),),
            facings=(FacingAssertion("sheep", FacingDirection.BACK),),
        )
        good = evaluate(expr, layout(obj("sheep", facing=FacingDirection.BACK)))
        bad = evaluate(expr, layout(obj("sheep", facing=FacingDirection.LEFT)))
        none = evaluate(expr, layout(obj("sheep", facing=FacingDirection.NONE)))
        assert good.correct
        assert bad.failures == (ErrorCategory.ORIENTATION,)
        assert none.failures == (ErrorCategory.ORIENTATION,)

    def test_wrong_side_is_left_right(self):
        lay = layout(obj("cat", oid=1, x=0.7), obj("dog", oid=2, x=0.2))
        result = evaluate(_two_object_expr(), lay)
        assert result.failures == (ErrorCategory.LEFT_RIGHT,)

    def test_wrong_depth_is_front_back(self):
        expr = _two_object_expr(Relation.FRONT)
        lay = layout(obj("cat", oid=1, depth=0.3), obj("dog", oid=2, x=0.5, depth=0.8))
        result = evaluate(expr, lay)
        assert result.failures == (ErrorCategory.FRONT_BACK,)

    def test_stages_accumulate_without_short_circuit(self):
        expr = SpatialExpression(
            mentions=(ObjectMention("cat"), ObjectMention("dog")),
            relations=(RelationClause("cat", Relation.LEFT, "dog"),),
            facings=(FacingAssertion("cat", FacingDirection.FRONT),),
        )
        lay = layout(
            obj("cat", oid=1, x=0.7, facing=FacingDirection.BACK),
            obj("dog", oid=2, x=0.2),
            obj("dog", oid=3, y=0.6, x=0.1),
        )
        result = evaluate(expr, lay)
        assert set(result.failures) == {
            ErrorCategory.MULTIPLE_OBJECT,
            ErrorCategory.ORIENTATION,
            ErrorCategory.LEFT_RIGHT,
        }

    def test_frame_clause(self):
        expr = SpatialExpression(
            mentions=(ObjectMention("car"),),
            relations=(RelationClause("car", Relation.LEFT, FRAME, CAMERA),),
        )
        assert evaluate(expr, layout(obj("car", x=0.1))).correct
        assert not evaluate(expr, layout(obj("car", x=0.8, w=0.15))).correct


class TestIntrinsicEvaluation:
    def test_asserted_back_facing_keeps_sides(self):
        expr = parse_expression(
            "A fire hydrant is back of a sheep from the sheep's perspective. "
            "The sheep is facing away from the camera."
        )
        # back of a back-facing sheep lies toward the camera: greater depth
        lay = layout(
            obj("fire hydrant", oid=1, depth=0.8),
            obj("sheep", oid=2, x=0.5, depth=0.4, facing=FacingDirection.BACK),
        )
        assert evaluate(expr, lay).correct

    def test_detected_facing_used_when_unasserted(self):
        expr = SpatialExpression(
            mentions=(ObjectMention("cat"), ObjectMention("chair")),
            relations=(
                RelationClause("cat", Relation.LEFT, "chair", Intrinsic("chair")),
            ),
        )
        # chair faces left, so "left of the chair" is toward the camera
        lay = layout(
            obj("cat", oid=1, depth=0.9),
            obj("chair", oid=2, x=0.5, depth=0.2, facing=FacingDirection.LEFT),
        )
        assert evaluate(expr, lay).correct
        assert evaluate(expr, lay).per_clause[0].camera_relation is Relation.FRONT

    def test_relatum_present_without_facing_is_orientation(self):
        expr = SpatialExpression(
            mentions=(ObjectMention("cat"), ObjectMention("chair")),
            relations=(
                RelationClause("cat", Relation.LEFT, "chair", Intrinsic("chair")),
            ),
        )
        lay = layout(obj("cat", oid=1), obj("chair", oid=2, x=0.5))
        result = evaluate(expr, lay)
        assert ErrorCategory.ORIENTATION in result.failures

    def test_absent_relatum_reports_only_missing(self):
        expr = SpatialExpression(
            mentions=(ObjectMention("cat"), ObjectMention("chair")),
            relations=(
                RelationClause("cat", Relation.LEFT, "chair", Intrinsic("chair")),
            ),
        )
        result = evaluate(expr, layout(obj("cat", oid=1)))
        assert result.failures == (ErrorCategory.MISSING_OBJECT,)


class TestResultAndHistogram:
    def test_result_consistency_enforced(self):
        with pytest.raises(ValueError):
            EvaluationResult(correct=True, failures=(ErrorCategory.LEFT_RIGHT,))

    def test_categorize_run(self):
        results = [
            EvaluationResult(True, ()),
            EvaluationResult(False, (ErrorCategory.LEFT_RIGHT,)),
            EvaluationResult(
                False, (ErrorCategory.LEFT_RIGHT, ErrorCategory.MISSING_OBJECT)
            ),
        ]
        hist = categorize_run(results)
        assert hist.total == 3
        assert hist.correct == 1
        assert hist.accuracy == pytest.approx(1 / 3)
        assert hist.count(ErrorCategory.LEFT_RIGHT) == 2
        assert hist.count(ErrorCategory.MISSING_OBJECT) == 1
        assert hist.count(ErrorCategory.ORIENTATION) == 0

    def test_empty_run(self):
        hist = categorize_run([])
        assert hist.total == 0
        assert hist.accuracy == 0.0

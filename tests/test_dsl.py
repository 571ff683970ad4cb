"""Parsing and rendering of spatial expressions."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenefix import (
    CAMERA,
    ExpressionParseError,
    FacingAssertion,
    FacingDirection,
    Intrinsic,
    ObjectMention,
    Relation,
    RelationClause,
    SpatialExpression,
    parse_expression,
    render_expression,
)
from scenefix.dsl import FRAME


class TestParseExamples:
    def test_intrinsic_with_attribute(self):
        expr = parse_expression(
            "A red chicken is on the left of a chair from the chair's view"
        )
        assert expr.mentions == (
            ObjectMention("chicken", ("red",)),
            ObjectMention("chair"),
        )
        assert expr.relations == (
            RelationClause("chicken", Relation.LEFT, "chair", Intrinsic("chair")),
        )
        assert expr.facings == ()
        assert expr.negations == ()

    def test_mixed_intrinsic_and_unary(self):
        expr = parse_expression(
            "a backpack on the right of a car from car's perspective and a car on the left"
        )
        assert expr.mentions == (ObjectMention("backpack"), ObjectMention("car"))
        assert expr.relations == (
            RelationClause("backpack", Relation.RIGHT, "car", Intrinsic("car")),
            RelationClause("car", Relation.LEFT, FRAME, CAMERA),
        )

    def test_bare_mention(self):
        expr = parse_expression("a cat")
        assert expr.mentions == (ObjectMention("cat"),)
        assert expr.relations == ()

    def test_facing_sentence(self):
        expr = parse_expression(
            "A fire hydrant is back of a sheep from the sheep's perspective. "
            "The sheep is facing away from the camera."
        )
        assert expr.mentions == (
            ObjectMention("fire hydrant"),
            ObjectMention("sheep"),
        )
        assert expr.relations == (
            RelationClause("fire hydrant", Relation.BACK, "sheep", Intrinsic("sheep")),
        )
        assert expr.facings == (FacingAssertion("sheep", FacingDirection.BACK),)

    def test_camera_perspective_phrasings_are_equivalent(self):
        base = parse_expression("a dog is to the left of a cat from the camera's perspective")
        for text in (
            "a dog is to the left of a cat from the observer's perspective",
            "a dog is to the left of a cat from the viewer's view",
            "a dog is to the left of a cat",
        ):
            assert parse_expression(text).relations == base.relations

    def test_negation(self):
        expr = parse_expression("a cat and no dog")
        assert expr.mentions == (ObjectMention("cat"),)
        assert expr.negations == ("dog",)

    def test_background_opener(self):
        expr = parse_expression("An oil painting of a cat to the left of a dog")
        assert expr.background == "An oil painting"
        assert expr.relations == (
            RelationClause("cat", Relation.LEFT, "dog", CAMERA),
        )

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "a 747 jet",
            "a cat on the left from the cat's perspective",
        ],
    )
    def test_unparsable_text_rejected(self, bad):
        with pytest.raises(ExpressionParseError):
            parse_expression(bad)

    def test_frame_relatum_is_not_an_object(self):
        expr = parse_expression("A cat is to the left of the frame.")
        assert expr.mentions == (ObjectMention("cat"),)
        assert expr.relations == (RelationClause("cat", Relation.LEFT, FRAME, CAMERA),)
        assert expr == parse_expression("A cat is on the left.")

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("A cat is to the left of the red frame.", 0),
            ("A dog. A cat is to the right of a small frame.", 6),
        ],
    )
    def test_attributed_frame_relatum_refused(self, text, offset):
        with pytest.raises(ExpressionParseError, match="frame takes no attributes") as err:
            parse_expression(text)
        assert err.value.offset == offset

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("A frame. A dog is to the left of the frame.", 0),
            ("A dog. The frame is to the left of a dog.", 6),
            ("A cat is to the left of a dog and the frame is on the left.", 34),
            ("A cat. The frame is facing left.", 6),
            ("A cat is to the right of a frame and a red frame.", 37),
            ("An oil painting of a frame.", 19),
        ],
    )
    def test_frame_mention_refused(self, text, offset):
        with pytest.raises(ExpressionParseError, match="names the image frame") as err:
            parse_expression(text)
        assert err.value.offset == offset

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("A dog is on the left and a cat. No dogs.", 31),
            # the mention may come after its negation
            ("No dogs. A dog.", 0),
            ("A cat and no cat.", 10),
            ("A red dogs. Without a dog.", 11),
        ],
    )
    def test_negated_mention_refused_at_the_negation(self, text, offset):
        with pytest.raises(ExpressionParseError, match="covers the mention") as err:
            parse_expression(text)
        assert err.value.offset == offset

    def test_expression_negating_a_mention_refused(self):
        mentions = (ObjectMention("dog"), ObjectMention("cat"))
        with pytest.raises(ValueError, match="negated noun 'dogs' covers the mention 'dog'"):
            SpatialExpression(mentions, negations=("dogs",))
        assert SpatialExpression(mentions, negations=("cow",)).negations == ("cow",)

    def test_parse_error_carries_offset(self):
        with pytest.raises(ExpressionParseError) as err:
            parse_expression("a cat and @@@@")
        assert "byte offset" in str(err.value)


class TestRenderExamples:
    def test_camera_binary_clause(self):
        expr = SpatialExpression(
            mentions=(ObjectMention("deer"), ObjectMention("sheep")),
            relations=(RelationClause("deer", Relation.FRONT, "sheep", CAMERA),),
        )
        assert (
            render_expression(expr)
            == "A deer is in front of a sheep from the camera's perspective."
        )

    def test_intrinsic_clause_mentions_relatum(self):
        expr = SpatialExpression(
            mentions=(ObjectMention("deer"), ObjectMention("sheep")),
            relations=(
                RelationClause("deer", Relation.LEFT, "sheep", Intrinsic("sheep")),
            ),
        )
        text = render_expression(expr)
        assert "from the sheep's perspective" in text
        assert "left" in text

    def test_facing_rendering(self):
        expr = SpatialExpression(
            mentions=(ObjectMention("sheep"),),
            facings=(FacingAssertion("sheep", FacingDirection.BACK),),
        )
        assert "facing away from the camera" in render_expression(expr)

    def test_an_article_before_vowel(self):
        expr = SpatialExpression(mentions=(ObjectMention("apple"),))
        assert render_expression(expr).startswith("An apple")


class TestModelValidation:
    def test_self_relation_rejected(self):
        with pytest.raises(ValueError):
            RelationClause("cat", Relation.LEFT, "cat")

    def test_frame_requires_camera_perspective(self):
        with pytest.raises(ValueError):
            RelationClause("cat", Relation.LEFT, FRAME, Intrinsic("cat"))

    def test_facing_assertion_rejects_unknown(self):
        with pytest.raises(ValueError):
            FacingAssertion("cat", FacingDirection.NONE)

    def test_duplicate_mention_names_rejected(self):
        with pytest.raises(ValueError):
            SpatialExpression(mentions=(ObjectMention("cat"), ObjectMention("cat")))

    def test_dangling_reference_rejected(self):
        with pytest.raises(ValueError):
            SpatialExpression(
                mentions=(ObjectMention("cat"),),
                relations=(RelationClause("cat", Relation.LEFT, "dog"),),
            )

    def test_lookup_helpers(self):
        expr = SpatialExpression(
            mentions=(ObjectMention("cat", ("red",)),),
            facings=(FacingAssertion("cat", FacingDirection.LEFT),),
        )
        assert expr.mentions[0].attributes == ("red",)
        assert expr.facing_asserted("cat") is FacingDirection.LEFT
        assert expr.facing_asserted("dog") is None


_NOUNS = st.sampled_from(["cat", "dog", "sheep", "boat", "fire hydrant", "apple"])
_ATTRS = st.lists(st.sampled_from(["red", "blue", "small", "large"]), max_size=2, unique=True)
_FACINGS = st.sampled_from([f for f in FacingDirection if f is not FacingDirection.NONE])


@st.composite
def expressions(draw):
    names = draw(st.lists(_NOUNS, min_size=1, max_size=3, unique=True))
    mentions = tuple(ObjectMention(n, tuple(draw(_ATTRS))) for n in names)
    relations = []
    if len(names) >= 2 and draw(st.booleans()):
        target, relatum = names[0], names[1]
        persp = Intrinsic(relatum) if draw(st.booleans()) else CAMERA
        relations.append(
            RelationClause(target, draw(st.sampled_from(list(Relation))), relatum, persp)
        )
    facings = []
    if draw(st.booleans()):
        facings.append(FacingAssertion(names[-1], draw(_FACINGS)))
    negations = tuple(draw(st.lists(st.sampled_from(["bench", "kite"]), max_size=1)))
    return SpatialExpression(
        mentions=mentions,
        relations=tuple(relations),
        facings=tuple(facings),
        negations=negations,
    )


class TestRoundTrip:
    @given(expressions())
    @settings(max_examples=150)
    def test_render_then_parse_reaches_fixpoint(self, expr):
        # mentions may be reordered into first-reference order on the way
        # through text, so the identity is a fixpoint, not exact equality
        once = parse_expression(render_expression(expr))
        twice = parse_expression(render_expression(once))
        assert once == twice
        assert {m.name for m in once.mentions} == {m.name for m in expr.mentions}
        assert set(once.relations) == set(expr.relations)
        assert set(once.facings) == set(expr.facings)

    def test_unary_round_trip(self):
        expr = SpatialExpression(
            mentions=(ObjectMention("car"),),
            relations=(RelationClause("car", Relation.LEFT, FRAME, CAMERA),),
        )
        assert parse_expression(render_expression(expr)) == expr

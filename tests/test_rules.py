"""The 32-entry perspective conversion table and expression rewriting."""

from __future__ import annotations

import pytest

from scenefix import (
    CAMERA,
    ConversionRule,
    FacingAssertion,
    FacingDirection,
    FacingUnknownError,
    Intrinsic,
    ObjectMention,
    RULE_TABLE,
    Relation,
    RelationClause,
    SpatialExpression,
    convert_expression,
    convert_relation,
)
from scenefix.rules import rule_for, rules_records, resolve_relatum_facing
from scenefix.errors import UnknownObjectError

from helpers import layout, obj

ALL_RELATIONS = (Relation.LEFT, Relation.RIGHT, Relation.FRONT, Relation.BACK)
ALL_FACINGS = tuple(f for f in FacingDirection if f is not FacingDirection.NONE)


# Every row of the exported table: rule id, facing, relation, camera relation.
ALL_ROWS = (
    ("1a", "Front", "left", "right"),
    ("1b", "Front", "right", "left"),
    ("1c", "Front", "front", "front"),
    ("1d", "Front", "back", "back"),
    ("2a", "ForwardLeft", "left", "right"),
    ("2b", "ForwardLeft", "right", "left"),
    ("2c", "ForwardLeft", "front", "front"),
    ("2d", "ForwardLeft", "back", "back"),
    ("3a", "Left", "left", "front"),
    ("3b", "Left", "right", "back"),
    ("3c", "Left", "front", "left"),
    ("3d", "Left", "back", "right"),
    ("4a", "BackwardLeft", "left", "left"),
    ("4b", "BackwardLeft", "right", "right"),
    ("4c", "BackwardLeft", "front", "back"),
    ("4d", "BackwardLeft", "back", "front"),
    ("5a", "Back", "left", "left"),
    ("5b", "Back", "right", "right"),
    ("5c", "Back", "front", "back"),
    ("5d", "Back", "back", "front"),
    ("6a", "BackwardRight", "left", "left"),
    ("6b", "BackwardRight", "right", "right"),
    ("6c", "BackwardRight", "front", "back"),
    ("6d", "BackwardRight", "back", "front"),
    ("7a", "Right", "left", "back"),
    ("7b", "Right", "right", "front"),
    ("7c", "Right", "front", "right"),
    ("7d", "Right", "back", "left"),
    ("8a", "ForwardRight", "left", "right"),
    ("8b", "ForwardRight", "right", "left"),
    ("8c", "ForwardRight", "front", "front"),
    ("8d", "ForwardRight", "back", "back"),
)


class TestTableShape:
    def test_32_entries_four_per_facing(self):
        assert len(RULE_TABLE) == 32
        for facing in ALL_FACINGS:
            rows = [r for r in RULE_TABLE if r.facing is facing]
            assert len(rows) == 4
            assert {r.relation for r in rows} == set(ALL_RELATIONS)

    def test_rule_ids_unique_and_catalog_shaped(self):
        ids = [r.rule_id for r in RULE_TABLE]
        assert len(set(ids)) == 32
        assert all(i[0] in "12345678" and i[1] in "abcd" for i in ids)

    def test_each_facing_is_a_permutation(self):
        for facing in ALL_FACINGS:
            image = {convert_relation(rel, facing) for rel in ALL_RELATIONS}
            assert image == set(ALL_RELATIONS)

    def test_each_permutation_is_an_involution(self):
        for facing in ALL_FACINGS:
            for rel in ALL_RELATIONS:
                once = convert_relation(rel, facing)
                assert convert_relation(once, facing) is rel

    def test_four_distinct_images_across_facings(self):
        # the four facing groups send any fixed relation to all four relations
        for rel in ALL_RELATIONS:
            images = {convert_relation(rel, f) for f in ALL_FACINGS}
            assert images == set(ALL_RELATIONS)

    def test_records_export(self):
        records = rules_records()
        assert len(records) == 32
        assert records[0] == {
            "rule_id": "1a",
            "facing": "Front",
            "relation": "left",
            "camera_relation": "right",
        }

    def test_every_exported_row_is_pinned(self):
        keys = ("rule_id", "facing", "relation", "camera_relation")
        assert [tuple(r[k] for k in keys) for r in rules_records()] == list(ALL_ROWS)


class TestKnownConversions:
    @pytest.mark.parametrize(
        "relation,facing,expected,rule_id",
        [
            (Relation.LEFT, FacingDirection.LEFT, Relation.FRONT, "3a"),
            (Relation.RIGHT, FacingDirection.BACK, Relation.RIGHT, "5b"),
            (Relation.FRONT, FacingDirection.FRONT, Relation.FRONT, "1c"),
            (Relation.LEFT, FacingDirection.BACKWARD_RIGHT, Relation.LEFT, "6a"),
            (Relation.LEFT, FacingDirection.FRONT, Relation.RIGHT, "1a"),
            (Relation.BACK, FacingDirection.RIGHT, Relation.LEFT, "7d"),
        ],
    )
    def test_table_rows(self, relation, facing, expected, rule_id):
        assert convert_relation(relation, facing) is expected
        rule = rule_for(relation, facing)
        assert isinstance(rule, ConversionRule)
        assert rule.rule_id == rule_id
        assert rule.camera_relation is expected

    def test_mirror_group_shares_permutation(self):
        for facing in (
            FacingDirection.FRONT,
            FacingDirection.FORWARD_LEFT,
            FacingDirection.FORWARD_RIGHT,
        ):
            assert convert_relation(Relation.LEFT, facing) is Relation.RIGHT
            assert convert_relation(Relation.FRONT, facing) is Relation.FRONT

    def test_unknown_facing_rejected(self):
        with pytest.raises(FacingUnknownError):
            convert_relation(Relation.LEFT, FacingDirection.NONE)
        with pytest.raises(FacingUnknownError):
            rule_for(Relation.LEFT, FacingDirection.NONE)


def _expr(facing_assertions=(), perspective=None):
    return SpatialExpression(
        mentions=(ObjectMention("cat"), ObjectMention("chair")),
        relations=(
            RelationClause(
                "cat", Relation.LEFT, "chair", perspective or Intrinsic("chair")
            ),
        ),
        facings=facing_assertions,
    )


class TestResolveFacing:
    def test_assertion_wins_over_layout(self):
        expr = _expr((FacingAssertion("chair", FacingDirection.BACK),))
        lay = layout(obj("chair", facing=FacingDirection.LEFT))
        assert (
            resolve_relatum_facing(expr.relations[0], expr, lay)
            is FacingDirection.BACK
        )

    def test_lowest_id_wins_among_duplicates(self):
        expr = _expr()
        lay = layout(
            obj("chair", oid=4, facing=FacingDirection.RIGHT),
            obj("chair", oid=2, x=0.5, facing=FacingDirection.LEFT),
        )
        assert (
            resolve_relatum_facing(expr.relations[0], expr, lay)
            is FacingDirection.LEFT
        )

    def test_absent_relatum_raises_unknown_object(self):
        expr = _expr()
        with pytest.raises(UnknownObjectError):
            resolve_relatum_facing(expr.relations[0], expr, layout(obj("cat")))

    def test_present_without_facing_raises_facing_unknown(self):
        expr = _expr()
        lay = layout(obj("chair", facing=FacingDirection.NONE))
        with pytest.raises(FacingUnknownError):
            resolve_relatum_facing(expr.relations[0], expr, lay)


class TestConvertExpression:
    def test_intrinsic_clause_rewritten_to_camera(self):
        expr = _expr()
        lay = layout(obj("chair", facing=FacingDirection.LEFT))
        out = convert_expression(expr, lay)
        clause = out.relations[0]
        assert clause.relation is Relation.FRONT
        assert clause.perspective == CAMERA
        assert out.mentions == expr.mentions
        assert out.background == expr.background

    def test_camera_clause_untouched(self):
        expr = _expr(perspective=CAMERA)
        out = convert_expression(expr, layout())
        assert out.relations == expr.relations

    def test_missing_relatum_surfaces_as_facing_unknown(self):
        expr = _expr()
        with pytest.raises(FacingUnknownError):
            convert_expression(expr, layout())

    def test_asserted_facing_used_without_layout_object(self):
        expr = _expr((FacingAssertion("chair", FacingDirection.FRONT),))
        out = convert_expression(expr, layout())
        assert out.relations[0].relation is Relation.RIGHT

"""Perspective conversion rules: intrinsic relations rewritten to camera frame.

A clause like "A is left of B from B's perspective" names a side of B in
B's own frame.  What that side looks like from the camera depends only on
which way B faces, quantized to eight 45-degree buckets.  The full table
has 32 entries (8 facings x 4 relations); each facing induces a
permutation of the four relations, and every permutation here is an
involution (applying it twice gives the identity).

Rules carry catalog ids "1a".."8d": facings are numbered 1..8 in
``scene.BUCKETS`` order (Front, ForwardLeft, Left, BackwardLeft, Back,
BackwardRight, Right, ForwardRight), and relations are lettered a..d in
``Relation``'s order (left, right, front, back).  Test failures and
exports cite these ids.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dsl import CAMERA, Camera, Intrinsic, RelationClause, SpatialExpression
from .errors import FacingUnknownError, UnknownObjectError
from .scene import BUCKETS, FacingDirection, Relation, SceneLayout

_L, _R, _F, _B = Relation.LEFT, Relation.RIGHT, Relation.FRONT, Relation.BACK

# facing -> {intrinsic relation -> camera relation}
# Facing the camera (fully or diagonally) mirrors left/right; facing away
# keeps them; facing left or right rotates the axes into depth.
_PERMUTATIONS: dict[FacingDirection, dict[Relation, Relation]] = {
    FacingDirection.FRONT: {_L: _R, _R: _L, _F: _F, _B: _B},
    FacingDirection.FORWARD_LEFT: {_L: _R, _R: _L, _F: _F, _B: _B},
    FacingDirection.FORWARD_RIGHT: {_L: _R, _R: _L, _F: _F, _B: _B},
    FacingDirection.LEFT: {_L: _F, _R: _B, _F: _L, _B: _R},
    FacingDirection.RIGHT: {_L: _B, _R: _F, _F: _R, _B: _L},
    FacingDirection.BACK: {_L: _L, _R: _R, _F: _B, _B: _F},
    FacingDirection.BACKWARD_LEFT: {_L: _L, _R: _R, _F: _B, _B: _F},
    FacingDirection.BACKWARD_RIGHT: {_L: _L, _R: _R, _F: _B, _B: _F},
}


@dataclass(frozen=True)
class ConversionRule:
    rule_id: str
    facing: FacingDirection
    relation: Relation
    camera_relation: Relation


RULE_TABLE: tuple[ConversionRule, ...] = tuple(
    ConversionRule(
        rule_id=f"{number}{letter}",
        facing=facing,
        relation=rel,
        camera_relation=_PERMUTATIONS[facing][rel],
    )
    for number, facing in enumerate(BUCKETS, 1)
    for letter, rel in zip("abcd", Relation)
)

_LOOKUP = {(r.facing, r.relation): r for r in RULE_TABLE}


def convert_relation(relation: Relation, facing: FacingDirection) -> Relation:
    """Camera-frame equivalent of an intrinsic relation given the relatum facing."""
    return rule_for(relation, facing).camera_relation


def rule_for(relation: Relation, facing: FacingDirection) -> ConversionRule:
    if facing is FacingDirection.NONE:
        raise FacingUnknownError("no rule applies to an unknown facing")
    return _LOOKUP[(facing, relation)]


def rules_records() -> list[dict]:
    """The table as plain records, for export and machine checking."""
    return [
        {
            "rule_id": r.rule_id,
            "facing": r.facing.value,
            "relation": r.relation.value,
            "camera_relation": r.camera_relation.value,
        }
        for r in RULE_TABLE
    ]


def resolve_relatum_facing(
    clause: RelationClause, expr: SpatialExpression, layout: SceneLayout
) -> FacingDirection:
    """Facing used to convert an intrinsic clause.

    An explicit facing assertion in the expression wins; otherwise the
    detected facing of the relatum object in the layout is used (lowest
    object id when the name matches several).  Raises UnknownObjectError
    when the relatum is absent from the layout and unasserted, and
    FacingUnknownError when it is present but carries no facing.
    """
    assert isinstance(clause.perspective, Intrinsic)
    anchor = clause.perspective.relatum
    asserted = expr.facing_asserted(anchor)
    if asserted is not None:
        return asserted
    relatum = layout.first_named(anchor)
    if relatum is None:
        raise UnknownObjectError(f"relatum {anchor!r} not present in layout")
    facing = relatum.facing
    if facing is FacingDirection.NONE:
        raise FacingUnknownError(f"no facing available for relatum {anchor!r}")
    return facing


def camera_relation(
    clause: RelationClause, expr: SpatialExpression, layout: SceneLayout
) -> Relation:
    """The clause's relation read from the camera; raises what
    :func:`resolve_relatum_facing` raises for an intrinsic clause."""
    if isinstance(clause.perspective, Camera):
        return clause.relation
    return convert_relation(clause.relation, resolve_relatum_facing(clause, expr, layout))


def convert_expression(expr: SpatialExpression, layout: SceneLayout) -> SpatialExpression:
    """Rewrite every intrinsic clause of an expression into the camera frame.

    Mentions, facing assertions, negations and the background are kept
    verbatim.  Raises FacingUnknownError when any intrinsic clause has no
    resolvable facing (missing relatum included).
    """
    converted: list[RelationClause] = []
    for clause in expr.relations:
        try:
            relation = camera_relation(clause, expr, layout)
        except UnknownObjectError as exc:
            raise FacingUnknownError(str(exc)) from exc
        converted.append(RelationClause(clause.target, relation, clause.relatum, CAMERA))
    return SpatialExpression(
        expr.mentions, tuple(converted), expr.facings, expr.negations, expr.background
    )

"""Independent 3-d cross-check for the perspective conversion rules.

Nothing here consults the rule table to *compute* anything: truths come
from plain vector geometry, so agreement with the table is meaningful.

World model: the camera sits at the origin looking along +y; +x points to
the camera's right, +z up.  An object with yaw angle t (degrees, measured
counter-clockwise from above, 0 = facing the camera) has forward vector
u(t) = (-sin t, -cos t) and its own left-hand side along (-u_y, u_x).
"Target is left of the relatum from the relatum's perspective" is a
half-space test: the displacement projects positively onto the relatum's
left vector.  The same goes for the other three sides.

Projection uses a weak-perspective (scaled orthographic) camera: image x
is an affine map of world x, and depth-as-nearness an affine decreasing
map of world y.  Under that model the comparisons the evaluator makes on
boxes and depths mirror world-coordinate comparisons exactly, which is
what makes a 100%-agreement check meaningful rather than flaky.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .dsl import (
    FacingAssertion,
    Intrinsic,
    ObjectMention,
    RelationClause,
    SpatialExpression,
)
from .scene import (
    BBox,
    FacingDirection,
    Relation,
    SceneLayout,
    SceneObject,
    bucket_center,
)

# Scene region: x in [-3, 3], y (distance from camera) in [1, 9].
_X_SPAN = 3.0
_Y_NEAR = 1.0
_Y_FAR = 9.0
_X_SCALE = 0.45 / _X_SPAN  # world x -> image x offset from 0.5

CARDINAL_FACINGS = (
    FacingDirection.FRONT,
    FacingDirection.LEFT,
    FacingDirection.BACK,
    FacingDirection.RIGHT,
)


def forward_vector(yaw_degrees: float) -> tuple[float, float]:
    t = math.radians(yaw_degrees)
    return (-math.sin(t), -math.cos(t))


def left_vector(yaw_degrees: float) -> tuple[float, float]:
    ux, uy = forward_vector(yaw_degrees)
    return (-uy, ux)


def relation_direction(yaw_degrees: float, relation: Relation) -> tuple[float, float]:
    """Unit vector pointing toward the named side of an object with this yaw."""
    fx, fy = forward_vector(yaw_degrees)
    lx, ly = left_vector(yaw_degrees)
    return {
        Relation.LEFT: (lx, ly),
        Relation.RIGHT: (-lx, -ly),
        Relation.FRONT: (fx, fy),
        Relation.BACK: (-fx, -fy),
    }[relation]


def project_cx(world_x: float) -> float:
    """Weak-perspective image x of a world point."""
    return 0.5 + _X_SCALE * world_x


def nearness(world_y: float) -> float:
    """Depth-as-nearness of a world point: 1.0 at the near plane."""
    return 0.05 + 0.9 * (_Y_FAR - world_y) / (_Y_FAR - _Y_NEAR)


def camera_relations(target: tuple[float, float], relatum: tuple[float, float]) -> set[Relation]:
    """Camera-frame relations that hold between two projected points (strict)."""
    out: set[Relation] = set()
    tcx, rcx = project_cx(target[0]), project_cx(relatum[0])
    tn, rn = nearness(target[1]), nearness(relatum[1])
    if tcx < rcx:
        out.add(Relation.LEFT)
    if tcx > rcx:
        out.add(Relation.RIGHT)
    if tn > rn:
        out.add(Relation.FRONT)
    if tn < rn:
        out.add(Relation.BACK)
    return out


def implied_camera_relation(facing: FacingDirection, relation: Relation) -> Relation:
    """Camera relation implied by placing a target in an intrinsic half-space.

    The relatum sits on the optical axis with yaw at the bucket center; a
    deterministic fan of targets covers the half-space for the given
    intrinsic relation.  Exactly one camera relation must hold for every
    sample; anything else is a geometry bug worth failing loudly on.
    """
    yaw = bucket_center(facing)
    dx, dy = relation_direction(yaw, relation)
    ox, oy = -dy, dx  # in-plane orthogonal of the half-space normal
    relatum = (0.0, 5.0)
    candidates: set[Relation] | None = None
    for along in (0.25, 1.0, 2.4):
        for across in (-2.4, -1.0, 0.0, 1.0, 2.4):
            px = relatum[0] + along * dx + across * ox
            py = relatum[1] + along * dy + across * oy
            held = camera_relations((px, py), relatum)
            candidates = held if candidates is None else candidates & held
    if candidates is None or len(candidates) != 1:
        raise AssertionError(
            f"half-space for {relation.value} of a {facing.value}-facing object does not "
            f"project to a unique camera relation: {sorted(r.value for r in (candidates or ()))}"
        )
    return next(iter(candidates))


def check_rule_table() -> list[dict]:
    """Compare the rule table against the oracle on all cardinal pairs.

    Returns one record per (facing, relation) pair with both answers and
    an agreement flag; callers assert all 16 agree.
    """
    from . import rules  # local import: the oracle's own geometry stays table-free

    records = []
    for facing in CARDINAL_FACINGS:
        for relation in Relation:
            oracle_rel = implied_camera_relation(facing, relation)
            table_rel = rules.convert_relation(relation, facing)
            records.append(
                {
                    "facing": facing.value,
                    "relation": relation.value,
                    "oracle": oracle_rel.value,
                    "table": table_rel.value,
                    "rule_id": rules.rule_for(relation, facing).rule_id,
                    "agree": oracle_rel is table_rel,
                }
            )
    return records


@dataclass(frozen=True)
class OracleScene:
    """A random 3-d configuration rendered down to a symbolic layout."""

    expression: SpatialExpression
    layout: SceneLayout
    truth: bool


_ORACLE_NOUNS = ("cone", "pillar")


def sample_scene(rng: random.Random, margin: float = 0.05) -> OracleScene:
    """Sample a cardinal-facing two-object scene with a ground-truth verdict.

    The clause "target R relatum from the relatum's perspective" is judged
    by the half-space test in world coordinates; the returned layout is the
    weak-perspective rendering of the same scene.  Rejection sampling keeps
    the compared quantities (image-x gap and nearness gap) at or above
    ``margin`` so strict comparisons are never decided by float noise.
    """
    while True:
        facing = rng.choice(CARDINAL_FACINGS)
        relation = rng.choice(tuple(Relation))
        rx = rng.uniform(-_X_SPAN + 0.2, _X_SPAN - 0.2)
        ry = rng.uniform(_Y_NEAR + 0.2, _Y_FAR - 0.2)
        tx = rng.uniform(-_X_SPAN + 0.2, _X_SPAN - 0.2)
        ty = rng.uniform(_Y_NEAR + 0.2, _Y_FAR - 0.2)
        if abs(project_cx(tx) - project_cx(rx)) < margin:
            continue
        if abs(nearness(ty) - nearness(ry)) < margin:
            continue
        dx, dy = relation_direction(bucket_center(facing), relation)
        dot = (tx - rx) * dx + (ty - ry) * dy
        if abs(dot) < margin:
            continue
        truth = dot > 0.0

        with_assertion = rng.random() < 0.5
        target = SceneObject(
            name=_ORACLE_NOUNS[0],
            attributes=(),
            object_id=1,
            bbox=_small_box(project_cx(tx), 0.35),
            depth=round(nearness(ty), 6),
            facing=FacingDirection.NONE,
        )
        relatum = SceneObject(
            name=_ORACLE_NOUNS[1],
            attributes=(),
            object_id=2,
            bbox=_small_box(project_cx(rx), 0.65),
            depth=round(nearness(ry), 6),
            facing=facing,
        )
        expr = SpatialExpression(
            mentions=(ObjectMention(_ORACLE_NOUNS[0]), ObjectMention(_ORACLE_NOUNS[1])),
            relations=(
                RelationClause(_ORACLE_NOUNS[0], relation, _ORACLE_NOUNS[1], Intrinsic(_ORACLE_NOUNS[1])),
            ),
            facings=(FacingAssertion(_ORACLE_NOUNS[1], facing),) if with_assertion else (),
        )
        return OracleScene(expression=expr, layout=SceneLayout((target, relatum)), truth=truth)


def _small_box(cx: float, cy: float) -> BBox:
    side = 0.1
    x = min(max(cx - side / 2.0, 0.0), 1.0 - side)
    y = min(max(cy - side / 2.0, 0.0), 1.0 - side)
    return BBox(round(x, 6), round(y, 6), side, side)


def agreement_over_scenes(n: int, seed: int, margin: float = 0.05) -> tuple[int, int]:
    """Count evaluator-vs-oracle agreements over n >= 0 random cardinal scenes."""
    if n < 0:
        raise ValueError(f"scene count must be >= 0, got {n}")
    from .evaluate import evaluate  # local import to keep the geometry standalone

    rng = random.Random(seed)
    agree = 0
    for _ in range(n):
        scene = sample_scene(rng, margin=margin)
        verdict = evaluate(scene.expression, scene.layout)
        if verdict.correct == scene.truth:
            agree += 1
    return agree, n

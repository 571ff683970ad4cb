"""Factories shared across the test modules."""

from __future__ import annotations

import random

from scenefix import BBox, FacingDirection, SceneLayout, SceneObject, box_depth

NOUN_POOL = ("cat", "dog", "cup", "car", "sheep", "fire hydrant", "boat", "deer")
ATTR_POOL = ("red", "blue", "green", "small", "large")
FACING_POOL = tuple(FacingDirection)


def obj(
    name: str = "cat",
    *,
    oid: int = 1,
    x: float = 0.1,
    y: float = 0.1,
    w: float = 0.2,
    h: float = 0.2,
    depth: float = 0.5,
    attrs: tuple[str, ...] = (),
    facing: FacingDirection = FacingDirection.NONE,
) -> SceneObject:
    return SceneObject(
        name=name,
        attributes=tuple(attrs),
        object_id=oid,
        bbox=BBox(x, y, w, h),
        depth=depth,
        facing=facing,
    )


def layout(*objects: SceneObject, background: str | None = None) -> SceneLayout:
    if background is None:
        return SceneLayout(tuple(objects))
    return SceneLayout(tuple(objects), background)


def grid_bbox(rng: random.Random) -> BBox:
    # all values on the 3-decimal grid so wire round-trips are exact
    w = round(rng.uniform(0.05, 0.4), 3)
    h = round(rng.uniform(0.05, 0.4), 3)
    x = min(round(rng.uniform(0.0, 1.0 - w), 3), round(1.0 - w, 3))
    y = min(round(rng.uniform(0.0, 1.0 - h), 3), round(1.0 - h, 3))
    return BBox(x, y, w, h)


def random_object(rng: random.Random, oid: int) -> SceneObject:
    attrs = tuple(rng.sample(ATTR_POOL, rng.randrange(3)))
    return SceneObject(
        name=rng.choice(NOUN_POOL),
        attributes=attrs,
        object_id=oid,
        bbox=grid_bbox(rng),
        depth=round(rng.uniform(0.0, 1.0), 3),
        facing=rng.choice(FACING_POOL),
    )


def random_layout(
    rng: random.Random,
    max_objects: int = 4,
    id_pool: tuple[int, ...] = (1, 2, 3, 4, 5, 6),
    iou_cap: float | None = None,
) -> SceneLayout:
    from scenefix.scene import bbox_iou

    n = rng.randrange(max_objects + 1)
    ids = rng.sample(id_pool, n)
    objects: list[SceneObject] = []
    for oid in ids:
        for _ in range(80):
            candidate = random_object(rng, oid)
            if iou_cap is None or all(
                bbox_iou(candidate.bbox, o.bbox) <= iou_cap for o in objects
            ):
                objects.append(candidate)
                break
        else:
            break
    return SceneLayout(tuple(objects))


# Wire text with Unicode digits that str.isdigit() or float() accept and
# the wire grammar must not.
NON_ASCII_WIRE = (
    "[('cat #²', [0.1, 0.1, 0.2, 0.2], 0.5, None)]",  # superscript two as the id
    "[('cat #٣', [0.1, 0.1, 0.2, 0.2], 0.5, None)]",  # Arabic-Indic three as the id
    "[('cat #1', [٠, 0, 0.1, 0.1], 0.5, None)]",  # Arabic-Indic zero in the box
    "[('cat #1', [0, 0, 0.1, 0.1], ٠.5, None)]",  # Arabic-Indic zero in the depth
)


def scene_consistency_gap(scene) -> float:
    """Largest |stored depth - box mean| over a scene's objects (0 when empty)."""
    gap = 0.0
    for o in scene.layout.objects:
        gap = max(gap, abs(box_depth(scene.depth, o.bbox) - o.depth))
    return gap

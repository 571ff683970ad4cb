"""Edit actions over symbolic scenes: diffing layouts and executing edits.

A SymbolicScene pairs an object layout with a per-pixel depth grid; the
executor keeps the two views consistent.  Regions are rectangular pixel
masks of the object boxes.  Scenes built by this package give each
object its own uniform, non-overlapping depth patch, which is what makes
the stored-depth-equals-mask-mean invariant hold tightly.

Depth edits follow the pixel rule

    d' = min(1, max(0, d - D + D'))

where D is the object's current mean depth over its mask and D' the new
target: the whole patch shifts by the commanded object-level delta and
individual pixels clamp at the [0, 1] walls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateIdError,
    OverlapCollisionError,
    UnknownObjectError,
)
from .scene import (
    BBox,
    DepthMap,
    FacingDirection,
    SceneLayout,
    SceneObject,
    bbox_iou,
    grid_bounds,
)

# Additions may overlap existing boxes at most this much.
MAX_ADDITION_IOU = 0.5

DEFAULT_SCENE_SIZE = 64
DEFAULT_BACKGROUND_DEPTH = 0.05


@dataclass(frozen=True)
class Addition:
    obj: SceneObject


@dataclass(frozen=True)
class Deletion:
    object_id: int


@dataclass(frozen=True)
class Reposition:
    object_id: int
    new_bbox: BBox


@dataclass(frozen=True)
class AttributeModify:
    object_id: int
    new_attributes: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "new_attributes", tuple(self.new_attributes))


@dataclass(frozen=True)
class FacingModify:
    object_id: int
    new_facing: FacingDirection

    def __post_init__(self):
        if self.new_facing is FacingDirection.NONE:
            raise ValueError("FacingModify needs a concrete bucket")


@dataclass(frozen=True)
class DepthModify:
    """Move an object in depth, optionally relocating its box in the same step."""

    object_id: int
    new_depth: float
    new_bbox: BBox | None = None

    def __post_init__(self):
        if not 0.0 <= self.new_depth <= 1.0:
            raise ValueError(f"target depth must lie in [0, 1], got {self.new_depth!r}")


EditAction = Addition | Deletion | Reposition | AttributeModify | FacingModify | DepthModify


def action_kind(action: EditAction) -> str:
    return type(action).__name__


@dataclass(frozen=True)
class SymbolicScene:
    layout: SceneLayout
    depth: DepthMap


def scene_from_layout(
    layout: SceneLayout,
    width: int = DEFAULT_SCENE_SIZE,
    height: int = DEFAULT_SCENE_SIZE,
    background_depth: float = DEFAULT_BACKGROUND_DEPTH,
) -> SymbolicScene:
    """Synthesize a depth grid for a layout: uniform patches over background."""
    arr = np.full((height, width), float(background_depth), dtype=np.float64)
    for obj in layout.objects:
        c0, c1, r0, r1 = grid_bounds(width, height, obj.bbox)
        arr[r0 : r1 + 1, c0 : c1 + 1] = obj.depth
    return SymbolicScene(layout=layout, depth=DepthMap.adopt(arr))


def _shift_depth(values: np.ndarray, current: float, target: float) -> np.ndarray:
    """The paper's pixel rule d' = clip(d - D + D', 0, 1), for both callers."""
    return np.clip(values - current + target, 0.0, 1.0)


def apply_depth_formula(
    depth: DepthMap, mask: frozenset[tuple[int, int]], current: float, target: float
) -> DepthMap:
    """Shift every masked pixel by (target - current), clamping into [0, 1]."""
    arr = np.array(depth.values, copy=True)
    cols = np.fromiter((c for c, _ in mask), dtype=np.intp, count=len(mask))
    rows = np.fromiter((r for _, r in mask), dtype=np.intp, count=len(mask))
    arr[rows, cols] = _shift_depth(arr[rows, cols], current, target)
    return DepthMap.adopt(arr)


# --------------------------------------------------------------------------
# diffing

def diff_layouts(current: SceneLayout, proposed: SceneLayout) -> list[EditAction]:
    """Minimal action list turning ``current`` into ``proposed``.

    Objects pair up by object id; an id that changes its name, or whose
    facing reverts to unknown (an orientation cannot be modified *to*
    None), is treated as a remove-plus-add.  Deletions come first, then
    per-object field edits in current-layout order, then additions;
    placing additions last means kept objects have already moved to
    their proposed boxes, so an addition never collides with a box the
    proposal vacates.  Equal layouts yield the empty list.
    """
    current_ids = {o.object_id: o for o in current.objects}
    proposed_ids = {o.object_id: o for o in proposed.objects}
    if len(current_ids) != len(current.objects) or len(proposed_ids) != len(proposed.objects):
        raise DuplicateIdError("layouts with duplicate ids cannot be diffed")

    def unpairable(old: SceneObject, new: SceneObject) -> bool:
        return new.name != old.name or (
            new.facing is FacingDirection.NONE
            and old.facing is not FacingDirection.NONE
        )

    deletions: list[EditAction] = []
    additions: list[EditAction] = []
    edits: list[EditAction] = []

    for obj in current.objects:
        counterpart = proposed_ids.get(obj.object_id)
        if counterpart is None or unpairable(obj, counterpart):
            deletions.append(Deletion(obj.object_id))
    for obj in proposed.objects:
        counterpart = current_ids.get(obj.object_id)
        if counterpart is None or unpairable(counterpart, obj):
            additions.append(Addition(obj))

    for obj in current.objects:
        new = proposed_ids.get(obj.object_id)
        if new is None or unpairable(obj, new):
            continue
        if new.attributes != obj.attributes:
            edits.append(AttributeModify(obj.object_id, new.attributes))
        if new.facing is not obj.facing:
            edits.append(FacingModify(obj.object_id, new.facing))
        bbox_changed = new.bbox != obj.bbox
        if new.depth != obj.depth:
            edits.append(
                DepthModify(obj.object_id, new.depth, new.bbox if bbox_changed else None)
            )
        elif bbox_changed:
            edits.append(Reposition(obj.object_id, new.bbox))

    return deletions + edits + additions


# --------------------------------------------------------------------------
# executing

def _background_fill(arr: np.ndarray, bounds: tuple[int, int, int, int]) -> None:
    """Backfill a rectangle with the median of the pixels outside it."""
    c0, c1, r0, r1 = bounds
    # the four strips around the rectangle hold exactly the outside pixels;
    # a median does not depend on their order
    outside = np.concatenate(
        (
            arr[:r0].ravel(),
            arr[r1 + 1 :].ravel(),
            arr[r0 : r1 + 1, :c0].ravel(),
            arr[r0 : r1 + 1, c1 + 1 :].ravel(),
        )
    )
    # ``np.median`` without its Python wrappers, so the same float: the
    # fresh array is partitioned in place at the middle (``np.median``
    # also puts the largest value last to probe for NaN, which no depth
    # grid holds), and the middle values go through the same reduction,
    # which reads -0.0 as 0.0 whichever of two equal zeros lands there
    n = outside.size
    half = n // 2
    if n % 2:
        outside.partition(half)
        fill = float(np.add.reduce(outside[half : half + 1]))
    elif n:
        outside.partition((half - 1, half))
        fill = float(np.add.reduce(outside[half - 1 : half + 1])) / 2
    else:
        fill = 0.0
    arr[r0 : r1 + 1, c0 : c1 + 1] = fill


def _nn_resample(patch: np.ndarray, rows: int, cols: int) -> np.ndarray:
    src_r = np.minimum(((np.arange(rows) + 0.5) * patch.shape[0] / rows).astype(np.intp), patch.shape[0] - 1)
    src_c = np.minimum(((np.arange(cols) + 0.5) * patch.shape[1] / cols).astype(np.intp), patch.shape[1] - 1)
    return patch.take(src_r, 0).take(src_c, 1)


def _move_patch(arr: np.ndarray, old: BBox, new: BBox) -> None:
    h, w = arr.shape
    c0, c1, r0, r1 = ob = grid_bounds(w, h, old)
    nc0, nc1, nr0, nr1 = grid_bounds(w, h, new)
    patch = arr[r0 : r1 + 1, c0 : c1 + 1].copy()
    _background_fill(arr, ob)
    arr[nr0 : nr1 + 1, nc0 : nc1 + 1] = _nn_resample(patch, nr1 - nr0 + 1, nc1 - nc0 + 1)


def _restore_consistency(arr: np.ndarray, objects: list[SceneObject]) -> None:
    """Repaint any object whose mask mean drifted from its stored depth.

    A move or backfill can write through a region another object still
    occupies (two repositions that exchange extents overlap transiently).
    Repainting in layout order converges once the boxes are disjoint again;
    the pass cap keeps genuinely overlapping layouts from ping-ponging.
    """
    h, w = arr.shape
    regions = []
    for obj in objects:
        c0, c1, r0, r1 = grid_bounds(w, h, obj.bbox)
        regions.append((arr[r0 : r1 + 1, c0 : c1 + 1], (r1 - r0 + 1) * (c1 - c0 + 1), obj.depth))
    for _ in range(3):
        clean = True
        for region, size, depth in regions:
            # ``region.sum()`` reaches this reduction through numpy's
            # Python-level ``_methods._sum``: the same float
            if abs(float(np.add.reduce(region, None)) / size - depth) > 1e-3:
                region[:] = depth
                clean = False
        if clean:
            return


def apply_actions(scene: SymbolicScene, actions) -> SymbolicScene:
    """Execute actions in order, returning the edited scene.

    Raises UnknownObjectError for edits addressing absent ids,
    DuplicateIdError when an addition reuses a live id, and
    OverlapCollisionError when an added box overlaps an existing one by
    more than 50% IoU.  An empty action list returns an equal scene.
    """
    actions = list(actions)
    if not actions:
        return scene

    arr = np.array(scene.depth.values, copy=True)
    h, w = arr.shape
    objects: list[SceneObject] = list(scene.layout.objects)

    def index_of(object_id: int) -> int:
        for i, obj in enumerate(objects):
            if obj.object_id == object_id:
                return i
        raise UnknownObjectError(f"no object with id {object_id}")

    for action in actions:
        if isinstance(action, Deletion):
            i = index_of(action.object_id)
            _background_fill(arr, grid_bounds(w, h, objects[i].bbox))
            del objects[i]
        elif isinstance(action, Addition):
            obj = action.obj
            if any(o.object_id == obj.object_id for o in objects):
                raise DuplicateIdError(f"id {obj.object_id} already present")
            worst = max((bbox_iou(obj.bbox, o.bbox) for o in objects), default=0.0)
            if worst > MAX_ADDITION_IOU:
                raise OverlapCollisionError(
                    f"new box for {obj.name!r} overlaps an existing object (IoU {worst:.2f})"
                )
            c0, c1, r0, r1 = grid_bounds(w, h, obj.bbox)
            arr[r0 : r1 + 1, c0 : c1 + 1] = obj.depth
            objects.append(obj)
        elif isinstance(action, Reposition):
            i = index_of(action.object_id)
            _move_patch(arr, objects[i].bbox, action.new_bbox)
            objects[i] = objects[i].replace(bbox=action.new_bbox)
        elif isinstance(action, AttributeModify):
            i = index_of(action.object_id)
            objects[i] = objects[i].replace(attributes=action.new_attributes)
        elif isinstance(action, FacingModify):
            i = index_of(action.object_id)
            objects[i] = objects[i].replace(facing=action.new_facing)
        elif isinstance(action, DepthModify):
            i = index_of(action.object_id)
            obj = objects[i]
            bbox = action.new_bbox or obj.bbox
            if action.new_bbox is not None and action.new_bbox != obj.bbox:
                _move_patch(arr, obj.bbox, action.new_bbox)
            c0, c1, r0, r1 = grid_bounds(w, h, bbox)
            patch = arr[r0 : r1 + 1, c0 : c1 + 1]
            patch[...] = _shift_depth(patch, obj.depth, action.new_depth)
            objects[i] = obj.replace(depth=action.new_depth, bbox=bbox)
        else:
            raise TypeError(f"unknown action {action!r}")
        _restore_consistency(arr, objects)

    return SymbolicScene(
        layout=scene.layout.with_objects(tuple(objects)), depth=DepthMap.adopt(arr)
    )

"""Edit actions over symbolic scenes: diffing layouts and executing edits.

A SymbolicScene pairs an object layout with a per-pixel depth grid.
Scenes built by this package render the grid from the layout: each
object is a uniform patch over its box's pixel rectangle, on a uniform
background, painted nearest-last (ascending depth, ties in layout
order), so a pixel shows, and is owned by, the nearest object over it.
Perception reads an object's depth from the pixels it owns. The executor
edits the layout and renders it again, so the two views never drift
apart.

``apply_depth_formula`` states the paper's pixel rule for depth edits,

    d' = min(1, max(0, d - D + D'))

where D is the object's current mean depth over its mask and D' the new
target: the whole patch shifts by the commanded object-level delta and
individual pixels clamp at the [0, 1] walls. On a rendered, unoccluded
patch it equals the re-rendered patch at D'.
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
    DEFAULT_SCENE_SIZE,
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


class SymbolicScene:
    """An object layout and the per-pixel depth grid it is seen through.

    ``SymbolicScene(layout, depth)`` pairs a layout with a given grid,
    whose pixels have no owners. :func:`scene_from_layout` builds one
    whose grid is rendered from the layout the first time ``depth`` is
    read, and then kept: patches are painted nearest-last, in ascending
    depth with ties in layout order, and each pixel is owned by the object
    painted there last. Such a scene also knows its ``clear`` objects:
    those whose pixel rectangle no object painted later overlaps, so that
    they own their whole rectangle. A given grid has no clear objects.
    """

    __slots__ = ("layout", "size", "background_depth", "clear", "_bounds", "_grid", "_owners")

    def __init__(
        self, layout: SceneLayout, depth: DepthMap, background_depth: float = DEFAULT_BACKGROUND_DEPTH
    ):
        self.layout = layout
        self.size = (depth.width, depth.height)
        self.background_depth = background_depth
        self.clear: frozenset[int] = frozenset()
        self._bounds = None
        self._grid = depth
        self._owners = None

    @property
    def depth(self) -> DepthMap:
        if self._grid is None:
            values = [obj.depth for obj in self.layout.objects]
            values.append(self.background_depth)  # owner -1: the background
            self._grid = DepthMap.adopt(np.array(values)[self._owner_grid()])
        return self._grid

    def _owner_grid(self) -> np.ndarray:
        """Each pixel's owner as a layout index, -1 for the background."""
        if self._owners is None:
            w, h = self.size
            owners = np.empty((h, w), dtype=np.intp)
            owners.fill(-1)
            objects = self.layout.objects
            for i in sorted(range(len(objects)), key=lambda i: objects[i].depth):
                c0, c1, r0, r1 = self._bounds[i]
                owners[r0 : r1 + 1, c0 : c1 + 1] = i
            self._owners = owners
        return self._owners

    def owns_pixel(self, index: int, bbox: BBox) -> bool:
        """Whether layout object ``index`` owns a pixel of ``bbox``'s rectangle.

        Always false on a given grid. For a clear object this is a
        rectangle-intersection test; any other object reads the owner grid,
        rendered once per scene. Raises EmptyRegionError when ``bbox``
        covers no pixel center.
        """
        w, h = self.size
        c0, c1, r0, r1 = grid_bounds(w, h, bbox)
        if self._bounds is None:
            return False
        own_c0, own_c1, own_r0, own_r1 = self._bounds[index]
        if c0 > own_c1 or own_c0 > c1 or r0 > own_r1 or own_r0 > r1:
            return False
        if self.layout.objects[index].object_id in self.clear:
            return True
        c0, c1, r0, r1 = max(c0, own_c0), min(c1, own_c1), max(r0, own_r0), min(r1, own_r1)
        return bool((self._owner_grid()[r0 : r1 + 1, c0 : c1 + 1] == index).any())


def scene_from_layout(
    layout: SceneLayout,
    width: int = DEFAULT_SCENE_SIZE,
    height: int = DEFAULT_SCENE_SIZE,
    background_depth: float = DEFAULT_BACKGROUND_DEPTH,
) -> SymbolicScene:
    """The scene a layout renders to: uniform patches over a background,
    painted nearest-last (ascending depth, ties in layout order).

    Every box's pixel bounds are taken here, so a box that covers no pixel
    center raises EmptyRegionError from this call; the grid itself is
    rendered on the first read of ``depth``. ``clear`` comes from each
    overlapping pair's depths, so a scene nobody reads pixels of is never
    sorted into paint order.
    """
    background_depth = float(background_depth)
    bounds = tuple(grid_bounds(width, height, obj.bbox) for obj in layout.objects)
    if not 0.0 <= background_depth <= 1.0:
        raise ValueError(f"background depth must lie in [0, 1], got {background_depth!r}")
    objects = layout.objects
    covered = set()
    for i, (c0, c1, r0, r1) in enumerate(bounds):
        for j in range(i + 1, len(bounds)):
            later_c0, later_c1, later_r0, later_r1 = bounds[j]
            if c0 <= later_c1 and later_c0 <= c1 and r0 <= later_r1 and later_r0 <= r1:
                # of an overlapping pair, the farther one (the earlier in a tie) is painted first
                covered.add(i if objects[i].depth <= objects[j].depth else j)
    scene = SymbolicScene.__new__(SymbolicScene)
    scene.layout, scene.size, scene.background_depth = layout, (width, height), background_depth
    scene.clear = frozenset(o.object_id for i, o in enumerate(objects) if i not in covered)
    scene._bounds, scene._grid, scene._owners = bounds, None, None
    return scene


def _shift_depth(values: np.ndarray, current: float, target: float) -> np.ndarray:
    """The paper's pixel rule d' = clip(d - D + D', 0, 1)."""
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
    proposal vacates.  Equal layouts yield the empty list.  ``SceneLayout``
    refuses a repeated id, so each id names one object on either side.
    """
    current_ids = {o.object_id: o for o in current.objects}
    proposed_ids = {o.object_id: o for o in proposed.objects}

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

def apply_actions(scene: SymbolicScene, actions) -> SymbolicScene:
    """Execute actions in order on the scene's objects, then render the result.

    As the paper edits an object's latent and generates the image again,
    the executor edits objects, never pixels: it returns
    ``scene_from_layout`` of the edited layout at the scene's own size and
    background depth. Raises UnknownObjectError for edits addressing absent
    ids, DuplicateIdError when an addition reuses a live id,
    OverlapCollisionError when an added box overlaps an existing one by
    more than 50% IoU, and EmptyRegionError at the first action whose box
    covers no pixel center.  An empty action list returns the scene itself.
    """
    actions = list(actions)
    if not actions:
        return scene

    w, h = scene.size
    objects: list[SceneObject] = list(scene.layout.objects)

    def index_of(object_id: int) -> int:
        for i, obj in enumerate(objects):
            if obj.object_id == object_id:
                return i
        raise UnknownObjectError(f"no object with id {object_id}")

    for action in actions:
        if isinstance(action, Deletion):
            del objects[index_of(action.object_id)]
        elif isinstance(action, Addition):
            obj = action.obj
            if any(o.object_id == obj.object_id for o in objects):
                raise DuplicateIdError(f"id {obj.object_id} already present")
            worst = max((bbox_iou(obj.bbox, o.bbox) for o in objects), default=0.0)
            if worst > MAX_ADDITION_IOU:
                raise OverlapCollisionError(
                    f"new box for {obj.name!r} overlaps an existing object (IoU {worst:.2f})"
                )
            grid_bounds(w, h, obj.bbox)  # a box the render cannot place fails here
            objects.append(obj)
        elif isinstance(action, Reposition):
            i = index_of(action.object_id)
            grid_bounds(w, h, action.new_bbox)
            objects[i] = objects[i].replace(bbox=action.new_bbox)
        elif isinstance(action, AttributeModify):
            i = index_of(action.object_id)
            objects[i] = objects[i].replace(attributes=action.new_attributes)
        elif isinstance(action, FacingModify):
            i = index_of(action.object_id)
            objects[i] = objects[i].replace(facing=action.new_facing)
        elif isinstance(action, DepthModify):
            i = index_of(action.object_id)
            bbox = action.new_bbox or objects[i].bbox
            grid_bounds(w, h, bbox)
            objects[i] = objects[i].replace(depth=action.new_depth, bbox=bbox)
        else:
            raise TypeError(f"unknown action {action!r}")

    return scene_from_layout(
        scene.layout.with_objects(objects), w, h, scene.background_depth
    )

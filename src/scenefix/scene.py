"""Core scene geometry: boxes, facing buckets, depth grids, object layouts.

Conventions shared by the whole package:

* Image coordinates are fractions of the frame, origin at the top-left
  corner.  A bounding box stores its top-left corner plus width/height.
* Depth values live in [0, 1]; 1.0 is nearest to the camera.
* Orientation angles are degrees in [0, 360), measured counter-clockwise
  seen from above, with 0 facing the camera.  90 is therefore the center
  of the Left bucket and 180 faces away from the camera.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

from .errors import DuplicateIdError, EmptyRegionError

# Tolerance for boxes that touch the right/bottom frame edge.
EPS_CLAMP = 1e-9

DEFAULT_BACKGROUND = "A realistic image"

# Width and height of the depth grid a scene renders to.
DEFAULT_SCENE_SIZE = 64


class Relation(Enum):
    """The four spatial relations understood by the expression grammar."""

    LEFT = "left"
    RIGHT = "right"
    FRONT = "front"
    BACK = "back"

    @property
    def horizontal(self) -> bool:
        return self in HORIZONTAL

    @property
    def target_lower(self) -> bool:
        """Whether the relation puts its target on the smaller axis value."""
        return self in _TARGET_LOWER

    @property
    def opposite(self) -> "Relation":
        return _OPPOSITE[self]


_OPPOSITE = {
    Relation.LEFT: Relation.RIGHT,
    Relation.RIGHT: Relation.LEFT,
    Relation.FRONT: Relation.BACK,
    Relation.BACK: Relation.FRONT,
}

# The camera-frame relation model that the evaluator, the solver and the
# generator all read: left/right compare box centre x, front/back depth,
# and left and back put the target on the smaller side. Plain tuples are
# cheaper than a property on the evaluator's hot path.
MIDLINE = 0.5
HORIZONTAL = (Relation.LEFT, Relation.RIGHT)
_TARGET_LOWER = (Relation.LEFT, Relation.BACK)


def relation_holds(relation: Relation, target: float, relatum: float) -> bool:
    """The strict camera-frame predicate on two axis values; ties fail both ways."""
    if relation in _TARGET_LOWER:
        return target < relatum
    return target > relatum


def axis_value(obj: "SceneObject", horizontal: bool) -> float:
    """An object's value on an axis: its box centre x, or its depth."""
    return obj.bbox.cx if horizontal else obj.depth


class FacingDirection(Enum):
    """Eight 45-degree orientation buckets plus the unknown marker.

    ``NONE`` never comes out of :func:`angle_to_facing`; it is produced only
    by perception (no orientation evidence) or by parsing wire strings.
    """

    FRONT = "Front"
    FORWARD_LEFT = "ForwardLeft"
    LEFT = "Left"
    BACKWARD_LEFT = "BackwardLeft"
    BACK = "Back"
    BACKWARD_RIGHT = "BackwardRight"
    RIGHT = "Right"
    FORWARD_RIGHT = "ForwardRight"
    NONE = "None"


# Counter-clockwise bucket order starting at the camera-facing bucket.
BUCKETS: tuple[FacingDirection, ...] = (
    FacingDirection.FRONT,
    FacingDirection.FORWARD_LEFT,
    FacingDirection.LEFT,
    FacingDirection.BACKWARD_LEFT,
    FacingDirection.BACK,
    FacingDirection.BACKWARD_RIGHT,
    FacingDirection.RIGHT,
    FacingDirection.FORWARD_RIGHT,
)

_BUCKET_CENTER = {f: 45.0 * i for i, f in enumerate(BUCKETS)}


def angle_to_facing(angle: float) -> FacingDirection:
    """Quantize a yaw angle in [0, 360) into its 45-degree bucket.

    Buckets are centered on multiples of 45: Front covers [337.5, 360) and
    [0, 22.5), ForwardLeft covers [22.5, 67.5), and so on counter-clockwise.
    Callers normalize angles first; out-of-range or non-finite input raises
    ``ValueError``.
    """
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle!r}")
    if not 0.0 <= angle < 360.0:
        raise ValueError(f"angle must lie in [0, 360), got {angle!r}")
    return BUCKETS[int(((angle + 22.5) % 360.0) // 45.0)]


def bucket_center(facing: FacingDirection) -> float:
    """Center angle of a facing bucket, in degrees."""
    if facing is FacingDirection.NONE:
        raise ValueError("the unknown facing has no bucket center")
    return _BUCKET_CENTER[facing]


@dataclass(frozen=True, slots=True, init=False)
class BBox:
    """Axis-aligned box in fractional image coordinates."""

    x: float
    y: float
    w: float
    h: float

    def __init__(self, x: float, y: float, w: float, h: float):
        # unrolled: perception and the solver build tens of thousands of
        # boxes per batch
        if not isinstance(x, (int, float)) or not math.isfinite(x):
            raise ValueError(f"bbox field x must be finite, got {x!r}")
        if not isinstance(y, (int, float)) or not math.isfinite(y):
            raise ValueError(f"bbox field y must be finite, got {y!r}")
        if not isinstance(w, (int, float)) or not math.isfinite(w):
            raise ValueError(f"bbox field w must be finite, got {w!r}")
        if not isinstance(h, (int, float)) or not math.isfinite(h):
            raise ValueError(f"bbox field h must be finite, got {h!r}")
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            raise ValueError(f"bbox corner out of frame: ({x}, {y})")
        if w <= 0.0 or h <= 0.0:
            raise ValueError(f"bbox needs positive size, got {w} x {h}")
        if x + w > 1.0 + EPS_CLAMP or y + h > 1.0 + EPS_CLAMP:
            raise ValueError(f"bbox extends past the frame: x+w={x + w}, y+h={y + h}")
        _set_x(self, x)
        _set_y(self, y)
        _set_w(self, w)
        _set_h(self, h)

    def __reduce__(self):
        # rebuild through ``__init__``: cheaper than the slotted dataclass's
        # per-field state, and the worker pool pickles every box both ways
        return BBox, (self.x, self.y, self.w, self.h)

    @property
    def cx(self) -> float:
        return self.x + self.w / 2.0

    def as_list(self) -> list[float]:
        return [self.x, self.y, self.w, self.h]


def slot_setters(cls) -> tuple:
    """Each field's slot ``__set__`` of a frozen slotted dataclass, in field
    order: a hand-written ``__init__`` stores through these, which the frozen
    ``__setattr__`` does not guard and which cost less than ``object.__setattr__``."""
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


_set_x, _set_y, _set_w, _set_h = slot_setters(BBox)


def bbox_iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes."""
    ix = max(0.0, min(a.x + a.w, b.x + b.w) - max(a.x, b.x))
    iy = max(0.0, min(a.y + a.h, b.y + b.h) - max(a.y, b.y))
    inter = ix * iy
    if inter == 0.0:
        return 0.0
    return inter / (a.w * a.h + b.w * b.h - inter)


def row_worst_ious(xs, y: float, w: float, h: float, boxes) -> list[float]:
    """Worst IoU against ``boxes`` of the box ``(x, y, w, h)`` for each x in
    the sequence ``xs``.

    Each float equals ``max((bbox_iou(BBox(x, y, w, h), b) for b in boxes),
    default=0.0)`` bit for bit: the arithmetic is ``bbox_iou``'s in the same
    operand order, but a box's vertical overlap and area sum are worked out
    once for the row, boxes that share no row with it are dropped, and no
    candidate ``BBox`` is built, so the candidates are not validated.
    """
    bottom = y + h
    area = w * h
    rights = [x + w for x in xs]
    worsts = [0.0] * len(rights)
    for b in boxes:
        iy = max(0.0, min(bottom, b.y + b.h) - max(y, b.y))
        if iy == 0.0:
            continue
        bx = b.x
        bright = bx + b.w
        total = area + b.w * b.h
        for k, x in enumerate(xs):
            right = rights[k]
            if right > bx and bright > x:
                # min() and max() spelled out; each picks the same operand on a tie
                inter = ((bright if bright < right else right) - (bx if bx > x else x)) * iy
                if inter != 0.0:
                    iou = inter / (total - inter)
                    if iou > worsts[k]:
                        worsts[k] = iou
    return worsts


@dataclass(frozen=True, eq=False)
class DepthMap:
    """Immutable per-pixel depth grid, row-major, values in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        import numpy as np  # on first use: numpy costs most of the package's import time

        # a private copy: the caller may write to ``values`` afterwards
        object.__setattr__(self, "values", _checked_grid(np.array(self.values, dtype=np.float64)))

    @classmethod
    def adopt(cls, arr: np.ndarray) -> DepthMap:
        """A map over ``arr`` itself, a fresh float64 grid its caller hands
        over: the same checks, and ``arr`` becomes read-only, but no copy."""
        depth = object.__new__(cls)
        object.__setattr__(depth, "values", _checked_grid(arr))
        return depth

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def _checked_grid(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only, once it is a non-empty 2-d grid of values in [0, 1]."""
    import numpy as np

    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"depth map must be a non-empty 2-d grid, got shape {arr.shape}")
    # NaN and +-inf fail this range test too; only then is it worth
    # telling the two faults apart. ``arr.min()``/``arr.max()`` reach
    # these reductions through numpy's Python-level ``_methods``
    if not (np.minimum.reduce(arr, None) >= 0.0 and np.maximum.reduce(arr, None) <= 1.0):
        if not np.isfinite(arr).all():
            raise ValueError("depth map contains non-finite values")
        raise ValueError("depth values must lie in [0, 1]")
    arr.setflags(write=False)
    return arr


def rect_bounds(depth: DepthMap, b: BBox) -> tuple[int, int, int, int]:
    """Inclusive pixel bounds (col0, col1, row0, row1) of a box on a depth grid."""
    return grid_bounds(depth.width, depth.height, b)


def grid_bounds(w: int, h: int, b: BBox) -> tuple[int, int, int, int]:
    """Inclusive pixel bounds (col0, col1, row0, row1) of a box on a w x h grid.

    A pixel belongs to the box when its center falls inside [x, x+w) x
    [y, y+h).  Raises EmptyRegionError when no center qualifies (box
    smaller than one pixel at this resolution).
    """
    c0 = max(0, math.ceil(w * b.x - 0.5))
    c1 = min(w - 1, math.ceil(w * (b.x + b.w) - 0.5) - 1)
    r0 = max(0, math.ceil(h * b.y - 0.5))
    r1 = min(h - 1, math.ceil(h * (b.y + b.h) - 0.5) - 1)
    if c0 > c1 or r0 > r1:
        raise EmptyRegionError(f"box {b.as_list()} covers no pixel center on a {w}x{h} grid")
    return c0, c1, r0, r1


def box_depth(depth: DepthMap, b: BBox) -> float:
    """Mean depth over the pixel rectangle of a box: the object-level depth.

    Equals ``object_depth(depth, rect_mask(depth, b))`` up to summation
    order, and raises EmptyRegionError on the same boxes.
    """
    import numpy as np

    values = depth.values
    h, w = values.shape
    c0, c1, r0, r1 = grid_bounds(w, h, b)
    # ``region.sum()`` reaches this same reduction through numpy's
    # Python-level ``_methods._sum``; calling it directly gives the same float
    region = values[r0 : r1 + 1, c0 : c1 + 1]
    return float(np.add.reduce(region, None)) / ((r1 - r0 + 1) * (c1 - c0 + 1))


def rect_mask(depth: DepthMap, b: BBox) -> frozenset[tuple[int, int]]:
    """Set of (col, row) pixel coordinates whose centers fall inside the box."""
    c0, c1, r0, r1 = rect_bounds(depth, b)
    return frozenset((c, r) for r in range(r0, r1 + 1) for c in range(c0, c1 + 1))


def object_depth(depth: DepthMap, mask: frozenset[tuple[int, int]]) -> float:
    """Mean depth over an arbitrary pixel mask; boxes use :func:`box_depth`."""
    if not mask:
        raise EmptyRegionError("cannot average depth over an empty mask")
    import numpy as np

    cols = np.fromiter((c for c, _ in mask), dtype=np.intp, count=len(mask))
    rows = np.fromiter((r for _, r in mask), dtype=np.intp, count=len(mask))
    if cols.min() < 0 or rows.min() < 0 or cols.max() >= depth.width or rows.max() >= depth.height:
        raise ValueError("mask indexes outside the depth grid")
    return float(depth.values[rows, cols].mean())


@dataclass(frozen=True, slots=True, init=False)
class SceneObject:
    """One object instance: identity, appearance and pose."""

    name: str
    attributes: tuple[str, ...]
    object_id: int
    bbox: BBox
    depth: float
    facing: FacingDirection = FacingDirection.NONE

    def __init__(
        self,
        name: str,
        attributes: tuple[str, ...],
        object_id: int,
        bbox: BBox,
        depth: float,
        facing: FacingDirection = FacingDirection.NONE,
    ):
        if not name or not name.strip():
            raise ValueError("object name must be non-empty")
        if not isinstance(object_id, int) or object_id < 1:
            raise ValueError(f"object id must be a positive integer, got {object_id!r}")
        attributes = tuple(attributes)
        if not math.isfinite(depth) or not 0.0 <= depth <= 1.0:
            raise ValueError(f"object depth must lie in [0, 1], got {depth!r}")
        if not isinstance(facing, FacingDirection):
            raise ValueError(f"facing must be a FacingDirection, got {facing!r}")
        _set_name(self, name)
        _set_attributes(self, attributes)
        _set_object_id(self, object_id)
        _set_bbox(self, bbox)
        _set_depth(self, depth)
        _set_facing(self, facing)

    def __reduce__(self):
        return SceneObject, (
            self.name, self.attributes, self.object_id, self.bbox, self.depth, self.facing
        )

    def replace(self, **changes) -> "SceneObject":
        """A copy with some fields changed, validated like a new object.

        Same contract as ``dataclasses.replace``: the validating
        ``__init__`` runs and an unknown field is a TypeError. It reads the
        fields directly instead of going through the generic per-field
        machinery, because perception, the solver and the edit executor
        call it per object.
        """
        if not _OBJECT_FIELDS.issuperset(changes):
            unknown = sorted(set(changes) - _OBJECT_FIELDS)
            raise TypeError(f"SceneObject has no field(s) {unknown}")
        get = changes.get
        return SceneObject(
            get("name", self.name),
            get("attributes", self.attributes),
            get("object_id", self.object_id),
            get("bbox", self.bbox),
            get("depth", self.depth),
            get("facing", self.facing),
        )


(_set_name, _set_attributes, _set_object_id, _set_bbox, _set_depth,
 _set_facing) = slot_setters(SceneObject)
_OBJECT_FIELDS = frozenset(f.name for f in fields(SceneObject))


def swap_extents(
    a: SceneObject, b: SceneObject, horizontal: bool
) -> tuple[SceneObject, SceneObject]:
    """Trade places on one axis: x and width horizontally, else depth."""
    if not horizontal:
        return a.replace(depth=b.depth), b.replace(depth=a.depth)
    return (
        a.replace(bbox=BBox(b.bbox.x, a.bbox.y, b.bbox.w, a.bbox.h)),
        b.replace(bbox=BBox(a.bbox.x, b.bbox.y, a.bbox.w, b.bbox.h)),
    )


@dataclass(frozen=True, slots=True, init=False)
class SceneLayout:
    """An ordered collection of objects plus a free-text background."""

    objects: tuple[SceneObject, ...]
    background: str = DEFAULT_BACKGROUND

    def __init__(self, objects: tuple[SceneObject, ...], background: str = DEFAULT_BACKGROUND):
        objects = tuple(objects)
        seen: set[int] = set()
        for obj in objects:
            if obj.object_id in seen:
                raise DuplicateIdError(f"duplicate object id {obj.object_id}")
            seen.add(obj.object_id)
        _set_objects(self, objects)
        _set_background(self, background)

    def __reduce__(self):
        return SceneLayout, (self.objects, self.background)

    def find(self, object_id: int) -> SceneObject | None:
        for obj in self.objects:
            if obj.object_id == object_id:
                return obj
        return None

    def named(self, name: str) -> tuple[SceneObject, ...]:
        return tuple(obj for obj in self.objects if obj.name == name)

    def first_named(self, name: str) -> SceneObject | None:
        """The lowest-id object with this name; it stands for the name in clauses."""
        first = None
        for obj in self.objects:
            if obj.name == name and (first is None or obj.object_id < first.object_id):
                first = obj
        return first

    def max_object_id(self) -> int:
        return max((obj.object_id for obj in self.objects), default=0)

    def with_objects(self, objects) -> "SceneLayout":
        return SceneLayout(tuple(objects), self.background)


_set_objects, _set_background = slot_setters(SceneLayout)

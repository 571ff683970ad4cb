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


def extents(max_size: float = 0.5):
    """Hypothesis strategy: ``(start, size)`` of one side of a box in the
    frame. Half the draws lie on a twentieths grid, so edges abut and boxes
    share a top row; the rest are any floats."""
    from hypothesis import strategies as st

    @st.composite
    def extent(draw):
        if draw(st.booleans()):
            size = draw(st.integers(1, round(max_size * 20))) / 20
            return draw(st.integers(0, 20 - round(size * 20))) / 20, size
        size = draw(st.floats(0.01, max_size))
        return draw(st.floats(0.0, 1.0 - size)), size

    return extent()


def bboxes(max_size: float = 0.5):
    """Hypothesis strategy: a box in the frame, its sides drawn by ``extents``."""
    from hypothesis import strategies as st

    return st.builds(
        lambda xs, ys: BBox(xs[0], ys[0], xs[1], ys[1]), extents(max_size), extents(max_size)
    )


def scene_consistency_gap(scene) -> float:
    """Largest |stored depth - box mean| over a scene's objects (0 when empty)."""
    gap = 0.0
    for o in scene.layout.objects:
        gap = max(gap, abs(box_depth(scene.depth, o.bbox) - o.depth))
    return gap


# The detector as it stood before its hot path was unrolled: builtin
# ``min``/``max`` clamps, ``any`` over the queries, ``SceneObject.replace``
# and ``ndarray.sum``, reading depth with a boolean mask over an owner grid
# rendered pixel by pixel. Perception must draw and return exactly what
# this does.

def reference_owner_grid(layout: SceneLayout, width: int, height: int):
    """Each pixel's owner as a layout index, -1 for the background: of the
    boxes over a pixel the nearest, and of equally near ones the last in
    layout order. Taken box by box in layout order, not by sorting."""
    import numpy as np

    from scenefix.scene import grid_bounds

    owners = np.full((height, width), -1, dtype=np.intp)
    nearest = np.full((height, width), -np.inf)
    for i, o in enumerate(layout.objects):
        c0, c1, r0, r1 = grid_bounds(width, height, o.bbox)
        region = (slice(r0, r1 + 1), slice(c0, c1 + 1))
        take = nearest[region] <= o.depth
        owners[region][take] = i
        nearest[region][take] = o.depth
    return owners


def reference_box_depth(depth, b: BBox) -> float:
    from scenefix.scene import rect_bounds

    c0, c1, r0, r1 = rect_bounds(depth, b)
    region = depth.values[r0 : r1 + 1, c0 : c1 + 1]
    return float(region.sum()) / region.size


def reference_jitter_bbox(rng: random.Random, b: BBox, sigma: float) -> BBox:
    from scenefix.perception import _MIN_SIDE

    w = min(max(_MIN_SIDE, b.w + rng.gauss(0.0, sigma)), 1.0)
    h = min(max(_MIN_SIDE, b.h + rng.gauss(0.0, sigma)), 1.0)
    x = min(max(0.0, b.x + rng.gauss(0.0, sigma)), 1.0 - w)
    y = min(max(0.0, b.y + rng.gauss(0.0, sigma)), 1.0 - h)
    return BBox(x, y, w, h)


def reference_read_depth(scene, bbox: BBox, stored: float, owners=None, index=None) -> float:
    """The mean of the grid's pixels that ``owners`` gives to ``index`` inside
    the box; the box mean when there are none, or no owners or index."""
    from scenefix.perception import _SNAP_EPS
    from scenefix.scene import rect_bounds

    d = None
    if owners is not None and index is not None:
        c0, c1, r0, r1 = rect_bounds(scene.depth, bbox)
        owned = owners[r0 : r1 + 1, c0 : c1 + 1] == index
        if owned.any():
            d = float(scene.depth.values[r0 : r1 + 1, c0 : c1 + 1][owned].mean())
    if d is None:
        d = reference_box_depth(scene.depth, bbox)
    return stored if abs(d - stored) < _SNAP_EPS else d


def reference_detect(scene, queries, cfg, seed: int, events: list | None, owners=None):
    """``owners`` is the scene's owner grid (``reference_owner_grid``), or
    None for a given grid, which is read by box means only."""
    from scenefix.evaluate import mention_matches
    from scenefix.perception import PerceptionEvent, _duplicate_bbox, _misread_facing

    if not queries:
        raise ValueError("queries must be nonempty")
    rng = None if cfg.noiseless else random.Random(seed)
    detected: list[SceneObject] = []

    for index, obj in enumerate(scene.layout.objects):
        if not any(mention_matches(obj, q) for q in queries):
            continue
        if cfg.dropout_rate > 0 and rng.random() < cfg.dropout_rate:
            if events is not None:
                events.append(PerceptionEvent("dropout", obj.object_id, obj.name))
            continue
        bbox = obj.bbox
        if cfg.bbox_jitter_sigma > 0:
            bbox = reference_jitter_bbox(rng, bbox, cfg.bbox_jitter_sigma)
            if events is not None:
                detail = f"{obj.bbox.as_list()} -> {bbox.as_list()}"
                events.append(PerceptionEvent("bbox-jitter", obj.object_id, detail))
        depth = reference_read_depth(scene, bbox, obj.depth, owners, index)
        if cfg.depth_sigma > 0:
            noised = min(1.0, max(0.0, depth + rng.gauss(0.0, cfg.depth_sigma)))
            if events is not None:
                detail = f"{depth:.4f} -> {noised:.4f}"
                events.append(PerceptionEvent("depth-noise", obj.object_id, detail))
            depth = noised
        facing = obj.facing
        if cfg.facing_flip_rate > 0 and rng.random() < cfg.facing_flip_rate:
            facing = _misread_facing(rng, facing)
            if events is not None:
                detail = f"{obj.facing.value} -> {facing.value}"
                events.append(PerceptionEvent("facing-flip", obj.object_id, detail))
        detected.append(obj.replace(bbox=bbox, depth=depth, facing=facing))

    if cfg.duplicate_rate > 0:
        next_id = scene.layout.max_object_id() + 1
        clones: list[SceneObject] = []
        for obj in detected:
            if rng.random() < cfg.duplicate_rate:
                bbox = _duplicate_bbox(obj.bbox)
                depth = reference_read_depth(scene, bbox, obj.depth)
                clones.append(obj.replace(object_id=next_id, bbox=bbox, depth=depth))
                if events is not None:
                    events.append(PerceptionEvent("duplicate", obj.object_id, f"clone #{next_id}"))
                next_id += 1
        detected.extend(clones)

    return SceneLayout(tuple(detected), scene.layout.background)


def exact_objects(layout: SceneLayout) -> tuple:
    """Every field of every object, floats as ``float.hex``: equal only bit for bit."""
    return layout.background, tuple(
        (o.name, o.attributes, o.object_id, tuple(v.hex() for v in o.bbox.as_list()),
         o.depth.hex(), o.facing)
        for o in layout.objects
    )


# The edit executor and grid synthesis as they stood before their kernels
# called numpy's reductions directly: ``np.median``, ``np.ix_``,
# ``ndarray.sum`` and bounds taken again on every repaint pass. Grid
# synthesis must return exactly what its reference does, which paints each
# pixel with its owner in ``reference_owner_grid``; the executor,
# which now renders the edited layout instead of patching the grid, must
# edit the same objects and raise the same errors as this one.

def reference_scene_from_layout(layout: SceneLayout, width: int, height: int, background_depth):
    import numpy as np

    from scenefix.edits import SymbolicScene
    from scenefix.scene import DepthMap

    owners = reference_owner_grid(layout, width, height)
    arr = np.full((height, width), float(background_depth), dtype=np.float64)
    for i, o in enumerate(layout.objects):
        arr[owners == i] = o.depth
    return SymbolicScene(layout=layout, depth=DepthMap(arr))


def reference_background_fill(arr, bounds) -> None:
    import numpy as np

    c0, c1, r0, r1 = bounds
    outside = np.concatenate(
        (
            arr[:r0].ravel(),
            arr[r1 + 1 :].ravel(),
            arr[r0 : r1 + 1, :c0].ravel(),
            arr[r0 : r1 + 1, c1 + 1 :].ravel(),
        )
    )
    fill = float(np.median(outside)) if outside.size else 0.0
    arr[r0 : r1 + 1, c0 : c1 + 1] = fill


def reference_nn_resample(patch, rows: int, cols: int):
    import numpy as np

    src_r = np.minimum(((np.arange(rows) + 0.5) * patch.shape[0] / rows).astype(np.intp), patch.shape[0] - 1)
    src_c = np.minimum(((np.arange(cols) + 0.5) * patch.shape[1] / cols).astype(np.intp), patch.shape[1] - 1)
    return patch[np.ix_(src_r, src_c)]


def _reference_move_patch(arr, probe, old: BBox, new: BBox) -> None:
    from scenefix.scene import rect_bounds

    ob = rect_bounds(probe, old)
    nb = rect_bounds(probe, new)
    c0, c1, r0, r1 = ob
    patch = arr[r0 : r1 + 1, c0 : c1 + 1].copy()
    reference_background_fill(arr, ob)
    nc0, nc1, nr0, nr1 = nb
    arr[nr0 : nr1 + 1, nc0 : nc1 + 1] = reference_nn_resample(patch, nr1 - nr0 + 1, nc1 - nc0 + 1)


def reference_restore_consistency(arr, probe, objects: list) -> None:
    from scenefix.scene import rect_bounds

    for _ in range(3):
        clean = True
        for o in objects:
            c0, c1, r0, r1 = rect_bounds(probe, o.bbox)
            region = arr[r0 : r1 + 1, c0 : c1 + 1]
            if abs(float(region.sum()) / region.size - o.depth) > 1e-3:
                region[:] = o.depth
                clean = False
        if clean:
            return


def reference_apply_actions(scene, actions):
    import numpy as np

    from scenefix.edits import (
        MAX_ADDITION_IOU, Addition, AttributeModify, DepthModify, Deletion, FacingModify,
        Reposition, SymbolicScene, _shift_depth,
    )
    from scenefix.errors import DuplicateIdError, OverlapCollisionError, UnknownObjectError
    from scenefix.scene import DepthMap, bbox_iou, rect_bounds

    actions = list(actions)
    if not actions:
        return scene
    arr = np.array(scene.depth.values, copy=True)
    probe = scene.depth
    objects = list(scene.layout.objects)

    def index_of(object_id: int) -> int:
        for i, o in enumerate(objects):
            if o.object_id == object_id:
                return i
        raise UnknownObjectError(f"no object with id {object_id}")

    for action in actions:
        if isinstance(action, Deletion):
            i = index_of(action.object_id)
            reference_background_fill(arr, rect_bounds(probe, objects[i].bbox))
            del objects[i]
        elif isinstance(action, Addition):
            o = action.obj
            if any(p.object_id == o.object_id for p in objects):
                raise DuplicateIdError(f"id {o.object_id} already present")
            worst = max((bbox_iou(o.bbox, p.bbox) for p in objects), default=0.0)
            if worst > MAX_ADDITION_IOU:
                raise OverlapCollisionError(
                    f"new box for {o.name!r} overlaps an existing object (IoU {worst:.2f})"
                )
            c0, c1, r0, r1 = rect_bounds(probe, o.bbox)
            arr[r0 : r1 + 1, c0 : c1 + 1] = o.depth
            objects.append(o)
        elif isinstance(action, Reposition):
            i = index_of(action.object_id)
            _reference_move_patch(arr, probe, objects[i].bbox, action.new_bbox)
            objects[i] = objects[i].replace(bbox=action.new_bbox)
        elif isinstance(action, AttributeModify):
            i = index_of(action.object_id)
            objects[i] = objects[i].replace(attributes=action.new_attributes)
        elif isinstance(action, FacingModify):
            i = index_of(action.object_id)
            objects[i] = objects[i].replace(facing=action.new_facing)
        elif isinstance(action, DepthModify):
            i = index_of(action.object_id)
            o = objects[i]
            bbox = action.new_bbox or o.bbox
            if action.new_bbox is not None and action.new_bbox != o.bbox:
                _reference_move_patch(arr, probe, o.bbox, action.new_bbox)
            c0, c1, r0, r1 = rect_bounds(probe, bbox)
            patch = arr[r0 : r1 + 1, c0 : c1 + 1]
            patch[...] = _shift_depth(patch, o.depth, action.new_depth)
            objects[i] = o.replace(depth=action.new_depth, bbox=bbox)
        else:
            raise TypeError(f"unknown action {action!r}")
        reference_restore_consistency(arr, probe, objects)

    return SymbolicScene(layout=scene.layout.with_objects(tuple(objects)), depth=DepthMap(arr))


# The solver's placement scans as they stood before they scored candidates
# with ``row_worst_ious``: a ``BBox`` and a ``bbox_iou`` per candidate and
# other box. Bodies verbatim; both must return exactly what these do.
# ``reference_place_in_free_band`` also keeps the old fault: it raises a
# bare ValueError when its scan reaches a row the box does not fit in.

def reference_choose_cx(lo: float, hi: float, obj: SceneObject, others) -> float:
    from scenefix.scene import bbox_iou

    mid = (lo + hi) / 2.0
    half = obj.bbox.w / 2.0
    best_key = None
    best_cx = mid
    steps = 41
    for i in range(1, steps + 1):
        cx = lo + (hi - lo) * i / (steps + 1)
        trial = BBox(cx - half, obj.bbox.y, obj.bbox.w, obj.bbox.h)
        worst = max((bbox_iou(trial, o.bbox) for o in others), default=0.0)
        key = (worst > 0.0, worst, abs(cx - mid))
        if best_key is None or key < best_key:
            best_key = key
            best_cx = cx
    return best_cx


def reference_place_in_free_band(objects, w: float = 0.25, h: float = 0.25) -> BBox:
    from scenefix.errors import OverlapCollisionError
    from scenefix.scene import bbox_iou

    intervals = sorted((o.bbox.x, o.bbox.x + o.bbox.w) for o in objects)
    merged: list[list[float]] = []
    for lo, hi in intervals:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    gaps: list[tuple[float, float]] = []
    cursor = 0.0
    for lo, hi in merged:
        if lo > cursor:
            gaps.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < 1.0:
        gaps.append((cursor, 1.0))

    best_gap = max(gaps, key=lambda g: g[1] - g[0], default=None)
    if best_gap is not None and best_gap[1] - best_gap[0] >= w:
        cx = (best_gap[0] + best_gap[1]) / 2.0
        return BBox(min(max(cx - w / 2.0, 0.0), 1.0 - w), 0.5 - h / 2.0, w, h)

    # no band wide enough: scan for the least-overlapping spot
    best: tuple[float, BBox] | None = None
    for yi in (0.375, 0.05, 0.7):
        for i in range(41):
            x = i * (1.0 - w) / 40.0
            box = BBox(x, yi, w, h)
            worst = max((bbox_iou(box, o.bbox) for o in objects), default=0.0)
            if best is None or worst < best[0]:
                best = (worst, box)
    assert best is not None
    if best[0] > 0.5:
        raise OverlapCollisionError("no placement with IoU <= 0.5 available")
    return best[1]


# The four-branch relation predicates as they stood before the camera-frame
# relation model moved to ``scene.relation_holds``. Bodies verbatim; the
# evaluator's predicates must answer exactly what these do.

def reference_eval_relation(relation, a: SceneObject, b: SceneObject) -> bool:
    from scenefix.scene import Relation

    if relation is Relation.LEFT:
        return a.bbox.cx < b.bbox.cx
    if relation is Relation.RIGHT:
        return a.bbox.cx > b.bbox.cx
    if relation is Relation.FRONT:
        return a.depth > b.depth
    return a.depth < b.depth


def reference_eval_frame_relation(relation, a: SceneObject) -> bool:
    from scenefix.scene import Relation

    if relation is Relation.LEFT:
        return a.bbox.cx < 0.5
    if relation is Relation.RIGHT:
        return a.bbox.cx > 0.5
    raise ValueError(f"frame-relative clauses are horizontal only, got {relation.value}")


def relation_pairs():
    """Hypothesis strategy: two objects whose box centres or depths often tie.

    A box is drawn by ``bboxes`` or centred exactly on the midline (its
    width a sixteenth-multiple, so ``cx`` is exactly 0.5); the second
    object copies the first's x extent or depth in a third of the draws.
    """
    from hypothesis import strategies as st

    centred = st.integers(1, 15).map(lambda k: BBox(0.5 - k / 32, 0.1, k / 16, 0.2))
    boxes = bboxes() | centred
    depths = st.floats(0.0, 1.0) | st.sampled_from((0.0, 0.5, 1.0))

    @st.composite
    def pair(draw):
        a = obj("cat", oid=1, depth=draw(depths))
        a = a.replace(bbox=draw(boxes))
        box = draw(boxes)
        if draw(st.integers(0, 2)) == 0:
            box = BBox(a.bbox.x, box.y, a.bbox.w, box.h)
        depth = a.depth if draw(st.integers(0, 2)) == 0 else draw(depths)
        return a, obj("dog", oid=2, depth=depth).replace(bbox=box)

    return pair()

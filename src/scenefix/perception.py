"""Simulated perception: read objects out of a symbolic scene, with noise.

The perceiver answers attributed-name queries against the scene's object
table, so it only ever reports objects the caller asked about. Scenes
paint nearest-last, and an object's depth is read as the mean of the
pixels it owns inside the perceived (perhaps jittered) rectangle: a
near patch over it, or the background around it, does not move the
read. Every patch is uniform, so that mean is the object's stored depth
whenever it owns a pixel there. For an object the scene marks ``clear``
(no patch painted later overlaps it) that is a rectangle test on pixel
bounds, with no grid; any other object reads the scene's owner grid.
Three reads fall back to the mean of the depth grid over the box,
snapped to the stored depth when within ``_SNAP_EPS``: a box that holds
none of the object's pixels, a duplicate's phantom box, and any read of
a scene built on a given grid, whose pixels have no owners. On a
consistent scene with all noise rates at zero the output equals the
scene layout restricted to the queried objects, field for field.

Noise knobs, applied per object in a fixed order: detection dropout,
box jitter, depth read noise, facing misreads (uniform over the other
buckets), and spurious duplicates appended after the main sweep. Every
draw comes from ``random.Random(seed)``, with the seed the caller passes;
the pipeline derives one per sample, round and pass.

``perceive_with_log`` reads its events off the scene and the perceived
layout: a queried object the layout lacks was dropped; with a positive
sigma each detection logs its box jitter and its depth noise (the read
through its box, taken again, to the depth it reports); a changed facing
is a flip, as a misread always picks another bucket; and an id above the
scene's largest is a clone, credited to the first detection whose name,
attributes, facing and mirrored box it copies.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field

from .evaluate import mention_matches
from .scene import BBox, BUCKETS, FacingDirection, SceneLayout, SceneObject, box_depth

# not called here; bench/layers.py wraps these two names on this module
from .scene import object_depth, rect_mask  # noqa: F401

_MIN_SIDE = 0.05
_SNAP_EPS = 1e-9


@dataclass(frozen=True)
class PerceptionConfig:
    bbox_jitter_sigma: float = 0.0
    depth_sigma: float = 0.0
    facing_flip_rate: float = 0.0
    dropout_rate: float = 0.0
    duplicate_rate: float = 0.0

    def __post_init__(self):
        for name in ("bbox_jitter_sigma", "depth_sigma"):
            sigma = getattr(self, name)
            if not (math.isfinite(sigma) and sigma >= 0):
                raise ValueError(f"{name} must be finite and >= 0")
        for name in ("facing_flip_rate", "dropout_rate", "duplicate_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")

    @property
    def noiseless(self) -> bool:
        return (
            self.bbox_jitter_sigma == 0.0
            and self.depth_sigma == 0.0
            and self.facing_flip_rate == 0.0
            and self.dropout_rate == 0.0
            and self.duplicate_rate == 0.0
        )


ZERO_NOISE = PerceptionConfig()


@dataclass(frozen=True)
class PerceptionEvent:
    """One realized perturbation, for cross-checking seeded runs."""

    kind: str  # dropout | bbox-jitter | depth-noise | facing-flip | duplicate
    object_id: int
    detail: str = field(default="", compare=False)


def derive_seed(base: int, *parts) -> int:
    """Stable per-(sample, round) RNG seed from a base seed and labels."""
    text = "|".join([str(base), *map(str, parts)])
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def _jitter_bbox(rng: random.Random, b: BBox, sigma: float) -> BBox:
    # min(max(lo, v), hi) written out: ``max(lo, v)`` is ``v if v > lo else
    # lo`` and ``min(m, hi)`` is ``hi if hi < m else m``, operand for operand,
    # so ties, -0.0 and NaN clamp as the builtins do. Draw order: w, h, x, y.
    gauss = rng.gauss
    w = b.w + gauss(0.0, sigma)
    w = w if w > _MIN_SIDE else _MIN_SIDE
    w = 1.0 if 1.0 < w else w
    h = b.h + gauss(0.0, sigma)
    h = h if h > _MIN_SIDE else _MIN_SIDE
    h = 1.0 if 1.0 < h else h
    x = b.x + gauss(0.0, sigma)
    x = x if x > 0.0 else 0.0
    x = 1.0 - w if 1.0 - w < x else x
    y = b.y + gauss(0.0, sigma)
    y = y if y > 0.0 else 0.0
    y = 1.0 - h if 1.0 - h < y else y
    return BBox(x, y, w, h)


def _read_depth(scene, bbox: BBox, stored: float, index: int | None = None) -> float:
    """Depth of layout object ``index`` read through ``bbox``: ``stored``, the
    mean of its uniform patch, when it owns a pixel of the box; otherwise,
    and always for a phantom (``index`` None), the box mean of the grid."""
    if index is not None and scene.owns_pixel(index, bbox):
        return stored
    d = box_depth(scene.depth, bbox)
    # mean of a uniform patch can pick up float dust; keep identity exact
    return stored if abs(d - stored) < _SNAP_EPS else d


def _misread_facing(rng: random.Random, facing: FacingDirection) -> FacingDirection:
    pool = [b for b in BUCKETS if b is not facing]
    return rng.choice(pool)


def _duplicate_bbox(b: BBox) -> BBox:
    x = min(max(0.0, 1.0 - b.x - b.w), 1.0 - b.w)
    if abs(x - b.x) < _MIN_SIDE:  # centered object: mirroring lands on itself
        x = min(1.0 - b.w, b.x + 0.25) if b.x + 0.25 + b.w <= 1.0 else max(0.0, b.x - 0.25)
    return BBox(x, b.y, b.w, b.h)


def perceive(scene, queries, cfg: PerceptionConfig, seed: int) -> SceneLayout:
    """Detect the queried objects in a symbolic scene under the noise model.
    Builds no PerceptionEvent: ``perceive_with_log`` reads those off the result."""
    if not queries:
        raise ValueError("queries must be nonempty")
    # every draw below is guarded by a positive rate or sigma
    rng = None if cfg.noiseless else random.Random(seed)
    dropout = cfg.dropout_rate
    jitter = cfg.bbox_jitter_sigma
    depth_sigma = cfg.depth_sigma
    flip = cfg.facing_flip_rate
    duplicate = cfg.duplicate_rate
    clear = scene.clear
    detected: list[SceneObject] = []

    for index, obj in enumerate(scene.layout.objects):
        for q in queries:
            if mention_matches(obj, q):
                break
        else:
            continue
        if dropout > 0 and rng.random() < dropout:
            continue
        bbox = obj.bbox
        if jitter > 0:
            bbox = _jitter_bbox(rng, bbox, jitter)
        if bbox is obj.bbox and obj.object_id in clear:
            depth = obj.depth
        else:
            depth = _read_depth(scene, bbox, obj.depth, index)
        if depth_sigma > 0:
            depth = min(1.0, max(0.0, depth + rng.gauss(0.0, depth_sigma)))
        facing = obj.facing
        if flip > 0 and rng.random() < flip:
            facing = _misread_facing(rng, facing)
        detected.append(SceneObject(obj.name, obj.attributes, obj.object_id, bbox, depth, facing))

    if duplicate > 0:
        # detected ids are a subset of the scene's, so a clone's id is fresh
        next_id = scene.layout.max_object_id() + 1
        clones: list[SceneObject] = []
        for obj in detected:
            if rng.random() < duplicate:
                bbox = _duplicate_bbox(obj.bbox)
                # a phantom owns no pixel: its box mean, as a detector would read it
                depth = _read_depth(scene, bbox, obj.depth)
                clones.append(obj.replace(object_id=next_id, bbox=bbox, depth=depth))
                next_id += 1
        detected.extend(clones)

    return SceneLayout(tuple(detected), scene.layout.background)


def perceive_with_log(scene, queries, cfg: PerceptionConfig, seed: int):
    """``perceive``'s layout and the perturbation events it realized."""
    layout = perceive(scene, queries, cfg, seed)
    found = {o.object_id: o for o in layout.objects}
    events: list[PerceptionEvent] = []
    for index, obj in enumerate(scene.layout.objects):
        if not any(mention_matches(obj, q) for q in queries):
            continue
        oid, new = obj.object_id, found.get(obj.object_id)
        if new is None:
            events.append(PerceptionEvent("dropout", oid, obj.name))
            continue
        if cfg.bbox_jitter_sigma > 0:
            detail = f"{obj.bbox.as_list()} -> {new.bbox.as_list()}"
            events.append(PerceptionEvent("bbox-jitter", oid, detail))
        if cfg.depth_sigma > 0:
            read = _read_depth(scene, new.bbox, obj.depth, index)
            events.append(PerceptionEvent("depth-noise", oid, f"{read:.4f} -> {new.depth:.4f}"))
        if new.facing is not obj.facing:
            detail = f"{obj.facing.value} -> {new.facing.value}"
            events.append(PerceptionEvent("facing-flip", oid, detail))
    top = scene.layout.max_object_id()
    detections = [o for o in layout.objects if o.object_id <= top]
    for clone in layout.objects:
        if clone.object_id > top:
            look = (clone.name, clone.attributes, clone.facing, clone.bbox)
            source = next(o for o in detections
                          if (o.name, o.attributes, o.facing, _duplicate_bbox(o.bbox)) == look)
            detail = f"clone #{clone.object_id}"
            events.append(PerceptionEvent("duplicate", source.object_id, detail))
    return layout, tuple(events)

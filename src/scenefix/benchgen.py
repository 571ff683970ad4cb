"""Benchmark generation: prompts, gold layouts, and seeded corruptions.

Two flavors of sample come out of here. The two-clause flavor pairs a
binary relation (either camera-frame or read from the relatum's own
facing) with a second clause on the orthogonal axis, so the two
constraints never interact; the second clause is either unary ("on the
left") or binary against the same relatum. The facing-assertion flavor
has one binary clause plus an explicit facing sentence for the relatum,
cycling through all eight buckets.

Gold geometry is placed on coarse grids: box centers on four x slots
spaced 0.25 apart, depths on a 0.1 grid, and every coordinate rounded
to 3 decimals so layouts survive wire round-trips bit for bit. The
slot margins guarantee strict predicates hold with room to spare and
boxes never overlap.

Corruptions flip a gold layout into a known failure: left/right order
swap, depth order swap, facing misread, a duplicate of a mentioned
object, or a dropped object. Each injection is recorded with the
evaluation category it must produce, which downstream accounting tests
check against realized failures. A dropped object is never the facing
anchor of an unasserted intrinsic clause: that would make the next
round's conversion impossible rather than merely wrong.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace as dc_replace
from functools import partial

from .dsl import (
    CAMERA,
    COLOR_WORDS,
    FRAME,
    SIZE_WORDS,
    FacingAssertion,
    Intrinsic,
    ObjectMention,
    RelationClause,
    SpatialExpression,
    parse_expression,
    render_expression,
)
from .errors import FacingUnknownError, UnknownObjectError
from .evaluate import ErrorCategory, evaluate
from .interpreter import place_in_free_band
from .perception import derive_seed
from .rules import camera_relation, convert_relation
from .scene import (
    MIDLINE,
    BBox,
    BUCKETS,
    FacingDirection,
    Relation,
    SceneLayout,
    SceneObject,
    relation_holds,
    swap_extents,
)

NOUNS = (
    "chicken", "chair", "backpack", "car", "cat", "cup", "cow", "sheep",
    "horse", "deer", "dog", "fire hydrant", "truck", "balloon", "bird",
    "dolphin", "boat",
)

CORRUPTION_KINDS = ("lr-swap", "depth-swap", "facing-flip", "duplicate", "drop")

DEFAULT_SEED = 78
DEFAULT_SAMPLE_COUNT = 500

_CX_SLOTS = (0.15, 0.4, 0.65, 0.9)
_DEPTH_GRID = tuple(round(0.2 + 0.1 * i, 1) for i in range(8))
_CY_CHOICES = (0.3, 0.4, 0.5, 0.6, 0.7)


@dataclass(frozen=True)
class BenchmarkSample:
    id: str
    prompt: str
    annotation: SpatialExpression
    gold_layout: SceneLayout
    initial_layout: SceneLayout
    split: str  # relative | intrinsic
    source: str  # for-lmd | forest-style


@dataclass(frozen=True)
class CorruptionConfig:
    lr_swap: float = 0.0
    depth_swap: float = 0.0
    facing_flip: float = 0.0
    duplicate: float = 0.0
    drop: float = 0.0

    def __post_init__(self):
        for kind in CORRUPTION_KINDS:
            rate = self.rate_for(kind)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{kind} rate must be in [0, 1], got {rate}")

    def rate_for(self, kind: str) -> float:
        return getattr(self, kind.replace("-", "_"))


@dataclass(frozen=True)
class Injection:
    """One deliberate defect and the failure category it must cause."""

    sample_id: str
    kind: str
    category: ErrorCategory
    detail: str = ""


# --------------------------------------------------------------------------
# generation

def _rng_attrs(rng: random.Random) -> tuple[str, ...]:
    roll = rng.random()
    if roll < 0.5:
        return ()
    if roll < 0.85:
        return (rng.choice(COLOR_WORDS),)
    return (rng.choice(SIZE_WORDS),)


def _build_gold(rng: random.Random, expr: SpatialExpression, facing_map) -> SceneLayout:
    """Grid-aligned layout satisfying every clause of the expression.

    Clause axes never collide (orthogonality by construction), so one
    value swap per clause is enough to enforce its strict order: no slot
    lies on the midline, and values on an axis are distinct.
    """
    mentions = expr.mentions
    n = len(mentions)
    idx = {m.name: i for i, m in enumerate(mentions)}
    slots = rng.sample(_CX_SLOTS, n)
    depths = rng.sample(_DEPTH_GRID, n)

    for clause in expr.relations:
        cam = clause.relation
        if isinstance(clause.perspective, Intrinsic):
            cam = convert_relation(cam, facing_map[clause.perspective.relatum])
        i = idx[clause.target]
        if clause.relatum == FRAME:
            if not relation_holds(cam, slots[i], MIDLINE):
                j = next(k for k in range(n) if k != i and relation_holds(cam, slots[k], MIDLINE))
                slots[i], slots[j] = slots[j], slots[i]
        else:
            values = slots if cam.horizontal else depths
            j = idx[clause.relatum]
            if not relation_holds(cam, values[i], values[j]):
                values[i], values[j] = values[j], values[i]

    objects = []
    for k, mention in enumerate(mentions):
        w = round(rng.uniform(0.1, 0.2), 3)
        h = round(rng.uniform(0.1, 0.2), 3)
        objects.append(
            SceneObject(
                name=mention.name,
                attributes=mention.attributes,
                object_id=k + 1,
                bbox=BBox(
                    round(slots[k] - w / 2.0, 3), round(rng.choice(_CY_CHOICES) - h / 2.0, 3), w, h
                ),
                depth=depths[k],
                facing=facing_map.get(mention.name, FacingDirection.NONE),
            )
        )
    return SceneLayout(tuple(objects))


def _finish_sample(rng, sample_id, source, split, expr, facing_map) -> BenchmarkSample:
    gold = _build_gold(rng, expr, facing_map)
    prompt = render_expression(expr)
    assert parse_expression(prompt) == expr, f"prompt does not round-trip: {prompt!r}"
    assert evaluate(expr, gold).correct, f"gold layout fails its own prompt: {prompt!r}"
    return BenchmarkSample(
        id=sample_id,
        prompt=prompt,
        annotation=expr,
        gold_layout=gold,
        initial_layout=gold,
        split=split,
        source=source,
    )


def generate_for_lmd(
    n: int = DEFAULT_SAMPLE_COUNT, seed: int = DEFAULT_SEED, intrinsic_ratio: float = 0.5
) -> list[BenchmarkSample]:
    """Two-clause samples; ``intrinsic_ratio`` of them anchor clause one
    to the relatum's own facing."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= intrinsic_ratio <= 1.0:
        raise ValueError("intrinsic_ratio must be in [0, 1]")
    rng = random.Random(seed)
    samples = []
    for i in range(n):
        names = rng.sample(NOUNS, 3)
        m1, mref, m2 = (ObjectMention(nm, _rng_attrs(rng)) for nm in names)
        r1 = rng.choice(list(Relation))
        facing_map: dict[str, FacingDirection] = {}
        if rng.random() < intrinsic_ratio:
            facing = rng.choice(BUCKETS)
            facing_map[mref.name] = facing
            perspective = Intrinsic(mref.name)
            cam1 = convert_relation(r1, facing)
            split = "intrinsic"
        else:
            perspective = CAMERA
            cam1 = r1
            split = "relative"
        clause1 = RelationClause(m1.name, r1, mref.name, perspective)
        if cam1.horizontal:
            clause2 = RelationClause(
                m2.name, rng.choice((Relation.FRONT, Relation.BACK)), mref.name, CAMERA
            )
        else:
            r2 = rng.choice((Relation.LEFT, Relation.RIGHT))
            relatum2 = FRAME if rng.random() < 0.5 else mref.name
            clause2 = RelationClause(m2.name, r2, relatum2, CAMERA)
        # half the intrinsic samples also say the facing out loud, so a
        # misread orientation is observable as its own failure kind
        facings: tuple[FacingAssertion, ...] = ()
        if facing_map and rng.random() < 0.5:
            facings = (FacingAssertion(mref.name, facing_map[mref.name]),)
        expr = SpatialExpression(
            mentions=(m1, mref, m2), relations=(clause1, clause2), facings=facings
        )
        samples.append(
            _finish_sample(rng, f"for-lmd-{seed}-{i:04d}", "for-lmd", split, expr, facing_map)
        )
    return samples


def generate_forest_style(n: int = DEFAULT_SAMPLE_COUNT, seed: int = DEFAULT_SEED) -> list[BenchmarkSample]:
    """One binary clause plus a facing sentence for the relatum; the
    asserted buckets cycle so any n >= 8 covers all eight."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    samples = []
    for i in range(n):
        names = rng.sample(NOUNS, 2)
        m1, mref = (ObjectMention(nm, _rng_attrs(rng)) for nm in names)
        facing = BUCKETS[i % len(BUCKETS)]
        r1 = rng.choice(list(Relation))
        if rng.random() < 0.5:
            perspective, split = Intrinsic(mref.name), "intrinsic"
        else:
            perspective, split = CAMERA, "relative"
        expr = SpatialExpression(
            mentions=(m1, mref),
            relations=(RelationClause(m1.name, r1, mref.name, perspective),),
            facings=(FacingAssertion(mref.name, facing),),
        )
        samples.append(
            _finish_sample(
                rng, f"forest-style-{seed}-{i:04d}", "forest-style", split,
                expr, {mref.name: facing},
            )
        )
    return samples


# --------------------------------------------------------------------------
# corruption

def _converted(clause: RelationClause, expr, layout) -> Relation | None:
    """The clause's camera relation, or None when its facing is unresolvable."""
    try:
        return camera_relation(clause, expr, layout)
    except (FacingUnknownError, UnknownObjectError):
        return None


def _replace_objects(layout, *updated: SceneObject) -> SceneLayout:
    by_id = {o.object_id: o for o in updated}
    return layout.with_objects(tuple(by_id.get(o.object_id, o) for o in layout.objects))


def _corrupt_axis_swap(horizontal: bool, rng, expr, layout):
    """Break the first judgeable clause on the axis by swapping x extents
    or depths. A frame clause's target trades with the lowest-id object on
    the half the clause refuses (mirroring could land on another box and
    muddy its depth read), and is mirrored only when there is none."""
    for clause in expr.relations:
        cam = _converted(clause, expr, layout)
        if cam is None or cam.horizontal is not horizontal:
            continue
        target = layout.first_named(clause.target)
        if target is None:
            continue
        if clause.relatum == FRAME:
            partners = [
                o for o in layout.objects
                if o is not target and not relation_holds(cam, o.bbox.cx, MIDLINE)
            ]
            if partners:
                partner = min(partners, key=lambda o: o.object_id)
                new_layout = _replace_objects(layout, *swap_extents(target, partner, horizontal=True))
                detail = f"swapped x extents of {target.name} and {partner.name} across the midline"
            else:
                bbox = target.bbox
                mirrored = BBox(round(1.0 - bbox.x - bbox.w, 6), bbox.y, bbox.w, bbox.h)
                new_layout = _replace_objects(layout, target.replace(bbox=mirrored))
                detail = f"mirrored {target.name} across the midline"
        else:
            relatum = layout.first_named(clause.relatum)
            if relatum is None:
                continue
            new_layout = _replace_objects(layout, *swap_extents(target, relatum, horizontal))
            what = "x extents" if horizontal else "depths"
            detail = f"swapped {what} of {target.name} and {relatum.name}"
        if horizontal:
            return new_layout, Injection("", "lr-swap", ErrorCategory.LEFT_RIGHT, detail)
        return new_layout, Injection("", "depth-swap", ErrorCategory.FRONT_BACK, detail)
    return None


def _corrupt_facing_flip(rng, expr, layout):
    if expr.facings:
        assertion = expr.facings[0]
        obj = layout.first_named(assertion.subject)
        if obj is None:
            return None
        new = rng.choice([b for b in BUCKETS if b is not obj.facing])
        return (
            _replace_objects(layout, obj.replace(facing=new)),
            Injection(
                "", "facing-flip", ErrorCategory.ORIENTATION,
                f"{obj.name} facing {obj.facing.value} -> {new.value}",
            ),
        )
    for clause in expr.relations:
        if not isinstance(clause.perspective, Intrinsic):
            continue
        relatum = layout.first_named(clause.perspective.relatum)
        if relatum is None or relatum.facing is FacingDirection.NONE:
            continue
        gold_cam = convert_relation(clause.relation, relatum.facing)
        want = gold_cam.opposite
        group = [b for b in BUCKETS if convert_relation(clause.relation, b) is want]
        new = rng.choice(group)
        category = ErrorCategory.LEFT_RIGHT if want.horizontal else ErrorCategory.FRONT_BACK
        return (
            _replace_objects(layout, relatum.replace(facing=new)),
            Injection(
                "", "facing-flip", category,
                f"{relatum.name} facing {relatum.facing.value} -> {new.value}",
            ),
        )
    return None


def _corrupt_duplicate(rng, expr, layout):
    present = [m for m in expr.mentions if layout.first_named(m.name) is not None]
    if not present:
        return None
    src = layout.first_named(rng.choice(present).name)
    bbox = place_in_free_band(layout.objects, w=src.bbox.w, h=src.bbox.h)
    clone = SceneObject(
        name=src.name,
        attributes=src.attributes,
        object_id=layout.max_object_id() + 1,
        bbox=bbox,
        depth=src.depth,
        facing=src.facing,
    )
    return (
        layout.with_objects(layout.objects + (clone,)),
        Injection("", "duplicate", ErrorCategory.MULTIPLE_OBJECT, f"cloned {src.name}"),
    )


def _corrupt_drop(rng, expr, layout):
    protected = {
        c.perspective.relatum
        for c in expr.relations
        if isinstance(c.perspective, Intrinsic)
        and expr.facing_asserted(c.perspective.relatum) is None
    }
    candidates = [
        m.name
        for m in expr.mentions
        if m.name not in protected and layout.first_named(m.name) is not None
    ]
    if not candidates:
        return None
    name = rng.choice(candidates)
    victim = layout.first_named(name)
    return (
        layout.with_objects(tuple(o for o in layout.objects if o.object_id != victim.object_id)),
        Injection("", "drop", ErrorCategory.MISSING_OBJECT, f"dropped {name}"),
    )


_KIND_FUNCS = {
    "lr-swap": partial(_corrupt_axis_swap, True),
    "depth-swap": partial(_corrupt_axis_swap, False),
    "facing-flip": _corrupt_facing_flip,
    "duplicate": _corrupt_duplicate,
    "drop": _corrupt_drop,
}


def corrupt_layout(
    gold: SceneLayout, annotation: SpatialExpression, config: CorruptionConfig, seed: int
) -> tuple[SceneLayout, tuple[Injection, ...]]:
    """Bernoulli corruption: each kind fires with its configured rate.

    Kinds compound in the fixed catalog order; a kind that does not
    apply to the sample's clause structure is skipped. The returned
    injections carry an empty sample id for the caller to fill.
    """
    rng = random.Random(seed)
    layout = gold
    injections: list[Injection] = []
    for kind in CORRUPTION_KINDS:
        rate = config.rate_for(kind)
        if rate <= 0.0 or rng.random() >= rate:
            continue
        result = _KIND_FUNCS[kind](rng, annotation, layout)
        if result is not None:
            layout, injection = result
            injections.append(injection)
    return layout, tuple(injections)


def corrupt_samples(
    samples, config: CorruptionConfig, seed: int = DEFAULT_SEED
) -> tuple[list[BenchmarkSample], tuple[Injection, ...]]:
    """Apply Bernoulli corruption sample-wise; ledger entries carry ids."""
    out: list[BenchmarkSample] = []
    ledger: list[Injection] = []
    for sample in samples:
        layout, injections = corrupt_layout(
            sample.gold_layout, sample.annotation, config, derive_seed(seed, sample.id)
        )
        out.append(dc_replace(sample, initial_layout=layout))
        ledger.extend(dc_replace(inj, sample_id=sample.id) for inj in injections)
    return out, tuple(ledger)


def apply_corruption(
    samples, fraction: float = 0.8, seed: int = DEFAULT_SEED, kinds=CORRUPTION_KINDS
) -> tuple[list[BenchmarkSample], tuple[Injection, ...]]:
    """Quota corruption: exactly round(fraction * n) samples get exactly
    one injection each, cycling through ``kinds`` with fallback to the
    next applicable kind, so round-zero accuracy is 1 - fraction by
    construction."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    rng = random.Random(seed)
    n = len(samples)
    order = list(range(n))
    rng.shuffle(order)
    chosen = sorted(order[: round(n * fraction)])

    out = list(samples)
    ledger: list[Injection] = []
    for j, i in enumerate(chosen):
        sample = samples[i]
        result = None
        kind = None
        for shift in range(len(kinds)):
            kind = kinds[(j + shift) % len(kinds)]
            result = _KIND_FUNCS[kind](rng, sample.annotation, sample.gold_layout)
            if result is not None:
                break
        if result is None:
            raise RuntimeError(f"no corruption kind applies to sample {sample.id}")
        layout, injection = result
        assert not evaluate(sample.annotation, layout).correct, (
            f"injection {kind} failed to break sample {sample.id}"
        )
        out[i] = dc_replace(sample, initial_layout=layout)
        ledger.append(dc_replace(injection, sample_id=sample.id))
    return out, tuple(ledger)

"""Diffing layouts and executing edit actions on symbolic scenes."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenefix import (
    Addition,
    AttributeModify,
    BBox,
    DepthMap,
    DepthModify,
    Deletion,
    DuplicateIdError,
    FacingDirection,
    FacingModify,
    OverlapCollisionError,
    Reposition,
    SceneObject,
    UnknownObjectError,
    apply_actions,
    apply_depth_formula,
    diff_layouts,
    scene_from_layout,
)
from scenefix.edits import SymbolicScene, action_kind
from scenefix.scene import grid_bounds, object_depth, rect_mask

from helpers import (
    ATTR_POOL,
    FACING_POOL,
    NOUN_POOL,
    exact_objects,
    layout,
    obj,
    random_layout,
    reference_apply_actions,
    reference_scene_from_layout,
    scene_consistency_gap,
)


class TestActionModels:
    def test_action_kind_names(self):
        assert action_kind(Deletion(1)) == "Deletion"
        assert action_kind(Reposition(1, BBox(0, 0, 0.1, 0.1))) == "Reposition"

    def test_facing_modify_rejects_unknown(self):
        with pytest.raises(ValueError):
            FacingModify(1, FacingDirection.NONE)

    def test_depth_modify_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DepthModify(1, 1.3)


class TestDepthFormula:
    def test_shift_example(self):
        dm = DepthMap(np.full((4, 4), 0.5))
        mask = rect_mask(dm, BBox(0.0, 0.0, 1.0, 1.0))
        out = apply_depth_formula(dm, mask, current=0.4, target=0.7)
        assert out.values[0, 0] == pytest.approx(0.8)

    def test_identity_when_target_equals_current(self):
        dm = DepthMap(np.full((4, 4), 0.5))
        mask = rect_mask(dm, BBox(0.0, 0.0, 1.0, 1.0))
        out = apply_depth_formula(dm, mask, current=0.5, target=0.5)
        assert np.array_equal(out.values, dm.values)

    def test_clamps_at_one(self):
        dm = DepthMap(np.full((4, 4), 0.9))
        mask = rect_mask(dm, BBox(0.0, 0.0, 1.0, 1.0))
        out = apply_depth_formula(dm, mask, current=0.2, target=0.5)
        assert out.values[2, 2] == pytest.approx(1.0)

    def test_untouched_outside_mask(self):
        dm = DepthMap(np.full((4, 4), 0.5))
        mask = rect_mask(dm, BBox(0.0, 0.0, 0.5, 0.5))
        out = apply_depth_formula(dm, mask, current=0.5, target=0.9)
        assert out.values[0, 0] == pytest.approx(0.9)
        assert out.values[3, 3] == pytest.approx(0.5)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_pixel_rule_matches_closed_form(self, d, current, target):
        dm = DepthMap(np.full((2, 2), d))
        mask = rect_mask(dm, BBox(0.0, 0.0, 1.0, 1.0))
        out = apply_depth_formula(dm, mask, current, target)
        expected = min(1.0, max(0.0, d - current + target))
        assert out.values[0, 0] == pytest.approx(expected, abs=1e-12)


class TestSceneSynthesis:
    def test_background_and_patches(self):
        lay = layout(obj("cat", x=0.0, y=0.0, w=0.25, h=0.25, depth=0.8))
        scene = scene_from_layout(lay, width=8, height=8)
        assert scene.depth.values[0, 0] == pytest.approx(0.8)
        assert scene.depth.values[7, 7] == pytest.approx(0.05)

    def test_layout_order_wins_on_overlap(self):
        lay = layout(
            obj("cat", oid=1, x=0.0, y=0.0, w=0.5, h=0.5, depth=0.3),
            obj("dog", oid=2, x=0.25, y=0.25, w=0.5, h=0.5, depth=0.9),
        )
        scene = scene_from_layout(lay, width=8, height=8)
        # the later object, here also the nearer, paints over the shared region
        assert scene.depth.values[3, 3] == pytest.approx(0.9)

    def test_nearest_wins_on_overlap(self):
        lay = layout(
            obj("cat", oid=1, x=0.0, y=0.0, w=0.5, h=0.5, depth=0.9),
            obj("dog", oid=2, x=0.25, y=0.25, w=0.5, h=0.5, depth=0.3),
            obj("cup", oid=3, x=0.5, y=0.5, w=0.5, h=0.5, depth=0.3),
        )
        scene = scene_from_layout(lay, width=8, height=8)
        # nearest-last: the cat covers the dog; of the equally near dog
        # and cup, the later in layout order paints last
        assert scene.depth.values[3, 3] == 0.9
        assert scene.clear == {1, 3}
        assert scene.depth.values[5, 5] == 0.3
        # the dog owns pixels to the right of the cat, none under it
        assert scene.owns_pixel(0, BBox(0.25, 0.25, 0.25, 0.25))
        assert not scene.owns_pixel(1, BBox(0.25, 0.25, 0.25, 0.25))
        assert scene.owns_pixel(1, BBox(0.5, 0.25, 0.25, 0.25))

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.tuples(st.integers(8, 64), st.integers(8, 64)),
        background=st.sampled_from([0.05, 0.0, -0.0, 0.5, 1.0]),
    )
    def test_renders_the_reference_grid_on_first_read(self, seed, size, background):
        # overlapping boxes too: random_layout without an IoU cap
        lay = random_layout(random.Random(seed), max_objects=6)
        w, h = size
        want = _outcome(reference_scene_from_layout, lay, w, h, background)
        got = _outcome(scene_from_layout, lay, w, h, background)
        assert got[0] == want[0]
        if want[0] == "raised":
            assert got == want
            return
        scene = got[1]
        assert _bits(scene.depth.values) == _bits(want[1].depth.values)
        assert scene.depth is scene.depth
        # clear: no pixel of the object's rectangle lies in the rectangle of
        # one painted later, that is nearer, or as near and later in the layout
        objs = lay.objects
        masks = [rect_mask(scene.depth, o.bbox) for o in objs]
        assert scene.clear == {
            o.object_id
            for i, o in enumerate(objs)
            if not any(
                masks[i] & masks[j]
                for j in range(len(objs))
                if j != i and (objs[j].depth, j) > (o.depth, i)
            )
        }

    def test_consistency_gap_zero_for_disjoint(self):
        lay = layout(
            obj("cat", oid=1, x=0.0, y=0.0, w=0.3, h=0.3, depth=0.4),
            obj("dog", oid=2, x=0.6, y=0.6, w=0.3, h=0.3, depth=0.7),
        )
        assert scene_consistency_gap(scene_from_layout(lay)) == pytest.approx(0.0)


def _cow_sheep():
    return (
        layout(
            obj("cow", oid=1, x=0.1, depth=0.41),
            obj("sheep", oid=2, x=0.6, depth=0.82),
        ),
        layout(
            obj("cow", oid=1, x=0.1, depth=0.82),
            obj("sheep", oid=2, x=0.6, depth=0.41),
        ),
    )


class TestDiff:
    def test_identical_layouts_diff_empty(self):
        lay = layout(obj("cat"), obj("dog", oid=2, x=0.5))
        assert diff_layouts(lay, lay) == []

    def test_depth_swap_yields_two_depth_edits(self):
        current, proposed = _cow_sheep()
        actions = diff_layouts(current, proposed)
        assert [action_kind(a) for a in actions] == ["DepthModify", "DepthModify"]
        assert actions[0].new_depth == 0.82
        assert actions[1].new_depth == 0.41
        assert actions[0].new_bbox is None

    def test_position_swap_yields_two_repositions(self):
        current = layout(
            obj("car", oid=1, x=0.1, depth=0.5),
            obj("truck", oid=2, x=0.6, depth=0.7),
        )
        proposed = layout(
            obj("car", oid=1, x=0.6, depth=0.5),
            obj("truck", oid=2, x=0.1, depth=0.7),
        )
        actions = diff_layouts(current, proposed)
        assert [action_kind(a) for a in actions] == ["Reposition", "Reposition"]

    def test_object_absent_from_proposal_is_deleted(self):
        current = layout(obj("cat", oid=1), obj("dolphin", oid=2, x=0.5))
        proposed = layout(obj("cat", oid=1))
        assert diff_layouts(current, proposed) == [Deletion(2)]

    def test_name_change_is_delete_plus_add(self):
        current = layout(obj("cat", oid=1))
        proposed = layout(obj("dog", oid=1))
        actions = diff_layouts(current, proposed)
        assert [action_kind(a) for a in actions] == ["Deletion", "Addition"]

    def test_attribute_and_facing_edits(self):
        current = layout(obj("cat", oid=1, attrs=("red",)))
        proposed = layout(
            obj("cat", oid=1, attrs=("blue",), facing=FacingDirection.LEFT)
        )
        actions = diff_layouts(current, proposed)
        assert [action_kind(a) for a in actions] == ["AttributeModify", "FacingModify"]

    def test_depth_and_bbox_change_fuse(self):
        current = layout(obj("cat", oid=1, x=0.1, depth=0.3))
        proposed = layout(obj("cat", oid=1, x=0.5, depth=0.8))
        actions = diff_layouts(current, proposed)
        assert [action_kind(a) for a in actions] == ["DepthModify"]
        assert actions[0].new_bbox == BBox(0.5, 0.1, 0.2, 0.2)

class TestApply:
    def test_empty_actions_identity(self):
        scene = scene_from_layout(layout(obj("cat")))
        out = apply_actions(scene, [])
        assert out.layout == scene.layout
        assert np.array_equal(out.depth.values, scene.depth.values)

    def test_deletion_backfills_background(self):
        lay = layout(obj("cat", oid=1, x=0.4, y=0.4, w=0.2, h=0.2, depth=0.9))
        scene = scene_from_layout(lay)
        out = apply_actions(scene, [Deletion(1)])
        assert out.layout.objects == ()
        # the vacated rectangle takes the median of everything else: background
        assert float(out.depth.values.max()) == pytest.approx(0.05)

    def test_addition_paints_patch(self):
        scene = scene_from_layout(layout())
        new = obj("cat", oid=1, x=0.0, y=0.0, w=0.25, h=0.25, depth=0.7)
        out = apply_actions(scene, [Addition(new)])
        assert out.layout.find(1) == new
        assert out.depth.values[0, 0] == pytest.approx(0.7)

    def test_addition_duplicate_id_rejected(self):
        scene = scene_from_layout(layout(obj("cat", oid=1)))
        with pytest.raises(DuplicateIdError):
            apply_actions(scene, [Addition(obj("dog", oid=1, x=0.6))])

    def test_addition_heavy_overlap_rejected(self):
        scene = scene_from_layout(layout(obj("cat", oid=1, x=0.4, y=0.4)))
        clash = obj("dog", oid=2, x=0.42, y=0.42)
        with pytest.raises(OverlapCollisionError):
            apply_actions(scene, [Addition(clash)])

    def test_unknown_id_rejected(self):
        scene = scene_from_layout(layout(obj("cat", oid=1)))
        with pytest.raises(UnknownObjectError):
            apply_actions(scene, [Deletion(9)])

    def test_reposition_moves_patch(self):
        lay = layout(obj("cat", oid=1, x=0.0, y=0.0, w=0.25, h=0.25, depth=0.9))
        scene = scene_from_layout(lay)
        target = BBox(0.5, 0.5, 0.25, 0.25)
        out = apply_actions(scene, [Reposition(1, target)])
        assert out.layout.find(1).bbox == target
        assert out.depth.values[0, 0] == pytest.approx(0.05)
        measured = object_depth(out.depth, rect_mask(out.depth, target))
        assert measured == pytest.approx(0.9, abs=1e-3)

    def test_depth_modify_shifts_patch(self):
        lay = layout(obj("cat", oid=1, x=0.2, y=0.2, w=0.3, h=0.3, depth=0.4))
        scene = scene_from_layout(lay)
        out = apply_actions(scene, [DepthModify(1, 0.7)])
        assert out.layout.find(1).depth == 0.7
        assert scene_consistency_gap(out) <= 1e-3

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_depth_modify_runs_the_depth_formula(self, current, target):
        # the loop builds only uniform patches; on one no nearer patch
        # covers before or after the edit, the re-rendered grid is the
        # paper's pixel rule, bit for bit. The dog lies under the cat at
        # every depth: it is at the far wall, and first in a tie.
        cat = obj("cat", oid=1, x=0.2, y=0.3, w=0.4, h=0.3, depth=current)
        dog = obj("dog", oid=2, x=0.1, y=0.1, w=0.3, h=0.3, depth=0.0)
        scene = scene_from_layout(layout(dog, cat))
        assert scene.clear == {1}
        out = apply_actions(scene, [DepthModify(1, target)])
        mask = rect_mask(scene.depth, cat.bbox)
        expected = apply_depth_formula(scene.depth, mask, current, target)
        assert _bits(out.depth.values) == _bits(expected.values)

    def test_swapping_repositions_stay_consistent(self):
        # two moves that trade extents overlap transiently; the executor
        # must leave both patches at their stored depths afterwards
        a = obj("cat", oid=1, x=0.1, y=0.4, w=0.2, h=0.2, depth=0.9)
        b = obj("dog", oid=2, x=0.6, y=0.4, w=0.2, h=0.2, depth=0.3)
        scene = scene_from_layout(layout(a, b))
        out = apply_actions(
            scene,
            [Reposition(1, b.bbox), Reposition(2, a.bbox)],
        )
        assert scene_consistency_gap(out) <= 1e-3

    def test_attribute_and_facing_leave_depth_untouched(self):
        lay = layout(obj("cat", oid=1, depth=0.6))
        scene = scene_from_layout(lay)
        out = apply_actions(
            scene,
            [AttributeModify(1, ("red",)), FacingModify(1, FacingDirection.LEFT)],
        )
        assert out.layout.find(1).attributes == ("red",)
        assert out.layout.find(1).facing is FacingDirection.LEFT
        assert np.array_equal(out.depth.values, scene.depth.values)


class TestDiffApplyRoundTrip:
    def test_cow_sheep_round_trip(self):
        current, proposed = _cow_sheep()
        scene = scene_from_layout(current)
        out = apply_actions(scene, diff_layouts(current, proposed))
        assert out.layout == proposed
        assert scene_consistency_gap(out) <= 1e-3

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=120, deadline=None)
    def test_random_pairs_round_trip(self, seed):
        rng = random.Random(seed)
        a = random_layout(rng, iou_cap=0.5)
        b = random_layout(rng, iou_cap=0.5)
        actions = diff_layouts(a, b)
        out = apply_actions(scene_from_layout(a), actions)
        got = {o.object_id: o for o in out.layout.objects}
        want = {o.object_id: o for o in b.objects}
        assert got.keys() == want.keys()
        for oid, want_obj in want.items():
            have = got[oid]
            assert have.name == want_obj.name
            assert have.attributes == want_obj.attributes
            assert have.facing is want_obj.facing
            assert have.bbox == want_obj.bbox
            assert have.depth == pytest.approx(want_obj.depth, abs=1e-3)
        assert (a == b) == (actions == [])


# --------------------------------------------------------------------------
# the executor against its earlier form

def _edge_depth(rng: random.Random) -> float:
    # signed zero and the walls, where np.median and np.clip could differ
    # from a hand-rolled kernel, besides grid-valued and arbitrary depths
    return rng.choice([-0.0, 0.0, 1.0, round(rng.uniform(0.0, 1.0), 3), rng.random()])


def _any_bbox(rng: random.Random) -> BBox:
    # off the 3-decimal grid too, and small enough to miss every pixel
    # centre on a coarse grid now and then
    w = 0.01 if rng.random() < 0.05 else rng.uniform(0.05, 0.6)
    h = 0.01 if rng.random() < 0.05 else rng.uniform(0.05, 0.6)
    return BBox(rng.uniform(0.0, 1.0 - w), rng.uniform(0.0, 1.0 - h), w, h)


def _proposal(rng: random.Random, current):
    """A proposal that drops, moves, re-depths, re-faces, renames and adds."""
    objects = []
    for o in current.objects:
        roll = rng.random()
        if roll < 0.15:
            continue
        if roll < 0.2:
            o = o.replace(name=rng.choice(NOUN_POOL) + " x")
        if rng.random() < 0.5:
            o = o.replace(bbox=_any_bbox(rng))
        if rng.random() < 0.5:
            o = o.replace(depth=_edge_depth(rng))
        if rng.random() < 0.2:
            o = o.replace(facing=rng.choice(FACING_POOL))
        if rng.random() < 0.2:
            o = o.replace(attributes=tuple(rng.sample(ATTR_POOL, rng.randrange(3))))
        objects.append(o)
    next_id = current.max_object_id() + 1
    for oid in range(next_id, next_id + rng.randrange(3)):
        objects.append(SceneObject(rng.choice(NOUN_POOL), (), oid, _any_bbox(rng), _edge_depth(rng)))
    rng.shuffle(objects)
    return current.with_objects(objects)


def _actions(rng: random.Random, current):
    """Diff-generated actions, sometimes followed by one the executor refuses."""
    actions = diff_layouts(current, _proposal(rng, current))
    if rng.random() < 0.2:
        actions.append(rng.choice([
            Deletion(99),
            Reposition(99, _any_bbox(rng)),
            Addition(obj("cup", oid=rng.choice([1, 2, 3]), depth=_edge_depth(rng))),
        ]))
    return actions


def _bits(values: np.ndarray) -> list:
    """Each float's bit pattern: -0.0 and 0.0 differ."""
    return values.view(np.int64).tolist()


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compared by type and message
        return "raised", (type(exc), str(exc))


class TestReferenceExecutor:
    """Grid synthesis writes the same bits and raises the same errors as the
    reference in ``helpers``; the executor edits the same objects and raises
    the same errors as the reference executor there, and its grid is the
    reference render of the edited layout."""

    @settings(max_examples=400, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.tuples(st.integers(8, 64), st.integers(8, 64)),
        background=st.sampled_from([0.05, 0.0, -0.0, 0.5]),
    )
    def test_matches_the_reference_bit_for_bit(self, seed, size, background):
        rng = random.Random(seed)
        base = random_layout(rng)
        current = base.with_objects(
            o.replace(bbox=_any_bbox(rng), depth=_edge_depth(rng)) if rng.random() < 0.5 else o
            for o in base.objects
        )
        w, h = size
        want = _outcome(reference_scene_from_layout, current, w, h, background)
        got = _outcome(scene_from_layout, current, w, h, background)
        assert got[0] == want[0]
        if want[0] == "raised":
            assert got == want
            return
        scene = got[1]
        assert _bits(scene.depth.values) == _bits(want[1].depth.values)
        if rng.random() < 0.5:
            # a given grid that is no render of its layout: a background
            # that is no single value and textured patches, which the
            # executor drops when it renders the edited layout
            noise = np.random.default_rng(seed).random((h, w))
            grid = np.where(noise < 0.2, np.where(noise < 0.1, -0.0, 0.0), np.round(noise, 1))
            for o in current.objects:
                c0, c1, r0, r1 = grid_bounds(w, h, o.bbox)
                texture = noise[r0 : r1 + 1, c0 : c1 + 1] * 1e-4
                grid[r0 : r1 + 1, c0 : c1 + 1] = np.clip(o.depth + texture, 0.0, 1.0)
            scene = SymbolicScene(current, DepthMap(grid), background)
        actions = _actions(rng, current)
        want = _outcome(reference_apply_actions, scene, actions)
        got = _outcome(apply_actions, scene, actions)
        assert got[0] == want[0]
        if want[0] == "raised":
            assert got == want
            return
        if not actions:
            assert got[1] is scene
            return
        assert exact_objects(got[1].layout) == exact_objects(want[1].layout)
        rendered = reference_scene_from_layout(got[1].layout, w, h, background)
        assert _bits(got[1].depth.values) == _bits(rendered.depth.values)

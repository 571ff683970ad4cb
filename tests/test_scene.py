"""Geometry primitives: boxes, depth maps, facings, layout containers."""

from __future__ import annotations

import dataclasses
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenefix import (
    BBox,
    DepthMap,
    DuplicateIdError,
    EmptyRegionError,
    FacingDirection,
    Relation,
    Reposition,
    SceneLayout,
    SceneObject,
    angle_to_facing,
    apply_actions,
    box_depth,
    object_depth,
    scene_from_layout,
)
from scenefix.scene import bbox_iou, bucket_center, rect_bounds, rect_mask, row_worst_ious

from helpers import NOUN_POOL, bboxes, extents, layout, obj, random_layout


class TestAngleBuckets:
    def test_45_is_forward_left(self):
        assert angle_to_facing(45.0) is FacingDirection.FORWARD_LEFT

    def test_zero_is_front(self):
        assert angle_to_facing(0.0) is FacingDirection.FRONT

    def test_180_is_back(self):
        assert angle_to_facing(180.0) is FacingDirection.BACK

    @pytest.mark.parametrize(
        "angle,expected",
        [
            (22.4, FacingDirection.FRONT),
            (22.5, FacingDirection.FORWARD_LEFT),
            (67.5, FacingDirection.LEFT),
            (90.0, FacingDirection.LEFT),
            (112.5, FacingDirection.BACKWARD_LEFT),
            (157.5, FacingDirection.BACK),
            (202.5, FacingDirection.BACKWARD_RIGHT),
            (247.5, FacingDirection.RIGHT),
            (270.0, FacingDirection.RIGHT),
            (292.5, FacingDirection.FORWARD_RIGHT),
            (337.5, FacingDirection.FRONT),
            (359.99, FacingDirection.FRONT),
        ],
    )
    def test_bucket_edges(self, angle, expected):
        assert angle_to_facing(angle) is expected

    @given(st.floats(min_value=0.0, max_value=360.0, exclude_max=True))
    def test_never_none_and_center_round_trips(self, angle):
        facing = angle_to_facing(angle)
        assert facing is not FacingDirection.NONE
        assert angle_to_facing(bucket_center(facing)) is facing

    @given(st.floats(min_value=0.0, max_value=360.0, exclude_max=True))
    def test_within_22_5_of_center(self, angle):
        facing = angle_to_facing(angle)
        center = bucket_center(facing)
        delta = abs(angle - center)
        delta = min(delta, 360.0 - delta)
        assert delta <= 22.5 + 1e-9

    @pytest.mark.parametrize("bad", [-1.0, 360.0, 400.0, math.nan, math.inf])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            angle_to_facing(bad)

    def test_bucket_center_rejects_none(self):
        with pytest.raises(ValueError):
            bucket_center(FacingDirection.NONE)


class TestBBox:
    def test_offset_center(self):
        assert BBox(0.302, 0.293, 0.335, 0.194).cx == pytest.approx(0.4695, abs=1e-9)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            BBox(0.2, 0.2, 0.0, 0.1)

    @pytest.mark.parametrize(
        "x,y,w,h",
        [(-0.1, 0.0, 0.5, 0.5), (0.8, 0.0, 0.3, 0.3), (0.0, 0.9, 0.2, 0.2)],
    )
    def test_out_of_frame_rejected(self, x, y, w, h):
        with pytest.raises(ValueError):
            BBox(x, y, w, h)

    @pytest.mark.parametrize(
        "args,message",
        [
            (("0.1", 0.2, 0.3, 0.4), "bbox field x must be finite, got '0.1'"),
            ((0.1, math.nan, 0.3, 0.4), "bbox field y must be finite, got nan"),
            ((0.1, 0.2, math.inf, 0.4), "bbox field w must be finite, got inf"),
            ((0.1, 0.2, 0.3, None), "bbox field h must be finite, got None"),
            ((math.nan, None, 0.3, 0.4), "bbox field x must be finite, got nan"),
            ((-0.1, 0.0, 0.5, 0.5), "bbox corner out of frame: (-0.1, 0.0)"),
            ((0.2, 1.5, 0.1, 0.1), "bbox corner out of frame: (0.2, 1.5)"),
            ((0.2, 0.2, 0.0, 0.1), "bbox needs positive size, got 0.0 x 0.1"),
            ((0.2, 0.2, 0.1, -0.1), "bbox needs positive size, got 0.1 x -0.1"),
            ((0.8, 0.0, 0.3, 0.3), "bbox extends past the frame: x+w=1.1, y+h=0.3"),
            ((1.0, 1.0, 0.0, 0.0), "bbox needs positive size, got 0.0 x 0.0"),
        ],
    )
    def test_error_messages(self, args, message):
        # run reports carry these strings in a sample's error field
        with pytest.raises(ValueError) as exc:
            BBox(*args)
        assert str(exc.value) == message

    def test_frozen_and_slotted(self):
        box = BBox(0.1, 0.2, 0.3, 0.4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            box.x = 0.5
        assert not hasattr(box, "__dict__")
        assert repr(box) == "BBox(x=0.1, y=0.2, w=0.3, h=0.4)"
        assert [f.name for f in dataclasses.fields(box)] == ["x", "y", "w", "h"]

    def test_as_list(self):
        assert BBox(0.1, 0.2, 0.3, 0.4).as_list() == [0.1, 0.2, 0.3, 0.4]

    def test_iou_disjoint_and_identical(self):
        a = BBox(0.0, 0.0, 0.4, 0.4)
        b = BBox(0.6, 0.6, 0.4, 0.4)
        assert bbox_iou(a, b) == 0.0
        assert bbox_iou(a, a) == pytest.approx(1.0)

    def test_iou_half_overlap(self):
        a = BBox(0.0, 0.0, 0.4, 0.4)
        b = BBox(0.2, 0.0, 0.4, 0.4)
        # intersection 0.2*0.4, union 2*0.16 - 0.08
        assert bbox_iou(a, b) == pytest.approx(0.08 / 0.24)


def _worst_ious(xs, y, w, h, boxes) -> list[str]:
    """``bbox_iou``'s worst IoU for each candidate box, as exact hex floats."""
    return [
        max((bbox_iou(BBox(x, y, w, h), b) for b in boxes), default=0.0).hex() for x in xs
    ]


class TestRowWorstIous:
    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_equals_bbox_iou_bit_for_bit(self, data):
        y, h = data.draw(extents(0.6))
        w = data.draw(extents(0.6))[1]
        boxes = data.draw(st.lists(bboxes(), max_size=8))
        # candidates that abut each box's left and right edges, then any
        edges = [x for b in boxes for x in (b.x - w, b.x + b.w) if 0.0 <= x <= 1.0 - w]
        others = data.draw(st.lists(st.floats(0.0, 1.0 - w) | st.just(-0.0), max_size=8))
        xs = edges + others
        got = row_worst_ious(xs, y, w, h, boxes)
        assert [v.hex() for v in got] == _worst_ious(xs, y, w, h, boxes)

    def test_edge_cases(self):
        b = BBox(0.25, 0.25, 0.25, 0.25)
        cases = [
            (0.0, 0.25, 0.25, 0.25),  # abuts the left edge on the same row
            (0.5, 0.25, 0.25, 0.25),  # abuts the right edge on the same row
            (0.25, 0.0, 0.25, 0.25),  # abuts the top edge: no shared row
            (0.25, 0.5, 0.25, 0.25),  # abuts the bottom edge: no shared row
            (0.25, 0.25, 0.25, 0.25),  # the same box
            (0.375, 0.25, 0.25, 0.25),  # half across on the same row
            (0.25, 0.3, 0.1, 0.1),  # inside it
        ]
        for x, y, w, h in cases:
            assert [v.hex() for v in row_worst_ious([x], y, w, h, [b])] == _worst_ious(
                [x], y, w, h, [b]
            )
        assert row_worst_ious([0.0, 0.5, 0.25], 0.25, 0.25, 0.25, [b]) == [0.0, 0.0, 1.0]
        assert row_worst_ious([0.25], 0.5, 0.25, 0.25, [b]) == [0.0]
        assert row_worst_ious([0.1, 0.2], 0.3, 0.2, 0.2, []) == [0.0, 0.0]


class TestDepthMap:
    def test_values_copied_and_locked(self):
        arr = np.full((4, 4), 0.5)
        dm = DepthMap(arr)
        arr[0, 0] = 0.9
        assert dm.values[0, 0] == 0.5
        with pytest.raises(ValueError):
            dm.values[0, 0] = 0.1

    @pytest.mark.parametrize("bad", [np.zeros((0, 4)), np.zeros(4), np.full((2, 2), 1.5)])
    def test_bad_arrays_rejected(self, bad):
        with pytest.raises(ValueError):
            DepthMap(bad)

    def test_nan_rejected(self):
        arr = np.full((3, 3), 0.2)
        arr[1, 1] = np.nan
        with pytest.raises(ValueError):
            DepthMap(arr)

    @pytest.mark.parametrize(
        "cells,message",
        [
            ([math.nan], "depth map contains non-finite values"),
            ([math.inf], "depth map contains non-finite values"),
            ([-math.inf], "depth map contains non-finite values"),
            ([1.5], "depth values must lie in [0, 1]"),
            ([-0.1], "depth values must lie in [0, 1]"),
            ([math.nan, 1.5], "depth map contains non-finite values"),
            ([1.5, math.nan], "depth map contains non-finite values"),
        ],
    )
    def test_error_messages(self, cells, message):
        arr = np.full((3, 3), 0.2)
        arr.flat[: len(cells)] = cells
        with pytest.raises(ValueError) as exc:
            DepthMap(arr)
        assert str(exc.value) == message

    def test_shape_message(self):
        with pytest.raises(ValueError) as exc:
            DepthMap(np.zeros(4))
        assert str(exc.value) == "depth map must be a non-empty 2-d grid, got shape (4,)"

    def test_adopted_array_is_kept_and_locked(self):
        arr = np.full((4, 4), 0.5)
        dm = DepthMap.adopt(arr)
        assert dm.values is arr
        with pytest.raises(ValueError):
            arr[0, 0] = 0.1

    @pytest.mark.parametrize(
        "arr,message",
        [
            (np.zeros(4), "depth map must be a non-empty 2-d grid, got shape (4,)"),
            (np.full((2, 2), np.inf), "depth map contains non-finite values"),
            (np.full((2, 2), 1.5), "depth values must lie in [0, 1]"),
        ],
    )
    def test_adopted_array_is_checked_like_a_copied_one(self, arr, message):
        with pytest.raises(ValueError) as exc:
            DepthMap.adopt(arr)
        assert str(exc.value) == message

    def test_edited_scene_owns_its_grid(self):
        scene = scene_from_layout(layout(obj("cat", oid=1, x=0.1, y=0.1, w=0.4, h=0.4, depth=0.8)))
        moved = apply_actions(scene, [Reposition(1, BBox(0.5, 0.5, 0.4, 0.4))])
        assert not np.shares_memory(scene.depth.values, moved.depth.values)
        assert not moved.depth.values.flags.writeable

    def test_list_input_and_bounds_accepted(self):
        dm = DepthMap([[0.0, 1.0], [0.5, 0.25]])
        assert dm.values.dtype == np.float64
        assert dm.values.tolist() == [[0.0, 1.0], [0.5, 0.25]]
        assert not dm.values.flags.writeable


class TestRectMask:
    def test_full_frame_4x4(self):
        dm = DepthMap(np.zeros((4, 4)))
        assert len(rect_mask(dm, BBox(0.0, 0.0, 1.0, 1.0))) == 16

    def test_top_left_quadrant_4x4(self):
        dm = DepthMap(np.zeros((4, 4)))
        mask = rect_mask(dm, BBox(0.0, 0.0, 0.5, 0.5))
        assert mask == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})

    def test_tiny_box_catches_no_pixel_centers(self):
        dm = DepthMap(np.zeros((2, 2)))
        with pytest.raises(EmptyRegionError):
            rect_mask(dm, BBox(0.0, 0.0, 0.1, 0.1))

    def test_bounds_match_mask(self):
        dm = DepthMap(np.zeros((8, 8)))
        box = BBox(0.25, 0.25, 0.5, 0.5)
        c0, c1, r0, r1 = rect_bounds(dm, box)
        mask = rect_mask(dm, box)
        cols = {c for c, _ in mask}
        rows = {r for _, r in mask}
        assert (min(cols), max(cols), min(rows), max(rows)) == (c0, c1, r0, r1)


class TestObjectDepth:
    def test_mean_of_known_pixels(self):
        arr = np.zeros((2, 2))
        arr[0, 0], arr[0, 1], arr[1, 0], arr[1, 1] = 0.2, 0.4, 0.6, 0.8
        mask = frozenset({(0, 0), (1, 0), (0, 1), (1, 1)})
        assert object_depth(DepthMap(arr), mask) == pytest.approx(0.5)

    def test_uniform_patch(self):
        dm = DepthMap(np.full((6, 6), 0.37))
        mask = rect_mask(dm, BBox(0.2, 0.2, 0.5, 0.5))
        assert object_depth(dm, mask) == pytest.approx(0.37)

    def test_empty_mask_rejected(self):
        dm = DepthMap(np.zeros((4, 4)))
        with pytest.raises(EmptyRegionError):
            object_depth(dm, frozenset())

    def test_out_of_bounds_pixel_rejected(self):
        dm = DepthMap(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            object_depth(dm, frozenset({(9, 0)}))


@st.composite
def grids(draw):
    h = draw(st.integers(min_value=1, max_value=32))
    w = draw(st.integers(min_value=1, max_value=32))
    cells = st.floats(min_value=0.0, max_value=1.0)
    values = draw(st.lists(cells, min_size=h * w, max_size=h * w))
    return DepthMap(np.array(values).reshape(h, w))


@st.composite
def in_frame_boxes(draw):
    corner = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
    x, y = draw(corner), draw(corner)
    w = draw(st.floats(min_value=0.0, max_value=1.0 - x, exclude_min=True))
    h = draw(st.floats(min_value=0.0, max_value=1.0 - y, exclude_min=True))
    return BBox(x, y, w, h)


@st.composite
def grids_and_rects(draw):
    """A depth grid of values in [0, 1] (ties likely when coarse) and the
    inclusive bounds (c0, c1, r0, r1) of a rectangle on it, sometimes the
    whole grid."""
    h = draw(st.integers(min_value=1, max_value=64))
    w = draw(st.integers(min_value=1, max_value=64))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    arr = rng.random((h, w))
    if draw(st.booleans()):
        arr = np.round(arr, 1)
    if draw(st.booleans()):
        return arr, (0, w - 1, 0, h - 1)
    c0 = draw(st.integers(min_value=0, max_value=w - 1))
    c1 = draw(st.integers(min_value=c0, max_value=w - 1))
    r0 = draw(st.integers(min_value=0, max_value=h - 1))
    r1 = draw(st.integers(min_value=r0, max_value=h - 1))
    return arr, (c0, c1, r0, r1)


class TestBoxDepth:
    @settings(max_examples=300, deadline=None)
    @given(grids_and_rects())
    def test_region_sum_over_size_is_the_mean_bitwise(self, case):
        # box_depth divides the region's reduction by its size
        arr, (c0, c1, r0, r1) = case
        region = arr[r0 : r1 + 1, c0 : c1 + 1]
        assert (float(region.sum()) / region.size).hex() == float(region.mean()).hex()

    @given(grids(), in_frame_boxes())
    def test_agrees_with_mask_mean(self, dm, box):
        try:
            expected = object_depth(dm, rect_mask(dm, box))
        except EmptyRegionError:
            with pytest.raises(EmptyRegionError):
                box_depth(dm, box)
            return
        assert abs(box_depth(dm, box) - expected) <= 1e-12


class TestSceneObject:
    def test_replace_keeps_other_fields(self):
        o = obj("cat", oid=3, attrs=("red",), facing=FacingDirection.LEFT)
        moved = o.replace(depth=0.9)
        assert moved.depth == 0.9
        assert moved.name == "cat"
        assert moved.object_id == 3
        assert moved.facing is FacingDirection.LEFT

    def test_replace_matches_the_dataclass_replace(self):
        o = obj("cat", oid=3, attrs=("red",), facing=FacingDirection.LEFT)
        changes = {"bbox": BBox(0.5, 0.5, 0.1, 0.1), "depth": 0.25, "object_id": 7}
        moved = o.replace(**changes)
        assert moved == dataclasses.replace(o, **changes)
        assert hash(moved) == hash(dataclasses.replace(o, **changes))
        assert o.depth == 0.5 and o.object_id == 3

    def test_replace_validates_like_a_new_object(self):
        o = obj("cat")
        with pytest.raises(ValueError):
            o.replace(depth=1.2)
        with pytest.raises(ValueError):
            o.replace(object_id=0)
        assert o.replace(attributes=["red"]).attributes == ("red",)

    def test_replace_rejects_unknown_fields(self):
        with pytest.raises(TypeError):
            obj("cat").replace(colour="red")

    @pytest.mark.parametrize("bad_id", [0, -2, 1.5])
    def test_bad_ids_rejected(self, bad_id):
        with pytest.raises(ValueError):
            obj("cat", oid=bad_id)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            obj("")

    def test_depth_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            obj("cat", depth=1.2)

    @pytest.mark.parametrize(
        "changes,message",
        [
            ({"name": ""}, "object name must be non-empty"),
            ({"name": "  "}, "object name must be non-empty"),
            ({"name": "", "object_id": 0}, "object name must be non-empty"),
            ({"object_id": 0}, "object id must be a positive integer, got 0"),
            ({"object_id": 1.5}, "object id must be a positive integer, got 1.5"),
            ({"object_id": "2"}, "object id must be a positive integer, got '2'"),
            ({"object_id": 0, "depth": 2.0}, "object id must be a positive integer, got 0"),
            ({"depth": 1.2}, "object depth must lie in [0, 1], got 1.2"),
            ({"depth": -0.5}, "object depth must lie in [0, 1], got -0.5"),
            ({"depth": math.nan}, "object depth must lie in [0, 1], got nan"),
            ({"depth": 1.2, "facing": "Left"}, "object depth must lie in [0, 1], got 1.2"),
            ({"facing": "Left"}, "facing must be a FacingDirection, got 'Left'"),
            ({"facing": None}, "facing must be a FacingDirection, got None"),
        ],
    )
    def test_error_messages(self, changes, message):
        # run reports carry these strings in a sample's error field
        fields = {
            "name": "cat", "attributes": (), "object_id": 1,
            "bbox": BBox(0.1, 0.1, 0.2, 0.2), "depth": 0.5,
        }
        with pytest.raises(ValueError) as exc:
            SceneObject(**{**fields, **changes})
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            SceneObject(**fields).replace(**changes)
        assert str(exc.value) == message

    def test_frozen_and_slotted(self):
        o = obj("cat", attrs=["red"])
        assert o.attributes == ("red",)
        with pytest.raises(dataclasses.FrozenInstanceError):
            o.depth = 0.1
        assert not hasattr(o, "__dict__")
        assert o.facing is FacingDirection.NONE
        assert [f.name for f in dataclasses.fields(o)] == [
            "name", "attributes", "object_id", "bbox", "depth", "facing",
        ]


def test_pickle_round_trip_keeps_equality_and_hash():
    lay = layout(
        obj("cat", oid=1, attrs=("red",), facing=FacingDirection.LEFT),
        obj("dog", oid=4, x=0.5, depth=0.25),
        background="A sketch",
    )
    for value in (lay.objects[0].bbox, lay.objects[0], lay.objects[1], lay):
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert back == value
            assert hash(back) == hash(value)
            assert type(back) is type(value)


class TestSceneLayout:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateIdError):
            layout(obj("cat", oid=1), obj("dog", oid=1, x=0.5))

    def test_find_and_named(self):
        lay = layout(obj("cat", oid=1), obj("cat", oid=4, x=0.5), obj("dog", oid=2, y=0.5))
        assert lay.find(4).bbox.x == 0.5
        assert [o.object_id for o in lay.named("cat")] == [1, 4]
        assert lay.find(99) is None

    @given(st.integers(0, 2**32 - 1), st.sampled_from(NOUN_POOL + ("frame",)))
    def test_first_named_is_the_lowest_id(self, layout_seed, name):
        lay = random_layout(random.Random(layout_seed), max_objects=6, id_pool=tuple(range(1, 10)))
        assert lay.first_named(name) is min(
            lay.named(name), key=lambda o: o.object_id, default=None
        )

    def test_max_object_id(self):
        assert layout(obj("cat", oid=7), obj("dog", oid=3, x=0.5)).max_object_id() == 7
        assert layout().max_object_id() == 0

    def test_with_objects_preserves_background(self):
        lay = layout(obj("cat"), background="A sketch")
        assert lay.with_objects(()).background == "A sketch"


class TestRelationEnum:
    def test_opposites(self):
        assert Relation.LEFT.opposite is Relation.RIGHT
        assert Relation.FRONT.opposite is Relation.BACK
        assert Relation.BACK.opposite is Relation.FRONT

    def test_horizontal_split(self):
        assert Relation.LEFT.horizontal and Relation.RIGHT.horizontal
        assert not Relation.FRONT.horizontal and not Relation.BACK.horizontal


def test_random_layout_helper_builds_valid_layouts():
    from helpers import random_layout

    rng = random.Random(5)
    for _ in range(50):
        lay = random_layout(rng)
        assert lay.max_object_id() >= 0

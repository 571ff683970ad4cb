"""Noise-model perception over symbolic scenes."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import scenefix.perception as perception
from scenefix import (
    BBox,
    DepthModify,
    EmptyRegionError,
    FacingDirection,
    ObjectMention,
    PerceptionConfig,
    Reposition,
    SymbolicScene,
    apply_actions,
    perceive,
    perceive_with_log,
    scene_from_layout,
)
from scenefix.perception import ZERO_NOISE, derive_seed
from scenefix.scene import grid_bounds

from helpers import (
    ATTR_POOL,
    NOUN_POOL,
    exact_objects,
    grid_bbox,
    layout,
    obj,
    random_layout,
    reference_detect,
    reference_owner_grid,
    reference_read_depth,
    reference_scene_from_layout,
)


def _scene():
    return scene_from_layout(
        layout(
            obj("cat", oid=1, x=0.05, y=0.1, w=0.2, h=0.2, depth=0.8,
                facing=FacingDirection.LEFT),
            obj("dog", oid=2, x=0.6, y=0.1, w=0.2, h=0.2, depth=0.3),
            obj("cat", oid=3, x=0.3, y=0.6, w=0.2, h=0.2, depth=0.5, attrs=("red",)),
        )
    )


CAT = ObjectMention("cat")
DOG = ObjectMention("dog")


class TestConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            PerceptionConfig(dropout_rate=1.5)
        with pytest.raises(ValueError):
            PerceptionConfig(bbox_jitter_sigma=-0.1)

    @pytest.mark.parametrize("field", ["bbox_jitter_sigma", "depth_sigma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_sigmas_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            PerceptionConfig(**{field: value})

    def test_noiseless_flag(self):
        assert ZERO_NOISE.noiseless
        assert not PerceptionConfig(depth_sigma=0.01).noiseless


class TestDeriveSeed:
    def test_deterministic_and_label_sensitive(self):
        assert derive_seed(78, "s1", 0, "out") == derive_seed(78, "s1", 0, "out")
        assert derive_seed(78, "s1", 0, "out") != derive_seed(78, "s1", 0, "in")
        assert derive_seed(78, "s1", 0, "out") != derive_seed(79, "s1", 0, "out")

    def test_fits_in_64_bits(self):
        assert 0 <= derive_seed(1, "x") < 2**64


class TestNoiselessRead:
    def test_identity_on_queried_objects(self):
        scene = _scene()
        out = perceive(scene, [CAT, DOG], ZERO_NOISE, seed=78)
        assert out.objects == scene.layout.objects
        assert out.background == scene.layout.background

    def test_query_filtering(self):
        out = perceive(_scene(), [DOG], ZERO_NOISE, seed=78)
        assert [o.object_id for o in out.objects] == [2]

    def test_attribute_query_narrows(self):
        out = perceive(_scene(), [ObjectMention("cat", ("red",))], ZERO_NOISE, seed=78)
        assert [o.object_id for o in out.objects] == [3]

    def test_empty_queries_rejected(self):
        with pytest.raises(ValueError):
            perceive(_scene(), [], ZERO_NOISE, seed=78)

    def test_depth_read_from_map_not_field(self):
        # a scene whose map disagrees with the stored field reports the map
        scene = _scene()
        tampered = scene.layout.with_objects(
            tuple(o.replace(depth=0.111) if o.object_id == 2 else o
                  for o in scene.layout.objects)
        )
        from scenefix import SymbolicScene

        out = perceive(SymbolicScene(tampered, scene.depth), [DOG], ZERO_NOISE, seed=78)
        assert out.find(2).depth == pytest.approx(0.3, abs=1e-9)

    def test_builds_no_rng(self, monkeypatch):
        def unseeded(*args):
            raise AssertionError("a noiseless pass built an RNG")

        monkeypatch.setattr(perception.random, "Random", unseeded)
        scene = _scene()
        out = perceive(scene, [CAT, DOG], ZERO_NOISE, seed=derive_seed(78, "s1", 1, "in"))
        assert out.objects == scene.layout.objects
        # the patch is live: any noise knob still seeds a generator
        with pytest.raises(AssertionError, match="built an RNG"):
            perceive(scene, [CAT, DOG], PerceptionConfig(facing_flip_rate=0.01), seed=78)


class TestNoiseKnobs:
    def test_full_dropout_empties_the_layout(self):
        cfg = PerceptionConfig(dropout_rate=1.0)
        out = perceive(_scene(), [CAT, DOG], cfg, seed=78)
        assert out.objects == ()

    def test_facing_flip_changes_bucket_only(self):
        cfg = PerceptionConfig(facing_flip_rate=1.0)
        scene = _scene()
        out, events = perceive_with_log(scene, [CAT, DOG], cfg, seed=5)
        flipped = out.find(1)
        assert flipped.facing is not FacingDirection.LEFT
        assert flipped.facing is not FacingDirection.NONE
        assert flipped.depth == scene.layout.find(1).depth
        assert flipped.bbox == scene.layout.find(1).bbox
        assert {e.kind for e in events} == {"facing-flip"}

    def test_unknown_facing_flips_to_some_bucket(self):
        cfg = PerceptionConfig(facing_flip_rate=1.0)
        out = perceive(_scene(), [DOG], cfg, seed=3)
        assert out.find(2).facing is not FacingDirection.NONE

    def test_duplicates_get_fresh_ids_and_read_depth(self):
        cfg = PerceptionConfig(duplicate_rate=1.0)
        out, events = perceive_with_log(_scene(), [DOG], cfg, seed=9)
        assert [o.object_id for o in out.objects[:1]] == [2]
        clone = out.objects[1]
        assert clone.name == "dog"
        assert clone.object_id == 4  # above the scene-wide max id of 3
        assert clone.bbox != out.objects[0].bbox
        assert all(e.kind == "duplicate" for e in events)

    def test_jitter_keeps_boxes_in_frame(self):
        cfg = PerceptionConfig(bbox_jitter_sigma=0.2)
        for seed in range(30):
            out = perceive(_scene(), [CAT, DOG], cfg, seed=seed)
            for o in out.objects:
                assert 0.0 <= o.bbox.x <= 1.0 - o.bbox.w + 1e-12
                assert o.bbox.w >= 0.05

    def test_depth_noise_stays_clipped(self):
        cfg = PerceptionConfig(depth_sigma=0.8)
        for seed in range(30):
            out = perceive(_scene(), [CAT, DOG], cfg, seed=seed)
            for o in out.objects:
                assert 0.0 <= o.depth <= 1.0

    def test_same_seed_same_read(self):
        cfg = PerceptionConfig(
            bbox_jitter_sigma=0.05,
            depth_sigma=0.05,
            facing_flip_rate=0.5,
            dropout_rate=0.2,
            duplicate_rate=0.3,
        )
        a = perceive(_scene(), [CAT, DOG], cfg, seed=1234)
        b = perceive(_scene(), [CAT, DOG], cfg, seed=1234)
        assert a == b


class TestEventLog:
    # pinned from the event-building detector before perceive stopped
    # building events; every kind appears at least once. The dog's jittered
    # box reads the pixels it owns, its stored 0.3; the reference detector
    # in ``helpers`` logs the same events
    PINNED = [
        ("dropout", 1, "cat"),
        ("bbox-jitter", 2, "[0.6, 0.1, 0.2, 0.2] -> "
         "[0.5672348035468757, 0.10094003550495151, 0.20199007426814786, 0.17706369047085105]"),
        ("depth-noise", 2, "0.3000 -> 0.2693"),
        ("facing-flip", 2, "None -> Front"),
        ("bbox-jitter", 3, "[0.3, 0.6, 0.2, 0.2] -> "
         "[0.32618873112909447, 0.6049800970406894, 0.15689511664692413, 0.16842057994157383]"),
        ("depth-noise", 3, "0.5000 -> 0.4540"),
        ("facing-flip", 3, "None -> BackwardLeft"),
        ("duplicate", 3, "clone #4"),
    ]

    def test_seeded_events_are_pinned(self):
        cfg = PerceptionConfig(
            bbox_jitter_sigma=0.03,
            depth_sigma=0.03,
            facing_flip_rate=0.5,
            dropout_rate=0.3,
            duplicate_rate=0.5,
        )
        _, events = perceive_with_log(_scene(), [CAT, DOG], cfg, seed=1)
        assert [(e.kind, e.object_id, e.detail) for e in events] == self.PINNED
        scene, expected = _scene(), []
        reference_detect(scene, [CAT, DOG], cfg, 1, expected, _owners(scene))
        assert [(e.kind, e.object_id, e.detail) for e in expected] == self.PINNED

    def test_perceive_builds_no_event(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("perceive built a PerceptionEvent")

        cfg = PerceptionConfig(
            bbox_jitter_sigma=0.03,
            depth_sigma=0.03,
            facing_flip_rate=0.5,
            dropout_rate=0.3,
            duplicate_rate=0.5,
        )
        expected, events = perceive_with_log(_scene(), [CAT, DOG], cfg, seed=1)
        assert events
        monkeypatch.setattr(perception, "PerceptionEvent", refuse)
        assert perceive(_scene(), [CAT, DOG], cfg, seed=1) == expected

    def test_logging_perceives_once(self, monkeypatch):
        calls = []
        real = perception.perceive

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        cfg = PerceptionConfig(0.03, 0.03, 0.5, 0.3, 0.5)
        monkeypatch.setattr(perception, "perceive", counted)
        layout_, events = perceive_with_log(_scene(), [CAT, DOG], cfg, seed=1)
        assert len(calls) == 1
        assert layout_ == real(_scene(), [CAT, DOG], cfg, seed=1)
        assert [(e.kind, e.object_id, e.detail) for e in events] == self.PINNED

    def test_look_alike_clone_is_credited_to_the_first_look_alike(self):
        # The log credits a clone to the first detection whose name,
        # attributes, facing and mirrored box it copies. Both dogs mirror to
        # x 0.625, so when only the later dog is cloned, the log names the
        # earlier one. The reference, which logs each draw as it makes it,
        # names dog 2.
        scene = scene_from_layout(
            layout(
                obj("dog", oid=1, x=0.375, y=0.4, w=0.25, h=0.25, depth=0.5,
                    facing=FacingDirection.LEFT),
                obj("dog", oid=2, x=0.125, y=0.4, w=0.25, h=0.25, depth=0.5,
                    facing=FacingDirection.LEFT),
            )
        )
        cfg = PerceptionConfig(duplicate_rate=0.5)
        out, events = perceive_with_log(scene, [DOG], cfg, seed=10)
        drawn: list = []
        reference_detect(scene, [DOG], cfg, 10, drawn, _owners(scene))
        assert [(e.kind, e.object_id, e.detail) for e in drawn] == [("duplicate", 2, "clone #3")]
        assert [o.object_id for o in out.objects] == [1, 2, 3]
        assert [(e.kind, e.object_id, e.detail) for e in events] == [("duplicate", 1, "clone #3")]

    @settings(max_examples=150, deadline=None)
    @given(
        layout_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**64 - 1),
        sigmas=st.tuples(*[st.sampled_from([0.0, 0.01, 0.2])] * 2),
        rates=st.tuples(*[st.sampled_from([0.0, 0.05, 0.5, 1.0])] * 3),
        queries=st.lists(
            st.builds(
                ObjectMention,
                st.sampled_from(NOUN_POOL),
                st.lists(st.sampled_from(ATTR_POOL), max_size=2).map(tuple),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_perceive_equals_the_logged_layout(self, layout_seed, seed, sigmas, rates, queries):
        scene = scene_from_layout(random_layout(random.Random(layout_seed), max_objects=5))
        cfg = PerceptionConfig(*sigmas, *rates)
        assert perceive(scene, queries, cfg, seed=seed) == (
            perceive_with_log(scene, queries, cfg, seed=seed)[0]
        )


def _owners(scene):
    """The reference owner grid of a scene rendered from its layout."""
    return reference_owner_grid(scene.layout, *scene.size)


def _edited_scene(rng: random.Random):
    """A random scene, perhaps edited so that patches overlap and repaint."""
    scene = scene_from_layout(random_layout(rng, max_objects=5))
    ids = [o.object_id for o in scene.layout.objects]
    if not ids or rng.random() < 0.3:
        return scene
    actions = []
    for oid in rng.sample(ids, rng.randrange(1, len(ids) + 1)):
        if rng.random() < 0.5:
            actions.append(Reposition(oid, grid_bbox(rng)))
        else:
            actions.append(DepthModify(oid, round(rng.uniform(0.0, 1.0), 3), grid_bbox(rng)))
    return apply_actions(scene, actions)


_QUERIES = st.lists(
    st.builds(
        ObjectMention,
        st.sampled_from(NOUN_POOL),
        st.lists(st.sampled_from(ATTR_POOL), max_size=2).map(tuple),
    ),
    min_size=1,
    max_size=4,
)


class TestReferenceDetector:
    """The detector draws, clamps and reads depth exactly as the reference
    in ``helpers`` does, which averages the pixels each object owns in the
    reference owner grid: same objects bit for bit, same events."""

    @settings(max_examples=300, deadline=None)
    @given(
        layout_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**64 - 1),
        sigmas=st.tuples(*[st.sampled_from([0.0, 0.02, 0.3])] * 2),
        rates=st.tuples(*[st.sampled_from([0.0, 0.05, 0.5, 1.0])] * 3),
        queries=_QUERIES,
    )
    def test_matches_the_reference_bit_for_bit(self, layout_seed, seed, sigmas, rates, queries):
        scene = _edited_scene(random.Random(layout_seed))
        cfg = PerceptionConfig(*sigmas, *rates)
        expected_events: list = []
        expected = reference_detect(scene, queries, cfg, seed, expected_events, _owners(scene))
        assert exact_objects(perceive(scene, queries, cfg, seed=seed)) == exact_objects(expected)
        got, events = perceive_with_log(scene, queries, cfg, seed=seed)
        assert exact_objects(got) == exact_objects(expected)
        assert [(e.kind, e.object_id, e.detail) for e in events] == [
            (e.kind, e.object_id, e.detail) for e in expected_events
        ]


class TestUnoccludedRead:
    """An object no nearer patch covers is read at its stored depth without
    the grid, and a covered one through the owner grid; that is what
    averaging the pixels each object owns on the rendered grid returns."""

    @settings(max_examples=300, deadline=None)
    @given(
        layout_seed=st.integers(0, 2**32 - 1),
        size=st.tuples(st.integers(8, 64), st.integers(8, 64)),
        background=st.sampled_from([0.05, 0.0, -0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**64 - 1),
        depth_sigma=st.sampled_from([0.0, 0.02, 0.3]),
        queries=_QUERIES,
    )
    def test_equals_the_read_of_the_given_grid(
        self, layout_seed, size, background, seed, depth_sigma, queries
    ):
        # overlapping boxes too: random_layout without an IoU cap
        lay = random_layout(random.Random(layout_seed), max_objects=6)
        w, h = size
        try:
            scene = scene_from_layout(lay, w, h, background)
        except EmptyRegionError:
            return
        cfg = PerceptionConfig(depth_sigma=depth_sigma)
        got = perceive(scene, queries, cfg, seed=seed)
        grid = scene_from_layout(lay, w, h, background).depth
        owners = reference_owner_grid(lay, w, h)
        want = reference_detect(SymbolicScene(lay, grid), queries, cfg, seed, None, owners)
        assert exact_objects(got) == exact_objects(want)


# Layouts drawn from a few coordinates, sides and depths, so that patches
# overlap, share edges and tie in depth often; -0.0 and 0.0 tie too.
_COORDS = st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.3, 0.45, 0.5, 0.6])
_SIDES = st.sampled_from([0.1, 0.2, 0.3, 0.5])
_DEPTHS = st.sampled_from([-0.0, 0.0, 0.2, 0.5, 1.0])


@st.composite
def _boxes(draw, sides=_SIDES):
    w, h = draw(sides), draw(sides)
    return BBox(min(draw(_COORDS), 1.0 - w), min(draw(_COORDS), 1.0 - h), w, h)


@st.composite
def _layouts(draw):
    n = draw(st.integers(1, 5))
    return layout(*[
        obj(draw(st.sampled_from(NOUN_POOL)), oid=oid, depth=draw(_DEPTHS)).replace(bbox=draw(_boxes()))
        for oid in range(1, n + 1)
    ])


@st.composite
def _reads(draw, lay):
    """(index, box, stored): the object's own, a jittered or any other box
    (one too small to cover a pixel center now and then), or a phantom's."""
    index = draw(st.integers(0, len(lay.objects)))
    if index == len(lay.objects):  # a duplicate's phantom box
        return None, draw(_boxes()), draw(_DEPTHS)
    o = lay.objects[index]
    kind = draw(st.sampled_from(["own", "jittered", "off"]))
    if kind == "own":
        bbox = o.bbox
    elif kind == "jittered":
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        bbox = perception._jitter_bbox(rng, o.bbox, draw(st.sampled_from([0.02, 0.1, 0.3])))
    else:
        bbox = draw(_boxes(st.sampled_from([0.01, 0.1, 0.3])))
    return index, bbox, o.depth


def _outcome(fn, *args):
    try:
        return "ok", fn(*args).hex()
    except EmptyRegionError as exc:
        return "raised", str(exc)


class TestOwnedPixelRead:
    """The depth read without the grid equals, bit for bit, the mean of the
    pixels the object owns on a nearest-last owner grid rendered pixel by
    pixel, and the box mean where it owns none, for a phantom and on a
    given grid; a noisy pass over disjoint patches renders no grid."""

    @settings(max_examples=400, deadline=None)
    @given(
        data=st.data(),
        lay=_layouts(),
        size=st.tuples(st.integers(8, 64), st.integers(8, 64)),
        background=st.sampled_from([0.05, 0.0, -0.0, 0.5, 1.0]),
        given_grid=st.booleans(),
    )
    def test_equals_the_owned_pixel_reference(self, data, lay, size, background, given_grid):
        w, h = size
        try:
            rendered = reference_scene_from_layout(lay, w, h, background)
        except EmptyRegionError as exc:  # a box too small for this grid
            with pytest.raises(EmptyRegionError, match=re.escape(str(exc))):
                scene_from_layout(lay, w, h, background)
            return
        if given_grid:
            scene, owners = SymbolicScene(lay, rendered.depth), None
        else:
            scene, owners = scene_from_layout(lay, w, h, background), reference_owner_grid(lay, w, h)
        reference = SymbolicScene(lay, rendered.depth)
        # several reads of one scene: the owner grid, once built, is reused
        for index, bbox, stored in data.draw(st.lists(_reads(lay), min_size=1, max_size=6)):
            got = _outcome(perception._read_depth, scene, bbox, stored, index)
            want = _outcome(reference_read_depth, reference, bbox, stored, owners, index)
            assert got == want

    @settings(max_examples=200, deadline=None)
    @given(
        layout_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**64 - 1),
        jitter=st.sampled_from([0.01, 0.02, 0.1]),
        depth_sigma=st.sampled_from([0.0, 0.02]),
        queries=_QUERIES,
    )
    def test_a_noisy_pass_over_disjoint_patches_renders_no_grid(
        self, layout_seed, seed, jitter, depth_sigma, queries
    ):
        scene = scene_from_layout(random_layout(random.Random(layout_seed), max_objects=6))
        assume(len(scene.clear) == len(scene.layout.objects))
        cfg = PerceptionConfig(jitter, depth_sigma, facing_flip_rate=0.05, dropout_rate=0.05)
        out = perceive(scene, queries, cfg, seed=seed)
        w, h = scene.size
        # a read falls back to the grid only where the box holds none of
        # the object's pixels, which wide jitter can bring about
        missed = False
        for o in out.objects:
            c0, c1, r0, r1 = grid_bounds(w, h, o.bbox)
            own_c0, own_c1, own_r0, own_r1 = grid_bounds(w, h, scene.layout.find(o.object_id).bbox)
            missed |= c0 > own_c1 or own_c0 > c1 or r0 > own_r1 or own_r0 > r1
        assert (scene._grid is None) != missed
        # the grid is taken from the owner grid, which nothing else needs here
        assert (scene._owners is None) == (scene._grid is None)

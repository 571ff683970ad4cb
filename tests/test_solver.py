"""The builtin solver's geometry step on clause sets that can be satisfied.

Every clause set drawn here is built from a hidden layout: an order of
the objects on each axis, with box widths that fit, so some placement
satisfies it. The solver must then always return a proposal.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from scenefix import (
    CAMERA,
    BBox,
    ObjectMention,
    OverlapCollisionError,
    Relation,
    RelationClause,
    SpatialExpression,
    UnsatisfiableError,
    evaluate,
    suggest_layout,
)
from scenefix import interpreter
from scenefix.dsl import FRAME
from scenefix.interpreter import _choose_cx, place_in_free_band
from scenefix.wire import parse_wire_layout

from helpers import (
    bboxes,
    extents,
    layout,
    obj,
    reference_choose_cx,
    reference_place_in_free_band,
    relation_pairs,
)

NAMES = ("cat", "dog", "cow", "sheep", "horse", "deer")


def _relation(horizontal: bool, a: float, b: float) -> Relation:
    """The camera relation of an object at ``a`` to one at ``b``."""
    if horizontal:
        return Relation.LEFT if a < b else Relation.RIGHT
    return Relation.BACK if a < b else Relation.FRONT


@st.composite
def satisfiable_problems(draw):
    """(expression, layout) with a hidden solution on both axes.

    Clauses are random pairs, links of a chain along one axis's hidden
    order, or (about 15% of them) midline bounds.
    """
    n = draw(st.integers(3, 6))
    names = draw(st.permutations(NAMES))[:n]
    hidden_cx = draw(
        st.lists(
            st.floats(0.05, 0.95).filter(lambda v: v != 0.5),
            min_size=n, max_size=n, unique=True,
        )
    )
    hidden_depth = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n, unique=True))
    hidden = {True: dict(zip(names, hidden_cx)), False: dict(zip(names, hidden_depth))}

    objects = []
    for i, (name, cx) in enumerate(zip(names, hidden_cx)):
        w = draw(st.floats(0.05, 1.0)) * min(0.4, 2.0 * min(cx, 1.0 - cx))
        x = draw(st.floats(0.0, 1.0)) * (1.0 - w)
        objects.append(
            obj(name, oid=i + 1, x=x, y=draw(st.floats(0.0, 0.7)), w=w,
                depth=draw(st.floats(0.0, 1.0)))
        )

    clauses = []
    for _ in range(draw(st.integers(2, 8))):
        if draw(st.integers(0, 99)) < 15:
            target = draw(st.sampled_from(names))
            relation = _relation(True, hidden[True][target], 0.5)
            clauses.append(RelationClause(target, relation, FRAME, CAMERA))
            continue
        horizontal = draw(st.booleans())
        if draw(st.booleans()):  # a link of a chain along the hidden order
            ranked = sorted(names, key=hidden[horizontal].get)
            k = draw(st.integers(0, n - 2))
            a, b = ranked[k], ranked[k + 1]
            if draw(st.booleans()):
                a, b = b, a
        else:
            a, b = draw(st.permutations(names))[:2]
        relation = _relation(horizontal, hidden[horizontal][a], hidden[horizontal][b])
        clauses.append(RelationClause(a, relation, b, CAMERA))

    expr = SpatialExpression(
        mentions=tuple(ObjectMention(name) for name in names), relations=tuple(clauses)
    )
    return expr, layout(*objects)


def _axis_names(expr: SpatialExpression, horizontal: bool) -> set[str]:
    return {
        name
        for c in expr.relations
        if c.relation.horizontal == horizontal
        for name in (c.target, c.relatum)
        if name != FRAME
    }


class TestConstraintOrder:
    """The solver's windows and the evaluator read a clause the same way."""

    @given(relation_pairs())
    def test_a_clause_holds_exactly_when_its_lower_side_is_smaller(self, pair):
        objs = {1: pair[0], 2: pair[1]}

        def value(node, horizontal):
            if node is None:
                return 0.5
            return objs[node].bbox.cx if horizontal else objs[node].depth

        for relation in Relation:
            relata = (2, None) if relation.horizontal else (2,)
            for relatum in relata:
                c = interpreter._Constraint(1, relatum, relation)
                lower, upper = c.order
                below = value(lower, relation.horizontal) < value(upper, relation.horizontal)
                assert c.holds(objs) is below


class TestSatisfiableSets:
    @settings(max_examples=300, deadline=None)
    @given(satisfiable_problems())
    def test_always_gets_a_proposal_that_evaluates_correct(self, problem):
        expr, lay = problem
        proposal = suggest_layout(expr, lay)
        assert evaluate(expr, proposal.layout).correct

    @settings(max_examples=150, deadline=None)
    @given(satisfiable_problems())
    def test_objects_outside_an_axis_keep_their_value_on_it(self, problem):
        expr, lay = problem
        proposal = suggest_layout(expr, lay)
        on_x, on_depth = _axis_names(expr, True), _axis_names(expr, False)
        for before in lay.objects:
            after = proposal.layout.find(before.object_id)
            if before.name not in on_x:
                assert after.bbox == before.bbox
            if before.name not in on_depth:
                assert after.depth == before.depth

    @settings(max_examples=150, deadline=None)
    @given(satisfiable_problems())
    def test_resolving_a_proposal_changes_nothing(self, problem):
        expr, lay = problem
        proposal = suggest_layout(expr, lay)
        again = suggest_layout(expr, proposal.layout)
        assert again.layout == proposal.layout
        assert again.rationale == ()


class TestPlacementCases:
    def test_target_and_midline_bound_in_a_chain(self):
        # the target alone has no room right of the horse, and the horse
        # must also move right of the midline
        expr = SpatialExpression(
            mentions=(ObjectMention("deer"), ObjectMention("sheep"), ObjectMention("horse")),
            relations=(
                RelationClause("deer", Relation.RIGHT, "horse", CAMERA),
                RelationClause("horse", Relation.RIGHT, FRAME, CAMERA),
            ),
        )
        lay = parse_wire_layout(
            "[('deer #1', [0.404, 0.64, 0.181, 0.205], 0.104, None), "
            "('sheep #2', [0.403, 0.494, 0.227, 0.156], 0.882, None), "
            "('horse #3', [0.314, 0.598, 0.212, 0.196], 0.633, None)]"
        )
        proposal = suggest_layout(expr, lay)
        assert evaluate(expr, proposal.layout).correct
        assert proposal.layout.find(2) == lay.find(2)

    def test_depth_tie_moves_the_target_alone(self):
        expr = SpatialExpression(
            mentions=(ObjectMention("cow"), ObjectMention("sheep")),
            relations=(RelationClause("cow", Relation.FRONT, "sheep", CAMERA),),
        )
        lay = layout(
            obj("cow", oid=1, x=0.1, depth=0.5),
            obj("sheep", oid=2, x=0.6, depth=0.5),
        )
        proposal = suggest_layout(expr, lay)
        assert proposal.layout.find(1).depth == 0.75
        assert proposal.layout.find(2) == lay.find(2)

    def test_kept_value_that_leaves_no_float_for_its_upper_neighbour(self):
        # the cow, one ulp below the frame's top, keeps its depth at first
        # and leaves the dog no float to take above it
        expr = SpatialExpression(
            mentions=(ObjectMention("cat"), ObjectMention("dog"), ObjectMention("cow")),
            relations=(
                RelationClause("cat", Relation.FRONT, "dog", CAMERA),
                RelationClause("dog", Relation.FRONT, "cow", CAMERA),
            ),
        )
        lay = layout(
            obj("cat", oid=1, depth=0.0),
            obj("dog", oid=2, x=0.4, depth=0.0),
            obj("cow", oid=3, x=0.7, depth=0.9999999999999999),
        )
        proposal = suggest_layout(expr, lay)
        assert evaluate(expr, proposal.layout).correct

    def test_longer_cycle_is_unsatisfiable(self):
        expr = SpatialExpression(
            mentions=(ObjectMention("cat"), ObjectMention("dog"), ObjectMention("cow")),
            relations=(
                RelationClause("cat", Relation.LEFT, "dog", CAMERA),
                RelationClause("dog", Relation.LEFT, "cow", CAMERA),
                RelationClause("cow", Relation.LEFT, "cat", CAMERA),
            ),
        )
        lay = layout(obj("cat", oid=1), obj("dog", oid=2, x=0.4), obj("cow", oid=3, x=0.7))
        with pytest.raises(UnsatisfiableError, match="cyclic horizontal"):
            suggest_layout(expr, lay)

    def test_cycle_through_the_midline_is_unsatisfiable(self):
        expr = SpatialExpression(
            mentions=(ObjectMention("cat"), ObjectMention("dog")),
            relations=(
                RelationClause("cat", Relation.LEFT, FRAME, CAMERA),
                RelationClause("dog", Relation.RIGHT, FRAME, CAMERA),
                RelationClause("dog", Relation.LEFT, "cat", CAMERA),
            ),
        )
        lay = layout(obj("cat", oid=1, x=0.7), obj("dog", oid=2, x=0.1))
        with pytest.raises(UnsatisfiableError, match="midline"):
            suggest_layout(expr, lay)


# ---------------------------------------------------------------------------
# the placement scans score candidates with ``row_worst_ious`` and must
# choose exactly what the scans that built a box per candidate chose


def _objects(boxes) -> list:
    return [obj("cat", oid=i + 1, x=b.x, y=b.y, w=b.w, h=b.h) for i, b in enumerate(boxes)]


@st.composite
def crowded_boxes(draw):
    """Boxes in 2-6 columns that tile the frame's width, 1-3 per column, so
    that no empty band is wide and the free-band placement scans."""
    cols = draw(st.integers(2, 6))
    boxes = []
    for c in range(cols):
        for _ in range(draw(st.integers(1, 3))):
            y, h = draw(extents(0.5))
            boxes.append(BBox(c / cols, y, 1.0 / cols, h))
    return boxes


@st.composite
def windows(draw, half: float) -> tuple[float, float]:
    """An open interval inside ``[half, 1 - half]``, as ``_place`` passes."""
    ends = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
    a, b = sorted([draw(ends), draw(ends)])
    lo = max(half, half + a * (1.0 - 2.0 * half))
    hi = min(1.0 - half, half + b * (1.0 - 2.0 * half))
    assume(lo < hi)
    return lo, hi


def _record_candidates(mp) -> list:
    """Record every row ``row_worst_ious`` scores for the interpreter."""
    rows = []
    real = interpreter.row_worst_ious

    def spy(xs, y, w, h, boxes):
        rows.append((list(xs), y, w, h))
        return real(xs, y, w, h, boxes)

    mp.setattr(interpreter, "row_worst_ious", spy)
    return rows


def _assert_valid_boxes(rows) -> None:
    for xs, y, w, h in rows:
        for x in xs:
            BBox(x, y, w, h)


class TestPlacementScans:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_choose_cx_matches_the_reference(self, data):
        box = data.draw(bboxes(0.45))
        lo, hi = data.draw(windows(box.w / 2.0))
        others = _objects(data.draw(crowded_boxes() | st.lists(bboxes(), max_size=8)))
        moved = obj("dog", oid=99, x=box.x, y=box.y, w=box.w, h=box.h)
        with pytest.MonkeyPatch.context() as mp:
            rows = _record_candidates(mp)
            cx = _choose_cx(lo, hi, moved, others)
        assert cx.hex() == reference_choose_cx(lo, hi, moved, others).hex()
        assert len(rows) == 1 and len(rows[0][0]) == 41
        _assert_valid_boxes(rows)

    @pytest.mark.parametrize(
        "lo,hi,obstacle,w",
        [
            (0.25, 0.75, 0.1, 0.2),
            (0.1, 0.9, 0.2, 0.2),
            (0.125, 0.875, 0.3, 0.2),
            (0.2, 0.8, 0.3, 0.05),
        ],
    )
    def test_choose_cx_keeps_the_first_of_two_spots_equally_near_the_midpoint(
        self, lo, hi, obstacle, w
    ):
        # a box centred on the window's midpoint leaves overlap-free spots
        # on both sides, the nearest two at exactly the same distance
        moved = obj("dog", oid=9, y=0.3, w=w)
        others = [obj("cat", oid=1, x=0.5 - obstacle / 2.0, y=0.3, w=obstacle)]
        cx = _choose_cx(lo, hi, moved, others)
        assert cx.hex() == reference_choose_cx(lo, hi, moved, others).hex()
        assert cx < 0.5

    @settings(max_examples=150, deadline=None)
    @given(satisfiable_problems())
    def test_solver_moves_match_the_reference(self, problem):
        expr, lay = problem
        calls = []

        def checked(lo, hi, moved, others):
            cx = _choose_cx(lo, hi, moved, others)
            assert cx.hex() == reference_choose_cx(lo, hi, moved, others).hex()
            calls.append(cx)
            return cx

        with pytest.MonkeyPatch.context() as mp:
            rows = _record_candidates(mp)
            mp.setattr(interpreter, "_choose_cx", checked)
            suggest_layout(expr, lay)
        assert len(rows) == len(calls)
        _assert_valid_boxes(rows)

    @settings(max_examples=400, deadline=None)
    @given(
        crowded_boxes() | st.lists(bboxes(), max_size=10),
        extents(0.9),
        extents(0.3),
    )
    # a box as wide as the frame on every scanned row: no spot is under 0.5 IoU
    @example(
        [BBox(x, y, 0.95, 0.3) for y in (0.375, 0.05, 0.7) for x in (0.0, 0.05)],
        (0.0, 0.95),
        (0.0, 0.3),
    )
    def test_free_band_matches_the_reference(self, boxes, width, height):
        # the reference's scan raises a bare ValueError on a box taller than 0.3
        w, h = width[1], height[1]
        objects = _objects(boxes)
        try:
            expected = reference_place_in_free_band(objects, w, h)
        except OverlapCollisionError:
            with pytest.raises(OverlapCollisionError):
                place_in_free_band(objects, w, h)
            return
        with pytest.MonkeyPatch.context() as mp:
            rows = _record_candidates(mp)
            box = place_in_free_band(objects, w, h)
        assert [v.hex() for v in box.as_list()] == [v.hex() for v in expected.as_list()]
        _assert_valid_boxes(rows)

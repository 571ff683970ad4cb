"""The builtin solver's gate: a settled layout is one the solver leaves alone.

``settled(expr, layout, evaluate(expr, layout))`` lets the loop skip the
solver, so whenever it holds the solver must return the layout itself,
with an empty rationale, and raise nothing. The layouts drawn here are
benchmark samples' gold and initial layouts, as they are or as perceived
under random noise, with extra objects the evaluator does not count
(unmentioned nouns, twins that miss a mention's attribute) and negations
the generator never writes.
"""

from __future__ import annotations

from hypothesis import event, given, settings
from hypothesis import strategies as st

from scenefix import (
    BBox,
    FacingDirection,
    PerceptionConfig,
    SceneObject,
    SpatialExpression,
    apply_corruption,
    evaluate,
    generate_for_lmd,
    generate_forest_style,
    perceive,
    scene_from_layout,
    suggest_layout,
)
from scenefix.benchgen import NOUNS
from scenefix.interpreter import settled
from scenefix.rules import convert_expression

SAMPLES = tuple(
    sample
    for generate in (generate_for_lmd, generate_forest_style)
    for seed in range(3)
    for sample in apply_corruption(generate(20, seed=seed), fraction=0.8, seed=seed)[0]
)


def _noise(draw) -> PerceptionConfig:
    """Each of the five knobs off or at a drawn level."""

    def knob(top: float) -> float:
        return draw(st.sampled_from([0.0, top * draw(st.floats(0.1, 1.0))]))

    return PerceptionConfig(
        bbox_jitter_sigma=knob(0.05), depth_sigma=knob(0.05), facing_flip_rate=knob(0.3),
        dropout_rate=knob(0.3), duplicate_rate=knob(0.3),
    )


def _extra_object(draw, lay, name: str, attributes: tuple[str, ...]) -> SceneObject:
    w, h = draw(st.floats(0.05, 0.3)), draw(st.floats(0.05, 0.3))
    return SceneObject(
        name, attributes, lay.max_object_id() + 1,
        BBox(draw(st.floats(0.0, 1.0 - w)), draw(st.floats(0.0, 1.0 - h)), w, h),
        draw(st.floats(0.0, 1.0)), FacingDirection.NONE,
    )


@st.composite
def gated_cases(draw):
    """(expression, layout): a sample's prompt and a layout to gate on."""
    sample = draw(st.sampled_from(SAMPLES))
    expr = sample.annotation
    lay = draw(st.sampled_from([sample.gold_layout, sample.initial_layout]))
    if draw(st.booleans()):
        lay = perceive(
            scene_from_layout(lay), expr.mentions, _noise(draw), seed=draw(st.integers(0, 2**32))
        )
    mentioned = [m.name for m in expr.mentions]
    negations = list(expr.negations)
    for kind in draw(st.lists(st.sampled_from(["unmentioned", "twin", "negation"]), max_size=2)):
        if kind == "unmentioned":
            noun = draw(st.sampled_from([n for n in NOUNS if n not in mentioned]))
            lay = lay.with_objects(lay.objects + (_extra_object(draw, lay, noun, ()),))
        elif kind == "twin":
            # one attribute short of a mention, so the count stage passes it over
            mention = draw(st.sampled_from(expr.mentions))
            twin = _extra_object(draw, lay, mention.name, mention.attributes[1:])
            lay = lay.with_objects(lay.objects + (twin,))
        else:
            noun = draw(st.sampled_from(mentioned + [n for n in NOUNS if n not in mentioned]))
            negations.append(draw(st.sampled_from([noun, noun + "s"])))
    expr = SpatialExpression(
        expr.mentions, expr.relations, expr.facings, tuple(negations), expr.background,
        expr.raw_text,
    )
    return expr, lay


@settings(max_examples=400, deadline=None)
@given(gated_cases())
def test_a_settled_layout_is_what_the_solver_returns(case):
    expr, lay = case
    is_settled = settled(expr, lay, evaluate(expr, lay))
    event(f"settled: {is_settled}")
    if is_settled:
        proposal = suggest_layout(convert_expression(expr, lay), lay)
        assert proposal.layout == lay
        assert proposal.rationale == ()


def test_gold_layouts_are_settled_and_corrupted_ones_are_not():
    for sample in SAMPLES:
        expr = sample.annotation
        assert settled(expr, sample.gold_layout, evaluate(expr, sample.gold_layout))
        initial = evaluate(expr, sample.initial_layout)
        assert settled(expr, sample.initial_layout, initial) == initial.correct

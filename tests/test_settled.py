"""The loop's gate: a settled layout is one the solver leaves alone.

A round asks the solver only when its perceived verdict is not correct;
a perceived layout whose verdict is correct is settled. Whenever it is,
the builtin solver must return the perceived layout itself, with an
empty rationale, and raise nothing. That holds because perception reports only objects that match a mention
and a correct verdict counts one per mention. The scenes drawn here are
benchmark samples' gold and initial layouts with extra objects the
evaluator does not count (unmentioned nouns, twins that miss a mention's
attribute) and negations of unmentioned nouns, perceived under random
noise. Perceived without noise, every gold layout is settled and an
initial layout is settled exactly when its own verdict is correct.
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
from scenefix.dsl import _matches_negation
from scenefix.perception import ZERO_NOISE
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
def perceived_cases(draw):
    """(expression, layout): a sample's prompt and its scene as perceived."""
    sample = draw(st.sampled_from(SAMPLES))
    expr = sample.annotation
    lay = draw(st.sampled_from([sample.gold_layout, sample.initial_layout]))
    mentioned = [m.name for m in expr.mentions]
    unmentioned = [n for n in NOUNS if n not in mentioned]
    # nouns and plurals the prompt may negate: none covers a mention
    negatable = [
        v for n in unmentioned for v in (n, n + "s")
        if not any(_matches_negation(m, v) for m in mentioned)
    ]
    negations = list(expr.negations)
    for kind in draw(st.lists(st.sampled_from(["unmentioned", "twin", "negation"]), max_size=3)):
        if kind == "unmentioned":
            noun = draw(st.sampled_from(unmentioned))
            lay = lay.with_objects(lay.objects + (_extra_object(draw, lay, noun, ()),))
        elif kind == "twin":
            # one attribute short of a mention, so perception passes it over
            # unless the mention has no attribute to miss
            mention = draw(st.sampled_from(expr.mentions))
            twin = _extra_object(draw, lay, mention.name, mention.attributes[1:])
            lay = lay.with_objects(lay.objects + (twin,))
        else:
            negations.append(draw(st.sampled_from(negatable)))
    expr = SpatialExpression(
        expr.mentions, expr.relations, expr.facings, tuple(negations), expr.background
    )
    perceived = perceive(
        scene_from_layout(lay), expr.mentions, _noise(draw), seed=draw(st.integers(0, 2**32))
    )
    return expr, perceived


@settings(max_examples=400, deadline=None)
@given(perceived_cases())
def test_a_settled_layout_is_what_the_solver_returns(case):
    expr, perceived = case
    is_settled = evaluate(expr, perceived).correct
    event(f"settled: {is_settled}")
    if is_settled:
        proposal = suggest_layout(convert_expression(expr, perceived), perceived)
        assert proposal.layout == perceived
        assert proposal.rationale == ()


def test_gold_layouts_are_settled_and_corrupted_ones_are_not():
    for sample in SAMPLES:
        expr = sample.annotation
        gold = perceive(scene_from_layout(sample.gold_layout), expr.mentions, ZERO_NOISE, seed=0)
        assert evaluate(expr, gold).correct
        initial = perceive(
            scene_from_layout(sample.initial_layout), expr.mentions, ZERO_NOISE, seed=0
        )
        assert evaluate(expr, initial).correct == evaluate(expr, sample.initial_layout).correct

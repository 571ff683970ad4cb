"""Every text boundary fails with a typed SceneFixError, raised where the text is parsed.

Prompts and wire layouts may raise any SceneFixError; a dataset record
only DatasetError; an interpreter reply only ProtocolError (syntax) or
LayoutValidationError (ranges, duplicate ids). A prompt that parses runs
through the correction loop raising at most a SceneFixError.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scenefix import (
    BBox,
    BenchmarkSample,
    DatasetError,
    ExpressionParseError,
    FacingDirection,
    Intrinsic,
    LayoutValidationError,
    ProtocolError,
    SceneFixError,
    SceneLayout,
    SceneObject,
    WireFormatError,
    generate_for_lmd,
    generate_forest_style,
    parse_expression,
    parse_wire_layout,
)
from scenefix.cli import main
from scenefix.interpreter import _parse_response_line
from scenefix.pipeline import RunConfig, run_sample
from scenefix.wire import load_layouts, sample_from_record, sample_to_record, write_ndjson

_RECORDS = [
    sample_to_record(s) for s in generate_for_lmd(30, seed=14) + generate_forest_style(30, seed=14)
]
_PROMPTS = [r["prompt"] for r in _RECORDS]
_WIRES = [r[key] for r in _RECORDS for key in ("gold_layout", "initial_layout")]

# What one edit writes: characters the grammars care about (a dotless i
# too, which case-insensitive matching reads as i), a few words, a
# perspective on an object no prompt mentions, and nothing (a deletion).
_PIECES = (
    *"abcxyz AZ019#'.,-+e[]()é²ı",
    "", "", " and ", "'s", "horse", "frame", " facing ", " left of ", "None", "'Left'", "1e9",
    "-0.5",
    " from the horse's perspective", " from the dog's view", "9" * 30,
)


@st.composite
def _mutated(draw, texts, pieces=_PIECES):
    """One of ``texts`` after 1-4 edits, each replacing a span of 0-8 characters."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 8)))
        text = text[:start] + draw(st.sampled_from(pieces)) + text[end:]
    return text


class TestMutatedText:
    @settings(max_examples=400, deadline=None)
    @given(_mutated(_PROMPTS))
    def test_prompt_parse_fails_only_typed(self, text):
        try:
            parse_expression(text)
        except SceneFixError:
            pass

    @settings(max_examples=400, deadline=None)
    @given(_mutated(_WIRES))
    def test_wire_parse_fails_only_typed(self, text):
        try:
            parse_wire_layout(text)
        except SceneFixError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_record_fails_only_as_dataset_error(self, data):
        record = dict(data.draw(st.sampled_from(_RECORDS)))
        keys = st.sampled_from(["prompt", "gold_layout", "initial_layout"])
        for key in data.draw(st.lists(keys, min_size=1, max_size=3)):
            record[key] = data.draw(_mutated([record[key]]))
        try:
            sample_from_record(record, line=7)
        except DatasetError as err:
            assert err.line == 7

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_reply_fails_only_as_protocol_or_validation_error(self, data):
        record = data.draw(st.sampled_from(_RECORDS))
        prompt = record["prompt"]
        wire = data.draw(_mutated([record["gold_layout"]]))
        reply = json.dumps({"updated_prompt": prompt, "layout": wire, "reasoning": ""})
        try:
            _parse_response_line(reply, parse_expression(prompt))
        except (ProtocolError, LayoutValidationError):
            pass


class TestUnmentionedAnchor:
    @pytest.mark.parametrize(
        "prompt, offset",
        [
            ("A cat is to the left of a dog from the horse's perspective.", 0),
            ("A bird is on the left. A cat is to the left of a dog from the horse's view.", 23),
            ("A bird and a cat is to the left of a dog from the horse's view.", 11),
            ("An oil painting of a cat to the left of a dog from the horse's view.", 19),
        ],
    )
    def test_is_a_parse_error_at_its_segment(self, prompt, offset):
        with pytest.raises(ExpressionParseError) as err:
            parse_expression(prompt)
        assert err.value.offset == offset
        assert str(err.value) == f"perspective anchor 'horse' is not mentioned (byte offset {offset})"
        # the same offset a grammar fault in that segment reports
        with pytest.raises(ExpressionParseError) as fault:
            parse_expression(prompt[:offset] + "@@@")
        assert fault.value.offset == offset

    def test_a_later_segment_may_mention_the_anchor(self):
        expr = parse_expression("A cat is to the left of a dog from the horse's perspective. A horse.")
        assert expr.relations[0].perspective == Intrinsic("horse")

    def test_a_grammar_fault_in_a_later_segment_wins(self):
        with pytest.raises(ExpressionParseError, match="cannot parse segment '@@@'"):
            parse_expression("A cat is to the left of a dog from the horse's view. @@@")

    def test_the_first_unmentioned_anchor_is_reported(self):
        with pytest.raises(ExpressionParseError) as err:
            parse_expression(
                "A cat is to the left of a dog from the horse's view. "
                "A cup is in front of a dog from the bird's view."
            )
        assert "'horse'" in str(err.value) and err.value.offset == 0

    def test_record_error_ends_with_the_offset(self):
        record = dict(_RECORDS[0], prompt="A cat is to the left of a dog from the horse's view.")
        with pytest.raises(DatasetError) as err:
            sample_from_record(record, line=3)
        assert str(err.value) == (
            "prompt does not parse: perspective anchor 'horse' is not mentioned"
            " (byte offset 0) (line 3)"
        )


class TestClauseTheModelRefuses:
    """Clauses the grammar accepts but the data model refuses fail typed."""

    CASES = [
        ("A bird. A cat is to the left of the cat.", 8, "relates 'cat' to itself"),
        # a frame relatum under an object perspective
        ("A cat is to the left of the frame from the dog's view. A dog.", 0, "camera-anchored"),
        # case-insensitive matching reads the dotless i as i
        ("A bird. A cat is to the r\u0131ght of a dog.", 8, "not a valid Relation"),
    ]

    @pytest.mark.parametrize("prompt, offset, message", CASES)
    def test_is_a_parse_error_at_its_segment(self, prompt, offset, message):
        with pytest.raises(ExpressionParseError, match=message) as err:
            parse_expression(prompt)
        assert err.value.offset == offset
        assert isinstance(err.value.__cause__, ValueError)

    @pytest.mark.parametrize("prompt, offset, message", CASES)
    def test_record_is_dataset_error_with_its_line(self, prompt, offset, message):
        record = dict(_RECORDS[0], prompt=prompt)
        with pytest.raises(DatasetError, match=message) as err:
            sample_from_record(record, line=5)
        assert err.value.line == 5
        assert str(err.value).startswith("prompt does not parse: ")


_LONG_ID = "1" * 5000
_LONG_ID_WIRE = f"[('cat #{_LONG_ID}', [0.1, 0.1, 0.2, 0.2], 0.5, None)]"


class TestOverlongId:
    def test_wire_text_is_layout_validation_error(self):
        with pytest.raises(LayoutValidationError) as err:
            parse_wire_layout(_LONG_ID_WIRE)
        assert isinstance(err.value.__cause__, ValueError)

    def test_in_an_entry_the_grammar_refuses_is_wire_format_error(self):
        with pytest.raises(WireFormatError, match="4 numbers"):
            parse_wire_layout(f"[('cat #{_LONG_ID}', [0.1, 0.1, 0.2], 0.5, None)]")

    @pytest.mark.parametrize("key", ["gold_layout", "initial_layout"])
    def test_dataset_record_is_dataset_error(self, key):
        record = dict(_RECORDS[0], **{key: _LONG_ID_WIRE})
        with pytest.raises(DatasetError) as err:
            sample_from_record(record, line=4)
        assert err.value.line == 4

    def test_layout_override_is_dataset_error(self, tmp_path):
        path = str(tmp_path / "layouts.ndjson")
        write_ndjson(path, [{"id": "s1", "layout": _LONG_ID_WIRE}])
        with pytest.raises(DatasetError) as err:
            load_layouts(path)
        assert err.value.line == 1

    def test_reply_is_layout_validation_error(self):
        prompt = "A cat is on the left."
        reply = json.dumps({"updated_prompt": prompt, "layout": _LONG_ID_WIRE, "reasoning": ""})
        with pytest.raises(LayoutValidationError):
            _parse_response_line(reply, parse_expression(prompt))


# Shapes the grammar reads but the loop cannot run: a depth clause against
# the reserved frame relatum, a prompt that mentions no object, and one
# that negates a noun it mentions.
_LOOP_PIECES = (*_PIECES, " in front of the frame", "No ")
_NPS = ("a cat", "the red dog", "a horse", "the frame")
_TAILS = (
    "", " is on the right", " is to the left of a dog", " left of the horse",
    " in front of the frame", " is facing left", " from the horse's perspective",
)


@st.composite
def _loop_prompts(draw):
    """1-3 short sentences, some of them negations, and then perhaps 1-4 edits."""
    sentence = st.builds(
        "".join, st.tuples(st.sampled_from(("", "No ")), st.sampled_from(_NPS), st.sampled_from(_TAILS))
    )
    text = ". ".join(draw(st.lists(sentence, min_size=1, max_size=3))) + "."
    return draw(_mutated([text], _LOOP_PIECES)) if draw(st.booleans()) else text


def _one_object_per_mention(expr, facings) -> SceneLayout:
    n = len(expr.mentions)
    return SceneLayout(tuple(
        SceneObject(m.name, m.attributes, i + 1, BBox(i / n, 0.4, 1 / n, 0.2),
                    0.2 + 0.6 * i / n, facings[i % len(facings)])
        for i, m in enumerate(expr.mentions)
    ), expr.background)


class TestLoopBoundary:
    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(_loop_prompts(), _mutated(_PROMPTS, _LOOP_PIECES)),
        st.lists(st.sampled_from(list(FacingDirection)), min_size=1, max_size=4),
    )
    def test_a_parsed_prompt_fails_the_loop_only_typed(self, prompt, facings):
        try:
            expr = parse_expression(prompt)
        except SceneFixError:
            assume(False)
        layout = _one_object_per_mention(expr, facings)
        sample = BenchmarkSample("s", prompt, expr, layout, layout, "relative", "for-lmd")
        try:
            run_sample(sample, RunConfig(dataset_path="unused", rounds=1))
        except SceneFixError:
            pass


class TestShapesTheLoopCannotRun:
    # (prompt, byte offset, message, the annotation an unrefused parse gave)
    CASES = [
        (
            "A cat is in front of the frame.", 0, "frame-relative clauses are horizontal only",
            {
                "mentions": [{"name": "cat", "attributes": []}, {"name": "frame", "attributes": []}],
                "relations": [{"target": "cat", "relation": "front", "relatum": "frame",
                               "perspective": {"kind": "camera"}}],
                "facings": [], "negations": [], "background": "A realistic image",
            },
        ),
        (
            "No cats.", 0, "no object is mentioned",
            {"mentions": [], "relations": [], "facings": [], "negations": ["cats"],
             "background": "A realistic image"},
        ),
        (
            "An oil painting of no cats.", 19, "no object is mentioned",
            {"mentions": [], "relations": [], "facings": [], "negations": ["cats"],
             "background": "An oil painting"},
        ),
        (
            "A dog is on the left and a cat. No dogs.", 32,
            "negated noun 'dogs' covers the mention 'dog'",
            {
                "mentions": [{"name": "dog", "attributes": []}, {"name": "cat", "attributes": []}],
                "relations": [{"target": "dog", "relation": "left", "relatum": "frame",
                               "perspective": {"kind": "camera"}}],
                "facings": [], "negations": ["dogs"], "background": "A realistic image",
            },
        ),
    ]

    @pytest.mark.parametrize("prompt, offset, message, annotation", CASES)
    def test_is_a_parse_error_at_its_offset(self, prompt, offset, message, annotation):
        with pytest.raises(ExpressionParseError, match=message) as err:
            parse_expression(prompt)
        assert err.value.offset == offset

    @pytest.mark.parametrize("prompt, offset, message, annotation", CASES)
    def test_record_is_dataset_error_with_its_line(self, prompt, offset, message, annotation):
        record = dict(_RECORDS[0], prompt=prompt)
        with pytest.raises(DatasetError, match=message) as err:
            sample_from_record(record, line=5)
        assert err.value.line == 5
        # the annotation an unrefused parse wrote is refused too
        with pytest.raises(DatasetError) as err:
            sample_from_record(dict(record, annotation=annotation), line=6)
        assert err.value.line == 6

    @pytest.mark.parametrize("prompt, offset, message, annotation", CASES)
    def test_run_exits_1_naming_the_line(self, tmp_path, capsys, prompt, offset, message, annotation):
        wire = "[('cat #1', [0.1, 0.1, 0.2, 0.2], 0.5, None)]"
        bad = dict(_RECORDS[0], prompt=prompt, annotation=annotation,
                   gold_layout=wire, initial_layout=wire)
        path = str(tmp_path / "data.ndjson")
        write_ndjson(path, [_RECORDS[0], bad])
        assert main(["run", "--dataset", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.rstrip().endswith("(line 2)")

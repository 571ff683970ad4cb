"""Wire grammar for layouts and NDJSON dataset round-trips."""

from __future__ import annotations

import copy
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenefix import (
    BBox,
    DatasetError,
    DuplicateIdError,
    FacingDirection,
    LayoutValidationError,
    WireFormatError,
    generate_for_lmd,
    generate_forest_style,
    parse_expression,
    parse_wire_layout,
    read_dataset,
    serialize_wire_layout,
    write_dataset,
)
from scenefix.benchgen import apply_corruption
from scenefix.edits import Reposition, diff_layouts
from scenefix.wire import (
    annotation_from_json,
    annotation_to_json,
    fmt_number,
    load_layouts,
    read_ndjson,
    restore_sent,
    sample_from_record,
    sample_to_record,
    write_ndjson,
)

from helpers import NON_ASCII_WIRE, layout, obj, random_layout


class TestNumberFormat:
    @pytest.mark.parametrize(
        "value,text",
        [
            (0.25, "0.25"),
            (1.0, "1"),
            (0.0, "0"),
            (0.3001, "0.3"),
            (0.1239, "0.124"),
            (-0.0001, "0"),
            (0.5, "0.5"),
        ],
    )
    def test_formatting(self, value, text):
        assert fmt_number(value) == text

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_parses_back_within_half_grid_step(self, value):
        assert abs(float(fmt_number(value)) - value) <= 5e-4


class TestLayoutGrammar:
    def test_serialize_shape(self):
        lay = layout(
            obj("cat", oid=1, attrs=("red",), x=0.1, y=0.2, w=0.3, h=0.25,
                depth=0.5, facing=FacingDirection.LEFT),
        )
        text = serialize_wire_layout(lay)
        assert text == "[('red cat #1', [0.1, 0.2, 0.3, 0.25], 0.5, 'Left')]"

    def test_unknown_facing_serializes_bare(self):
        text = serialize_wire_layout(layout(obj("cat")))
        assert ", None)" in text

    def test_empty_layout(self):
        assert serialize_wire_layout(layout()) == "[]"
        assert parse_wire_layout("[]").objects == ()

    def test_parse_canonical(self):
        text = "[('red cat #1', [0.1, 0.2, 0.3, 0.25], 0.5, 'Left')]"
        lay = parse_wire_layout(text)
        o = lay.objects[0]
        assert o.name == "cat"
        assert o.attributes == ("red",)
        assert o.object_id == 1
        assert o.bbox == BBox(0.1, 0.2, 0.3, 0.25)
        assert o.depth == 0.5
        assert o.facing is FacingDirection.LEFT

    def test_parse_is_bracket_and_space_tolerant(self):
        for text in (
            "('cat #1', [0.1,0.2,0.3,0.25], 0.5, None)",
            "  [ ('cat #1',[0.1, 0.2 ,0.3,0.25] , 0.5 , None) ]  ",
        ):
            lay = parse_wire_layout(text)
            assert lay.objects[0].name == "cat"

    def test_multiword_name_with_attribute(self):
        lay = parse_wire_layout("[('large fire hydrant #3', [0, 0, 0.2, 0.2], 1, None)]")
        o = lay.objects[0]
        assert o.name == "fire hydrant"
        assert o.attributes == ("large",)
        assert o.depth == 1.0

    def test_attribute_word_alone_is_a_name(self):
        # peeling must stop before it would empty the name
        o = parse_wire_layout("[('red #1', [0, 0, 0.1, 0.1], 0.5, None)]").objects[0]
        assert o.name == "red"
        assert o.attributes == ()

    @pytest.mark.parametrize(
        "bad",
        [
            "[('cat', [0, 0, 0.1, 0.1], 0.5, None)]",  # no id
            "[('cat #1', [0, 0, 0.1], 0.5, None)]",  # bbox arity
            "[('cat #1', [0, 0, 0.1, 0.1], 0.5, 'Sideways')]",  # facing label
            "[('cat #1', [0, 0, 0.1, 0.1], 0.5, None) junk]",  # trailing junk
            "not a layout",
            "[('cat #1', [0, 0, 0.1, 0.1], abc, None)]",  # bad number
        ],
    )
    def test_malformed_text_rejected(self, bad):
        with pytest.raises(WireFormatError):
            parse_wire_layout(bad)

    def test_range_violations_are_layout_validation_errors(self):
        with pytest.raises(LayoutValidationError):
            parse_wire_layout("[('cat #1', [0, 0, 0.1, 0.1], 1.5, None)]")
        with pytest.raises(DuplicateIdError):
            parse_wire_layout(
                "[('cat #1', [0, 0, 0.1, 0.1], 0.5, None), "
                "('dog #1', [0.5, 0.5, 0.1, 0.1], 0.5, None)]"
            )

    def test_non_string_rejected(self):
        with pytest.raises(WireFormatError):
            parse_wire_layout(["not", "text"])

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=200, deadline=None)
    def test_grid_layout_round_trips_field_identical(self, seed):
        lay = random_layout(random.Random(seed))
        assert parse_wire_layout(serialize_wire_layout(lay)) == lay


class TestRestoreSent:
    """An interpreter's reply is diffed against the wire text it was sent."""

    # perceived values off the 3-decimal grid, as noisy perception gives them
    SENT = layout(
        obj("cat", oid=1, x=0.12345, y=0.2, depth=0.56789),
        obj("dog", oid=2, x=0.6, depth=0.30004, attrs=("red",)),
    )

    def test_an_entry_sent_back_unchanged_is_no_edit(self):
        reply = parse_wire_layout(serialize_wire_layout(self.SENT))
        assert reply != self.SENT  # the wire rounded both objects
        assert restore_sent(self.SENT, reply) == self.SENT
        assert diff_layouts(self.SENT, restore_sent(self.SENT, reply)) == []

    def test_an_entry_printed_one_step_off_is_a_reposition(self):
        text = serialize_wire_layout(self.SENT)
        assert "0.123, 0.2," in text
        reply = parse_wire_layout(text.replace("0.123, 0.2,", "0.124, 0.2,"))
        actions = diff_layouts(self.SENT, restore_sent(self.SENT, reply))
        assert actions == [Reposition(1, BBox(0.124, 0.2, 0.2, 0.2))]

    def test_a_new_id_or_a_value_that_prints_differently_is_kept(self):
        reply = layout(obj("cat", oid=3, x=0.12345, y=0.2, depth=0.56789), obj("dog", oid=2))
        assert restore_sent(self.SENT, reply) is reply


class TestAnnotationJson:
    def test_round_trip(self):
        for sample in generate_for_lmd(25, seed=78):
            data = annotation_to_json(sample.annotation)
            json.dumps(data)  # must be plain JSON types
            assert annotation_from_json(data) == sample.annotation

    def test_bad_payload_rejected(self):
        with pytest.raises(WireFormatError):
            annotation_from_json({"mentions": "nope"})
        with pytest.raises(WireFormatError):
            annotation_from_json({})


class TestDatasetFiles:
    def test_write_read_round_trip(self, tmp_path):
        samples = generate_for_lmd(15, seed=78)
        path = str(tmp_path / "bench.ndjson")
        write_dataset(path, samples)
        assert read_dataset(path) == samples

    def test_an_uncorrupted_record_parses_its_layout_once(self, monkeypatch):
        from scenefix import wire

        parsed = []
        real = wire.parse_wire_layout
        monkeypatch.setattr(
            wire, "parse_wire_layout", lambda text, bg: parsed.append(text) or real(text, bg)
        )
        samples, _ = apply_corruption(generate_for_lmd(10, seed=78), 0.5, 78)
        records = [sample_to_record(s) for s in samples]
        uncorrupted = 0
        for record in records:
            parsed.clear()
            sample = sample_from_record(record)
            gold, initial = record["gold_layout"], record["initial_layout"]
            assert sample.initial_layout == real(initial, sample.annotation.background)
            if gold == initial:
                uncorrupted += 1
                assert parsed == [gold]
            else:
                assert parsed == [gold, initial]
        assert uncorrupted == 5

    def test_ndjson_is_deterministic(self, tmp_path):
        samples = generate_for_lmd(10, seed=78)
        p1, p2 = str(tmp_path / "a.ndjson"), str(tmp_path / "b.ndjson")
        write_dataset(p1, samples)
        write_dataset(p2, samples)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "broken.ndjson"
        good = sample_to_record(generate_for_lmd(1, seed=1)[0])
        bad = dict(good)
        del bad["prompt"]
        bad["id"] = "other"
        write_ndjson(str(path), [good, bad])
        with pytest.raises(DatasetError) as err:
            read_dataset(str(path))
        assert "line 2" in str(err.value)

    def test_invalid_json_line_rejected(self, tmp_path):
        path = tmp_path / "broken.ndjson"
        path.write_text('{"id": 1}\nnot json\n', encoding="utf-8")
        with pytest.raises(DatasetError):
            read_ndjson(str(path))

    def test_missing_file_is_dataset_error(self, tmp_path):
        with pytest.raises(DatasetError):
            read_ndjson(str(tmp_path / "absent.ndjson"))

    def test_prompt_annotation_mismatch_rejected(self, tmp_path):
        record = sample_to_record(generate_for_lmd(1, seed=1)[0])
        record["prompt"] = "a cat"
        with pytest.raises(DatasetError):
            sample_from_record(record, line=1)

    @pytest.mark.parametrize(
        "prompt",
        [5, ["x"], {"a": 1}, "A red cat is left of a dog from the cup's perspective."],
    )
    def test_unusable_prompt_is_dataset_error(self, tmp_path, prompt):
        record = sample_to_record(generate_for_lmd(1, seed=1)[0])
        record["prompt"] = prompt
        path = tmp_path / "records.ndjson"
        write_ndjson(str(path), [sample_to_record(generate_for_lmd(1, seed=2)[0]), record])
        with pytest.raises(DatasetError) as err:
            read_dataset(str(path))
        assert err.value.line == 2

    def test_sub_pixel_initial_box_is_dataset_error(self, tmp_path):
        # a box that covers no pixel center of the rendered grid
        good = sample_to_record(generate_for_lmd(1, seed=1)[0])
        bad = sample_to_record(generate_for_lmd(1, seed=2)[0])
        initial = parse_wire_layout(bad["initial_layout"])
        first = initial.objects[0].replace(bbox=BBox(0.3, 0.521, 0.001, 0.001))
        bad["initial_layout"] = serialize_wire_layout(initial.with_objects((first, *initial.objects[1:])))
        path = tmp_path / "records.ndjson"
        write_ndjson(str(path), [good, bad])
        with pytest.raises(DatasetError) as err:
            read_dataset(str(path))
        assert err.value.line == 2
        assert "covers no pixel center on a 64x64 grid" in str(err.value)

    def test_load_layout_overrides(self, tmp_path):
        path = tmp_path / "layouts.ndjson"
        lay = layout(obj("cat", oid=1, depth=0.5))
        write_ndjson(
            str(path), [{"id": "s1", "layout": serialize_wire_layout(lay)}]
        )
        loaded = load_layouts(str(path))
        assert set(loaded) == {"s1"}
        assert loaded["s1"] == lay

    @pytest.mark.parametrize("line", ["5", "null", '"text"', "[1]"])
    @pytest.mark.parametrize("reader", [read_dataset, load_layouts])
    def test_non_object_record_is_dataset_error(self, tmp_path, reader, line):
        path = tmp_path / "records.ndjson"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(DatasetError) as err:
            reader(str(path))
        assert err.value.line == 1

    @pytest.mark.parametrize("reader", [read_dataset, load_layouts, read_ndjson])
    def test_non_utf8_line_is_dataset_error(self, tmp_path, reader):
        path = tmp_path / "records.ndjson"
        path.write_bytes(b"\n\xff\xfe{}\n")
        with pytest.raises(DatasetError) as err:
            reader(str(path))
        assert err.value.line == 2

    def test_repeated_layout_id_is_dataset_error_at_the_repeat(self, tmp_path):
        path = tmp_path / "layouts.ndjson"
        cat, dog = layout(obj("cat", oid=1)), layout(obj("dog", oid=1))
        write_ndjson(str(path), [
            {"id": "s1", "layout": serialize_wire_layout(cat)},
            {"id": "s2", "layout": serialize_wire_layout(cat)},
            {"id": "s1", "layout": serialize_wire_layout(dog)},
        ])
        with pytest.raises(DatasetError) as err:
            load_layouts(str(path))
        assert err.value.line == 3
        assert "'s1' is repeated" in str(err.value)

    def test_load_layouts_needs_both_fields(self, tmp_path):
        path = tmp_path / "layouts.ndjson"
        write_ndjson(str(path), [{"id": "s1"}])
        with pytest.raises(DatasetError):
            load_layouts(str(path))


# ---------------------------------------------------------------------------
# the NDJSON boundary: arbitrary byte lines in, only DatasetError out

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)
_RECORDS = [
    sample_to_record(s) for s in generate_for_lmd(3, seed=5) + generate_forest_style(2, seed=5)
]


def _paths(value, prefix=()):
    """Every key path into a JSON value, parents before children."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def _mutated_record(draw):
    """A valid sample record with one field, at any depth, deleted or retyped."""
    record = copy.deepcopy(draw(st.sampled_from(_RECORDS)))
    path = draw(st.sampled_from(list(_paths(record))))
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(_JSON)
    return record


_LAYOUT_TEXT = st.sampled_from([r["gold_layout"] for r in _RECORDS])
_LAYOUT_RECORD = st.fixed_dictionaries({
    "id": st.text(max_size=6) | _JSON,
    "layout": _LAYOUT_TEXT | _LAYOUT_TEXT.map(lambda t: t[: len(t) // 2]) | _JSON,
})
_LINE = st.one_of(
    st.binary(max_size=40),
    _JSON.map(json.dumps).map(str.encode),
    _mutated_record().map(json.dumps).map(str.encode),
    _LAYOUT_RECORD.map(json.dumps).map(str.encode),
)


class TestReaderBoundary:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_LINE, min_size=1, max_size=4))
    def test_only_dataset_errors_escape(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.ndjson"
            path.write_bytes(b"\n".join(lines) + b"\n")
            for reader in (read_dataset, load_layouts):
                try:
                    reader(str(path))
                except DatasetError as err:
                    assert err.line >= 1

    @pytest.mark.parametrize("line", ["[" * 100_000, "1" * 5000])
    @pytest.mark.parametrize("reader", [read_dataset, load_layouts])
    def test_json_the_decoder_refuses_is_dataset_error(self, tmp_path, reader, line):
        path = tmp_path / "records.ndjson"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(DatasetError) as err:
            reader(str(path))
        assert err.value.line == 1

    @pytest.mark.parametrize("key", ["id", "split", "source"])
    def test_non_text_sample_field_is_dataset_error(self, tmp_path, key):
        record = sample_to_record(generate_for_lmd(1, seed=1)[0])
        record[key] = ["x"]
        path = tmp_path / "records.ndjson"
        write_ndjson(str(path), [record])
        with pytest.raises(DatasetError) as err:
            read_dataset(str(path))
        assert err.value.line == 1

    @pytest.mark.parametrize("sample_id", [5, None, ["x"], {"a": 1}])
    def test_non_text_layout_id_is_dataset_error(self, tmp_path, sample_id):
        path = tmp_path / "layouts.ndjson"
        write_ndjson(str(path), [{"id": sample_id, "layout": "[]"}])
        with pytest.raises(DatasetError) as err:
            load_layouts(str(path))
        assert err.value.line == 1


@pytest.mark.parametrize("text", NON_ASCII_WIRE)
def test_non_ascii_ids_and_numbers_are_wire_format_errors(text):
    with pytest.raises(WireFormatError):
        parse_wire_layout(text)


# ---------------------------------------------------------------------------
# record acceptance: the stored annotation must decode to the prompt's parse

_ANNOTATED = [
    sample_to_record(s) for s in generate_for_lmd(6, seed=11) + generate_forest_style(6, seed=11)
]


def _extra_key(data, ann):
    parts = [ann, *ann["mentions"], *ann["relations"]]
    data.draw(st.sampled_from(parts))[data.draw(st.sampled_from(["note", "z"]))] = 1


def _other_kind(data, ann):
    if ann["relations"]:
        data.draw(st.sampled_from(ann["relations"]))["perspective"]["kind"] = "other"


def _camera_with_relatum(data, ann):
    if ann["relations"]:
        clause = data.draw(st.sampled_from(ann["relations"]))
        clause["perspective"] = {"kind": "camera", "relatum": clause["relatum"]}


def _reorder(data, ann):
    target = data.draw(st.sampled_from([ann["mentions"], *(m["attributes"] for m in ann["mentions"])]))
    target[:] = data.draw(st.permutations(target))


def _flip_relation(data, ann):
    if ann["relations"]:
        clause = data.draw(st.sampled_from(ann["relations"]))
        clause["relation"] = data.draw(
            st.sampled_from([r for r in ("left", "right", "front", "back") if r != clause["relation"]])
        )


def _drop_facing(data, ann):
    if ann["facings"]:
        ann["facings"].pop(data.draw(st.integers(0, len(ann["facings"]) - 1)))


_ANNOTATION_EDITS = [
    _extra_key, _other_kind, _camera_with_relatum, _reorder, _flip_relation, _drop_facing,
]


class TestRecordAcceptance:
    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(min_value=1, max_value=10**6))
    def test_accepts_exactly_when_the_annotation_decodes_to_the_prompt(self, data, line):
        record = copy.deepcopy(data.draw(st.sampled_from(_ANNOTATED)))
        for edit in data.draw(st.lists(st.sampled_from(_ANNOTATION_EDITS), min_size=1, max_size=3)):
            edit(data, record["annotation"])
        expected = annotation_from_json(record["annotation"]) == parse_expression(record["prompt"])
        try:
            sample = sample_from_record(record, line=line)
        except DatasetError as err:
            assert not expected, err
            assert err.line == line
        else:
            assert expected
            assert sample.annotation == parse_expression(record["prompt"])


# ---------------------------------------------------------------------------
# wire grammar tolerance: every documented variant parses to the same layout

_ASCII_SPACE = st.text(alphabet=" \t\n\r\f\v", max_size=3)


def _number_variant(data, value: float) -> str:
    text = fmt_number(value)
    form = data.draw(st.sampled_from(["plain", "plus", "exponent"]))
    if form == "plus":
        return "+" + text
    if form == "exponent":  # 0.125 -> 125e-3, exact because the decimal value is the same
        whole, _, frac = text.partition(".")
        marker = data.draw(st.sampled_from("eE"))
        return f"{int(whole + frac)}{marker}-{len(frac)}"
    return text


def _facing_variant(data, facing: FacingDirection) -> str:
    label = "".join(
        c.upper() if data.draw(st.booleans()) else c.lower() for c in facing.value
    )
    return f"'{label}'" if data.draw(st.booleans()) else label


def _entry_variant(data, o) -> str:
    sp = lambda: data.draw(_ASCII_SPACE)  # noqa: E731
    words = " ".join(sp() + w for w in (*o.attributes, o.name))
    head = f"{words}{sp()}#{sp()}{o.object_id}{sp()}"
    numbers = [_number_variant(data, v) for v in o.bbox.as_list()]
    box = f"{sp()},{sp()}".join(numbers) + ("," if data.draw(st.booleans()) else "")
    return (
        f"({sp()}'{head}'{sp()},{sp()}[{sp()}{box}{sp()}]{sp()},{sp()}"
        f"{_number_variant(data, o.depth)}{sp()},{sp()}{_facing_variant(data, o.facing)}{sp()})"
    )


class TestGrammarTolerance:
    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(min_value=0, max_value=10**9))
    def test_variants_parse_to_the_same_layout(self, data, seed):
        lay = random_layout(random.Random(seed))
        sp = lambda: data.draw(_ASCII_SPACE)  # noqa: E731
        entries = [_entry_variant(data, o) for o in lay.objects]
        body = f"{sp()},{sp()}".join(entries)
        if entries and data.draw(st.booleans()):
            body += sp() + ","
        if data.draw(st.booleans()):
            body = f"[{sp()}{body}{sp()}]"
        text = sp() + body + sp()
        assert parse_wire_layout(text) == lay, text

"""Bad interpreter replies fail the request with a typed error, at once."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenefix import LayoutValidationError, ProtocolError, serialize_wire_layout
from scenefix.benchgen import apply_corruption, generate_for_lmd
from scenefix.interpreter import SubprocessInterpreter, _parse_response_line, external_suggest
from scenefix.pipeline import RunConfig, run_batch
from scenefix.wire import write_dataset

from helpers import NON_ASCII_WIRE, layout, obj

FAKE = str(Path(__file__).parent / "fake_interpreter.py")
BAD_REPLIES = ("deep", "long-int", "not-utf8")
PROMPT = "A cat is to the left of a dog from the camera's perspective."


@pytest.mark.parametrize("mode", BAD_REPLIES)
def test_bad_reply_is_protocol_error_at_once(mode):
    wire = serialize_wire_layout(layout(obj("cat", oid=1, x=0.6), obj("dog", oid=2, x=0.1)))
    with SubprocessInterpreter([sys.executable, FAKE, mode], timeout=5.0) as session:
        for round_index in range(2):  # the session stays usable
            start = time.monotonic()
            with pytest.raises(ProtocolError):
                session.request(PROMPT, wire, round_index)
            assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("mode", BAD_REPLIES)
def test_bad_reply_marks_samples_errored_without_aborting_the_batch(mode, tmp_path):
    path = str(tmp_path / "dataset.ndjson")
    # every sample misaligned, so every sample is asked
    samples, _ = apply_corruption(generate_for_lmd(3, seed=78), fraction=1.0, seed=78)
    write_dataset(path, samples)
    report = run_batch(
        RunConfig(
            dataset_path=path,
            rounds=1,
            solver="external",
            endpoint=f"{sys.executable} {FAKE} {mode}",
        )
    )
    assert len(report.trajectories) == 3
    assert all(t.error.startswith("ProtocolError") for t in report.trajectories)


_WIRE_TEXT = st.one_of(
    st.text(max_size=80),
    st.just("[('cat #1', [0.1, 0.1, 0.2, 0.2], 0.5, None)]"),
    st.builds(
        "[('{} #{}', [{}, 0.1, {}, 0.2], {}, None)]".format,
        st.sampled_from(("cat", "dog", "zebra", "")),
        st.integers(-2, 3),
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
_REPLIES = st.one_of(
    st.text(),
    st.builds(
        json.dumps,
        st.fixed_dictionaries(
            {"updated_prompt": _JSON_VALUES, "reasoning": _JSON_VALUES},
            optional={"layout": st.one_of(_WIRE_TEXT, _JSON_VALUES)},
        ),
    ),
)


@settings(max_examples=300, deadline=None)
@given(_REPLIES)
def test_any_reply_text_fails_only_with_typed_errors(text):
    try:
        _parse_response_line(text, PROMPT)
    except (ProtocolError, LayoutValidationError):
        pass


@pytest.mark.parametrize("wire", NON_ASCII_WIRE)
def test_non_ascii_id_or_number_in_reply_is_protocol_error(wire):
    reply = json.dumps({"updated_prompt": PROMPT, "layout": wire, "reasoning": ""})
    with pytest.raises(ProtocolError):
        _parse_response_line(reply, PROMPT)


def test_reply_to_a_self_contradictory_prompt_is_accepted():
    # the prompt parses, but its perspective anchor is never mentioned:
    # like a free-form prompt, only the reply's ranges are checked
    prompt = "A cat is to the left of a dog from the horse's perspective."
    lay = layout(obj("cat", oid=1, x=0.6), obj("dog", oid=2, x=0.1))
    proposal = external_suggest(prompt, serialize_wire_layout(lay), f"{sys.executable} {FAKE} echo")
    assert proposal.layout == lay

"""The stdio session reads replies on the calling thread, line by line."""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

import pytest

from scenefix import (
    DatasetError, InterpreterTimeout, ProtocolError, parse_expression, serialize_wire_layout,
)
from scenefix import pipeline
from scenefix.benchgen import generate_forest_style
from scenefix.interpreter import SubprocessInterpreter
from scenefix.pipeline import RunConfig, run_batch
from scenefix.wire import write_dataset

from helpers import layout, obj

FAKE = str(Path(__file__).parent / "fake_interpreter.py")
PROMPT = "A cat is to the left of a dog from the camera's perspective."
EXPR = parse_expression(PROMPT)
LAYOUT = layout(obj("cat", oid=1, x=0.6, depth=0.5), obj("dog", oid=2, x=0.1, depth=0.5))
MOVED = layout(obj("cat", oid=1, x=0.05), obj("dog", oid=2, x=0.7))


def session(mode: str, timeout: float = 5.0) -> SubprocessInterpreter:
    return SubprocessInterpreter([sys.executable, FAKE, mode], timeout=timeout)


def test_reply_written_in_two_flushes_is_one_line():
    with session("split") as s:
        for round_index in range(2):
            proposal = s.request(PROMPT, serialize_wire_layout(LAYOUT), round_index, EXPR)
            assert proposal.layout == LAYOUT
            assert proposal.rationale == ("echoed in two parts",)


def test_unterminated_last_reply_parses_then_stream_ends():
    with session("no-newline") as s:
        proposal = s.request(PROMPT, serialize_wire_layout(LAYOUT), 0, EXPR)
        assert proposal.layout == LAYOUT
        assert proposal.rationale == ("echoed without a newline",)
        start = time.monotonic()
        with pytest.raises(ProtocolError):
            s.request(PROMPT, serialize_wire_layout(LAYOUT), 1, EXPR)
        assert time.monotonic() - start < 1.0


def test_reply_line_over_the_cap_is_protocol_error():
    with session("flood-first") as s:
        with pytest.raises(ProtocolError, match="exceeds"):
            s.request(PROMPT, serialize_wire_layout(LAYOUT), 0, EXPR)


def test_restart_after_an_over_long_reply_answers_the_next_request():
    # the restarted child's buffer must not start with the rest of the flood
    with session("flood-first") as s:
        with pytest.raises(ProtocolError):
            s.request(PROMPT, serialize_wire_layout(LAYOUT), 0, EXPR)
        proposal = s.request(PROMPT, serialize_wire_layout(MOVED), 1, EXPR)
    assert proposal.layout == MOVED
    assert proposal.rationale == ("round 1",)


def test_restart_drops_a_half_written_late_reply():
    # round 0 times out with half a reply read; the restarted child's
    # buffer must not start with that half
    with session("stall-mid-line", timeout=0.8) as s:
        with pytest.raises(InterpreterTimeout):
            s.request(PROMPT, serialize_wire_layout(LAYOUT), 0, EXPR)
        proposal = s.request(PROMPT, serialize_wire_layout(MOVED), 1, EXPR)
    assert proposal.layout == MOVED
    assert proposal.rationale == ("round 1",)


def test_a_session_starts_no_thread():
    before = threading.active_count()
    with session("echo") as s:
        s.request(PROMPT, serialize_wire_layout(LAYOUT), 0, EXPR)
        assert threading.active_count() == before
    assert threading.active_count() == before


def _recording_factory(monkeypatch) -> list:
    sessions = []
    make = pipeline.make_interpreter

    def recording(*args, **kwargs):
        sessions.append(make(*args, **kwargs))
        return sessions[-1]

    monkeypatch.setattr(pipeline, "make_interpreter", recording)
    return sessions


def _external(path: str) -> RunConfig:
    return RunConfig(dataset_path=path, solver="external", endpoint=f"{sys.executable} {FAKE} echo")


def test_child_exits_when_the_dataset_is_bad(tmp_path, monkeypatch):
    path = tmp_path / "dataset.ndjson"
    write_dataset(str(path), generate_forest_style(3, seed=78))
    path.write_bytes(path.read_bytes() + b"{not json\n")
    sessions = _recording_factory(monkeypatch)
    with pytest.raises(DatasetError) as info:
        run_batch(_external(str(path)))
    assert info.value.line == 4
    assert len(sessions) == 1
    assert sessions[0]._proc.poll() is not None


def test_child_exits_when_the_batch_ends(tmp_path, monkeypatch):
    path = str(tmp_path / "dataset.ndjson")
    write_dataset(path, generate_forest_style(3, seed=78))
    sessions = _recording_factory(monkeypatch)
    assert len(run_batch(_external(path)).trajectories) == 3
    assert len(sessions) == 1
    assert sessions[0]._proc.poll() is not None


def test_failed_restart_after_a_timeout_is_protocol_error(tmp_path):
    script = tmp_path / "interp"
    script.write_text(f"#!/bin/sh\nexec {sys.executable} {FAKE} stall-first\n", encoding="utf-8")
    script.chmod(0o755)
    wire = serialize_wire_layout(LAYOUT)
    with SubprocessInterpreter([str(script)], timeout=0.5) as s:
        s.request(PROMPT, wire, 1, EXPR)  # the child is up
        script.unlink()  # so the restart after the timeout cannot find it
        with pytest.raises(ProtocolError, match="cannot start interpreter"):
            s.request(PROMPT, wire, 0, EXPR)
        start = time.monotonic()
        with pytest.raises(ProtocolError, match="not running"):
            s.request(PROMPT, wire, 1, EXPR)
        assert time.monotonic() - start < 1.0

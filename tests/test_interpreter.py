"""Builtin solver and the external interpreter protocol."""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from scenefix import (
    CAMERA,
    FacingAssertion,
    FacingDirection,
    Intrinsic,
    InterpreterTimeout,
    LayoutValidationError,
    ObjectMention,
    OverlapCollisionError,
    ProtocolError,
    Relation,
    RelationClause,
    SpatialExpression,
    UnsatisfiableError,
    evaluate,
    external_suggest,
    serialize_wire_layout,
    suggest_layout,
)
from scenefix.benchgen import apply_corruption, generate_for_lmd
from scenefix.dsl import FRAME
from scenefix.interpreter import (
    _MAX_RESPONSE_BYTES,
    HttpInterpreter,
    SubprocessInterpreter,
    make_interpreter,
    place_in_free_band,
)
from scenefix.pipeline import RunConfig, run_batch
from scenefix.scene import bbox_iou
from scenefix.wire import write_dataset

from helpers import layout, obj

FAKE = str(Path(__file__).parent / "fake_interpreter.py")


def fake_argv(mode: str) -> list[str]:
    return [sys.executable, FAKE, mode]


class TestPlacement:
    def test_empty_scene_gets_a_box(self):
        box = place_in_free_band([])
        assert 0.0 <= box.x <= 1.0 - box.w

    def test_avoids_existing_boxes(self):
        existing = [
            obj("cat", oid=1, x=0.0, y=0.3, w=0.3, h=0.4),
            obj("dog", oid=2, x=0.7, y=0.3, w=0.3, h=0.4),
        ]
        box = place_in_free_band(existing)
        assert all(bbox_iou(box, o.bbox) == 0.0 for o in existing)

    def test_crowded_scene_stays_under_half_iou(self):
        existing = [
            obj("cat", oid=i + 1, x=0.25 * (i % 4), y=0.25 * (i // 4), w=0.25, h=0.25)
            for i in range(16)
        ]
        box = place_in_free_band(existing)
        assert max(bbox_iou(box, o.bbox) for o in existing) <= 0.5

    @pytest.mark.parametrize("h", [0.5, 0.7])
    def test_tall_box_scans_only_the_rows_it_fits(self, h):
        # 0.7 + h leaves the frame, and 0.375 + 0.7 too
        existing = [
            obj("cat", oid=i + 1, x=0.25 * (i % 4), y=0.25 * (i // 4), w=0.25, h=0.25)
            for i in range(16)
        ]
        box = place_in_free_band(existing, w=0.3, h=h)
        assert box.y + box.h <= 1.0
        assert max(bbox_iou(box, o.bbox) for o in existing) <= 0.5

    def test_box_no_scanned_row_fits_is_a_collision(self):
        existing = [obj("cat", oid=1, x=0.0, y=0.4, w=1.0, h=0.2)]
        with pytest.raises(OverlapCollisionError, match="no placement"):
            place_in_free_band(existing, w=0.3, h=0.96)


def _expr(*clauses, mentions=None, facings=(), negations=()):
    if mentions is None:
        names = []
        for c in clauses:
            for nm in (c.target, c.relatum):
                if nm != FRAME and nm not in names:
                    names.append(nm)
        mentions = tuple(ObjectMention(nm) for nm in names)
    return SpatialExpression(
        mentions=mentions, relations=tuple(clauses), facings=facings,
        negations=tuple(negations),
    )


class TestBuiltinSolver:
    def test_satisfied_layout_returned_unchanged(self):
        expr = _expr(RelationClause("cow", Relation.FRONT, "sheep", CAMERA))
        lay = layout(
            obj("cow", oid=1, x=0.1, depth=0.82),
            obj("sheep", oid=2, x=0.6, depth=0.41),
        )
        proposal = suggest_layout(expr, lay)
        assert proposal.layout == lay
        assert proposal.rationale == ()

    def test_depth_violation_repaired_by_swap(self):
        expr = _expr(RelationClause("cow", Relation.FRONT, "sheep", CAMERA))
        lay = layout(
            obj("cow", oid=1, x=0.1, depth=0.41),
            obj("sheep", oid=2, x=0.6, depth=0.82),
        )
        proposal = suggest_layout(expr, lay)
        assert evaluate(expr, proposal.layout).correct
        assert proposal.layout.find(1).depth == 0.82
        assert proposal.layout.find(2).depth == 0.41
        assert proposal.rationale  # a note explains the repair

    def test_horizontal_violation_repaired(self):
        expr = _expr(RelationClause("cat", Relation.LEFT, "dog", CAMERA))
        lay = layout(
            obj("cat", oid=1, x=0.7, depth=0.5),
            obj("dog", oid=2, x=0.1, depth=0.5),
        )
        proposal = suggest_layout(expr, lay)
        assert evaluate(expr, proposal.layout).correct

    def test_missing_object_added_with_asserted_facing(self):
        expr = _expr(
            RelationClause("cat", Relation.LEFT, "chair", CAMERA),
            facings=(FacingAssertion("chair", FacingDirection.BACK),),
        )
        lay = layout(obj("cat", oid=3, x=0.1))
        proposal = suggest_layout(expr, lay)
        chairs = proposal.layout.named("chair")
        assert len(chairs) == 1
        assert chairs[0].facing is FacingDirection.BACK
        assert chairs[0].object_id == 4
        assert evaluate(expr, proposal.layout).correct

    def test_negated_and_unmentioned_objects_removed(self):
        expr = _expr(
            RelationClause("cat", Relation.LEFT, "dog", CAMERA),
            negations=("balloon",),
        )
        lay = layout(
            obj("cat", oid=1, x=0.1),
            obj("dog", oid=2, x=0.6),
            obj("balloon", oid=3, y=0.6),
            obj("bird", oid=4, y=0.6, x=0.5),
        )
        proposal = suggest_layout(expr, lay)
        names = {o.name for o in proposal.layout.objects}
        assert names == {"cat", "dog"}

    def test_surplus_duplicate_keeps_best_match(self):
        expr = SpatialExpression(mentions=(ObjectMention("cat", ("red",)),))
        lay = layout(
            obj("cat", oid=1, x=0.1),
            obj("cat", oid=2, x=0.6, attrs=("red",)),
        )
        proposal = suggest_layout(expr, lay)
        assert [o.object_id for o in proposal.layout.objects] == [2]

    def test_attribute_fix(self):
        expr = SpatialExpression(mentions=(ObjectMention("cat", ("blue",)),))
        proposal = suggest_layout(expr, layout(obj("cat", attrs=("red",))))
        assert proposal.layout.find(1).attributes == ("blue",)

    def test_facing_fix(self):
        expr = SpatialExpression(
            mentions=(ObjectMention("cat"),),
            facings=(FacingAssertion("cat", FacingDirection.RIGHT),),
        )
        proposal = suggest_layout(expr, layout(obj("cat", facing=FacingDirection.LEFT)))
        assert proposal.layout.find(1).facing is FacingDirection.RIGHT

    def test_frame_clause_moves_across_midline(self):
        expr = _expr(
            RelationClause("car", Relation.LEFT, FRAME, CAMERA),
            mentions=(ObjectMention("car"),),
        )
        proposal = suggest_layout(expr, layout(obj("car", x=0.7)))
        assert proposal.layout.find(1).bbox.cx < 0.5

    def test_intrinsic_clause_rejected(self):
        expr = _expr(RelationClause("cat", Relation.LEFT, "dog", Intrinsic("dog")))
        with pytest.raises(ValueError):
            suggest_layout(expr, layout())

    def test_direct_contradiction_unsatisfiable(self):
        expr = _expr(
            RelationClause("cat", Relation.LEFT, "dog", CAMERA),
            RelationClause("dog", Relation.LEFT, "cat", CAMERA),
        )
        with pytest.raises(UnsatisfiableError):
            suggest_layout(expr, layout(obj("cat", oid=1), obj("dog", oid=2, x=0.5)))

    def test_midline_contradiction_unsatisfiable(self):
        expr = _expr(
            RelationClause("car", Relation.LEFT, FRAME, CAMERA),
            RelationClause("car", Relation.RIGHT, FRAME, CAMERA),
            mentions=(ObjectMention("car"),),
        )
        with pytest.raises(UnsatisfiableError):
            suggest_layout(expr, layout(obj("car")))

    def test_three_object_chain(self):
        expr = _expr(
            RelationClause("cat", Relation.LEFT, "dog", CAMERA),
            RelationClause("dog", Relation.LEFT, "cow", CAMERA),
        )
        lay = layout(
            obj("cat", oid=1, x=0.75),
            obj("dog", oid=2, x=0.45),
            obj("cow", oid=3, x=0.05),
        )
        proposal = suggest_layout(expr, lay)
        assert evaluate(expr, proposal.layout).correct

    def test_repaired_boxes_avoid_heavy_overlap(self):
        expr = _expr(
            RelationClause("cat", Relation.LEFT, "dog", CAMERA),
            RelationClause("cow", Relation.FRONT, "dog", CAMERA),
        )
        lay = layout(
            obj("cat", oid=1, x=0.7, depth=0.5),
            obj("dog", oid=2, x=0.1, depth=0.5),
            obj("cow", oid=3, x=0.4, y=0.5, depth=0.2),
        )
        proposal = suggest_layout(expr, lay)
        assert evaluate(expr, proposal.layout).correct
        boxes = [o.bbox for o in proposal.layout.objects]
        for i, a in enumerate(boxes):
            for b in boxes[i + 1 :]:
                assert bbox_iou(a, b) <= 0.5


def _prompt_and_wire():
    lay = layout(obj("cat", oid=1, x=0.6, depth=0.5), obj("dog", oid=2, x=0.1, depth=0.5))
    return "A cat is to the left of a dog from the camera's perspective.", lay


# The exact text of the request for ``_REQUEST_ARGS``: the bytes the
# stdio route writes (plus a newline) and the HTTP route posts.
_REQUEST_ARGS = ("A cat.", "[('cat #1', [0.1, 0.1, 0.2, 0.2], 0.5, None)]", 2)
_REQUEST_TEXT = (
    '{"prompt": "A cat.", "layout": "[(\'cat #1\', [0.1, 0.1, 0.2, 0.2], 0.5, None)]", "round": 2}'
)

# A child that answers each request line with that line as its reasoning.
_ECHO_REQUEST = (
    "import json, sys\n"
    "for line in sys.stdin:\n"
    "    r = json.loads(line)\n"
    "    reply = {'updated_prompt': '', 'layout': r['layout'], 'reasoning': line}\n"
    "    print(json.dumps(reply), flush=True)\n"
)


class TestSubprocessProtocol:
    def test_echo_round_trip(self):
        prompt, lay = _prompt_and_wire()
        with SubprocessInterpreter(fake_argv("echo")) as session:
            proposal = session.request(prompt, serialize_wire_layout(lay), 0)
        assert proposal.layout == lay
        assert proposal.rationale == ("echoed the input",)

    def test_solve_mode_repairs(self):
        prompt, lay = _prompt_and_wire()
        with SubprocessInterpreter(fake_argv("solve"), timeout=30.0) as session:
            proposal = session.request(prompt, serialize_wire_layout(lay), 0)
        from scenefix import parse_expression

        assert evaluate(parse_expression(prompt), proposal.layout).correct

    def test_session_reuse(self):
        prompt, lay = _prompt_and_wire()
        wire = serialize_wire_layout(lay)
        with SubprocessInterpreter(fake_argv("echo")) as session:
            first = session.request(prompt, wire, 0)
            second = session.request(prompt, wire, 1)
        assert first.layout == second.layout

    def test_malformed_response_is_protocol_error(self):
        prompt, lay = _prompt_and_wire()
        with SubprocessInterpreter(fake_argv("malformed")) as session:
            with pytest.raises(ProtocolError):
                session.request(prompt, serialize_wire_layout(lay), 0)

    def test_missing_fields_is_protocol_error(self):
        prompt, lay = _prompt_and_wire()
        with SubprocessInterpreter(fake_argv("missing-field")) as session:
            with pytest.raises(ProtocolError):
                session.request(prompt, serialize_wire_layout(lay), 0)

    def test_out_of_range_depth_is_validation_error(self):
        prompt, lay = _prompt_and_wire()
        with SubprocessInterpreter(fake_argv("bad-range")) as session:
            with pytest.raises(LayoutValidationError):
                session.request(prompt, serialize_wire_layout(lay), 0)

    def test_invented_object_is_validation_error(self):
        prompt, lay = _prompt_and_wire()
        with SubprocessInterpreter(fake_argv("invent")) as session:
            with pytest.raises(LayoutValidationError):
                session.request(prompt, serialize_wire_layout(lay), 0)

    def test_timeout(self):
        prompt, lay = _prompt_and_wire()
        with SubprocessInterpreter(fake_argv("sleep"), timeout=0.5) as session:
            with pytest.raises(InterpreterTimeout):
                session.request(prompt, serialize_wire_layout(lay), 0)

    def test_late_reply_never_answers_the_next_request(self):
        prompt, lay = _prompt_and_wire()
        moved = layout(obj("cat", oid=1, x=0.05), obj("dog", oid=2, x=0.7))
        # the round-0 reply arrives 1 s late, while round 1 is still waiting
        with SubprocessInterpreter(fake_argv("stall-first"), timeout=0.8) as session:
            with pytest.raises(InterpreterTimeout):
                session.request(prompt, serialize_wire_layout(lay), 0)
            proposal = session.request(prompt, serialize_wire_layout(moved), 1)
        assert proposal.layout == moved
        assert proposal.rationale == ("round 1",)

    def test_request_line_is_pinned(self):
        with SubprocessInterpreter([sys.executable, "-c", _ECHO_REQUEST]) as session:
            proposal = session.request(*_REQUEST_ARGS)
        assert proposal.rationale == (_REQUEST_TEXT + "\n",)

    def test_early_exit_is_protocol_error(self):
        prompt, lay = _prompt_and_wire()
        with SubprocessInterpreter(fake_argv("close")) as session:
            with pytest.raises(ProtocolError):
                session.request(prompt, serialize_wire_layout(lay), 0)

    def test_requests_after_end_of_stream_fail_fast(self):
        prompt, lay = _prompt_and_wire()
        with SubprocessInterpreter(fake_argv("close"), timeout=5.0) as session:
            start = time.monotonic()
            for round_index in range(3):
                with pytest.raises(ProtocolError):
                    session.request(prompt, serialize_wire_layout(lay), round_index)
            assert time.monotonic() - start < 1.0


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length)
        record = json.loads(raw)
        if self.path == "/malformed":
            body = b"no json here"
        elif self.path == "/oversize":
            body = b" " * (_MAX_RESPONSE_BYTES + 1)
        elif self.path == "/not-utf8":
            body = b"\xff"
        elif self.path.startswith("/status/"):
            self.send_error(int(self.path.rsplit("/", 1)[1]))
            return
        elif self.path == "/echo-body":
            body = json.dumps(
                {"updated_prompt": "", "layout": record["layout"], "reasoning": raw.decode("utf-8")}
            ).encode("utf-8")
        else:
            body = json.dumps(
                {
                    "updated_prompt": record["prompt"],
                    "layout": record["layout"],
                    "reasoning": "http echo",
                }
            ).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # keep test output quiet
        pass


@pytest.fixture(scope="module")
def http_endpoint():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


class TestHttpProtocol:
    def test_echo_round_trip(self, http_endpoint):
        prompt, lay = _prompt_and_wire()
        session = HttpInterpreter(http_endpoint)
        proposal = session.request(prompt, serialize_wire_layout(lay), 0)
        assert proposal.layout == lay
        assert proposal.rationale == ("http echo",)

    def test_request_body_is_pinned(self, http_endpoint):
        proposal = HttpInterpreter(http_endpoint + "/echo-body").request(*_REQUEST_ARGS)
        assert proposal.rationale == (_REQUEST_TEXT,)

    def test_malformed_body_is_protocol_error(self, http_endpoint):
        prompt, lay = _prompt_and_wire()
        session = HttpInterpreter(http_endpoint + "/malformed")
        with pytest.raises(ProtocolError):
            session.request(prompt, serialize_wire_layout(lay), 0)

    def test_oversize_body_is_protocol_error(self, http_endpoint):
        prompt, lay = _prompt_and_wire()
        session = HttpInterpreter(http_endpoint + "/oversize")
        with pytest.raises(ProtocolError, match="exceeds"):
            session.request(prompt, serialize_wire_layout(lay), 0)

    def test_non_utf8_body_is_protocol_error(self, http_endpoint):
        prompt, lay = _prompt_and_wire()
        session = HttpInterpreter(http_endpoint + "/not-utf8")
        with pytest.raises(ProtocolError, match="UTF-8"):
            session.request(prompt, serialize_wire_layout(lay), 0)

    @pytest.mark.parametrize("status", [404, 500])
    def test_error_status_is_protocol_error_naming_it(self, http_endpoint, status):
        session = HttpInterpreter(f"{http_endpoint}/status/{status}")
        with pytest.raises(ProtocolError, match=f"^endpoint answered HTTP {status}: ") as info:
            session.request(*_REQUEST_ARGS)
        assert "unreachable" not in str(info.value)

    def test_unreachable_endpoint_is_protocol_error(self):
        session = HttpInterpreter("http://127.0.0.1:9/", timeout=0.5)
        with pytest.raises((ProtocolError, InterpreterTimeout)):
            session.request("a cat", "[]", 0)


def _read_request(conn: socket.socket) -> None:
    """Read one HTTP request (head and Content-Length body) off a connection."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(4096)
        if not chunk:
            return
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    while len(body) < length:
        chunk = conn.recv(4096)
        if not chunk:
            return
        body += chunk


# what a raw endpoint sends back after reading a request, before it closes
_RAW_REPLIES = {"close": b"", "garbage": b"\x00\x01 this is not HTTP\r\n\r\n"}


@pytest.fixture(params=sorted(_RAW_REPLIES))
def raw_endpoint(request):
    """A TCP endpoint that reads each request, then closes or sends non-HTTP bytes."""
    reply = _RAW_REPLIES[request.param]
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(5.0)
                _read_request(conn)
                conn.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{listener.getsockname()[1]}/"
    stop.set()
    thread.join(timeout=5.0)
    listener.close()
    assert not thread.is_alive()


class TestRawEndpoint:
    def test_dropped_or_non_http_reply_is_protocol_error(self, raw_endpoint):
        prompt, lay = _prompt_and_wire()
        session = HttpInterpreter(raw_endpoint, timeout=5.0)
        for round_index in range(2):  # every request fails the same way
            with pytest.raises(ProtocolError):
                session.request(prompt, serialize_wire_layout(lay), round_index)

    def test_batch_completes_with_samples_errored(self, raw_endpoint, tmp_path):
        path = str(tmp_path / "dataset.ndjson")
        # every sample misaligned, so every sample is asked
        samples, _ = apply_corruption(generate_for_lmd(3, seed=78), fraction=1.0, seed=78)
        write_dataset(path, samples)
        report = run_batch(
            RunConfig(dataset_path=path, rounds=1, solver="external", endpoint=raw_endpoint)
        )
        assert len(report.trajectories) == 3
        assert all(t.error.startswith("ProtocolError") for t in report.trajectories)


class TestDispatchAndOneShot:
    def test_make_interpreter_picks_transport(self, http_endpoint):
        assert isinstance(make_interpreter(http_endpoint), HttpInterpreter)
        session = make_interpreter(f"{sys.executable} {FAKE} echo")
        try:
            assert isinstance(session, SubprocessInterpreter)
        finally:
            session.close()

    def test_external_suggest_with_command_line(self):
        prompt, lay = _prompt_and_wire()
        proposal = external_suggest(
            prompt, serialize_wire_layout(lay), f"{sys.executable} {FAKE} echo"
        )
        assert proposal.layout == lay

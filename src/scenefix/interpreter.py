"""Layout proposals: a deterministic builtin solver and an external client.

The builtin solver consumes a camera-frame expression (run intrinsic
clauses through the conversion rules first) and repairs the current
layout in a fixed priority order:

1. delete surplus or negated objects (keep the best match per mention:
   full attribute match first, then larger area, then lower id);
2. add mentioned objects that are absent, placed in the widest free
   horizontal band at a default 0.25 x 0.25 size;
3. rewrite attributes to satisfy the mention;
4. set asserted facing directions;
5. satisfy left/right clauses: swap two boxes' horizontal extents where
   that settles every clause the pair touches, then move the targets of
   the clauses still violated into the open window their neighbours
   leave, near its midpoint but clear of other boxes when space allows
   (an object already inside its window stays). When the targets alone
   have no room, every object named on the axis is placed that way;
6. the same for front/back clauses on depths, at the window's midpoint.

Objects named in no clause on an axis never move on it. A layout that
passes the evaluator with one object per mention is its own proposal,
and every accepted proposal passes the evaluator; a cycle in an axis's
order, or a placement that fails, raises UnsatisfiableError.

The external route speaks newline-delimited JSON, one request object
``{"prompt": ..., "layout": ..., "round": ...}`` per line, over a child
process's stdio or HTTP POST, and expects ``{"updated_prompt": ...,
"layout": ..., "reasoning": ...}`` back. A session's ``request`` takes
the prompt's parsed ``annotation`` when the caller has one, and checks
the reply against it; otherwise it parses the prompt itself.
"""

from __future__ import annotations

import json
import os
import select
import shlex
import subprocess
import time
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter

from .dsl import FRAME, Camera, SpatialExpression, _matches_negation, parse_expression
from .errors import (
    DuplicateIdError,
    ExpressionParseError,
    InterpreterTimeout,
    LayoutValidationError,
    OverlapCollisionError,
    ProtocolError,
    UnsatisfiableError,
    WireFormatError,
)
from .evaluate import (
    eval_frame_relation,
    eval_relation,
    evaluate,
    find_matching,
    mention_matches,
)
from .scene import (
    EPS_CLAMP,
    MIDLINE,
    BBox,
    FacingDirection,
    Relation,
    SceneLayout,
    SceneObject,
    axis_value,
    row_worst_ious,
    swap_extents,
)

DEFAULT_ADDITION_SIZE = 0.25


@dataclass(frozen=True)
class LayoutProposal:
    layout: SceneLayout
    rationale: tuple[str, ...] = ()


# --------------------------------------------------------------------------
# builtin solver

def place_in_free_band(
    objects, w: float = DEFAULT_ADDITION_SIZE, h: float = DEFAULT_ADDITION_SIZE
) -> BBox:
    """A box in the widest empty horizontal band, never >50% IoU with others.

    When no band is wide enough it takes the least-overlapping of 41 spots
    on each of three rows, skipping a row the box would leave the frame
    from; OverlapCollisionError when no spot is left at or under 0.5 IoU.
    """
    intervals = sorted((o.bbox.x, o.bbox.x + o.bbox.w) for o in objects)
    merged: list[list[float]] = []
    for lo, hi in intervals:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    gaps: list[tuple[float, float]] = []
    cursor = 0.0
    for lo, hi in merged:
        if lo > cursor:
            gaps.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < 1.0:
        gaps.append((cursor, 1.0))

    best_gap = max(gaps, key=lambda g: g[1] - g[0], default=None)
    if best_gap is not None and best_gap[1] - best_gap[0] >= w:
        cx = (best_gap[0] + best_gap[1]) / 2.0
        return BBox(min(max(cx - w / 2.0, 0.0), 1.0 - w), 0.5 - h / 2.0, w, h)

    # no band wide enough: scan the rows that keep the box in the frame for
    # the least-overlapping spot
    xs = [i * (1.0 - w) / 40.0 for i in range(41)]
    boxes = [o.bbox for o in objects]
    best: tuple[float, float, float] | None = None
    for yi in (0.375, 0.05, 0.7):
        if yi + h > 1.0 + EPS_CLAMP:
            continue
        for x, worst in zip(xs, row_worst_ious(xs, yi, w, h, boxes)):
            if best is None or worst < best[0]:
                best = (worst, x, yi)
    if best is None or best[0] > 0.5:
        raise OverlapCollisionError("no placement with IoU <= 0.5 available")
    return BBox(best[1], best[2], w, h)


def _keep_key(mention):
    def key(obj: SceneObject):
        return (
            0 if mention_matches(obj, mention) else 1,
            -(obj.bbox.w * obj.bbox.h),
            obj.object_id,
        )

    return key


class _Work:
    """Mutable object table preserving layout order."""

    def __init__(self, layout: SceneLayout):
        self.order: list[int] = [o.object_id for o in layout.objects]
        self.objs: dict[int, SceneObject] = {o.object_id: o for o in layout.objects}
        self.notes: list[str] = []

    def drop(self, object_id: int, why: str) -> None:
        obj = self.objs.pop(object_id)
        self.order.remove(object_id)
        self.notes.append(f"removed {obj.name} #{object_id}: {why}")

    def put(self, obj: SceneObject, note: str | None = None) -> None:
        if obj.object_id not in self.objs:
            self.order.append(obj.object_id)
        self.objs[obj.object_id] = obj
        if note:
            self.notes.append(note)

    def layout(self, background: str) -> SceneLayout:
        return SceneLayout(tuple(self.objs[i] for i in self.order), background)


@dataclass(frozen=True)
class _Constraint:
    """One camera-frame clause between solver objects.

    ``relatum`` is None for a clause against the image midline.
    """

    target: int
    relatum: int | None
    relation: Relation

    @property
    def ids(self) -> tuple[int, ...]:
        """Objects the clause constrains, target first."""
        return (self.target,) if self.relatum is None else (self.target, self.relatum)

    @property
    def order(self) -> tuple[int | None, int | None]:
        """(lower, upper): the side with the smaller x or depth first."""
        lower_first = self.relation.target_lower
        return (self.target, self.relatum) if lower_first else (self.relatum, self.target)

    def holds(self, objs: dict[int, SceneObject]) -> bool:
        target = objs[self.target]
        if self.relatum is None:
            return eval_frame_relation(self.relation, target)
        return eval_relation(self.relation, target, objs[self.relatum])


def _camera_constraints(expr: SpatialExpression, name_to_id: dict[str, int]) -> list[_Constraint]:
    """One constraint per clause of a camera-frame expression, in clause order."""
    return [
        _Constraint(
            name_to_id[clause.target],
            None if clause.relatum == FRAME else name_to_id[clause.relatum],
            clause.relation,
        )
        for clause in expr.relations
    ]


def _axis_order(axis, label: str) -> list[int | None]:
    """Objects and the midline (None) in an order every clause on the axis follows.

    A clause set with no such order (a pair ordered both ways, an object
    on both sides of the midline, a longer loop) is unsatisfiable.
    """
    sorter: TopologicalSorter = TopologicalSorter()
    for c in axis:
        lower, upper = c.order
        sorter.add(upper, lower)
    try:
        return list(sorter.static_order())
    except CycleError as exc:
        cycle = ", ".join("midline" if n is None else f"#{n}" for n in exc.args[1][:-1])
        raise UnsatisfiableError(f"cyclic {label} ordering constraints through {cycle}") from exc


def _choose_cx(lo: float, hi: float, obj: SceneObject, others) -> float:
    """Pick a center x in the open interval, steering clear of other boxes.

    Candidates are scanned on an odd grid so the exact midpoint is among
    them; overlap-free positions win, nearest the midpoint first. ``_place``
    keeps the interval inside ``[w/2, 1 - w/2]``, so every candidate is a box
    in the frame: they are scored with ``row_worst_ious``, building no box,
    and ``_place`` builds and validates the winner's.
    """
    mid = (lo + hi) / 2.0
    box = obj.bbox
    half = box.w / 2.0
    span = hi - lo
    steps = 41
    cxs = [lo + span * i / (steps + 1) for i in range(1, steps + 1)]
    xs = [cx - half for cx in cxs]
    worsts = row_worst_ious(xs, box.y, box.w, box.h, [o.bbox for o in others])
    # least overlap first (so an overlap-free spot wins), then nearest the
    # midpoint; min() keeps the first of equals
    least = min(worsts)
    fewest = (cx for cx, worst in zip(cxs, worsts) if worst == least)
    return min(fewest, key=lambda cx: abs(cx - mid))


def _place(work: _Work, axis, order, free, horizontal: bool) -> bool:
    """Move only the objects in ``free`` so that every clause on the axis holds.

    Each free object gets an open window: the frame, its fixed neighbours
    (the midline) and, taken backwards through ``order``, the caps of
    its free upper neighbours. Walking forwards, an object keeps its value
    when it lies inside its window and moves inside it otherwise. If any
    window is empty or holds no float, nothing moves and the result is False.
    """
    objs = work.objs

    def value(node: int | None) -> float:
        return MIDLINE if node is None else axis_value(objs[node], horizontal)

    lo: dict[int, float] = {}
    hi: dict[int, float] = {}
    lowers: dict[int, list[int]] = {}
    uppers: dict[int, list[int]] = {}
    for oid in free:
        half = objs[oid].bbox.w / 2.0 if horizontal else 0.0
        lo[oid], hi[oid], lowers[oid], uppers[oid] = half, 1.0 - half, [], []
    for c in axis:
        lower, upper = c.order
        if lower in free and upper in free:
            uppers[lower].append(upper)
            lowers[upper].append(lower)
        elif lower in free:
            hi[lower] = min(hi[lower], value(upper))
        elif upper in free:
            lo[upper] = max(lo[upper], value(lower))
    for node in reversed(order):
        if node in free:
            hi[node] = min([hi[node]] + [hi[up] for up in uppers[node]])
    if any(not lo[oid] < hi[oid] for oid in free):
        return False

    # Kept values can leave a later window no float to take (a value one
    # ulp below its upper neighbour's bound); then every free object moves.
    for keep in (True, False):
        objs = dict(work.objs)
        moves: list[tuple[SceneObject, str]] = []
        for node in order:
            if node not in free:
                continue
            low = max([lo[node]] + [value(down) for down in lowers[node]])
            if keep and low < value(node) < hi[node]:
                continue
            obj = objs[node]
            if horizontal:
                others = [o for k, o in objs.items() if k != node]
                cx = _choose_cx(low, hi[node], obj, others)
                bbox = BBox(cx - obj.bbox.w / 2.0, obj.bbox.y, obj.bbox.w, obj.bbox.h)
                new = obj.replace(bbox=bbox)
                note = f"moved {obj.name} #{node} to cx={cx:.3f}"
            else:
                new = obj.replace(depth=(low + hi[node]) / 2.0)
                note = f"set depth of {obj.name} #{node} to {new.depth:.3f}"
            objs[node] = new
            if not low < value(node) < hi[node]:
                break
            moves.append((new, note))
        else:
            for new, note in moves:
                work.put(new, note)
            return True
    return False


def _repair_axis(work: _Work, constraints, horizontal: bool) -> None:
    axis = [c for c in constraints if c.relation.horizontal == horizontal]
    for c in axis:
        if c.relatum is None or c.holds(work.objs):
            continue
        a_id, b_id = c.ids
        na, nb = swap_extents(work.objs[a_id], work.objs[b_id], horizontal)
        trial = dict(work.objs)
        trial[a_id], trial[b_id] = na, nb
        touched = [k for k in axis if a_id in k.ids or b_id in k.ids]
        if all(k.holds(trial) for k in touched):
            what = "horizontal extents" if horizontal else "depths"
            work.put(na)
            work.put(nb, f"swapped {what} of {na.name} #{a_id} and {nb.name} #{b_id}")
    violated = [c for c in axis if not c.holds(work.objs)]
    if not violated:
        return
    order = _axis_order(axis, "horizontal" if horizontal else "depth")
    if not _place(work, axis, order, {c.target for c in violated}, horizontal):
        # no room for the targets alone; when every object on the axis has
        # no room either, the final evaluation reports the clause set
        _place(work, axis, order, {n for n in order if n is not None}, horizontal)


def suggest_layout(expr: SpatialExpression, current: SceneLayout) -> LayoutProposal:
    """Propose a corrected layout for a camera-frame expression.

    Raises ValueError when any clause still carries an object perspective
    and UnsatisfiableError when the clause set cannot be satisfied.
    """
    for clause in expr.relations:
        if not isinstance(clause.perspective, Camera):
            raise ValueError("suggest_layout expects camera-frame clauses; convert first")

    work = _Work(current)
    mentioned = {m.name for m in expr.mentions}

    # 1. deletions: negated, unmentioned, surplus
    for negated in expr.negations:
        for oid in list(work.order):
            if _matches_negation(work.objs[oid].name, negated):
                work.drop(oid, f"negated noun {negated!r}")
    for oid in list(work.order):
        if work.objs[oid].name not in mentioned:
            work.drop(oid, "not mentioned in the expression")
    for mention in expr.mentions:
        pool = [work.objs[oid] for oid in work.order if work.objs[oid].name == mention.name]
        if len(pool) > 1:
            for obj in sorted(pool, key=_keep_key(mention))[1:]:
                work.drop(obj.object_id, f"surplus instance of {mention.name!r}")

    # 2. additions
    next_id = max(work.order, default=0) + 1
    for mention in expr.mentions:
        if any(work.objs[oid].name == mention.name for oid in work.order):
            continue
        bbox = place_in_free_band([work.objs[oid] for oid in work.order])
        obj = SceneObject(
            name=mention.name,
            attributes=mention.attributes,
            object_id=next_id,
            bbox=bbox,
            depth=0.5,
            facing=expr.facing_asserted(mention.name) or FacingDirection.NONE,
        )
        work.put(obj, f"added missing {mention.name} #{next_id}")
        next_id += 1

    # 3. attribute fixes
    for mention in expr.mentions:
        for oid in work.order:
            obj = work.objs[oid]
            if obj.name == mention.name and not mention_matches(obj, mention):
                work.put(
                    obj.replace(attributes=mention.attributes),
                    f"set attributes of {obj.name} #{oid} to {list(mention.attributes)}",
                )

    # 4. facing fixes
    for assertion in expr.facings:
        for oid in work.order:
            obj = work.objs[oid]
            if obj.name == assertion.subject and obj.facing is not assertion.facing:
                work.put(
                    obj.replace(facing=assertion.facing),
                    f"set facing of {obj.name} #{oid} to {assertion.facing.value}",
                )

    # 5./6. geometry
    name_to_id = {work.objs[oid].name: oid for oid in work.order}
    constraints = _camera_constraints(expr, name_to_id)
    _repair_axis(work, constraints, horizontal=True)
    _repair_axis(work, constraints, horizontal=False)

    layout = work.layout(current.background)
    verdict = evaluate(expr, layout)
    if not verdict.correct:
        raise UnsatisfiableError(
            "repair policy could not satisfy the expression; failing categories: "
            + ", ".join(f.value for f in verdict.failures)
        )
    return LayoutProposal(layout=layout, rationale=tuple(work.notes))


# --------------------------------------------------------------------------
# external interpreter protocol

_RESPONSE_FIELDS = ("updated_prompt", "layout", "reasoning")


def _request_record(prompt: str, layout_wire: str, round_index: int) -> str:
    """The JSON text of one request, without a line terminator."""
    return json.dumps({"prompt": prompt, "layout": layout_wire, "round": round_index})


# Longest HTTP body or stdio reply line read; a longer one is a protocol error.
_MAX_RESPONSE_BYTES = 1 << 20


def _validate_proposal_layout(
    layout: SceneLayout, prompt: str, annotation: SpatialExpression | None = None
) -> None:
    """Count/attribute consistency of an external proposal with its prompt.

    ``annotation`` is the prompt's parse when the caller holds it already
    (a dataset sample's); without it the prompt is parsed here.
    """
    expr = annotation
    if expr is None:
        try:
            expr = parse_expression(prompt)
        except ExpressionParseError:
            # free-form or self-contradictory prompt: range checks already passed, accept
            return
    for mention in expr.mentions:
        n = len(find_matching(layout, mention))
        if n != 1:
            raise LayoutValidationError(
                f"expected exactly one {mention.name!r}, proposal has {n}"
            )
    for negated in expr.negations:
        if any(_matches_negation(o.name, negated) for o in layout.objects):
            raise LayoutValidationError(f"proposal keeps negated noun {negated!r}")
    names = {m.name for m in expr.mentions}
    for obj in layout.objects:
        if obj.name not in names:
            raise LayoutValidationError(f"proposal invents unmentioned object {obj.name!r}")


def _parse_response_line(
    line: str, prompt: str, annotation: SpatialExpression | None = None
) -> LayoutProposal:
    from .wire import parse_wire_layout

    try:
        record = json.loads(line)
    except (ValueError, RecursionError) as exc:  # also over-long ints, deep nesting
        raise ProtocolError(f"response is not valid JSON: {exc}") from exc
    if not isinstance(record, dict) or any(k not in record for k in _RESPONSE_FIELDS):
        raise ProtocolError(f"response must carry fields {_RESPONSE_FIELDS}")
    try:
        layout = parse_wire_layout(record["layout"])  # range faults are already typed
    except WireFormatError as exc:
        raise ProtocolError(f"unparsable layout in response: {exc}") from exc
    except DuplicateIdError as exc:
        raise LayoutValidationError(str(exc)) from exc
    _validate_proposal_layout(layout, prompt, annotation)
    reasoning = record["reasoning"]
    return LayoutProposal(layout=layout, rationale=(str(reasoning),) if reasoning else ())


# Bytes asked of a child's stdout per read; a reply line is usually one read.
_READ_CHUNK = 1 << 16


class SubprocessInterpreter:
    """One external interpreter session over a child process's stdio.

    ``request`` writes the record and reads the reply on the calling
    thread, waiting on the child's stdout with ``select.poll`` (POSIX
    only). A request that times out, or whose reply line runs past
    ``_MAX_RESPONSE_BYTES``, kills the child and starts a fresh one, with
    a fresh read buffer, from the same command line, so the rest of that
    reply never answers a later request.
    """

    def __init__(self, argv, timeout: float = 10.0):
        if isinstance(argv, str):
            argv = shlex.split(argv)
        self._argv = list(argv)
        if not self._argv:
            raise ValueError("interpreter command line is empty")
        self.timeout = timeout
        self._start()

    def _start(self) -> None:
        try:
            self._proc = subprocess.Popen(
                self._argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
            )
        except OSError as exc:
            raise ProtocolError(f"cannot start interpreter {self._argv[0]!r}: {exc}") from exc
        self._fd = self._proc.stdout.fileno()
        self._poll = select.poll()
        self._poll.register(self._fd, select.POLLIN)
        self._buffer = bytearray()
        self._eof = False

    def _read_line(self) -> bytes | None:
        """The child's next stdout line; None marks end of stream.

        An unterminated tail before end of stream is returned as the last
        line. Raises InterpreterTimeout when no full line arrives within
        ``timeout`` seconds, and ProtocolError when the line runs past
        ``_MAX_RESPONSE_BYTES``.
        """
        buffer = self._buffer
        deadline = time.monotonic() + self.timeout
        scanned = 0
        while True:
            end = buffer.find(b"\n", scanned, _MAX_RESPONSE_BYTES + 1)
            if end >= 0:
                line = bytes(buffer[:end + 1])
                del buffer[:end + 1]
                return line
            if len(buffer) > _MAX_RESPONSE_BYTES:
                raise ProtocolError(f"response line exceeds {_MAX_RESPONSE_BYTES} bytes")
            if self._eof:
                line = bytes(buffer) or None
                buffer.clear()
                return line
            scanned = len(buffer)
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._poll.poll(remaining * 1000.0):
                raise InterpreterTimeout(f"no response within {self.timeout:.1f}s")
            chunk = os.read(self._fd, _READ_CHUNK)
            if chunk:
                buffer += chunk
            else:
                self._eof = True

    def request(
        self,
        prompt: str,
        layout_wire: str,
        round_index: int,
        annotation: SpatialExpression | None = None,
    ) -> LayoutProposal:
        if self._proc.poll() is not None or self._proc.stdin is None:
            raise ProtocolError("interpreter process is not running")
        record = _request_record(prompt, layout_wire, round_index)
        try:
            self._proc.stdin.write((record + "\n").encode("utf-8"))
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise ProtocolError(f"interpreter closed its stdin: {exc}") from exc
        try:
            line = self._read_line()
        except (InterpreterTimeout, ProtocolError):
            self._stop(grace=0.0)
            self._start()
            raise
        if line is None:
            # stop the child now, so later requests fail at once instead of
            # writing into a closing pipe and waiting out the timeout
            self._stop(grace=0.0)
            raise ProtocolError("interpreter closed its stdout mid-session")
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"response line is not UTF-8: {exc}") from exc
        return _parse_response_line(text, prompt, annotation)

    def _stop(self, grace: float) -> None:
        """Close the child's stdin, give it ``grace`` seconds to exit, then kill it.

        Its stdout is closed last: no reader thread drains it.
        """
        proc = self._proc
        try:
            proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def close(self) -> None:
        self._stop(grace=2.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class HttpInterpreter:
    """External interpreter behind an HTTP endpoint, one POST per record."""

    def __init__(self, url: str, timeout: float = 10.0):
        self.url = url
        self.timeout = timeout

    def request(
        self,
        prompt: str,
        layout_wire: str,
        round_index: int,
        annotation: SpatialExpression | None = None,
    ) -> LayoutProposal:
        import http.client
        import urllib.error
        import urllib.request  # on first request: most sessions are stdio

        payload = _request_record(prompt, layout_wire, round_index).encode("utf-8")
        req = urllib.request.Request(
            self.url, data=payload, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                body = resp.read(_MAX_RESPONSE_BYTES + 1)
        except urllib.error.HTTPError as exc:  # the endpoint answered, with an error status
            exc.close()
            raise ProtocolError(f"endpoint answered HTTP {exc.code}: {exc.reason}") from exc
        except urllib.error.URLError as exc:
            if isinstance(getattr(exc, "reason", None), TimeoutError):
                raise InterpreterTimeout(str(exc)) from exc
            raise ProtocolError(f"endpoint unreachable: {exc}") from exc
        except TimeoutError as exc:
            raise InterpreterTimeout(str(exc)) from exc
        except (OSError, http.client.HTTPException) as exc:  # dropped or non-HTTP reply
            raise ProtocolError(f"endpoint failed mid-request: {exc!r}") from exc
        if len(body) > _MAX_RESPONSE_BYTES:
            raise ProtocolError(f"response body exceeds {_MAX_RESPONSE_BYTES} bytes")
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"response body is not UTF-8: {exc}") from exc
        return _parse_response_line(text, prompt, annotation)

    def close(self) -> None:  # symmetry with the subprocess session
        pass


def make_interpreter(endpoint: str, timeout: float = 10.0):
    if endpoint.startswith(("http://", "https://")):
        return HttpInterpreter(endpoint, timeout=timeout)
    return SubprocessInterpreter(endpoint, timeout=timeout)


def external_suggest(
    prompt: str, layout_wire: str, endpoint: str, round_index: int = 0, timeout: float = 10.0
) -> LayoutProposal:
    """One-shot proposal from an external interpreter endpoint (an URL or a command line)."""
    session = make_interpreter(endpoint, timeout=timeout)
    try:
        return session.request(prompt, layout_wire, round_index)
    finally:
        session.close()

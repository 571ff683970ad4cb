"""Serialization: the textual layout grammar, annotation JSON, datasets.

A layout travels as a bracketed, comma-separated list of entries,

    [('red cat #1', [0.1, 0.2, 0.3, 0.4], 0.55, 'Left'), ...]

one per object: attributed name with ``#id``, a 4-number box, the mean
depth, and a facing label (quoted bucket name, or bare ``None``).
Numbers carry at most 3 decimals; serializing quantizes to that grid, so
round-trip identity holds exactly for values already on it. Parsing is
liberal about whitespace, facing-label case and quoting, trailing commas,
signed or exponent numbers, and the outer brackets.

Grammar problems raise WireFormatError, entries that parse but break a
model range LayoutValidationError with the model's message, and repeated
ids the model's DuplicateIdError, so callers can tell the three apart.

Datasets and reports are newline-delimited JSON with sorted keys,
written atomically (temp file + rename).
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from typing import Iterable, Iterator, NoReturn

from .dsl import (
    ATTRIBUTE_WORDS,
    CAMERA,
    FacingAssertion,
    Intrinsic,
    ObjectMention,
    RelationClause,
    SpatialExpression,
    parse_expression,
)
from .errors import (
    DatasetError, ExpressionParseError, LayoutValidationError, SceneFixError, WireFormatError,
)
from .scene import (
    BBox,
    DEFAULT_BACKGROUND,
    DEFAULT_SCENE_SIZE,
    FacingDirection,
    Relation,
    SceneLayout,
    SceneObject,
    grid_bounds,
)

_FACING_BY_LOWER = {f.value.lower(): f for f in FacingDirection}

_NUMBER = r"[-+]?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"
_ENTRY_WS = r"[ \t\n\r\f\v]*"  # whitespace inside an entry is ASCII
_BOX_PAD = r"\t\n\x0b\x0c\r\x1c-\x1f "  # what str.strip() removes from ASCII text
_BOX_NUMBER = r"[-+.0-9A-Za-z_]+"  # every character float() reads; float() judges the rest

# One entry and the separator after it. The head splits at its last '#'
# into name words and an ASCII id; the box holds exactly four numbers
# among commas that may also delimit empty items; between entries any
# whitespace str.strip() removes may stand.
_ENTRY_RE = re.compile(
    r"""\({ws}
        '(?P<base>[^']*)\#\s*(?P<id>[0-9]+)\s*'{ws},{ws}
        \[[{pad},]*(?P<x>{box})[{pad}]*,
        [{pad},]*(?P<y>{box})[{pad}]*,
        [{pad},]*(?P<w>{box})[{pad}]*,
        [{pad},]*(?P<h>{box})[{pad},]*\]{ws},{ws}
        (?P<depth>{num}){ws},{ws}
        (?:'(?P<facing>[A-Za-z]+)'|(?P<bare>[A-Za-z]+))
        {ws}\)
        \s*(?P<sep>,?)\s*""".format(ws=_ENTRY_WS, pad=_BOX_PAD, box=_BOX_NUMBER, num=_NUMBER),
    re.VERBOSE,
)

# The liberal shape of an entry: words the error for one _ENTRY_RE rejects.
_LIBERAL_ENTRY_RE = re.compile(
    r"""\(\s*
        '(?P<head>[^']*)'\s*,\s*
        \[(?P<bbox>[^\]]*)\]\s*,\s*
        (?P<depth>{num})\s*,\s*
        (?:'(?P<facing>[A-Za-z]+)'|(?P<bare>[A-Za-z]+))
        \s*\)""".format(num=_NUMBER),
    re.VERBOSE | re.ASCII,
)


def fmt_number(value: float) -> str:
    """Up to 3 decimals, no trailing zeros: 0.25 -> '0.25', 1.0 -> '1'."""
    text = f"{round(float(value), 3):.3f}".rstrip("0").rstrip(".")
    return text if text not in ("", "-0") else "0"


def _bbox_text(bbox: BBox) -> str:
    return ", ".join(fmt_number(v) for v in bbox.as_list())


def _entry(obj: SceneObject) -> str:
    head = " ".join([*obj.attributes, obj.name]) + f" #{obj.object_id}"
    facing = "None" if obj.facing is FacingDirection.NONE else f"'{obj.facing.value}'"
    return f"('{head}', [{_bbox_text(obj.bbox)}], {fmt_number(obj.depth)}, {facing})"


def serialize_wire_layout(layout: SceneLayout) -> str:
    return "[" + ", ".join(_entry(o) for o in layout.objects) + "]"


def restore_sent(sent: SceneLayout, reply: SceneLayout) -> SceneLayout:
    """``reply`` with each box and depth that prints as the one sent for the
    same id put back to the sent value.

    The wire keeps 3 decimals, so a value sent off that grid comes back
    changed although the interpreter left it alone. Only a box or depth
    that differs as a value is printed again.
    """
    by_id = {o.object_id: o for o in sent.objects}
    objects = list(reply.objects)
    restored = False
    for i, new in enumerate(objects):
        old = by_id.get(new.object_id)
        if old is None:
            continue
        bbox_rounded = new.bbox != old.bbox and _bbox_text(new.bbox) == _bbox_text(old.bbox)
        depth_rounded = new.depth != old.depth and fmt_number(new.depth) == fmt_number(old.depth)
        if bbox_rounded or depth_rounded:
            objects[i] = new.replace(
                bbox=old.bbox if bbox_rounded else new.bbox,
                depth=old.depth if depth_rounded else new.depth,
            )
            restored = True
    return reply.with_objects(objects) if restored else reply


def _name_and_attributes(words: list[str]) -> tuple[str, tuple[str, ...]]:
    """Leading attribute words, then the name; the last word is always name."""
    last = len(words) - 1
    i = 0
    while i < last and words[i] in ATTRIBUTE_WORDS:
        i += 1
    return " ".join(words[i:]), tuple(words[:i])


def _head_name(head: str) -> str:
    base, sep, id_text = head.rpartition("#")
    id_text = id_text.strip()
    if not sep or not (id_text.isascii() and id_text.isdigit()):
        raise WireFormatError(f"entry head {head!r} lacks a '#<id>' suffix")
    words = base.split()
    if not words:
        raise WireFormatError(f"entry head {head!r} has no object name")
    return _name_and_attributes(words)[0]


def _reject_entry(body: str, pos: int) -> NoReturn:
    """Raise the WireFormatError for the entry at ``pos``, which _ENTRY_RE refused."""
    match = _LIBERAL_ENTRY_RE.match(body, pos)
    if match is not None:
        name = _head_name(match.group("head"))
        bbox_text = match.group("bbox")
        if not bbox_text.isascii():
            raise WireFormatError(f"bbox of {name!r} is not ASCII: {bbox_text[:40]!r}")
        numbers = [n for n in (s.strip() for s in bbox_text.split(",")) if n]
        if len(numbers) != 4:
            raise WireFormatError(f"bbox of {name!r} must have 4 numbers, got {len(numbers)}")
        for number in numbers:
            try:
                float(number)
            except ValueError as exc:
                raise WireFormatError(f"bad number in entry for {name!r}: {exc}") from exc
    raise WireFormatError(f"unparsable layout entry at offset {pos}: {body[pos:pos + 40]!r}")


def _parse_facing(label: str) -> FacingDirection:
    facing = _FACING_BY_LOWER.get(label.lower())
    if facing is None:
        raise WireFormatError(f"unknown facing label {label!r}")
    return facing


def parse_wire_layout(text: str, background: str = DEFAULT_BACKGROUND) -> SceneLayout:
    """Parse the textual layout grammar back into a SceneLayout.

    Raises WireFormatError for malformed text, LayoutValidationError for
    a value outside the model's ranges (an id too long for ``int`` too),
    and DuplicateIdError for a repeated id.
    """
    if not isinstance(text, str):
        raise WireFormatError(f"layout must be a string, got {type(text).__name__}")
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1].strip()
    objects: list[SceneObject] = []
    pos, end = 0, len(body)
    while pos < end:
        match = _ENTRY_RE.match(body, pos)
        if match is None:
            _reject_entry(body, pos)
        base, id_text, x, y, w, h, depth, quoted, bare, sep = match.groups()
        words = base.split()
        if not words:
            _reject_entry(body, pos)
        name, attrs = _name_and_attributes(words)
        try:
            x, y, w, h = float(x), float(y), float(w), float(h)
        except ValueError as exc:
            raise WireFormatError(f"bad number in entry for {name!r}: {exc}") from exc
        try:
            objects.append(
                SceneObject(
                    name, attrs, int(id_text), BBox(x, y, w, h), float(depth),
                    _parse_facing(quoted or bare),
                )
            )
        except ValueError as exc:  # a range check, or an id too long for int()
            raise LayoutValidationError(str(exc)) from exc
        pos = match.end()
        if not sep and pos < end:
            raise WireFormatError(f"unexpected text after entry: {body[pos:pos + 40]!r}")
    return SceneLayout(tuple(objects), background)


# --------------------------------------------------------------------------
# annotation JSON

def _perspective_to_json(p) -> dict:
    if isinstance(p, Intrinsic):
        return {"kind": "intrinsic", "relatum": p.relatum}
    return {"kind": "camera"}


def annotation_to_json(expr: SpatialExpression) -> dict:
    return {
        "mentions": [
            {"name": m.name, "attributes": list(m.attributes)} for m in expr.mentions
        ],
        "relations": [
            {
                "target": c.target,
                "relation": c.relation.value,
                "relatum": c.relatum,
                "perspective": _perspective_to_json(c.perspective),
            }
            for c in expr.relations
        ],
        "facings": [{"subject": f.subject, "facing": f.facing.value} for f in expr.facings],
        "negations": list(expr.negations),
        "background": expr.background,
    }


def annotation_from_json(data: dict) -> SpatialExpression:
    try:
        mentions = tuple(
            ObjectMention(m["name"], tuple(m["attributes"])) for m in data["mentions"]
        )
        relations = []
        for c in data["relations"]:
            persp = c["perspective"]
            perspective = (
                Intrinsic(persp["relatum"]) if persp["kind"] == "intrinsic" else CAMERA
            )
            relations.append(
                RelationClause(c["target"], Relation(c["relation"]), c["relatum"], perspective)
            )
        facings = tuple(
            FacingAssertion(f["subject"], FacingDirection(f["facing"])) for f in data["facings"]
        )
        return SpatialExpression(
            mentions=mentions,
            relations=tuple(relations),
            facings=facings,
            negations=tuple(data["negations"]),
            background=data["background"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WireFormatError(f"bad annotation record: {exc}") from exc


# --------------------------------------------------------------------------
# datasets

_SAMPLE_FIELDS = ("id", "prompt", "split", "source", "annotation", "gold_layout", "initial_layout")
_TEXT_FIELDS = ("id", "prompt", "split", "source")


def sample_to_record(sample) -> dict:
    return {
        "id": sample.id,
        "prompt": sample.prompt,
        "split": sample.split,
        "source": sample.source,
        "annotation": annotation_to_json(sample.annotation),
        "gold_layout": serialize_wire_layout(sample.gold_layout),
        "initial_layout": serialize_wire_layout(sample.initial_layout),
    }


def sample_from_record(record: dict, line: int = 0):
    from .benchgen import BenchmarkSample

    if not isinstance(record, dict):
        raise DatasetError(f"record must be a JSON object, got {type(record).__name__}", line=line)
    missing = [k for k in _SAMPLE_FIELDS if k not in record]
    if missing:
        raise DatasetError(f"record is missing fields {missing}", line=line)
    for key in _TEXT_FIELDS:
        if not isinstance(record[key], str):
            kind = type(record[key]).__name__
            raise DatasetError(f"{key} must be a string, got {kind}", line=line)
    prompt = record["prompt"]
    try:
        parsed = parse_expression(prompt)
    except ExpressionParseError as exc:
        parsed, parse_fault = None, exc
    try:
        # a record written by sample_to_record holds exactly the parse's JSON;
        # decoding it separately only matters when it spells the annotation
        # differently, or is not a valid annotation at all
        if parsed is not None and annotation_to_json(parsed) == record["annotation"]:
            annotation = parsed
        else:
            annotation = annotation_from_json(record["annotation"])
        gold_text, initial_text = record["gold_layout"], record["initial_layout"]
        gold_layout = parse_wire_layout(gold_text, annotation.background)
        # an uncorrupted sample starts from its gold layout: one parse serves both
        if initial_text == gold_text:
            initial_layout = gold_layout
        else:
            initial_layout = parse_wire_layout(initial_text, annotation.background)
        # a box the loop cannot render fails its record, not the run
        for obj in initial_layout.objects:
            grid_bounds(DEFAULT_SCENE_SIZE, DEFAULT_SCENE_SIZE, obj.bbox)
    except SceneFixError as exc:
        raise DatasetError(str(exc), line=line) from exc
    if parsed is None:
        raise DatasetError(f"prompt does not parse: {parse_fault}", line=line) from parse_fault
    if parsed != annotation:
        raise DatasetError(f"annotation does not match prompt {prompt!r}", line=line)
    return BenchmarkSample(
        id=record["id"],
        prompt=prompt,
        annotation=parsed,
        gold_layout=gold_layout,
        initial_layout=initial_layout,
        split=record["split"],
        source=record["source"],
    )


def write_ndjson(path: str, records: Iterable[dict]) -> None:
    """Atomic newline-delimited JSON write with deterministic key order."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_lines(path: str) -> Iterator[tuple[int, bytes]]:
    """The non-blank lines of an NDJSON file with their 1-based numbers, undecoded."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            if raw.strip():
                yield lineno, raw


def decode_lines(lines: Iterable[tuple[int, bytes]]) -> Iterator[tuple[int, object]]:
    """Decode numbered lines from ``read_lines`` as UTF-8 JSON, in order.

    The first line that is not UTF-8 or not JSON is a DatasetError. The
    text is decoded here, not in ``read_lines``, so a worker pool that
    decodes chunks of lines reports the same first bad line as a serial
    read.
    """
    for lineno, raw in lines:
        try:
            record = json.loads(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise DatasetError(f"line is not UTF-8: {exc}", line=lineno) from exc
        except (ValueError, RecursionError) as exc:  # also over-long ints, deep nesting
            raise DatasetError(f"invalid JSON: {exc}", line=lineno) from exc
        yield lineno, record


def read_ndjson(path: str) -> list[tuple[int, object]]:
    return list(decode_lines(read_lines(path)))


def write_dataset(path: str, samples) -> None:
    write_ndjson(path, (sample_to_record(s) for s in samples))


def decode_dataset(lines: Iterable[tuple[int, bytes]]) -> list:
    """Samples from numbered dataset lines, checked record by record in line order."""
    return [sample_from_record(record, line) for line, record in decode_lines(lines)]


def read_dataset(path: str) -> list:
    return decode_dataset(read_lines(path))


def load_layouts(path: str) -> dict[str, SceneLayout]:
    """Read an NDJSON file of {id, layout} overrides for evaluation.

    An id given on two lines is a DatasetError at the second.
    """
    layouts: dict[str, SceneLayout] = {}
    for lineno, record in read_ndjson(path):
        if not isinstance(record, dict) or "id" not in record or "layout" not in record:
            raise DatasetError(
                "layout record must be an object with 'id' and 'layout'", line=lineno
            )
        sample_id = record["id"]
        if not isinstance(sample_id, str):
            kind = type(sample_id).__name__
            raise DatasetError(f"layout record id must be a string, got {kind}", line=lineno)
        if sample_id in layouts:
            raise DatasetError(f"layout record id {sample_id!r} is repeated", line=lineno)
        try:
            layouts[sample_id] = parse_wire_layout(record["layout"])
        except SceneFixError as exc:
            raise DatasetError(str(exc), line=lineno) from exc
    return layouts

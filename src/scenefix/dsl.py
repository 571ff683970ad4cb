"""Spatial expression grammar: parsing prompts into a small AST and back.

The grammar covers the prompt shapes the benchmark generator emits plus a
few common variants:

* binary relation clauses, e.g. "A red chicken is on the left of a chair
  from the chair's view", with an optional perspective phrase that is
  either camera-anchored ("from the camera's perspective", "relative to
  the camera", "from the camera angle") or anchored on the reference
  object ("from the chair's perspective");
* unary positional clauses against the image midline, e.g. "a car on the
  left", modeled as a clause whose relatum is the reserved ``FRAME``;
* facing sentences, e.g. "The sheep is facing away from the camera." or
  "... facing forward-left relative to the camera.";
* bare noun phrases ("a cat"), negation sentences ("No backpacks.") and a
  fixed set of background openers ("An oil painting of ...").

A prompt must mention an object and negate none it mentions (nor a plural
of one), and a clause against the frame is horizontal only ("a car on the left").

Anything else raises ExpressionParseError with the byte offset of the
segment that failed, rather than guessing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ExpressionParseError
from .scene import DEFAULT_BACKGROUND, HORIZONTAL, FacingDirection, Relation, slot_setters

# Reserved relatum name for unary clauses checked against the image midline.
FRAME = "frame"

ARTICLES = ("a", "an", "the", "another", "one")

# Closed attribute vocabulary: leading noun-phrase words found here become
# attributes, everything after them is the (possibly multi-word) noun.
COLOR_WORDS = (
    "red", "orange", "yellow", "green", "blue", "purple", "pink", "brown",
    "black", "white", "gray", "grey", "cyan", "golden", "silver",
)
SIZE_WORDS = ("small", "large", "big", "tiny", "huge", "little")
ATTRIBUTE_WORDS = frozenset(COLOR_WORDS + SIZE_WORDS)


@dataclass(frozen=True, slots=True, init=False)
class ObjectMention:
    name: str
    attributes: tuple[str, ...] = ()

    def __init__(self, name: str, attributes: tuple[str, ...] = ()):
        _set_mention_name(self, name)
        _set_mention_attributes(self, tuple(attributes))

    def __reduce__(self):
        return ObjectMention, (self.name, self.attributes)


_set_mention_name, _set_mention_attributes = slot_setters(ObjectMention)


@dataclass(frozen=True)
class Camera:
    """Camera-anchored perspective (the default reading)."""


@dataclass(frozen=True)
class Intrinsic:
    """Perspective anchored on a mentioned object, stored by noun."""

    relatum: str


CAMERA = Camera()


@dataclass(frozen=True, slots=True, init=False)
class RelationClause:
    target: str
    relation: Relation
    relatum: str
    perspective: Camera | Intrinsic = CAMERA

    def __init__(self, target: str, relation: Relation, relatum: str,
                 perspective: Camera | Intrinsic = CAMERA):
        if target == relatum:
            raise ValueError(f"clause relates {target!r} to itself")
        if relatum == FRAME and not isinstance(perspective, Camera):
            raise ValueError("frame-relative clauses are camera-anchored by definition")
        if relatum == FRAME and relation not in HORIZONTAL:
            raise ValueError("frame-relative clauses are horizontal only")
        _set_target(self, target)
        _set_relation(self, relation)
        _set_relatum(self, relatum)
        _set_perspective(self, perspective)

    def __reduce__(self):
        return RelationClause, (self.target, self.relation, self.relatum, self.perspective)


_set_target, _set_relation, _set_relatum, _set_perspective = slot_setters(RelationClause)


@dataclass(frozen=True)
class FacingAssertion:
    subject: str
    facing: FacingDirection

    def __post_init__(self):
        if self.facing is FacingDirection.NONE:
            raise ValueError("a facing assertion needs a concrete bucket")


def _matches_negation(name: str, negated: str) -> bool:
    """Whether a negated noun covers an object name: the same noun, or a plural of either."""
    return name == negated or name + "s" == negated or name == negated + "s"


def _refuse_negated_mention(negated: str, names) -> None:
    """ValueError when a negated noun covers a mentioned name: no layout satisfies both."""
    for name in names:
        if _matches_negation(name, negated):
            raise ValueError(f"negated noun {negated!r} covers the mention {name!r}")


@dataclass(frozen=True, slots=True, init=False)
class SpatialExpression:
    mentions: tuple[ObjectMention, ...]
    relations: tuple[RelationClause, ...] = ()
    facings: tuple[FacingAssertion, ...] = ()
    negations: tuple[str, ...] = ()
    background: str = DEFAULT_BACKGROUND

    def __init__(self, mentions: tuple[ObjectMention, ...],
                 relations: tuple[RelationClause, ...] = (),
                 facings: tuple[FacingAssertion, ...] = (), negations: tuple[str, ...] = (),
                 background: str = DEFAULT_BACKGROUND):
        mentions = tuple(mentions)
        relations = tuple(relations)
        facings = tuple(facings)
        negations = tuple(negations)
        names = [m.name for m in mentions]
        if not names:
            raise ValueError("an expression must mention an object")
        known = set(names)
        if len(known) != len(names):
            raise ValueError(f"duplicate mention names: {names}")
        for clause in relations:
            if clause.target not in known:
                raise ValueError(f"clause target {clause.target!r} is not mentioned")
            if clause.relatum != FRAME and clause.relatum not in known:
                raise ValueError(f"clause relatum {clause.relatum!r} is not mentioned")
            if isinstance(clause.perspective, Intrinsic) and clause.perspective.relatum not in known:
                raise ValueError(
                    f"perspective anchor {clause.perspective.relatum!r} is not mentioned"
                )
        for assertion in facings:
            if assertion.subject not in known:
                raise ValueError(f"facing subject {assertion.subject!r} is not mentioned")
        for negated in negations:
            _refuse_negated_mention(negated, names)
        _set_mentions(self, mentions)
        _set_relations(self, relations)
        _set_facings(self, facings)
        _set_negations(self, negations)
        _set_expr_background(self, background)

    def __reduce__(self):
        return SpatialExpression, (self.mentions, self.relations, self.facings,
                                   self.negations, self.background)

    def facing_asserted(self, name: str) -> FacingDirection | None:
        for a in self.facings:
            if a.subject == name:
                return a.facing
        return None


(_set_mentions, _set_relations, _set_facings, _set_negations,
 _set_expr_background) = slot_setters(SpatialExpression)


# --------------------------------------------------------------------------
# parsing

_BG_RE = re.compile(
    r"^(?P<bg>(?:a|an)\s+"
    r"(?:realistic\s+(?:image|photo)|oil\s+painting|animated-style\s+image|photograph|photo)"
    r"(?:\s+at\s+the\s+beach|\s+on\s+the\s+sea)?"
    r"(?:\s+of\s+(?:a|an)\s+(?:landscape\s+)?scene)?)"
    r"\s+(?P<sep>of|with|depicting|without)\s+",
    re.IGNORECASE,
)

_BINARY_RE = re.compile(
    r"^(?P<target>.+?)\s+(?:is\s+|are\s+)?(?:located\s+)?"
    r"(?:on\s+the\s+|to\s+the\s+|in\s+|at\s+the\s+)?"
    r"(?P<rel>left|right|front|back)\s+(?:of|side\s+of)\s+"
    r"(?P<relatum>.+?)"
    r"(?P<persp>\s+from\s+.+|\s+relative\s+to\s+.+)?$",
    re.IGNORECASE,
)

_UNARY_RE = re.compile(
    r"^(?P<target>.+?)\s+(?:is\s+|are\s+)?(?:on\s+the\s+|to\s+the\s+)"
    r"(?P<rel>left|right)"
    r"(?P<persp>\s+from\s+.+|\s+relative\s+to\s+.+)?$",
    re.IGNORECASE,
)

_FACING_RE = re.compile(
    r"^(?P<subject>.+?)\s+(?:is|are)\s+facing\s+(?P<dir>.+)$",
    re.IGNORECASE,
)

_NEGATION_RE = re.compile(r"^(?:without|no|there\s+(?:is|are)\s+no)\s+(?P<np>.+)$", re.IGNORECASE)

_PERSP_VIEW_RE = re.compile(
    r"^from\s+(?:the\s+)?(?P<owner>.+?)(?:'s)?\s+(?:perspective|view|viewpoint|angle)$",
    re.IGNORECASE,
)
_PERSP_REL_RE = re.compile(r"^relative\s+to\s+(?:the\s+)?(?P<owner>.+?)$", re.IGNORECASE)

_SENTENCE_RE = re.compile(r"[^.]+")
_AND_RE = re.compile(r"\s+and\s+", re.IGNORECASE)
_NOUN_RE = re.compile(r"[a-z][a-z -]*")

_CAMERA_OWNERS = frozenset({"camera", "observer", "viewer", "me"})

_FACING_CORE = {
    "toward": FacingDirection.FRONT,
    "towards": FacingDirection.FRONT,
    "front": FacingDirection.FRONT,
    "forward": FacingDirection.FRONT,
    "away": FacingDirection.BACK,
    "back": FacingDirection.BACK,
    "backward": FacingDirection.BACK,
    "left": FacingDirection.LEFT,
    "right": FacingDirection.RIGHT,
    "forward-left": FacingDirection.FORWARD_LEFT,
    "forward left": FacingDirection.FORWARD_LEFT,
    "forward-right": FacingDirection.FORWARD_RIGHT,
    "forward right": FacingDirection.FORWARD_RIGHT,
    "backward-left": FacingDirection.BACKWARD_LEFT,
    "backward left": FacingDirection.BACKWARD_LEFT,
    "backward-right": FacingDirection.BACKWARD_RIGHT,
    "backward right": FacingDirection.BACKWARD_RIGHT,
    "the camera": FacingDirection.FRONT,
}

_FACING_SUFFIXES = (
    " relative to the camera",
    " relative to the observer",
    " relative to camera",
    " from the camera",
    " from camera",
    " the camera",
    " to the",
)


_RELATION_BY_WORD = {r.value: r for r in Relation}


def _relation(word: str) -> Relation:
    """``Relation(word.lower())``, refused with the enum's own message."""
    word = word.lower()
    relation = _RELATION_BY_WORD.get(word)
    if relation is None:
        raise ValueError(f"{word!r} is not a valid Relation")
    return relation


def _parse_np(text: str, offset: int) -> tuple[str, tuple[str, ...]]:
    words = [w.lower() for w in text.split()]
    first = 1 if words and words[0] in ARTICLES else 0
    last = len(words) - 1
    i = first
    while i < last and words[i] in ATTRIBUTE_WORDS:
        i += 1
    if i > last:
        raise ExpressionParseError(f"empty noun phrase in {text!r}", offset)
    noun = " ".join(words[i:])
    if not _NOUN_RE.fullmatch(noun):
        raise ExpressionParseError(f"cannot read {text!r} as a noun phrase", offset)
    return noun, tuple(words[first:i])


def _parse_perspective(text: str | None, offset: int) -> Camera | Intrinsic:
    if text is None or not text.strip():
        return CAMERA
    t = text.strip().rstrip(".").strip()
    m = _PERSP_VIEW_RE.match(t) or _PERSP_REL_RE.match(t)
    if m is None:
        raise ExpressionParseError(f"unrecognized perspective phrase {text!r}", offset)
    owner = m.group("owner").strip()
    if owner.endswith("'s"):
        owner = owner[:-2].strip()
    if owner.lower() in _CAMERA_OWNERS:
        return CAMERA
    noun, _ = _parse_np(owner, offset)
    return Intrinsic(noun)


def _parse_facing_phrase(text: str, offset: int) -> FacingDirection:
    t = " ".join(text.strip().rstrip(".").lower().split())
    changed = True
    while changed:
        changed = False
        for suffix in _FACING_SUFFIXES:
            if t.endswith(suffix) and t != suffix.strip():
                t = t[: -len(suffix)].strip()
                changed = True
    if t.startswith("away from"):
        t = "away"
    if t.startswith("to the ") and t != "the camera":
        t = t[len("to the ") :]
    facing = _FACING_CORE.get(t)
    if facing is None:
        raise ExpressionParseError(f"unrecognized facing phrase {text!r}", offset)
    return facing


class _Builder:
    """Accumulates mentions/clauses in first-occurrence order."""

    def __init__(self):
        self.order: list[str] = []
        self.attrs: dict[str, list[str]] = {}
        self.relations: list[RelationClause] = []
        self.facings: list[FacingAssertion] = []
        # negated noun -> offset of the first segment negating it
        self.negations: dict[str, int] = {}
        # (anchor noun, segment offset) of each object-anchored perspective
        self.anchors: list[tuple[str, int]] = []

    def mention(self, noun: str, attrs: tuple[str, ...], offset: int) -> str:
        if noun == FRAME:
            # the reserved relatum of a midline clause, never an object
            raise ExpressionParseError(f"{FRAME!r} names the image frame, not an object", offset)
        if noun not in self.attrs:
            self.order.append(noun)
            self.attrs[noun] = list(attrs)
        else:
            for a in attrs:
                if a not in self.attrs[noun]:
                    self.attrs[noun].append(a)
        return noun

    def mentions(self) -> tuple[ObjectMention, ...]:
        return tuple(ObjectMention(n, tuple(self.attrs[n])) for n in self.order)


def _byte_len(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _segments(text: str, base: int):
    """Yield (segment, byte_offset) pairs: sentences split on '.', then ' and '."""
    # an ASCII text's byte offsets are its character positions
    is_ascii = text.isascii()
    for sm in _SENTENCE_RE.finditer(text):
        sentence = sm.group(0)
        start = base + (sm.start() if is_ascii else _byte_len(text[: sm.start()]))
        pos = 0
        for am in _AND_RE.finditer(sentence):
            seg = sentence[pos : am.start()].strip()
            if seg:
                yield seg, start + (pos if is_ascii else _byte_len(sentence[:pos]))
            pos = am.end()
        seg = sentence[pos:].strip()
        if seg:
            yield seg, start + (pos if is_ascii else _byte_len(sentence[:pos]))


def parse_expression(text: str) -> SpatialExpression:
    """Parse a prompt into a SpatialExpression.

    Raises ExpressionParseError (with a byte offset) on anything outside
    the supported grammar.
    """
    if not text or not text.strip():
        raise ExpressionParseError("empty expression", 0)
    work = text.strip()
    background = DEFAULT_BACKGROUND
    base = _byte_len(text) - _byte_len(text.lstrip())

    bg_match = _BG_RE.match(work)
    if bg_match is not None:
        raw_bg = bg_match.group("bg")
        background = raw_bg[0].upper() + raw_bg[1:]
        sep = bg_match.group("sep").lower()
        # "without" introduces a negation and must stay in the clause text
        cut = bg_match.end() if sep != "without" else bg_match.start("sep")
        base += _byte_len(work[:cut])
        work = work[cut:]

    builder = _Builder()
    for segment, offset in _segments(work, base):
        try:
            _parse_segment(segment, offset, builder)
        except ValueError as exc:  # a clause the data model refuses, such as 'rıght'
            raise ExpressionParseError(str(exc), offset) from exc
    # a later segment may mention the anchor, so check only once all are read
    for anchor, offset in builder.anchors:
        if anchor not in builder.attrs:
            raise ExpressionParseError(f"perspective anchor {anchor!r} is not mentioned", offset)
    for negated, offset in builder.negations.items():
        try:
            _refuse_negated_mention(negated, builder.order)
        except ValueError as exc:
            raise ExpressionParseError(str(exc), offset) from exc
    if not builder.order:
        raise ExpressionParseError("no object is mentioned", base)

    return SpatialExpression(
        mentions=builder.mentions(),
        relations=tuple(builder.relations),
        facings=tuple(builder.facings),
        negations=tuple(builder.negations),
        background=background,
    )


def _parse_segment(segment: str, offset: int, b: _Builder) -> None:
    # _FACING_RE needs the word "facing"; outside ASCII, case-insensitive
    # matching also reads a dotted or dotless i there, so always try it
    m = None
    if "facing" in segment.lower() or not segment.isascii():
        m = _FACING_RE.match(segment)
    if m is not None:
        noun, attrs = _parse_np(m.group("subject"), offset)
        b.mention(noun, attrs, offset)
        b.facings.append(FacingAssertion(noun, _parse_facing_phrase(m.group("dir"), offset)))
        return

    m = _NEGATION_RE.match(segment)
    if m is not None:
        noun, _ = _parse_np(m.group("np"), offset)
        b.negations.setdefault(noun, offset)
        return

    m = _BINARY_RE.match(segment)
    if m is not None:
        target, t_attrs = _parse_np(m.group("target"), offset)
        relatum, r_attrs = _parse_np(m.group("relatum"), offset)
        perspective = _parse_perspective(m.group("persp"), offset)
        if isinstance(perspective, Intrinsic):
            b.anchors.append((perspective.relatum, offset))
        b.mention(target, t_attrs, offset)
        if relatum != FRAME:
            b.mention(relatum, r_attrs, offset)
        elif r_attrs:
            # "the red frame" could be an object or the image frame
            raise ExpressionParseError(f"the frame takes no attributes: {segment!r}", offset)
        b.relations.append(
            RelationClause(target, _relation(m.group("rel")), relatum, perspective)
        )
        return

    m = _UNARY_RE.match(segment)
    if m is not None:
        perspective = _parse_perspective(m.group("persp"), offset)
        if not isinstance(perspective, Camera):
            raise ExpressionParseError(
                f"unary positional clause cannot take an object perspective: {segment!r}", offset
            )
        target, t_attrs = _parse_np(m.group("target"), offset)
        b.mention(target, t_attrs, offset)
        b.relations.append(RelationClause(target, _relation(m.group("rel")), FRAME, CAMERA))
        return

    # bare noun phrase
    try:
        noun, attrs = _parse_np(segment, offset)
    except ExpressionParseError:
        raise ExpressionParseError(f"cannot parse segment {segment!r}", offset) from None
    if noun.split()[0] in ("facing",):
        raise ExpressionParseError(f"cannot parse segment {segment!r}", offset)
    b.mention(noun, attrs, offset)


# --------------------------------------------------------------------------
# rendering

_REL_PHRASE = {
    Relation.LEFT: "is to the left of",
    Relation.RIGHT: "is to the right of",
    Relation.FRONT: "is in front of",
    Relation.BACK: "is back of",
}

_FACING_PHRASE = {
    FacingDirection.FRONT: "toward the camera",
    FacingDirection.BACK: "away from the camera",
    FacingDirection.LEFT: "left relative to the camera",
    FacingDirection.RIGHT: "right relative to the camera",
    FacingDirection.FORWARD_LEFT: "forward-left relative to the camera",
    FacingDirection.FORWARD_RIGHT: "forward-right relative to the camera",
    FacingDirection.BACKWARD_LEFT: "backward-left relative to the camera",
    FacingDirection.BACKWARD_RIGHT: "backward-right relative to the camera",
}


def _np_text(mention: ObjectMention) -> str:
    words = list(mention.attributes) + [mention.name]
    phrase = " ".join(words)
    article = "an" if phrase[0] in "aeiou" else "a"
    return f"{article} {phrase}"


def _persp_text(perspective: Camera | Intrinsic) -> str:
    if isinstance(perspective, Camera):
        return " from the camera's perspective"
    return f" from the {perspective.relatum}'s perspective"


def render_expression(expr: SpatialExpression) -> str:
    """Render an AST back to a canonical prompt.

    Canonical form: relation clauses joined by " and " into one sentence
    (binary clauses always carry an explicit perspective phrase), facing
    assertions and negations as separate sentences.  An expression with
    no relations and no facing assertions renders as bare noun phrases.
    parse_expression(render_expression(e)) == e holds for well-formed
    expressions whose mentions are listed in first-reference order.
    """
    lookup = {m.name: m for m in expr.mentions}
    referenced: set[str] = set()
    clause_parts: list[str] = []
    for clause in expr.relations:
        target = lookup[clause.target]
        referenced.add(clause.target)
        if clause.relatum == FRAME:
            clause_parts.append(f"{_np_text(target)} is on the {clause.relation.value}")
        else:
            relatum = lookup[clause.relatum]
            referenced.add(clause.relatum)
            clause_parts.append(
                f"{_np_text(target)} {_REL_PHRASE[clause.relation]} {_np_text(relatum)}"
                f"{_persp_text(clause.perspective)}"
            )

    for name in lookup:
        if name not in referenced and (expr.relations or expr.facings or expr.negations):
            # keep unreferenced mentions visible so they survive a round-trip
            if all(a.subject != name for a in expr.facings):
                clause_parts.append(_np_text(lookup[name]))

    sentences: list[str] = []
    if clause_parts:
        body = " and ".join(clause_parts)
        if expr.background == DEFAULT_BACKGROUND:
            body = body[0].upper() + body[1:]
        sentences.append(body + ".")
    for assertion in expr.facings:
        sentences.append(f"The {assertion.subject} is facing {_FACING_PHRASE[assertion.facing]}.")
    for noun in expr.negations:
        sentences.append(f"No {noun}.")

    if not sentences:
        body = " and ".join(_np_text(m) for m in expr.mentions)
        if expr.background != DEFAULT_BACKGROUND:
            return f"{expr.background} of {body}."
        return body[0].upper() + body[1:] + "."

    text = " ".join(sentences)
    if expr.background != DEFAULT_BACKGROUND:
        bg = expr.background
        text = f"{bg} of {text[0].lower() + text[1:]}" if clause_parts else f"{bg} of {text}"
    return text

"""Layout evaluation: does a symbolic layout satisfy a spatial expression?

Checks run in three stages and never short-circuit, so one sample can
accumulate several failure categories:

1. counts: every mentioned object (name plus required attributes) must
   appear exactly once;
2. orientation: every facing assertion must match the layout facing of
   the name-matching objects, bucket-for-bucket;
3. relations: intrinsic clauses are first rewritten into the camera frame
   (asserted facing wins over detected facing), then judged strictly by
   ``scene.relation_holds`` on box centers or depths.

Unary clauses against the reserved frame relatum compare the target's
center x with the image midline, ``scene.MIDLINE``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .dsl import FRAME, ObjectMention, RelationClause, SpatialExpression
from .errors import FacingUnknownError, UnknownObjectError
from .rules import camera_relation
from .scene import (
    HORIZONTAL,
    MIDLINE,
    Relation,
    SceneLayout,
    SceneObject,
    axis_value,
    relation_holds,
    slot_setters,
)


class ErrorCategory(Enum):
    MISSING_OBJECT = "missing-object"
    MULTIPLE_OBJECT = "multiple-object"
    LEFT_RIGHT = "left-right"
    FRONT_BACK = "front-back"
    ORIENTATION = "orientation"


def mention_matches(obj: SceneObject, mention: ObjectMention) -> bool:
    """Name must match exactly; mention attributes must all be present."""
    if obj.name != mention.name:
        return False
    attributes = obj.attributes
    for attribute in mention.attributes:
        if attribute not in attributes:
            return False
    return True


def find_matching(layout: SceneLayout, mention: ObjectMention) -> tuple[SceneObject, ...]:
    return tuple(obj for obj in layout.objects if mention_matches(obj, mention))


def eval_relation(relation: Relation, a: SceneObject, b: SceneObject) -> bool:
    """Strict camera-frame predicate between two objects (ties fail both ways)."""
    horizontal = relation in HORIZONTAL
    return relation_holds(relation, axis_value(a, horizontal), axis_value(b, horizontal))


def eval_frame_relation(relation: Relation, a: SceneObject) -> bool:
    if relation not in HORIZONTAL:
        raise ValueError(f"frame-relative clauses are horizontal only, got {relation.value}")
    return relation_holds(relation, a.bbox.cx, MIDLINE)


@dataclass(frozen=True, slots=True)
class ClauseVerdict:
    clause: RelationClause
    satisfied: bool
    camera_relation: Relation | None
    note: str = ""

    def __reduce__(self):
        return ClauseVerdict, (self.clause, self.satisfied, self.camera_relation, self.note)


@dataclass(frozen=True, slots=True, init=False)
class EvaluationResult:
    correct: bool
    failures: tuple[ErrorCategory, ...]
    per_clause: tuple[ClauseVerdict, ...] = ()

    def __init__(self, correct: bool, failures: tuple[ErrorCategory, ...],
                 per_clause: tuple[ClauseVerdict, ...] = ()):
        if correct != (len(failures) == 0):
            raise ValueError("correct must hold exactly when there are no failures")
        _set_correct(self, correct)
        _set_failures(self, failures)
        _set_per_clause(self, per_clause)

    def __reduce__(self):
        return EvaluationResult, (self.correct, self.failures, self.per_clause)


_set_correct, _set_failures, _set_per_clause = slot_setters(EvaluationResult)


def evaluate(expr: SpatialExpression, layout: SceneLayout) -> EvaluationResult:
    failures: list[ErrorCategory] = []

    def add(category: ErrorCategory) -> None:
        if category not in failures:
            failures.append(category)

    # stage 1: counts
    objects = layout.objects
    for mention in expr.mentions:
        count = 0
        for obj in objects:
            if mention_matches(obj, mention):
                count += 1
        if count == 0:
            add(ErrorCategory.MISSING_OBJECT)
        elif count > 1:
            add(ErrorCategory.MULTIPLE_OBJECT)

    # stage 2: orientation; skipped entirely when nothing is asserted
    for assertion in expr.facings:
        pool = layout.named(assertion.subject)
        if any(obj.facing is not assertion.facing for obj in pool):
            add(ErrorCategory.ORIENTATION)

    # stage 3: relations
    verdicts: list[ClauseVerdict] = []
    for clause in expr.relations:
        verdicts.append(_eval_clause(clause, expr, layout, add))

    failures_t = tuple(failures)
    return EvaluationResult(not failures_t, failures_t, tuple(verdicts))


def _eval_clause(
    clause: RelationClause, expr: SpatialExpression, layout: SceneLayout, add
) -> ClauseVerdict:
    target = layout.first_named(clause.target)
    if clause.relatum == FRAME:
        if target is None:
            return ClauseVerdict(clause, False, clause.relation, "target missing")
        ok = eval_frame_relation(clause.relation, target)
        if not ok:
            add(ErrorCategory.LEFT_RIGHT)
        return ClauseVerdict(clause, ok, clause.relation)

    try:
        camera_rel = camera_relation(clause, expr, layout)
    except UnknownObjectError:
        # the relatum is absent; the count stage already recorded that
        return ClauseVerdict(clause, False, None, "relatum missing, facing unresolvable")
    except FacingUnknownError:
        add(ErrorCategory.ORIENTATION)
        return ClauseVerdict(clause, False, None, "relatum facing unknown")

    relatum = layout.first_named(clause.relatum)
    if target is None or relatum is None:
        return ClauseVerdict(clause, False, camera_rel, "participant missing")
    ok = eval_relation(camera_rel, target, relatum)
    if not ok:
        add(ErrorCategory.LEFT_RIGHT if camera_rel.horizontal else ErrorCategory.FRONT_BACK)
    return ClauseVerdict(clause, ok, camera_rel)


@dataclass(frozen=True)
class RunHistogram:
    total: int
    correct: int
    counts: tuple[tuple[ErrorCategory, int], ...]

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    def count(self, category: ErrorCategory) -> int:
        return dict(self.counts).get(category, 0)


def categorize_run(results) -> RunHistogram:
    """Aggregate per-sample results into the accuracy/error histogram.

    Each (sample, category) failure pair counts once, so the histogram sum
    equals the number of such pairs, not the number of failing samples.
    """
    results = list(results)
    counter: Counter[ErrorCategory] = Counter()
    correct = 0
    for r in results:
        if r.correct:
            correct += 1
        counter.update(r.failures)
    counts = tuple((cat, counter[cat]) for cat in ErrorCategory if counter[cat])
    return RunHistogram(total=len(results), correct=correct, counts=counts)

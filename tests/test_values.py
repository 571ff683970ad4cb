"""The contract of the slotted value types the loop builds on every sample.

Each keeps the behaviour it had as a plain frozen dataclass: no instance
``__dict__``, the same fields in the same order, frozen, equal and hashed
alike after a pickle round trip, ``dataclasses.replace`` working, and
every validation message unchanged.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from scenefix import (
    CAMERA,
    DuplicateIdError,
    ErrorCategory,
    EvaluationResult,
    FacingAssertion,
    FacingDirection,
    Intrinsic,
    ObjectMention,
    Relation,
    RelationClause,
    SceneLayout,
    SpatialExpression,
)
from scenefix.dsl import FRAME, _relation
from scenefix.evaluate import ClauseVerdict

from helpers import layout, obj

_CLAUSE = RelationClause("cat", Relation.LEFT, "dog", Intrinsic("dog"))
_EXPR = SpatialExpression(
    (ObjectMention("cat", ("red",)), ObjectMention("dog")),
    (_CLAUSE, RelationClause("cat", Relation.RIGHT, FRAME)),
    (FacingAssertion("dog", FacingDirection.LEFT),),
    ("bird",),
    "An oil painting",
)
_VERDICT = ClauseVerdict(_CLAUSE, False, None, "relatum facing unknown")

# one value of each type, its field names in order, and a field change
# for ``dataclasses.replace``
VALUES = [
    (ObjectMention("cat", ("red",)), ["name", "attributes"], {"attributes": ("blue",)}),
    (_CLAUSE, ["target", "relation", "relatum", "perspective"], {"relation": Relation.BACK}),
    (
        _EXPR,
        ["mentions", "relations", "facings", "negations", "background"],
        {"negations": ()},
    ),
    (
        layout(obj("cat", oid=1, attrs=("red",)), obj("dog", oid=4, x=0.5), background="A sketch"),
        ["objects", "background"],
        {"background": "A photo"},
    ),
    (_VERDICT, ["clause", "satisfied", "camera_relation", "note"], {"note": ""}),
    (
        EvaluationResult(False, (ErrorCategory.ORIENTATION,), (_VERDICT,)),
        ["correct", "failures", "per_clause"],
        {"per_clause": ()},
    ),
]
_IDS = [type(value).__name__ for value, _, _ in VALUES]


@pytest.mark.parametrize("value, names, changes", VALUES, ids=_IDS)
class TestSlottedValue:
    def test_has_no_instance_dict(self, value, names, changes):
        assert not hasattr(value, "__dict__")

    def test_fields_keep_their_names_and_order(self, value, names, changes):
        assert [f.name for f in dataclasses.fields(value)] == names

    def test_is_frozen(self, value, names, changes):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, names[0], getattr(value, names[0]))

    def test_pickle_round_trip_keeps_equality_hash_and_type(self, value, names, changes):
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert back == value
            assert hash(back) == hash(value)
            assert type(back) is type(value)
            assert [getattr(back, n) for n in names] == [getattr(value, n) for n in names]

    def test_dataclasses_replace(self, value, names, changes):
        changed = dataclasses.replace(value, **changes)
        assert type(changed) is type(value)
        for name in names:
            want = changes[name] if name in changes else getattr(value, name)
            assert getattr(changed, name) == want
        assert dataclasses.replace(value) == value


def test_sequences_are_stored_as_tuples():
    assert ObjectMention("cat", ["red"]).attributes == ("red",)
    expr = SpatialExpression([ObjectMention("cat")], [], [], ["dog"])
    assert (expr.mentions, expr.relations, expr.facings, expr.negations) == (
        (ObjectMention("cat"),), (), (), ("dog",)
    )
    assert SceneLayout([obj("cat")]).objects == (obj("cat"),)


def test_defaults():
    assert ObjectMention("cat").attributes == ()
    assert RelationClause("cat", Relation.LEFT, "dog").perspective is CAMERA
    expr = SpatialExpression((ObjectMention("cat"),))
    assert (expr.relations, expr.facings, expr.negations) == ((), (), ())
    assert expr.background == "A realistic image"
    assert SceneLayout(()).background == "A realistic image"
    assert ClauseVerdict(_CLAUSE, True, Relation.LEFT).note == ""
    assert EvaluationResult(True, ()).per_clause == ()


_CAT, _DOG = ObjectMention("cat"), ObjectMention("dog")

REFUSALS = [
    (lambda: RelationClause("cat", Relation.LEFT, "cat"), ValueError,
     "clause relates 'cat' to itself"),
    (lambda: RelationClause("cat", Relation.LEFT, FRAME, Intrinsic("dog")), ValueError,
     "frame-relative clauses are camera-anchored by definition"),
    (lambda: RelationClause("cat", Relation.FRONT, FRAME), ValueError,
     "frame-relative clauses are horizontal only"),
    (lambda: SpatialExpression(()), ValueError, "an expression must mention an object"),
    (lambda: SpatialExpression((_CAT, _DOG, _CAT)), ValueError,
     "duplicate mention names: ['cat', 'dog', 'cat']"),
    (lambda: SpatialExpression((_CAT,), (RelationClause("dog", Relation.LEFT, "cat"),)),
     ValueError, "clause target 'dog' is not mentioned"),
    (lambda: SpatialExpression((_CAT,), (RelationClause("cat", Relation.LEFT, "dog"),)),
     ValueError, "clause relatum 'dog' is not mentioned"),
    (lambda: SpatialExpression(
        (_CAT, _DOG), (RelationClause("cat", Relation.LEFT, "dog", Intrinsic("cow")),)),
     ValueError, "perspective anchor 'cow' is not mentioned"),
    (lambda: SpatialExpression((_CAT,), (), (FacingAssertion("dog", FacingDirection.BACK),)),
     ValueError, "facing subject 'dog' is not mentioned"),
    (lambda: SceneLayout((obj("cat", oid=2), obj("dog", oid=2))), DuplicateIdError,
     "duplicate object id 2"),
    (lambda: EvaluationResult(True, (ErrorCategory.LEFT_RIGHT,)), ValueError,
     "correct must hold exactly when there are no failures"),
    (lambda: EvaluationResult(False, ()), ValueError,
     "correct must hold exactly when there are no failures"),
]


@pytest.mark.parametrize("build, error, message", REFUSALS)
def test_validation_messages_are_unchanged(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error
    assert str(exc.value) == message


@pytest.mark.parametrize("word", ["left", "RIGHT", "Front", "back", "rıght", "up", ""])
def test_relation_lookup_answers_as_the_enum_does(word):
    try:
        want = Relation(word.lower())
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _relation(word)
        assert str(got.value) == str(exc)
    else:
        assert _relation(word) is want

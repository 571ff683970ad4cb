"""Scene layouts from spatial language: parse, convert, repair, evaluate.

The package models a text-to-image correction loop symbolically. A
spatial expression is parsed into clauses, perspective-dependent clauses
are rewritten into the camera frame through an exhaustive rule table,
a solver proposes a repaired layout, an edit engine diffs and applies
the change to a symbolic scene, and an evaluator scores the result.
Benchmark generation, a noise-model perception stand-in, and a wire
protocol for external solvers round out the loop.

The names from ``edits`` and ``pipeline``, the only modules that need
numpy or a process pool, load on first use, so a program that only
parses, converts and solves (an external interpreter, say) starts
without them.
"""

import importlib

from .benchgen import (
    BenchmarkSample,
    CorruptionConfig,
    Injection,
    apply_corruption,
    corrupt_layout,
    corrupt_samples,
    generate_for_lmd,
    generate_forest_style,
)
from .dsl import (
    CAMERA,
    Camera,
    FacingAssertion,
    Intrinsic,
    ObjectMention,
    RelationClause,
    SpatialExpression,
    parse_expression,
    render_expression,
)
from .errors import (
    DatasetError,
    DuplicateIdError,
    EmptyRegionError,
    ExpressionParseError,
    FacingUnknownError,
    InterpreterTimeout,
    LayoutValidationError,
    OverlapCollisionError,
    ProtocolError,
    SceneFixError,
    UnknownObjectError,
    UnsatisfiableError,
    WireFormatError,
)
# eager: the function ``evaluate`` must shadow the submodule of that name
from .evaluate import ErrorCategory, EvaluationResult, categorize_run, evaluate
from .interpreter import LayoutProposal, external_suggest, suggest_layout
from .perception import PerceptionConfig, perceive, perceive_with_log
from .rules import RULE_TABLE, ConversionRule, convert_expression, convert_relation
from .scene import (
    BBox,
    DepthMap,
    FacingDirection,
    Relation,
    SceneLayout,
    SceneObject,
    angle_to_facing,
    box_depth,
    object_depth,
)
from .wire import (
    parse_wire_layout,
    read_dataset,
    serialize_wire_layout,
    write_dataset,
)

__version__ = "0.1.0"

# name -> submodule, for the names resolved on first use by __getattr__
_LAZY = {
    **dict.fromkeys(
        (
            "Addition",
            "AttributeModify",
            "DepthModify",
            "Deletion",
            "EditAction",
            "FacingModify",
            "Reposition",
            "SymbolicScene",
            "apply_actions",
            "apply_depth_formula",
            "diff_layouts",
            "scene_from_layout",
        ),
        "edits",
    ),
    **dict.fromkeys(
        ("RunConfig", "RunReport", "run_batch", "run_round", "run_sample"), "pipeline"
    ),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

__all__ = [
    "Addition",
    "AttributeModify",
    "BBox",
    "BenchmarkSample",
    "CAMERA",
    "Camera",
    "ConversionRule",
    "CorruptionConfig",
    "DatasetError",
    "DepthMap",
    "DepthModify",
    "Deletion",
    "DuplicateIdError",
    "EditAction",
    "EmptyRegionError",
    "ErrorCategory",
    "EvaluationResult",
    "ExpressionParseError",
    "FacingAssertion",
    "FacingDirection",
    "FacingModify",
    "FacingUnknownError",
    "Injection",
    "InterpreterTimeout",
    "Intrinsic",
    "LayoutProposal",
    "LayoutValidationError",
    "ObjectMention",
    "OverlapCollisionError",
    "PerceptionConfig",
    "ProtocolError",
    "RULE_TABLE",
    "Relation",
    "RelationClause",
    "Reposition",
    "RunConfig",
    "RunReport",
    "SceneFixError",
    "SceneLayout",
    "SceneObject",
    "SpatialExpression",
    "SymbolicScene",
    "UnknownObjectError",
    "UnsatisfiableError",
    "WireFormatError",
    "angle_to_facing",
    "apply_actions",
    "apply_corruption",
    "apply_depth_formula",
    "box_depth",
    "categorize_run",
    "convert_expression",
    "convert_relation",
    "corrupt_layout",
    "corrupt_samples",
    "diff_layouts",
    "evaluate",
    "external_suggest",
    "generate_for_lmd",
    "generate_forest_style",
    "object_depth",
    "parse_expression",
    "parse_wire_layout",
    "perceive",
    "perceive_with_log",
    "read_dataset",
    "render_expression",
    "run_batch",
    "run_round",
    "run_sample",
    "scene_from_layout",
    "serialize_wire_layout",
    "suggest_layout",
    "write_dataset",
    "__version__",
]

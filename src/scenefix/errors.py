"""Exception types shared across the package."""

from __future__ import annotations


class SceneFixError(Exception):
    """Base class for all package-specific errors."""


class EmptyRegionError(SceneFixError):
    """A bounding box covers no pixel centers of the depth grid."""


class DuplicateIdError(SceneFixError):
    """Two objects in one layout share an object id."""


class UnknownObjectError(SceneFixError):
    """An edit or lookup referenced an object id/name that does not exist."""


class OverlapCollisionError(SceneFixError):
    """A newly added box overlaps an existing one by more than the allowed IoU."""


class FacingUnknownError(SceneFixError):
    """An intrinsic clause cannot be converted because no facing is available."""


class UnsatisfiableError(SceneFixError):
    """The clause set admits no layout."""


class ExpressionParseError(SceneFixError):
    """Input text falls outside the supported grammar.

    ``offset`` is the byte offset of the offending segment in the input.
    """

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class WireFormatError(SceneFixError):
    """A serialized layout string does not match the wire grammar."""


class ProtocolError(SceneFixError):
    """An external interpreter reply was malformed or incomplete."""


class LayoutValidationError(SceneFixError):
    """An externally proposed layout violates value ranges or count contracts."""


class InterpreterTimeout(SceneFixError):
    """The external interpreter did not answer within the deadline."""


class DatasetError(SceneFixError):
    """A dataset file is unreadable or structurally invalid.

    ``line`` is the 1-based line number of the offending record.
    """

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"{message} (line {line})" if line else message)
        self.line = line

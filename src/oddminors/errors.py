"""Exception types shared across the toolkit."""

from __future__ import annotations

from typing import Sequence


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class StructureError(ValueError):
    """An input graph or vertex set lacks required structure (e.g. connectivity)."""


class ColoringMissingError(ValueError):
    """A coloring does not cover a coordinate it is required to cover."""


class ParseError(ValueError):
    """Malformed text input. Carries the field path, the 1-based line and the
    character offset of that line's start when known."""

    def __init__(self, message: str, *, offset: int | None = None,
                 field: str | None = None, line: int | None = None):
        parts = [message]
        if field is not None:
            parts.append(f"field={field}")
        if line is not None:
            parts.append(f"line={line}")
        if offset is not None:
            parts.append(f"offset={offset}")
        super().__init__(" ".join(parts))
        self.offset = offset
        self.field = field
        self.line = line

    @classmethod
    def at(cls, lines: Sequence[str], index: int, message: str,
           field: str | None = None) -> ParseError:
        """The error at `lines[index]`, where `lines` is a text's
        `splitlines(keepends=True)` and `index` may be `len(lines)` (the end
        of the text): line `index + 1`, offset the length of the lines before
        it."""
        return cls(message, field=field, line=index + 1, offset=sum(map(len, lines[:index])))


class FactorModelError(ValueError):
    """A factor expansion model failed verification. Carries the verdict."""

    def __init__(self, message: str, verdict=None):
        super().__init__(message)
        self.verdict = verdict


class ConsistencyError(RuntimeError):
    """An internal invariant that a construction relies on does not hold."""


class SearchTimeout(RuntimeError):
    """The exhaustive search budget was exhausted before a definite answer."""

    def __init__(self, message: str, *, nodes: int = 0, elapsed: float = 0.0):
        super().__init__(message)
        self.nodes = nodes
        self.elapsed = elapsed

"""Exception types shared across the toolkit.

Every error derives from :class:`DigraphError` and declares only its
``fields`` and a message ``template``.  The constructor's values become
``args`` and one attribute per field, so callers can report or replay the
offending datum.  ``args`` are the data; errors pickle across processes,
because default exception pickling, ``(type, args, __dict__)``, rebuilds
each one exactly.  ``str()`` fills the template from the attributes and
adds " (line N)" when a 1-based input ``line`` is set.
"""
from __future__ import annotations


class DigraphError(Exception):
    """Base class for all errors raised by this package."""

    fields: tuple[str, ...] = ()
    template = ""

    def __init__(self, *values: object, line: int | None = None):
        super().__init__(*values)
        self.line = line
        for name, value in zip(self.fields, values, strict=True):
            setattr(self, name, value)

    def __str__(self) -> str:
        text = self.template.format_map(vars(self))
        return text if self.line is None else f"{text} (line {self.line})"


class LoopEdge(DigraphError):
    fields = ("vertex",)
    template = "loop edge ({vertex},{vertex}) is not allowed"

class DigonPair(DigraphError):
    """Both orientations of a vertex pair were given; stores the pair (u,v) with (u,v) < (v,u)."""

    fields = ("u", "v")
    template = "digon: both ({u},{v}) and ({v},{u}) present"

    def __init__(self, u: int, v: int, line: int | None = None):
        super().__init__(*sorted((u, v)), line=line)

class DuplicateEdge(DigraphError):
    fields = ("u", "v")
    template = "duplicate edge ({u},{v})"

class VertexOutOfRange(DigraphError):
    fields = ("vertex", "n")
    template = "vertex {vertex} out of range [0, {n})"

class EmptyVertexSet(DigraphError):
    template = "a digraph needs at least one vertex"

class TooManyVertices(DigraphError):
    fields = ("n", "limit")
    template = "{n} vertices exceed the limit of {limit}"

class RowsTooLarge(DigraphError):
    fields = ("bits", "limit")
    template = "rows of {bits} bits (min(n, m) * n) exceed the limit of {limit}"

class NonPositiveK(DigraphError):
    fields = ("k",)
    template = "neighborhood layer index must be >= 1, got {k}"

class EmptySubset(DigraphError):
    template = "induced subgraph needs a nonempty vertex subset"

class NoSuchEdge(DigraphError):
    fields = ("u", "v")
    template = "edge ({u},{v}) not present"

class WouldBeEmpty(DigraphError):
    template = "deleting the last vertex would leave an empty graph"

class ConditionOutOfRange(DigraphError):
    fields = ("condition",)
    template = "condition index must be in 0..7, got {condition}"

class CeilingExceeded(DigraphError):
    fields = ("n", "ceiling")
    template = "exhaustive enumeration at n={n} exceeds the ceiling {ceiling}"

class TooManyWorkers(DigraphError):
    fields = ("workers", "limit")
    template = "{workers} workers exceed the limit of {limit}"

class TooManySamples(DigraphError):
    fields = ("count", "limit")
    template = "{count} samples exceed the limit of {limit}"

class InvalidProbability(DigraphError):
    fields = ("p",)
    template = "probability must lie in [0, 1], got {p}"

class RetriesExhausted(DigraphError):
    fields = ("attempts",)
    template = "rejection sampling gave up after {attempts} attempts"

class GraphSyntaxError(DigraphError):
    """Malformed line in the text format; the line number is the first value."""

    fields = ("line", "message")
    template = "{message}"

class CountMismatch(DigraphError):
    fields = ("declared", "actual")
    template = "header declares {declared} edges but {actual} were found"

"""Bit-exact text format for digraphs.

A document is a header line ``n m`` followed by exactly m edge lines
``u v`` (0-indexed, tail then head).  Lines are separated by the line feed
alone; every other ``str.isspace`` character (space, tab, ``\\r``, ``\\x0b``,
``\\x1c``, ``\\u3000``, ...) is a blank, so CRLF documents parse.  A line
that is blank, or whose first non-blank character is ``#``, is ignored;
every other line holds exactly two tokens separated by blanks, and a token
is any string ``int()`` accepts (``+1``, ``1_0``, ``٣``).  The header's n
must lie in [1, digraph.MAX_VERTICES].  Writing emits edges in canonical
sorted order, so parse(write(g)) reproduces g exactly and equal graphs
serialize to identical bytes.

A plain document (ASCII digits, line feeds and ASCII blanks; 0 or 2 tokens of at
most 18 digits a line) is tokenized in whole-array numpy passes and any other by
the general tokenizer.  Errors and their line numbers come from one per-line path.
A write formats every tail and head at once, one np.divmod per digit place of n - 1.

Parse errors carry the 1-based line number of the offending input line,
checked in this order: the header (two integers, then n >= 1,
n <= MAX_VERTICES and m >= 0), the count of edge lines against m, the
bound min(n, m) * n <= MAX_ROW_BITS on the rows, then the first bad edge
line.  On that line: not two integers, tail out of range,
head out of range, a loop, a duplicate of an earlier line, a digon with an
earlier line (the limits are ``digraph._check_size``, the last five ``_checked_parts``).
"""
from __future__ import annotations

import re
from contextlib import suppress
from itertools import chain

import numpy as np

from .digraph import Digraph, _check_size, _checked_parts
from .errors import CountMismatch, GraphSyntaxError

# a line whose first non-blank is "#"; [^\S\n] is a blank, as \s is str.isspace
_COMMENT = re.compile(r"^[^\S\n]*#[^\n]*", re.MULTILINE)


def _plain_values(body: str) -> np.ndarray | None:
    """The int64 tokens of a plain document, or None for any other document."""
    if not body.isascii():
        return None
    raw = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    digit = raw - np.uint8(48) < 10
    if not (digit | (raw - np.uint8(9) < 5) | (raw - np.uint8(28) < 5)).all():
        return None  # a character other than a digit, a blank or the line feed (9-13, 28-32)
    change = np.zeros(len(raw) + 1, dtype=bool)  # digit[i - 1] != digit[i], none past the ends
    change[0], change[-1] = digit[:1].any(), digit[-1:].any()
    np.not_equal(digit[1:], digit[:-1], out=change[1:-1])
    bounds = np.flatnonzero(change)
    starts, lengths = bounds[0::2], bounds[1::2] - bounds[0::2]  # the digit runs
    # every line holds 0 or 2 runs iff, among the run starts and line feeds in
    # order, runs 2k and 2k + 1 are next to each other and 2k + 1 and 2k + 2 are not
    gaps = np.diff(np.flatnonzero(digit[np.flatnonzero((change[:-1] & digit) | (raw == 10))]))
    uneven = len(starts) % 2 or (gaps[0::2] != 1).any() or (gaps[1::2] == 1).any()
    if uneven or lengths.max(initial=0) > 18:  # 19 digits may not fit int64
        return None
    values = (raw[starts] - np.uint8(48)).astype(np.int64)
    del digit, change, gaps  # only raw, starts and lengths are read from here on
    for place in range(1, lengths.max(initial=0)):  # Horner's rule, one digit place at a time
        more = np.flatnonzero(lengths > place)
        values[more] = values[more] * 10 + (raw[starts[more] + place] - np.uint8(48))
    return values


def _pair(tokens: list[str]) -> list[int] | None:
    """The two integers of a line's tokens, or None if they are not two integers."""
    try:
        return list(map(int, tokens)) if len(tokens) == 2 else None
    except ValueError:
        return None


def parse_digraph(text: str) -> Digraph:
    """Parse a graph document; malformed input never yields a Digraph."""
    body = _COMMENT.sub("", text) if "#" in text else text  # comment lines become blank

    def significant() -> list[tuple[int, list[str]]]:  # on the error paths only
        return [(no, row) for no, row in enumerate(map(str.split, body.split("\n")), 1) if row]

    def line(i: int = 0) -> int:  # the number of the i-th line that is not blank
        return significant()[i][0]

    def syntax_error(i: int, what: str) -> GraphSyntaxError:
        content = body.split("\n")[line(i) - 1].strip()
        return GraphSyntaxError(line(i), f"expected two integers ({what}), got {content!r}")

    values = _plain_values(body)  # every line's integers, or None for a document not plain
    # the general tokenizer does not keep the line list, to halve the peak memory
    if values is None and set(map(len, map(str.split, body.split("\n")))) <= {0, 2}:
        with suppress(ValueError):
            values = list(map(int, body.split()))
    bad = None  # the index among the lines that are not blank of the first such line
    if values is None:
        pairs = [_pair(row) for _, row in significant()]
        bad = pairs.index(None)
        values = list(chain.from_iterable(pairs[:bad]))  # the lines before it
    if bad == 0:
        raise syntax_error(0, "vertex and edge count")
    if len(values) == 0:
        raise GraphSyntaxError(1, "missing 'n m' header")
    n, m = map(int, values[:2])
    _check_size(n, 0, line)  # n alone: m is checked against the edge lines first
    if m < 0:
        raise GraphSyntaxError(line(0), f"negative edge count {m}")
    edge_lines = len(values) // 2 - 1 if bad is None else len(pairs) - 1
    if edge_lines != m:
        raise CountMismatch(m, edge_lines)
    _check_size(n, m, line)
    parts = _checked_parts(n, values[2:], lambda i: line(i + 1))
    if bad is not None:
        raise syntax_error(bad, "edge tail and head")
    return Digraph._from_rows(*parts)


def write_digraph(g: Digraph) -> str:
    """Canonical document for g; deterministic bytes for equal graphs.  Each end
    fills a field of n - 1's digit count, zero bytes before its digits, then a
    blank or line feed; one mask drops the zeros, so memory grows with m, not n."""
    ends = np.stack(g._edge_arrays(), axis=1, dtype=np.uint32, casting="unsafe").ravel()
    places = len(str(g.n - 1))
    text = np.zeros((len(ends), places + 1), dtype=np.uint8)
    text[0::2, places], text[1::2, places] = ord(" "), ord("\n")  # tail, head, tail, ...
    digit, shown = np.empty_like(ends), True  # the ones digit always shows, a higher one
    for place in range(places - 1, -1, -1):  # while the quotient is above 0
        np.divmod(ends, np.uint32(10), out=(ends, digit))
        digit += np.uint32(ord("0"))
        text[:, place] = np.multiply(digit, shown, out=digit)
        shown = ends > 0
    del ends, digit, shown  # not held through the mask
    flat = text.ravel()
    return f"{g.n} {len(text) // 2}\n" + str(flat[flat > 0], "ascii")

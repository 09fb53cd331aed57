"""Immutable digon-free digraph with exact BFS-layer neighborhoods.

Vertices are dense integers in [0, n).  Adjacency is stored as one Python
int per vertex used as a bitset, so all neighborhood queries are a few
bit operations regardless of n (arbitrary-precision ints remove any
64-vertex limit at identical semantics).

Distance follows the shortest-directed-path convention with
dist(u, u) = 0, so u is never inside a layer k >= 1 and u always belongs
to its own walkable neighborhood.  Unreachable distance is infinity, never
a large finite stand-in.

All derivation operations (edge/vertex deletion, induced subgraphs) return
new graphs; values are safe to share between concurrent workers.

``_checked_parts`` is the one edge check, vectorised over a whole edge list: it reports
the first bad position and builds the out- and in-rows without an (n, n) matrix; a graph
stores only those.  A valid list costs one unstable sort of its pair keys; the stable
search for the first bad position runs only when some edge is bad.  ``Digraph._edge_arrays``
reads the sorted edges off the out-rows' nonzero 64-bit words as (tails, heads) arrays:
``edges`` pairs them into a tuple, and ``profiles`` and ``write_digraph`` read the arrays.
``Digraph(n, edges)`` runs the check over the sorted edges, for user input;
``parse_digraph`` runs it in line order, so errors carry line numbers, and then
calls ``Digraph._from_rows``.  That and ``Digraph._from_adjacency(adj)`` (from
an (n, n) bool matrix) check nothing: only the parser and code that is loop-free
and digon-free by construction call them (the derivations below, the random
models, the graphs ``search`` decodes or draws, and ``build_product``).
``Digraph(n, edges)``, ``parse_digraph`` and ``build_product`` call ``_check_size`` first,
so the parser reads back the document of every graph they return.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from operator import index
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import (
    DigonPair,
    DuplicateEdge,
    EmptySubset,
    EmptyVertexSet,
    LoopEdge,
    NonPositiveK,
    NoSuchEdge,
    RowsTooLarge,
    TooManyVertices,
    VertexOutOfRange,
    WouldBeEmpty,
)

Edge = tuple[int, int]
Rows = tuple[int, ...]

#: Largest n, so the edge check's keys, below (n + 64) * n, fit int64, and
#: largest min(n, m) * n, the bits the rows of m edges can take: each row is
#: an int as wide as its highest bit, so a short edge list could ask for GiBs.
MAX_VERTICES, MAX_ROW_BITS = 1 << 17, 1 << 28


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


def _two_walks(rows: Rows, x: int) -> tuple[int, int]:
    """The bitsets of the vertices that end at least one, and at least two,
    2-walks x -> a -> w; ``rows`` are the out-rows."""
    once = twice = 0
    for a in _bits(rows[x]):
        twice |= once & rows[a]
        once |= rows[a]
    return once, twice


def _check_size(n: int, m: int, line: Callable[[], int | None] = lambda: None) -> None:
    """Raise EmptyVertexSet for n < 1, then TooManyVertices for n > MAX_VERTICES,
    then RowsTooLarge for min(n, m) * n > MAX_ROW_BITS, each with line ``line()``."""
    if n < 1:
        raise EmptyVertexSet(line=line())
    if n > MAX_VERTICES:
        raise TooManyVertices(n, MAX_VERTICES, line=line())
    if min(n, m) * n > MAX_ROW_BITS:
        raise RowsTooLarge(min(n, m) * n, MAX_ROW_BITS, line=line())


def _checked_parts(
    n: int, values: list[int] | np.ndarray, line_of: Callable[[int], int | None] = lambda i: None
) -> tuple[Rows, Rows]:
    """The one edge check: the out-rows and in-rows of the edges
    (values[2i], values[2i + 1]), i = 0, 1, ... in input order (a list or int64 array).

    The first bad position i raises, with line ``line_of(i)``; at one position
    the tail's range comes first, then the head's, a loop, a duplicate and a
    digon (its vertex pair on an earlier position, in the same or the other
    orientation).  Pair and edge keys are u*s + v with s = 64 * ceil(n / 64),
    below (n + 64) * n, which fits int64 for n <= MAX_VERTICES.  Whether any edge is bad
    is read off the ends' range, a loop test and one unstable sort of the pair
    keys (min, max); only then does a stable argsort find the first bad position.
    """
    try:
        flat = np.asarray(values, dtype=np.int64)
    except OverflowError:  # past int64 is out of range for every n
        flat = np.array([v if 0 <= v < n else -1 for v in values], dtype=np.int64)
    tails, heads = flat[0::2], flat[1::2]
    stride = -(-n // 64) * 64
    pair = np.minimum(tails, heads) * stride + np.maximum(tails, heads)
    pairs = np.sort(pair)  # two equal neighbours are a duplicate or a digon
    ranged = 0 <= flat.min(initial=0) and flat.max(initial=0) < n
    if not ranged or (tails == heads).any() or (pairs[1:] == pairs[:-1]).any():  # an edge is bad
        order = np.argsort(pair, kind="stable")  # equal pairs keep their positions' order
        pairs = pair[order]
        again = np.zeros(len(pair), dtype=bool)  # the pair is on an earlier position too
        again[order[1:]] = pairs[1:] == pairs[:-1]
        bad = (tails < 0) | (tails >= n) | (heads < 0) | (heads >= n) | (tails == heads) | again
        i = int(bad.argmax())
        u, v = int(values[2 * i]), int(values[2 * i + 1])
        line = line_of(i)
        if not 0 <= u < n:
            raise VertexOutOfRange(u, n, line=line)
        if not 0 <= v < n:
            raise VertexOutOfRange(v, n, line=line)
        if u == v:
            raise LoopEdge(u, line=line)
        first = order[np.searchsorted(pairs, pair[i])]  # i is the first bad: one earlier
        raise (DuplicateEdge if values[2 * first] == u else DigonPair)(u, v, line=line)
    out = _rows(n, stride, np.sort(tails * stride + heads))
    return out, _rows(n, stride, np.sort(heads * stride + tails))


def _rows(n: int, stride: int, keys: np.ndarray) -> Rows:
    """Row r as an int with bit c set for each r*stride + c of the sorted keys,
    OR-ing the keys' bits per (row, 64-bit word) group, never an (n, n) matrix."""
    groups = keys >> 6  # row * stride / 64 + word, sorted
    start = np.ones(len(groups), dtype=bool)  # the first key of each group
    np.not_equal(groups[1:], groups[:-1], out=start[1:])
    starts = np.flatnonzero(start)
    bits = np.left_shift(np.uint64(1), (keys & 63).astype(np.uint64))
    row, word = np.divmod(groups[starts], stride // 64)
    words = np.bitwise_or.reduceat(bits, starts)
    rows = [0] * n
    for r, shift, value in zip(row.tolist(), (64 * word).tolist(), words.tolist()):
        rows[r] |= value << shift
    return tuple(rows)


def _packed_rows(adj: np.ndarray) -> np.ndarray:
    """(..., n, W) out-rows of a (..., n, n) bool stack: bit v % B of word
    v // B of row u is set iff adj[..., u, v].  The words are the narrowest
    unsigned dtype of B >= n bits, or W = ceil(n / 64) uint64 words past 64
    vertices."""
    n = adj.shape[-1]
    size = next((s for s in (1, 2, 4) if n <= 8 * s), 8)  # bytes per word
    packed = np.zeros(adj.shape[:-1] + (-(-n // (8 * size)) * size,), dtype=np.uint8)
    packed[..., : -(-n // 8)] = np.packbits(adj, axis=-1, bitorder="little")
    return packed.view(f"<u{size}")


def _unpacked(rows: np.ndarray) -> np.ndarray:
    """The (n, n) bool matrix of (n,) or (n, W) rows laid out as by _packed_rows."""
    n = rows.shape[0]
    bits = np.unpackbits(rows.reshape(n, -1).view(np.uint8), axis=1, count=n, bitorder="little")
    return bits.view(bool)


def _row_masks(adj: np.ndarray) -> Rows:
    """Row u of a bool matrix as an int with bit v set iff adj[u, v]."""
    data, size = np.packbits(adj, axis=1, bitorder="little").tobytes(), -(-adj.shape[1] // 8)
    return tuple(int.from_bytes(data[at : at + size], "little") for at in range(0, len(data), size))


@dataclass(frozen=True)
class NeighborhoodProfile:
    """Sizes of the first and second out-neighborhood of one vertex.

    anti_satisfaction is n1 - n2; the vertex is satisfactory when that
    difference is <= 0 (a sink, n1 = 0, is trivially satisfactory).
    """

    vertex: int
    n1: int
    n2: int

    @property
    def anti_satisfaction(self) -> int:
        return self.n1 - self.n2

    @property
    def satisfactory(self) -> bool:
        return self.n1 <= self.n2


class Digraph:
    """A loop-free, digon-free directed graph on vertices 0..n-1.

    Construction checks the size (_check_size), then the edge list; the first offending
    edge in canonical (sorted) order is reported.  Instances are immutable and store
    only out- and in-rows; ``edges``, the sorted tuple, is a view read off the out-rows.
    """

    __slots__ = ("n", "_out", "_in")

    n: int

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        n = index(n)
        _check_size(n, 0)  # before the edges are read
        flat = list(chain.from_iterable(sorted((index(u), index(v)) for u, v in edges)))
        _check_size(n, len(flat) // 2)
        for name, value in zip(self.__slots__, (n, *_checked_parts(n, flat))):
            object.__setattr__(self, name, value)

    @classmethod
    def _from_rows(cls, out: Rows, inn: Rows) -> Digraph:
        """Unvalidated graph of its out-rows and in-rows."""
        g = cls.__new__(cls)
        for name, value in zip(cls.__slots__, (len(out), out, inn)):
            object.__setattr__(g, name, value)
        return g

    @classmethod
    def _from_adjacency(cls, adj: np.ndarray) -> Digraph:
        """Unvalidated graph of a loop-free, digon-free (n, n) bool matrix."""
        return cls._from_rows(_row_masks(adj), _row_masks(adj.T))

    def _adjacency(
        self, keep: Iterable[int] | None = None, cols: np.ndarray | None = None
    ) -> np.ndarray:
        """A fresh bool matrix of the out-rows of ``keep`` on the ascending
        columns ``cols`` (all n of each by default): adj[i, j] iff (keep[i],
        cols[j]) is an edge.  Only the span from cols[0] to cols[-1] is unpacked."""
        lo, width = (0, self.n) if cols is None else (int(cols[0]), int(cols[-1] - cols[0]) + 1)
        size, span = -(-width // 8), (1 << width) - 1
        masks = self._out if keep is None else (self._out[u] for u in keep)
        rows = b"".join((mask >> lo & span).to_bytes(size, "little") for mask in masks)
        bits = np.frombuffer(rows, dtype=np.uint8).reshape(-1, size)
        adj = np.unpackbits(bits, axis=1, count=width, bitorder="little").view(bool)
        return adj if cols is None or len(cols) == width else adj[:, np.asarray(cols) - lo]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Digraph is immutable")

    def __reduce__(self):
        # immutability blocks slot-based unpickling; rebuild through the
        # validating constructor instead
        return (Digraph, (self.n, self.edges))

    # -- basic accessors ----------------------------------------------------

    def _edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted edges as (tails, heads) int64 arrays, read off the out-rows in one
        pass that lays each row with an edge in ceil(n / 64) 64-bit words and unpacks only
        the nonzero words: memory grows as min(n, m) * n / 8 bytes, not as n * n."""
        tails = [u for u, row in enumerate(self._out) if row]
        size = -(-self.n // 64)  # words per row
        buf = bytearray(8 * size * len(tails))
        for start, u in zip(range(0, len(buf), 8 * size), tails):
            buf[start : start + 8 * size] = self._out[u].to_bytes(8 * size, "little")
        words = np.frombuffer(buf, "<u8")
        at = np.flatnonzero(words)  # the nonzero words, unpacked to 64 bits each
        row, place = np.divmod(at, size)  # each one's row, among tails, and word in it
        heads = np.flatnonzero(np.unpackbits(words[at].view(np.uint8), bitorder="little"))
        word = heads >> 6  # each bit's word among the nonzero ones, then its tail
        heads &= 63  # in place, as each step below: three arrays of m at most
        heads += (64 * place)[word]
        return np.take(np.array(tails, dtype=np.int64)[row], word, out=word), heads

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The sorted edges, paired off the two arrays of ``_edge_arrays``."""
        tails, heads = self._edge_arrays()
        # a list first: each resize of a growing tuple puts it back in the GC's youngest generation
        return tuple(list(zip(tails.tolist(), heads.tolist())))

    @property
    def m(self) -> int:
        """Edge count."""
        return sum(row.bit_count() for row in self._out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self._out == other._out

    def __hash__(self) -> int:
        return hash((self.n, self._out))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, edges={list(self.edges)!r})"

    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise VertexOutOfRange(u, self.n)

    def _require_edge(self, edge: Edge) -> Edge:
        u, v = edge
        if not (0 <= u < self.n and 0 <= v < self.n) or not self._out[u] >> v & 1:
            raise NoSuchEdge(u, v)
        return u, v

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self._out[u] >> v & 1)

    def out_mask(self, u: int) -> int:
        """Out-neighbors of u as a bitset (bit v set iff (u,v) is an edge)."""
        self._check_vertex(u)
        return self._out[u]

    def in_mask(self, u: int) -> int:
        self._check_vertex(u)
        return self._in[u]

    def out_neighbors(self, u: int) -> set[int]:
        return set(_bits(self.out_mask(u)))

    def in_neighbors(self, u: int) -> set[int]:
        return set(_bits(self.in_mask(u)))

    def out_degree(self, u: int) -> int:
        return self.out_mask(u).bit_count()

    # -- BFS layers ----------------------------------------------------------

    def _layers(self, u: int, rows: Rows) -> Iterator[int]:
        """Yield the bitsets of the exact-distance-k layers from u, k = 1, 2, ..., each
        when it is asked for: a caller that stops reads no row past the layers it took."""
        seen = layer = 1 << u
        while True:
            nxt = 0
            for v in _bits(layer):
                nxt |= rows[v]
            layer = nxt & ~seen
            if not layer:
                return
            yield layer
            seen |= layer

    def kth_neighborhood(self, u: int, k: int, direction: str = "out") -> set[int]:
        """Vertices at directed distance exactly k from u (or to u, for "in")."""
        self._check_vertex(u)
        if k < 1:
            raise NonPositiveK(k)
        if direction not in ("out", "in"):
            raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")
        rows = self._out if direction == "out" else self._in
        return set(_bits(next(islice(self._layers(u, rows), k - 1, None), 0)))  # stops at layer k

    def walkable_neighborhood(self, u: int) -> set[int]:
        """All vertices at finite directed distance from u, including u itself."""
        self._check_vertex(u)
        mask = 1 << u
        for layer in self._layers(u, self._out):
            mask |= layer
        return set(_bits(mask))

    def profile(self, u: int) -> NeighborhoodProfile:
        """|N1|, |N2| and the derived anti-satisfaction of u."""
        self._check_vertex(u)
        first, second = self._out[u], _two_walks(self._out, u)[0]  # no digon: u is not in second
        return NeighborhoodProfile(u, first.bit_count(), (second & ~first).bit_count())

    def profiles(self) -> list[NeighborhoodProfile]:
        """The profile of every vertex, from one pass over the sorted edges.

        Each edge (u, v) ORs v's out-row into u's reach; the graph has no
        digons, so u never reaches itself and N2(u) is the reach minus N1(u).
        The whole-graph queries below read this pass.
        """
        reach, out = [0] * self.n, self._out
        tails, heads = self._edge_arrays()
        for u, v in zip(tails.tolist(), heads.tolist()):
            reach[u] |= out[v]
        return [
            NeighborhoodProfile(u, row.bit_count(), (second & ~row).bit_count())
            for u, (row, second) in enumerate(zip(self._out, reach))
        ]

    def satisfactory_vertices(self) -> set[int]:
        """Vertices with |N1| <= |N2|; empty exactly for a conjecture counterexample."""
        return {p.vertex for p in self.profiles() if p.satisfactory}

    def first_satisfactory_vertex(self) -> int | None:
        """Smallest satisfactory vertex, or None if the graph has none."""
        return next((p.vertex for p in self.profiles() if p.satisfactory), None)

    # -- derivations ----------------------------------------------------------

    def induced_subgraph(self, subset: Iterable[int]) -> tuple[Digraph, dict[int, int]]:
        """Subgraph on ``subset`` with vertices relabeled densely.

        Relative order is preserved; returns (graph, old-id -> new-id map)
        so witnesses found in the subgraph can be translated back.
        """
        keep = sorted(set(subset))
        if not keep:
            raise EmptySubset()
        for u in keep:
            self._check_vertex(u)
        relabel = {old: new for new, old in enumerate(keep)}
        return Digraph._from_adjacency(self._adjacency(keep, keep)), relabel

    def delete_edge(self, edge: Edge) -> Digraph:
        """Same vertex set, one edge fewer."""
        u, v = self._require_edge(edge)
        out, inn = list(self._out), list(self._in)
        out[u], inn[v] = out[u] & ~(1 << v), inn[v] & ~(1 << u)
        return Digraph._from_rows(tuple(out), tuple(inn))

    def delete_vertex(self, u: int) -> tuple[Digraph, dict[int, int]]:
        """Drop u and all incident edges; survivors are relabeled densely."""
        self._check_vertex(u)
        if self.n < 2:
            raise WouldBeEmpty()
        return self.induced_subgraph(v for v in range(self.n) if v != u)

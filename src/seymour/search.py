"""Exhaustive and randomized search over digon-free digraphs.

The exhaustive universe on n vertices assigns each unordered vertex pair
one of three states (absent / forward / backward), giving 3^(n(n-1)/2)
labeled graphs, ordered by the base-3 state vector (pairs (0,1), (0,2), ...,
(n-2,n-1), earlier pairs most significant); index -> graph is a pure
function, so index ranges partition cleanly across workers.

Both modes ask "is there a satisfactory vertex?" of a whole task at once, in
one verdict on packed out-rows.  An exhaustive task (uint8 rows, so n <= 8)
is a run of 27 prefixes, the pairs touching the first n - 5 vertices, each
under all 3^10 graphs on the last five, whose rows are tabled once per n.  The
task decodes and gates its prefixes together.  A digon-free prefix needs each
suffix vertex to reach out-degree 2 in those five; the suffix graphs that do
are cached per vector of needs (3^5 of them) as (n, K) columns, one row per
vertex.  Only they reach the task's one verdict: each live prefix is ORed into
its columns straight into the verdict's per-vertex batch, and offsets are built
only for what the verdict finds.  Each sample of a random chunk compares
its uniforms, a bounded block at a time in one reused buffer, into its own row
of pair bits; one pass over the vertices places the chunk's rows into one
stack, packed once.  Past one byte a row the verdict first screens each
graph's least-out-degree vertex: one satisfactory vertex settles a graph,
every tournament has one (Fisher 1996), and in random draws that vertex has
settled every graph tried, so the pass over every vertex sees only what the
screen leaves open.  Only the (expected zero) graphs without one become Digraphs.

Randomness is implementation-pinned: sample i draws from numpy's
Generator(PCG64(SeedSequence((seed, i)))), so serial and parallel runs agree.
SeedSequence's hash is fixed integer arithmetic with constants that do not
depend on the data, run over a chunk's entropy words at once as a few stacked
passes; numpy's own PCG64 seeds each sample's Generator from its row of words.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import math
import multiprocessing
import operator
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Iterator

import numpy as np

from .digraph import MAX_ROW_BITS, Digraph, _bits, _packed_rows, _row_masks, _unpacked
from .errors import CeilingExceeded, EmptyVertexSet, InvalidProbability
from .errors import RetriesExhausted, TooManySamples, TooManyVertices, TooManyWorkers
from .filtering import CONDITION_COUNT, PASS, ConditionVerdict, FilterReport, run_filter
from .textio import write_digraph

DEFAULT_CEILING = 6
DEFAULT_MAX_RETRIES = 1000  # rejection-sampling attempts per triangle-free graph
MAX_WORKERS = 256  # worker processes one search may start
MAX_RANDOM_VERTICES = math.isqrt(MAX_ROW_BITS)  # so a draw has at most MAX_ROW_BITS entries
MAX_RANDOM_COUNT = 2**32  # samples per random search, so each index is one entropy word

RANDOM_MODELS = ("tournament", "digon_free", "acyclic", "triangle_free")

_SUFFIX_VERTICES = 5  # each prefix runs over every graph on the last five
_EXHAUSTIVE_CHUNK = 3**10  # their C(5, 2) pair digits, the least significant
_TASK_PREFIXES = 27  # consecutive prefixes per exhaustive task: 3^13 indices
_RANDOM_CHUNK = 128  # most samples per random chunk; fewer past 181 vertices
_VERDICT_ROWS = 2**15  # most graphs per verdict pass, so that its arrays stay in cache
_POOL_BATCH = 64  # most chunks sent to a worker at once
_ROW_WIDTH = 8  # vertices a uint8 out-row can hold
_DRAW_PAIRS = 2**16  # most pair uniforms a draw holds at once: 512 KiB of doubles
_GROUP_DIGITS = 5  # base-3 digits per lookup table: 3^5 = 243 rows
_MASK32 = 2**32 - 1

SeedLike = int | tuple[int, ...]


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def space_size(n: int) -> int:
    """Number of labeled digon-free digraphs on n vertices: 3^(n(n-1)/2)."""
    return 3 ** pair_count(n)


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: a cache shares them with every caller."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


@functools.cache
def _row_tables(n: int) -> tuple[np.ndarray, ...]:
    """Out-row tables for groups of <= 5 pair digits cut from the least
    significant end, listed most significant first: (3^g, n) uint8 each."""
    pairs, tables = list(itertools.combinations(range(n), 2)), []
    for stop in range(len(pairs), 0, -_GROUP_DIGITS):
        table = np.zeros((1, n), dtype=np.uint8)
        for u, v in pairs[max(0, stop - _GROUP_DIGITS) : stop]:
            digit = np.zeros((3, n), dtype=np.uint8)  # absent, u -> v, v -> u
            digit[1, u], digit[2, v] = 1 << v, 1 << u
            table = (table[:, None] | digit).reshape(-1, n)
        tables.insert(0, table)
    return _frozen(*tables)


def _rows_at(n: int, index: int | np.ndarray) -> np.ndarray:
    """uint8 out-rows (bit v of row u: u -> v) at an int or int64-array index."""
    # an int stays one: Python's divmod on it is far cheaper than numpy's
    idx = index if isinstance(index, int) else np.asarray(index, dtype=np.int64)
    rows = np.zeros(np.shape(idx) + (n,), dtype=np.uint8)
    for table in reversed(_row_tables(n)):
        idx, code = divmod(idx, 3**_GROUP_DIGITS)
        rows |= table.take(code, axis=0)  # about twice as fast as table[code]
    return rows


def _two_step(cols: np.ndarray) -> np.ndarray:
    """Per vertex of (n, N, W) packed out-rows, the OR of its out-neighbours' rows."""
    bits, word = 8 * cols.itemsize, cols.dtype.type
    reach2 = np.zeros_like(cols)
    for w in range(len(cols)):  # every u with u -> w reaches w's out-row
        hit = (cols[:, :, w // bits, None] >> word(w % bits)) & word(1)
        reach2 |= hit * cols[w]  # not out=hit: it cannot hold the broadcast when W > 1
    return reach2


def _popcount(bits: np.ndarray) -> np.ndarray:
    """Set bits of each byte of a uint8 array, as a new array: byte-wise SWAR
    with one scratch array, and bits is only read."""
    x = bits - (bits >> np.uint8(1) & np.uint8(0x55))  # per bit pair
    t = x >> np.uint8(2)
    t &= np.uint8(0x33)
    x &= np.uint8(0x33)
    x += t  # per nibble
    x += np.right_shift(x, np.uint8(4), out=t)
    return np.bitwise_and(x, np.uint8(0x0F), out=x)


def _row_counts(words: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Set bits per (..., W) row of unsigned words, as dtype: a multiply by
    0x01...01 sums each word's byte counts (at most 64) into its top byte."""
    size, word = words.itemsize, words.dtype.type
    counts = _popcount(words.view(np.uint8)).view(words.dtype)
    if size > 1:
        counts *= word((1 << 8 * size) // 255)
        counts >>= word(8 * (size - 1))
    return counts.sum(axis=-1, dtype=dtype)


@functools.cache
def _own_bits(n: int) -> np.ndarray:
    """Bit u of row u, as (n, 1, W) packed rows that broadcast over a batch."""
    return _frozen(_packed_rows(np.eye(n, dtype=bool))[:, None])[0]


def _least_degree_satisfactory(rows: np.ndarray) -> np.ndarray:
    """Per graph of an (N, n, W) batch as in _no_satisfactory_vertex: True
    iff its least-out-degree vertex (the first on ties) has |N1| <= |N2|."""
    graphs, n = np.arange(len(rows)), rows.shape[1]
    count = np.min_scalar_type(n)
    n1 = _row_counts(rows, count)
    least = n1.argmin(axis=1)
    own = rows[graphs, least]  # (N, W): its out-row
    hit = np.unpackbits(own.view(np.uint8), axis=1, count=n, bitorder="little").view(bool)
    reach = np.bitwise_or.reduce(rows * hit[:, :, None], axis=1)
    reach &= ~(own | _own_bits(n)[least, 0])
    return n1[graphs, least] <= _row_counts(reach, count)


def _no_satisfactory_vertex(rows: np.ndarray) -> np.ndarray:
    """Per graph of an (N, n) or (N, n, W) batch of loop-free out-rows laid
    out as _packed_rows lays out n vertices, digons allowed: True iff no
    vertex has |N1| <= |N2|.  Must agree with Digraph.profile.  Past one byte
    a row, only the graphs whose least-out-degree vertex is not satisfactory
    go on to the pass over every vertex: one satisfactory vertex settles it."""
    if not len(rows):
        return np.zeros(0, dtype=bool)
    n = rows.shape[1]
    rows = rows.reshape(len(rows), n, -1)
    cols = rows.transpose(1, 0, 2)  # (n, N, W): per vertex, as the verdict reads them
    if n <= _ROW_WIDTH:  # random draws on n <= 8 and the tests' _rows_at batches; on whole
        # spaces the screen costs more than the pass it spares (n = 6: 3.9 against 1.4 ms)
        return _every_vertex_unsatisfactory(cols.copy())
    found = ~_least_degree_satisfactory(rows)
    if found.any():
        found[found] = _every_vertex_unsatisfactory(cols[:, found].copy())
    return found


def _every_vertex_unsatisfactory(cols: np.ndarray) -> np.ndarray:
    """The verdict of _no_satisfactory_vertex on an (n, N, W) batch laid out
    per vertex, from N2 of every vertex, _VERDICT_ROWS graphs at a time."""
    n, found = len(cols), np.zeros(cols.shape[1], dtype=bool)
    count = np.min_scalar_type(n)  # holds any popcount; wider sums cost time
    for start in range(0, cols.shape[1], _VERDICT_ROWS):
        block = cols[:, start : start + _VERDICT_ROWS]  # 300,000 at once cost 2.6x a graph
        n1 = _row_counts(block, count)
        reach = _two_step(block)
        reach &= ~(block | _own_bits(n))  # N2 leaves out N1 and u itself
        n2 = _row_counts(reach, count)
        found[start : start + _VERDICT_ROWS] = ~(n1 <= n2).any(axis=0)
    return found


@functools.cache
def _suffix_rows(n: int) -> np.ndarray:
    """Out-rows of every graph on the last min(n, 5) vertices, the first
    chunk in index order: (chunk, n) uint8, the other vertices' rows empty."""
    return _frozen(_rows_at(n, np.arange(min(space_size(n), _EXHAUSTIVE_CHUNK))))[0]


@functools.cache
def _kept_suffix(n: int, need: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Offsets of the suffix graphs of _suffix_rows(n) in which suffix vertex i
    has out-degree >= need[i], and their rows as (n, K) columns, one row per
    vertex as the verdict reads them; cached per n and need."""
    rows = _suffix_rows(n)
    keep = np.flatnonzero((_popcount(rows[:, -len(need) :]) >= np.array(need)).all(axis=1))
    return _frozen(keep, np.ascontiguousarray(rows[keep].T))


def _kept_columns(n: int, adj: np.ndarray) -> dict[int, tuple[np.ndarray, ...]]:
    """From each live prefix b of a (B, n, n) stack of prefix matrices P to
    _kept_suffix for the suffix graphs S for which P | S may lack a
    satisfactory vertex: every S if P has a digon, else those in which every
    vertex has out-degree >= 2, so a suffix vertex with d out-neighbours in F
    needs max(0, 2 - d) in S, and P is dead if a vertex of F has at most 1.
    In a digon-free graph a sink is satisfactory, and so is u with N1(u) = {v}
    unless v is a sink, since then N2(u) = N1(v)."""
    f, degrees = max(0, n - _SUFFIX_VERTICES), adj.sum(axis=2)
    digon = (adj & adj.transpose(0, 2, 1)).any(axis=(1, 2))
    dead = ~digon & (degrees[:, :f] <= 1).any(axis=1)  # a vertex of F decides it
    need = np.where(digon[:, None], 0, np.maximum(0, 2 - degrees[:, f:])).tolist()
    return {b: _kept_suffix(n, tuple(need[b])) for b in np.flatnonzero(~dead).tolist()}


def _chunk_candidates(n: int, prefixes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Offsets b * 3^10 + s and rows of the graphs prefixes[b] | S with no
    satisfactory vertex, S the suffix graph at offset s of _suffix_rows(n); a
    prefix holds the rows of the pairs touching F, the first n - 5 vertices (an
    (n,) one is a stack of one).  Only the S _kept_columns keeps reach the verdict:
    each live prefix is ORed into its cached columns, written straight into one
    (n, N, 1) batch laid out per vertex."""
    prefixes = prefixes.reshape(-1, n)
    adj = np.unpackbits(prefixes[:, :, None], axis=2, count=n, bitorder="little").view(bool)
    kept = _kept_columns(n, adj)
    stops = list(itertools.accumulate((len(keep) for keep, _ in kept.values()), initial=0))
    cols = np.empty((n, stops[-1], 1), dtype=np.uint8)
    for start, stop, (b, (_, columns)) in zip(stops, stops[1:], kept.items()):
        np.bitwise_or(columns, prefixes[b][:, None], out=cols[:, start:stop, 0])
    found = np.flatnonzero(_every_vertex_unsatisfactory(cols))
    if not len(found):  # the usual case: no offsets are built
        return np.zeros(0, dtype=np.intp), prefixes[:0]
    offsets = np.concatenate([keep + b * _EXHAUSTIVE_CHUNK for b, (keep, _) in kept.items()])
    return offsets[found], cols[:, found, 0].T.copy()


def graph_at_index(n: int, index: int) -> Digraph:
    """Decode one enumeration index into its digraph (pure function)."""
    SearchSpec(mode="exhaustive", n=n, ceiling=_ROW_WIDTH).validate()
    total = space_size(n)
    if not 0 <= index < total:
        raise ValueError(f"index {index} outside [0, {total})")
    return Digraph._from_adjacency(_unpacked(_rows_at(n, index)))


def enumerate_digon_free(n: int, ceiling: int = DEFAULT_CEILING) -> Iterator[Digraph]:
    """Yield every labeled digon-free digraph on n vertices in index order."""
    SearchSpec(mode="exhaustive", n=n, ceiling=ceiling).validate()
    for index in range(space_size(n)):
        yield graph_at_index(n, index)


# -- seeded random models -----------------------------------------------------


def _entropy_words(entropy: SeedLike) -> list[int]:
    """numpy's SeedSequence entropy words: each int as little-endian 32-bit
    words ([0] for 0), a tuple's ints concatenated."""
    if isinstance(entropy, (tuple, list)):
        return [word for part in entropy for word in _entropy_words(part)]
    value = operator.index(entropy)
    if value < 0:
        raise ValueError("expected non-negative integer")
    return [value >> shift & _MASK32 for shift in range(0, max(1, value.bit_length()), 32)]


@functools.cache
def _hash_constants(const: int, mult: int, calls: int) -> tuple[np.ndarray, ...]:
    """The constants of `calls` successive SeedSequence hashmixes, as (calls, 1) uint32
    columns: call k XORs by const * mult^k, then multiplies by const * mult^(k + 1)."""
    consts = itertools.accumulate(range(calls), lambda c, _: c * mult & _MASK32, initial=const)
    column = np.array(list(consts), dtype=np.uint32)[:, None]
    return _frozen(column[:-1], column[1:])


def _hashmix(value: np.ndarray, xors: np.ndarray, mults: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of (k, B) or (B,) uint32 values by k calls' constants."""
    value = value ^ xors
    value *= mults
    return value ^ value >> np.uint32(16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two uint32 arrays."""
    mixed = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
    return mixed ^ mixed >> np.uint32(16)


class _Seed:
    """numpy's ISeedSequence over a row of SeedSequence.generate_state(4, np.uint64)."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype: type = np.uint64) -> np.ndarray:
        return self.words


def _seeded(entropies: np.ndarray | list[list[int]]) -> Iterator[np.random.Generator]:
    """numpy's Generator(PCG64(SeedSequence(e))) for the entropy words e of each row:
    the SeedSequence hash runs over all rows at once, each step's calls stacked."""
    from numpy.random.bit_generator import ISeedSequence  # loads numpy.random: not at import
    ISeedSequence.register(_Seed)
    words = np.asarray(entropies, dtype=np.uint32).T  # (size, B): one row per word
    size, rows = words.shape
    xors, mults = _hash_constants(0x43B0D7E5, 0x931E8875, 16 + 4 * max(0, size - 4))
    pool = np.zeros((4, rows), dtype=np.uint32)  # mix_entropy into a pool of 4 words
    pool[:size] = words[:4]
    pool = _hashmix(pool, xors[:4], mults[:4])
    for src in range(4):  # pool[src] holds through its round
        dst, k = [i for i in range(4) if i != src], 4 + 3 * src
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xors[k : k + 3], mults[k : k + 3]))
    for k, word in zip(range(16, len(xors), 4), words[4:]):  # each past the fourth, into all 4
        pool = _mix(pool, _hashmix(word, xors[k : k + 4], mults[k : k + 4]))
    xors, mults = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)  # generate_state(4, np.uint64)
    state = _hashmix(np.concatenate([pool, pool]), xors, mults)
    seeds = np.ascontiguousarray(state.T, dtype="<u4").view("<u8")
    for words in seeds.astype(np.uint64):  # native order: PCG64 reads the words' memory
        yield np.random.Generator(np.random.PCG64(_Seed(words)))


def _check_draw(
    model: str | None, n: int, p: float | None, max_retries: int, seed: SeedLike
) -> None:
    """The one check of a draw's parameters, made before anything is allocated."""
    if model not in RANDOM_MODELS:
        raise ValueError(f"unknown random model {model!r}")
    if n < 1:
        raise EmptyVertexSet()
    if n > MAX_RANDOM_VERTICES:
        raise TooManyVertices(n, MAX_RANDOM_VERTICES)
    if model != "tournament" and (p is None or not 0.0 <= p <= 1.0):
        raise InvalidProbability(p)
    if model == "triangle_free" and max_retries < 1:
        raise ValueError(f"max_retries must be >= 1, got {max_retries}")
    _entropy_words(seed)  # raises on a negative seed


def _place(adj: np.ndarray, bits: np.ndarray) -> None:
    """Write (B, n(n-1)/2) pair bits into a (B, n, n) stack, bit k at the k-th pair (u, v)
    of itertools.combinations(range(n), 2), one slice per u; reverses via adj.swapaxes(1, 2)."""
    n, stop = adj.shape[1], 0
    for u in range(n - 1):
        start, stop = stop, stop + n - 1 - u
        adj[:, u, u + 1 :] = bits[:, start:stop]


def _has_transitive_triangle(adj: np.ndarray) -> bool:
    """Some edge u -> v has a common out-neighbour w of u and v: the bit rows of its two
    ends meet.  Tests check it against ``oracles.has_transitive_triangle``."""
    rows = _row_masks(adj)
    return any(row & rows[v] for row in rows for v in _bits(row))


def _draw_adjacency(
    model: str, n: int, p: float | None, entropies: np.ndarray | list[list[int]], max_retries: int
) -> np.ndarray:
    """The (B, n, n) bool stack of graphs of a checked model in RANDOM_MODELS (tournaments
    ignore p), graph b from the generator _seeded gives for entropies[b]: steps compare its
    uniforms in order, a block at a time in one reused buffer, into its rows of bits for _place."""
    pairs, uniforms = pair_count(n), np.empty(min(pair_count(n), _DRAW_PAIRS))
    thresholds = {"tournament": [0.5], "acyclic": [p]}.get(model, [p, 0.5])  # present, forward
    bits = np.empty((len(thresholds), len(entropies), pairs), dtype=bool)
    adj, orders = np.zeros((len(entropies), n, n), dtype=bool), np.empty((len(entropies), n), int)
    steps = [(threshold, rows[:, i : i + _DRAW_PAIRS], uniforms[: pairs - i])  # a sample's draws
             for threshold, rows in zip(thresholds, bits) for i in range(0, pairs, _DRAW_PAIRS)]
    tries = range(max_retries if model == "triangle_free" else 1)  # until triangle-free

    def orient(rows: slice) -> np.ndarray:  # u -> v if present and forward, v -> u if only present
        a, (present, forward) = adj[rows], bits[:, rows]
        _place(a, np.logical_and(forward, present, out=forward))
        _place(a.swapaxes(1, 2), np.logical_xor(present, forward, out=present))
        return a

    for i, rng in enumerate(_seeded(entropies)):
        if model == "acyclic":  # order[i] -> order[j] for kept pairs i < j
            orders[i] = np.argsort(rng.random(n), kind="stable")
        for _ in tries:
            for threshold, out, block in steps:
                np.less(rng.random(out=block), threshold, out=out[i])
            if model != "triangle_free" or not _has_transitive_triangle(orient(slice(i, i + 1))[0]):
                break
        else:
            raise RetriesExhausted(max_retries)
    if model == "tournament":  # u -> v where forward, else v -> u
        _place(adj, bits[0])
        _place(adj.swapaxes(1, 2), np.logical_not(bits[0], out=bits[0]))
    elif model == "acyclic":
        _place(adj, bits[0])
        bits = steps = out = None  # nor their views: none is held through the relabelling
        for a, place in zip(adj, orders.argsort(axis=1)):  # place[v]: v's place in order
            np.take(a.take(place, axis=0), place, axis=1, out=a, mode="wrap")  # "raise" buffers out
    elif model == "digon_free":  # triangle_free placed each sample as it tested it
        orient(slice(None))
    return adj


def random_graph(
    model: str, n: int, p: float | None, seed: SeedLike, max_retries: int = DEFAULT_MAX_RETRIES
) -> Digraph:
    """One graph of a model in RANDOM_MODELS (tournaments ignore p), drawn
    from entropy seed."""
    _check_draw(model, n, p, max_retries, seed)
    [adj] = _draw_adjacency(model, n, p, [_entropy_words(seed)], max_retries)
    return Digraph._from_adjacency(adj)


def random_tournament(n: int, seed: SeedLike) -> Digraph:
    """Every unordered pair gets exactly one orientation, coin-flipped."""
    return random_graph("tournament", n, None, seed)


def random_digon_free(n: int, p: float, seed: SeedLike) -> Digraph:
    """Each unordered pair is oriented (fair coin) with probability p, else absent."""
    return random_graph("digon_free", n, p, seed)


def random_acyclic(n: int, p: float, seed: SeedLike) -> Digraph:
    """A random topological order with each forward pair kept with probability p."""
    return random_graph("acyclic", n, p, seed)


def random_triangle_free(
    n: int, p: float, seed: SeedLike, max_retries: int = DEFAULT_MAX_RETRIES
) -> Digraph:
    """Rejection-sample digon-free graphs until none has a transitive triangle."""
    return random_graph("triangle_free", n, p, seed, max_retries)


# -- search specification and report ------------------------------------------


@dataclass(frozen=True)
class SearchSpec:
    """Parameters of one search run; equal specs give equal reports (mod timing)."""

    mode: str  # "exhaustive" | "random"
    n: int
    model: str | None = None
    p: float | None = None
    count: int | None = None
    seed: int = 0
    workers: int = 1
    filter_enabled: bool = True
    ceiling: int = DEFAULT_CEILING
    max_retries: int = DEFAULT_MAX_RETRIES

    def validate(self) -> None:
        if self.n < 1:
            raise EmptyVertexSet()
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.workers > MAX_WORKERS:
            raise TooManyWorkers(self.workers, MAX_WORKERS)
        if self.mode == "exhaustive":
            limit = min(self.ceiling, _ROW_WIDTH)
            if self.n > limit:
                raise CeilingExceeded(self.n, limit)
        elif self.mode == "random":
            if self.p is None and self.model in RANDOM_MODELS and self.model != "tournament":
                raise ValueError(f"model {self.model!r} needs an edge probability p")
            _check_draw(self.model, self.n, self.p, self.max_retries, self.seed)
            if self.count is None or self.count < 1:
                raise ValueError("random mode needs count >= 1")
            if self.count > MAX_RANDOM_COUNT:
                raise TooManySamples(self.count, MAX_RANDOM_COUNT)
        else:
            raise ValueError(f"unknown search mode {self.mode!r}")


@dataclass(frozen=True)
class SurvivorRecord:
    """A graph that passed every evaluated condition, with its evidence."""

    index: int
    graph_text: str
    report: FilterReport

    def as_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "graph": self.graph_text,
            "filter": self.report.as_dict(),
        }


@dataclass
class SearchReport:
    spec: SearchSpec
    graphs_examined: int
    counterexamples_found: int
    per_condition_rejections: list[int]
    filter_survivors: list[SurvivorRecord]
    elapsed_seconds: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "spec": asdict(self.spec),
            "graphs_examined": self.graphs_examined,
            "counterexamples_found": self.counterexamples_found,
            "per_condition_rejections": list(self.per_condition_rejections),
            "filter_survivors": [s.as_dict() for s in self.filter_survivors],
            "elapsed_ms": int(self.elapsed_seconds * 1000),
        }


@dataclass
class _ChunkResult:
    examined: int = 0
    counterexamples: int = 0
    rejections: list[int] = field(default_factory=lambda: [0] * CONDITION_COUNT)
    survivors: list[SurvivorRecord] = field(default_factory=list)

    def merge(self, other: "_ChunkResult") -> None:
        self.examined += other.examined
        self.counterexamples += other.counterexamples
        self.rejections = [a + b for a, b in zip(self.rejections, other.rejections)]
        self.survivors.extend(other.survivors)


def _record_counterexample(
    g: Digraph, index: int, filter_enabled: bool, result: _ChunkResult
) -> None:
    """Handle a graph already known to have no satisfactory vertex."""
    result.counterexamples += 1
    if filter_enabled:
        report = run_filter(g, short_circuit=True)
    else:
        report = FilterReport([ConditionVerdict(0, PASS)], True, [0])
    if report.survived:
        result.survivors.append(SurvivorRecord(index, write_digraph(g), report))
    else:
        result.rejections[report.first_failure.condition] += 1


def _search_chunk(task: tuple[SearchSpec, int, int]) -> _ChunkResult:
    """One verdict over a chunk; only its candidates become Digraphs."""
    spec, start, stop = task
    if spec.mode == "exhaustive":  # start is a multiple of 3^10: a run of prefixes
        prefixes = _rows_at(spec.n, np.arange(start, stop, _EXHAUSTIVE_CHUNK))
        candidates, rows = _chunk_candidates(spec.n, prefixes)
    else:
        seed = _entropy_words(spec.seed)  # and each index is one word: see MAX_RANDOM_COUNT
        entropies = np.empty((stop - start, len(seed) + 1), dtype=np.uint32)
        entropies[:, :-1], entropies[:, -1] = seed, np.arange(start, stop)
        rows = _packed_rows(  # the stack is not held through the verdict
            _draw_adjacency(spec.model, spec.n, spec.p, entropies, spec.max_retries)
        )
        candidates = np.flatnonzero(_no_satisfactory_vertex(rows))
        rows = rows[candidates]
    result = _ChunkResult(examined=stop - start)
    result.rejections[0] += result.examined - len(candidates)
    for i, row in zip(candidates.tolist(), rows):
        g = Digraph._from_adjacency(_unpacked(row))
        _record_counterexample(g, start + i, spec.filter_enabled, result)
    return result


def _chunk_tasks(spec: SearchSpec) -> tuple[int, Iterator[tuple[SearchSpec, int, int]]]:
    """The number of chunks of spec, and a generator of them in index order."""
    if spec.mode == "exhaustive":
        total, step = space_size(spec.n), _TASK_PREFIXES * _EXHAUSTIVE_CHUNK
    else:  # a chunk stacks at most 2^22 adjacency entries, and the verdict n / 8 bytes each
        total, step = spec.count or 0, min(_RANDOM_CHUNK, max(1, 2**22 // spec.n**2))
    starts = range(0, total, step)
    return len(starts), ((spec, start, min(start + step, total)) for start in starts)


def run_search(spec: SearchSpec) -> SearchReport:
    """Run the search described by spec and aggregate a deterministic report.

    Work is split into fixed index ranges, made as the workers take them and
    merged back in range order, so the report is identical (apart from
    elapsed time) for any worker count.
    """
    spec.validate()
    started = time.perf_counter()
    chunks, tasks = _chunk_tasks(spec)
    workers, total = min(spec.workers, chunks), _ChunkResult()
    with multiprocessing.Pool(workers) if workers > 1 else contextlib.nullcontext() as pool:
        batch = max(1, min(_POOL_BATCH, chunks // (4 * workers)))  # chunks per message
        for part in pool.imap(_search_chunk, tasks, batch) if pool else map(_search_chunk, tasks):
            total.merge(part)
    return SearchReport(
        spec=spec,
        graphs_examined=total.examined,
        counterexamples_found=total.counterexamples,
        per_condition_rejections=total.rejections,
        filter_survivors=total.survivors,
        elapsed_seconds=time.perf_counter() - started,
    )

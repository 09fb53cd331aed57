"""Exhaustive and randomized search over digon-free digraphs.

The exhaustive universe on n vertices assigns each unordered vertex pair
one of three states (absent / forward / backward), giving 3^(n(n-1)/2)
labeled graphs.  Graphs are totally ordered by the base-3 state vector
(pairs ordered (0,1), (0,2), ..., (n-2,n-1), earlier pairs most
significant), and the index -> graph mapping is a pure function, so index
ranges partition cleanly across workers.

The hot loop asks one question per graph, "is there a satisfactory
vertex?", for whole index ranges at once on packed uint8 out-rows (so n <= 8)
decoded from lookup tables; only the (expected zero) graphs with no such
vertex are materialized and pushed through the full condition filter.

Randomness is implementation-pinned: PCG64 seeded through SeedSequence,
with the sample at position i drawing from entropy (seed, i), so serial
and parallel runs agree sample by sample.
"""
from __future__ import annotations

import functools
import multiprocessing
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Iterator, Sequence

import numpy as np

from .digraph import Digraph
from .errors import (
    CeilingExceeded,
    EmptyVertexSet,
    InvalidProbability,
    RetriesExhausted,
)
from .filtering import (
    CONDITION_COUNT,
    PASS,
    ConditionVerdict,
    FilterReport,
    run_filter,
)
from .structure import has_transitive_triangle
from .textio import write_digraph

DEFAULT_CEILING = 6
DEFAULT_MAX_RETRIES = 1000  # rejection-sampling attempts per triangle-free graph

RANDOM_MODELS = ("tournament", "digon_free", "acyclic", "triangle_free")

_EXHAUSTIVE_CHUNK = 3**10
_RANDOM_CHUNK = 128
_ROW_WIDTH = 8  # vertices a uint8 out-row can hold
_GROUP_DIGITS = 5  # base-3 digits per lookup table: 3^5 = 243 rows
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)

SeedLike = int | tuple[int, ...]


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def space_size(n: int) -> int:
    """Number of labeled digon-free digraphs on n vertices: 3^(n(n-1)/2)."""
    return 3 ** pair_count(n)


@functools.cache
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tails and heads of the pairs u < v, in itertools.combinations order."""
    tails, heads = np.triu_indices(n, 1)
    tails.flags.writeable = heads.flags.writeable = False  # shared by the cache
    return tails, heads


@functools.cache
def _row_tables(n: int) -> tuple[np.ndarray, ...]:
    """Out-row tables for groups of <= 5 pair digits cut from the least
    significant end, listed most significant first: (3^g, n) uint8 each."""
    tails, heads = _pair_index(n)
    pairs, tables = list(zip(tails.tolist(), heads.tolist())), []
    for stop in range(len(pairs), 0, -_GROUP_DIGITS):
        table = np.zeros((1, n), dtype=np.uint8)
        for u, v in pairs[max(0, stop - _GROUP_DIGITS) : stop]:
            digit = np.zeros((3, n), dtype=np.uint8)  # absent, u -> v, v -> u
            digit[1, u], digit[2, v] = 1 << v, 1 << u
            table = (table[:, None] | digit).reshape(-1, n)
        table.flags.writeable = False  # shared by every caller of the cache
        tables.insert(0, table)
    return tuple(tables)


def _rows_at(n: int, index: int | np.ndarray) -> np.ndarray:
    """uint8 out-rows (bit v of row u: u -> v) at an int or int64-array index."""
    idx = np.asarray(index, dtype=np.int64)
    rows = np.zeros(idx.shape + (n,), dtype=np.uint8)
    for table in reversed(_row_tables(n)):
        idx, code = np.divmod(idx, 3**_GROUP_DIGITS)
        rows |= table.take(code, axis=0)  # about twice as fast as table[code]
    return rows


def _no_satisfactory_vertex(rows: np.ndarray) -> np.ndarray:
    """Per graph of an (N, n) loop-free row batch, digons allowed: True iff
    no vertex has |N1| <= |N2|.  Must agree with Digraph.profile."""
    n = rows.shape[1]
    cols = rows.T.copy()  # (n, N): each vertex's rows contiguous, for speed
    reach2 = np.zeros_like(cols)
    for w in range(n):  # every u with u -> w reaches w's out-row
        reach2 |= cols[w] & -((cols >> w) & 1)
    not_self = ~(np.uint8(1) << np.arange(n, dtype=np.uint8))[:, None]
    return ~(_POPCOUNT[cols] <= _POPCOUNT[reach2 & ~cols & not_self]).any(axis=0)


def graph_at_index(n: int, index: int) -> Digraph:
    """Decode one enumeration index into its digraph (pure function)."""
    if n < 1:
        raise EmptyVertexSet()
    if n > _ROW_WIDTH:
        raise CeilingExceeded(n, _ROW_WIDTH)
    total = space_size(n)
    if not 0 <= index < total:
        raise ValueError(f"index {index} outside [0, {total})")
    adj = np.unpackbits(_rows_at(n, index)[:, None], axis=1, count=n, bitorder="little")
    return Digraph._from_adjacency(adj.view(bool))


def enumerate_digon_free(n: int, ceiling: int = DEFAULT_CEILING) -> Iterator[Digraph]:
    """Yield every labeled digon-free digraph on n vertices in index order."""
    if n > ceiling:
        raise CeilingExceeded(n, ceiling)
    for index in range(space_size(n)):
        yield graph_at_index(n, index)


# -- seeded random models -----------------------------------------------------


def _rng(seed: SeedLike) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _check_probability(p: float | None) -> None:
    if p is None or not 0.0 <= p <= 1.0:
        raise InvalidProbability(p)


def _oriented(n: int, present: np.ndarray | bool, forward: np.ndarray) -> Digraph:
    """Pair k of _pair_index(n), kept where present[k]: u -> v if forward[k]."""
    tails, heads = _pair_index(n)
    adj = np.zeros((n, n), dtype=bool)
    adj[tails, heads] = present & forward
    adj[heads, tails] = present & ~forward
    return Digraph._from_adjacency(adj)


def random_tournament(n: int, seed: SeedLike) -> Digraph:
    """Every unordered pair gets exactly one orientation, coin-flipped."""
    if n < 1:
        raise EmptyVertexSet()
    return _oriented(n, True, _rng(seed).random(pair_count(n)) < 0.5)


def _digon_free_draw(n: int, p: float, rng: np.random.Generator) -> Digraph:
    present = rng.random(pair_count(n)) < p
    return _oriented(n, present, rng.random(pair_count(n)) < 0.5)


def random_digon_free(n: int, p: float, seed: SeedLike) -> Digraph:
    """Each unordered pair is oriented (fair coin) with probability p, else absent."""
    if n < 1:
        raise EmptyVertexSet()
    _check_probability(p)
    return _digon_free_draw(n, p, _rng(seed))


def random_acyclic(n: int, p: float, seed: SeedLike) -> Digraph:
    """A random topological order with each forward pair kept with probability p."""
    if n < 1:
        raise EmptyVertexSet()
    _check_probability(p)
    rng = _rng(seed)
    order = np.argsort(rng.random(n), kind="stable")
    tails, heads = _pair_index(n)
    adj = np.zeros((n, n), dtype=bool)
    adj[order[tails], order[heads]] = rng.random(pair_count(n)) < p
    return Digraph._from_adjacency(adj)


def random_triangle_free(
    n: int, p: float, seed: SeedLike, max_retries: int = DEFAULT_MAX_RETRIES
) -> Digraph:
    """Rejection-sample digon-free graphs until none has a transitive triangle."""
    if n < 1:
        raise EmptyVertexSet()
    _check_probability(p)
    if max_retries < 1:
        raise ValueError(f"max_retries must be >= 1, got {max_retries}")
    rng = _rng(seed)
    for _ in range(max_retries):
        g = _digon_free_draw(n, p, rng)
        if not has_transitive_triangle(g):
            return g
    raise RetriesExhausted(max_retries)


def random_graph(
    model: str, n: int, p: float | None, seed: SeedLike, max_retries: int = DEFAULT_MAX_RETRIES
) -> Digraph:
    """One graph of a model in RANDOM_MODELS (tournaments ignore p); models
    are looked up as module globals per call, so wrappers on them see it."""
    if model == "tournament":
        return random_tournament(n, seed)
    if model == "digon_free":
        return random_digon_free(n, p, seed)
    if model == "acyclic":
        return random_acyclic(n, p, seed)
    if model == "triangle_free":
        return random_triangle_free(n, p, seed, max_retries)
    raise ValueError(f"unknown random model {model!r}")


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
        if self.mode == "exhaustive":
            limit = min(self.ceiling, _ROW_WIDTH)
            if self.n > limit:
                raise CeilingExceeded(self.n, limit)
        elif self.mode == "random":
            if self.model not in RANDOM_MODELS:
                raise ValueError(f"unknown random model {self.model!r}")
            if self.count is None or self.count < 1:
                raise ValueError("random mode needs count >= 1")
            if self.model != "tournament":
                if self.p is None:
                    raise ValueError(f"model {self.model!r} needs an edge probability p")
                _check_probability(self.p)
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
        if report.survived:
            result.survivors.append(SurvivorRecord(index, write_digraph(g), report))
        else:
            first = report.first_failure
            assert first is not None
            result.rejections[first.condition] += 1
    else:
        report = FilterReport([ConditionVerdict(0, PASS)], True, [0])
        result.survivors.append(SurvivorRecord(index, write_digraph(g), report))


def _exhaustive_chunk(spec: SearchSpec, start: int, stop: int) -> _ChunkResult:
    result = _ChunkResult(examined=stop - start)
    rows = _rows_at(spec.n, np.arange(start, stop, dtype=np.int64))
    candidates = (np.nonzero(_no_satisfactory_vertex(rows))[0] + start).tolist()
    result.rejections[0] += result.examined - len(candidates)
    for index in candidates:
        g = graph_at_index(spec.n, index)
        _record_counterexample(g, index, spec.filter_enabled, result)
    return result


def _random_chunk(spec: SearchSpec, start: int, stop: int) -> _ChunkResult:
    result = _ChunkResult(examined=stop - start)
    for index in range(start, stop):
        entropy = (spec.seed, index)
        g = random_graph(spec.model, spec.n, spec.p, entropy, spec.max_retries)
        if g.first_satisfactory_vertex() is None:
            _record_counterexample(g, index, spec.filter_enabled, result)
        else:
            result.rejections[0] += 1
    return result


def _search_chunk(task: tuple[SearchSpec, int, int]) -> _ChunkResult:
    spec, start, stop = task
    if spec.mode == "exhaustive":
        return _exhaustive_chunk(spec, start, stop)
    return _random_chunk(spec, start, stop)


def _chunk_tasks(spec: SearchSpec) -> list[tuple[SearchSpec, int, int]]:
    if spec.mode == "exhaustive":
        total = space_size(spec.n)
        chunk = _EXHAUSTIVE_CHUNK
    else:
        total = spec.count or 0
        chunk = _RANDOM_CHUNK
    return [
        (spec, start, min(start + chunk, total)) for start in range(0, total, chunk)
    ]


def run_search(spec: SearchSpec) -> SearchReport:
    """Run the search described by spec and aggregate a deterministic report.

    Work is split into fixed index ranges merged back in range order, so
    the report is identical (apart from elapsed time) for any worker
    count.
    """
    spec.validate()
    started = time.perf_counter()
    tasks = _chunk_tasks(spec)
    if spec.workers == 1 or len(tasks) <= 1:
        parts: Sequence[_ChunkResult] = [_search_chunk(t) for t in tasks]
    else:
        with multiprocessing.Pool(min(spec.workers, len(tasks))) as pool:
            parts = pool.map(_search_chunk, tasks)
    total = _ChunkResult()
    for part in parts:
        total.merge(part)
    return SearchReport(
        spec=spec,
        graphs_examined=total.examined,
        counterexamples_found=total.counterexamples,
        per_condition_rejections=total.rejections,
        filter_survivors=total.survivors,
        elapsed_seconds=time.perf_counter() - started,
    )

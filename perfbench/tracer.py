"""In-memory spans and counts around the calls into each seymour layer.

The tracer patches names where the calling code looks them up: a wrapper
on ``seymour.search._search_chunk`` is seen by ``run_search`` because the
driver resolves that module global at call time, and a wrapper on a
``Digraph`` method is seen by every caller because methods resolve through
the class.  Nothing under ``src/`` is copied or edited.

A span's self time is its duration minus the time of the spans it opened,
so the self times of all spans opened under the benchmark's root spans add
up to the root spans' wall time exactly.  Fine-grained kinds (one call per
vertex or edge) are aggregated only; coarse kinds are also kept as
individual spans and written out when the run ends.
"""
from __future__ import annotations

import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable

LAYERS = ("search", "digraph", "filtering", "structure", "product", "textio", "bench")


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list[Any]] = []  # open spans: [kind, start, child_s, span_id]
        self._patches: list[tuple[Any, str, Any]] = []
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent, kind, start, end
        self.calls: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.durations: defaultdict[str, list[float]] = defaultdict(list)
        self.counts: Counter[str] = Counter()

    # -- spans ---------------------------------------------------------------

    def _open(self, kind: str, keep: bool) -> list[Any]:
        span_id = -1
        if keep:
            span_id = len(self.spans)
            self.spans.append((span_id, self._parent_id(), kind, 0.0, 0.0))
        frame = [kind, time.perf_counter(), 0.0, span_id]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list[Any]) -> None:
        end = time.perf_counter()
        kind, start, child_s, span_id = frame
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.calls[kind] += 1
        self.total_s[kind] += duration
        self.self_s[kind] += duration - child_s
        if span_id >= 0:
            _, parent, _, _, _ = self.spans[span_id]
            self.spans[span_id] = (span_id, parent, kind, start, end)
            self.durations[kind].append(duration)

    def _parent_id(self) -> int:
        for frame in reversed(self._stack):
            if frame[3] >= 0:
                return frame[3]
        return -1

    @contextmanager
    def span(self, kind: str):
        """A kept span opened by the benchmark itself (its root spans)."""
        frame = self._open(kind, keep=True)
        try:
            yield
        finally:
            self._close(frame)

    # -- patching ------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        kind: str | Callable[[tuple], str],
        keep: bool = False,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a timing wrapper until :meth:`unpatch`.

        Calls made while no span is open (set-up and output checks) pass
        straight through and are not counted.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._stack:
                return original(*args, **kwargs)
            frame = tracer._open(kind(args) if callable(kind) else kind, keep)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(frame)
            if after is not None:
                after(args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregates ----------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for kind, seconds in self.self_s.items():
            out[kind.split(".", 1)[0]] += seconds
        return out


def traced_peak_mb(call: Callable[[], Any]) -> float:
    """Peak Python-heap growth (numpy buffers included) during one call, in MiB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 2**20


def instrument(tracer: Tracer, sey: Any) -> list[Any]:
    """Wrap every layer boundary the workloads cross; returns the first chunk task.

    The benchmark calls the public functions as attributes of the ``seymour``
    package, so those are wrapped there.  Calls made inside the package are
    wrapped in the module whose globals the caller reads.
    """
    search = sys.modules["seymour.search"]
    filtering = sys.modules["seymour.filtering"]
    digraph = sey.Digraph
    counts = tracer.counts
    first_task: list[Any] = []

    def chunk_done(args: tuple, result: Any) -> None:
        counts["search.examined"] += result.examined
        counts["search.candidates"] += result.counterexamples
        if not first_task:
            first_task.append(args[0])

    tracer.wrap(sey, "run_search", "search.driver", keep=True)
    tracer.wrap(search, "_search_chunk", "search.chunk", keep=True, after=chunk_done)
    tracer.wrap(search, "random_tournament", "search.draw")
    tracer.wrap(
        digraph,
        "__init__",
        "digraph.construct",
        after=lambda args, _: counts.update({"digraph.edges_in": len(args[0].edges)}),
    )
    tracer.wrap(digraph, "profile", "digraph.profile")
    tracer.wrap(digraph, "first_satisfactory_vertex", "digraph.query")
    tracer.wrap(digraph, "walkable_neighborhood", "digraph.query")
    tracer.wrap(digraph, "induced_subgraph", "digraph.derive")
    tracer.wrap(sey, "run_filter", "filtering.run", keep=True)
    tracer.wrap(
        filtering, "check_condition", lambda args: f"filtering.condition.{args[1]}", keep=True
    )
    for name in (
        "is_strongly_connected",
        "has_directed_cycle",
        "triangle_base_count",
        "diamond_base_targets",
    ):
        tracer.wrap(filtering, name, "structure")
    tracer.wrap(
        sey,
        "build_product",
        "product.build",
        keep=True,
        after=lambda _, result: counts.update({"product.edges_out": result[0].m}),
    )
    tracer.wrap(
        sey,
        "write_digraph",
        "textio.write",
        keep=True,
        after=lambda _, text: counts.update({"textio.bytes": len(text)}),
    )
    tracer.wrap(
        sey,
        "parse_digraph",
        "textio.parse",
        keep=True,
        after=lambda args, _: counts.update({"textio.bytes": len(args[0])}),
    )
    return first_task

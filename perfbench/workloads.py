"""The benchmark's workloads: seeded inputs, one timed unit, output checks.

Each workload is a closed loop in one process: the next call starts when
the previous one returns, and searches run with ``workers=1``.  A unit is
the thing ``wall_s`` times (one ``run_search`` call, or one pass over every
product of the stream); an item is the thing ``item_ms`` times (the whole
call for the search workloads, one product for product-filter).  Only the
calls into seymour sit inside the timed region; the checks run after it.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

DEFAULT_SEED = 1
EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

EXHAUSTIVE_N = 6
TOURNAMENT_N = 50
TOURNAMENT_COUNT = 1000
D_SIZES = range(13, 22, 2)
CYCLE_SIZES = (3, 4, 5)
SAMPLED_VERTICES = 8
CONDITIONS = 8

Measure = Callable[[Callable[[], Any]], tuple[float, Any]]


@dataclass
class Unit:
    item_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    graphs: int = 0

    @property
    def wall_s(self) -> float:
        return sum(self.item_s)


def digest(payload: Any) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def report_digest(report: Any) -> str:
    """Digest of a SearchReport without its timing field."""
    data = report.as_dict()
    data.pop("elapsed_ms")
    return digest(data)


def _run_item(unit: Unit, measure: Measure, call: Callable[[], Any], check) -> None:
    """Time one item, then check its output; a raise or a problem fails it."""
    unit.attempted += 1
    try:
        seconds, out = measure(call)
        problems = check(out)
    except Exception:  # any error in the program under test is a failed item
        traceback.print_exc()
        unit.failed += 1
        return
    if problems:
        print(f"check failed: {'; '.join(problems)}", file=sys.stderr)
        unit.failed += 1
        return
    unit.item_s.append(seconds)


def _check_search(report: Any, examined: int, expected_digest: str | None) -> list[str]:
    problems = []
    if report.graphs_examined != examined:
        problems.append(f"graphs_examined {report.graphs_examined} != {examined}")
    if report.counterexamples_found != 0:
        problems.append(f"counterexamples_found {report.counterexamples_found} != 0")
    if report.per_condition_rejections != [examined] + [0] * (CONDITIONS - 1):
        problems.append(f"per_condition_rejections {report.per_condition_rejections}")
    if report.filter_survivors:
        problems.append(f"{len(report.filter_survivors)} filter survivors")
    if expected_digest is not None and report_digest(report) != expected_digest:
        problems.append(f"report digest {report_digest(report)} != {expected_digest}")
    return problems


class ExhaustiveN6:
    """The whole n=6 space (3^15 graphs, 243 chunks of 3^10) in one call.

    Its report does not depend on the seed, so its digest is always checked.
    """

    name = "exhaustive-n6"
    # one call lasts 15-20 s, longer than the host's quiet and slow stretches
    # often do, so references before and after it say little about it: scaled
    # by them, ten runs spread 0.15 of their median against 0.09 unscaled
    reference = None
    kinds = ("search.driver", "search.chunk")

    def __init__(self, sey: Any, seed: int) -> None:
        self.sey = sey
        self.spec = sey.SearchSpec(mode="exhaustive", n=EXHAUSTIVE_N, workers=1)
        self.examined = sey.space_size(EXHAUSTIVE_N)
        sey.run_search(sey.SearchSpec(mode="exhaustive", n=EXHAUSTIVE_N - 1, workers=1))

    def unit(self, measure: Measure) -> Unit:
        unit = Unit()
        _run_item(
            unit,
            measure,
            lambda: self.sey.run_search(self.spec),
            lambda report: _check_search(report, self.examined, EXPECTED[self.name]),
        )
        unit.graphs = self.examined * (1 - unit.failed)
        return unit


class RandomTournament:
    """TOURNAMENT_COUNT seeded tournaments on TOURNAMENT_N vertices per call.

    Every tournament has a satisfactory vertex (Fisher 1996), so any seed
    must give zero counterexamples.
    """

    name = "random-tournament"
    reference = "python"
    kinds = ("search.driver", "search.chunk", "search.draw", "digraph.construct", "digraph.query")

    def __init__(self, sey: Any, seed: int) -> None:
        self.sey = sey
        self.spec = sey.SearchSpec(
            mode="random",
            model="tournament",
            n=TOURNAMENT_N,
            count=TOURNAMENT_COUNT,
            seed=seed,
            workers=1,
        )
        self.expected = EXPECTED[self.name] if seed == DEFAULT_SEED else None
        warm = sey.SearchSpec(
            mode="random", model="tournament", n=TOURNAMENT_N, count=64, seed=seed, workers=1
        )
        sey.run_search(warm)

    def unit(self, measure: Measure) -> Unit:
        unit = Unit()
        _run_item(
            unit,
            measure,
            lambda: self.sey.run_search(self.spec),
            lambda report: _check_search(report, TOURNAMENT_COUNT, self.expected),
        )
        unit.graphs = TOURNAMENT_COUNT * (1 - unit.failed)
        return unit


def _regular_tournament_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A rotational tournament on odd n with a seeded connection set and labelling.

    Every vertex has out-degree (n - 1) / 2, so each product vertex has the
    same degree, conditions 4 and 5 pass and scan every edge, and the cost
    of an item depends on its size rather than on where the first failing
    edge happens to fall (which made uniform random tournaments swing the
    pass time by a third from seed to seed).
    """
    steps = [s if rng.random() < 0.5 else n - s for s in range(1, (n - 1) // 2 + 1)]
    label = list(range(n))
    rng.shuffle(label)
    return [(label[i], label[(i + s) % n]) for i in range(n) for s in steps]


class ProductFilter:
    """One pass builds, writes, parses and fully filters D x C_k for every D size and k.

    D is a regular tournament drawn with the stdlib generator (not with
    seymour's random models, so a change to those cannot change these
    inputs).  Sizes are stratified, each (|D|, k) pair once per pass, so the
    mix of item sizes is the same for every seed; the seed picks the
    tournaments.
    """

    name = "product-filter"
    reference = "python"
    kinds = (
        "product.build",
        "textio.write",
        "textio.parse",
        "digraph.construct",
        "digraph.profile",
        "filtering.run",
        "structure",
    )

    def __init__(self, sey: Any, seed: int) -> None:
        self.sey = sey
        rng = random.Random(seed)
        self.pairs = [
            (
                sey.Digraph(n, _regular_tournament_edges(n, rng)),
                sey.Digraph(k, [(i, (i + 1) % k) for i in range(k)]),
            )
            for n in D_SIZES
            for k in CYCLE_SIZES
        ]
        self.sample_rng = rng
        self.first_reports: dict[int, str] = {}
        self.expected = EXPECTED[self.name] if seed == DEFAULT_SEED else None
        self._pipeline(*self.pairs[0])

    def _pipeline(self, d_graph: Any, h_graph: Any) -> tuple[Any, ...]:
        """`seymour product` followed by `seymour filter --no-short-circuit`."""
        sey = self.sey
        product, labeling = sey.build_product(d_graph, h_graph)
        text = sey.write_digraph(product)
        parsed = sey.parse_digraph(text)
        report = sey.run_filter(parsed, short_circuit=False)
        return product, labeling, parsed, report

    def _check(self, index: int, d_graph: Any, h_graph: Any, out: tuple[Any, ...]) -> list[str]:
        product, labeling, parsed, report = out
        problems = []
        if parsed != product:
            problems.append(f"item {index}: parse(write(P)) != P")
        for v in self.sample_rng.sample(range(product.n), SAMPLED_VERTICES):
            d, h = labeling.decode(v)
            got = product.profile(v)
            want = self.sey.predicted_profile(d_graph, h_graph, d, h)
            if (got.n1, got.n2) != (want.n1, want.n2):
                problems.append(f"item {index}: vertex {v} profile {got} != {want}")
        # a tournament has a satisfactory vertex, so the product has one too
        if report.survived or len(report.verdicts) != CONDITIONS or report.verdicts[0].ok:
            problems.append(f"item {index}: unexpected filter report {report.as_dict()}")
        report_hash = digest(report.as_dict())
        if self.first_reports.setdefault(index, report_hash) != report_hash:
            problems.append(f"item {index}: report differs from the first pass")
        if index == len(self.pairs) - 1 and self.expected is not None:
            stream = digest([self.first_reports.get(i) for i in range(len(self.pairs))])
            if stream != self.expected:
                problems.append(f"stream digest {stream} != {self.expected}")
        return problems

    def unit(self, measure: Measure) -> Unit:
        unit = Unit()
        for index, (d_graph, h_graph) in enumerate(self.pairs):
            _run_item(
                unit,
                measure,
                lambda: self._pipeline(d_graph, h_graph),
                lambda out: self._check(index, d_graph, h_graph, out),
            )
        unit.graphs = unit.attempted - unit.failed
        return unit


WORKLOADS = {w.name: w for w in (ExhaustiveN6, RandomTournament, ProductFilter)}

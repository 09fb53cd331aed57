import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from seymour import (
    Digraph,
    SearchSpec,
    enumerate_digon_free,
    graph_at_index,
    has_directed_cycle,
    has_transitive_triangle,
    random_acyclic,
    random_digon_free,
    random_tournament,
    random_triangle_free,
    run_search,
    space_size,
)
from seymour.errors import (
    CeilingExceeded,
    EmptyVertexSet,
    InvalidProbability,
    RetriesExhausted,
)
from seymour import search
from seymour.cli import main
from seymour.search import (
    _no_satisfactory_vertex,
    _row_tables,
    _rows_at,
    pair_count,
)
from strategies import loop_free_row_batches


def mask_at(n, start, stop):
    """True at offset i iff the graph at index start+i has no satisfactory vertex."""
    return _no_satisfactory_vertex(_rows_at(n, np.arange(start, stop, dtype=np.int64)))


def edges_of_rows(rows):
    n = len(rows)
    return [(u, v) for u in range(n) for v in range(n) if rows[u] >> v & 1]


def report_fingerprint(report):
    # everything except wall time and the echoed worker count (an input,
    # not a result; results must not depend on it)
    d = report.as_dict()
    d.pop("elapsed_ms")
    d["spec"].pop("workers")
    return d


class TestEnumeration:
    def test_space_sizes(self):
        assert [space_size(n) for n in (1, 2, 3, 4, 5)] == [1, 3, 27, 729, 59049]
        assert space_size(6) == 14_348_907

    def test_two_vertex_universe(self):
        graphs = list(enumerate_digon_free(2))
        assert graphs == [
            Digraph(2),
            Digraph(2, [(0, 1)]),
            Digraph(2, [(1, 0)]),
        ]

    def test_index_zero_is_empty(self):
        assert graph_at_index(4, 0) == Digraph(4)

    def test_stream_matches_state_vector_enumeration(self):
        # independent reimplementation via itertools.product, same order
        for n in (1, 2, 3):
            ours = [g.edges for g in enumerate_digon_free(n)]
            theirs = [
                tuple(sorted(edges)) for edges in oracles.all_digon_free_edge_lists(n)
            ]
            assert ours == theirs

    def test_stream_is_duplicate_free(self):
        for n in (2, 3, 4):
            seen = {g.edges for g in enumerate_digon_free(n)}
            assert len(seen) == space_size(n)

    def test_index_decoding_agrees_with_stream(self):
        for index, g in enumerate(enumerate_digon_free(3)):
            assert graph_at_index(3, index) == g

    def test_ceiling(self):
        with pytest.raises(CeilingExceeded):
            list(enumerate_digon_free(7))
        with pytest.raises(ValueError):
            graph_at_index(2, 3)
        with pytest.raises(EmptyVertexSet):
            graph_at_index(0, 0)


class TestVectorizedConditionZero:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_object_path_exhaustively(self, n):
        total = space_size(n)
        mask = mask_at(n, 0, total)
        for index in range(total):
            expected = graph_at_index(n, index).first_satisfactory_vertex() is None
            assert bool(mask[index]) == expected

    def test_matches_object_path_on_sampled_slice(self):
        start, stop = 31_000, 31_400
        mask = mask_at(5, start, stop)
        for offset in range(stop - start):
            g = graph_at_index(5, start + offset)
            assert bool(mask[offset]) == (g.first_satisfactory_vertex() is None)


class TestPackedRowKernel:
    def test_table_layout(self):
        # groups of five digits from the least significant end: 15 = 5+5+5
        # pairs at n=6, 6 = 1+5 at n=4
        assert [t.shape for t in _row_tables(6)] == [(243, 6)] * 3
        assert [t.shape for t in _row_tables(4)] == [(3, 4), (243, 4)]
        assert _rows_at(1, 0).tolist() == [0]

    # real digon-free graphs this small always have a satisfactory vertex,
    # so the positive branch is driven by batches that allow digons
    def test_symmetric_triangle_is_a_counterexample(self):
        rows = [0b110, 0b101, 0b011]
        assert oracles.profile_sizes(3, edges_of_rows(rows)) == [(2, 0)] * 3
        batch = np.array([rows], dtype=np.uint8)
        assert _no_satisfactory_vertex(batch).tolist() == [True]

    @settings(max_examples=300, deadline=None)
    @given(loop_free_row_batches(max_n=8))
    def test_verdict_matches_oracle_on_loop_free_batches(self, batch):
        verdict = _no_satisfactory_vertex(np.array(batch, dtype=np.uint8))
        expected = [
            not oracles.has_satisfactory_vertex(len(rows), edges_of_rows(rows))
            for rows in batch
        ]
        assert verdict.tolist() == expected

    def test_decode_and_mask_do_not_depend_on_the_split_point(self):
        total = space_size(5)
        whole_rows = _rows_at(5, np.arange(total, dtype=np.int64))
        whole_mask = mask_at(5, 0, total)
        for split in (1, 12_347, total - 1):
            head = np.arange(split, dtype=np.int64)
            tail = np.arange(split, total, dtype=np.int64)
            rows = np.concatenate([_rows_at(5, head), _rows_at(5, tail)])
            mask = np.concatenate([mask_at(5, 0, split), mask_at(5, split, total)])
            assert np.array_equal(rows, whole_rows)
            assert np.array_equal(mask, whole_mask)

    @pytest.mark.parametrize("start", [3**5 * 1000 + 7, 5_000_001, 3**15 - 301])
    def test_n6_slices_off_table_boundaries_match_object_path(self, start):
        stop = start + 300
        rows = _rows_at(6, np.arange(start, stop, dtype=np.int64)).tolist()
        mask = mask_at(6, start, stop)
        for offset, index in enumerate(range(start, stop)):
            edges = sorted(oracles.digon_free_edges_at(6, index))
            assert edges_of_rows(rows[offset]) == edges
            g = graph_at_index(6, index)
            assert list(g.edges) == edges
            assert bool(mask[offset]) == (g.first_satisfactory_vertex() is None)

    def test_width_limit_is_checked_before_any_work(self, monkeypatch, capsys):
        def forbidden(*args):
            raise AssertionError("work started past the width limit")

        monkeypatch.setattr(search, "_chunk_tasks", forbidden)
        monkeypatch.setattr(search, "_rows_at", forbidden)
        with pytest.raises(CeilingExceeded) as exc:
            run_search(SearchSpec(mode="exhaustive", n=9, ceiling=9))
        assert exc.value.ceiling == 8
        with pytest.raises(CeilingExceeded):
            graph_at_index(9, 0)
        with pytest.raises(CeilingExceeded):
            next(enumerate_digon_free(9, ceiling=9))
        argv = ["search", "--mode", "exhaustive", "--n", "9", "--ceiling", "9"]
        assert main(argv) == 1
        assert "ceiling 8" in capsys.readouterr().err
        SearchSpec(mode="exhaustive", n=8, ceiling=8).validate()


class TestRandomModels:
    def test_tournament_shape(self):
        g = random_tournament(5, seed=11)
        assert g.m == 10
        assert all(
            g.has_edge(u, v) or g.has_edge(v, u)
            for u in range(5)
            for v in range(u + 1, 5)
        )

    def test_single_vertex_tournament(self):
        assert random_tournament(1, seed=0) == Digraph(1)

    def test_tournament_reproducible(self):
        assert random_tournament(8, seed=42) == random_tournament(8, seed=42)
        assert random_tournament(8, seed=42) != random_tournament(8, seed=43)

    def test_digon_free_extremes(self):
        assert random_digon_free(6, 0.0, seed=1).m == 0
        assert random_digon_free(6, 1.0, seed=1).m == pair_count(6)

    def test_digon_free_reproducible(self):
        a = random_digon_free(7, 0.4, seed=99)
        b = random_digon_free(7, 0.4, seed=99)
        assert a == b

    def test_digon_free_rejects_bad_probability(self):
        with pytest.raises(InvalidProbability):
            random_digon_free(4, 1.5, seed=0)

    def test_acyclic_has_no_cycle_and_a_sink(self):
        for seed in range(20):
            g = random_acyclic(8, 0.6, seed=seed)
            assert not has_directed_cycle(g)
            assert any(g.out_degree(u) == 0 for u in range(g.n))

    def test_acyclic_saturated_is_transitive_triangle(self):
        g = random_acyclic(3, 1.0, seed=5)
        assert g.m == 3
        assert has_transitive_triangle(g)
        assert not has_directed_cycle(g)

    def test_triangle_free_has_no_triangle(self):
        for seed in range(20):
            g = random_triangle_free(8, 0.25, seed=seed)
            assert not has_transitive_triangle(g)

    def test_triangle_free_trivial_probability(self):
        assert random_triangle_free(5, 0.0, seed=3).m == 0

    def test_triangle_free_retry_exhaustion(self):
        # every 4-vertex tournament contains a transitive triangle
        with pytest.raises(RetriesExhausted) as exc:
            random_triangle_free(4, 1.0, seed=0, max_retries=3)
        assert exc.value.attempts == 3


class TestRunSearch:
    def test_exhaustive_four_vertices(self):
        report = run_search(SearchSpec(mode="exhaustive", n=4))
        assert report.graphs_examined == 729
        assert report.counterexamples_found == 0
        assert report.filter_survivors == []
        assert report.per_condition_rejections[0] == 729

    def test_histogram_conservation(self):
        report = run_search(SearchSpec(mode="exhaustive", n=3))
        assert report.graphs_examined == sum(report.per_condition_rejections) + len(
            report.filter_survivors
        )

    def test_worker_count_does_not_change_report(self):
        solo = run_search(SearchSpec(mode="exhaustive", n=4, workers=1))
        duo = run_search(SearchSpec(mode="exhaustive", n=4, workers=2))
        assert report_fingerprint(solo) == report_fingerprint(duo)

    def test_random_mode_deterministic(self):
        spec = SearchSpec(
            mode="random", n=12, model="digon_free", p=0.3, count=50, seed=7
        )
        assert report_fingerprint(run_search(spec)) == report_fingerprint(
            run_search(spec)
        )

    def test_random_mode_worker_invariance(self):
        base = dict(mode="random", n=10, model="tournament", count=300, seed=5)
        solo = run_search(SearchSpec(**base, workers=1))
        duo = run_search(SearchSpec(**base, workers=2))
        assert report_fingerprint(solo) == report_fingerprint(duo)

    def test_sample_results_independent_of_count_partition(self):
        # per-sample seeding means a longer run extends a shorter one
        short = run_search(
            SearchSpec(mode="random", n=6, model="digon_free", p=0.5, count=64, seed=3)
        )
        long = run_search(
            SearchSpec(mode="random", n=6, model="digon_free", p=0.5, count=200, seed=3)
        )
        assert short.graphs_examined == 64
        assert long.graphs_examined == 200
        assert short.counterexamples_found == long.counterexamples_found == 0

    def test_filter_disabled_still_counts(self):
        report = run_search(SearchSpec(mode="exhaustive", n=3, filter_enabled=False))
        assert report.graphs_examined == 27
        assert report.counterexamples_found == 0
        assert report.per_condition_rejections[0] == 27

    def test_spec_validation(self):
        with pytest.raises(CeilingExceeded):
            run_search(SearchSpec(mode="exhaustive", n=7))
        with pytest.raises(ValueError):
            run_search(SearchSpec(mode="random", n=4, model="nope", count=1))
        with pytest.raises(ValueError):
            run_search(SearchSpec(mode="random", n=4, model="tournament"))
        with pytest.raises(ValueError):
            run_search(SearchSpec(mode="random", n=4, model="digon_free", count=5))
        with pytest.raises(InvalidProbability):
            run_search(
                SearchSpec(mode="random", n=4, model="digon_free", p=2.0, count=5)
            )
        with pytest.raises(ValueError):
            run_search(SearchSpec(mode="silly", n=4))

    def test_pool_is_no_larger_than_the_task_list(self, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return [fn(task) for task in tasks]

        monkeypatch.setattr(search.multiprocessing, "Pool", RecordingPool)
        spec = SearchSpec(mode="random", n=5, model="tournament", count=300, workers=64)
        assert run_search(spec).graphs_examined == 300
        assert sizes == [3]  # 300 samples in chunks of 128

    def test_raised_ceiling_allows_larger_exhaustive(self):
        # a thin slice by monkeypatching is overkill; n=5 under a raised
        # ceiling exercises the parameter end to end
        report = run_search(SearchSpec(mode="exhaustive", n=5, ceiling=5))
        assert report.graphs_examined == 59049
        assert report.counterexamples_found == 0


class TestSurvivorRecords:
    # no real graph survives at desk scale, so exercise the record
    # plumbing directly on a graph the engine would never hand it
    def test_record_without_filter_serializes_verbatim(self):
        from seymour.search import _ChunkResult, _record_counterexample
        from seymour.textio import parse_digraph, write_digraph

        g = Digraph(3, [(0, 1), (1, 2), (2, 0)])
        result = _ChunkResult(examined=1)
        _record_counterexample(g, 17, False, result)
        assert result.counterexamples == 1
        [record] = result.survivors
        assert record.index == 17
        assert record.graph_text == write_digraph(g)
        assert parse_digraph(record.graph_text) == g
        assert record.report.survived and record.report.evaluation_order == [0]

    def test_record_with_filter_books_first_failure(self):
        from seymour.search import _ChunkResult, _record_counterexample

        g = Digraph(3, [(0, 1), (1, 2), (2, 0)])
        result = _ChunkResult(examined=1)
        _record_counterexample(g, 0, True, result)
        assert result.survivors == []
        assert result.rejections[0] == 1  # C3 fails the prerequisite check


def test_every_generated_graph_is_digon_free():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        seed = int(rng.integers(0, 2**32))
        for g in (
            random_tournament(n, seed),
            random_digon_free(n, 0.5, seed),
            random_acyclic(n, 0.5, seed),
        ):
            edge_set = set(g.edges)
            assert all(u != v for u, v in edge_set)
            assert all((v, u) not in edge_set for u, v in edge_set)

import hashlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from seymour import (
    Digraph,
    SearchSpec,
    enumerate_digon_free,
    graph_at_index,
    has_directed_cycle,
    random_acyclic,
    random_digon_free,
    random_tournament,
    random_triangle_free,
    run_search,
    space_size,
    write_digraph,
)
from seymour.errors import (
    CeilingExceeded,
    EmptyVertexSet,
    InvalidProbability,
    RetriesExhausted,
    TooManySamples,
    TooManyVertices,
    TooManyWorkers,
)
from seymour import __version__, search
from seymour.cli import main
from seymour.digraph import _packed_rows, _unpacked
from seymour.search import (
    _EXHAUSTIVE_CHUNK,
    _TASK_PREFIXES,
    _chunk_candidates,
    _kept_columns,
    _kept_suffix,
    _no_satisfactory_vertex,
    _popcount,
    _row_counts,
    _row_tables,
    _rows_at,
    _suffix_rows,
    MAX_RANDOM_COUNT,
    MAX_RANDOM_VERTICES,
    MAX_WORKERS,
    pair_count,
)
from strategies import digon_free_adjacency, loop_free_adjacency_batches, loop_free_row_batches


def mask_at(n, start, stop):
    """True at offset i iff the graph at index start+i has no satisfactory vertex."""
    return _no_satisfactory_vertex(_rows_at(n, np.arange(start, stop, dtype=np.int64)))


def edges_of_rows(rows):
    n = len(rows)
    return [(u, v) for u in range(n) for v in range(n) if rows[u] >> v & 1]


def edges_of_matrix(adj):
    return list(zip(*(index.tolist() for index in np.nonzero(adj))))


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

    @pytest.mark.parametrize(
        "n, ceiling, error",
        [
            (7, 6, CeilingExceeded(7, 6)),
            (9, 9, CeilingExceeded(9, 8)),
            (0, 6, EmptyVertexSet()),
        ],
    )
    def test_stream_validates_like_an_exhaustive_spec(self, n, ceiling, error):
        with pytest.raises(type(error)) as exc:
            next(enumerate_digon_free(n, ceiling))
        assert str(exc.value) == str(error)

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

    def test_row_dtype_and_word_count_follow_n(self):
        def layout(n):  # (bytes per word, words per row)
            rows = _packed_rows(np.zeros((n, n), dtype=bool))
            return rows.dtype.itemsize, rows.shape[1]

        assert {n: layout(n) for n in (1, 8, 9, 16, 17, 32, 33, 64, 65, 128, 129)} == {
            1: (1, 1), 8: (1, 1), 9: (2, 1), 16: (2, 1), 17: (4, 1), 32: (4, 1),
            33: (8, 1), 64: (8, 1), 65: (8, 2), 128: (8, 2), 129: (8, 3),
        }

    @settings(max_examples=100, deadline=None)  # about half the batches pass 64 vertices
    @given(loop_free_adjacency_batches())
    def test_verdict_matches_oracle_on_multi_word_batches(self, batch):
        rows = np.stack([_packed_rows(adj) for adj in batch])
        assert np.array_equal(_packed_rows(np.stack(batch)), rows)  # a stack packs as its parts
        expected = [
            not oracles.has_satisfactory_vertex(len(adj), edges_of_matrix(adj)) for adj in batch
        ]
        assert _no_satisfactory_vertex(rows).tolist() == expected

    # random digon-free draws always have a satisfactory vertex, so without
    # planted positives past one word a verdict that always answers "none"
    # would pass every sweep
    @pytest.mark.parametrize("n", [65, 70, 128, 129, 130])
    def test_complete_symmetric_graphs_past_one_word_are_counterexamples(self, n):
        full = ~np.eye(n, dtype=bool)  # every other vertex at distance 1, none at 2
        sink = full.copy()
        sink[n - 1] = False  # n - 1 becomes a sink, which is satisfactory
        via_last = full.copy()
        via_last[0] = False
        via_last[0, n - 1] = True  # N1(0) = {n - 1}: N2(0) is in the last word
        rows = np.stack([_packed_rows(adj) for adj in (full, sink, via_last)])
        assert _no_satisfactory_vertex(rows).tolist() == [True, False, False]

    @pytest.mark.parametrize("shape, dtype", [((0, 5), np.uint8), ((0, 70, 2), np.uint64)])
    def test_an_empty_batch_has_an_empty_verdict(self, shape, dtype):
        verdict = _no_satisfactory_vertex(np.zeros(shape, dtype=dtype))
        assert (verdict.dtype, verdict.shape) == (np.dtype(bool), (0,))

    # past one byte a row the verdict first screens each graph's least-out-degree
    # vertex; these graphs all have that vertex unsatisfactory, so only the pass
    # over every vertex can tell the two answers apart
    @pytest.mark.parametrize("n", [9, 16, 17, 63, 64, 65, 130])
    def test_graphs_the_screen_leaves_open_get_the_oracle_verdict(self, n):
        rng, batch = np.random.default_rng(n), []
        for a, _ in itertools.product((2, max(2, (n - 1) // 3)), range(3)):
            # digon cliques on A (a shuffled vertices: out-degree a - 1, N2 empty)
            # and on the rest R, whose last vertex w may reach only s vertices of
            # R: every vertex but w is unsatisfactory, and w is iff s <= |R| - 1 - s
            shuffled = rng.permutation(n)
            A, R = shuffled[:a], shuffled[a:]
            for s in (None, a - 1, a):  # none satisfactory; w ties with A; w above it
                adj = np.zeros((n, n), dtype=bool)
                adj[np.ix_(A, A)] = adj[np.ix_(R, R)] = True
                np.fill_diagonal(adj, False)
                if s is not None:
                    adj[R[-1]] = False
                    adj[R[-1], R[:s]] = True
                batch.append(adj)
        kept, expected, ties = [], [], 0
        for adj in batch:
            edges = edges_of_matrix(adj)
            least = oracles.min_out_degree_vertex(n, edges)
            n1, n2 = oracles.profile_sizes(n, edges)[least]
            if n1 > n2:  # a tie that put w first leaves the screen nothing to miss
                kept.append(adj)
                expected.append(not oracles.has_satisfactory_vertex(n, edges))
                ties += (adj.sum(axis=1) == n1).sum() > 1
        assert True in expected and False in expected and ties == len(kept)
        rows = np.stack([_packed_rows(adj) for adj in kept])
        assert _no_satisfactory_vertex(rows).tolist() == expected

    def test_random_tournaments_are_settled_by_the_screen(self, monkeypatch):
        passed = []
        real = search._every_vertex_unsatisfactory
        monkeypatch.setattr(
            search, "_every_vertex_unsatisfactory", lambda rows: passed.append(rows) or real(rows)
        )
        report = run_search(SearchSpec(mode="random", model="tournament", n=50, count=300, seed=1))
        assert (report.graphs_examined, report.counterexamples_found, passed) == (300, 0, [])

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
        monkeypatch.setattr(search, "_suffix_rows", forbidden)
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


def suffix_size(n):
    return 3 ** min(10, pair_count(n))


def suffix_rows(n):
    """Rows of every graph on the last min(n, 5) vertices, in index order."""
    return _rows_at(n, np.arange(suffix_size(n), dtype=np.int64))


def general_verdict(n, prefix):
    """The general verdict on prefix | S for every suffix graph S, in index order."""
    return _no_satisfactory_vertex(suffix_rows(n) | prefix)


def chunk_mask(n, prefix):
    """_chunk_candidates(n, prefix) as a mask over the chunk's offsets; the
    rows it returns must be those of prefix | S for the suffix graphs S found."""
    offsets, rows = _chunk_candidates(n, prefix)
    assert np.array_equal(rows, suffix_rows(n)[offsets] | prefix)
    mask = np.zeros(suffix_size(n), dtype=bool)
    mask[offsets] = True
    return mask


def joined_prefix(n):
    """Rows in which the first n - 5 vertices F form a complete symmetric graph
    and every vertex of F and every vertex of the last five point at each other."""
    f = n - 5
    rows = np.zeros(n, dtype=np.uint8)
    rows[:f] = (1 << n) - 1
    rows[:f] &= ~(np.uint8(1) << np.arange(f, dtype=np.uint8))  # no loops
    rows[f:] = (1 << f) - 1
    return rows


class TestPrefixFactoredKernel:
    """_chunk_candidates, through chunk_mask, against the general verdict on
    every row of the chunk."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_agrees_with_general_verdict_on_every_chunk(self, n):
        assert space_size(n) % suffix_size(n) == 0
        for start in range(0, space_size(n), suffix_size(n)):
            prefix = _rows_at(n, start)
            rows = _rows_at(n, np.arange(start, start + suffix_size(n), dtype=np.int64))
            assert np.array_equal(suffix_rows(n) | prefix, rows), start  # the chunk factors
            assert np.array_equal(chunk_mask(n, prefix), _no_satisfactory_vertex(rows)), start

    @pytest.mark.parametrize("n, chunks", [(7, 12), (8, 6)])
    def test_agrees_with_general_verdict_on_sampled_chunks(self, n, chunks):
        rng = np.random.default_rng(n)
        for k in rng.integers(0, space_size(n) // suffix_size(n), chunks).tolist():
            start = k * suffix_size(n)
            expected = mask_at(n, start, start + suffix_size(n))
            assert np.array_equal(chunk_mask(n, _rows_at(n, start)), expected), start

    # with F joined both ways to everything, F's vertices have N2 empty and a
    # suffix vertex u has N1 = S[u] + F and N2 = the suffix minus S[u] and u:
    # u is satisfactory iff 2|S[u]| <= 4 - |F|.  At n = 6 and 7 the graphs left
    # without one are the 24 regular 5-tournaments.
    @pytest.mark.parametrize("n, planted", [(6, 24), (7, 24), (8, 16_168)])
    def test_joined_digon_prefix_plants_counterexamples(self, n, planted):
        prefix = joined_prefix(n)
        verdict = chunk_mask(n, prefix)
        assert np.array_equal(verdict, general_verdict(n, prefix))
        out_degrees = np.unpackbits(suffix_rows(n)[:, n - 5 :, None], axis=2).sum(axis=2)
        assert np.array_equal(verdict, (2 * out_degrees > 4 - (n - 5)).all(axis=1))
        assert verdict.sum() == planted

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_random_digon_prefixes_match_the_general_verdict(self, n):
        rng = np.random.default_rng(100 + n)
        f, both = n - 5, 0
        for _ in range(12):
            adj = rng.random((n, n)) < rng.uniform(0.3, 1.0)
            adj[f:, f:] = False  # the suffix vertices' prefix rows point only into F
            np.fill_diagonal(adj, False)
            prefix = _packed_rows(adj)[:, 0]
            verdict = chunk_mask(n, prefix)
            assert np.array_equal(verdict, general_verdict(n, prefix))
            both += verdict.any() and not verdict.all()
        assert both  # some prefix gives both answers

    def test_prefix_vertex_reached_through_the_suffix(self):
        # 0 <-> 1 and 2 -> 0 at n=6: a suffix vertex that points to 1 or 2
        # but not to 0 has 0 in N2; without that, 1,344 graphs would be reported
        prefix = np.array([0b10, 0b1, 0b1, 0, 0, 0], dtype=np.uint8)
        verdict = chunk_mask(6, prefix)
        assert np.array_equal(verdict, general_verdict(6, prefix))
        assert verdict.sum() == 45

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_a_stack_finds_what_its_prefixes_find_one_by_one(self, n):
        # planted positives at several places of one stack, between real
        # prefixes: prefix b's candidates come back at offsets b * 3^10 + s
        rng = np.random.default_rng(600 + n)
        real = _rows_at(n, rng.integers(0, space_size(n) // suffix_size(n), 3) * suffix_size(n))
        planted = [joined_prefix(n), digon_prefix(rng, n), joined_prefix(n)]
        prefixes = np.stack([real[0], planted[0], real[1], planted[1], planted[2], real[2]])
        offsets, rows = _chunk_candidates(n, prefixes)
        alone = [_chunk_candidates(n, prefix) for prefix in prefixes]
        shifted = [b * suffix_size(n) + found for b, (found, _) in enumerate(alone)]
        assert np.array_equal(offsets, np.concatenate(shifted))
        assert np.array_equal(rows, np.concatenate([found for _, found in alone]))
        assert len(alone[1][0]) == len(alone[4][0]) > 0  # the joined prefixes plant some


def test_verdict_blocks_do_not_change_its_answer(monkeypatch):
    rows = suffix_rows(8) | joined_prefix(8)  # 59,049 graphs, past one block of 2^15
    whole = _no_satisfactory_vertex(rows)
    assert whole.sum() == 16_168
    for block in (1_000, len(rows)):
        monkeypatch.setattr(search, "_VERDICT_ROWS", block)
        assert np.array_equal(_no_satisfactory_vertex(rows), whole), block


def test_verdict_blocks_do_not_change_a_chunks_candidates(monkeypatch):
    # the chunk's one per-vertex batch, split into column blocks: 59,049 kept
    # columns for the joined prefix, and three prefixes' worth in one stack, so
    # 1,000-column blocks also cross from one prefix's columns into the next
    prefix = joined_prefix(8)
    stack = np.stack([prefix, digon_prefix(np.random.default_rng(8), 8), prefix])
    whole, stacked = _chunk_candidates(8, prefix), _chunk_candidates(8, stack)
    assert len(whole[0]) == 16_168
    for block in (1_000, len(suffix_rows(8))):
        monkeypatch.setattr(search, "_VERDICT_ROWS", block)
        assert np.array_equal(np.flatnonzero(chunk_mask(8, prefix)), whole[0]), block
        again = _chunk_candidates(8, prefix) + _chunk_candidates(8, stack)
        for expected, got in zip(whole + stacked, again):
            assert np.array_equal(got, expected), block


def digon_prefix(rng, n):
    """Random prefix rows with a digon 0 <-> v: the suffix vertices' prefix
    rows point only into F, the others anywhere."""
    adj = rng.random((n, n)) < rng.uniform(0.3, 1.0)
    adj[n - 5 :, n - 5 :] = False
    np.fill_diagonal(adj, False)
    v = rng.integers(1, n)
    adj[0, v] = adj[v, 0] = True
    return _packed_rows(adj)[:, 0]


def matrices(prefixes):
    """The (B, n, n) bool stack of a (B, n) stack of prefix rows."""
    return np.stack([_unpacked(prefix) for prefix in prefixes])


def kept_columns(n, prefix):
    """The indices of the suffix graphs the kernel keeps under prefix rows."""
    kept = _kept_columns(n, matrices([prefix]))
    return kept[0][0] if kept else np.zeros(0, dtype=np.intp)


BYTE_BITS = np.array([value.bit_count() for value in range(256)])


def per_prefix_kept(n, prefix):
    """The gate's oracle for one prefix: every suffix offset if its rows hold a
    digon, else those at which every vertex of prefix | S has out-degree >= 2,
    counted by Python's int.bit_count."""
    edges = set(edges_of_rows(prefix.tolist()))
    if any((v, u) in edges for u, v in edges):
        return np.arange(suffix_size(n))
    return np.flatnonzero(BYTE_BITS[suffix_rows(n) | prefix].min(axis=1) >= 2)


def min_degree_offsets(n, start):
    """Offsets in the chunk at start of the graphs whose every vertex has
    out-degree >= 2, counted by numpy's bit unpacking of the decoded rows."""
    rows = _rows_at(n, np.arange(start, start + suffix_size(n), dtype=np.int64))
    degrees = np.unpackbits(rows[:, :, None], axis=2).sum(axis=2)
    return np.flatnonzero(degrees.min(axis=1) >= 2)


class TestDegreeLemma:
    """The kernel leaves out every graph with a vertex of out-degree <= 1 when
    the prefix is digon-free.  No digon-free graph this small lacks a
    satisfactory vertex, so a kernel that left out too much would pass every
    verdict test above: these tests pin the columns it keeps."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_kept_columns_match_the_oracle_on_whole_small_spaces(self, n):
        expected = [
            index
            for index, edges in enumerate(oracles.all_digon_free_edge_lists(n))
            if oracles.min_out_degree(n, edges) >= 2
        ]
        assert kept_columns(n, _rows_at(n, 0)).tolist() == expected

    def test_kept_columns_match_brute_force_on_every_n6_chunk(self):
        pruned = 0
        for start in range(0, space_size(6), suffix_size(6)):
            keep = kept_columns(6, _rows_at(6, start))
            assert np.array_equal(keep, min_degree_offsets(6, start)), start
            pruned += not len(keep)
        assert 0 < pruned < space_size(6) // suffix_size(6)

    @pytest.mark.parametrize("n, chunks", [(7, 12), (8, 8)])
    def test_kept_columns_match_brute_force_on_seeded_chunks(self, n, chunks):
        rng = np.random.default_rng(200 + n)
        sizes = []
        for k in rng.integers(0, space_size(n) // suffix_size(n), chunks).tolist():
            start = k * suffix_size(n)
            keep = kept_columns(n, _rows_at(n, start))
            assert np.array_equal(keep, min_degree_offsets(n, start)), start
            kept = set(keep.tolist())
            for offset in rng.integers(0, suffix_size(n), 100).tolist():
                edges = oracles.digon_free_edges_at(n, start + offset)
                assert (offset in kept) == (oracles.min_out_degree(n, edges) >= 2), start + offset
            sizes.append(len(keep))
        assert min(sizes) == 0 < max(sizes)  # some chunks are decided whole, some are not

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_a_digon_prefix_keeps_every_column(self, n):
        rng = np.random.default_rng(300 + n)
        for prefix in [joined_prefix(n)] + [digon_prefix(rng, n) for _ in range(6)]:
            assert np.array_equal(kept_columns(n, prefix), np.arange(suffix_size(n)))

    def test_verdict_is_false_outside_the_kept_columns(self, monkeypatch):
        prefix = joined_prefix(6)  # 24 planted counterexamples
        planted = np.flatnonzero(chunk_mask(6, prefix))
        assert len(planted) == 24
        dropped = planted[::2]
        keep = np.setdiff1d(np.arange(suffix_size(6)), dropped)
        columns = (keep, suffix_rows(6)[keep].T)  # (n, K): one row per vertex, as cached
        monkeypatch.setattr(search, "_kept_columns", lambda n, adj: {0: columns})
        assert np.flatnonzero(chunk_mask(6, prefix)).tolist() == planted[1::2].tolist()

    def test_the_degree_count_oracle(self):
        # the pair DP against brute force where that is cheap, then the
        # counts no brute force here reaches: no 6-vertex graph has 18 edges
        # on 15 pairs, and the 7-vertex ones are the 2,640 labelled regular
        # tournaments (OEIS A007079)
        for n, k in itertools.product(range(1, 5), range(4)):
            edge_lists = oracles.all_digon_free_edge_lists(n)
            expected = sum(oracles.min_out_degree(n, edges) >= k for edges in edge_lists)
            assert oracles.count_min_out_degree(n, k) == expected, (n, k)
        assert oracles.count_min_out_degree(5, 2) == 24
        assert oracles.count_min_out_degree(6, 3) == 0
        assert oracles.count_min_out_degree(7, 3) == 2_640

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_the_verdict_sees_each_graph_of_least_out_degree_two_once(self, n, monkeypatch):
        # the columns the chunks hand the verdict over a whole space are its
        # graphs of least out-degree >= 2, as many as the pair DP counts (24
        # at n = 5, 69,294 at n = 6), all distinct: an assembly that dropped
        # or repeated columns would pass every sweep, since none finds any
        batches, real = [], search._every_vertex_unsatisfactory
        monkeypatch.setattr(
            search, "_every_vertex_unsatisfactory", lambda cols: batches.append(cols) or real(cols)
        )
        assert run_search(SearchSpec(mode="exhaustive", n=n)).counterexamples_found == 0
        assert {(len(cols), cols.shape[2]) for cols in batches} == {(n, 1)}
        graphs = np.concatenate([cols[:, :, 0].T for cols in batches])
        assert len(graphs) == oracles.count_min_out_degree(n, 2)
        assert len(np.unique(graphs, axis=0)) == len(graphs)
        adj = np.unpackbits(graphs[:, :, None], axis=2, count=n, bitorder="little")
        assert not (adj & adj.transpose(0, 2, 1)).any()
        assert (adj.sum(axis=2) >= 2).all()

    @pytest.mark.parametrize("n, tasks", [(6, None), (7, 3), (8, 2)])
    def test_a_stack_of_prefixes_is_gated_as_each_one_alone(self, n, tasks):
        # all 243 n=6 prefixes in one stack, or seeded whole tasks, each with
        # a digon prefix slipped in at a seeded place: digon, dead and live
        # prefixes share one call, and each must be gated as on its own
        rng = np.random.default_rng(500 + n)
        if tasks is None:
            runs = [np.arange(space_size(n) // suffix_size(n))]
        else:
            first = rng.integers(0, space_size(n) // suffix_size(n) // _TASK_PREFIXES, tasks)
            runs = [k * _TASK_PREFIXES + np.arange(_TASK_PREFIXES) for k in first.tolist()]
        live = dead = 0
        for run in runs:
            prefixes = _rows_at(n, run * suffix_size(n))
            at = int(rng.integers(0, len(prefixes) + 1))
            prefixes = np.insert(prefixes, at, digon_prefix(rng, n), axis=0)
            kept = _kept_columns(n, matrices(prefixes))
            for b, prefix in enumerate(prefixes):
                expected = per_prefix_kept(n, prefix)
                assert (b in kept) == bool(len(expected)), b  # only live prefixes look up
                assert np.array_equal(kept[b][0] if b in kept else [], expected), b
            assert len(kept[at][0]) == suffix_size(n)
            live, dead = live + len(kept) - 1, dead + len(prefixes) - len(kept)
        assert live and dead


NEEDS = list(itertools.product(range(3), repeat=5))


@pytest.fixture
def fresh_need_cache():
    """An empty _kept_suffix cache, emptied again after the test: all 243
    needs at n = 8 hold about 41 MiB."""
    _kept_suffix.cache_clear()
    yield
    _kept_suffix.cache_clear()


@pytest.mark.usefixtures("fresh_need_cache")
class TestNeedCache:
    """_kept_suffix holds the kept offsets and their (n, K) columns once per n
    and need, the least out-degree in S of each suffix vertex; _kept_columns
    maps a prefix to it."""

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_every_need_equals_the_uncached_selection_and_gather(self, n):
        rows = suffix_rows(n)
        degrees = np.unpackbits(rows[:, n - 5 :, None], axis=2).sum(axis=2)
        for need in NEEDS:
            keep = np.flatnonzero((degrees >= need).all(axis=1))
            cached = _kept_suffix(n, need)
            assert _kept_suffix(n, need) is cached
            assert len(cached) == 2 and np.array_equal(cached[0], keep), need
            assert cached[1].flags.c_contiguous and np.array_equal(cached[1].T, rows[keep]), need
        assert len(_kept_suffix(n, (0,) * 5)[0]) == suffix_size(n)
        assert _kept_suffix.cache_info().currsize == len(NEEDS)

    def test_the_cache_keeps_n_apart(self):
        for need in [(0,) * 5, (2, 1, 0, 2, 1), (2,) * 5]:
            first = [_kept_suffix(n, need) for n in (6, 7, 8)]
            for n, cached in zip((6, 7, 8), first):
                assert cached is _kept_suffix(n, need)
                assert cached[1].shape == (n, len(cached[0]))
                assert np.array_equal(cached[1].T, suffix_rows(n)[cached[0]])

    def test_cached_arrays_are_read_only(self):
        for n, need in [(1, (2,)), (4, (0, 1, 2, 0)), (6, (1, 2, 1, 2, 2)), (8, (0,) * 5)]:
            prefixes = [_rows_at(n, 0)] + ([joined_prefix(n)] if n >= 6 else [])
            columns = [_kept_suffix(n, need), *_kept_columns(n, matrices(prefixes)).values()]
            assert len(columns) == 2  # prefix 0 is dead at n = 6 and 8, the joined one live
            for array in itertools.chain(*columns):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[...] = 0

    @pytest.mark.parametrize("n, chunks", [(6, None), (7, 100), (8, 300)])
    def test_kept_columns_look_up_the_need_of_the_prefix(self, n, chunks):
        # out-degrees counted on the oracle's edge list of the chunk's first
        # graph, which is its prefix; only at n = 8 can a suffix vertex have
        # three out-neighbours in F, where max(0, 2 - d) differs from 2 - d
        f, counts = n - 5, {"pruned": 0, "looked up": 0, "clamped": 0}
        if chunks is None:
            starts = range(0, space_size(n), suffix_size(n))
        else:
            rng = np.random.default_rng(400 + n)
            starts = rng.integers(0, space_size(n) // suffix_size(n), chunks) * suffix_size(n)
        starts = [int(start) for start in starts]
        kept = _kept_columns(n, matrices(_rows_at(n, np.array(starts))))  # one stack
        for b, start in enumerate(starts):
            degrees = [0] * n
            for u, _ in oracles.digon_free_edges_at(n, start):
                degrees[u] += 1
            if min(degrees[:f]) <= 1:
                assert b not in kept, start
                counts["pruned"] += 1
            else:
                need = tuple(max(0, 2 - d) for d in degrees[f:])
                assert kept[b] is _kept_suffix(n, need), start
                counts["looked up"] += 1
                counts["clamped"] += max(degrees[f:]) > 2
        assert counts["pruned"] and counts["looked up"]
        assert bool(counts["clamped"]) == (n == 8)
        prefixes = [joined_prefix(n), digon_prefix(np.random.default_rng(n), n)]
        kept = _kept_columns(n, matrices(prefixes))
        assert [cached is _kept_suffix(n, (0,) * 5) for cached in kept.values()] == [True] * 2


@pytest.mark.usefixtures("fresh_need_cache")
def test_a_live_n8_task_holds_one_per_vertex_batch():
    # the 39th of the 40 tasks np.random.default_rng(8) draws: 27 live prefixes
    # and 468,595 kept columns, 3.6 MiB as one (8, N, 1) uint8 batch.  Stacking
    # them as (N, 8) rows, copying those into columns and shifting N int64
    # offsets peaked at 10.7 MiB
    step = _TASK_PREFIXES * _EXHAUSTIVE_CHUNK
    k = np.random.default_rng(8).integers(0, space_size(8) // step, 40).tolist()[38]
    task = (SearchSpec(mode="exhaustive", n=8, ceiling=8), k * step, (k + 1) * step)
    search._search_chunk(task)  # fills the need cache, which stays
    tracemalloc.start()
    try:
        result = search._search_chunk(task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.examined, result.counterexamples) == (step, 0)
    assert peak < 7 * 2**20


def test_a_chunk_without_candidates_decodes_only_its_prefix(monkeypatch):
    n, spec, step = 6, SearchSpec(mode="exhaustive", n=6), _TASK_PREFIXES * _EXHAUSTIVE_CHUNK
    kept = [len(kept_columns(n, _rows_at(n, k * _EXHAUSTIVE_CHUNK))) for k in range(243)]
    starts = [k // _TASK_PREFIXES * step for k in (kept.index(0), kept.index(max(kept)))]
    assert starts[0] != starts[1]
    decoded = []
    real = search._rows_at

    def rows_at(n, index):
        decoded.append(np.shape(index))
        return real(n, index)

    monkeypatch.setattr(search, "_rows_at", rows_at)
    for start in starts:  # a task with a prefix decided whole, the one with the most kept columns
        result = search._search_chunk((spec, start, start + step))
        assert (result.examined, result.counterexamples) == (step, 0)
    assert decoded == [(_TASK_PREFIXES,)] * 2  # each task's prefixes, in one call
    plant_chunk_candidate(monkeypatch, starts[1] + 5)
    result = search._search_chunk((spec, starts[1], starts[1] + step))
    assert result.counterexamples == 1
    assert decoded == [(_TASK_PREFIXES,)] * 3  # the candidate's rows come with it


@settings(max_examples=200, deadline=None)
@given(digon_free_adjacency(), st.data())
def test_a_vertex_of_out_degree_at_most_one_leaves_a_satisfactory_vertex(adj, data):
    # the lemma the kernel prunes by: cut one vertex down to at most one of
    # its out-neighbours, which keeps the graph digon-free
    adj, n = np.array(adj), len(adj)
    u = data.draw(st.integers(0, n - 1))
    kept = data.draw(st.sampled_from([[]] + [[v] for v in np.flatnonzero(adj[u]).tolist()]))
    adj[u] = False
    adj[u, kept] = True
    assert not _no_satisfactory_vertex(_packed_rows(adj)[None])[0]
    if n <= 20:
        assert oracles.has_satisfactory_vertex(n, edges_of_matrix(adj))


def word_value(row):
    """The packed row as one int: word k holds bits k * width ... (k + 1) * width - 1."""
    width = 8 * row.itemsize
    return sum(int(word) << (width * k) for k, word in enumerate(row.tolist()))


class TestPopcount:
    """_popcount, the one bit count of both verdicts, against Python's."""

    def test_every_byte_value(self):
        values = np.arange(256, dtype=np.uint8)
        assert _popcount(values).tolist() == [b.bit_count() for b in range(256)]
        assert values.tolist() == list(range(256))  # only read

    # uint8, uint16, uint32 and uint64 rows, then two and three words (as
    # test_row_dtype_and_word_count_follow_n pins); the matrices keep their
    # diagonals so every bit of a word can be set, and the full ones are all ones
    @pytest.mark.parametrize("n", [1, 5, 8, 9, 16, 17, 32, 33, 63, 64, 65, 100, 128, 129])
    @pytest.mark.parametrize("density", [0.0, 0.3, 0.7, 1.0])
    def test_row_sums_match_bin_count_for_every_row_layout(self, n, density):
        adj = np.random.default_rng(n).random((n, n)) < density
        rows = _packed_rows(adj)  # (n, W)
        sums = _popcount(rows.view(np.uint8)).sum(axis=1)
        assert sums.tolist() == [bin(word_value(row)).count("1") for row in rows]
        assert sums.tolist() == adj.sum(axis=1).tolist()
        before = rows.tobytes()
        assert _row_counts(rows, np.min_scalar_type(n)).tolist() == sums.tolist()
        assert rows.tobytes() == before  # the word sums work on a copy


class TestVerdictsLeaveInputsAlone:
    """Neither the chunk step nor the verdict writes to its input or to the
    cached suffix rows.  A bit count that wrote over the prefix would change
    no search result, since the search decodes each prefix afresh, so only
    these tests see it."""

    @pytest.mark.parametrize("n", [1, 4, 6, 7, 8])
    def test_chunk_verdict_keeps_prefix_and_suffix_tables(self, n):
        tables = _suffix_rows(n)
        before = tables.tobytes()
        assert before == suffix_rows(n).tobytes()
        prefixes = [_rows_at(n, 0), _rows_at(n, space_size(n) - suffix_size(n))]
        if n >= 6:
            prefixes.append(joined_prefix(n))
        for batch in [*prefixes, np.stack(prefixes)]:  # one at a time, then one task
            kept = batch.tobytes()
            columns = [*itertools.chain(*_kept_columns(n, matrices(batch.reshape(-1, n))).values())]
            cached = [array.tobytes() for array in columns]
            _chunk_candidates(n, batch)
            assert batch.tobytes() == kept
            assert [array.tobytes() for array in columns] == cached
        assert _suffix_rows(n) is tables
        assert tables.tobytes() == before
        assert not tables.flags.writeable

    @pytest.mark.parametrize("n", [3, 6, 9, 20, 40, 64, 70, 129])
    def test_general_verdict_keeps_its_rows(self, n):
        full = ~np.eye(n, dtype=bool)  # complete symmetric: no satisfactory vertex
        rng = np.random.default_rng(n)
        batch = [full] + [(rng.random((n, n)) < 0.5) & full for _ in range(5)]
        rows = np.stack([_packed_rows(adj) for adj in batch])  # (N, n, W)
        for form in [rows, rows[:, :, 0].copy()] if rows.shape[2] == 1 else [rows]:
            kept = form.tobytes()
            assert _no_satisfactory_vertex(form)[0]
            assert form.tobytes() == kept


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
        assert oracles.has_transitive_triangle(g.n, g.edges)
        assert not has_directed_cycle(g)

    def test_triangle_free_has_no_triangle(self):
        for seed in range(20):
            g = random_triangle_free(8, 0.25, seed=seed)
            assert not oracles.has_transitive_triangle(g.n, g.edges)

    def test_triangle_free_trivial_probability(self):
        assert random_triangle_free(5, 0.0, seed=3).m == 0

    def test_triangle_free_retry_exhaustion(self):
        # every 4-vertex tournament contains a transitive triangle
        with pytest.raises(RetriesExhausted) as exc:
            random_triangle_free(4, 1.0, seed=0, max_retries=3)
        assert exc.value.attempts == 3

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize(
        "draw",
        [
            lambda n: random_tournament(n, seed=0),
            lambda n: random_digon_free(n, 0.5, seed=0),
            lambda n: random_acyclic(n, 0.5, seed=0),
            lambda n: random_triangle_free(n, 0.5, seed=0),
        ],
        ids=["tournament", "digon_free", "acyclic", "triangle_free"],
    )
    def test_models_reject_an_empty_vertex_set(self, draw, n):
        # p is valid, so the n check is the one that fires
        with pytest.raises(EmptyVertexSet):
            draw(n)


def inline_pool(monkeypatch):
    """Replace multiprocessing.Pool with one that runs imap in this process;
    returns the lists of the pool sizes and imap batch sizes asked for."""
    sizes, batches = [], []

    class InlinePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize):
            batches.append(chunksize)
            return map(fn, tasks)

    monkeypatch.setattr(search.multiprocessing, "Pool", InlinePool)
    return sizes, batches


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
        sizes, batches = inline_pool(monkeypatch)
        spec = SearchSpec(mode="random", n=5, model="tournament", count=300, workers=64)
        assert run_search(spec).graphs_examined == 300
        assert sizes == [3]  # 300 samples in chunks of 128
        spec = SearchSpec(mode="exhaustive", n=6, workers=2)
        assert report_fingerprint(run_search(spec)) == report_fingerprint(
            run_search(SearchSpec(mode="exhaustive", n=6))
        )
        assert (sizes, batches) == ([3, 2], [1, 1])  # 9 tasks: fewer than 4 batches per worker

    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunks_are_made_as_they_are_taken(self, monkeypatch, workers):
        # the serial loop and the pool both take chunks from a generator, so
        # no task list of 3^18 chunks (n = 8) is built before the work starts
        made, taken = [], []
        real_tasks, real_chunk = search._chunk_tasks, search._search_chunk

        def tasks(spec):
            chunks, generator = real_tasks(spec)
            return chunks, (made.append(task[1]) or task for task in generator)

        def chunk(task):
            taken.append(len(made))
            return real_chunk(task)

        monkeypatch.setattr(search, "_chunk_tasks", tasks)
        monkeypatch.setattr(search, "_search_chunk", chunk)
        inline_pool(monkeypatch)
        report = run_search(SearchSpec(mode="exhaustive", n=6, workers=workers))
        assert report.graphs_examined == space_size(6)
        assert made == list(range(0, space_size(6), 3**13))  # 27 prefixes per task
        assert taken == list(range(1, 10))  # task i runs when i + 1 are made
        chunks, generator = real_tasks(SearchSpec(mode="exhaustive", n=8, ceiling=8))
        assert chunks == 3**15
        assert next(generator) == (SearchSpec(mode="exhaustive", n=8, ceiling=8), 0, 3**13)

    def test_retry_limit_is_checked_before_any_worker_starts(self, monkeypatch):
        spec = SearchSpec(
            mode="random", model="triangle_free", n=5, p=0.3, count=1000, workers=2, max_retries=0
        )
        message = "max_retries must be >= 1, got 0"
        with pytest.raises(ValueError, match=message):
            spec.validate()

        def forbidden(*args):
            raise AssertionError("work started with an invalid retry limit")

        monkeypatch.setattr(search, "_search_chunk", forbidden)
        monkeypatch.setattr(search.multiprocessing, "Pool", forbidden)
        with pytest.raises(ValueError, match=message):
            run_search(spec)
        # the limit only bounds triangle-free rejection sampling
        SearchSpec(mode="random", model="tournament", n=5, count=1, max_retries=0).validate()

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


# SHA-256 of write_digraph(model(n, ..., seed)), recorded before the models
# moved from edge lists to numpy adjacency matrices.  A change to a model's
# draw order or pair order changes these; run-to-run reproducibility alone
# would not notice.  triangle_free at n=7, p=0.5 goes through the retry loop.
PINNED_MODELS = {
    "tournament": lambda n, seed: random_tournament(n, seed),
    "digon_free": lambda n, seed: random_digon_free(n, 0.3, seed),
    "acyclic": lambda n, seed: random_acyclic(n, 0.3, seed),
    "triangle_free": lambda n, seed: random_triangle_free(
        n, 0.03 if n >= 50 else 0.5, seed
    ),
}
PINNED_DIGESTS = {
    ("tournament", 1, 3): "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7",
    ("tournament", 1, (11, 4)): "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7",
    ("tournament", 7, 3): "3b36d1bb2928aa3518111da3398b0a5ec5a9d4148e2a71ac6dd4103f9d3abc1e",
    ("tournament", 7, (11, 4)): "82f04b014f968d71aa6e323431e0b1d918c5ddeb288d35b2dda53c59d0bfe708",
    ("tournament", 50, 3): "9eec1ba4bb62521a964b8e162725cac627e51ccddd4c9c6271771fa5d34198c3",
    ("tournament", 50, (11, 4)): "de2171ba7ff3ad64b2b5af03cfc86904a3956d26f6aec11714ef399001f36091",
    ("tournament", 70, 3): "1bdfde44ed30268f4c66654d850362c0fe1a80b607111ff73f988ce6630a4cb3",
    ("tournament", 70, (11, 4)): "3bee3722950404b404a1bea02ecc3469e0da323480d561720c50c7d76d8c05ce",
    ("digon_free", 1, 3): "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7",
    ("digon_free", 1, (11, 4)): "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7",
    ("digon_free", 7, 3): "65615818b2d10137abd31923eab80db78b9cc4481a6460b6f591905e602978f6",
    ("digon_free", 7, (11, 4)): "82e63fa020492ebab4c5ab93913c1313acc8b94abb0fe95a369158d49aebdf81",
    ("digon_free", 50, 3): "80219645dbd37ae6b0eb7c9df505e9b3101df8e744b41deadb74fb171039d5f2",
    ("digon_free", 50, (11, 4)): "2b5e3a093de86fe8ec6efc31cc59dff1236d89768a8299d2c0925ae39dabeb02",
    ("digon_free", 70, 3): "e057adbc9435f16e7df7b2b68483191f646f81945dc831dd8bb81ffa512cd21f",
    ("digon_free", 70, (11, 4)): "a7fee06376d58eaa55a4cc75a275e3b15f96b219c448c69a0efc0c965e085892",
    ("acyclic", 1, 3): "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7",
    ("acyclic", 1, (11, 4)): "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7",
    ("acyclic", 7, 3): "49d3764a8a765bc8dd5905e64efdaaf879334cf92d0a51df0bd9efffc67794ab",
    ("acyclic", 7, (11, 4)): "d4e087ac6e9af16017995c97a79f982d7933902f7e662134950ee561e50bc93f",
    ("acyclic", 50, 3): "4cf640bea2f8cd6e50042f9c205c861de47a55bf1d5ece88f9797446d19578f7",
    ("acyclic", 50, (11, 4)): "e7d5e47f40ea6cd66c22550380dcfda739f49bd367dd33cd3dcd36017aeddfd9",
    ("acyclic", 70, 3): "e86704d155e8172fe58f6f1149d89ca34d413c6633f154ef9ede303084c32aad",
    ("acyclic", 70, (11, 4)): "7581ca7c968e61db4ea9f030a3bc70c678fd9f9f1e2cfb03e9cdbb924514a1fc",
    ("triangle_free", 1, 3): "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7",
    ("triangle_free", 1, (11, 4)): "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7",
    ("triangle_free", 7, 3): "0678dc47e2d7c3725668e3868ea2b4bf9f70a60d02f9b11146b6d1c89eb0699e",
    ("triangle_free", 7, (11, 4)): "9ad603f126413101042f85370e258feed81583506e8e923b1ac70908cbf27594",
    ("triangle_free", 50, 3): "62e44d4133359b902967d55ddc0fdf361ee6dd356004efdaee4657a15a2b4c7c",
    ("triangle_free", 50, (11, 4)): "36b43a4244f1763b8cdd79f4de24769845fc6dd036e807538034a1b82d94249d",
    ("triangle_free", 70, 3): "234b97a96c158a6af9dd65d6b5b3eb47445fd1e7dd23aa075752573edaeae2de",
    ("triangle_free", 70, (11, 4)): "d6498267640951636f104ccd9545157a4f3163fb9d3585c66013920f972bfb33",
}


def test_random_models_are_pinned():
    got = {
        (name, n, seed): hashlib.sha256(write_digraph(model(n, seed)).encode()).hexdigest()
        for name, model in PINNED_MODELS.items()
        for n in (1, 7, 50, 70)
        for seed in (3, (11, 4))
    }
    assert got == PINNED_DIGESTS


def test_random_graph_dispatches_to_each_model():
    assert search.random_graph("tournament", 6, None, 2) == random_tournament(6, 2)
    assert search.random_graph("digon_free", 6, 0.4, 2) == random_digon_free(6, 0.4, 2)
    assert search.random_graph("acyclic", 6, 0.4, 2) == random_acyclic(6, 0.4, 2)
    assert search.random_graph("triangle_free", 6, 0.4, 2, 50) == random_triangle_free(
        6, 0.4, 2, 50
    )
    with pytest.raises(InvalidProbability):
        search.random_graph("acyclic", 6, None, 2)
    with pytest.raises(ValueError, match="unknown random model"):
        search.random_graph("regular", 6, 0.4, 2)


def test_place_writes_pair_k_to_the_kth_combination():
    # _draw_adjacency compares pair k of a draw into bit k of a row, in this order
    for n in (1, 2, 5, 9):
        pairs = list(itertools.combinations(range(n), 2))
        bits = np.random.default_rng(n).random((3, len(pairs))) < 0.5
        adj = np.zeros((3, n, n), dtype=bool)
        search._place(adj, bits)
        search._place(adj.swapaxes(1, 2), ~bits)
        want = np.zeros_like(adj)
        for k, (u, v) in enumerate(pairs):
            want[:, u, v], want[:, v, u] = bits[:, k], ~bits[:, k]
        assert np.array_equal(adj, want)


@pytest.mark.parametrize("model", search.RANDOM_MODELS)
@pytest.mark.parametrize("n", [2, 5, 50, 70, 400])
def test_a_chunk_draws_each_sample_as_random_graph_does(monkeypatch, model, n):
    # the samples span two chunks of 128, or at n=400 of 26, where each sample's
    # 79,800 pairs span two blocks of 2^16 uniforms; n=2 draws one pair a sample.
    # triangle_free stays sparse enough to accept
    p, seed = min(0.3, 1.5 / n), 6
    count, chunks = (27, [26, 1]) if n == 400 else (130, [128, 2])
    batches, real = [], search._no_satisfactory_vertex
    monkeypatch.setattr(
        search, "_no_satisfactory_vertex", lambda rows: batches.append(rows) or real(rows)
    )
    run_search(SearchSpec(mode="random", model=model, n=n, p=p, count=count, seed=seed))
    assert [len(rows) for rows in batches] == chunks
    drawn = (search.random_graph(model, n, p, (seed, i))._adjacency() for i in range(count))
    assert np.array_equal(np.concatenate(batches), np.stack([_packed_rows(adj) for adj in drawn]))


@pytest.mark.parametrize(
    "model, p",
    [("tournament", 0.5), ("acyclic", 0.5), ("digon_free", 0.5), ("triangle_free", 0.0005)],
    ids=["tournament", "acyclic", "digon_free", "triangle_free"],
)
def test_a_large_draw_holds_a_bounded_block_of_uniforms(model, p):
    search.random_graph(model, 5, 0.5, 0)  # first-call allocations; a per-n cache would stay
    tracemalloc.start()
    try:
        graph = search.random_graph(model, 2048, p, 1)
        peak = tracemalloc.get_traced_memory()[1]
        del graph
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # the 4 MiB matrix, a block of 2^16 doubles and 2 MiB of pair bits (4 MiB for
    # digon_free's and triangle_free's two rows; acyclic frees its bits before
    # copying a slot to relabel it); drawing all 2,096,128 pairs at once peaked
    # at 18 MiB (20 MiB for digon_free's two arrays), and testing each
    # triangle_free sample with a float32 matrix product at 40.5 MiB
    assert peak < 10 * 2**20
    assert held < 64 * 2**10  # an (n, n) cache per n would hold 4 MiB


ENTROPY_INT = st.integers(0, 2**130 - 1)  # up to five words, so tuples reach the mixing loop


@settings(max_examples=300, deadline=None)
@given(st.one_of(ENTROPY_INT, st.lists(ENTROPY_INT, max_size=6).map(tuple)))
@example(0)
@example(2**32 - 1)
@example(2**32)
@example(2**64)
@example(())
@example((2**32 - 1,) * 4)  # the last entropy word that the pool takes in directly
@example(2**128)  # the first word past the fourth: one pass mixes it into all four
def test_seeding_matches_numpy(entropy):
    rng = next(search._seeded([search._entropy_words(entropy)]))
    expected = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
    assert rng.bit_generator.state == expected.bit_generator.state
    assert rng.random(8).tolist() == expected.random(8).tolist()


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 7).flatmap(
        lambda size: st.lists(
            st.lists(st.integers(0, 2**32 - 1), min_size=size, max_size=size).map(tuple),
            min_size=1,
            max_size=5,
        )
    )
)
def test_seeding_a_batch_matches_seeding_each_row(entropies):
    # ints below 2^32 are one word each, so each tuple is its own word list; the
    # generators are all collected first, so each row's must be a generator of its own
    rngs = list(search._seeded([list(e) for e in entropies]))
    states = [rng.bit_generator.state for rng in rngs]
    assert states == [np.random.PCG64(np.random.SeedSequence(e)).state for e in entropies]


def test_importing_seymour_leaves_numpy_random_unloaded():
    # _seeded registers its seed class with numpy.random on the first draw, not at import;
    # a numpy that imports numpy.random with numpy itself leaves nothing to test
    code = ("import sys, numpy; eager = 'numpy.random' in sys.modules; import seymour; "
            "print(eager, 'numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(search.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    eager, loaded = run.stdout.split()
    if eager == "True":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert loaded == "False"


def record_draw_states(monkeypatch):
    """The generator state of each draw, recorded as its generator is yielded."""
    calls, real = [], search._seeded

    def recording(entropies):
        for rng in real(entropies):
            calls.append(rng.bit_generator.state)
            yield rng

    monkeypatch.setattr(search, "_seeded", recording)
    return calls


def test_random_mode_looks_models_up_at_call_time(monkeypatch):
    # profilers wrap the draw function as a seymour.search global
    calls = record_draw_states(monkeypatch)
    run_search(SearchSpec(mode="random", model="tournament", n=5, count=3, seed=8))
    assert calls == [np.random.PCG64(np.random.SeedSequence((8, i))).state for i in range(3)]


@settings(max_examples=100, deadline=None)
@given(digon_free_adjacency())
# 1 -> 2 -> 3 over 1 -> 3 beside an isolated 0: the triangle's one base is
# 1 -> 2, tail 1's lowest head, so a test that skips it misses the triangle
@example(np.array([[0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1], [0, 0, 0, 0]], dtype=bool))
def test_matrix_triangle_test_matches_the_oracle(adj):
    g = Digraph._from_adjacency(adj)
    assert search._has_transitive_triangle(adj) == oracles.has_transitive_triangle(g.n, g.edges)


def plant_candidate(monkeypatch, model, n, p, seed, k):
    """Make sample k the one graph the verdict reports, and still run the real one."""
    planted = _packed_rows(search.random_graph(model, n, p, (seed, k))._adjacency())
    real = search._no_satisfactory_vertex

    def verdict(rows):
        assert not real(rows).any()
        return (rows == planted).all(axis=(1, 2))

    monkeypatch.setattr(search, "_no_satisfactory_vertex", verdict)


@pytest.mark.parametrize("filter_enabled", [False, True])
def test_planted_random_candidate_is_recorded(monkeypatch, filter_enabled):
    model, n, p, seed, k = "digon_free", 10, 0.4, 5, 137  # k lies in the second chunk
    plant_candidate(monkeypatch, model, n, p, seed, k)
    spec = dict(mode="random", model=model, n=n, p=p, count=300, seed=seed)
    solo, duo = (
        run_search(SearchSpec(**spec, workers=workers, filter_enabled=filter_enabled))
        for workers in (1, 2)
    )
    assert report_fingerprint(solo) == report_fingerprint(duo)
    assert solo.counterexamples_found == 1
    if filter_enabled:
        # the drawn graph has a satisfactory vertex, so the filter books condition 0
        assert solo.filter_survivors == []
        assert solo.per_condition_rejections == [300] + [0] * 7
    else:
        [record] = solo.filter_survivors
        assert record.index == k
        assert record.graph_text == write_digraph(search.random_graph(model, n, p, (seed, k)))
        assert solo.per_condition_rejections == [299] + [0] * 7


def plant_chunk_candidate(monkeypatch, *indices):
    """Make the graphs at indices the ones the exhaustive kernel reports, and
    still run the real one: a task's candidate at prefix b of its run and
    offset s in that prefix's chunk comes back as b * 3^10 + s."""
    real = search._chunk_candidates

    def candidates(n, prefixes):
        offsets, rows = real(n, prefixes)
        assert not len(offsets) and rows.shape == (0, n)
        planted = []
        for index in indices:
            offset = index % _EXHAUSTIVE_CHUNK
            prefix = _rows_at(n, index - offset)
            for b in np.flatnonzero((prefixes == prefix).all(axis=1)).tolist():
                planted.append((b * _EXHAUSTIVE_CHUNK + offset, index))
        if not planted:
            return offsets, rows
        offsets, planted = zip(*sorted(planted))
        return np.array(offsets), _rows_at(n, np.array(planted))

    monkeypatch.setattr(search, "_chunk_candidates", candidates)


@pytest.mark.parametrize("filter_enabled", [False, True])
def test_planted_exhaustive_candidate_is_recorded(monkeypatch, filter_enabled):
    # index 7 * 3^10 gives vertex 0 out-degree 1, so the kernel decides that
    # chunk whole and the wrapper returns the graph at index in its place
    n, index = 6, 7 * _EXHAUSTIVE_CHUNK + 31_415
    plant_chunk_candidate(monkeypatch, index)
    spec = dict(mode="exhaustive", n=n, filter_enabled=filter_enabled)
    solo, duo = (run_search(SearchSpec(**spec, workers=workers)) for workers in (1, 2))
    assert report_fingerprint(solo) == report_fingerprint(duo)
    assert solo.counterexamples_found == 1
    if filter_enabled:
        # the graph at index has a satisfactory vertex, so the filter books condition 0
        assert solo.filter_survivors == []
        assert solo.per_condition_rejections == [space_size(n)] + [0] * 7
    else:
        [record] = solo.filter_survivors
        assert record.index == index
        assert record.graph_text == write_digraph(graph_at_index(n, index))
        assert solo.per_condition_rejections == [space_size(n) - 1] + [0] * 7


def test_exhaustive_report_does_not_depend_on_task_size(monkeypatch):
    # planted in prefixes 7 and 241 of n = 6; runs of 10 prefixes leave a
    # partial last task, 240-242, that holds prefix 241 at position 1
    indices = [7 * _EXHAUSTIVE_CHUNK + 31_415, 241 * _EXHAUSTIVE_CHUNK + 5]
    plant_chunk_candidate(monkeypatch, *indices)
    fingerprints = []
    for prefixes, workers in itertools.product([1, 10, 27], [1, 2]):
        monkeypatch.setattr(search, "_TASK_PREFIXES", prefixes)
        spec = SearchSpec(mode="exhaustive", n=6, workers=workers, filter_enabled=False)
        assert search._chunk_tasks(spec)[0] == -(-243 // prefixes)
        fingerprints.append(report_fingerprint(run_search(spec)))
    assert all(fingerprint == fingerprints[0] for fingerprint in fingerprints)
    assert [record["index"] for record in fingerprints[0]["filter_survivors"]] == indices
    assert fingerprints[0]["counterexamples_found"] == 2


def test_random_report_does_not_depend_on_chunk_size(monkeypatch):
    plant_candidate(monkeypatch, "tournament", 9, None, 2, 40)
    spec = SearchSpec(
        mode="random", model="tournament", n=9, count=90, seed=2, filter_enabled=False
    )
    default = report_fingerprint(run_search(spec))
    monkeypatch.setattr(search, "_RANDOM_CHUNK", 7)
    assert report_fingerprint(run_search(spec)) == default
    assert [record["index"] for record in default["filter_survivors"]] == [40]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("filter_enabled", [False, True])
@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_search_exits_two_on_any_counterexample(monkeypatch, capsys, mode, filter_enabled, workers):
    # with the filter on, the planted graph fails condition 0 and so is no
    # survivor, but it is still a graph the verdict reported
    if mode == "exhaustive":
        plant_chunk_candidate(monkeypatch, 7 * _EXHAUSTIVE_CHUNK + 31_415)
        spec = SearchSpec(mode="exhaustive", n=6, filter_enabled=filter_enabled)
        argv = ["--n", "6"]
    else:
        plant_candidate(monkeypatch, "digon_free", 10, 0.4, 5, 137)
        spec = SearchSpec(
            mode="random", model="digon_free", n=10, p=0.4, count=300, seed=5,
            filter_enabled=filter_enabled,
        )
        argv = ["--model", "digon_free", "--n", "10", "--p", "0.4", "--count", "300", "--seed", "5"]
    argv = ["search", "--mode", mode, *argv, "--workers", workers]
    assert main(argv + ([] if filter_enabled else ["--no-filter"])) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["counterexamples_found"] == 1
    assert len(payload["filter_survivors"]) == (0 if filter_enabled else 1)
    expected = {"version": __version__, **run_search(spec).as_dict()}
    for d in (payload, expected):
        d.pop("elapsed_ms")
        d["spec"].pop("workers")
    assert payload == expected


class TestWorkerLimit:
    """A hostile worker count is refused before any process starts."""

    def forbid_work(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("work started past the worker limit")

        monkeypatch.setattr(search, "_search_chunk", forbidden)
        monkeypatch.setattr(search.multiprocessing, "Pool", forbidden)

    def test_spec_rejects_workers_past_the_limit(self, monkeypatch):
        self.forbid_work(monkeypatch)
        assert MAX_WORKERS >= 8
        SearchSpec(mode="exhaustive", n=7, ceiling=7, workers=MAX_WORKERS).validate()
        for workers in (MAX_WORKERS + 1, 100_000):
            spec = SearchSpec(mode="exhaustive", n=7, ceiling=7, workers=workers)
            with pytest.raises(TooManyWorkers) as exc:
                spec.validate()
            assert (exc.value.workers, exc.value.limit) == (workers, MAX_WORKERS)
            with pytest.raises(TooManyWorkers):
                run_search(spec)

    def test_spec_rejects_no_workers(self, monkeypatch):
        self.forbid_work(monkeypatch)
        spec = SearchSpec(mode="exhaustive", n=5, workers=0)
        with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
            spec.validate()
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_search(spec)

    def test_cli_exits_one(self, monkeypatch, capsys):
        self.forbid_work(monkeypatch)
        argv = ["search", "--mode", "random", "--model", "tournament", "--n", "5"]
        argv += ["--count", "1000", "--seed", "1", "--workers", "100000"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: 100000 workers exceed the limit of {MAX_WORKERS}\n"


class TestRandomChunkSize:
    """A random chunk stacks at most 2^22 adjacency entries, so its memory
    does not grow with n^2 past 181 vertices."""

    def test_samples_per_chunk_follow_n(self):
        sizes = {}
        for n in (5, 50, 181, 182, 1024, MAX_RANDOM_VERTICES):
            spec = SearchSpec(mode="random", model="tournament", n=n, count=300)
            chunks, tasks = search._chunk_tasks(spec)
            _, start, stop = next(tasks)
            sizes[n] = stop - start
            assert chunks == -(-300 // sizes[n])
        assert sizes == {5: 128, 50: 128, 181: 128, 182: 126, 1024: 4, MAX_RANDOM_VERTICES: 1}

    def test_large_tournaments_stay_within_one_chunk_of_memory(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a pool started")

        monkeypatch.setattr(search.multiprocessing, "Pool", forbidden)
        spec = SearchSpec(mode="random", model="tournament", n=1024, count=32, seed=1)
        run_search(SearchSpec(mode="random", model="tournament", n=1024, count=1))  # caches
        tracemalloc.start()
        try:
            report = run_search(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.graphs_examined, report.counterexamples_found) == (32, 0)
        # a chunk of 4 stacks 4 MiB of bools while one more draw holds its
        # 523,776 doubles (4 MiB); one chunk of all 32 would stack 32 MiB
        assert peak < 12 * 2**20


@pytest.fixture
def forbid_draws(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a draw started past the checks")

    monkeypatch.setattr(search, "_seeded", forbidden)
    monkeypatch.setattr(search, "_search_chunk", forbidden)
    monkeypatch.setattr(search.multiprocessing, "Pool", forbidden)
    return forbidden


class TestVertexLimit:
    """A random graph needs an (n, n) matrix, so n past the square root of
    digraph.MAX_ROW_BITS is refused before anything is drawn."""

    @pytest.mark.parametrize("n", [MAX_RANDOM_VERTICES + 1, 10**6])
    def test_spec_and_draws_reject_n_past_the_limit(self, forbid_draws, n):
        assert MAX_RANDOM_VERTICES == 16_384
        for model in search.RANDOM_MODELS:
            spec = SearchSpec(mode="random", model=model, n=n, p=0.5, count=1, workers=2)
            for call in (spec.validate, lambda: run_search(spec)):
                with pytest.raises(TooManyVertices) as exc:
                    call()
                assert (exc.value.n, exc.value.limit) == (n, MAX_RANDOM_VERTICES)
            with pytest.raises(TooManyVertices):
                search.random_graph(model, n, 0.5, 0)
        for draw in (random_digon_free, random_acyclic, random_triangle_free):
            with pytest.raises(TooManyVertices):
                draw(n, 0.5, 0)
        with pytest.raises(TooManyVertices):
            random_tournament(n, 0)

    def test_n_at_the_limit_validates(self, forbid_draws):
        n = MAX_RANDOM_VERTICES
        for model in search.RANDOM_MODELS:
            SearchSpec(mode="random", model=model, n=n, p=0.5, count=1).validate()
            with pytest.raises(AssertionError, match="a draw started"):
                search.random_graph(model, n, 0.5, 0)  # past the check, stopped at the draw

    @pytest.mark.parametrize("command", ["search", "generate"])
    def test_cli_exits_one(self, forbid_draws, capsys, tmp_path, command):
        n = 10**6
        argv = [command, "--model", "tournament", "--n", str(n), "--seed", "1"]
        if command == "search":
            argv += ["--mode", "random", "--count", "1"]
        else:
            argv += ["-o", str(tmp_path / "g.txt")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {n} vertices exceed the limit of {MAX_RANDOM_VERTICES}\n"
        assert not (tmp_path / "g.txt").exists()


class TestSeedAndCountLimits:
    """A negative seed, or a count whose last index would take a second
    entropy word, is refused before anything is drawn."""

    def test_negative_seed_is_refused(self, forbid_draws):
        spec = SearchSpec(mode="random", model="tournament", n=5, count=1, seed=-1, workers=2)
        for call in (spec.validate, lambda: run_search(spec)):
            with pytest.raises(ValueError, match="^expected non-negative integer$"):
                call()
        for seed in (-1, (3, -1)):
            with pytest.raises(ValueError, match="^expected non-negative integer$"):
                search.random_graph("tournament", 5, None, seed)

    def test_count_at_the_limit_validates(self, forbid_draws):
        assert MAX_RANDOM_COUNT == 2**32
        SearchSpec(mode="random", model="tournament", n=5, count=MAX_RANDOM_COUNT).validate()

    @pytest.mark.parametrize("count", [MAX_RANDOM_COUNT + 1, 2**64])
    def test_count_past_the_limit_is_refused(self, forbid_draws, count):
        spec = SearchSpec(mode="random", model="tournament", n=5, count=count, seed=1, workers=2)
        for call in (spec.validate, lambda: run_search(spec)):
            with pytest.raises(TooManySamples) as exc:
                call()
            assert (exc.value.count, exc.value.limit) == (count, MAX_RANDOM_COUNT)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["search", "--count", "1", "--seed", "-1"], "expected non-negative integer"),
            (["generate", "--seed", "-1"], "expected non-negative integer"),
            (
                ["search", "--count", str(MAX_RANDOM_COUNT + 1), "--seed", "1"],
                f"{MAX_RANDOM_COUNT + 1} samples exceed the limit of {MAX_RANDOM_COUNT}",
            ),
        ],
    )
    def test_cli_exits_one(self, forbid_draws, capsys, tmp_path, argv, message):
        argv = argv + ["--model", "tournament", "--n", "5"]
        if argv[0] == "search":
            argv += ["--mode", "random"]
        else:
            argv += ["-o", str(tmp_path / "g.txt")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not (tmp_path / "g.txt").exists()

    def test_the_last_indices_seed_as_numpy_does(self, monkeypatch):
        calls = record_draw_states(monkeypatch)
        spec = SearchSpec(
            mode="random", model="tournament", n=5, count=MAX_RANDOM_COUNT, seed=2**40
        )
        result = search._search_chunk((spec, MAX_RANDOM_COUNT - 2, MAX_RANDOM_COUNT))
        assert (result.examined, result.counterexamples) == (2, 0)
        indices = (MAX_RANDOM_COUNT - 2, MAX_RANDOM_COUNT - 1)
        assert calls == [np.random.PCG64(np.random.SeedSequence((2**40, i))).state for i in indices]

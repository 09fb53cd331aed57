import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from seymour import (
    Digraph,
    avoiding_reach,
    build_product,
    check_condition,
    diamond_base_targets,
    has_directed_cycle,
    is_strongly_connected,
    parse_digraph,
    predicted_profile,
    random_digon_free,
    run_filter,
    triangle_base_count,
)
from seymour import filtering, structure
from seymour.digraph import MAX_VERTICES, _bits
from seymour.errors import ConditionOutOfRange, NoSuchEdge
from seymour.filtering import EVALUATION_ORDER, FAIL, NOT_APPLICABLE, PASS
from seymour.search import random_graph
from strategies import digraphs, digraphs_with_edge

C3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
TT = Digraph(3, [(0, 1), (0, 2), (1, 2)])
DIAMOND = Digraph(4, [(0, 1), (1, 3), (0, 2), (2, 3)])


class TestAvoidingReach:
    def test_transitive_triangle(self):
        covered, missing = avoiding_reach(TT, (0, 1))
        assert covered == {2}
        assert missing == {1}

    def test_cycle_edge_blocks_everything(self):
        covered, missing = avoiding_reach(C3, (0, 1))
        assert covered == set()
        assert missing == {1, 2}

    def test_diamond_base(self):
        covered, missing = avoiding_reach(DIAMOND, (0, 1))
        assert covered == {3}
        assert missing == {1}

    def test_partitions_targets(self):
        covered, missing = avoiding_reach(TT, (0, 2))
        targets = {2} | TT.out_neighbors(2)
        assert covered | missing == targets
        assert not covered & missing

    def test_missing_edge(self):
        with pytest.raises(NoSuchEdge):
            avoiding_reach(C3, (0, 2))

    @settings(max_examples=200, deadline=None)
    @given(digraphs_with_edge(max_n=6))
    def test_matches_walk_enumeration_oracle(self, ge):
        g, e = ge
        assert avoiding_reach(g, e) == oracles.avoiding_reach(g.n, g.edges, e)


class TestCheckCondition:
    def test_cycle_is_strongly_connected(self):
        assert check_condition(C3, 1).status == PASS

    def test_cycle_fails_prerequisite(self):
        verdict = check_condition(C3, 0)
        assert verdict.status == FAIL
        assert verdict.witness == {"vertex": 0, "anti_satisfaction": 0}

    def test_cycle_fails_multiplicity(self):
        # bound at edge (0,1) is |N1(1)| - |N1(0)| + 1 = 1, but no triangle
        verdict = check_condition(C3, 5)
        assert verdict.status == FAIL
        assert verdict.witness["edge"] == [0, 1]
        assert verdict.witness["required"] == 1
        assert verdict.witness["triangle_bases"] == 0

    def test_transitive_triangle_fails_band(self):
        verdict = check_condition(TT, 2)
        assert verdict.status == FAIL
        assert verdict.witness == {"vertex": 2, "anti_satisfaction": 0}

    def test_condition_out_of_range(self):
        with pytest.raises(ConditionOutOfRange):
            check_condition(C3, 8)

    def test_edgeless_graph_is_not_applicable_for_edge_conditions(self):
        bare = Digraph(2)
        assert check_condition(bare, 3).status == NOT_APPLICABLE
        assert check_condition(bare, 4).status == NOT_APPLICABLE
        assert check_condition(bare, 5).status == NOT_APPLICABLE

    def test_empty_band_fails_cycle_condition(self):
        verdict = check_condition(C3, 7)
        assert verdict.status == FAIL
        assert verdict.witness == {"vertices": []}

    def test_source_fails_in_neighbor_condition(self):
        verdict = check_condition(TT, 6)
        assert verdict.status == FAIL
        assert verdict.witness == {"vertex": 0}  # nothing points at the source


def _replay(g, verdict):
    """Re-check a failure witness against the graph it came from."""
    k, w = verdict.condition, verdict.witness
    assert w is not None
    if k == 0:
        p = g.profile(w["vertex"])
        assert p.satisfactory and p.anti_satisfaction == w["anti_satisfaction"]
    elif k == 1:
        assert w["target"] not in g.walkable_neighborhood(w["source"])
    elif k == 2:
        a = g.profile(w["vertex"]).anti_satisfaction
        assert a == w["anti_satisfaction"] and a not in (1, 2)
    elif k == 3:
        _, missing = avoiding_reach(g, tuple(w["edge"]))
        assert sorted(missing) == w["missing"] and len(missing) > 1
    elif k == 4:
        e = tuple(w["edge"])
        assert triangle_base_count(g, e) == 0 and not diamond_base_targets(g, e)
    elif k == 5:
        u, v = w["edge"]
        required = g.out_degree(v) - g.out_degree(u) + 1
        assert required == w["required"] and required >= 1
        assert triangle_base_count(g, (u, v)) == w["triangle_bases"]
        assert len(diamond_base_targets(g, (u, v))) == w["diamond_apexes"]
        assert w["triangle_bases"] < required or w["diamond_apexes"] < required
    elif k == 6:
        u = w["vertex"]
        in_bands = [g.profile(x).anti_satisfaction for x in g.in_neighbors(u)]
        assert 1 not in in_bands
    elif k == 7:
        ones = [u for u in range(g.n) if g.profile(u).anti_satisfaction == 1]
        assert ones == w["vertices"]
        if ones:
            sub, _ = g.induced_subgraph(ones)
            assert not has_directed_cycle(sub)
    else:
        raise AssertionError(f"unexpected condition {k}")


@settings(max_examples=150, deadline=None)
@given(digraphs(max_n=6))
def test_fail_witnesses_replay(g):
    for k in range(8):
        verdict = check_condition(g, k)
        if verdict.status == FAIL:
            _replay(g, verdict)


@settings(max_examples=150, deadline=None)
@given(digraphs(max_n=6))
@example(Digraph(3))  # 0 reaches neither 1 nor 2: the witness is (0, 1), not (0, 2)
def test_connectivity_witness_is_the_first_unreachable_pair(g):
    out, _ = oracles.adjacency(g.n, g.edges)
    unreachable = [
        {"source": u, "target": v}
        for u in range(g.n)
        for v, d in sorted(oracles.bfs_distances(g.n, out, u).items())
        if d == oracles.INF
    ]
    assert check_condition(g, 1).witness == (unreachable[0] if unreachable else None)


@settings(max_examples=150, deadline=None)
@given(digraphs(max_n=5))
def test_verdicts_match_statement_oracles(g):
    for k, oracle in oracles.CONDITION_ORACLES.items():
        assert check_condition(g, k).ok == oracle(g.n, g.edges), f"condition {k}"


@settings(max_examples=150, deadline=None)
@given(digraphs())
def test_band_condition_implies_prerequisite(g):
    if check_condition(g, 2).status == PASS:
        assert check_condition(g, 0).status == PASS


@settings(max_examples=100, deadline=None)
@given(digraphs(max_n=6))
def test_multiplicity_pass_makes_applicable_edges_bases(g):
    # condition 5's bound is always >= 1 where applicable, so passing it
    # forces every applicable edge to be a base of both structures
    if check_condition(g, 5).status == PASS:
        for u, v in g.edges:
            if g.out_degree(u) <= g.out_degree(v):
                assert triangle_base_count(g, (u, v)) >= 1
                assert diamond_base_targets(g, (u, v))


@settings(max_examples=100, deadline=None)
@given(digraphs())
def test_band_cycle_condition_equals_cycle_on_induced(g):
    ones = [u for u in range(g.n) if g.profile(u).anti_satisfaction == 1]
    expected = bool(ones) and has_directed_cycle(g.induced_subgraph(ones)[0])
    assert (check_condition(g, 7).status == PASS) == expected


@settings(max_examples=200, deadline=None)
@given(digraphs(max_n=8))
def test_edge_condition_verdicts_match_witness_oracles(g):
    for k, oracle in oracles.EDGE_VERDICT_ORACLES.items():
        assert check_condition(g, k).as_dict() == oracle(g.n, g.edges), f"condition {k}"


def _regular_tournament(n):
    """The rotational tournament on odd n: i -> i + s (mod n) for s = 1 .. (n-1)/2."""
    return Digraph(n, [(i, (i + s) % n) for i in range(n) for s in range(1, (n + 1) // 2)])


def _cycle(k):
    return Digraph(k, [(i, (i + 1) % k) for i in range(k)])


# Random small graphs almost never pass conditions 3-5, so the passing branch
# is planted on products of a regular tournament D.  D x C_k passes 4 and 5
# but fails 3: for an edge (u,v) inside a copy of C_k, no other 1- or 2-walk
# from u re-enters the copy (D has no digons), so v and its successor are
# both missed.  D x (k isolated vertices) passes 3 and 4 but fails 5.  The
# 65-vertex products cross a 64-bit word boundary.
@pytest.mark.parametrize(
    "d, h, passing",
    [
        pytest.param(5, _cycle(3), (4, 5), id="T5xC3"),
        pytest.param(7, _cycle(4), (4, 5), id="T7xC4"),
        pytest.param(9, _cycle(5), (4, 5), id="T9xC5"),
        pytest.param(13, _cycle(5), (4, 5), id="T13xC5"),
        pytest.param(5, Digraph(3), (3, 4), id="T5xE3"),
        pytest.param(13, Digraph(5), (3, 4), id="T13xE5"),
    ],
)
def test_planted_positives_match_witness_oracles(d, h, passing):
    product, _ = build_product(_regular_tournament(d), h)
    verdicts = {k: check_condition(product, k).as_dict() for k in (3, 4, 5)}
    for k, oracle in oracles.EDGE_VERDICT_ORACLES.items():
        assert verdicts[k] == oracle(product.n, product.edges), f"condition {k}"
    assert [verdicts[k]["status"] for k in passing] == [PASS] * len(passing)


def _small_blocks_agree(g):
    """The block pass with blocks of one tail and chunks of one head, and with
    blocks of about three tails, gives the default run's reports and the
    oracles' verdicts."""
    whole = [run_filter(g, short_circuit).as_dict() for short_circuit in (False, True)]
    for cells in (1, 3 * g.n):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(filtering, "_BLOCK_CELLS", cells)
            seamed = run_filter(g, short_circuit=False)
            short = run_filter(g, short_circuit=True)
        assert [seamed.as_dict(), short.as_dict()] == whole, f"{cells} cells"
    verdicts = {v.condition: v for v in seamed.verdicts}
    for k, oracle in oracles.EDGE_VERDICT_ORACLES.items():
        assert verdicts[k].as_dict() == oracle(g.n, g.edges), f"condition {k}"
    for k in (0, 1, 2, 6, 7):
        assert verdicts[k].ok == oracles.CONDITION_ORACLES[k](g.n, g.edges), f"condition {k}"


@pytest.mark.parametrize(
    "d, h",
    [
        pytest.param(5, _cycle(3), id="T5xC3"),
        pytest.param(7, _cycle(4), id="T7xC4"),
        pytest.param(9, _cycle(5), id="T9xC5"),
        pytest.param(13, _cycle(5), id="T13xC5"),
        pytest.param(5, Digraph(3), id="T5xE3"),
        pytest.param(13, Digraph(5), id="T13xE5"),
    ],
)
def test_small_blocks_agree_on_the_planted_products(d, h):
    product, _ = build_product(_regular_tournament(d), h)
    _small_blocks_agree(product)


@settings(max_examples=12, deadline=None)
@given(st.integers(65, 96), st.sampled_from([0.02, 0.1, 0.3]), st.integers(0, 2**32 - 1))
def test_small_blocks_agree_on_graphs_past_a_word(n, p, seed):
    _small_blocks_agree(random_graph("digon_free", n, p, seed))


@pytest.mark.parametrize("d", [13, 21], ids=["T13xC5", "T21xC5"])
def test_a_graph_within_the_cell_bound_is_one_block(d):
    product, _ = build_product(_regular_tournament(d), _cycle(5))
    assert product.n * product.n <= filtering._BLOCK_CELLS
    assert filtering._next_block(product, 0)[0].stop == product.n


def test_a_split_block_pass_matches_the_products_predicted_profiles():
    # D x C5 on 1,000 vertices and 149,800 edges is 32 blocks at the real cell
    # bound; the paper's product fixes every vertex's anti-satisfaction from
    # the factors' profiles, and strong connectivity from D's
    d, h = random_digon_free(200, 0.3, 3), _cycle(5)
    product, labeling = build_product(d, h)
    assert (product.n, product.m) == (1000, 149_800)
    assert filtering._next_block(product, 0)[0].stop < product.n
    anti = filtering._Facts(product).anti
    for v in range(product.n):
        expected = predicted_profile(d, h, *labeling.decode(v)).anti_satisfaction
        assert anti[v] == expected, f"vertex {v}"
    assert is_strongly_connected(product) == is_strongly_connected(d)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(65, 96),
    st.sampled_from([0.02, 0.1, 0.3]),
    st.integers(0, 2**32 - 1),
    st.integers(1, 10_000),
)
# n * |C(V)| is 6,400 and 2,800: at the bound the graph is one block, found
# without growth, and one cell below it the blocks grow
@example(80, 0.1, 1, 6400)
@example(80, 0.1, 1, 6399)
@example(70, 0.02, 3, 2800)
@example(70, 0.02, 3, 2799)
def test_every_block_but_the_last_is_maximal(n, p, seed, cells):
    # H and C recomputed from sets: each block keeps |U| * |C| within the
    # bound (or is one tail), and one more tail would break it
    g = random_graph("digon_free", n, p, seed)
    out, _ = oracles.adjacency(g.n, g.edges)

    def shape(tails):
        heads = set().union(*(out[u] for u in tails))
        return heads, heads.union(*(out[h] for h in heads))

    start = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(filtering, "_BLOCK_CELLS", cells)
        while start < g.n:
            tails, heads, cols = filtering._next_block(g, start)
            assert tails.start == start < tails.stop
            H, C = shape(tails)
            assert (list(_bits(heads)), list(_bits(cols))) == (sorted(H), sorted(C))
            assert len(tails) == 1 or len(tails) * len(C) <= cells
            if tails.stop < g.n:
                grown = shape(range(start, tails.stop + 1))[1]
                assert (len(tails) + 1) * len(grown) > cells
            start = tails.stop


@pytest.mark.parametrize("short_circuit", [True, False])
@pytest.mark.parametrize(
    "g",
    [TT, _regular_tournament(7), build_product(_regular_tournament(13), _cycle(5))[0]],
    ids=["TT", "T7", "T13xC5"],
)
def test_filter_makes_one_two_walk_pass_and_no_profiles_call(monkeypatch, g, short_circuit):
    # one block pass gives every 2-walk fact a run needs (a short-circuited
    # run stops at condition 0 here, so it needs anti-satisfaction alone);
    # only condition 3's witness walks again, from its one tail
    passes, walks = [], []
    original, walk = filtering._block_pass, filtering._two_walks

    def counting(g, edges):
        passes.append((g, edges))
        return original(g, edges)

    def walking(rows, x):
        walks.append(x)
        return walk(rows, x)

    def refuse(self):
        raise AssertionError("Digraph.profiles called")

    monkeypatch.setattr(filtering, "_block_pass", counting)
    monkeypatch.setattr(filtering, "_two_walks", walking)
    monkeypatch.setattr(Digraph, "profiles", refuse)
    report = run_filter(g, short_circuit)
    assert passes == [(g, not short_circuit)]
    assert len(walks) <= 1
    assert report.evaluation_order == (list(EVALUATION_ORDER) if not short_circuit else [0])


def test_prerequisite_and_band_pass_on_planted_anti_satisfaction():
    # only a counterexample passes conditions 0 and 2, so the facts are planted
    facts = filtering._Facts(C3)
    facts.anti = [1] * C3.n
    for k in (0, 2):
        assert check_condition(C3, k, facts) == filtering.ConditionVerdict(k, PASS)


def test_filter_keeps_its_call_sites(monkeypatch):
    # perfbench wraps these module attributes to time the filter's layers
    for name in (
        "is_strongly_connected",
        "has_directed_cycle",
        "triangle_base_count",
        "diamond_base_targets",
    ):
        assert getattr(filtering, name) is getattr(structure, name)
    seen = []
    original = filtering.check_condition

    def recording(g, k, *args):
        seen.append(k)
        return original(g, k, *args)

    monkeypatch.setattr(filtering, "check_condition", recording)
    run_filter(TT, short_circuit=False)
    assert seen == list(EVALUATION_ORDER)


class TestRunFilter:
    def test_cycle_short_circuits_at_prerequisite(self):
        report = run_filter(C3)
        assert not report.survived
        assert report.evaluation_order == [0]
        assert report.first_failure.condition == 0

    def test_transitive_triangle_fails_at_prerequisite(self):
        report = run_filter(TT)
        assert not report.survived
        assert report.verdicts[0].witness["vertex"] == 2

    def test_full_evaluation_order(self):
        report = run_filter(TT, short_circuit=False)
        assert report.evaluation_order == list(EVALUATION_ORDER)
        assert not report.survived

    def test_every_tiny_graph_is_rejected(self):
        for n in (1, 2, 3):
            for edges in oracles.all_digon_free_edge_lists(n):
                assert not run_filter(Digraph(n, edges)).survived

    @settings(max_examples=120, deadline=None)
    @given(digraphs(max_n=6))
    def test_short_circuit_agrees_with_full_run(self, g):
        assert run_filter(g, True).survived == run_filter(g, False).survived

    @settings(max_examples=80, deadline=None)
    @given(digraphs(max_n=6))
    def test_report_prefix_consistency(self, g):
        short = run_filter(g, True)
        full = run_filter(g, False)
        assert short.verdicts == full.verdicts[: len(short.verdicts)]


def _check_facts(g):
    """The facts give the oracles' anti-satisfaction, anti-1 mask and first
    failing edges, with the default blocks and with blocks of one tail, and
    whether anti-satisfaction is asked for before the edge facts or after."""
    anti = [n1 - n2 for n1, n2 in oracles.profile_sizes(g.n, g.edges)]
    first, applicable = {}, False
    for k, oracle in oracles.EDGE_VERDICT_ORACLES.items():
        verdict = oracle(g.n, g.edges)
        applicable |= k == 5 and verdict["status"] != NOT_APPLICABLE
        if verdict["status"] == FAIL:
            first[k] = tuple(verdict["witness"]["edge"])
    for cells in (filtering._BLOCK_CELLS, 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(filtering, "_BLOCK_CELLS", cells)
            alone, together = filtering._Facts(g), filtering._Facts(g)
            assert alone.anti == anti  # from a pass without the edge products
            assert alone.edges == together.edges
            assert together.edges[0] == first
            assert together.edges[1] == applicable
        assert alone.anti == together.anti == anti
        assert list(_bits(together.ones)) == [u for u, a in enumerate(anti) if a == 1]


class TestFacts:
    @settings(max_examples=150, deadline=None)
    @given(digraphs())
    @example(TT)  # out-degrees 2, 1, 0 in one block
    def test_match_profiles_and_bit_walks(self, g):
        _check_facts(g)

    @pytest.mark.parametrize("h", [_cycle(5), Digraph(5)], ids=["T13xC5", "T13xE5"])
    def test_match_on_the_65_vertex_planted_products(self, h):
        product, _ = build_product(_regular_tournament(13), h)
        assert product.n == 65
        _check_facts(product)


def _peak(call):
    """The tracemalloc peak, in bytes, of one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_band_cycle_reads_only_the_kept_rows():
    # two disjoint edges on 8,192 vertices: 0 and 2 have anti-satisfaction 1,
    # and condition 7 induces on them without an (n, n) matrix (64 MiB)
    g = parse_digraph("8192 2\n0 1\n2 3\n")
    report = run_filter(g, short_circuit=False)
    assert report.verdicts[EVALUATION_ORDER.index(7)].witness == {"vertices": [0, 2]}
    assert _peak(lambda: run_filter(g, short_circuit=False)) < 4 << 20


def test_block_pass_holds_a_few_blocks_of_floats():
    # a 513-vertex tournament: one (n, n) float32 matrix is 1 MiB
    g = _regular_tournament(513)
    size = np.dtype(np.float32).itemsize
    assert _peak(lambda: filtering._Facts(g).edges) < 6 * size * filtering._BLOCK_CELLS
    # the circulant C(4096; 1..7) is banded: a block of |U| tails has |U| + 6
    # heads and |U| + 13 columns, so |U| is close to |C| (174 tails on 187
    # columns) and the counts, (3|U| + 1) x |H chunk|, are as large as the
    # stack, (3|U| + 1) x |C|, rather than a small part of it as on the
    # tournament.  Its bound is those two, B (|H chunk| x |C|) and four
    # |U| x |H chunk| temporaries of the failure tests, in floats
    n = 4096
    g = Digraph(n, [(i, (i + s) % n) for i in range(n) for s in range(1, 8)])
    size = max(k for k in range(1, n) if k * (k + 13) <= filtering._BLOCK_CELLS)
    width = size + 13
    chunk = min(size + 6, filtering._BLOCK_CELLS // width)
    cells = (3 * size + 1) * (width + chunk) + chunk * width + 4 * size * chunk
    itemsize = np.dtype(np.float32).itemsize
    assert _peak(lambda: filtering._Facts(g).edges) < itemsize * cells


def test_block_pass_counts_exactly_in_float32_at_every_allowed_n():
    # each count is at most one out-degree, below n <= MAX_VERTICES, and
    # float32 holds every integer below 2^24 exactly
    assert MAX_VERTICES < 2**24
    assert int(np.float32(MAX_VERTICES)) == MAX_VERTICES
    assert float(np.float32((1 << 24) - 1)) == (1 << 24) - 1
    assert float(np.float32((1 << 24) + 1)) != (1 << 24) + 1

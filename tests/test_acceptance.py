"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
exact; expected wall times are asserted at their stated generous bounds.
"""
import json
import subprocess
import sys
import time

import oracles
from seymour import (
    SearchSpec,
    build_product,
    graph_at_index,
    is_strongly_connected,
    predicted_profile,
    random_acyclic,
    random_digon_free,
    random_tournament,
    random_triangle_free,
    run_search,
    space_size,
)
from seymour.filtering import check_condition, run_filter


def _report(num, description, passed, detail=""):
    print(f"ACCEPTANCE {num:2d} [{'PASS' if passed else 'FAIL'}] {description}{detail}")
    assert passed, f"criterion {num} failed: {description}{detail}"


def _fingerprint(report):
    d = report.as_dict()
    d.pop("elapsed_ms")
    d["spec"].pop("workers")
    return json.dumps(d, sort_keys=True)


def test_criterion_1_exhaustive_up_to_five():
    started = time.perf_counter()
    bad = 0
    survivors = 0
    examined = []
    for n in range(1, 6):
        report = run_search(SearchSpec(mode="exhaustive", n=n))
        bad += report.counterexamples_found
        survivors += len(report.filter_survivors)
        examined.append(report.graphs_examined)
        assert report.graphs_examined == sum(report.per_condition_rejections) + len(
            report.filter_survivors
        )
    elapsed = time.perf_counter() - started
    _report(
        1,
        "exhaustive n<=5: every graph has a satisfactory vertex, no survivors",
        examined == [1, 3, 27, 729, 59049]
        and bad == 0
        and survivors == 0
        and elapsed < 10,
        f" (counts={examined}, {elapsed:.2f}s)",
    )


def test_criterion_2_exhaustive_six_and_worker_identity():
    solo = run_search(SearchSpec(mode="exhaustive", n=6, workers=1))
    octo = run_search(SearchSpec(mode="exhaustive", n=6, workers=8))
    identical = _fingerprint(solo) == _fingerprint(octo)
    _report(
        2,
        "exhaustive n=6: 14,348,907 graphs, zero counterexamples, "
        "8-worker report identical",
        solo.graphs_examined == 14_348_907
        and solo.counterexamples_found == 0
        and octo.counterexamples_found == 0
        and identical
        and solo.elapsed_seconds < 600
        and octo.elapsed_seconds < 600,
        f" (1w {solo.elapsed_seconds:.1f}s, 8w {octo.elapsed_seconds:.1f}s)",
    )


def test_criterion_3_tournaments():
    report = run_search(
        SearchSpec(mode="random", n=50, model="tournament", count=1000, seed=20260810)
    )
    _report(
        3,
        "1000 random 50-vertex tournaments all have a satisfactory vertex",
        report.graphs_examined == 1000
        and report.counterexamples_found == 0
        and report.elapsed_seconds < 30,
        f" ({report.elapsed_seconds:.2f}s)",
    )


def test_criterion_4_acyclic_graphs():
    probabilities = (0.1, 0.5, 0.9)
    failures = 0
    for i in range(1000):
        g = random_acyclic(30, probabilities[i % 3], seed=(404, i))
        has_sink = any(g.out_degree(u) == 0 for u in range(g.n))
        if not has_sink or g.first_satisfactory_vertex() is None:
            failures += 1
    _report(
        4,
        "1000 random acyclic graphs (n=30) each have a sink and a satisfactory vertex",
        failures == 0,
    )


def test_criterion_5_triangle_free_graphs():
    failures = 0
    for i in range(500):
        g = random_triangle_free(10, 0.2, seed=(505, i), max_retries=500)
        if not g.profile(oracles.min_out_degree_vertex(g.n, g.edges)).satisfactory:
            failures += 1
    _report(
        5,
        "500 transitive-triangle-free graphs: minimum out-degree vertex satisfactory",
        failures == 0,
    )


def _mixed_factor(index, size_seed):
    """Factor graphs cycling through the random models, sizes 1..8."""
    n = 1 + (size_seed % 8)
    kind = index % 5
    entropy = (606, index, size_seed)
    if kind == 0:
        return random_tournament(n, entropy)
    if kind == 1:
        return random_digon_free(n, 0.3, entropy)
    if kind == 2:
        return random_digon_free(n, 0.7, entropy)
    if kind == 3:
        return random_acyclic(n, 0.5, entropy)
    return random_digon_free(max(n, 3), 0.9, entropy)


def test_criterion_6_product_formula_exactness():
    mismatches = 0
    for i in range(200):
        d_graph = _mixed_factor(i, (3 * i + 1) % 11)
        h_graph = _mixed_factor(i + 1000, (5 * i + 2) % 13)
        product, labeling = build_product(d_graph, h_graph)
        measured = oracles.profile_sizes(product.n, product.edges)
        for pid, (d, h) in labeling.pairs():
            predicted = predicted_profile(d_graph, h_graph, d, h)
            if (predicted.n1, predicted.n2) != measured[pid]:
                mismatches += 1
            additive = (
                h_graph.profile(h).anti_satisfaction
                + h_graph.n * d_graph.profile(d).anti_satisfaction
            )
            if predicted.anti_satisfaction != additive:
                mismatches += 1
    _report(
        6,
        "200 factor pairs: measured product profiles equal the closed form exactly",
        mismatches == 0,
    )


def test_criterion_7_product_connectivity_inheritance():
    built = 0
    failures = 0
    attempt = 0
    while built < 100:
        attempt += 1
        assert attempt < 5000, "could not sample enough strongly connected factors"
        n = 3 + (attempt % 6)
        d_graph = random_digon_free(n, 0.75, seed=(707, attempt))
        if not is_strongly_connected(d_graph):
            continue
        h_graph = _mixed_factor(attempt, attempt % 13)
        product, _ = build_product(d_graph, h_graph)
        if not is_strongly_connected(product):
            failures += 1
        built += 1
    _report(
        7,
        "100 strongly connected first factors: every product strongly connected",
        failures == 0,
    )


def test_criterion_8_condition_checkers_match_brute_force():
    # one full filter run per graph gives all eight verdicts from shared facts;
    # every 100th graph also checks each condition standalone against that run
    mismatches = []
    checked = 0
    for n in range(1, 6):
        for index in range(space_size(n)):
            g = graph_at_index(n, index)
            verdicts = {v.condition: v for v in run_filter(g, short_circuit=False).verdicts}
            for k, oracle in oracles.CONDITION_ORACLES.items():
                checked += 1
                if verdicts[k].ok != oracle(g.n, g.edges):
                    mismatches.append((n, index, k))
                if index % 100 == 0 and check_condition(g, k) != verdicts[k]:
                    mismatches.append((n, index, k, "standalone"))
    _report(
        8,
        "all n<=5 graphs: condition verdicts match brute-force restatements",
        not mismatches,
        f" ({checked} verdicts compared)" if not mismatches else f" {mismatches[:5]}",
    )


def test_criterion_9_deletion_monotonicity():
    sizes = (5, 6, 7, 8, 9, 10)
    probabilities = (0.2, 0.5, 0.8)
    violations = 0
    for i in range(1000):
        g = random_digon_free(sizes[i % 6], probabilities[i % 3], seed=(909, i))
        before = g.profiles()
        for u, v in g.edges:
            z = g.delete_edge((u, v))
            for w in range(g.n):
                after = z.profile(w)
                if w == u:
                    if after.n1 != before[w].n1 - 1 or after.n2 > before[w].n2 + 1:
                        violations += 1
                elif after.n1 != before[w].n1 or after.n2 > before[w].n2:
                    violations += 1
        if g.n >= 2:
            for u in range(g.n):
                z, relabel = g.delete_vertex(u)
                for old, new in relabel.items():
                    if z.profile(new).n2 > before[old].n2:
                        violations += 1
    _report(
        9,
        "1000 random graphs: every edge/vertex deletion obeys the |N1|/|N2| bounds",
        violations == 0,
    )


def _run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "seymour.cli", *argv],
        capture_output=True,
        text=True,
        check=False,
    )
    return proc.returncode, proc.stdout


def _strip_timing(output):
    payload = json.loads(output)
    payload.pop("elapsed_ms", None)
    return json.dumps(payload, sort_keys=True)


def test_criterion_10_seeded_commands_are_reproducible(tmp_path):
    search_argv = (
        "search", "--mode", "random", "--model", "digon_free",
        "--n", "9", "--count", "25", "--seed", "77", "--p", "0.35",
    )
    code_a, out_a = _run_cli(*search_argv)
    code_b, out_b = _run_cli(*search_argv)

    file_a, file_b = tmp_path / "a.dg", tmp_path / "b.dg"
    gen_argv = ("generate", "--model", "tournament", "--n", "12", "--seed", "5")
    _run_cli(*gen_argv, "-o", str(file_a))
    _run_cli(*gen_argv, "-o", str(file_b))

    _report(
        10,
        "repeated seeded commands are byte-identical apart from timing",
        code_a == code_b == 0
        and _strip_timing(out_a) == _strip_timing(out_b)
        and file_a.read_bytes() == file_b.read_bytes(),
    )

"""Mutation check: each planted fault below must fail its test selection.

Run from the root of a checkout:

    python tests/mutants.py

The script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory and checks that each mutant's old text occurs exactly once in its
file.  It runs each distinct selection on the unmutated copy and requires a
pass, then applies one mutant at a time, runs its selection with ``-x -q``
and requires a failure (pytest's exit status 1: an import or collection
error does not count).  It exits nonzero, naming every mutant that broke a
rule.  A mutant costs its whole selection only when it survives.

Any change may add a mutant.  Removing one, or narrowing its selection,
needs a CHANGES.md line that says why.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root of the checkout
    old: str  # must occur exactly once in the file
    new: str
    selection: tuple[str, ...]  # pytest arguments: node ids, -k expressions


DEGREE_COUNT = (
    "tests/test_search.py::TestDegreeLemma::"
    "test_the_verdict_sees_each_graph_of_least_out_degree_two_once",
)

SEEDING = (
    "tests/test_search.py::test_seeding_matches_numpy",
    "tests/test_search.py::test_seeding_a_batch_matches_seeding_each_row",
)

MUTANTS = (
    Mutant(
        "verdict n1 <= n2 -> n1 < n2",
        "src/seymour/search.py",
        "= ~(n1 <= n2).any(axis=0)",
        "= ~(n1 < n2).any(axis=0)",
        ("tests/test_search.py::TestVectorizedConditionZero",),
    ),
    Mutant(
        "a verdict that always answers none",
        "src/seymour/search.py",
        "= ~(n1 <= n2).any(axis=0)",
        "= False",
        ("tests/test_search.py::TestPackedRowKernel",),  # real small graphs never tell
    ),
    Mutant(
        "the degree gate and its need off by one",
        "src/seymour/search.py",
        "(degrees[:, :f] <= 1).any(axis=1)  # a vertex of F decides it\n"
        "    need = np.where(digon[:, None], 0, np.maximum(0, 2 - degrees[:, f:])).tolist()",
        "(degrees[:, :f] <= 0).any(axis=1)  # a vertex of F decides it\n"
        "    need = np.where(digon[:, None], 0, np.maximum(0, 1 - degrees[:, f:])).tolist()",
        ("tests/test_search.py", "-k", "test_kept_columns_match_the_oracle_on_whole_small_spaces"),
    ),
    Mutant(
        "a prefix ORed into its columns one to the right",
        "src/seymour/search.py",
        "out=cols[:, start:stop, 0]",
        "out=cols[:, start + 1 : stop + 1, 0]",
        DEGREE_COUNT,
    ),
    Mutant(
        "the columns of prefix b ORed with prefix b - 1",
        "src/seymour/search.py",
        "np.bitwise_or(columns, prefixes[b][:, None]",
        "np.bitwise_or(columns, prefixes[b - 1][:, None]",
        (
            "tests/test_search.py::TestPrefixFactoredKernel::"
            "test_a_stack_finds_what_its_prefixes_find_one_by_one",
        ),
    ),
    Mutant(
        "the found offsets without their prefix's b * 3^10",
        "src/seymour/search.py",
        "[keep + b * _EXHAUSTIVE_CHUNK for b, (keep, _) in kept.items()]",
        "[keep for b, (keep, _) in kept.items()]",
        (
            "tests/test_search.py::TestPrefixFactoredKernel::"
            "test_a_stack_finds_what_its_prefixes_find_one_by_one",
        ),
    ),
    Mutant(
        "the kept suffix graphs without their first",
        "src/seymour/search.py",
        ">= np.array(need)).all(axis=1))",
        ">= np.array(need)).all(axis=1))[1:]",
        DEGREE_COUNT,  # the zero-found sweeps cannot see a dropped graph
    ),
    Mutant(
        "condition 5's two witness counts swapped",
        "src/seymour/filtering.py",
        '"triangle_bases": triangle_base_count(g, (u, v)),\n'
        '            "diamond_apexes": len(diamond_base_targets(g, (u, v))),',
        '"triangle_bases": len(diamond_base_targets(g, (u, v))),\n'
        '            "diamond_apexes": triangle_base_count(g, (u, v)),',
        ("tests/test_filtering.py::test_planted_positives_match_witness_oracles",),
    ),
    Mutant(
        "anti-satisfaction counting N1 in W1 - N1",
        "src/seymour/filtering.py",
        "np.add.reduce(walks > g.n * rows, axis=1)",
        "np.add.reduce(walks > 0, axis=1)",
        ("tests/test_filtering.py::TestFacts",),
    ),
    Mutant(
        "Digraph(n, edges) reads the edges before it checks n",
        "src/seymour/digraph.py",
        "_check_size(n, 0)  # before the edges are read",
        "pass  # before the edges are read",
        (
            "tests/test_digraph.py::TestSizeLimits::"
            "test_n_past_the_limit_raises_before_the_edges_are_read",
        ),
    ),
    Mutant(
        "Digraph(n, edges) without the row-bit check",
        "src/seymour/digraph.py",
        "_check_size(n, len(flat) // 2)",
        "pass",
        (
            "tests/test_digraph.py::TestSizeLimits::test_the_size_comes_before_the_edges",
            "tests/test_digraph.py::TestSizeLimits::"
            "test_rows_past_the_bit_limit_raise_as_the_parser_does",
        ),
    ),
    Mutant(
        "the edge reader's word rows off by one",
        "src/seymour/digraph.py",
        "np.divmod(at, size)",
        "np.divmod(at + 1, size)",
        ("tests/test_digraph.py::TestConstruction::test_cycle",),
    ),
    Mutant(
        "the edge check's valid path sorts the out-keys, not the pair keys",
        "src/seymour/digraph.py",
        "pairs = np.sort(pair)  # two equal neighbours",
        "pairs = np.sort(tails * stride + heads)  # two equal neighbours",
        (
            "tests/test_textio.py::TestParse::test_digon_with_line_number",
            "tests/test_edge_check.py::test_a_large_plain_document_whose_last_line_is_its_only_bad_one",
        ),
    ),
    Mutant(
        "the rows without their first group start",
        "src/seymour/digraph.py",
        "start = np.ones(len(groups), dtype=bool)",
        "start = np.zeros(len(groups), dtype=bool)",
        (
            "tests/test_textio.py::TestParse::test_cycle",
            "tests/test_textio.py::test_round_trip_on_all_small_graphs",
        ),
    ),
    Mutant(
        "the parser looks up the header's line before the row check",
        "src/seymour/textio.py",
        "_check_size(n, m, line)",
        "_check_size(n, m, lambda header=line(): header)",
        ("tests/test_edge_check.py", "-k", "test_a_valid_plain_document_never_looks_up_a_line_number"),
    ),
    Mutant(
        "the writer's leading digit dropped",
        "src/seymour/textio.py",
        "shown = ends > 0",
        "shown = ends > 9",
        ("tests/test_textio.py::TestWrite::test_every_digit_boundary_matches_the_percent_writer",),
    ),
    Mutant(
        "the connectivity witness min -> max",
        "src/seymour/filtering.py",
        '"target": min(set(range(g.n)) - reach)',
        '"target": max(set(range(g.n)) - reach)',
        ("tests/test_filtering.py::test_connectivity_witness_is_the_first_unreachable_pair",),
    ),
    Mutant(
        "the block pass's C without U's heads",
        "src/seymour/filtering.py",
        "grown, new = cols | row, row & ~heads",
        "grown, new = cols, row & ~heads",
        ("tests/test_filtering.py::TestFacts",),
    ),
    Mutant(
        "every block is one tail",
        "src/seymour/filtering.py",
        "if stop > start and (stop + 1 - start) * grown.bit_count() > _BLOCK_CELLS:",
        "if stop > start:",
        (
            "tests/test_filtering.py::test_a_graph_within_the_cell_bound_is_one_block",
            "tests/test_filtering.py::test_every_block_but_the_last_is_maximal",
        ),
    ),
    Mutant(
        "the one-block check ignoring the bound",
        "src/seymour/filtering.py",
        ".bit_count() <= _BLOCK_CELLS:",
        ".bit_count() >= 0:",
        ("tests/test_filtering.py::test_every_block_but_the_last_is_maximal",),
    ),
    Mutant(
        "the block's degrees summed over the wrong rows",
        "src/seymour/filtering.py",
        "degree = rows.sum(axis=1, keepdims=True)",
        "degree = rows[::-1].sum(axis=1, keepdims=True)",
        ("tests/test_filtering.py::TestFacts::test_match_profiles_and_bit_walks",),
    ),
    Mutant(
        "kth_neighborhood stops one layer early",
        "src/seymour/digraph.py",
        "islice(self._layers(u, rows), k - 1, None)",
        "islice(self._layers(u, rows), max(k - 2, 0), None)",
        ("tests/test_digraph.py::test_kth_layer_stops_reading_rows_at_layer_k",),
    ),
    Mutant(
        "the connectivity BFS expands the layer that completed it",
        "src/seymour/structure.py",
        "            if not left:\n                break\n",
        "            if not left:\n                pass\n",
        ("tests/test_structure.py::test_connectivity_bfs_stops_once_its_layers_cover_v",),
    ),
    Mutant(
        "the triangle test skips each tail's lowest head",
        "src/seymour/search.py",
        "for v in _bits(row))",
        "for v in _bits(row & row - 1))",
        ("tests/test_search.py::test_matrix_triangle_test_matches_the_oracle",),
    ),
    Mutant(
        "PCG64 seeded from the words reversed",
        "src/seymour/search.py",
        "np.random.PCG64(_Seed(words))",
        "np.random.PCG64(_Seed(words[::-1].copy()))",
        ("tests/test_search.py::test_seeding_matches_numpy",),
    ),
    Mutant(
        "the stacked hash's constants for the words past the fourth misaligned",
        "src/seymour/search.py",
        "zip(range(16, len(xors), 4), words[4:])",
        "zip(range(12, len(xors), 4), words[4:])",
        SEEDING,
    ),
    Mutant(
        "the generate_state constants started one call late",
        "src/seymour/search.py",
        "xors, mults = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)",
        "xors, mults = (c[1:] for c in _hash_constants(0x8B51F9DD, 0x58F38DED, 9))",
        SEEDING,
    ),
    Mutant(
        "condition 3's shortfall without the two-walk mask",
        "src/seymour/filtering.py",
        "(g._out[u] & ~bit) | twice | (once & bit)",
        "(g._out[u] & ~bit) | (once & bit)",
        ("tests/test_filtering.py::TestAvoidingReach",),
    ),
    Mutant(
        "the product's in-rows built from the out-rows",
        "src/seymour/product.py",
        "_rows(d_graph._in, h_graph._in, nh)",
        "_rows(d_graph._out, h_graph._out, nh)",
        ("tests/test_product.py::test_build_product_matches_the_kronecker_oracle",),
    ),
)


def run_pytest(root: Path, selection: tuple[str, ...]) -> int:
    """pytest's exit status for one selection, run with -x -q in root."""
    # no bytecode: a restored file can keep the size and mtime second of its mutant
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
    return subprocess.run(command, cwd=root, env=env, capture_output=True).returncode


def main() -> int:
    errors = []
    with tempfile.TemporaryDirectory(prefix="seymour-mutants-") as tmp:
        root = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, root / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", root)
        for mutant in MUTANTS:
            count = (root / mutant.path).read_text().count(mutant.old)
            if count != 1:
                errors.append(f"{mutant.name}: old text occurs {count} times in {mutant.path}")
        for selection in dict.fromkeys(m.selection for m in MUTANTS):
            status = run_pytest(root, selection)
            print(f"unmutated {' '.join(selection)}: exit {status}", flush=True)
            if status != 0:
                errors.append(f"{' '.join(selection)} fails unmutated (exit {status})")
        if errors:  # a mutant's failure would mean nothing
            print("\n".join(errors), file=sys.stderr)
            return 1
        for mutant in MUTANTS:
            path = root / mutant.path
            text = path.read_text()
            path.write_text(text.replace(mutant.old, mutant.new))
            start = time.perf_counter()
            status = run_pytest(root, mutant.selection)
            path.write_text(text)
            verdict = "killed" if status == 1 else "SURVIVED" if status == 0 else "ERROR"
            print(f"{verdict} {mutant.name}: exit {status}, {time.perf_counter() - start:.1f} s")
            if status != 1:
                errors.append(f"{mutant.name}: exit {status}, expected 1 (a failed test)")
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

import json

import pytest

from seymour import parse_digraph, random_digon_free, write_digraph
from seymour.cli import main

C3_TEXT = "3 3\n0 1\n1 2\n2 0\n"
TT_TEXT = "3 3\n0 1\n0 2\n1 2\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def without_timing(output):
    payload = json.loads(output)
    payload.pop("elapsed_ms", None)
    return payload


@pytest.fixture
def c3_file(tmp_path):
    path = tmp_path / "c3.dg"
    path.write_text(C3_TEXT)
    return str(path)


def test_analyze(capsys, c3_file):
    code, out, _ = run_cli(capsys, "analyze", c3_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3 and payload["m"] == 3
    assert payload["satisfactory_count"] == 3
    assert payload["vertices"][0] == {
        "vertex": 0,
        "n1": 1,
        "n2": 1,
        "anti_satisfaction": 0,
        "satisfactory": True,
    }


def test_filter_report(capsys, c3_file):
    code, out, _ = run_cli(capsys, "filter", c3_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["survived"] is False
    assert payload["report"]["evaluation_order"] == [0]


def test_filter_no_short_circuit(capsys, c3_file):
    code, out, _ = run_cli(capsys, "filter", c3_file, "--no-short-circuit")
    payload = json.loads(out)
    assert payload["report"]["evaluation_order"] == [0, 2, 1, 6, 7, 4, 3, 5]


def test_product_writes_graph_and_labels(capsys, tmp_path, c3_file):
    out_path = tmp_path / "prod.dg"
    labels_path = tmp_path / "labels.txt"
    code, out, err = run_cli(
        capsys,
        "product",
        c3_file,
        c3_file,
        "-o",
        str(out_path),
        "--labels",
        str(labels_path),
    )
    assert code == 0
    assert err == ""  # C3 is a valid second factor, no warning
    product = parse_digraph(out_path.read_text())
    assert product.n == 9 and product.m == 36
    lines = labels_path.read_text().splitlines()
    assert lines[1] == "0 0 0"
    assert lines[-1] == "8 2 2"
    payload = json.loads(out)
    assert payload["product_edges"] == 36
    assert payload["valid_second_factor"] is True


def test_product_warns_on_invalid_second_factor(capsys, tmp_path, c3_file):
    h_path = tmp_path / "h.dg"
    h_path.write_text("4 3\n0 1\n1 2\n1 3\n")  # vertex 0 has A_s = -1
    out_path = tmp_path / "prod.dg"
    code, _, err = run_cli(capsys, "product", c3_file, str(h_path), "-o", str(out_path))
    assert code == 0
    assert "warning" in err


def test_search_exhaustive(capsys):
    code, out, _ = run_cli(capsys, "search", "--mode", "exhaustive", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["graphs_examined"] == 27
    assert payload["counterexamples_found"] == 0
    assert payload["filter_survivors"] == []
    assert payload["spec"]["mode"] == "exhaustive"


def test_search_worker_flag_does_not_change_results(capsys):
    solo = run_cli(capsys, "search", "--mode", "exhaustive", "--n", "3")
    duo = run_cli(capsys, "search", "--mode", "exhaustive", "--n", "3", "--workers", "2")
    a, b = without_timing(solo[1]), without_timing(duo[1])
    assert a["spec"].pop("workers") == 1
    assert b["spec"].pop("workers") == 2
    assert a == b


def test_search_exits_two_when_a_survivor_appears(capsys, monkeypatch):
    import seymour.cli as cli_mod
    from seymour.filtering import ConditionVerdict, FilterReport
    from seymour.search import SearchReport, SurvivorRecord

    def fake_search(spec):
        record = SurvivorRecord(
            index=0,
            graph_text="1 0\n",
            report=FilterReport([ConditionVerdict(0, "pass")], True, [0]),
        )
        return SearchReport(
            spec=spec,
            graphs_examined=1,
            counterexamples_found=1,
            per_condition_rejections=[0] * 8,
            filter_survivors=[record],
            elapsed_seconds=0.0,
        )

    monkeypatch.setattr(cli_mod, "run_search", fake_search)
    code, out, _ = run_cli(capsys, "search", "--mode", "exhaustive", "--n", "1")
    assert code == 2
    assert json.loads(out)["filter_survivors"][0]["graph"] == "1 0\n"


def test_search_random_requires_seed(capsys):
    code, _, err = run_cli(
        capsys, "search", "--mode", "random", "--model", "tournament",
        "--n", "5", "--count", "3",
    )
    assert code == 1
    assert "--seed" in err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_search_error_in_a_worker_reaches_stderr_intact(capsys, workers):
    # 300 graphs are 3 tasks, so --workers 2 starts a pool of 2 processes
    # and the error comes back pickled
    argv = ["search", "--mode", "random", "--model", "triangle_free", "--n", "12"]
    argv += ["--p", "0.9", "--count", "300", "--seed", "1", "--max-retries", "2"]
    code, out, err = run_cli(capsys, *argv, "--workers", workers)
    assert (code, out) == (1, "")
    assert err == "error: rejection sampling gave up after 2 attempts\n"


def test_search_random_deterministic_output(capsys):
    argv = (
        "search", "--mode", "random", "--model", "digon_free",
        "--n", "8", "--count", "20", "--seed", "11", "--p", "0.4",
    )
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert without_timing(out1) == without_timing(out2)


def test_generate_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.dg", tmp_path / "b.dg"
    argv = ("generate", "--model", "tournament", "--n", "6", "--seed", "9")
    assert run_cli(capsys, *argv, "-o", str(a))[0] == 0
    assert run_cli(capsys, *argv, "-o", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    g = parse_digraph(a.read_text())
    assert g.n == 6 and g.m == 15


def test_generate_to_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "generate", "--model", "digon_free", "--n", "4",
        "--seed", "2", "--p", "0.5", "-o", "-",
    )
    assert code == 0
    parse_digraph(out)


def test_generate_defaults_p_to_one_half(capsys):
    # search requires --p; generate falls back to 0.5 on purpose
    code, out, _ = run_cli(
        capsys, "generate", "--model", "digon_free", "--n", "9", "--seed", "5", "-o", "-"
    )
    assert code == 0
    assert out == write_digraph(random_digon_free(9, 0.5, 5))
    code, _, err = run_cli(
        capsys, "search", "--mode", "random", "--model", "digon_free",
        "--n", "9", "--count", "2", "--seed", "5",
    )
    assert code == 1
    assert "needs an edge probability" in err


def test_generated_file_feeds_analyze(capsys, tmp_path):
    path = tmp_path / "g.dg"
    run_cli(capsys, "generate", "--model", "acyclic", "--n", "7",
            "--seed", "4", "--p", "0.6", "-o", str(path))
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert json.loads(out)["satisfactory_count"] >= 1


def test_bad_input_file_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.dg"
    bad.write_text("3 1\n0 0\n")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 1
    assert "loop" in err


def test_missing_file_exits_one(capsys):
    code, _, err = run_cli(capsys, "analyze", "/no/such/file.dg")
    assert code == 1


def test_usage_error_exits_one(capsys):
    assert run_cli(capsys, "search", "--mode", "upside-down", "--n", "3")[0] == 1
    assert run_cli(capsys, "frobnicate")[0] == 1


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.strip() == "0.1.0"

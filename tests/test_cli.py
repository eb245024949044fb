"""End-to-end checks of the command line front end."""

import json
import time

import pytest

from qcrystal.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_normal_form_of_longest(capsys):
    code, out, _ = run(capsys, "normal-form", "3", "2", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "qcrystal.normal_form.v1"
    assert payload["segments"] == [[1, 1], [1, 2]]
    assert payload["word"] == [1, 2, 1]
    assert payload["length"] == 3


def test_normal_form_of_identity(capsys):
    code, out, _ = run(capsys, "normal-form", "1", "2", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["segments"] == []
    assert payload["word"] == []


def test_normal_form_from_word(capsys):
    code, out, _ = run(capsys, "normal-form", "--word", "2,1", "--n", "2")
    assert code == 0
    assert json.loads(out)["images"] == [3, 1, 2]


def test_normal_form_usage_errors(capsys):
    assert run(capsys, "normal-form", "3", "3", "1")[0] == 2
    assert run(capsys, "normal-form")[0] == 2
    assert run(capsys, "normal-form", "2", "1", "--word", "1")[0] == 2
    code, _, err = run(capsys, "normal-form", "3", "3", "1")
    assert "not a permutation" in err


def test_deficit_table_anchor_and_monotone_rows(capsys):
    code, out, _ = run(
        capsys,
        "deficit-table", "--n", "2", "--word", "1",
        "--q", "0.3", "--q", "0.1", "--q", "0.01",
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    assert header[0] == "q" and header[-1] == "max_upper"
    cell = header.index("z[2][1]")
    assert float(rows[0][cell]) == 0.3
    uppers = [float(r[-1]) for r in rows]
    assert uppers[0] > uppers[1] > uppers[2]


def test_deficit_table_json_format(capsys):
    code, out, _ = run(
        capsys, "deficit-table", "--n", "2", "--q", "0.3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "qcrystal.deficit_table.v1"
    assert payload["word"] == [1, 2, 1]
    assert len(payload["rows"]) == 1


def test_deficit_table_requires_q(capsys):
    assert run(capsys, "deficit-table", "--n", "2")[0] == 2


def test_deficit_table_budget_diagnostic(capsys):
    code, _, err = run(
        capsys, "deficit-table", "--n", "2", "--dim", "200", "--q", "0.3"
    )
    assert code == 2
    assert "budget" in err


def test_verify_defaults_pass_and_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--out", str(a)]) == 0
    assert main(["verify", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report["schema"] == "qcrystal.verify.v1"
    assert set(report["config"]) == {"d", "mutated", "n", "q_values"}
    assert report["passed"] is True
    names = set(report["suites"])
    assert names == {"braid", "coassociativity", "factorization", "kernel", "unitarity"}
    for suite in report["suites"].values():
        assert suite["passed"] is True
        assert suite["max_residual"] <= suite["tolerance"]


def test_verify_mutation_hook_fails(tmp_path):
    out = tmp_path / "mut.json"
    assert main(["verify", "--self-test-mutation", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["passed"] is False
    assert report["suites"]["braid"]["passed"] is False
    assert report["config"]["mutated"] is True


def test_verify_rank_three(tmp_path):
    out = tmp_path / "n3.json"
    assert main(["verify", "--n", "3", "--dim", "4", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["d"] == 4
    assert report["passed"] is True


@pytest.mark.slow
def test_verify_rank4_passes(tmp_path):
    out = tmp_path / "n4.json"
    start = time.perf_counter()
    assert main(["verify", "--n", "4", "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start
    report = json.loads(out.read_text())
    assert report["passed"] is True
    names = set(report["suites"])
    assert names == {"braid", "coassociativity", "factorization", "kernel", "unitarity"}
    for suite in report["suites"].values():
        assert suite["passed"] is True
    assert elapsed < 30.0  # about 12 s on a 2-vCPU machine


def test_spectrum_graph_fiber(capsys):
    code, out, _ = run(capsys, "spectrum-graph", "--n", "2")
    assert code == 0
    nodes = [line for line in out.splitlines() if "[label=" in line]
    edges = [line for line in out.splitlines() if "->" in line]
    assert len(nodes) == 6
    assert len(edges) == 13
    assert sum("style=bold" in line for line in nodes) == 2
    assert "non-separated pair" in out
    code2, out2, _ = run(capsys, "spectrum-graph", "--n", "2")
    assert out2 == out


def test_spectrum_graph_reduced_and_json(capsys):
    code, out, _ = run(capsys, "spectrum-graph", "--n", "2", "--reduce")
    assert code == 0
    assert sum("->" in line for line in out.splitlines()) == 8
    code, out, _ = run(capsys, "spectrum-graph", "--n", "2", "--format", "json")
    payload = json.loads(out)
    assert payload["schema"] == "qcrystal.spectrum_graph.v1"
    assert len(payload["nodes"]) == 6
    assert len(payload["edges"]) == 13
    assert len(payload["witness"]) == 2


def test_spectrum_graph_labels_file(tmp_path, capsys):
    single = tmp_path / "one.json"
    single.write_text(json.dumps([{"t": [[1, 0], [1, 0]], "word": [1, 2, 1]}]))
    code, out, _ = run(capsys, "spectrum-graph", "--n", "2", "--labels", str(single))
    assert code == 0
    assert "->" not in out
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    code, _, err = run(capsys, "spectrum-graph", "--n", "2", "--labels", str(bad))
    assert code == 2
    assert "parse" in err
    missing = tmp_path / "nope.json"
    assert run(capsys, "spectrum-graph", "--n", "2", "--labels", str(missing))[0] == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(capsys, "bogus")[0] == 2

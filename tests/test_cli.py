"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.api.backends import available_backends
from repro.cli import build_parser, main
from repro.datasets import figure3_database, figure3_query
from repro.db import GraphDatabase, save_database
from repro.graph import graph_to_json


@pytest.fixture
def paper_files(tmp_path):
    """Database + query JSON files for the paper's worked example."""
    db_path = tmp_path / "db.json"
    query_path = tmp_path / "q.json"
    save_database(GraphDatabase.from_graphs(figure3_database(), name="fig3"), db_path)
    query_path.write_text(graph_to_json(figure3_query()), encoding="utf-8")
    return str(db_path), str(query_path)


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_skyline_command_text(paper_files, capsys):
    db_path, query_path = paper_files
    assert main(["skyline", db_path, query_path]) == 0
    out = capsys.readouterr().out
    assert "skyline: ['g1', 'g4', 'g5', 'g7']" in out
    assert "edit" in out and "union" in out


def test_skyline_command_json(paper_files, capsys):
    db_path, query_path = paper_files
    assert main(["skyline", db_path, query_path, "--json", "--refine-k", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["skyline"] == ["g1", "g4", "g5", "g7"]
    assert payload["refined"] == ["g1", "g4"]
    assert payload["vectors"]["g4"][0] == 2.0


def test_skyline_command_refine(paper_files, capsys):
    db_path, query_path = paper_files
    assert main(["skyline", db_path, query_path, "--refine-k", "2"]) == 0
    out = capsys.readouterr().out
    assert "diverse subset (k=2): ['g1', 'g4']" in out


def test_skyline_custom_measures(paper_files, capsys):
    db_path, query_path = paper_files
    assert main(["skyline", db_path, query_path, "--measures", "edit"]) == 0
    out = capsys.readouterr().out
    assert "skyline: ['g4']" in out


def test_skyline_bad_measure_is_reported(paper_files, capsys):
    db_path, query_path = paper_files
    assert main(["skyline", db_path, query_path, "--measures", "nope"]) == 1
    assert "error:" in capsys.readouterr().err


def test_topk_command(paper_files, capsys):
    db_path, query_path = paper_files
    assert main(["topk", db_path, query_path, "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "g4" in out
    assert "g3" in out  # the baseline's false positive


def test_distance_command(tmp_path, capsys):
    graphs = figure3_database()
    p1 = tmp_path / "g1.json"
    p2 = tmp_path / "g4.json"
    p1.write_text(graph_to_json(graphs[0]), encoding="utf-8")
    p2.write_text(graph_to_json(graphs[3]), encoding="utf-8")
    assert main(["distance", str(p1), str(p2)]) == 0
    out = capsys.readouterr().out
    assert "edit: 6.0000" in out
    assert "mcs:" in out and "union:" in out


def test_distance_of_a_graph_to_itself_is_zero(tmp_path, capsys):
    # A copy of the query scores zero on every measure.
    path = tmp_path / "q.json"
    path.write_text(graph_to_json(figure3_query()), encoding="utf-8")
    assert main(["distance", str(path), str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["edit", "mcs", "union"]
    assert all(line.endswith(": 0.0000") for line in lines)


def test_generate_command(tmp_path, capsys):
    out_path = tmp_path / "synthetic.json"
    assert main(["generate", str(out_path), "--n", "6", "--query-size", "5"]) == 0
    assert out_path.exists()
    assert (tmp_path / "synthetic.query.json").exists()
    from repro.db import load_database

    db = load_database(out_path)
    assert len(db) == 6


def test_generated_workload_queryable(tmp_path, capsys):
    out_path = tmp_path / "w.json"
    assert main(["generate", str(out_path), "--n", "8", "--query-size", "5"]) == 0
    capsys.readouterr()
    assert main(["skyline", str(out_path), str(tmp_path / "w.query.json")]) == 0
    assert "skyline:" in capsys.readouterr().out


def test_paper_example_command(capsys):
    """Tables I-V and the Fig. 1-2 values print exactly as committed in
    ``tests/data/paper_example.txt``; regenerate it with
    ``python -m repro paper-example > tests/data/paper_example.txt``."""
    assert main(["paper-example"]) == 0
    out = capsys.readouterr().out
    assert "GSS = ['g1', 'g4', 'g5', 'g7']" in out
    assert "diverse subset (k=2) = ['g1', 'g4']" in out
    golden = Path(__file__).parent / "data" / "paper_example.txt"
    assert out == golden.read_text(encoding="utf-8")


def test_missing_file_is_reported(tmp_path, capsys):
    assert main(["skyline", str(tmp_path / "none.json"), str(tmp_path / "q.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_distance_with_custom_measures(tmp_path, capsys):
    graphs = figure3_database()
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    p1.write_text(graph_to_json(graphs[0]), encoding="utf-8")
    p2.write_text(graph_to_json(graphs[4]), encoding="utf-8")
    assert main(["distance", str(p1), str(p2), "--measures", "mcs,union"]) == 0
    out = capsys.readouterr().out
    assert "mcs:" in out and "union:" in out and "edit:" not in out


@pytest.mark.parametrize("backend", available_backends())
def test_skyline_backend_flag(paper_files, backend, capsys):
    db_path, query_path = paper_files
    assert main(["skyline", db_path, query_path, "--backend", backend]) == 0
    assert "skyline: ['g1', 'g4', 'g5', 'g7']" in capsys.readouterr().out


def test_removed_vectorized_alias_is_a_usage_error(paper_files, capsys):
    db_path, query_path = paper_files
    with pytest.raises(SystemExit) as usage:
        main(["skyline", db_path, query_path, "--backend", "vectorized"])
    assert usage.value.code == 2
    assert "invalid choice: 'vectorized'" in capsys.readouterr().err


def test_module_entry_point_runs_in_subprocess():
    import subprocess
    import sys

    completed = subprocess.run(
        [sys.executable, "-m", "repro", "paper-example"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0
    assert "GSS = ['g1', 'g4', 'g5', 'g7']" in completed.stdout


def test_serve_smoke_in_subprocess(paper_files):
    """``python -m repro serve`` binds, answers a query, exits 0 on
    SIGINT — the CI smoke path for the serving layer."""
    import http.client
    import signal
    import subprocess
    import sys

    from repro.api.spec import GraphQuery
    from repro.datasets import figure3_query

    db_path, _ = paper_files
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", db_path,
            "--port", "0", "--max-queue", "4", "--deadline-ms", "60000",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        banner = proc.stdout.readline()
        assert banner.startswith("serving "), banner
        port = int(banner.strip().rsplit(":", 1)[1])

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        conn.request("GET", "/v1/health")
        health = json.loads(conn.getresponse().read())
        assert health["ok"] and health["graphs"] == 7

        spec = GraphQuery(graph=figure3_query(), kind="skyline")
        conn.request("POST", "/v1/query", body=json.dumps(spec.to_dict()))
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 200
        assert payload["answer"] == ["g1", "g4", "g5", "g7"]
        conn.close()
    finally:
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert "server stopped" in out


def test_serve_parser_defaults():
    parser = build_parser()
    args = parser.parse_args(["serve", "--port", "0", "--shards", "2"])
    assert args.backend == "memory"
    assert args.max_concurrency == 4
    assert args.max_queue == 16
    assert args.deadline_ms == 30_000
    assert args.shards == 2
    assert args.database is None

"""Regression: every shipped example must run to completion.

Each example is executed in-process (runpy) with stdout captured; the
assertions check for the banner lines that prove the interesting part
actually happened, so a silently-degenerate example fails loudly.
"""

import io
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str) -> str:
    buffer = io.StringIO()
    argv = sys.argv
    sys.argv = [name]
    try:
        with redirect_stdout(buffer):
            runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
    finally:
        sys.argv = argv
    return buffer.getvalue()


def test_examples_directory_complete():
    names = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    assert {
        "quickstart.py",
        "chemical_search.py",
        "custom_measures.py",
        "database_indexing.py",
        "dynamic_database.py",
        "live_view.py",
        "sharded.py",
        "serve_client.py",
    } <= names


def test_quickstart_example():
    out = run_example("quickstart.py")
    assert "answer (maximally similar in the Pareto sense):" in out
    assert "path-abcd" in out


def test_chemical_search_example():
    out = run_example("chemical_search.py")
    assert "similarity skyline:" in out
    assert "classic top-3 by edit distance:" in out


def test_custom_measures_example():
    out = run_example("custom_measures.py")
    assert "skyline growth as similarity facets are added" in out
    assert "size-gap" in out or "custom size gap" in out


def test_database_indexing_example():
    out = run_example("database_indexing.py")
    assert "index pruning effect (identical answers)" in out
    assert "compounds within DistEd <= 3:" in out


def test_dynamic_database_example():
    out = run_example("dynamic_database.py")
    assert "streaming compounds in:" in out
    assert "after deleting" in out
    assert "is in the skyline" in out


def test_live_view_example():
    out = run_example("live_view.py")
    assert "watching: <LiveView" in out
    assert "streaming compounds in:" in out
    assert "view equals a from-scratch re-query: True" in out


def test_serve_client_example():
    out = run_example("serve_client.py")
    assert "skyline over HTTP (200): ['g1', 'g4', 'g5', 'g7']" in out
    assert "watch update after insert:" in out
    assert "server exit code: 0" in out


def test_sharded_example():
    out = run_example("sharded.py")
    assert "partitioned store: <ShardedGraphDatabase" in out
    assert "sharded skyline equals monolithic: True" in out
    assert "post-mutation answers still agree with memory: True" in out

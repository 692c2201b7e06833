"""Smoke tests: every example script must run to completion.

Examples are documentation that executes; a broken example is a broken
README. Each is run in-process via runpy with stdout captured.
"""

import runpy

import pytest

EXAMPLES = [
    "examples/quickstart.py",
    "examples/gene_coexpression.py",
    "examples/custom_engine_app.py",
    "examples/query_vertex.py",
    "examples/community_detection.py",
    "examples/scalability_study.py",
]

FAST = 4

FAST_EXAMPLES = EXAMPLES[:FAST]


@pytest.mark.parametrize("path", FAST_EXAMPLES)
def test_example_runs(path, capsys):
    runpy.run_path(path, run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{path} produced no output"


def test_quickstart_recovers_plants(capsys):
    runpy.run_path("examples/quickstart.py", run_name="__main__")
    out = capsys.readouterr().out
    assert "found 3 maximal" in out
    assert "(planted)" in out


def test_gene_coexpression_recovers_modules(capsys):
    runpy.run_path("examples/gene_coexpression.py", run_name="__main__")
    out = capsys.readouterr().out
    assert "Jaccard 1.00" in out


@pytest.mark.slow
@pytest.mark.parametrize("path", EXAMPLES[FAST:])
def test_slow_example_runs(path, capsys):
    runpy.run_path(path, run_name="__main__")
    assert capsys.readouterr().out.strip()

"""Documentation is part of the contract — keep it executable and in sync.

Two enforcement layers:

1. every fenced ``python`` block in the user-facing docs is executed,
   per document, in a **subprocess** (importing engine apps registers
   them globally, and doc snippets define throwaway apps that must not
   leak into this process's registry — see the registry parity tests);
   blocks in one document share a namespace, in order, so a later
   snippet may use names a previous one defined — exactly how a reader
   would follow the page;
2. the trace-kind and span tables in ``docs/OBSERVABILITY.md`` are
   checked **bidirectionally** against ``tracing.KINDS`` and
   ``obs.spans.SPAN_NAMES``: a kind added to either the code or the doc
   without the other fails here.

Committed benchmark artifacts are held to the same rule: every file
under ``benchmarks/out/`` must still have a producer. So are the code
paths the prose cites: every backticked ``repro.…`` name must import.
And so is the public surface: every name a ``repro`` package exports
must be used by the program itself, not only by its own tests.
"""

import ast
import glob
import importlib
import os
import re
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DOC_FILES = [
    "README.md",
    "DESIGN.md",
    "docs/ALGORITHMS.md",
    "docs/API.md",
    "docs/BACKENDS.md",
    "docs/OBSERVABILITY.md",
    "docs/SERVICE.md",
    "docs/TESTING.md",
]

_FENCE = re.compile(r"```python\n(.*?)```", re.S)


def _read_doc(rel_path):
    with open(os.path.join(REPO_ROOT, rel_path), encoding="utf-8") as f:
        return f.read()


def _python_blocks(rel_path):
    return [m.group(1) for m in _FENCE.finditer(_read_doc(rel_path))]


def test_every_doc_exists():
    for rel_path in DOC_FILES:
        assert os.path.isfile(os.path.join(REPO_ROOT, rel_path)), rel_path


@pytest.mark.parametrize(
    "rel_path",
    [p for p in DOC_FILES if _python_blocks(p)],
)
def test_doc_python_blocks_execute(rel_path, tmp_path):
    """Concatenate the doc's ``python`` fences and run them as one
    script against ``src`` — stale imports, renamed arguments, or
    changed behaviour in any snippet fail loudly."""
    blocks = _python_blocks(rel_path)
    script = "\n\n".join(
        f"# --- {rel_path} block {i} ---\n{block}"
        for i, block in enumerate(blocks)
    )
    script_path = tmp_path / (rel_path.replace("/", "_") + ".py")
    script_path.write_text(script, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    # Doc snippets must run as a plain user would run them, outside
    # pytest's strict-trace mode.
    env.pop("PYTEST_CURRENT_TEST", None)
    proc = subprocess.run(
        [sys.executable, str(script_path)],
        cwd=str(tmp_path),
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, (
        f"{rel_path} snippets failed "
        f"(exit {proc.returncode})\n--- stdout ---\n{proc.stdout}"
        f"\n--- stderr ---\n{proc.stderr}"
    )


def test_every_bench_artifact_has_a_producer():
    """Every file under ``benchmarks/out/`` is written by a surviving
    ``benchmarks/bench_*.py``: its stem appears there as an
    ``out_name`` or a JSON filename. Deleting a bench must delete its
    artifacts too, or the committed numbers outlive their producer."""
    bench_dir = os.path.join(REPO_ROOT, "benchmarks")
    written = set()
    for name in os.listdir(bench_dir):
        if name.startswith("bench_") and name.endswith(".py"):
            text = _read_doc(os.path.join("benchmarks", name))
            written.update(re.findall(r'out_name="(\w+)"', text))
            written.update(re.findall(r'"(\w+)\.json"', text))
    orphans = sorted(
        name for name in os.listdir(os.path.join(bench_dir, "out"))
        if os.path.splitext(name)[0] not in written
    )
    assert not orphans, f"benchmarks/out/ files no bench writes: {orphans}"


_CODE_SPAN = re.compile(r"(?<!`)`([^`\n]+)`(?!`)")
_REPRO_NAME = re.compile(r"(?<![\w./])repro(?:\.[A-Za-z_]\w*)+")


def _cited_repro_names():
    """``{dotted name: doc}`` for every ``repro.…`` name inside an
    inline code span of docs/*.md, README.md or DESIGN.md."""
    docs = sorted(glob.glob(os.path.join(REPO_ROOT, "docs", "*.md")))
    docs += [os.path.join(REPO_ROOT, p) for p in ("README.md", "DESIGN.md")]
    cited = {}
    for path in docs:
        text = re.sub(r"```.*?```", "", _read_doc(path), flags=re.S)
        for span in _CODE_SPAN.finditer(text):
            for name in _REPRO_NAME.findall(span.group(1)):
                cited.setdefault(name, os.path.relpath(path, REPO_ROOT))
    return cited


def _resolve_dotted(name):
    """Import the longest module prefix of `name`, then walk the
    remaining parts as attributes."""
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(name)


def test_every_cited_repro_name_resolves():
    """A doc that names a removed module, class or function fails here,
    so deleting code takes its prose with it."""
    cited = _cited_repro_names()
    assert cited, "no repro.… names found; the scan itself is broken"
    stale = []
    for name, doc in sorted(cited.items()):
        try:
            _resolve_dotted(name)
        except (ImportError, AttributeError) as exc:
            stale.append(f"{doc}: `{name}` ({exc})")
    assert not stale, "docs cite removed code paths:\n" + "\n".join(stale)


def _table_kinds(section_heading):
    """First-column backticked identifiers of the markdown table that
    follows ``section_heading`` in docs/OBSERVABILITY.md."""
    text = _read_doc("docs/OBSERVABILITY.md")
    start = text.index(section_heading)
    end = text.find("\n## ", start)
    section = text[start : end if end != -1 else len(text)]
    return re.findall(r"^\| `([a-z_]+)` \|", section, re.M)


def test_observability_kind_table_matches_tracing_kinds():
    from repro.gthinker.tracing import KINDS

    documented = _table_kinds("### Trace kinds")
    assert sorted(documented) == sorted(set(documented)), "duplicate rows"
    missing = set(KINDS) - set(documented)
    extra = set(documented) - set(KINDS)
    assert not missing, f"kinds missing from docs/OBSERVABILITY.md: {missing}"
    assert not extra, f"kinds documented but not in tracing.KINDS: {extra}"


def test_observability_span_table_matches_span_names():
    from repro.gthinker.obs.spans import SPAN_NAMES

    documented = _table_kinds("## Spans")
    assert sorted(documented) == sorted(set(documented)), "duplicate rows"
    assert set(documented) == set(SPAN_NAMES)


def test_observability_metrics_table_matches_engine_metrics():
    import dataclasses

    from repro.gthinker.metrics import EngineMetrics

    text = _read_doc("docs/OBSERVABILITY.md")
    start = text.index("## `EngineMetrics`")
    end = text.find("\n## ", start + 1)
    section = text[start : end if end != -1 else len(text)]
    documented = set()
    for row in re.findall(r"^\| (`[^|]+`(?: / `[^|]+`)*) \|", section, re.M):
        documented.update(re.findall(r"`([a-z_]+)`", row))
    fields = {f.name for f in dataclasses.fields(EngineMetrics)}
    missing = fields - documented
    assert not missing, f"EngineMetrics fields missing from docs: {missing}"
    extra = documented - fields
    assert not extra, f"documented fields not on EngineMetrics: {extra}"


def test_backend_sets_agree():
    """The CLI's ``--backend`` choices, the values ``EngineConfig``
    accepts and the executors docs/BACKENDS.md's first table lists are
    one set."""
    from repro.cli import build_parser
    from repro.gthinker.config import EngineConfig

    (action,) = [a for a in build_parser()._actions if a.dest == "backend"]
    cli = set(action.choices)
    text = _read_doc("docs/BACKENDS.md")
    table = text[text.index("| backend "):]
    table = table[: table.index("\n\n")]
    documented = set(re.findall(r"^\| `([a-z_]+)` +\|", table, re.M))

    def accepted(name):
        try:
            EngineConfig(backend=name)
        except ValueError:
            return False
        return True

    candidates = cli | documented | {"threaded", "auto"}
    assert {b for b in candidates if accepted(b)} == cli == documented


#: Exported names the program itself never loads, each kept on purpose.
UNUSED_EXPORTS = {
    "is_valid_quasi_clique": "the Def. 3 predicate (γ-quasi-clique of at least min_size)",
    "registered_apps": "the app registry query",
    "missed_results": "the Quick-baseline comparison",
    "write_edge_list": "the writer of the edge-list format read_edge_list reads",
    "GraphAccess": "the vertex-store Protocol; adjacency sources match it structurally",
    "SPAN_NAMES": "the span vocabulary docs/OBSERVABILITY.md's table is checked against",
}


def _package_exports():
    """``{name: package __init__}`` over every ``__all__`` under src/repro."""
    exports = {}
    pattern = os.path.join(REPO_ROOT, "src", "repro", "**", "__init__.py")
    for path in sorted(glob.glob(pattern, recursive=True)):
        for node in ast.parse(_read_doc(path)).body:
            if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets
            ):
                for elt in node.value.elts:
                    exports.setdefault(elt.value, os.path.relpath(path, REPO_ROOT))
    return exports


def _loaded_names():
    """Every name non-test code loads (a bare name or an attribute) under
    src/repro, benchmarks/ and examples/. A definition, an import, an
    ``__all__`` string and a docstring mention are not uses."""
    used = set()
    for root in ("src/repro", "benchmarks", "examples"):
        pattern = os.path.join(REPO_ROOT, root, "**", "*.py")
        for path in glob.glob(pattern, recursive=True):
            for node in ast.walk(ast.parse(_read_doc(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return used


def test_every_export_is_used_by_the_program():
    """Code that only its own tests call is dead weight that looks alive:
    an exported name the program never uses must go, or be listed in
    UNUSED_EXPORTS with the reason it stays."""
    exports = _package_exports()
    assert "mine_parallel" in exports, "the __all__ scan itself is broken"
    used = _loaded_names()
    unused = sorted(
        f"{pkg}: {name}" for name, pkg in exports.items()
        if name not in used and name not in UNUSED_EXPORTS
    )
    assert not unused, "exported but used only by tests:\n" + "\n".join(unused)
    stale = sorted(n for n in UNUSED_EXPORTS if n in used or n not in exports)
    assert not stale, f"UNUSED_EXPORTS entries that no longer apply: {stale}"

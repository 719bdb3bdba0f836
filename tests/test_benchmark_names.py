"""Every qnl name the benchmark reaches still resolves.

``perfbench/spans.py`` wraps (module, attribute) pairs by name, and the other
benchmark files import names from qnl or read them as ``qnl.module.name``. A
traced benchmark run crashes on a name removed from ``src/``; this test fails
first. The benchmark files are read, not changed: spans.py is loaded from its
path and the rest are parsed with ``ast``.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def traced_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(t[0], t[1]) for t in (*spans.TARGETS, spans.DRAW, spans.CSV)]


def _is_qnl(module: str | None) -> bool:
    return (module or "").split(".")[0] == "qnl"


def imported_names() -> list[tuple[str, str]]:
    """(module, name) of every qnl import and ``qnl.module.name`` read; name "" for a module."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and _is_qnl(node.module):
                found += [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(alias.name, "") for alias in node.names if _is_qnl(alias.name)]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                  and isinstance(node.value.value, ast.Name) and node.value.value.id == "qnl"):
                found.append((f"qnl.{node.value.attr}", node.attr))
    return found


TRACED = traced_names()
IMPORTED = imported_names()


def test_both_lists_are_read():
    assert TRACED and all(_is_qnl(module) for module, _ in TRACED)
    assert IMPORTED


@pytest.mark.parametrize("module,name", sorted(set(TRACED) | set(IMPORTED)),
                         ids=lambda v: v or "module")
def test_name_resolves(module, name):
    mod = importlib.import_module(module)
    assert not name or hasattr(mod, name), f"{module}.{name}"

"""Source hygiene: every name a module imports is used by that module,
and the triangle layer writes no vertex-pair key by hand.

The import rule covers the library and `tests/engine.py`, the tests'
message-passing engine."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "congestlab"
ENGINE = Path(__file__).resolve().parent / "engine.py"

# (module, name) -> why the binding stays although the module never reads it
KEPT = {
    ("routing", "induced_subgraph"): (
        "perfbench/test_run.py asserts that routing.induced_subgraph is the"
        " binding its span wrapper replaces"
    ),
}


def imported_names(tree):
    """Each name an import statement binds, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Names the module reads: every bare name in its code (an attribute
    read starts from one), and the strings of `__all__`, a package's
    re-exports. A name seen only inside a string annotation does not
    count."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(text: str, module: str):
    tree = ast.parse(text)
    used = used_names(tree)
    return [
        f"{module}.py:{line} imports {name}, which it never uses"
        for name, line in imported_names(tree)
        if name not in used and (module, name) not in KEPT
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + [ENGINE], ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(), path.stem) == []


def test_kept_bindings_are_still_imported():
    for module, name in KEPT:
        tree = ast.parse((SRC / f"{module}.py").read_text())
        assert name in dict(imported_names(tree)), (module, name)


def test_an_unused_import_is_caught():
    text = (SRC / "runtime.py").read_text()
    assert unused_imports("import os\n" + text, "runtime") == [
        "runtime.py:1 imports os, which it never uses"
    ]
    assert unused_imports("import os.path\nos.sep\n", "m") == []
    assert unused_imports("from . import runtime as rt\n", "m") == [
        "m.py:1 imports rt, which it never uses"
    ]


# a key lo * n + hi spelled out from row columns, from a, b, c, from lo
# or from a call's result
HAND_KEY = re.compile(r"\[:, ?[0-9a-z]\] \* g\.n|\b[abc] \* g\.n|\blo \* g\.n|\) \* g\.n \+")


def hand_written_keys(text: str):
    lines = enumerate(text.splitlines(), 1)
    return [f"{i}: {line.strip()}" for i, line in lines if HAND_KEY.search(line)]


def test_triangle_keys_come_from_the_pair_key_helper():
    """Edge keys of triangle and occurrence rows come from `_pair_keys`."""
    assert hand_written_keys((SRC / "triangle.py").read_text()) == []


@pytest.mark.parametrize("module", ["decomposition.py", "graphcore.py"])
def test_edge_row_keys_come_from_the_pair_key_helper(module):
    """Keys of edge rows in the decomposition and graph layers come from
    `_pair_keys` too."""
    assert hand_written_keys((SRC / module).read_text()) == []


def test_a_hand_written_key_is_caught():
    text = (
        "x = rows[:, 0] * g.n + rows[:, 1]\nk = a * g.n + c\nok = _pair_keys(rows, g.n)\n"
        "keys = lo * g.n + hi\ny = np.minimum(a, b) * g.n + np.maximum(a, b)\n"
    )
    assert hand_written_keys(text) == [
        "1: x = rows[:, 0] * g.n + rows[:, 1]",
        "2: k = a * g.n + c",
        "4: keys = lo * g.n + hi",
        "5: y = np.minimum(a, b) * g.n + np.maximum(a, b)",
    ]

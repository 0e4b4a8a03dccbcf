"""Every module-level function in ``src/`` has a caller there, or is an entry point.

Entry points are where programs outside the package start: the console
script's function (``[project.scripts]`` in pyproject.toml) and the
functions that the benchmark harness in ``perfbench/`` imports. The verbs
that the console script dispatches to are read by ``cli.build_parser``, so
they have a caller. A function counts as called when code in ``src/`` other
than its own body reads its name, as a name or as an attribute. The check
goes by name: a helper whose name is also read as an attribute elsewhere
passes unnoticed, but a dead helper with a name of its own fails here.
"""

import ast
import re
import shutil
from pathlib import Path

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "hopfcyclic"


def entry_points():
    """The console script's function and every name perfbench imports from the package."""
    scripts = re.findall(r'=\s*"hopfcyclic\.\w+:(\w+)"', (ROOT / "pyproject.toml").read_text())
    harness = {alias.name
               for path in (ROOT / "perfbench").glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hopfcyclic")
               for alias in node.names}
    return set(scripts) | harness


def unreached(src, entries):
    """``file:function`` for each module-level function of ``src`` that nothing else reads."""
    defined, readers = [], {}
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            owner = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((path.name, top.name))
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None:
                    readers.setdefault(name, set()).add((path.name, owner))
    return [f"{fname}:{name}" for fname, name in defined
            if name not in entries and not readers.get(name, set()) - {(fname, name)}]


def test_every_function_in_src_is_reached():
    assert unreached(SRC, entry_points()) == []


def test_planted_unused_helpers_are_found(tmp_path):
    tree = tmp_path / "hopfcyclic"
    shutil.copytree(SRC, tree, ignore=shutil.ignore_patterns("__pycache__"))
    with open(tree / "linalg.py", "a") as fh:
        fh.write("\n\ndef _planted_helper(n):\n    return _planted_helper(n - 1) if n else 0\n")
    with open(tree / "regular.py", "a") as fh:
        fh.write("\n\ndef planted_public(x):\n    return x\n")
    assert unreached(tree, entry_points()) == ["linalg.py:_planted_helper",
                                              "regular.py:planted_public"]


def test_entry_points_are_the_script_and_the_harness_imports():
    entries = entry_points()
    assert "main" in entries
    assert {"regular_module_coalgebra", "sweedler_h4"} <= entries

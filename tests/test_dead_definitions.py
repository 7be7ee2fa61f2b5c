"""Gate: every private function and class in the package is used.

A private definition is a function, method or class whose name has one
leading underscore (`_grow`, not `__init__`). It counts as used when some
module of the package names it outside its own definition: as a bare
name, as an attribute (`split._split_pays`) or in an import
(`from .imputers import _finish`). Names are matched as strings, across
all modules at once.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "imputebench"
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _references(tree) -> Counter:
    """Every name `tree` reads, as a bare name, an attribute or an imported name."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.split(".")[-1]] += 1
    return names


def dead_definitions(sources: dict) -> list:
    """(module, line, name) of each private definition in `sources` (module
    name -> source) that no module references outside the definition itself."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    return sorted(
        (module, node.lineno, node.name)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, DEFINITIONS)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and used[node.name] - _references(node)[node.name] == 0
    )


def test_dead_definitions_finder():
    sources = {
        "a": (
            "from .b import _imported\n"
            "def _called():\n"
            "    return 1\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else 0\n"
            "class _Unused:\n"
            "    def __init__(self):\n"
            "        pass\n"
            "    def _method(self):\n"
            "        return _called()\n"
            "class Public:\n"
            "    def _helper(self):\n"
            "        return 2\n"
            "    def run(self):\n"
            "        return self._helper()\n"
        ),
        "b": (
            "import a\n"
            "def _imported():\n"
            "    return a._patched\n"
            "def _patched():\n"
            "    return 3\n"
        ),
    }
    assert dead_definitions(sources) == [
        ("a", 4, "_recursive"),
        ("a", 6, "_Unused"),
        ("a", 9, "_method"),
    ]


def test_no_dead_private_definitions():
    sources = {
        path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))
    }
    assert dead_definitions(sources) == []

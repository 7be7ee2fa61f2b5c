"""Gate: every module-level import in the package and the tests is used.

A name bound by a top-level `import` counts as used when the module reads
it (as a bare name or the root of an attribute chain) or lists it in
`__all__`. `__init__.py` files re-export by design and are skipped, as are
`from __future__` imports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED_DIRS = (ROOT / "src" / "imputebench", ROOT / "tests")


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that nothing in `source` uses."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_unused_imports_finder():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import numpy as np\n"
        "from json import dumps, loads\n"
        "from math import pi\n"
        "__all__ = ['pi']\n"
        "def f():\n"
        "    import sys\n"
        "    return np.zeros(1), loads\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "osp"), (5, "dumps")]


def test_no_unused_module_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for directory in CHECKED_DIRS
        for path in sorted(directory.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []

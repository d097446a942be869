"""Names under ``src/fedpart/`` are used: no unused imports, no test-only API;
``tests/`` has no unused imports either. The worker pool's modules stay off
the import path of ``fedpart.cli``.

No linter is installed, so these are stdlib ``ast`` checks.
"""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fedpart"
TESTS = ROOT / "tests"


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")), ids=lambda p: p.name
)
def test_every_imported_name_is_used(path):
    assert unused_imports(path) == []


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("import os\nfrom sys import argv, path\nprint(path)\n", encoding="utf-8")
    assert unused_imports(module) == ["mod.py:1: os", "mod.py:2: argv"]


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module):
    """Top-level functions, classes and assigned names, and the classes'
    methods; names of the form ``__*__`` are exempt."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not _dunder(target.id):
                    yield target.id, node
            continue
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _dunder(item.name):
                    yield f"{node.name}.{item.name}", item


def mentions(node: ast.AST) -> Counter:
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def unused_definitions(sources: list[Path], definers: list[Path]) -> list[str]:
    """Definitions in ``definers`` that no file of ``sources`` mentions by name
    outside the definition itself; ``__init__.py`` re-exports do not count."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    used = sum((mentions(tree) for path, tree in trees.items()
                if path.name != "__init__.py"), Counter())
    unused = []
    for path in definers:
        for qualname, node in definitions(trees[path]):
            name = qualname.rsplit(".", 1)[-1]
            if used[name] - mentions(node)[name] <= 0:
                unused.append(f"{path.name}: {qualname}")
    return unused


def test_every_definition_has_a_user_outside_the_tests():
    sources = sorted(SRC.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    assert unused_definitions(sources, sorted(SRC.glob("*.py"))) == []


def test_the_check_sees_test_only_api(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "__version__ = '1'\nLIMIT = 3\nSPARE: int = 4\n\n"
        "def helper():\n    return helper() + LIMIT\n\n"
        "class Box:\n    def __init__(self):\n        self.size = 1\n\n"
        "    def used(self):\n        return self.size\n\n"
        "    def unused(self):\n        return self.used()\n\n"
        "Box()\n",
        encoding="utf-8",
    )
    init = tmp_path / "__init__.py"
    init.write_text("from .mod import Box, helper\nhelper()\n", encoding="utf-8")
    assert unused_definitions([module, init], [module]) == [
        "mod.py: SPARE", "mod.py: helper", "mod.py: Box.unused"
    ]


POOL_ONLY = ("multiprocessing", "traceback")  # the worker pool's modules


def module_level_imports(path: Path) -> list[str]:
    """Modules a file imports when it is imported: outside every function body."""
    found = []
    stack = list(ast.parse(path.read_text(encoding="utf-8")).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [f"{path.name}:{node.lineno}: {alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(f"{path.name}:{node.lineno}: {node.module}")
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_no_module_imports_the_pool_at_module_level():
    imported = [entry for path in sorted(SRC.glob("*.py")) for entry in module_level_imports(path)]
    assert [e for e in imported if e.rsplit(": ", 1)[1].split(".")[0] in POOL_ONLY] == []


def test_the_pool_check_sees_a_module_level_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import os\nif os.name:\n    from multiprocessing import Pool\n\n"
        "class A:\n    import traceback\n\n"
        "def run():\n    import multiprocessing\n",
        encoding="utf-8",
    )
    assert sorted(module_level_imports(module)) == [
        "mod.py:1: os", "mod.py:3: multiprocessing", "mod.py:6: traceback"
    ]


def test_importing_the_cli_loads_no_pool_module():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import fedpart.cli; "
        f"print(sorted(m for m in {POOL_ONLY!r} if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC.parent)],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out.strip() == "[]"

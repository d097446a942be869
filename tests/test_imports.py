"""Names under ``src/fedpart/`` are used: no unused imports, no test-only API,
no parameter its function never reads, and no parameter default beyond an
allow-list (config values arrive as arguments); ``tests/`` has no unused
imports either. The worker pool's modules stay off the import path of
``fedpart.cli``, the network imports nothing from ``fedpart``, the
federation does not import the network, and no module reads the process
environment (settings come from the config and the command line).

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


def fedpart_imports(path: Path) -> list[str]:
    """Modules of ``fedpart`` a file imports anywhere, relative ones as written."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if alias.name.split(".")[0] == "fedpart"]
        elif isinstance(node, ast.ImportFrom) and node.level:
            dots = "." * node.level
            names = [dots + node.module] if node.module else [dots + a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "fedpart":
            names = [node.module]
        else:
            continue
        found += [f"{path.name}:{node.lineno}: {name}" for name in names]
    return found


def test_the_network_imports_nothing_from_fedpart():
    assert fedpart_imports(SRC / "network.py") == []


def test_the_federation_does_not_import_the_network():
    """The master draws initial weights through the builder, not a ``QNetwork``."""
    imported = fedpart_imports(SRC / "federation.py")
    assert [e for e in imported if e.rsplit(".", 1)[-1] == "network"] == []


def test_the_fedpart_import_check_sees_every_form(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import numpy\nimport fedpart.env\nfrom fedpart.network import QNetwork\n"
        "from . import network\n\ndef f():\n    from ..agent import DQNAgent\n",
        encoding="utf-8",
    )
    assert fedpart_imports(module) == [
        "mod.py:2: fedpart.env", "mod.py:3: fedpart.network", "mod.py:4: .network",
        "mod.py:7: ..agent",
    ]


ENVIRONMENT_READERS = ("environ", "environb", "getenv", "getenvb")


def environment_reads(path: Path) -> list[str]:
    """Each ``os.environ``, ``os.getenv`` (or bytes twin) a file reads, by
    attribute or imported by name, in line order."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"os.{alias.name}") for alias in node.names
                      if alias.name in ENVIRONMENT_READERS]
    return [f"{path.name}:{line}: {name}" for line, name in sorted(found)]


def test_no_module_reads_the_environment():
    assert [entry for path in sorted(SRC.glob("*.py")) for entry in environment_reads(path)] == []


def test_the_environment_check_sees_every_form(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import os\nroot = os.environ.get('ROOT', '')\nfrom os import getenv, path\n"
        "out = os.path.join(root, 'x')\n\ndef f():\n    return os.getenv('A') or os.environb\n",
        encoding="utf-8",
    )
    assert environment_reads(module) == [
        "mod.py:2: os.environ", "mod.py:3: os.getenv",
        "mod.py:7: os.environb", "mod.py:7: os.getenv",
    ]


def functions(node: ast.AST, prefix: str = ""):
    """Each function, method and lambda under ``node``, as ``(dotted name, node)``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = f"{prefix}{getattr(child, 'name', '<lambda>')}"
            yield name, child
            yield from functions(child, f"{name}.")
        else:
            yield from functions(child, prefix)


def unread_parameters(path: Path) -> list[str]:
    """Parameters, other than ``self`` and ``cls``, that their function never reads."""
    found = []
    for name, fn in functions(ast.parse(path.read_text(encoding="utf-8"))):
        a = fn.args
        params = [
            p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg)
            if p is not None and p.arg not in ("self", "cls")
        ]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        nodes = [n for stmt in body for n in ast.walk(stmt)]
        read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= {n.target.id for n in nodes  # ``x += 1`` reads ``x``
                 if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)}
        found.extend(f"{path.name}: {name}({p})" for p in params if p not in read)
    return found


# The builder protocol passes every builder the agent index; this one needs only the seed.
UNREAD_BY_PROTOCOL = ["runner.py: AgentBuilder.build(index)"]


def test_every_parameter_is_read():
    unread = [entry for path in sorted(SRC.glob("*.py")) for entry in unread_parameters(path)]
    assert unread == UNREAD_BY_PROTOCOL


def test_the_parameter_check_sees_an_unread_parameter(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "def f(a, b, *rest, c=1, d=0, **kw):\n    d += 1\n    return a + c\n\n"
        "class A:\n    def m(self, x, y):\n        def inner(z):\n            return y\n"
        "        return inner\n\n"
        "key = lambda row, unused: row\n",
        encoding="utf-8",
    )
    assert unread_parameters(module) == [
        "mod.py: f(b)", "mod.py: f(rest)", "mod.py: f(kw)",
        "mod.py: A.m(x)", "mod.py: A.m.inner(z)", "mod.py: <lambda>(unused)",
    ]


def parameter_defaults(path: Path) -> list[str]:
    """Every parameter default, as ``file: function(parameter=default)``."""
    found = []
    for name, fn in functions(ast.parse(path.read_text(encoding="utf-8"))):
        a = fn.args
        positional = [*a.posonlyargs, *a.args]
        pairs = [*zip(positional[len(positional) - len(a.defaults):], a.defaults),
                 *((p, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)]
        found.extend(f"{path.name}: {name}({p.arg}={ast.unparse(d)})" for p, d in pairs)
    return found


# Each of these has more than one value in use, or is a constant rather than a
# config value; everything the config sets is a required argument.
KEPT_DEFAULTS = [
    "cli.py: main(argv=None)",
    "metrics.py: MovingViolations.__init__(window=1000)",
    "network.py: QNetwork.forward_cached(rng=None)",
    "network.py: AdamOptimizer.__init__(beta1=0.9)",
    "network.py: AdamOptimizer.__init__(beta2=0.999)",
    "network.py: AdamOptimizer.__init__(eps=1e-08)",
    "profiles.py: _isclose(rtol=1e-05)",
    "profiles.py: _isclose(atol=1e-08)",
    "profiles.py: _number(kind=float)",
]


def test_only_the_kept_parameter_defaults_remain():
    found = [entry for path in sorted(SRC.glob("*.py")) for entry in parameter_defaults(path)]
    assert sorted(found) == sorted(KEPT_DEFAULTS)


def test_the_default_check_sees_every_default(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "def f(a, p=0, /, b=1, *rest, c, d=None, **kw):\n    return a\n\n"
        "class A:\n    def m(self, x=(1, 2)):\n        def inner(z=0.5):\n            return z\n"
        "        return inner\n\n"
        "key = lambda row, k=len: row\n",
        encoding="utf-8",
    )
    assert parameter_defaults(module) == [
        "mod.py: f(p=0)", "mod.py: f(b=1)", "mod.py: f(d=None)", "mod.py: A.m(x=(1, 2))",
        "mod.py: A.m.inner(z=0.5)", "mod.py: <lambda>(k=len)",
    ]

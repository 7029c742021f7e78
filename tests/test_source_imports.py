"""Every name a package module imports from the package is used, and
every public function and class of the package has a caller.

No linter is part of the toolchain, so this is the check for unused
relative imports: each ``src/leopart/*.py`` is parsed with ``ast``, and a
name bound by ``from . import …`` or ``from .module import …`` must be
read somewhere in the module. An import line marked ``# noqa: F401`` is a
deliberate re-export and is exempt.

The public-API inventory parses ``src/`` and ``perfbench/`` the same way:
a public module-level ``def`` or ``class`` must be named, as an
``ast.Name`` or ``ast.Attribute``, outside its own definition, or be one of
the ``TEST_ONLY`` names that only the tests call.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "leopart"

# Public names that only the tests call: the closed-form oracles and
# readers the tests check the package against, and the backward pass that
# the benchmark times as a layer of its own.
TEST_ONLY = {"config.default_config_text", "crops.align_backward", "render.read_ppm"}


def unused_relative_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each relative-import name that *source* never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                name = alias.asname or alias.name
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append((alias.lineno, name))
    return unused


def test_finds_an_unused_relative_import_and_honours_noqa():
    source = ("from . import crops, model as m, optim\n"
              "from .tensor_io import Dataset  # noqa: F401\n"
              "from .tensor_io import load_dataset\n"
              "import numpy\n"
              "def f():\n"
              "    return optim.adam_step, numpy\n")
    assert unused_relative_imports(source) == [(1, "crops"), (1, "m"), (3, "load_dataset")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_relative_import_is_used(path):
    assert unused_relative_imports(path.read_text()) == []


def uncalled_public_names(sources: dict[str, str], modules: set[str]) -> set[str]:
    """``module.name`` of each public module-level def or class of the
    *modules* (keys of *sources*, path -> text, by stem) that no source
    names outside the definition itself."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    refs = [(path, node.attr if isinstance(node, ast.Attribute) else node.id, node.lineno)
            for path, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    uncalled = set()
    for path in modules:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            if not any(name == node.name
                       and not (where == path and node.lineno <= line <= node.end_lineno)
                       for where, name, line in refs):
                uncalled.add(f"{Path(path).stem}.{node.name}")
    return uncalled


def test_finds_an_uncalled_public_name():
    sources = {"a.py": ("def used():\n    return helper\n"
                        "def helper():\n    return helper()\n"
                        "def _private():\n    pass\n"
                        "class Unused:\n    def used(self):\n        return Unused\n"),
               "b.py": "import a\nx = a.used()\n"}
    assert uncalled_public_names(sources, {"a.py"}) == {"a.Unused"}


def test_every_public_name_has_a_caller_or_is_test_only():
    """A public def or class that nothing in the package or the benchmark
    names is dead code, unless it is a test-only name; a test-only name
    that gains a caller or disappears must leave ``TEST_ONLY``."""
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    sources = {str(p): p.read_text() for p in paths}
    modules = {str(p) for p in SRC.glob("*.py")}
    assert uncalled_public_names(sources, modules) == TEST_ONLY

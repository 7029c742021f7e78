"""Every name a package module imports from the package is used.

No linter is part of the toolchain, so this is the check for unused
relative imports: each ``src/leopart/*.py`` is parsed with ``ast``, and a
name bound by ``from . import …`` or ``from .module import …`` must be
read somewhere in the module. An import line marked ``# noqa: F401`` is a
deliberate re-export and is exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "leopart"


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

"""Modules share code through public names only and import no numpy."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "deflab"


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "deflab"
        private_module = any(is_private(part) for part in (node.module or "").split("."))
        for alias in node.names:
            if internal and (private_module or is_private(alias.name)):
                found.append(f"{path.name}:{node.lineno} imports {alias.name}")
    return found


def test_no_module_imports_a_private_name_from_another():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    offences = [hit for path in modules for hit in private_imports(path)]
    assert offences == []


def test_checker_flags_private_imports(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from .coset import _hidden, public\n"
        "def f():\n"
        "    from deflab.lowindex import _Search\n"
        "from . import __version__\n"
        "from numpy import _private\n"
    )
    assert private_imports(bad) == [
        "bad.py:1 imports _hidden",
        "bad.py:3 imports _Search",
    ]


def numpy_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        for name in names:
            if name.split(".")[0] == "numpy":
                found.append(f"{path.name}:{node.lineno} imports {name}")
    return found


def test_no_module_imports_numpy():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    offences = [hit for path in modules for hit in numpy_imports(path)]
    assert offences == []


def test_checker_flags_numpy_imports(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy as np\n"
        "import os, numpy.linalg\n"
        "def f():\n"
        "    from numpy import array\n"
        "from .numpy import helper\n"
        "import numpyish\n"
    )
    assert numpy_imports(bad) == [
        "bad.py:1 imports numpy",
        "bad.py:2 imports numpy.linalg",
        "bad.py:4 imports numpy",
    ]

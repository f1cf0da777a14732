"""Modules share code through public names only, import no numpy, define
nothing that the package itself never uses, add no assert statements, leave
the multiplication table to the bar oracle, keep every name the benchmark's
tracer wraps, and bind no ALL_CAPS constant as a parameter default."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "deflab"


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


def unreferenced_definitions(paths):
    """Module-level functions and classes that no other code in paths names.

    A name counts as referenced when it appears as a name, an attribute or an
    imported name anywhere outside its own definition, so re-exports from
    __init__ count and recursion does not.
    """
    defined, used = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            if own:
                defined.append((f"{path.name}:{stmt.lineno}", own))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    used.add(name)
    return [f"{where} {name}" for where, name in defined if name not in used]


def test_every_definition_is_used_by_the_package():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    assert unreferenced_definitions(modules) == []


def test_checker_flags_unreferenced_definitions(tmp_path):
    (tmp_path / "a.py").write_text(
        "def exported():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return 1\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "class Orphan:\n"
        "    def method(self):\n"
        "        return Orphan\n"
        "def via_attribute():\n"
        "    pass\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import exported\n"
        "from . import a\n"
        "x = a.via_attribute\n"
    )
    assert unreferenced_definitions(sorted(tmp_path.glob("*.py"))) == [
        "a.py:5 recursive",
        "a.py:7 Orphan",
    ]


# assert statements per module of the package.  python -O strips them, so a
# load-bearing check raises instead; a count here may fall, never rise.
ASSERT_CEILINGS = {}


def assert_counts(paths):
    """Number of assert statements in each file that has any."""
    counts = {}
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        n = sum(isinstance(node, ast.Assert) for node in ast.walk(tree))
        if n:
            counts[path.name] = n
    return counts


def asserts_over_ceiling(paths, ceilings):
    return {
        name: n for name, n in assert_counts(paths).items() if n > ceilings.get(name, 0)
    }


def test_assert_counts_do_not_grow():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    assert asserts_over_ceiling(modules, ASSERT_CEILINGS) == {}


def test_checker_counts_assert_statements(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""assert in a docstring is not a statement."""\n'
        "assert True\n"
        "def f(x):\n"
        "    assert x, 'message'  # assert x\n"
        "    class C:\n"
        "        def g(self):\n"
        "            assert self\n"
        "    return 'assert'\n"
    )
    (tmp_path / "b.py").write_text("if __debug__:\n    raise ValueError('checked')\n")
    (tmp_path / "c.py").write_text("assert 1\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert assert_counts(paths) == {"a.py": 3, "c.py": 1}
    assert asserts_over_ceiling(paths, {"a.py": 3}) == {"c.py": 1}
    assert asserts_over_ceiling(paths, {"a.py": 2, "c.py": 1}) == {"a.py": 3}


# the order x order multiplication table serves only the bar oracle in
# modp.py; quotient.py defines it
MULT_READERS = ("modp.py", "quotient.py")


def mult_reads(paths, allowed=MULT_READERS):
    """Each `.mult` attribute read in a file outside allowed."""
    found = []
    for path in paths:
        if path.name in allowed:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "mult":
                found.append(f"{path.name}:{node.lineno} reads mult")
    return found


def test_only_the_bar_oracle_reads_the_multiplication_table():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    assert mult_reads(modules) == []


def test_checker_flags_mult_reads(tmp_path):
    (tmp_path / "chain.py").write_text(
        '"""q.mult in a docstring is not a read."""\n'
        "def f(q, mult):\n"
        "    table = q.mult\n"
        "    return mult, q.multiply, getattr(q, 'mult_')\n"
        "x = f(1, 2).mult[0][1]\n"
    )
    (tmp_path / "modp.py").write_text("def bar(group):\n    return group.mult\n")
    assert mult_reads(sorted(tmp_path.glob("*.py"))) == [
        "chain.py:3 reads mult",
        "chain.py:5 reads mult",
    ]


def traced_names(path):
    """The (module, qualified name) pairs of the SPANS list in a tracing file,
    read with ast so the file is not imported."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError(f"{path.name} defines no SPANS list")


def unresolved_names(pairs):
    """Each (module, qualname) that does not name an attribute under deflab."""
    missing = []
    for module, qualname in pairs:
        try:
            obj = importlib.import_module(f"deflab.{module}")
        except ImportError:
            missing.append(f"{module}.{qualname}")
            continue
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{module}.{qualname}")
    return missing


def test_every_traced_name_exists():
    pairs = traced_names(ROOT / "perfbench" / "tracing.py")
    assert len(pairs) > 20
    assert unresolved_names(pairs) == []


def test_checker_flags_missing_traced_names(tmp_path):
    tracing = tmp_path / "tracing.py"
    tracing.write_text(
        "SPANS = [\n"
        '    ("cli", "main", None),\n'
        '    ("coset", "no_such_walk", _count),\n'
        '    ("linalg", "SNFResult.no_such_method", None),\n'
        '    ("no_such_module", "f", None),\n'
        "]\n"
    )
    pairs = traced_names(tracing)
    assert pairs[0] == ("cli", "main")
    assert unresolved_names(pairs) == [
        "coset.no_such_walk",
        "linalg.SNFResult.no_such_method",
        "no_such_module.f",
    ]


def constant_defaults(paths):
    """Each parameter default that names an ALL_CAPS constant.  A default
    binds when the module is imported, so a later change to the constant
    never reaches it; read the constant in the body instead."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for default in node.args.defaults + [d for d in node.args.kw_defaults if d]:
                for sub in ast.walk(default):
                    name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", "")
                    if name.isupper():
                        found.append(f"{path.name}:{default.lineno} default names {name}")
    return found


def test_no_parameter_default_names_a_constant():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    assert constant_defaults(modules) == []


def test_checker_flags_constant_defaults(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from . import lowindex\n"
        "LIMIT = 10\n"
        "def f(n=LIMIT, *, m=lowindex.MAX_NODES, k=None, s='LIMIT', t=min(LIMIT, 2)):\n"
        "    return lambda x=LIMIT: x\n"
        "def g(limit=10, label=Limit, policy=lowindex.raise_on):\n"
        "    return LIMIT\n"
    )
    assert constant_defaults([bad]) == [
        "bad.py:3 default names LIMIT",
        "bad.py:3 default names MAX_NODES",
        "bad.py:3 default names LIMIT",
        "bad.py:4 default names LIMIT",
    ]

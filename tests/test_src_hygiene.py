"""Every top-level function and class of the package has a use: code in
src/wallflow refers to it outside its own definition, the package exports
it in ``__all__``, or README.md names it.  A helper whose only caller is a
test belongs in tests/oracles.py.  The sources are read, not imported."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _names_used(node):
    """Every name a piece of code refers to: plain names, attributes and
    imported names."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name)
    return used


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_definitions(root=ROOT):
    """``file:name`` of each top-level def or class with no use in the
    tree at ``root``."""
    modules = {path.name: ast.parse(path.read_text())
               for path in sorted((root / "src" / "wallflow").glob("*.py"))}
    # (file, top-level node, names it uses) for every top-level node
    parts = [(name, node, _names_used(node))
             for name, tree in modules.items() for node in tree.body]
    exported = _exported(modules["__init__.py"])
    readme = (root / "README.md").read_text()
    unused = []
    for fname, node, _ in parts:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        used = any(node.name in names for _, other, names in parts
                   if other is not node)
        if not (used or node.name in exported
                or re.search(rf"\b{re.escape(node.name)}\b", readme)):
            unused.append(f"{fname}:{node.name}")
    return unused


def test_every_definition_has_a_use_outside_tests():
    assert unused_definitions() == []


def test_the_check_sees_a_helper_with_no_use(tmp_path):
    pkg = tmp_path / "src" / "wallflow"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("__all__ = ['api']\n")
    (pkg / "a.py").write_text(
        "def api():\n    return _helper()\n\n\n"
        "def _helper():\n    return 1\n\n\n"
        "def documented():\n    return 2\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n")
    (tmp_path / "README.md").write_text("Call `documented()`.\n")
    # a call from inside its own definition is no use
    assert unused_definitions(tmp_path) == ["a.py:recursive"]


def unused_imports(root=ROOT):
    """``file:name`` of each name a module of the package or a file of the
    tests imports and its code never names; a name in the package's
    ``__init__.py``'s ``__all__`` is a use."""
    unused = []
    for path in (sorted((root / "src" / "wallflow").glob("*.py"))
                 + sorted((root / "tests").glob("*.py"))):
        tree = ast.parse(path.read_text())
        imported = [alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names]
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            used |= _exported(tree)
        unused += [f"{path.name}:{name}" for name in imported
                   if name not in used]
    return unused


def test_every_import_has_a_use():
    assert unused_imports() == []


def test_the_check_sees_an_import_with_no_use(tmp_path):
    pkg = tmp_path / "src" / "wallflow"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        "from .a import api, spare\n\n__all__ = ['api']\n")
    (pkg / "a.py").write_text(
        "import os.path\nimport numpy as np\nfrom . import b, c\n\n\n"
        "def api():\n    return np.zeros(b.N) if os.path else None\n\n\n"
        "def spare():\n    return 'c'\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_a.py").write_text(
        "import pytest\nimport scipy.sparse as sp\n\nfrom wallflow import a\n"
        "\n\n@pytest.mark.slow\ndef test_api():\n    assert a.api()\n")
    assert unused_imports(tmp_path) == ["__init__.py:spare", "a.py:c",
                                        "test_a.py:sp"]


def environment_reads(root=ROOT):
    """``file`` of each module of the package whose code names ``environ``
    or ``getenv``, as a plain name, an attribute or an imported name."""
    return [path.name
            for path in sorted((root / "src" / "wallflow").glob("*.py"))
            if _names_used(ast.parse(path.read_text()))
            & {"environ", "getenv"}]


def test_no_module_reads_the_environment():
    assert environment_reads() == []


def lu_constructors(root=ROOT):
    """``file`` of each module of the package whose code names
    ``DirectFactor`` or ``splu`` outside ``sparsela.py``, or
    ``ReusedFactorSolver`` outside ``sparsela.py`` and ``driver.py``: every
    LU is formed in ``sparsela``, a constant system's by
    ``sparsela.constant_solver``, and ``driver.run`` builds a run's one
    ``ReusedFactorSolver``, the fluid step's."""
    names = {"DirectFactor", "splu", "ReusedFactorSolver"}
    allowed = {"sparsela.py": names, "driver.py": {"ReusedFactorSolver"}}
    return [path.name
            for path in sorted((root / "src" / "wallflow").glob("*.py"))
            if _names_used(ast.parse(path.read_text()))
            & (names - allowed.get(path.name, set()))]


def test_only_sparsela_constructs_an_lu():
    assert lu_constructors() == []


def test_the_check_sees_an_lu_outside_sparsela(tmp_path):
    pkg = tmp_path / "src" / "wallflow"
    pkg.mkdir(parents=True)
    (pkg / "sparsela.py").write_text(
        "from scipy.sparse.linalg import splu\n\n\n"
        "class DirectFactor:\n    pass\n")
    (pkg / "a.py").write_text(
        "from . import sparsela\n\n\n"
        "def f(m):\n    return sparsela.DirectFactor(m)\n")
    (pkg / "b.py").write_text(
        "import scipy.sparse.linalg as spla\n\n\n"
        "def g(m):\n    return spla.splu(m)\n")
    (pkg / "c.py").write_text("# splu and DirectFactor, in words only\n")
    (pkg / "driver.py").write_text(
        "from .sparsela import ReusedFactorSolver\n\n\n"
        "def run():\n    return ReusedFactorSolver(1e-10)\n")
    (pkg / "energy.py").write_text(
        "from . import sparsela\n\n\n"
        "def constant(k):\n    return sparsela.ReusedFactorSolver(1e-10)\n")
    assert lu_constructors(tmp_path) == ["a.py", "b.py", "energy.py"]


def step_callers(root=ROOT):
    """``file`` of each module of the package other than the steps' own
    (``coupling.py``, ``shell.py``) and ``driver.py`` whose code names
    ``fluid_step`` or ``structure_step``: ``driver.run`` is the one time
    loop, for every mode."""
    return [path.name
            for path in sorted((root / "src" / "wallflow").glob("*.py"))
            if path.name not in ("coupling.py", "shell.py", "driver.py")
            and _names_used(ast.parse(path.read_text()))
            & {"fluid_step", "structure_step"}]


def test_only_the_driver_takes_a_step():
    assert step_callers() == []


def test_the_check_sees_a_second_time_loop(tmp_path):
    pkg = tmp_path / "src" / "wallflow"
    pkg.mkdir(parents=True)
    (pkg / "coupling.py").write_text("def fluid_step():\n    pass\n")
    (pkg / "shell.py").write_text("def structure_step():\n    pass\n")
    loop = ("from . import coupling, shell\n\n\n"
            "def march(n):\n    for _ in range(n):\n"
            "        shell.structure_step()\n        coupling.fluid_step()\n")
    (pkg / "driver.py").write_text(loop)
    (pkg / "harness.py").write_text(loop)
    (pkg / "cli.py").write_text(
        "from .coupling import fluid_step\n\n\n"
        "def main():\n    return 'fluid_step'\n")
    (pkg / "energy.py").write_text('"""Rows of a fluid_step."""\n')
    assert step_callers(tmp_path) == ["cli.py", "harness.py"]


def ledger_writers(root=ROOT):
    """``file`` of each module of the package other than ``energy.py`` whose
    code calls ``EnergyLedger`` (or a method of it) or
    ``discrete_trace_constant``: ``energy.EnergyMonitor`` forms a run's
    ledger, its header, start energies and rows."""
    return [path.name
            for path in sorted((root / "src" / "wallflow").glob("*.py"))
            if path.name != "energy.py"
            and any(isinstance(node, ast.Call)
                    and _names_used(node.func)
                    & {"EnergyLedger", "discrete_trace_constant"}
                    for node in ast.walk(ast.parse(path.read_text())))]


def test_only_the_energy_module_writes_a_ledger():
    assert ledger_writers() == []


def test_the_check_sees_a_ledger_written_outside_energy(tmp_path):
    pkg = tmp_path / "src" / "wallflow"
    pkg.mkdir(parents=True)
    (pkg / "energy.py").write_text(
        "class EnergyLedger:\n    pass\n\n\n"
        "def discrete_trace_constant():\n    return EnergyLedger()\n")
    (pkg / "__init__.py").write_text(
        "from .energy import EnergyLedger\n\n__all__ = ['EnergyLedger']\n")
    (pkg / "a.py").write_text(
        "from . import energy\n\n\n"
        "def header(h):\n    return energy.EnergyLedger(h)\n")
    (pkg / "b.py").write_text(
        "from .energy import discrete_trace_constant\n\n\n"
        "def f():\n    return discrete_trace_constant()\n")
    (pkg / "c.py").write_text(
        "from .energy import EnergyLedger\n\n\n"
        "def load(path):\n    return EnergyLedger.from_csv(path)\n")
    (pkg / "d.py").write_text(
        "from .energy import EnergyLedger\n\n\n"
        "def rows(ledger: EnergyLedger):\n    return ledger.rows\n")
    assert ledger_writers(tmp_path) == ["a.py", "b.py", "c.py"]


def identity_keys(root=ROOT):
    """``file`` of each module of the package whose code calls ``id``: a
    cache keyed by object identity outlives its object and can hand a new
    object at the same address its data, so run-level data are keyed by
    value or held on an object the run owns."""
    return [path.name
            for path in sorted((root / "src" / "wallflow").glob("*.py"))
            if any(isinstance(node, ast.Call)
                   and getattr(node.func, "id", None) == "id"
                   for node in ast.walk(ast.parse(path.read_text())))]


def test_no_module_keys_by_identity():
    assert identity_keys() == []


def test_the_check_sees_an_identity_key(tmp_path):
    pkg = tmp_path / "src" / "wallflow"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(
        "_CACHE = {}\n\n\n"
        "def product(m, u):\n"
        "    return _CACHE.setdefault((id(m), id(u)), m @ u)\n")
    (pkg / "b.py").write_text(
        "def key(mesh):\n    return (mesh.n_elements, mesh.length)\n\n\n"
        "def label(row):\n    return row.id, 'id(row)'\n")
    assert identity_keys(tmp_path) == ["a.py"]


def mesh_pairs(root=ROOT):
    """``file:function`` of each function or lambda of the package that
    takes both a ``shell_mesh`` and a ``fluid_mesh`` parameter: the wall
    mesh is the fluid mesh's ``wall``, so a pair that must match is one
    mesh too many."""
    pairs = []
    for path in sorted((root / "src" / "wallflow").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                a = node.args
                if {"shell_mesh", "fluid_mesh"} <= {
                        p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}:
                    pairs.append(f"{path.name}:"
                                 f"{getattr(node, 'name', '<lambda>')}")
    return pairs


def test_no_function_takes_both_meshes():
    assert mesh_pairs() == []


def test_the_check_sees_a_mesh_pair(tmp_path):
    pkg = tmp_path / "src" / "wallflow"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(
        "def trace(shell_mesh, fluid_mesh):\n    return 0\n\n\n"
        "def snapshot(fluid_mesh, eta):\n    return fluid_mesh.wall\n\n\n"
        "def short(sm, fm):\n    return 'shell_mesh, fluid_mesh'\n")
    (pkg / "b.py").write_text(
        "class Mesh:\n"
        "    def constant(self, name, *, fluid_mesh, shell_mesh):\n"
        "        return name\n\n\n"
        "BUILD = lambda shell_mesh, fluid_mesh: None\n")
    assert mesh_pairs(tmp_path) == ["a.py:trace", "b.py:constant",
                                    "b.py:<lambda>"]

"""Source hygiene checks: unused imports, dangling exports, exports that
only tests use and the oracles' independence from the solvers they check."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pvcosim"
SOURCES = [
    p
    for folder in (PACKAGE, ROOT / "tests", ROOT / "demos")
    for p in sorted(folder.glob("*.py"))
    if p.name != "__init__.py"
]


def source_id(path: Path) -> str:
    """Package modules by file name, tests and demos by their path in the repo."""
    return path.name if path.parent == PACKAGE else path.relative_to(ROOT).as_posix()


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never references and does not list in ``__all__``."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_flags_unused_and_keeps_used():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import scipy.sparse as sp\n"
        "from os import path, sep\n"
        "__all__ = ['sep']\n"
        "x = sp.eye(2)\n"
    )
    assert unused_imports(source) == ["line 2: json", "line 4: path"]


@pytest.mark.parametrize("module", SOURCES, ids=source_id)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def exported_names(source: str) -> list[tuple[str, str]]:
    """``(module, name)`` for each name a package module lists in ``__all__``
    or imports from a sibling module; ``module`` is "" for the module itself."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names += [("", name) for name in ast.literal_eval(node.value)]
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            names += [(node.module or "", alias.name) for alias in node.names]
    return names


@pytest.mark.parametrize(
    "module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name
)
def test_every_export_and_package_import_resolves(module):
    here = "pvcosim" if module.name == "__init__.py" else f"pvcosim.{module.stem}"
    dangling = []
    for source, name in exported_names(module.read_text(encoding="utf-8")):
        owner = importlib.import_module(f"pvcosim.{source}" if source else here)
        if not hasattr(owner, name):
            dangling.append(f"{source or here}.{name}")
    assert dangling == []


def test_export_check_sees_both_kinds_of_name():
    source = "from .transmission import SeqSolution, gone\n__all__ = ['run', 'missing']\n"
    assert exported_names(source) == [
        ("transmission", "SeqSolution"),
        ("transmission", "gone"),
        ("", "run"),
        ("", "missing"),
    ]


def referenced_names(source: str) -> set[str]:
    """Every name a module uses, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def unused_exports(modules: dict[str, str], users: list[str]) -> list[str]:
    """``module.name`` for each ``__all__`` entry of ``modules`` that no
    source in ``users`` references."""
    used = set().union(*map(referenced_names, users))
    return [
        f"{module}.{name}"
        for module, source in modules.items()
        for owner, name in exported_names(source)
        if owner == "" and name not in used
    ]


def test_every_export_has_a_caller_outside_tests():
    """An ``__all__`` name that only tests use is API kept alive for its tests."""
    modules = {
        p.stem: p.read_text(encoding="utf-8")
        for p in sorted(PACKAGE.glob("*.py"))
        if p.name != "__init__.py"
    }
    callers = [
        p.read_text(encoding="utf-8")
        for folder in (ROOT / "demos", ROOT / "bench")
        for p in sorted(folder.glob("*.py"))
    ]
    assert unused_exports(modules, [*modules.values(), *callers]) == []


def test_export_caller_check_flags_unused_and_keeps_used():
    module = "__all__ = ['by_name', 'by_attr', 'by_import', 'unused']\ndef unused():\n    pass\n"
    users = [module, "by_name()\nx.by_attr\n", "from m import by_import\n"]
    assert unused_exports({"m": module}, users) == ["m.unused"]


def test_oracle_shares_no_solver_code():
    """The unified solve checks the co-simulation, so it must not reuse its solvers."""
    source = (PACKAGE / "unified.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    imported: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                module = node.module or alias.name
                imported.setdefault(module, set()).add(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pvcosim"):
            module = node.module.removeprefix("pvcosim").lstrip(".")
            imported.setdefault(module, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("pvcosim."):
                    imported.setdefault(alias.name.split(".")[1], set()).add("*")
    assert imported.get("transmission", set()) <= {"PowerFlowError"}
    assert imported.get("network", set()) <= {"TransmissionNetwork"}
    assert "feeder" not in imported
    assert referenced_names(source).isdisjoint({"bibc", "bibc_t", "solve_feeder", "admittance_blocks"})


def pvcosim_imports(source: str) -> list[str]:
    """The ``pvcosim`` modules a source imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "pvcosim"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pvcosim":
            found.append(node.module)
    return found


def test_test_oracles_import_nothing_from_the_package():
    """The oracles check the package's solvers, so they must not reuse them."""
    assert pvcosim_imports((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8")) == []


def test_import_check_sees_both_forms():
    source = (
        "import numpy\nimport pvcosim.network\nfrom pvcosim import transmission\n"
        "from .conftest import x\nfrom pvcosimx import y\n"
    )
    assert pvcosim_imports(source) == ["pvcosim.network", "pvcosim"]

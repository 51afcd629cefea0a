"""Source hygiene checks: unused imports, dangling exports and the
oracle's independence from the solvers it checks."""

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


def test_oracle_shares_no_solver_code():
    """The unified solve checks the co-simulation, so it must not reuse its solvers."""
    tree = ast.parse((PACKAGE / "unified.py").read_text(encoding="utf-8"))
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
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert names.isdisjoint({"bibc", "bibc_t", "solve_feeder", "admittance_blocks"})

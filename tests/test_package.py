"""What the repository ships: a runtime package that holds only what the CLI
reaches, declares exactly the third-party modules it imports, and fixtures
that are exactly what ``families.py`` generates."""

import ast
import re
import sys
from pathlib import Path

import pytest

from families import FIXTURES, fixture_files

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fpaudit"


def _relative_imports(module: str) -> set[str]:
    """Sibling modules named by ``from .x import`` anywhere in ``module``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [a.name for a in node.names])
    return found


def test_every_package_module_is_reachable_from_the_cli():
    reached, todo = {"__init__"}, ["cli"]
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo.extend(_relative_imports(module))
    assert reached == {path.stem for path in PACKAGE.glob("*.py")}


def test_every_public_name_is_used_by_another_package_module():
    import fpaudit

    for name in fpaudit.__all__:
        home = getattr(fpaudit, name).__module__.rpartition(".")[2]
        users = []
        for path in PACKAGE.glob("*.py"):
            if path.stem in (home, "__init__"):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and node.id == name \
                        or isinstance(node, ast.Attribute) and node.attr == name \
                        or isinstance(node, ast.alias) and node.name == name:
                    users.append(path.stem)
                    break
        assert users, f"{name} is used by no package module but {home}"


def test_declared_dependencies_are_the_third_party_imports():
    tomllib = pytest.importorskip("tomllib")
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"fpaudit"}
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
                for spec in project["dependencies"]}
    assert third_party == declared == {"cryptography"}


def test_committed_fixtures_are_what_families_builds():
    expected = fixture_files()
    assert sorted(expected) == sorted(path.name for path in FIXTURES.glob("*.json"))
    for name, text in expected.items():
        assert (FIXTURES / name).read_text(encoding="utf-8") == text, name

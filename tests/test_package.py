"""What the repository ships: a runtime package that holds only what the CLI
reaches, and fixtures that are exactly what ``families.py`` generates."""

import ast
from pathlib import Path

from families import FIXTURES, fixture_files

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fpaudit"


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


def test_committed_fixtures_are_what_families_builds():
    expected = fixture_files()
    assert sorted(expected) == sorted(path.name for path in FIXTURES.glob("*.json"))
    for name, text in expected.items():
        assert (FIXTURES / name).read_text(encoding="utf-8") == text, name

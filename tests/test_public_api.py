"""No test-only API in the package: every exported name, every public
module-level function and class under ``src/manifold_cd/`` and every public
method of ``Manifold`` is used by the package itself or by perfbench.

A use is a name or attribute reference in the code, read from the syntax
tree, so a name's own ``def``/``class`` line, the ``__all__`` strings, import
lines and mentions in docstrings do not count.  Helpers that only the tests
need live in ``tests/reference.py``."""

import ast
from pathlib import Path

import pytest

import manifold_cd
import manifold_cd.manifolds

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "manifold_cd"


def _trees(*dirs):
    return {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for d in dirs for path in sorted(d.rglob("*.py"))}


def _used_names() -> set[str]:
    used = set()
    for tree in _trees(PACKAGE, ROOT / "perfbench").values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _public_definitions() -> list[str]:
    names = []
    for path, tree in _trees(PACKAGE).items():
        module = path.relative_to(PACKAGE).with_suffix("").as_posix().replace("/", ".")
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                names.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef) and node.name == "Manifold":
                names += [f"{module}.Manifold.{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return names


NAMES = sorted(set(manifold_cd.__all__) | set(manifold_cd.manifolds.__all__)
               | set(_public_definitions()))
USED = _used_names()


def test_the_scan_sees_the_package():
    assert "manifolds.base.Manifold.coordinate_retract" in NAMES
    assert "coordinate_retract" in USED


@pytest.mark.parametrize("name", NAMES)
def test_public_name_has_a_caller_outside_the_tests(name):
    assert name.rsplit(".", 1)[-1] in USED, (
        f"{name} is used only by the tests: move it to tests/reference.py")

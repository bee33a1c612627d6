"""The engine names no family: a family reaches ``optimize.py`` only through
the ``Manifold`` hooks (``time_cyclic_basis``, ``anchored_sweep``,
``epoch_probe``).

Read from the syntax tree of ``optimize.py``: outside ``run_tsd``, whose
column step lies outside the ``Manifold`` contract, no code reads a
``.family`` attribute or holds a string literal that is a family name (or
``"family"``, as ``getattr`` would take it).

And conversely no family names the engine: no module under ``manifolds/``
imports from ``optimize`` or names ``OptimizeAbort`` in code, so a kernel
refuses a step with ``flops.StepRefused`` and the epoch loop alone locates
it."""

import ast
from pathlib import Path

import pytest

from manifold_cd.manifolds.base import FAMILIES

NAMES = (*FAMILIES, "family")
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "manifold_cd"
ENGINE = PACKAGE / "optimize.py"
FAMILY_MODULES = sorted((PACKAGE / "manifolds").glob("*.py"))


def family_names(tree, exempt: str | None = "run_tsd") -> list[str]:
    """Every ``.family`` read and family-name literal in ``tree`` outside the
    function named ``exempt``."""
    skip = {id(node) for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name == exempt for node in ast.walk(f)}
    names = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if ((isinstance(node, ast.Attribute) and node.attr == "family")
                or (isinstance(node, ast.Constant) and node.value in NAMES)):
            names.append(f"line {node.lineno}: {ast.unparse(node)}")
    return names


@pytest.mark.parametrize("snippet, flagged", [
    ('probe = man.family == "spd_bures_wasserstein"', True),
    ("if getattr(man, 'family') in KNOWN: pass", True),
    ('kind = "hyperbolic"', True),
    ("def run_rcdlin(man):\n    return man.family", True),
    ('def run_tsd(man):\n    return man.family in ("stiefel", "grassmann")', False),
    ('"""the hyperbolic family"""', False),
    ('selection = "time-cyclic"', False),
    ("probe = man.epoch_probe", False),
])
def test_the_guard_reads_the_name(snippet, flagged):
    assert bool(family_names(ast.parse(snippet))) == flagged


def test_the_scan_sees_the_exempt_function():
    tree = ast.parse(ENGINE.read_text(encoding="utf-8"))
    assert family_names(tree, exempt=None)


def test_the_engine_names_no_family():
    tree = ast.parse(ENGINE.read_text(encoding="utf-8"), filename=str(ENGINE))
    assert family_names(tree) == [], (
        "optimize.py names a family: give the family a Manifold hook instead")


def engine_names(tree) -> list[str]:
    """Every import from the ``optimize`` module, and every ``OptimizeAbort``
    imported, defined or read in code (a docstring is a string constant, so
    it does not count)."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            words = {w for a in node.names for w in f"{module}.{a.name}".split(".")}
            hit = bool(words & {"optimize", "OptimizeAbort"})
        else:
            name = (node.name if isinstance(node, ast.ClassDef)
                    else getattr(node, "id", getattr(node, "attr", None)))
            hit = name == "OptimizeAbort"
        if hit:
            names.append(f"line {node.lineno}: {ast.unparse(node).splitlines()[0]}")
    return names


@pytest.mark.parametrize("snippet, flagged", [
    ("from ..optimize import OptimizeAbort", True),
    ("from manifold_cd.optimize import run_epochs", True),
    ("from .. import optimize", True),
    ("import manifold_cd.optimize as engine", True),
    ("from .base import OptimizeAbort", True),
    ("raise OptimizeAbort(k, s, reason)", True),
    ("raise engine.OptimizeAbort(k, s, reason)", True),
    ("class OptimizeAbort(RuntimeError): pass", True),
    ("from ..flops import StepRefused\nraise StepRefused(reason, s)", False),
    ('"""the loop reports it as ``OptimizeAbort``"""', False),
    ("optimize_flag = True", False),
])
def test_the_converse_guard_reads_the_name(snippet, flagged):
    assert bool(engine_names(ast.parse(snippet))) == flagged


def test_no_family_names_the_engine():
    assert FAMILY_MODULES, "no family module found"
    found = {path.name: engine_names(ast.parse(path.read_text(encoding="utf-8"),
                                               filename=str(path)))
             for path in FAMILY_MODULES}
    assert {name: hits for name, hits in found.items() if hits} == {}, (
        "a family names the engine: raise flops.StepRefused and let the epoch "
        "loop locate it")

"""One ledger writer: the epoch loop in ``optimize.py`` keeps a trace's flop
ledger, and step functions only add to ``trace.update_flops``.

Read from the syntax tree of the package and of perfbench: outside
``optimize.py`` no code assigns with ``=`` to a ``Trace`` ledger field
(``oracle_calls``, ``oracle_flops``, ``update_flops``,
``instrumentation_flops``) or to a record's ``flops``, and the only
augmented assignment to one of them is ``... .update_flops += ...``.  The
families under ``manifolds/`` write no ledger field at all, that one
included: they return their flops (``flop_parts``, ``update_carrier``, a
sweep's result), and the loop and the step functions charge them."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "manifold_cd"
WRITER = PACKAGE / "optimize.py"
LEDGER = {"oracle_calls", "oracle_flops", "update_flops", "instrumentation_flops", "flops"}


def _ledger_targets(node):
    if isinstance(node, ast.Assign):
        stack = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        stack = [node.target]
    else:
        return
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        elif isinstance(target, ast.Starred):
            stack.append(target.value)
        elif isinstance(target, ast.Attribute) and target.attr in LEDGER:
            yield target


def ledger_writes(tree, step_charges: bool = True) -> list[str]:
    """Every write to a ledger field in ``tree``, except ``x.update_flops +=
    ...`` where ``step_charges`` allows a step function's charge."""
    writes = []
    for node in ast.walk(tree):
        for target in _ledger_targets(node):
            if not (step_charges and isinstance(node, ast.AugAssign)
                    and isinstance(node.op, ast.Add) and target.attr == "update_flops"):
                writes.append(f"line {node.lineno}: {ast.unparse(node)}")
    return writes


SOURCES = [path for d in (PACKAGE, ROOT / "perfbench") for path in sorted(d.rglob("*.py"))
           if path != WRITER]
FAMILIES = sorted((PACKAGE / "manifolds").rglob("*.py"))


@pytest.mark.parametrize("snippet, flagged", [
    ("trace.update_flops += costs[l]", False),
    ("trace.update_flops = 0", True),
    ("trace.update_flops -= 1", True),
    ("trace.oracle_calls += 1", True),
    ("trace.oracle_flops = start", True),
    ("trace.instrumentation_flops += 3", True),
    ("r.flops = start + (r.k + 1) * per_epoch", True),
    ("(trace.oracle_calls, n) = mark", True),
    ("flops = trace.total_flops", False),
])
def test_the_guard_reads_the_write(snippet, flagged):
    assert bool(ledger_writes(ast.parse(snippet))) == flagged


def test_a_family_may_not_charge_a_step():
    assert ledger_writes(ast.parse("trace.update_flops += costs[l]"), step_charges=False)


def test_the_scan_sees_the_package():
    assert PACKAGE / "bench.py" in SOURCES and WRITER not in SOURCES
    assert PACKAGE / "manifolds" / "stiefel.py" in FAMILIES
    assert ledger_writes(ast.parse(WRITER.read_text(encoding="utf-8")))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_only_the_epoch_loop_writes_the_ledger(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert ledger_writes(tree) == [], (
        f"{path.name} writes the flop ledger: charge through the engine's hooks")


@pytest.mark.parametrize("path", FAMILIES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_families_return_their_flops(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert ledger_writes(tree, step_charges=False) == [], (
        f"{path.name} writes the flop ledger: return the flops for the engine to charge")

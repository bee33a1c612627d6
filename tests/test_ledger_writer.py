"""One ledger writer: ``optimize.run_epochs`` keeps a trace's flop ledger.

Read from the syntax tree of the package and of perfbench: outside
``run_epochs`` and the closures defined in it, no code assigns to a
``Trace`` ledger field (``oracle_calls``, ``oracle_flops``, ``update_flops``,
``instrumentation_flops``, ``clamped_steps``) or to a record's ``flops``,
with ``=`` or an augmented assignment.  Steps, sweeps and families return
their flops and clamped steps (``flop_parts``, ``update_carrier``, a step's or
a sweep's result), and the loop charges them."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "manifold_cd"
WRITER = PACKAGE / "optimize.py"
LEDGER = {"oracle_calls", "oracle_flops", "update_flops", "instrumentation_flops",
          "clamped_steps", "flops"}


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


def ledger_writes(tree, writer: str | None = None) -> list[str]:
    """Every write to a ledger field in ``tree`` outside the module-level
    function named ``writer``."""
    writes = []
    stack = [node for node in tree.body
             if not (isinstance(node, ast.FunctionDef) and node.name == writer)]
    while stack:
        node = stack.pop()
        stack.extend(ast.iter_child_nodes(node))
        for target in _ledger_targets(node):
            writes.append(f"line {node.lineno}: {ast.unparse(node)}")
    return writes


SOURCES = [path for d in (PACKAGE, ROOT / "perfbench") for path in sorted(d.rglob("*.py"))]


@pytest.mark.parametrize("snippet, flagged", [
    ("trace.update_flops += costs[l]", True),
    ("trace.update_flops = 0", True),
    ("trace.update_flops -= 1", True),
    ("trace.oracle_calls += 1", True),
    ("trace.oracle_flops = start", True),
    ("trace.instrumentation_flops += 3", True),
    ("trace.clamped_steps += 1", True),
    ("r.flops = start + (r.k + 1) * per_epoch", True),
    ("(trace.oracle_calls, n) = mark", True),
    ("def step(x, trace):\n    trace.update_flops += 1", True),
    ("flops = trace.total_flops", False),
    ("x, update, upkeep, clamped = step(x, d, l, eta, s)", False),
])
def test_the_guard_reads_the_write(snippet, flagged):
    assert bool(ledger_writes(ast.parse(snippet))) == flagged


@pytest.mark.parametrize("snippet, flagged", [
    ("def run_epochs():\n    trace.oracle_calls += 1", False),
    ("def run_epochs():\n    def charge(update):\n        trace.update_flops += update", False),
    ("def run_epochs():\n    pass\ndef step():\n    trace.update_flops += 1", True),
    ("def run():\n    def run_epochs():\n        trace.oracle_calls += 1", True),
    ("class Loop:\n    def run_epochs(self):\n        trace.oracle_calls += 1", True),
])
def test_only_the_module_level_writer_is_exempt(snippet, flagged):
    assert bool(ledger_writes(ast.parse(snippet), "run_epochs")) == flagged


def test_the_scan_sees_the_package():
    assert {PACKAGE / "bench.py", PACKAGE / "manifolds" / "stiefel.py", WRITER} <= set(SOURCES)
    tree = ast.parse(WRITER.read_text(encoding="utf-8"))
    assert ledger_writes(tree) and not ledger_writes(tree, "run_epochs")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_only_the_epoch_loop_writes_the_ledger(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert ledger_writes(tree, "run_epochs" if path == WRITER else None) == [], (
        f"{path.name} writes the flop ledger: return the flops for run_epochs to charge")

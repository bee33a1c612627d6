"""Self-test of the benchmark: every workload at tiny sizes, untraced and
traced, checking only the output schema and the metric names (no timing
bound), plus the refusal to run in a directory without the package source.

    python3 perfbench/selftest.py        # exit 0 iff every check passes
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

BENCH_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_result(line: str, specs: list[dict]) -> list[str]:
    res = json.loads(line)
    problems = []
    if set(res) != RESULT_KEYS:
        problems.append(f"result keys {sorted(res)}")
        return problems
    if res["correct"] is not True or res["failed"] != 0:
        problems.append(f"correct={res['correct']} failed={res['failed']}")
    if not (type(res["attempted"]) is int and res["attempted"] >= 1):
        problems.append(f"attempted={res['attempted']!r}")
    want = {m["name"]: m["unit"] for m in specs}
    got = res["metrics"]
    if set(got) != set(want):
        problems.append(f"metric names differ: {sorted(set(got) ^ set(want))}")
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m.get("unit") != want.get(name):
            problems.append(f"{name}: {m}")
        elif type(m["value"]) not in (int, float):
            problems.append(f"{name}: value {m['value']!r} is not a number")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    if set(bench) != BENCH_KEYS:
        failures.append(f"BENCHMARK.json keys {sorted(bench)}")
    names = [w["name"] for w in bench["workloads"]]
    if names != list(workloads.WORKLOADS):
        failures.append(f"workloads {names} != {list(workloads.WORKLOADS)}")
    for name in names:
        for trace, specs in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            proc = run_bench(ROOT, "--workload", name, "--seed", "1", "--seconds", "0.5",
                             "--trace", trace, "--tiny")
            lines = proc.stdout.strip().splitlines()
            problems = [f"exit {proc.returncode}"] if proc.returncode else []
            problems += check_result(lines[-1], specs) if lines else ["no output"]
            status = "FAIL" if problems else "PASS"
            print(f"[{status}] {name} trace={trace} {'; '.join(problems)}")
            failures += problems

    # without the package source the benchmark must fail before any result
    bare = ROOT / ".bench_build" / "perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(bare, "--workload", names[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    shutil.rmtree(bare, ignore_errors=True)
    bare_ok = proc.returncode != 0 and not proc.stdout.strip()
    print(f"[{'PASS' if bare_ok else 'FAIL'}] refuses to run without src "
          f"(exit {proc.returncode})")
    if not bare_ok:
        failures.append("ran without src")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

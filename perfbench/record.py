"""Record the final objective value and flop count of every workload for
seeds 0 .. workloads.SEEDS-1 into expected.json, which the benchmark's
output checks compare against.

    python3 perfbench/record.py

Values come from ``manifold_cd.bench.run_experiment``, the one-call path,
while the benchmark times the same run step by step; the check therefore
also confirms that both paths agree.  The runs are spread over the usable
cores.  Re-record only when a change is meant to alter results.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def one(job: tuple[str, int]) -> tuple[str, int, dict | str]:
    from manifold_cd.bench import run_experiment
    from manifold_cd.cli import _build_cfg

    name, seed = job
    vals = workloads.resolve(name, seed)
    try:
        res = run_experiment(vals["problem"], vals["n"], vals["p"], vals["seed"],
                             _build_cfg(vals), cond=vals["cond"],
                             density=vals["density"], planted=vals["planted"])
    except Exception as exc:  # reported, never recorded
        return name, seed, f"{type(exc).__name__}: {exc}"
    return name, seed, {"final_f": res.final_f, "total_flops": res.trace.total_flops}


def main() -> int:
    jobs = [(name, seed) for name in workloads.WORKLOADS for seed in range(workloads.SEEDS)]
    table = {name: {} for name in workloads.WORKLOADS}
    failures = 0
    procs = len(os.sched_getaffinity(0))
    with multiprocessing.get_context("spawn").Pool(procs) as pool:
        for name, seed, res in pool.imap_unordered(one, jobs):
            if isinstance(res, str):
                failures += 1
                print(f"{name} seed {seed}: {res}", file=sys.stderr)
            else:
                table[name][str(seed)] = res
    doc = {"recorded_by": "perfbench/record.py",
           "workloads": {name: dict(sorted(runs.items(), key=lambda kv: int(kv[0])))
                         for name, runs in table.items()}}
    (HERE / "expected.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(jobs) - failures} runs, {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

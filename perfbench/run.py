"""Wall-time benchmark of manifold-cd.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Workloads and metrics are defined in BENCHMARK.json.  The benchmark runs the
workload again and again, each run in a fresh process (perfbench/worker.py)
with ``src`` on PYTHONPATH, until ``--seconds`` are used up, and reports
medians over the runs.  Every run's outputs are checked; a run that raises
or fails a check counts as failed, and ``failed / attempted`` is the error
rate.  ``--workload all`` runs every workload in turn.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced runs with traced ones (spans around every layer's public functions,
see tracer.py) and prints the per-layer metrics, including what tracing
costs.  The line before the result holds the run's metadata, the sample
count and tail percentile of every timing, and any failure messages; it is
also written to .bench_build/perfbench/.  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.

BLAS threads are capped at the number of usable cores, and the package's
bytecode is cached in the checkout before timing starts.  Exit status: 0 when
every run was correct, 1 otherwise, 2 when the checkout has no package
source to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 150.0  # per workload; with set-up, an invocation ends within 180 s


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=None,
                    help="problem and selection seed, taken mod 128, the seeds "
                         "expected.json records (default: the preset's)")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes: checks the schema, not the speed")
    return ap.parse_args(argv)


def worker_env() -> tuple[dict, int]:
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # an installed package has its bytecode compiled once; so do the runs
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in BLAS_THREAD_VARS:
        try:
            threads = int(env.get(var, ""))
        except ValueError:
            threads = 0
        if not 1 <= threads <= nproc:
            env[var] = str(nproc)
    return env, nproc


def call_worker(req: dict, env: dict, timeout: float) -> dict:
    """One run in a fresh interpreter; a crash or timeout is a failed run."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(req)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "errors": [f"run exceeded {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"ok": False, "errors": [f"worker exit {proc.returncode}: {tail[0]}"]}


def machine_meta(env: dict, nproc: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    commit = "unknown"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {"nproc": nproc, "cpu": cpu, "git_commit": commit,
            "blas_threads": {v: env[v] for v in BLAS_THREAD_VARS}}


def timing(values: list[float]) -> dict:
    """Median, sample count, the highest percentile with ten samples beyond
    it (absent when there are too few samples) and the samples."""
    out = {"median": statistics.median(values), "n": len(values), "values": values}
    q = tail_percentile(len(values))
    if q is not None:
        out[f"p{q:g}"] = statistics.quantiles(values, n=1000, method="inclusive")[
            round(q * 10) - 1]
    return out


def measure(name: str, args, env) -> tuple[list[dict], list[dict], int]:
    """Run workers until ``--seconds`` are used up, or the next run could
    pass the time limit; returns (untraced, traced, attempted)."""
    base = {"workload": name, "seed": args.seed, "tiny": args.tiny,
            "out_dir": str(OUT), "src": str(SRC)}
    plain, traced, walls = [], [], []
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    while True:
        want_trace = bool(args.trace) and len(plain) > len(traced)
        t = time.monotonic()
        res = call_worker(dict(base, traced=want_trace), env, deadline - t)
        walls.append(time.monotonic() - t)
        (traced if want_trace else plain).append(res)
        now = time.monotonic()
        if now + max(walls) > deadline:
            break
        if args.trace and not traced:
            continue
        if now - start + statistics.median(walls) > args.seconds:
            break
    return plain, traced, len(walls)


def check_consistent(runs: list[dict]) -> None:
    """Every run of one seed must produce the same final f and flop count."""
    ok = [r for r in runs if r["ok"]]
    for r in ok[1:]:
        if (r["final_f"], r["total_flops"]) != (ok[0]["final_f"], ok[0]["total_flops"]):
            r["ok"] = False
            r["errors"].append(
                f"run not deterministic: f={r['final_f']!r} flops={r['total_flops']} vs "
                f"f={ok[0]['final_f']!r} flops={ok[0]['total_flops']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "manifold_cd" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    env, nproc = worker_env()
    # compile the package's bytecode once; users do not pay that per run
    subprocess.run([sys.executable, "-c", "import manifold_cd.cli"],
                   cwd=ROOT, env=env, capture_output=True, timeout=20)
    statuses = [run_workload(name, args, bench, env, nproc)
                for name in (names if args.workload == "all" else [args.workload])]
    return max(statuses)


def run_workload(name: str, args, bench: dict, env: dict, nproc: int) -> int:
    """Measure one workload and print its detail and result lines; returns
    the exit status."""
    plain, traced, attempted = measure(name, args, env)
    runs = plain + traced
    check_consistent(runs)
    failed = sum(not r["ok"] for r in runs)
    good = [r for r in plain if r["ok"]]
    good_traced = [r for r in traced if r["ok"]]

    detail = {
        "workload": name, "trace": args.trace, "tiny": args.tiny,
        "meta": dict(machine_meta(env, nproc), **next((r["meta"] for r in good), {})),
        "seed": next((r["seed"] for r in runs if "seed" in r), args.seed),
        "error_rate": failed / attempted,
        "errors": sorted({e for r in runs for e in r["errors"]})[:10],
        "traceback": next((r["traceback"] for r in runs if "traceback" in r), None),
    }
    metrics = {}
    if good and (good_traced or not args.trace):
        solve = statistics.median(r["solve_s"] for r in good)
        detail["timings"] = {k: timing([r[k] for r in good]) for k in ("setup_s", "solve_s")}
        if args.trace:
            values = per_layer(good_traced, solve, failed / attempted)
            detail["timings"]["traced_solve_s"] = timing([r["solve_s"] for r in good_traced])
            last = good_traced[-1]
            detail["last_traced_run"] = {k: last[k] for k in
                                         ("solve_s", "solve_breakdown_s", "spans")}
            specs = bench["per_layer"]
        else:
            values = {
                "setup_s": detail["timings"]["setup_s"]["median"],
                "solve_s": solve,
                "steps_per_s": good[0]["steps"] / solve,
                "model_mflops_per_s": good[0]["total_flops"] / solve / 1e6,
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
            }
            specs = bench["end_to_end"]
        if set(values) != {m["name"] for m in specs}:
            raise SystemExit(f"metric names differ from BENCHMARK.json: "
                             f"{sorted(set(values) ^ {m['name'] for m in specs})}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}

    seed = detail["seed"]
    text = json.dumps(detail)
    (OUT / f"result-{name}-seed{seed}-trace{args.trace}.json").write_text(
        text + "\n", encoding="utf-8")
    print(text)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def per_layer(traced: list[dict], untraced_solve: float, error_rate: float) -> dict:
    """Median of each per-layer number over the traced runs, plus what
    tracing costs and the error rate."""
    values = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    traced_solve = statistics.median(r["solve_s"] for r in traced)
    values["tracing.overhead_frac"] = (traced_solve - untraced_solve) / untraced_solve
    values["error_rate"] = error_rate
    return values


if __name__ == "__main__":
    sys.exit(main())

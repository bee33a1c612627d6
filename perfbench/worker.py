"""One run of one workload in a fresh interpreter.

``python3 perfbench/worker.py '<json request>'`` with ``src`` on PYTHONPATH.
The request holds ``workload``, ``seed`` (null for the preset's), ``tiny``,
``traced``, ``out_dir`` and ``src``.  Prints one JSON line: the run's
timings, its output checks and, when traced, its per-layer numbers.

Set-up is timed from before ``import manifold_cd.cli`` to the initial point;
the solve from the optimizer call to the finished result (final f, gap and
CSV).  Output checks run after both and are not timed.
"""

import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    req = json.loads(sys.argv[1])
    t_import0 = time.perf_counter_ns()
    import manifold_cd.cli  # noqa: F401  (what `manifold-cd run` imports)
    t_import1 = time.perf_counter_ns()

    import manifold_cd

    out = {"ok": False, "errors": []}
    try:
        if not os.path.abspath(manifold_cd.__file__).startswith(req["src"] + os.sep):
            raise RuntimeError(f"manifold_cd imported from {manifold_cd.__file__}, "
                               f"not from {req['src']}")
        run(req, out, t_import0, t_import1)
    except Exception as exc:  # a failed run is counted, never fatal
        out["errors"].append(f"{type(exc).__name__}: {exc}")
        out["traceback"] = traceback.format_exc(limit=-3)
    out["ok"] = not out["errors"]
    print(json.dumps(out))
    return 0


def run(req: dict, out: dict, t_import0: int, t_import1: int) -> None:
    from manifold_cd import embeddings
    from manifold_cd.bench import read_trace_csv, write_trace_csv
    from manifold_cd.cli import _build_cfg
    from manifold_cd.manifolds import make_manifold
    from manifold_cd.optimize import flop_audit, optimize
    from manifold_cd.problems import build_problem, initial_point, optimality_gap

    import workloads
    from tracer import NullTracer, Tracer

    name = req["workload"]
    vals = workloads.resolve(name, req["seed"], req["tiny"])
    cfg = _build_cfg(vals)
    lorentz = vals["problem"] == "lorentz"
    wl = workloads.WORKLOADS[name]
    tr = Tracer() if req["traced"] else NullTracer()
    tr.record("cli.import", t_import0, t_import1)
    tr.instrument()
    csv_path = None
    if wl.get("csv"):
        os.makedirs(req["out_dir"], exist_ok=True)
        csv_path = os.path.join(req["out_dir"], f"trace-{os.getpid()}.csv")

    clock = time.perf_counter_ns
    t0 = clock()
    with tr.span("run.setup"):
        if lorentz:
            prob = tr.wrap("embeddings.make_lorentz_embed",
                           embeddings.make_lorentz_embed)(vals["n"], vals["p"], vals["seed"])
        else:
            p_spec, obj, ref = tr.wrap("problems.build_problem", build_problem)(
                vals["problem"], vals["n"], vals["p"], vals["seed"],
                cond=vals["cond"], density=vals["density"], planted=vals["planted"])
            man = make_manifold(p_spec.descriptor)
            x0 = tr.wrap("problems.initial_point", initial_point)(p_spec)
            tr.instrument_objective(obj)
            tr.instrument_manifold(man)
    t1 = clock()
    with tr.span("run.solve"):
        if lorentz:
            x, trace = tr.wrap("embeddings.train", embeddings.train)(prob, cfg)
            final_f = trace.final_f()
        else:
            x, trace = tr.wrap("optimize.optimize", optimize)(man, obj, x0, cfg)
            final_f = trace.final_f()
            if ref.value is not None:
                out["gap"] = optimality_gap(final_f, ref.value)[0]
        if csv_path:
            tr.wrap("bench.write_trace_csv", write_trace_csv)(csv_path, trace)
    t2 = clock()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["setup_s"] = ((t_import1 - t_import0) + (t1 - t0)) / 1e9
    out["solve_s"] = (t2 - t1) / 1e9
    out["seed"] = vals["seed"]
    out["final_f"] = final_f
    out["total_flops"] = trace.total_flops
    if lorentz:
        steps = workloads.lorentz_steps(vals)
    else:
        steps = cfg.epochs * (cfg.inner if cfg.inner is not None else man.index_count())
    out["steps"] = steps

    # -- output checks (untimed) --------------------------------------------
    errors = out["errors"]
    if not req["tiny"]:
        exp = recorded(name, vals["seed"])
        if abs(final_f - exp["final_f"]) > 1e-9 * abs(exp["final_f"]):
            errors.append(f"final f {final_f!r} != recorded {exp['final_f']!r}")
        if trace.total_flops != exp["total_flops"]:
            errors.append(f"flops {trace.total_flops} != recorded {exp['total_flops']}")
    if wl.get("feasibility"):
        feas = man.feasibility_residual(x)
        out["feasibility"] = feas
        if not feas <= 1e-10:
            errors.append(f"feasibility residual {feas:.3e} > 1e-10")
    if not lorentz and not flop_audit(trace, man, cfg).ok:
        errors.append("flop audit: oracle-call count mismatch")
    if csv_path:
        try:
            out["csv_bytes"] = os.path.getsize(csv_path)
            rows = read_trace_csv(csv_path)
        finally:
            os.remove(csv_path)
        if len(rows) != steps:
            errors.append(f"CSV has {len(rows)} rows, expected {steps}")
        elif rows[-1] != trace.records[-1]:
            errors.append(f"CSV last row {rows[-1]} != trace {trace.records[-1]}")

    if req["traced"]:
        summary = tr.summary()
        out["layers"] = layer_metrics(summary, tr.sizes, trace, cfg, steps,
                                      out.get("csv_bytes", 0))
        out["spans"] = summary
        out["solve_breakdown_s"] = tr.breakdown("run.solve")
        tr.save(os.path.join(req["out_dir"], f"spans-{name}-seed{vals['seed']}.npz"))
    else:
        out["meta"] = runtime_meta()


def recorded(workload: str, seed: int) -> dict:
    """Final f and flop count recorded for this workload and seed by
    record.py; a seed missing from the table fails the run."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)["workloads"][workload]
    if str(seed) not in table:
        raise RuntimeError(f"no recorded result for {workload} seed {seed}")
    return table[str(seed)]


def layer_metrics(s: dict, sizes: dict, trace, cfg, steps: int, csv_bytes: int) -> dict:
    """Per-layer numbers of one traced run, named as in BENCHMARK.json.

    On lorentz-embed the problem build is ``make_lorentz_embed``, the
    initial point ``initial_embedding`` and the engine ``embeddings.train``,
    so ``optimize.step_us`` is that engine's time per word-pair step.
    """

    def calls(*names):
        return sum(s[n]["calls"] for n in names if n in s)

    def incl(*names):
        return sum((s[n]["incl_s"] for n in names if n in s), 0.0)

    def self_s(*names):
        return sum((s[n]["self_s"] for n in names if n in s), 0.0)

    rot_calls = calls("linalg.rotation")
    rot_elems = sizes.get("linalg.rotation", 0)
    # a rotation reads and writes two rows of float64 (32 B per element) and
    # costs 6 flops per element plus two transcendentals (8 flops each)
    rot_bytes = 32 * rot_elems
    rot_flops = 6 * rot_elems + 16 * rot_calls
    deriv_calls = calls("manifolds.derivative")
    engine_s = incl("optimize.optimize", "embeddings.train")
    return {
        "cli.import_s": incl("cli.import"),
        "problems.build_s": incl("problems.build_problem", "embeddings.make_lorentz_embed"),
        "problems.init_point_s": incl("problems.initial_point", "embeddings.initial_embedding"),
        "rng.gaussian_s": incl("rng.gaussian"),
        "linalg.factorization_s": incl("linalg.thin_qr", "linalg.sym_eig", "linalg.thin_svd"),
        "problems.grad_calls": calls("problems.grad"),
        "problems.grad_s": incl("problems.grad"),
        "problems.value_calls": calls("problems.value"),
        "problems.value_s": incl("problems.value"),
        "rng.permutation_calls": calls("rng.permutation"),
        "rng.permutation_s": incl("rng.permutation"),
        "linalg.rotation_calls": rot_calls,
        "linalg.rotation_s": incl("linalg.rotation"),
        "linalg.rotation_ns_per_call":
            incl("linalg.rotation") * 1e9 / rot_calls if rot_calls else 0.0,
        "linalg.rotation_bytes_computed": rot_bytes,
        "linalg.rotation_flops_per_byte": rot_flops / rot_bytes if rot_bytes else 0.0,
        "manifolds.derivative_calls": deriv_calls,
        "manifolds.derivative_s": incl("manifolds.derivative"),
        "manifolds.retract_calls": calls("manifolds.retract"),
        "manifolds.retract_self_s": self_s("manifolds.retract"),
        "manifolds.carrier_s": incl("manifolds.carrier"),
        "manifolds.carrier_update_calls": calls("manifolds.carrier_update"),
        "manifolds.carrier_update_s": incl("manifolds.carrier_update"),
        "manifolds.move_ratio": calls("manifolds.retract") / deriv_calls if deriv_calls else 0.0,
        "optimize.steps": steps,
        "optimize.epochs": cfg.epochs,
        "optimize.self_s": self_s("optimize.optimize"),
        "optimize.step_us": engine_s * 1e6 / steps,
        "optimize.records": len(trace.records),
        "optimize.clamped_steps": trace.clamped_steps,
        "optimize.oracle_calls": trace.oracle_calls,
        "optimize.flops_oracle": trace.oracle_flops,
        "optimize.flops_update": trace.update_flops,
        "optimize.flops_instrumentation": trace.instrumentation_flops,
        "embeddings.grad_calls": calls("embeddings.grad"),
        "embeddings.grad_s": incl("embeddings.grad"),
        "embeddings.loss_s": incl("embeddings.loss"),
        "embeddings.train_self_s": self_s("embeddings.train"),
        "bench.csv_write_s": incl("bench.write_trace_csv"),
        "bench.csv_bytes": csv_bytes,
    }


def runtime_meta() -> dict:
    """Library versions and the BLAS build numpy reports."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


if __name__ == "__main__":
    sys.exit(main())

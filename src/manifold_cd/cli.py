"""Command-line interface.

Subcommands:

* ``run``     one experiment; writes the CSV trace and prints a summary line
* ``grid``    stepsize grid search; prints the winning configuration as JSON
* ``verify``  the full invariant and acceptance suite; exit 0 iff all pass
* ``flops``   prints the published flop-model table
* ``preset``  lists named experiment configurations or dumps one as JSON

``run`` and ``grid`` take the flags of ``_FLAGS``, which defaults them to
``OptimizerConfig``'s fields and ``problems.PROBLEM_FLAGS``.

Flags may also come from a flat JSON config file (``--config``); explicit
command-line flags override file values, and unknown keys in the file are
rejected, as are file values of the wrong type.  Exit codes: 0 success; 2
when argparse rejects the command line; 1 otherwise: a runtime failure, a
failed ``verify`` criterion, an unknown preset and, until configuration checks
get exit 2 (ROADMAP item 9), every configuration check.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bench import GRID_DEFAULT, grid_search, run_experiment
from .flops import render_table
from .optimize import ALGORITHMS, SELECTIONS, TRACES, OptimizerConfig
from .problems import PRESETS, PROBLEM_FLAGS, PROBLEMS

# Every run/grid setting once: key -> (type, default, choices).  Its flag is
# --key with "-" for "_"; a bool is a store_true switch.
_FLAGS = {
    "problem": (str, "procrustes", PROBLEMS),
    "algo": (str, OptimizerConfig.algorithm, ALGORITHMS),
    "select": (str, OptimizerConfig.selection, SELECTIONS),
    "n": (int, 20, None),
    "p": (int, 10, None),
    "eta": (float, OptimizerConfig.eta, None),
    "epochs": (int, OptimizerConfig.epochs, None),
    "inner": (int, OptimizerConfig.inner, None),
    "seed": (int, OptimizerConfig.seed, None),
    "out": (str, None, None),
    "cond": (float, PROBLEM_FLAGS["cond"][1], None),
    "density": (float, PROBLEM_FLAGS["density"][1], None),
    "eta_decay": (float, OptimizerConfig.eta_decay, None),
    "grad_log": (int, OptimizerConfig.grad_log_every, None),
    "feas_log": (int, OptimizerConfig.feas_log_every, None),
    "wall": (bool, OptimizerConfig.log_wall, None),
    "planted": (bool, PROBLEM_FLAGS["planted"][1], None),
    "trace": (str, OptimizerConfig.trace, TRACES),
}

_DEFAULTS = {key: default for key, (_, default, _) in _FLAGS.items()}
# a config file may also carry a preset's "grid", which is dropped
_RUN_KEYS = {key: kind for key, (kind, _, _) in _FLAGS.items()} | {"grid": str}

_GRID_LABEL = f"2^{math.log2(GRID_DEFAULT[0]):.0f}..2^{math.log2(GRID_DEFAULT[-1]):.0f}"


def _add_run_flags(sub):
    for key, (kind, _, choices) in _FLAGS.items():
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            sub.add_argument(flag, action="store_true", default=None)
        elif kind is str:
            sub.add_argument(flag, choices=choices)
        else:
            sub.add_argument(flag, type=kind)
    sub.add_argument("--config", help="flat JSON file of these flags")


def _merge_config(args) -> dict:
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            file_vals = json.load(fh)
        if not isinstance(file_vals, dict):
            raise ValueError("config file must hold a JSON object, "
                             f"got {type(file_vals).__name__}")
        unknown = set(file_vals) - set(_RUN_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, val in file_vals.items():
            _check_file_value(key, val)
        merged.update({k: v for k, v in file_vals.items() if k != "grid"})
    for key in _RUN_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _check_file_value(key: str, val) -> None:
    """A config-file value must have its flag's type: a bool is not an int,
    an int is a valid float, and null stands only for a None default."""
    want = _RUN_KEYS[key]
    if val is None:
        ok = key in _DEFAULTS and _DEFAULTS[key] is None
    elif isinstance(val, bool):
        ok = want is bool
    else:
        ok = isinstance(val, (int, float) if want is float else want)
    if not ok:
        raise ValueError(f"config key {key!r} must be {want.__name__}, got {val!r}")


def _build_cfg(vals: dict) -> OptimizerConfig:
    return OptimizerConfig(
        algorithm=vals["algo"],
        epochs=vals["epochs"],
        inner=vals["inner"],
        eta=vals["eta"],
        eta_decay=vals["eta_decay"],
        selection=vals["select"],
        seed=vals["seed"],
        grad_log_every=vals["grad_log"],
        feas_log_every=vals["feas_log"],
        log_wall=vals["wall"],
        trace=vals["trace"],
    )


def _emit_json(doc: dict, out_path: str | None) -> None:
    """Print ``doc`` as sorted, indented JSON, and write it to ``out_path``."""
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _cmd_run(args) -> int:
    vals = _merge_config(args)
    result = run_experiment(vals["problem"], vals["n"], vals["p"], vals["seed"],
                            _build_cfg(vals), out_path=vals["out"],
                            **{key: vals[key] for key in PROBLEM_FLAGS})
    print(result.summary())
    return 0


def _cmd_grid(args) -> int:
    vals = _merge_config(args)
    best, scored = grid_search(vals["problem"], vals["n"], vals["p"], vals["seed"],
                               _build_cfg(vals), **{key: vals[key] for key in PROBLEM_FLAGS})
    for eta, f in scored:
        tag = " (diverged)" if math.isinf(f) else ""
        print(f"# eta={eta:.10g} final_f={f:.12g}{tag}", file=sys.stderr)
    out = dict(vals, eta=best, grid=_GRID_LABEL)
    del out["out"], out["trace"]
    _emit_json(out, vals["out"])
    return 0


def _cmd_verify(args) -> int:
    from .acceptance import run_all

    results = run_all(numbers=args.only)
    failed = [r for r in results if not r.passed]
    return 1 if failed else 0


def _cmd_flops(_args) -> int:
    print(render_table())
    return 0


def _cmd_preset(args) -> int:
    if args.name is None:
        for name in sorted(PRESETS):
            print(name)
        return 0
    if args.name not in PRESETS:
        print(f"unknown preset {args.name!r}; available: {', '.join(sorted(PRESETS))}",
              file=sys.stderr)
        return 1
    _emit_json(PRESETS[args.name], args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manifold-cd",
        description="coordinate descent on matrix manifolds: benchmarks and checks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    run_p = subs.add_parser("run", help="run one experiment, write a CSV trace")
    _add_run_flags(run_p)
    run_p.set_defaults(func=_cmd_run)

    grid_p = subs.add_parser("grid", help=f"stepsize grid search over {_GRID_LABEL}")
    _add_run_flags(grid_p)
    grid_p.set_defaults(func=_cmd_grid)

    verify_p = subs.add_parser("verify", help="run the invariant/acceptance suite")
    verify_p.add_argument("--only", type=int, nargs="*", default=None,
                          help="criterion numbers to run (default: all)")
    verify_p.set_defaults(func=_cmd_verify)

    flops_p = subs.add_parser("flops", help="print the flop model table")
    flops_p.set_defaults(func=_cmd_flops)

    preset_p = subs.add_parser("preset", help="list or dump named configurations")
    preset_p.add_argument("name", nargs="?")
    preset_p.add_argument("--out")
    preset_p.set_defaults(func=_cmd_preset)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # an unexpected failure still ends as one line
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

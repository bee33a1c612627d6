"""CLI surface and the CSV trace contract."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from manifold_cd import ManifoldDescriptor, bench, cli, embeddings, make_manifold
from manifold_cd.bench import (
    CSV_HEADER,
    grid_search,
    read_trace_csv,
    run_experiment,
    write_trace_csv,
)
from manifold_cd.cli import main
from manifold_cd.flops import render_table
from manifold_cd.indices import Column, Entry, Pair
from manifold_cd.manifolds.base import FAMILIES
from manifold_cd.manifolds.stiefel import tsd_flop_parts
from manifold_cd.optimize import OptimizeAbort, OptimizerConfig, Trace
from manifold_cd.problems import (
    PRESETS,
    PROBLEM_FLAGS,
    PROBLEMS,
    build_problem,
    check_problem_flags,
)


# ``manifold-cd flops``, byte for byte: the published flop model.
FLOPS_TABLE = "\n".join([
    "flop model",
    "  scalar add/sub/mul/div ........ 1 flop",
    "  transcendental (sin, cos, cosh, sinh, exp, log, arccosh, sqrt) ... 8 flops",
    "  rotation coefficient setup .... 0 (fixed per-step overhead, excluded)",
    "  gradient oracle ............... charged per invocation, per-problem formula",
    "  constant-gradient objectives .. oracle cost 0 (materialized at build)",
    "  instrumentation (f, |grad|, feasibility logging) ... off the ledger",
    "",
    "per-update cost (derivative + update) by family",
    "  stiefel, grassmann   pair         4p   + 6p",
    "  hyperbolic           pair         4p   + 6p",
    "  symplectic (2p wide) pair i<j     8p   + 8p",
    "                       diag i=j     4p+1 + 4p+1",
    "                       scale j=i+n  8p   + 4p+17",
    "  doubly stochastic    entry        3    + 122",
    "  multinomial          entry        1    + 26",
    "  factored SPSD        entry        1    + 2",
    "  SPD (BW metric)      pair i<j     4n+2 + 4n+17",
    "                       diag i=j     2n+1 + n+4",
    "  columnwise stiefel   pair         4n   + 6n",
    "                       column       4np+n + 6n+9",
]) + "\n"


def _run_cli(args):
    return main(args)


class TestCsvContract:
    def test_header_and_roundtrip(self, tmp_path):
        cfg = OptimizerConfig(algorithm="rcd", epochs=3, eta=0.1,
                              selection="cyclic", seed=1, grad_log_every=1,
                              feas_log_every=2)
        path = str(tmp_path / "t.csv")
        result = run_experiment("procrustes", 8, 3, 1, cfg, out_path=path)
        with open(path, encoding="utf-8") as fh:
            first = fh.readline().rstrip("\n")
        assert first == CSV_HEADER
        records = read_trace_csv(path)
        assert records == result.trace.records

    def test_lf_endings_and_empty_optionals(self, tmp_path):
        cfg = OptimizerConfig(algorithm="rcd", epochs=2, eta=0.1,
                              selection="cyclic", seed=1)
        path = str(tmp_path / "t.csv")
        run_experiment("procrustes", 6, 2, 1, cfg, out_path=path)
        raw = open(path, "rb").read()
        assert b"\r" not in raw
        line = raw.decode("utf-8").splitlines()[1]
        fields = line.split(",")
        assert len(fields) == 7
        assert fields[3] == "" and fields[4] == "" and fields[6] == ""

    def test_float_format_is_lossless(self, tmp_path):
        cfg = OptimizerConfig(algorithm="rcdlin", epochs=4, eta=0.17,
                              selection="random", seed=3)
        path = str(tmp_path / "t.csv")
        result = run_experiment("pca", 8, 2, 3, cfg, out_path=path)
        back = read_trace_csv(path)
        for a, b in zip(result.trace.records, back):
            assert a.f == b.f  # exact, not approximate

    def test_byte_identical_reruns(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            path = str(tmp_path / f"{tag}.csv")
            code = _run_cli([
                "run", "--problem", "procrustes", "--algo", "rcd",
                "--select", "cyclic", "--n", "10", "--p", "4",
                "--eta", "0.125", "--epochs", "5", "--seed", "7",
                "--out", path,
            ])
            assert code == 0
            blobs.append(open(path, "rb").read())
        assert blobs[0] == blobs[1]


class TestCliCommands:
    def test_flops_table(self, capsys):
        assert _run_cli(["flops"]) == 0
        assert capsys.readouterr().out == FLOPS_TABLE

    def test_preset_listing_and_dump(self, capsys, tmp_path):
        assert _run_cli(["preset"]) == 0
        names = capsys.readouterr().out.split()
        assert "procrustes-desk" in names
        out_path = str(tmp_path / "cfg.json")
        assert _run_cli(["preset", "procrustes-desk", "--out", out_path]) == 0
        cfg = json.loads(open(out_path).read())
        assert cfg["problem"] == "procrustes" and cfg["eta"] > 0

    def test_unknown_preset_fails(self):
        assert _run_cli(["preset", "nope"]) == 1

    def test_run_reports_gap(self, capsys, tmp_path):
        path = str(tmp_path / "t.csv")
        code = _run_cli([
            "run", "--problem", "procrustes", "--algo", "rcd",
            "--select", "cyclic", "--n", "12", "--p", "5", "--eta", "0.125",
            "--epochs", "60", "--seed", "7", "--out", path,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "gap=" in out and "closed_form" in out

    def test_config_file_with_override(self, capsys, tmp_path):
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump({"problem": "procrustes", "n": 10, "p": 4, "seed": 3,
                       "algo": "rcd", "select": "cyclic", "eta": 0.125,
                       "epochs": 5}, fh)
        out_path = str(tmp_path / "t.csv")
        code = _run_cli(["run", "--config", cfg_path, "--epochs", "7",
                         "--out", out_path])
        assert code == 0
        records = read_trace_csv(out_path)
        assert records[-1].k == 6  # override wins over the file value

    def test_config_unknown_keys_rejected(self, tmp_path, capsys):
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump({"problem": "procrustes", "bogus": 1}, fh)
        assert _run_cli(["run", "--config", cfg_path]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_grid_emits_best_config(self, capsys, tmp_path):
        out_path = str(tmp_path / "best.json")
        code = _run_cli([
            "grid", "--problem", "procrustes", "--algo", "rcd",
            "--select", "cyclic", "--n", "8", "--p", "3", "--epochs", "20",
            "--seed", "2", "--trace", "epoch", "--out", out_path,
        ])
        assert code == 0
        best = json.loads(open(out_path).read())
        assert best["grid"] == "2^-10..2^3"
        assert best["eta"] in [2.0**k for k in range(-10, 4)]

    def test_usage_error_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "manifold_cd.cli", "run", "--bogus-flag"],
            capture_output=True,
        )
        assert proc.returncode == 2

    def test_wall_flag_populates_wall_ns(self, tmp_path):
        path = str(tmp_path / "t.csv")
        code = _run_cli([
            "run", "--problem", "procrustes", "--algo", "rcd",
            "--select", "cyclic", "--n", "8", "--p", "3", "--eta", "0.125",
            "--epochs", "2", "--seed", "1", "--out", path, "--wall",
        ])
        assert code == 0
        records = read_trace_csv(path)
        assert all(r.wall_ns is not None for r in records)
        assert all(b.wall_ns >= a.wall_ns for a, b in zip(records, records[1:]))

    def test_lorentz_run(self, tmp_path, capsys):
        path = str(tmp_path / "t.csv")
        code = _run_cli([
            "run", "--problem", "lorentz", "--algo", "rcdlin",
            "--select", "time-cyclic", "--n", "3", "--p", "12",
            "--eta", "0.05", "--eta-decay", "0.1", "--epochs", "5",
            "--seed", "29", "--out", path,
        ])
        assert code == 0
        records = read_trace_csv(path)
        assert len(records) == 5


# Each row of the printed per-update table -> the (family, label) pairs it
# prices; a label may depend on n, and family None is the column-wise Stiefel
# baseline (``tsd_flop_parts``).
FLOPS_TABLE_LABELS = {
    ("stiefel, grassmann", "pair"): [("stiefel", Pair(0, 1)), ("grassmann", Pair(2, 4))],
    ("hyperbolic", "pair"): [("hyperbolic", Pair(0, 1)), ("hyperbolic", Pair(1, 3))],
    ("symplectic (2p wide)", "pair i<j"): [("symplectic", Pair(0, 2))],
    ("symplectic (2p wide)", "diag i=j"): [("symplectic", Pair(1, 1))],
    ("symplectic (2p wide)", "scale j=i+n"): [("symplectic", lambda n: Pair(1, 1 + n))],
    ("doubly stochastic", "entry"): [("doubly_stochastic", Entry(1, 0))],
    ("multinomial", "entry"): [("multinomial", Entry(1, 0))],
    ("factored SPSD", "entry"): [("spsd_factored", Entry(1, 2))],
    ("SPD (BW metric)", "pair i<j"): [("spd_bures_wasserstein", Pair(0, 2))],
    ("SPD (BW metric)", "diag i=j"): [("spd_bures_wasserstein", Pair(1, 1))],
    ("columnwise stiefel", "pair"): [(None, Pair(0, 1))],
    ("columnwise stiefel", "column"): [(None, Column(2))],
}


def _flops_table_rows():
    """{(family, label kind): (derivative formula, update formula)}, read from
    the printed table's fixed columns; a blank family repeats the one above."""
    lines = render_table().splitlines()
    rows, family = {}, None
    for line in lines[lines.index("per-update cost (derivative + update) by family") + 1:]:
        family = line[2:23].strip() or family
        rows[family, line[23:36].strip()] = tuple(line[36:].split(" + "))
    return rows


@pytest.mark.parametrize("n, p", [(5, 3), (9, 4)])
def test_flops_table_matches_the_ledger(n, p):
    rows = _flops_table_rows()
    assert set(rows) == set(FLOPS_TABLE_LABELS)
    priced = {family for pairs in FLOPS_TABLE_LABELS.values() for family, _ in pairs}
    assert priced == set(FAMILIES) | {None}
    for key, formulas in rows.items():
        # "4np+n" -> 4*n*p+n
        printed = tuple(eval(re.sub(r"(?<=[\dnp])(?=[np])", "*", f.strip()), {"n": n, "p": p})
                        for f in formulas)
        for family, label in FLOPS_TABLE_LABELS[key]:
            label = label(n) if callable(label) else label
            if family is None:
                parts = tsd_flop_parts(label, n, p)
            else:
                dims = (n, n) if family == "spd_bures_wasserstein" else (n, p)
                parts = make_manifold(ManifoldDescriptor(family, dims)).flop_parts(label)
            assert parts == printed, (key, family, label)


def test_run_without_trace_reports_final_f(capsys, tmp_path):
    args = ["run", "--problem", "procrustes", "--algo", "rcd", "--epochs", "5"]
    path = str(tmp_path / "t.csv")
    assert _run_cli(args + ["--trace", "step", "--out", path]) == 0
    last = read_trace_csv(path)[-1].f
    capsys.readouterr()
    assert _run_cli(args + ["--trace", "none"]) == 0
    out = capsys.readouterr().out
    assert f"final_f={last:.12g}" in out


def test_untraced_diverged_run_fails(capsys):
    # diverges at epoch 4; with no record the final f is checked at the last step
    code = _run_cli(["run", "--problem", "weighted-ls", "--n", "8", "--p", "3",
                     "--algo", "rgd", "--eta", "8", "--epochs", "30", "--trace", "none"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: non-finite objective at epoch 29, inner step 0\n"


@pytest.mark.parametrize("logs", [[], ["--grad-log", "1"]], ids=["plain", "grad-log"])
def test_grid_scores_singular_projection_as_diverged(capsys, logs):
    # with --grad-log the epoch-start log meets the singular projection
    # before the step does; the loop locates both
    code = _run_cli([
        "grid", "--problem", "nearest-symplectic", "--algo", "rgd",
        "--n", "4", "--p", "2", "--epochs", "20", "--seed", "1",
    ] + logs)
    assert code == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["eta"] == 0.5
    assert "(diverged)" in captured.err


def test_planted_run_reports_absolute_gap(capsys, tmp_path):
    path = str(tmp_path / "t.csv")
    code = _run_cli([
        "run", "--problem", "nearest-symplectic", "--planted",
        "--algo", "rcd", "--select", "cyclic", "--n", "4", "--p", "3",
        "--eta", "0.02", "--epochs", "50", "--seed", "9", "--out", path,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "abs_gap=" in out  # planted reference is exactly zero, flagged


@pytest.mark.parametrize("extra", [["--select", "random"], ["--inner", "3"]])
def test_rgd_rejects_selection_and_inner(capsys, extra):
    code = _run_cli(["run", "--problem", "procrustes", "--n", "5", "--p", "2",
                     "--epochs", "3", "--algo", "rgd"] + extra)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_pca_needs_two_rows(capsys):
    code = _run_cli(["run", "--problem", "pca", "--n", "1", "--p", "1",
                     "--epochs", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _one_error_line(capsys):
    err = capsys.readouterr().err
    return err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("select", ["cyclic", "random", "without-replacement"])
def test_inner_steps_over_an_empty_basis_rejected(capsys, tmp_path, select):
    # Stiefel(1, 1) has no coordinate pairs: with no --inner an epoch takes no step
    base = ["run", "--problem", "procrustes", "--n", "1", "--p", "1", "--epochs", "2",
            "--select", select, "--out", str(tmp_path / "t.csv")]
    assert _run_cli(base) == 0
    capsys.readouterr()
    assert _run_cli(base + ["--inner", "3"]) == 1
    err = capsys.readouterr().err
    assert err == "error: 3 inner steps per epoch were requested, but the label set is empty\n"


@pytest.mark.parametrize("file_vals", [{"epochs": "5"}, {"n": 6.5, "p": 2, "epochs": 2},
                                       {"wall": 1}, {"epochs": True}, {"eta": None}])
def test_config_value_of_wrong_type_rejected(capsys, tmp_path, file_vals):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(file_vals))
    assert _run_cli(["run", "--config", str(cfg_path)]) == 1
    assert _one_error_line(capsys)


@pytest.mark.parametrize("text, kind", [('"eta"', "str"), ('["eta"]', "list"),
                                        ("3", "int")])
def test_config_file_that_is_not_an_object_rejected(capsys, tmp_path, text, kind):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert _run_cli(["run", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: config file must hold a JSON object, got {kind}\n")


def test_config_accepts_int_for_float_and_null_inner(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 6, "p": 2, "epochs": 2, "eta": 1, "inner": None}))
    assert _run_cli(["run", "--config", str(cfg_path)]) == 0


def test_unexpected_exception_is_one_error_line(capsys, monkeypatch):
    def boom(*_args, **_kw):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "run_experiment", boom)
    assert _run_cli(["run", "--epochs", "1"]) == 1
    assert _one_error_line(capsys)


@pytest.mark.parametrize("cond", ["0", "-1", "0.5", "nan"])
def test_pca_rejects_cond_below_one(capsys, cond):
    code = _run_cli(["run", "--problem", "pca", "--n", "8", "--p", "2",
                     "--cond", cond, "--epochs", "2"])
    assert code == 1
    assert _one_error_line(capsys)


@pytest.mark.parametrize("extra", [["--eta-decay", "-1"], ["--eta-decay", "-0.6"],
                                   ["--grad-log", "-1"], ["--feas-log", "-1"],
                                   ["--eta", "nan"], ["--eta", "inf"]])
def test_out_of_range_schedule_and_cadence_rejected(capsys, extra):
    code = _run_cli(["run", "--problem", "procrustes", "--n", "6", "--p", "2",
                     "--epochs", "3"] + extra)
    assert code == 1
    assert _one_error_line(capsys)


@pytest.mark.parametrize("words", ["0", "1"])
def test_lorentz_needs_two_words(capsys, words):
    code = _run_cli(["run", "--problem", "lorentz", "--n", "3", "--p", words,
                     "--algo", "rcdlin", "--select", "time-cyclic", "--epochs", "2"])
    assert code == 1
    assert _one_error_line(capsys)


@pytest.mark.parametrize("cmd, extra", [
    ("run", ["--problem", "lorentz", "--n", "3", "--p", "8", "--algo", "rcdlin",
             "--planted", "--cond", "0", "--density", "7", "--trace", "none"]),
    ("run", ["--problem", "procrustes", "--n", "6", "--p", "2", "--cond", "10"]),
    ("run", ["--problem", "pca", "--n", "6", "--p", "2", "--density", "0.5"]),
    ("run", ["--problem", "weighted-ls", "--n", "6", "--p", "2", "--planted"]),
    ("grid", ["--problem", "procrustes", "--n", "6", "--p", "2", "--planted"]),
])
def test_flag_the_problem_does_not_read_is_rejected(capsys, cmd, extra):
    assert _run_cli([cmd, *extra, "--epochs", "2"]) == 1
    assert _one_error_line(capsys)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_no_preset_sets_a_flag_its_problem_ignores(name):
    vals = PRESETS[name]
    check_problem_flags(vals["problem"], **{k: vals[k] for k in PROBLEM_FLAGS if k in vals})


def test_grid_honours_planted():
    cfg = OptimizerConfig(algorithm="rcd", epochs=5, eta=0.02, seed=9)
    scores = [grid_search("nearest-symplectic", 4, 3, 9, cfg, etas=(0.02,),
                          planted=planted)[1] for planted in (False, True)]
    assert scores[0] != scores[1]


def test_grid_keeps_every_config_field():
    # a stepsize decay moves every final f, so a grid that rebuilt the config
    # from eta alone would score the undecayed runs
    cfg = OptimizerConfig(algorithm="rcdlin", epochs=5, eta=0.1, seed=0)
    decayed = replace(cfg, eta_decay=2.0)
    plain, scored = [grid_search("pca", 8, 2, 0, c, etas=(0.1, 0.4))[1]
                     for c in (cfg, decayed)]
    for (eta, f_plain), (_, f) in zip(plain, scored):
        assert f != f_plain
        run = run_experiment("pca", 8, 2, 0, replace(decayed, eta=eta, trace="epoch"))
        assert f == run.final_f


def test_grid_prefers_the_smallest_tied_eta(monkeypatch):
    """Among final f values within 1e-12 (relative) of the best, the smallest
    stepsize wins, wherever it sits in the grid; an aborted run scores +inf
    and never wins, even at the smallest stepsize."""
    finals = {0.4: 1.0, 0.1: 1.0 + 1e-13, 0.8: 1.0, 0.2: 2.0, 0.05: None}

    def solve(cfg):
        if finals[cfg.eta] is None:
            raise OptimizeAbort(0, 0, "non-finite objective")
        return None, Trace(unrecorded_f=finals[cfg.eta])

    monkeypatch.setattr(bench, "_setup", lambda *args, **flags: (solve,))
    best, scored = grid_search("pca", 4, 2, 0, OptimizerConfig(), etas=tuple(finals))
    assert best == 0.1
    assert scored == [(0.4, 1.0), (0.1, 1.0 + 1e-13), (0.8, 1.0), (0.2, 2.0),
                      (0.05, math.inf)]
    finals[0.1] = 1.0 + 1e-11
    assert grid_search("pca", 4, 2, 0, OptimizerConfig(), etas=tuple(finals))[0] == 0.4


def _diverging_solve(cfg):
    raise OptimizeAbort(0, 0, "non-finite objective")


def test_grid_with_every_stepsize_diverged_has_no_winner(monkeypatch):
    monkeypatch.setattr(bench, "_setup", lambda *args, **flags: (_diverging_solve,))
    with pytest.raises(RuntimeError, match="every stepsize in the grid diverged"):
        grid_search("pca", 4, 2, 0, OptimizerConfig(), etas=(0.1, 0.2))


def test_cli_grid_with_every_stepsize_diverged_fails(monkeypatch, capsys):
    monkeypatch.setattr(bench, "_setup", lambda *args, **flags: (_diverging_solve,))
    assert _run_cli(["grid", "--problem", "pca", "--n", "4", "--p", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: every stepsize in the grid diverged\n"


# Tiny runs of every CLI problem; the last stepsize of the lorentz grid
# overflows a rotation angle (epoch 8), so it scores +inf.
GRID_CASES = [
    ("procrustes", 6, 2, 1, dict(algorithm="rcd"), (0.05, 0.5), {}),
    ("pca", 6, 2, 3, dict(algorithm="rcdlin"), (0.05, 0.5), {"cond": 50.0}),
    ("nearest-symplectic", 3, 2, 9, dict(algorithm="rcd"), (0.01, 0.05), {}),
    ("nearest-symplectic", 3, 2, 9, dict(algorithm="rcd"), (0.01, 0.05), {"planted": True}),
    ("weighted-ls", 5, 2, 4, dict(algorithm="rcdlin", selection="without-replacement"),
     (0.05, 0.5), {"density": 0.7}),
    ("ds-quadratic", 4, 3, 2, dict(algorithm="rcd", selection="random"), (0.05, 0.5), {}),
    ("lorentz", 3, 10, 3, dict(algorithm="rcdlin", selection="time-cyclic", inner=2,
                               epochs=30), (0.05, 0.2), {}),
]


def test_grid_cases_cover_every_problem():
    assert {case[0] for case in GRID_CASES} == set(PROBLEMS)


@pytest.mark.parametrize("problem, n, p, seed, kw, etas, flags", GRID_CASES,
                         ids=[f"{c[0]}{'-planted' if c[6].get('planted') else ''}"
                              for c in GRID_CASES])
def test_grid_builds_once_and_scores_direct_runs(monkeypatch, problem, n, p, seed, kw,
                                                 etas, flags):
    """One problem build and one initial point serve every stepsize, the
    grid never resolves a long-run reference, and each score is bitwise the
    final f of a direct epoch-traced run at that stepsize (+inf when the
    direct run aborts)."""
    calls = {"build": 0, "initial_point": 0, "long_run_reference": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(bench, "build_problem", counted("build", bench.build_problem))
    monkeypatch.setattr(embeddings, "make_lorentz_embed",
                        counted("build", embeddings.make_lorentz_embed))
    monkeypatch.setattr(bench, "initial_point", counted("initial_point", bench.initial_point))
    # the direct runs below resolve it; a stand-in keeps them short
    monkeypatch.setattr(bench, "long_run_reference",
                        counted("long_run_reference", lambda *_args: 0.0))
    cfg = OptimizerConfig(**{"epochs": 5, "seed": seed, **kw})
    _, scored = grid_search(problem, n, p, seed, cfg, etas=etas, **flags)
    assert calls == {"build": 1, "initial_point": int(problem != "lorentz"),
                     "long_run_reference": 0}
    assert [eta for eta, _ in scored] == list(etas)
    for eta, f in scored:
        direct = replace(cfg, eta=eta, trace="epoch")
        if math.isinf(f):
            with pytest.raises(OptimizeAbort):
                run_experiment(problem, n, p, seed, direct, **flags)
        else:
            assert f == run_experiment(problem, n, p, seed, direct, **flags).final_f
    if problem == "lorentz":
        assert scored[-1][1] == math.inf
    if problem == "nearest-symplectic" and not flags:
        assert calls["long_run_reference"] == len(etas)


# The run/grid flag surface, pinned: (option, dest, type, choices, store_true).
RUN_FLAGS = [
    ("--problem", "problem", None, ("procrustes", "pca", "nearest-symplectic",
                                    "weighted-ls", "ds-quadratic", "lorentz"), False),
    ("--algo", "algo", None, ("rcd", "rcdlin", "rgd", "tsd"), False),
    ("--select", "select", None,
     ("cyclic", "random", "without-replacement", "time-cyclic"), False),
    ("--n", "n", int, None, False),
    ("--p", "p", int, None, False),
    ("--eta", "eta", float, None, False),
    ("--epochs", "epochs", int, None, False),
    ("--inner", "inner", int, None, False),
    ("--seed", "seed", int, None, False),
    ("--out", "out", None, None, False),
    ("--cond", "cond", float, None, False),
    ("--density", "density", float, None, False),
    ("--eta-decay", "eta_decay", float, None, False),
    ("--grad-log", "grad_log", int, None, False),
    ("--feas-log", "feas_log", int, None, False),
    ("--wall", "wall", None, None, True),
    ("--planted", "planted", None, None, True),
    ("--trace", "trace", None, ("step", "epoch", "none"), False),
    ("--config", "config", None, None, False),
]

# perfbench merges workloads over these
DEFAULTS = {
    "problem": "procrustes", "algo": "rcd", "select": "cyclic",
    "n": 20, "p": 10, "eta": 0.1, "epochs": 100, "inner": None, "seed": 0,
    "out": None, "cond": 1e3, "density": 1.0, "eta_decay": 0.0,
    "grad_log": 0, "feas_log": 0, "wall": False, "planted": False,
    "trace": "step",
}


@pytest.mark.parametrize("command", ["run", "grid"])
def test_run_and_grid_flag_surface(command):
    subs = next(a for a in cli.build_parser()._actions if a.dest == "command")
    actions = [a for a in subs.choices[command]._actions if a.dest != "help"]
    got = [(a.option_strings[0], a.dest, a.type,
            tuple(a.choices) if a.choices else None, a.const is True and a.nargs == 0)
           for a in actions]
    assert got == RUN_FLAGS
    assert all(len(a.option_strings) == 1 and a.default is None for a in actions)


def test_cli_defaults_pinned():
    assert cli._DEFAULTS == DEFAULTS
    assert list(cli._DEFAULTS) == list(DEFAULTS)
    assert [type(v) for v in cli._DEFAULTS.values()] == [type(v) for v in DEFAULTS.values()]


def test_unknown_problem_flag_is_a_type_error():
    with pytest.raises(TypeError, match="densty"):
        build_problem("weighted-ls", 6, 2, 0, densty=0.5)


_COLD_START = """
import sys
from manifold_cd import cli
assert cli.main(["run", "--problem", "procrustes", "--algo", "rcd", "--n", "6",
                 "--p", "2", "--epochs", "2", "--out", sys.argv[1]]) == 0
assert "scipy" not in sys.modules, "a coordinate-descent run imported scipy"

import numpy as np
from manifold_cd import ManifoldDescriptor, make_manifold
from manifold_cd.optimize import Objective, OptimizerConfig, run_rgd
from manifold_cd.rng import SplitMix64

for family, dims in (("hyperbolic", (3, 1)), ("symplectic", (2, 1))):
    man = make_manifold(ManifoldDescriptor(family, dims))
    x0 = man.random_point(SplitMix64(0))
    obj = Objective(value=lambda x: float(np.sum(x * x)), euclid_grad=lambda x: 2.0 * x)
    x, _ = run_rgd(man, obj, x0, OptimizerConfig(algorithm="rgd", epochs=2, eta=0.01))
    assert man.feasibility_residual(x) < 1e-10, family
assert "scipy.linalg" in sys.modules
"""


def test_cold_start_imports_scipy_only_for_full_retractions(tmp_path):
    # a fresh interpreter: this test process has imported scipy elsewhere
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _COLD_START, str(tmp_path / "t.csv")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr

"""CLI surface and the CSV trace contract."""

import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from manifold_cd import cli
from manifold_cd.bench import (
    CSV_HEADER,
    PROBLEM_FLAGS,
    check_problem_flags,
    grid_search,
    read_trace_csv,
    run_experiment,
    write_trace_csv,
)
from manifold_cd.cli import main
from manifold_cd.optimize import OptimizerConfig
from manifold_cd.problems import PRESETS


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


def test_run_without_trace_reports_final_f(capsys, tmp_path):
    args = ["run", "--problem", "procrustes", "--algo", "rcd", "--epochs", "5"]
    path = str(tmp_path / "t.csv")
    assert _run_cli(args + ["--trace", "step", "--out", path]) == 0
    last = read_trace_csv(path)[-1].f
    capsys.readouterr()
    assert _run_cli(args + ["--trace", "none"]) == 0
    out = capsys.readouterr().out
    assert f"final_f={last:.12g}" in out


def test_grid_scores_singular_projection_as_diverged(capsys):
    code = _run_cli([
        "grid", "--problem", "nearest-symplectic", "--algo", "rgd",
        "--n", "4", "--p", "2", "--epochs", "20", "--seed", "1",
    ])
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
        run = run_experiment("pca", 8, 2, 0, replace(decayed, eta=eta, trace="epoch"),
                             resolve_reference=False)
        assert f == run.final_f


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

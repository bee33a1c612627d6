"""Experiment execution: build a problem by name, run an algorithm on it,
compute the optimality gap against the problem's reference, and read/write
CSV traces.  A stepsize grid runs every stepsize on one build of the problem
and its initial point.

CSV contract: header ``k,s,f,grad_norm,feasibility,flops,wall_ns``, one row
per iteration record, floats rendered with %.17g (lossless round-trip),
empty fields for unlogged optionals, UTF-8, LF line endings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import embeddings
from .indices import Pair
from .manifolds import make_manifold
from .manifolds.spsd import FactoredSpsd
from .manifolds.symplectic import symplectic_block_step
from .optimize import (
    IterationRecord,
    Objective,
    OptimizeAbort,
    OptimizerConfig,
    Trace,
    coordinate_basis,
    coordinate_step,
    optimize,
    run_epochs,
    run_rcdlin,
    run_rgd,
)
from .problems import (
    ProblemSpec,
    Reference,
    build_problem,
    check_problem_flags,
    initial_point,
    long_run_reference,
    optimality_gap,
    weighted_ls_objective,
)

CSV_HEADER = "k,s,f,grad_norm,feasibility,flops,wall_ns"


@dataclass
class ExperimentResult:
    spec: ProblemSpec
    trace: Trace
    final_f: float
    f_star: float | None
    provenance: str
    gap: float | None
    gap_is_absolute: bool
    out_path: str | None = None

    def summary(self) -> str:
        parts = [f"problem={self.spec.name}", f"final_f={self.final_f:.12g}"]
        if self.f_star is not None:
            parts.append(f"f_star={self.f_star:.12g} ({self.provenance})")
            kind = "abs_gap" if self.gap_is_absolute else "gap"
            parts.append(f"{kind}={self.gap:.6g}")
        parts.append(f"flops={self.trace.total_flops}")
        if self.trace.records and self.trace.records[-1].wall_ns is not None:
            parts.append(f"wall_s={self.trace.records[-1].wall_ns / 1e9:.3f}")
        if self.out_path:
            parts.append(f"trace={self.out_path}")
        return " ".join(parts)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_trace_csv(path: str, trace: Trace) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in trace.records:
            fh.write(
                f"{r.k},{r.s},{_fmt(r.f)},{_fmt(r.grad_norm)},"
                f"{_fmt(r.feasibility)},{r.flops},{_fmt(r.wall_ns)}\n"
            )


def read_trace_csv(path: str) -> list[IterationRecord]:
    records = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected trace header {header!r}")
        for line in fh:
            k, s, f, gn, feas, flops, wall = line.rstrip("\n").split(",")
            records.append(IterationRecord(
                int(k), int(s), float(f),
                float(gn) if gn else None,
                float(feas) if feas else None,
                int(flops),
                int(wall) if wall else None,
            ))
    return records


def _setup(problem: str, n: int, p: int, seed: int, **flags):
    """(spec, objective, reference, x0, solve) of a named problem, built once;
    ``solve(cfg)`` runs ``cfg`` from x0.  Lorentz has no objective or x0 here:
    ``embeddings.train`` builds both."""
    if problem == "lorentz":
        check_problem_flags(problem, **flags)
        prob = embeddings.make_lorentz_embed(n, p, seed)
        return (ProblemSpec("lorentz", None, seed), None, Reference(None, "none"), None,
                lambda cfg: embeddings.train(prob, cfg))
    spec, obj, ref = build_problem(problem, n, p, seed, **flags)
    man = make_manifold(spec.descriptor)
    x0 = initial_point(spec)
    return spec, obj, ref, x0, lambda cfg: optimize(man, obj, x0, cfg)


def run_experiment(problem: str, n: int, p: int, seed: int, cfg: OptimizerConfig,
                   out_path: str | None = None, **flags) -> ExperimentResult:
    """Run ``cfg`` on the named problem (``flags``: its problem flags) and
    score the final f against the reference, resolving a long-run baseline."""
    spec, obj, ref, x0, solve = _setup(problem, n, p, seed, **flags)
    _, trace = solve(cfg)
    final_f = trace.final_f()
    f_star = ref.value
    if f_star is None and ref.provenance == "long_run_baseline":
        f_star = long_run_reference(spec, obj, x0, cfg.epochs, cfg.eta)
    gap = None
    flagged = False
    if f_star is not None:
        gap, flagged = optimality_gap(final_f, f_star)
    result = ExperimentResult(spec, trace, final_f, f_star,
                              ref.provenance, gap, flagged)
    if out_path:
        write_trace_csv(out_path, trace)
        result.out_path = out_path
    return result


# -- stepsize grid search ------------------------------------------------------

GRID_DEFAULT = tuple(2.0**k for k in range(-10, 4))


def grid_search(problem: str, n: int, p: int, seed: int, cfg: OptimizerConfig,
                etas=GRID_DEFAULT, **flags) -> tuple[float, list[tuple[float, float]]]:
    """Run ``cfg`` at every stepsize in the grid, traced per epoch, on one
    build of the problem and return (best eta, [(eta, final f)]).

    A run that aborts scores +inf.
    """
    solve = _setup(problem, n, p, seed, **flags)[-1]

    def one(eta: float) -> float:
        try:
            return solve(replace(cfg, eta=eta, trace="epoch"))[1].final_f()
        except OptimizeAbort:
            return math.inf

    scored = [(eta, one(eta)) for eta in etas]
    best_f = min(f for _, f in scored)
    # among statistically tied winners prefer the smallest stepsize (farthest
    # from the divergence cliff)
    threshold = best_f + 1e-12 * max(1.0, abs(best_f))
    best_eta = min(e for e, f in scored if f <= threshold)
    return best_eta, scored


# -- structured weighted-least-squares runners ----------------------------------


def wls_structured_flops(n: int, p: int, density: float) -> dict[str, int]:
    """Masked-sparsity flop model for the weighted-least-squares benchmark.

    With a 0/1 mask of density d, the masked residual M = A o (Y Y') - B has
    about d*n nonzeros per row.  Building it once costs ``init``.  A
    coordinate step at (i, j) reads one sparse row for theta (``cd_read``,
    2dn), fixes up the masked row/column of M after the single-entry change
    (2dn plus a diagonal correction) and moves one entry of Y; no dense
    matrix product is ever formed.  The full-gradient step must rebuild M
    (d n^2 (2p + 2)) and form the dense factored gradient (2 d n^2 p) every
    epoch.
    """
    dn = max(1, int(round(density * n)))
    nnz = max(1, int(round(density * n * n)))
    read = 2 * dn + 2
    return {
        "init": nnz * (2 * p + 2),
        "cd_read": read,
        "cd_step": read + (2 * dn + 4) + 2,
        "rgd_epoch": nnz * (2 * p + 2) + 2 * nnz * p + 2 * n * p,
    }


class MaskedFactoredSpsd(FactoredSpsd):
    """The factored family priced under the masked-sparsity model: the same
    arithmetic as ``FactoredSpsd``, whose carrier fix-up adds a dense column
    of 2 gs y (O(n)), charged as the sparse read and the residual fix-up of
    the model instead.  The engine's hooks then carry the whole ledger."""

    def __init__(self, descriptor, model: dict[str, int]):
        super().__init__(descriptor)
        self.parts = model["cd_read"], model["cd_step"] - model["cd_read"]
        # the residual rebuild is the oracle's part of a full-gradient epoch
        self.rgd_update = model["rgd_epoch"] - model["init"]

    def carrier_flops(self):
        # re-anchoring copies the residual the steps keep exact
        return 0

    def carrier_update_flops(self):
        # priced in the update part of every step, the last one included
        return 0

    def flop_parts(self, l):
        return self.parts

    def rgd_flops(self):
        return self.rgd_update


def run_wls_rcdlin_structured(spec: ProblemSpec, y0: np.ndarray,
                              cfg: OptimizerConfig):
    """Anchored-gradient coordinate descent on the masked least-squares
    problem, charged under the masked-sparsity model above: the iterates of
    ``run_rcdlin`` on the factored family, the residual build as the
    objective's one-time setup, K oracle calls that copy the residual at no
    cost, and ``cd_step`` per step."""
    n, p = y0.shape
    model = wls_structured_flops(n, p, spec.params["density"])
    obj = replace(weighted_ls_objective(spec), grad_flops=0, setup_flops=model["init"])
    return run_rcdlin(MaskedFactoredSpsd(spec.descriptor, model), obj, y0, cfg)


def run_wls_rgd_structured(spec: ProblemSpec, obj: Objective, y0: np.ndarray,
                           cfg: OptimizerConfig):
    """Full-gradient baseline on the masked problem: the iterates of
    ``run_rgd`` on the factored family, charged ``rgd_epoch`` per epoch under
    the same masked-sparsity model (the residual rebuild as the oracle, the
    dense factored gradient and the additive step as the update)."""
    n, p = y0.shape
    model = wls_structured_flops(n, p, spec.params["density"])
    return run_rgd(MaskedFactoredSpsd(spec.descriptor, model),
                   replace(obj, grad_flops=model["init"]), y0, cfg)


# -- symplectic block coordinate descent ---------------------------------------


def block_flops(n: int, p: int) -> dict[str, int]:
    """Published per-step cost of the three symplectic block updates."""
    return {
        "upper_left": 8 * n * n * p + n * n + 4 * n * p,
        "lower_right": 8 * n * n * p + n * n + 4 * n * p,
        "diag_cross": n * (8 * p + 1) + 16 * n + 4 * n * p + 2 * n,
    }


def run_symplectic_block_cd(spec: ProblemSpec, obj: Objective, x0: np.ndarray,
                            cfg: OptimizerConfig):
    """Fresh-gradient block coordinate descent on the symplectic family.

    Each epoch sweeps one upper-left block step, one lower-right block step,
    one cross-diagonal block step (the three patterns with cheap closed-form
    retractions) and then the engine's coordinate steps over the mixed pairs
    (i, n + j), i != j, which no block pattern covers.  This touches every
    basis direction once per epoch at a fraction of the flops of a full
    single-coordinate sweep.  The sweep runs on the shared epoch loop, so
    selection, records and log cadences follow ``cfg``.
    """
    man = make_manifold(spec.descriptor)
    n, p = spec.descriptor.dims
    costs = block_flops(n, p)
    pair_step = coordinate_step(man)

    def step(x, g, l, eta, s):
        if isinstance(l, str):
            return symplectic_block_step(x, l, eta, g), costs[l], 0, 0
        return pair_step(x, g, l, eta, s)

    labels = list(costs) + [Pair(i, n + j) for i in range(n) for j in range(n) if j != i]
    return run_epochs(man, obj, x0, cfg, coordinate_basis(man, cfg.selection, labels),
                      step, fresh_oracle=True)

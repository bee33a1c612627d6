"""Coordinate-descent optimizers and full-gradient baselines.

Every optimizer, and the Lorentz trainer in ``embeddings``, is one epoch loop
(``run_epochs``) given the labels to sweep, a step function and the oracle cadence:

* ``rcd``     coordinate steps, the gradient refreshed before every step;
* ``rcdlin``  the same steps with the gradient anchored at the epoch start
  and reused for all S inner steps (the basis is still built at the current
  iterate);
* ``rgd``     one full Riemannian gradient step per epoch;
* ``tsd``     the column-wise Stiefel baseline (column-pair rotations plus
  per-column sphere steps), the gradient refreshed before every step.

The loop owns the stepsize schedule, the log cadences, the early stop, the
renormalization cadence, the records, the finite checks and the BW halving
ladder, so every optimizer honours the same configuration.  With S = 1 and
randomized selection rcd and rcdlin are the same algorithm, and for
constant-gradient objectives they coincide for any S, bitwise.

Selection rules, one lazy label stream per epoch (``epoch_labels``): cyclic
(position s mod |I| in enumeration order), random (uniform, rejection-sampled),
without-replacement (a fresh uniform permutation per |I| block), and
time-cyclic (hyperbolic only: the pairs (0,1), (0,2), ..., (0,n-1)).  Draws
happen as the loop reaches them, so a BW epoch that aborts and is retried
leaves the generator just past the draws it used.  ``inner`` steps over an
empty label set are a ValueError; without ``inner`` an epoch takes no step.

Accounting: oracle flops (gradient, plus derivative-carrier construction for
rcd/rcdlin, charged per invocation), update flops (the published
per-coordinate model; skipped steps charge only the derivative part) and
instrumentation flops (objective values, gradient-norm and feasibility
logs) are tracked separately; the trace's cumulative ``flops`` column is
oracle + update.  Wall-clock time is sampled from a monotonic clock only
when ``log_wall`` is set, so by default repeated runs emit byte-identical
traces.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .flops import ZERO_DERIVATIVE_SKIP
from .indices import Pair
from .manifolds import Manifold
from .manifolds.stiefel import tsd_column_step, tsd_enumerate, tsd_flop_parts, tsd_pair_step
from .rng import SplitMix64

ALGORITHMS = ("rcd", "rcdlin", "rgd", "tsd")
SELECTIONS = ("cyclic", "random", "without-replacement", "time-cyclic")
TRACES = ("step", "epoch", "none")


class OptimizeAbort(RuntimeError):
    """Raised when the objective turns non-finite; carries the step (k, s)."""

    def __init__(self, k: int, s: int, what: str):
        super().__init__(f"non-finite {what} at epoch {k}, inner step {s}")
        self.k = k
        self.s = s


@dataclass
class Objective:
    """Objective value and Euclidean gradient, plus the oracle's flop cost.

    ``grad_flops`` is the published model cost of one gradient evaluation
    (0 for constant gradients materialized at problem build).
    """

    value: Callable[[np.ndarray], float]
    euclid_grad: Callable[[np.ndarray], np.ndarray]
    grad_flops: int = 0
    name: str = ""


@dataclass
class OptimizerConfig:
    algorithm: str = "rcd"
    epochs: int = 100          # K
    inner: int | None = None   # S; defaults to |I| (rgd rejects it)
    eta: float = 0.1
    eta_decay: float = 0.0     # eta_k = eta / (1 + eta_decay * k)
    selection: str = "cyclic"
    seed: int = 0
    grad_log_every: int = 0    # epochs between gradient-norm logs (0 = never)
    feas_log_every: int = 0    # epochs between feasibility logs (0 = never)
    log_wall: bool = False
    trace: str = "step"        # "step", "epoch", or "none"
    stop_grad_tol: float = 0.0  # early stop on epoch-start |grad| (0 = off)
    renormalize_every: int = 0  # epochs between feasibility restorations (0 = off)

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.selection not in SELECTIONS:
            raise ValueError(f"unknown selection {self.selection!r}")
        if self.trace not in TRACES:
            raise ValueError(f"unknown trace {self.trace!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.inner is not None and self.inner < 1:
            raise ValueError("inner must be >= 1")
        if not (math.isfinite(self.eta) and self.eta > 0.0):
            raise ValueError("eta must be finite and positive")
        if not (math.isfinite(self.eta_decay) and self.eta_decay >= 0.0):
            raise ValueError("eta_decay must be finite and >= 0")
        for name in ("grad_log_every", "feas_log_every", "renormalize_every"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not (math.isfinite(self.stop_grad_tol) and self.stop_grad_tol >= 0.0):
            raise ValueError("stop_grad_tol must be finite and >= 0")


@dataclass(slots=True)
class IterationRecord:
    k: int
    s: int
    f: float
    grad_norm: float | None
    feasibility: float | None
    flops: int
    wall_ns: int | None


@dataclass
class Trace:
    records: list[IterationRecord] = field(default_factory=list)
    oracle_calls: int = 0
    oracle_flops: int = 0
    update_flops: int = 0
    instrumentation_flops: int = 0
    clamped_steps: int = 0
    eta_used: float = 0.0
    epochs: int = 0  # epochs completed: fewer than K after an early stop

    @property
    def total_flops(self) -> int:
        return self.oracle_flops + self.update_flops

    def final_f(self) -> float:
        return self.records[-1].f


def epoch_labels(rule: str, labels: list, n_inner: int, rng: SplitMix64):
    """One epoch's ``n_inner`` labels, drawn lazily: cyclic and time-cyclic
    repeat ``labels``, random draws ``rng.below(|I|)`` per label, and
    without-replacement a fresh ``rng.permutation(|I|)`` at positions 0, |I|,
    2|I|, ...  Abandoned after k labels, it has made only those k labels' draws."""
    if rule in ("cyclic", "time-cyclic"):
        return itertools.islice(itertools.cycle(labels), n_inner)
    m = len(labels)
    if rule == "random":
        return (labels[rng.below(m)] for _ in range(n_inner))
    # each block's permutation is drawn as the block starts, not up front;
    # max(m, 1): an empty basis with n_inner = 0 has no block
    return (labels[p] for start in range(0, n_inner, max(m, 1))
            for p in rng.permutation(m)[:n_inner - start].tolist())


def _check_finite(v: float, k: int, s: int, what: str) -> float:
    if not math.isfinite(v):
        raise OptimizeAbort(k, s, what)
    return v


def coordinate_basis(man: Manifold, selection: str, labels=None) -> list:
    """The labels an epoch sweeps: ``labels`` (by default the family's
    coordinate basis), or under time-cyclic selection the hyperbolic time
    pairs (0, 1), ..., (0, n-1).  Every other family rejects time-cyclic."""
    if selection != "time-cyclic":
        return man.enumerate_basis() if labels is None else labels
    if man.family != "hyperbolic":
        raise ValueError("time-cyclic selection is only valid on the hyperbolic family")
    return [Pair(0, j) for j in range(1, man.ambient_shape[0])]


def _inner_steps(cfg: OptimizerConfig, labels: list) -> int:
    return cfg.inner if cfg.inner is not None else len(labels)


def coordinate_step(man: Manifold, anchored_steps: int = 0):
    """The engine's coordinate step: read theta from the oracle output at
    label l, skip a zero derivative, retract with -step_scale * eta * theta
    and charge the published flops.  With ``anchored_steps`` = S the carrier
    is anchored for the epoch and kept exact by ``update_carrier`` after
    every step but the last."""
    scale = man.step_scale
    last = anchored_steps - 1

    def step(x, d, l, eta, trace, k, s):
        theta = man.coordinate_derivative_from_carrier(x, d, l)
        _check_finite(theta, k, s, "coordinate derivative")
        dflops, uflops = man.flop_parts(l)
        trace.update_flops += dflops
        if abs(theta) >= ZERO_DERIVATIVE_SKIP:
            t = -scale * eta * theta
            try:
                x, clamped = man.coordinate_retract(x, l, t, inplace=True)
            except OverflowError as exc:
                # math.cosh/exp overflow before any row is written
                raise OptimizeAbort(k, s, "coordinate retraction") from exc
            trace.update_flops += uflops
            if clamped:
                trace.clamped_steps += 1
            if s < last:
                # no-op for families whose carrier ignores the point
                trace.oracle_flops += man.update_carrier(d, x, l, t)
        return x

    return step


def run_rcd(man: Manifold, obj: Objective, x0: np.ndarray, cfg: OptimizerConfig):
    labels = coordinate_basis(man, cfg.selection)
    return run_epochs(man, obj, x0, cfg, labels, coordinate_step(man),
                      fresh_oracle=True, carrier=True)


def run_rcdlin(man: Manifold, obj: Objective, x0: np.ndarray, cfg: OptimizerConfig):
    labels = coordinate_basis(man, cfg.selection)
    step = coordinate_step(man, anchored_steps=_inner_steps(cfg, labels))
    return run_epochs(man, obj, x0, cfg, labels, step, fresh_oracle=False, carrier=True)


def run_rgd(man: Manifold, obj: Objective, x0: np.ndarray, cfg: OptimizerConfig):
    """One full Riemannian gradient step per epoch."""
    if cfg.selection != "cyclic" or cfg.inner is not None:
        raise ValueError("rgd takes one full step per epoch: use cyclic selection, no inner")

    def step(x, g, _l, eta, trace, _k, _s):
        trace.update_flops += man.rgd_flops()
        return man.full_retract(x, man.riemannian_gradient(x, g), -eta)

    return run_epochs(man, obj, x0, cfg, [None], step, fresh_oracle=False)


def run_tsd(man: Manifold, obj: Objective, x0: np.ndarray, cfg: OptimizerConfig):
    """Column-wise Stiefel coordinate baseline (fresh gradient per step)."""
    if man.family not in ("stiefel", "grassmann"):
        raise ValueError("the column-wise baseline runs on the Stiefel family")
    n, p = man.ambient_shape

    def step(x, g, l, eta, trace, _k, _s):
        dflops, uflops = tsd_flop_parts(l, n, p)
        trace.update_flops += dflops
        if isinstance(l, Pair):
            x, moved = tsd_pair_step(x, l.i, l.j, eta, g, inplace=True)
        else:
            x, moved = tsd_column_step(x, l.k, eta, g, inplace=True)
        if moved != 0.0:
            trace.update_flops += uflops
        return x

    labels = coordinate_basis(man, cfg.selection, tsd_enumerate(p))
    return run_epochs(man, obj, x0, cfg, labels, step, fresh_oracle=True)


def optimize(man: Manifold, obj: Objective, x0: np.ndarray, cfg: OptimizerConfig):
    runner = {"rcd": run_rcd, "rcdlin": run_rcdlin, "rgd": run_rgd, "tsd": run_tsd}
    return runner[cfg.algorithm](man, obj, x0, cfg)


def run_epochs(man: Manifold, obj: Objective, x0: np.ndarray, cfg: OptimizerConfig,
               labels: list, step, fresh_oracle: bool, carrier: bool = False):
    """The epoch loop of every optimizer.  ``step(x, d, l, eta, trace, k, s)``
    takes the step at label ``l``, charges its update flops and returns the
    new point; ``d`` is the oracle's output, the derivative carrier with
    ``carrier`` set and the Euclidean gradient otherwise.  The oracle runs
    before every step when ``fresh_oracle`` is set, else once per epoch.
    """
    man.check_shape(x0)
    n_inner = _inner_steps(cfg, labels)
    if n_inner and not labels:
        raise ValueError(f"{n_inner} inner steps per epoch were requested, "
                         "but the label set is empty")
    x = x0.copy()
    rng = SplitMix64(cfg.seed)
    trace = Trace(eta_used=cfg.eta)
    t0 = time.monotonic_ns() if cfg.log_wall else None
    oracle_flops = obj.grad_flops + (man.carrier_flops() if carrier else 0)
    probe_bw = man.family == "spd_bures_wasserstein"
    eta = cfg.eta
    halvings = 0
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while k < cfg.epochs:
            eta_k = eta if cfg.eta_decay == 0.0 else eta / (1.0 + cfg.eta_decay * k)
            if probe_bw:
                epoch_start = x.copy()
                mark = (trace.oracle_calls, trace.oracle_flops, trace.update_flops,
                        trace.instrumentation_flops, trace.clamped_steps,
                        len(trace.records))
            epoch_grad = None
            epoch_feas = None
            if cfg.grad_log_every and k % cfg.grad_log_every == 0:
                epoch_grad = man.gradient_norm(x, obj.euclid_grad(x))
                trace.instrumentation_flops += obj.grad_flops
            if cfg.feas_log_every and k % cfg.feas_log_every == 0:
                epoch_feas = man.feasibility_residual(x)
            if (cfg.stop_grad_tol > 0.0
                    and man.gradient_norm(x, obj.euclid_grad(x)) <= cfg.stop_grad_tol):
                break
            try:
                for s, l in enumerate(epoch_labels(cfg.selection, labels, n_inner, rng)):
                    if fresh_oracle or s == 0:
                        g = obj.euclid_grad(x)
                        d = man.derivative_carrier(x, g) if carrier else g
                        trace.oracle_calls += 1
                        trace.oracle_flops += oracle_flops
                    x = step(x, d, l, eta_k, trace, k, s)
                    if cfg.trace == "step" or (cfg.trace == "epoch" and s == n_inner - 1):
                        fval = _check_finite(obj.value(x), k, s, "objective")
                        wall = time.monotonic_ns() - t0 if cfg.log_wall else None
                        logs = s == 0 or cfg.trace == "epoch"
                        trace.records.append(IterationRecord(
                            k, s, fval,
                            epoch_grad if logs else None,
                            epoch_feas if logs else None,
                            trace.total_flops, wall,
                        ))
                probe_failed = probe_bw and man.min_eigenvalue(x) <= 0.0
            except OptimizeAbort:
                # on the BW family a mid-epoch overflow counts as a failed
                # definiteness probe (the stepsize is simply too large)
                if not probe_bw:
                    raise
                probe_failed = True
            if probe_failed:
                if halvings >= 30:
                    raise OptimizeAbort(k, 0, "definiteness probe after 30 stepsize halvings")
                halvings += 1
                eta *= 0.5
                trace.eta_used = eta
                x = epoch_start
                (trace.oracle_calls, trace.oracle_flops, trace.update_flops,
                 trace.instrumentation_flops, trace.clamped_steps, nrec) = mark
                del trace.records[nrec:]
                continue
            if cfg.renormalize_every and (k + 1) % cfg.renormalize_every == 0:
                x = man.renormalize(x)
            k += 1
    trace.epochs = k
    return x, trace


# -- complexity audit ---------------------------------------------------------


@dataclass
class FlopAuditReport:
    algorithm: str
    epochs: int
    inner: int
    oracle_calls: int
    expected_oracle_calls: int
    oracle_flops: int
    update_flops: int
    total_flops: int
    instrumentation_flops: int
    ok: bool

    def summary(self) -> str:
        status = "ok" if self.ok else "MISMATCH"
        return (
            f"{self.algorithm}: K={self.epochs} S={self.inner} "
            f"oracle_calls={self.oracle_calls} (expected {self.expected_oracle_calls}) "
            f"oracle_flops={self.oracle_flops} update_flops={self.update_flops} "
            f"total={self.total_flops} [{status}]"
        )


def flop_audit(trace: Trace, man: Manifold, cfg: OptimizerConfig) -> FlopAuditReport:
    """Decompose a trace's cost into oracle and update parts and check the
    oracle-call count: K*S for the per-step-gradient algorithms, K for the
    anchored and full-gradient ones, with K the epochs the run completed and
    S from the labels the run sweeps."""
    if cfg.algorithm == "rgd":
        n_inner = 1
    else:
        own = tsd_enumerate(man.ambient_shape[1]) if cfg.algorithm == "tsd" else None
        n_inner = _inner_steps(cfg, coordinate_basis(man, cfg.selection, own))
    # one oracle call per step, or per epoch that takes a step
    per_epoch = n_inner if cfg.algorithm in ("rcd", "tsd") else min(n_inner, 1)
    expected = trace.epochs * per_epoch
    return FlopAuditReport(
        algorithm=cfg.algorithm,
        epochs=trace.epochs,
        inner=n_inner,
        oracle_calls=trace.oracle_calls,
        expected_oracle_calls=expected,
        oracle_flops=trace.oracle_flops,
        update_flops=trace.update_flops,
        total_flops=trace.total_flops,
        instrumentation_flops=trace.instrumentation_flops,
        ok=trace.oracle_calls == expected,
    )

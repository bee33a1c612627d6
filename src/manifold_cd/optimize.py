"""Coordinate-descent optimizers and full-gradient baselines.

Two coordinate algorithms share one engine:

* ``rcd``     refreshes the gradient before every inner step;
* ``rcdlin``  anchors the gradient at the epoch start and reuses it for all
  S inner steps (the basis is still built at the current iterate).

With S = 1 and randomized selection the two are the same algorithm, and for
constant-gradient objectives they coincide for any S; both facts hold
bitwise here because the algorithms differ only in when the derivative
carrier is refreshed.

Baselines: ``rgd`` takes one full Riemannian gradient step per epoch through
the family's full retraction; ``tsd`` is the column-wise Stiefel coordinate
baseline (column-pair rotations plus per-column sphere steps).

Selection rules: cyclic (position s mod |I| in enumeration order), random
(uniform, rejection-sampled), without-replacement (a fresh uniform
permutation per |I| block), and time-cyclic (hyperbolic only: the pairs
(0,1), (0,2), ..., (0,n-1)).

Accounting: oracle flops (gradient + derivative-carrier construction,
charged per invocation), update flops (the published per-coordinate model;
skipped steps charge only the derivative part) and instrumentation flops
(objective values, gradient-norm and feasibility logs) are tracked
separately; the trace's cumulative ``flops`` column is oracle + update.
Wall-clock time is sampled from a monotonic clock only when ``log_wall``
is set, so by default repeated runs emit byte-identical traces.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .flops import ZERO_DERIVATIVE_SKIP
from .indices import CoordinateIndex, Pair
from .manifolds import Manifold
from .manifolds.stiefel import tsd_column_step, tsd_enumerate, tsd_flop_parts, tsd_pair_step
from .rng import SplitMix64

ALGORITHMS = ("rcd", "rcdlin", "rgd", "tsd")
SELECTIONS = ("cyclic", "random", "without-replacement", "time-cyclic")


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
    inner: int | None = None   # S; defaults to |I| (ignored by rgd)
    eta: float = 0.1
    eta_decay: float = 0.0     # eta_k = eta / (1 + eta_decay * k)
    selection: str = "cyclic"
    seed: int = 0
    grad_log_every: int = 0    # epochs between gradient-norm logs (0 = never)
    feas_log_every: int = 0    # epochs between feasibility logs (0 = never)
    log_wall: bool = False
    trace: str = "step"        # "step", "epoch", or "none"
    stop_grad_tol: float = 0.0  # early stop on epoch-start |grad| (0 = off)
    spd_probe_every: int = 1   # BW only: min-eigenvalue probe cadence
    renormalize_every: int = 0  # epochs between feasibility restorations (0 = off)

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.selection not in SELECTIONS:
            raise ValueError(f"unknown selection {self.selection!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.inner is not None and self.inner < 1:
            raise ValueError("inner must be >= 1")
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")


@dataclass
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

    @property
    def total_flops(self) -> int:
        return self.oracle_flops + self.update_flops

    def final_f(self) -> float:
        return self.records[-1].f


class Selector:
    """Deterministic index selection; only randomized rules consume the rng."""

    def __init__(self, rule: str, basis: list[CoordinateIndex], rng: SplitMix64,
                 time_cyclic_rows: int | None = None):
        self.rule = rule
        self.basis = basis
        self.rng = rng
        self._perm: np.ndarray | None = None
        self._pos = 0
        if rule == "time-cyclic":
            if time_cyclic_rows is None:
                raise ValueError("time-cyclic selection is only valid on the hyperbolic family")
            self.basis = [Pair(0, j) for j in range(1, time_cyclic_rows)]

    def pick(self, s: int) -> CoordinateIndex:
        m = len(self.basis)
        if self.rule in ("cyclic", "time-cyclic"):
            return self.basis[s % m]
        if self.rule == "random":
            return self.basis[self.rng.below(m)]
        # without-replacement: fresh permutation per |I| block
        if self._perm is None or self._pos >= m:
            self._perm = self.rng.permutation(m)
            self._pos = 0
        idx = self.basis[int(self._perm[self._pos])]
        self._pos += 1
        return idx

    def reset_epoch(self):
        """Fresh permutation at every epoch start (without-replacement only);
        epochs with S > |I| reshuffle again at each |I| block boundary."""
        self._perm = None
        self._pos = 0


def _eta_at(cfg: OptimizerConfig, k: int) -> float:
    if cfg.eta_decay == 0.0:
        return cfg.eta
    return cfg.eta / (1.0 + cfg.eta_decay * k)


def _check_finite(v: float, k: int, s: int, what: str) -> float:
    if not math.isfinite(v):
        raise OptimizeAbort(k, s, what)
    return v


def run_rcd(man: Manifold, obj: Objective, x0: np.ndarray, cfg: OptimizerConfig):
    return _run_cd(man, obj, x0, cfg, fresh_gradient=True)


def run_rcdlin(man: Manifold, obj: Objective, x0: np.ndarray, cfg: OptimizerConfig):
    return _run_cd(man, obj, x0, cfg, fresh_gradient=False)


def optimize(man: Manifold, obj: Objective, x0: np.ndarray, cfg: OptimizerConfig):
    if cfg.algorithm == "rcd":
        return run_rcd(man, obj, x0, cfg)
    if cfg.algorithm == "rcdlin":
        return run_rcdlin(man, obj, x0, cfg)
    if cfg.algorithm == "rgd":
        return run_rgd(man, obj, x0, cfg)
    return run_tsd(man, obj, x0, cfg)


def _run_cd(man: Manifold, obj: Objective, x0: np.ndarray, cfg: OptimizerConfig,
            fresh_gradient: bool):
    with np.errstate(over="ignore", invalid="ignore"):
        return _run_cd_inner(man, obj, x0, cfg, fresh_gradient)


def _run_cd_inner(man: Manifold, obj: Objective, x0: np.ndarray,
                  cfg: OptimizerConfig, fresh_gradient: bool):
    man.check_shape(x0)
    x = x0.copy()
    rng = SplitMix64(cfg.seed)
    rows = man.ambient_shape[0] if man.family == "hyperbolic" else None
    if cfg.selection == "time-cyclic" and man.family != "hyperbolic":
        raise ValueError("time-cyclic selection is only valid on the hyperbolic family")
    basis = man.enumerate_basis()
    selector = Selector(cfg.selection, basis, rng, time_cyclic_rows=rows)
    n_inner = cfg.inner if cfg.inner is not None else len(selector.basis)
    trace = Trace(eta_used=cfg.eta)
    t0 = time.monotonic_ns() if cfg.log_wall else None
    scale = man.step_scale
    probe_bw = man.family == "spd_bures_wasserstein" and cfg.spd_probe_every > 0
    carrier = None
    eta = cfg.eta
    halvings = 0
    k = 0
    while k < cfg.epochs:
        eta_k = eta if cfg.eta_decay == 0.0 else eta / (1.0 + cfg.eta_decay * k)
        selector.reset_epoch()
        epoch_grad = None
        epoch_feas = None
        if cfg.grad_log_every and k % cfg.grad_log_every == 0:
            g = obj.euclid_grad(x)
            epoch_grad = man.gradient_norm(x, g)
            trace.instrumentation_flops += obj.grad_flops
        if cfg.feas_log_every and k % cfg.feas_log_every == 0:
            epoch_feas = man.feasibility_residual(x)
        if cfg.stop_grad_tol > 0.0:
            g = obj.euclid_grad(x)
            if man.gradient_norm(x, g) <= cfg.stop_grad_tol:
                break
        if probe_bw:
            epoch_start = x.copy()
            flops_mark = (trace.oracle_calls, trace.oracle_flops, trace.update_flops,
                          len(trace.records))
        try:
            if not fresh_gradient:
                carrier = man.derivative_carrier(x, obj.euclid_grad(x))
                trace.oracle_calls += 1
                trace.oracle_flops += obj.grad_flops + man.carrier_flops()
            for s in range(n_inner):
                l = selector.pick(s)
                if fresh_gradient:
                    carrier = man.derivative_carrier(x, obj.euclid_grad(x))
                    trace.oracle_calls += 1
                    trace.oracle_flops += obj.grad_flops + man.carrier_flops()
                theta = man.coordinate_derivative_from_carrier(x, carrier, l)
                _check_finite(theta, k, s, "coordinate derivative")
                dflops, uflops = man.flop_parts(l)
                trace.update_flops += dflops
                if abs(theta) >= ZERO_DERIVATIVE_SKIP:
                    t = -scale * eta_k * theta
                    x, clamped = man.coordinate_retract(x, l, t, inplace=True)
                    trace.update_flops += uflops
                    if clamped:
                        trace.clamped_steps += 1
                    if not fresh_gradient and s < n_inner - 1:
                        # keep the anchored carrier exact at the moved point
                        # (no-op for families whose carrier ignores the point)
                        trace.oracle_flops += man.update_carrier(carrier, x, l, t)
                if cfg.trace == "step" or (cfg.trace == "epoch" and s == n_inner - 1):
                    fval = _check_finite(obj.value(x), k, s, "objective")
                    wall = time.monotonic_ns() - t0 if cfg.log_wall else None
                    trace.records.append(IterationRecord(
                        k, s, fval,
                        epoch_grad if s == 0 else None,
                        epoch_feas if s == 0 else None,
                        trace.total_flops, wall,
                    ))
                    if cfg.trace == "epoch":
                        trace.records[-1].grad_norm = epoch_grad
                        trace.records[-1].feasibility = epoch_feas
            probe_failed = (probe_bw and (k % cfg.spd_probe_every == 0)
                            and man.min_eigenvalue(x) <= 0.0)
        except OptimizeAbort:
            # a mid-epoch overflow counts as a failed definiteness probe when
            # the probe is active (the stepsize is simply too large)
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
            trace.oracle_calls, trace.oracle_flops, trace.update_flops, nrec = flops_mark
            del trace.records[nrec:]
            continue
        if cfg.renormalize_every and (k + 1) % cfg.renormalize_every == 0:
            x = man.renormalize(x)
        k += 1
    return x, trace


def run_rgd(man: Manifold, obj: Objective, x0: np.ndarray, cfg: OptimizerConfig):
    with np.errstate(over="ignore", invalid="ignore"):
        return _run_rgd_inner(man, obj, x0, cfg)


def _run_rgd_inner(man: Manifold, obj: Objective, x0: np.ndarray, cfg: OptimizerConfig):
    man.check_shape(x0)
    x = x0.copy()
    trace = Trace(eta_used=cfg.eta)
    t0 = time.monotonic_ns() if cfg.log_wall else None
    for k in range(cfg.epochs):
        eta_k = _eta_at(cfg, k)
        epoch_grad = None
        epoch_feas = None
        g = obj.euclid_grad(x)
        trace.oracle_calls += 1
        trace.oracle_flops += obj.grad_flops
        if cfg.grad_log_every and k % cfg.grad_log_every == 0:
            epoch_grad = man.gradient_norm(x, g)
        if cfg.feas_log_every and k % cfg.feas_log_every == 0:
            epoch_feas = man.feasibility_residual(x)
        u = man.riemannian_gradient(x, g)
        x = man.full_retract(x, u, -eta_k)
        trace.update_flops += man.rgd_flops()
        if cfg.trace != "none":
            fval = _check_finite(obj.value(x), k, 0, "objective")
            wall = time.monotonic_ns() - t0 if cfg.log_wall else None
            trace.records.append(IterationRecord(
                k, 0, fval, epoch_grad, epoch_feas, trace.total_flops, wall))
    return x, trace


def run_tsd(man: Manifold, obj: Objective, x0: np.ndarray, cfg: OptimizerConfig):
    """Column-wise Stiefel coordinate baseline (fresh gradient per step)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _run_tsd_inner(man, obj, x0, cfg)


def _run_tsd_inner(man: Manifold, obj: Objective, x0: np.ndarray, cfg: OptimizerConfig):
    if man.family not in ("stiefel", "grassmann"):
        raise ValueError("the column-wise baseline runs on the Stiefel family")
    man.check_shape(x0)
    n, p = man.ambient_shape
    x = x0.copy()
    rng = SplitMix64(cfg.seed)
    basis = tsd_enumerate(p)
    selector = Selector(cfg.selection, basis, rng)
    n_inner = cfg.inner if cfg.inner is not None else len(basis)
    trace = Trace(eta_used=cfg.eta)
    t0 = time.monotonic_ns() if cfg.log_wall else None
    for k in range(cfg.epochs):
        eta_k = _eta_at(cfg, k)
        selector.reset_epoch()
        epoch_grad = None
        epoch_feas = None
        if cfg.grad_log_every and k % cfg.grad_log_every == 0:
            g = obj.euclid_grad(x)
            epoch_grad = man.gradient_norm(x, g)
            trace.instrumentation_flops += obj.grad_flops
        if cfg.feas_log_every and k % cfg.feas_log_every == 0:
            epoch_feas = man.feasibility_residual(x)
        for s in range(n_inner):
            l = selector.pick(s)
            g = obj.euclid_grad(x)
            trace.oracle_calls += 1
            trace.oracle_flops += obj.grad_flops
            dflops, uflops = tsd_flop_parts(l, n, p)
            trace.update_flops += dflops
            if isinstance(l, Pair):
                x, theta = tsd_pair_step(x, l.i, l.j, eta_k, g, inplace=True)
                if theta != 0.0:
                    trace.update_flops += uflops
            else:
                x, moved = tsd_column_step(x, l.k, eta_k, g, inplace=True)
                if moved != 0.0:
                    trace.update_flops += uflops
            if cfg.trace == "step" or (cfg.trace == "epoch" and s == n_inner - 1):
                fval = _check_finite(obj.value(x), k, s, "objective")
                wall = time.monotonic_ns() - t0 if cfg.log_wall else None
                trace.records.append(IterationRecord(
                    k, s, fval,
                    epoch_grad if s == 0 else None,
                    epoch_feas if s == 0 else None,
                    trace.total_flops, wall))
                if cfg.trace == "epoch":
                    trace.records[-1].grad_norm = epoch_grad
                    trace.records[-1].feasibility = epoch_feas
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
    anchored and full-gradient ones."""
    if cfg.algorithm == "tsd":
        n_inner = cfg.inner if cfg.inner is not None else len(tsd_enumerate(man.ambient_shape[1]))
    else:
        n_inner = cfg.inner if cfg.inner is not None else man.index_count()
    if cfg.algorithm in ("rcd", "tsd"):
        expected = cfg.epochs * n_inner
    else:
        expected = cfg.epochs
    return FlopAuditReport(
        algorithm=cfg.algorithm,
        epochs=cfg.epochs,
        inner=n_inner if cfg.algorithm != "rgd" else 1,
        oracle_calls=trace.oracle_calls,
        expected_oracle_calls=expected,
        oracle_flops=trace.oracle_flops,
        update_flops=trace.update_flops,
        total_flops=trace.total_flops,
        instrumentation_flops=trace.instrumentation_flops,
        ok=trace.oracle_calls == expected,
    )

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

The loop owns the stepsize schedule, the log cadences, the records, the
finite checks and the BW halving ladder, so every optimizer honours the same
configuration.  A run completes its K epochs or ends in OptimizeAbort(k, s,
reason): a step, a sweep, an oracle or an epoch-start log only raises, and
the loop alone turns that into the abort.  A sweep that refuses a step names
the step s it reached (``flops.StepRefused``); the loop locates everything
else at its own step.  With S = 1 and randomized selection rcd and rcdlin are
the same algorithm, and for constant-gradient objectives they coincide for
any S, bitwise.  Only ``run_tsd`` names a family; the loop meets the rest
through the ``Manifold`` hooks.

Selection rules, one array of label positions per epoch
(``epoch_positions``): cyclic (position s mod |I| in enumeration order), random
(uniform, rejection-sampled), without-replacement (a fresh uniform
permutation per |I| block), and time-cyclic (hyperbolic only: the pairs
(0,1), (0,2), ..., (0,n-1)).  The loop draws the array after the epoch-start
logs; the step path indexes the labels with it, and a family's sweep,
``sweep(x, d, pos, eta)``, takes it whole.  A BW epoch that aborts at step
s and is retried rewinds the generator to the epoch start and redraws s + 1
positions, so it leaves the generator where drawing step by step would.
``inner`` steps over an empty label set are a ValueError; without ``inner``
an epoch takes no step.

Accounting: the loop alone writes the ledger.  A step, ``step(x, d, l, eta,
s)``, and a sweep both return ``(x, update_flops, upkeep_flops, clamped)``:
the update flops, the carrier upkeep (charged as oracle flops) and the count
of clamped steps, which the loop charges.  Oracle flops are
the objective's ``setup_flops``, charged once as the run starts (not a call,
not re-charged by a BW retry), plus the gradient and, for rcd/rcdlin, the
carrier per invocation.  Update flops follow the published per-coordinate
model (skipped steps charge only the derivative part); instrumentation flops
(objective values, gradient-norm and feasibility logs) are kept apart.  The
``flops`` column is oracle + update.  Wall-clock time is sampled from a
monotonic clock only when ``log_wall`` is set, so by default repeated runs
emit byte-identical traces.
"""

from __future__ import annotations

import math
import operator
import time
from copy import copy
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .flops import NONFINITE_DERIVATIVE, ZERO_DERIVATIVE_SKIP, StepRefused, step_overflow
from .indices import Pair
from .manifolds import Manifold
from .manifolds.stiefel import tsd_column_step, tsd_enumerate, tsd_flop_parts, tsd_pair_step
from .rng import SplitMix64

ALGORITHMS = ("rcd", "rcdlin", "rgd", "tsd")
SELECTIONS = ("cyclic", "random", "without-replacement", "time-cyclic")
TRACES = ("step", "epoch", "none")
PROBE_HALVINGS = 30  # stepsize halvings before a failing epoch probe aborts


class OptimizeAbort(RuntimeError):
    """Raised when a run cannot go on (a non-finite objective or derivative, a
    refused retraction); carries the step (k, s) and the reason."""

    def __init__(self, k: int, s: int, reason: str):
        super().__init__(f"{reason} at epoch {k}, inner step {s}")
        self.k = k
        self.s = s
        self.reason = reason


@dataclass
class Objective:
    """Objective value and Euclidean gradient, plus the oracle's flop cost.

    ``grad_flops`` is the published model cost of one gradient evaluation
    (0 for constant gradients materialized at problem build); ``setup_flops``
    is an oracle cost paid once, before the first epoch, and is not a call.
    """

    value: Callable[[np.ndarray], float]
    euclid_grad: Callable[[np.ndarray], np.ndarray]
    grad_flops: int = 0
    setup_flops: int = 0


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

    def __post_init__(self):
        # counts are integers: 2.5 epochs is a TypeError, np.int64(3) is 3
        for name in ("epochs", "seed", "grad_log_every", "feas_log_every"):
            setattr(self, name, operator.index(getattr(self, name)))
        if self.inner is not None:
            self.inner = operator.index(self.inner)
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
        for name in ("grad_log_every", "feas_log_every"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


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
    unrecorded_f: float | None = None  # f at the end of a run that kept no record

    @property
    def total_flops(self) -> int:
        return self.oracle_flops + self.update_flops

    def final_f(self) -> float:
        return self.records[-1].f if self.records else self.unrecorded_f


def epoch_positions(rule: str, m: int, n_inner: int, rng: SplitMix64) -> np.ndarray:
    """One epoch's ``n_inner`` positions into m labels: cyclic and time-cyclic
    repeat 0, ..., m-1, random draws ``rng.below(m)`` per step, and
    without-replacement a fresh ``rng.permutation(m)`` per block of m steps.
    Its first k positions make the draws that k drawn one at a time would."""
    if rule == "random":
        return rng.below_vector(m, n_inner)
    if rule == "without-replacement":  # max(m, 1): an empty epoch has no block
        blocks = [rng.permutation(m) for _ in range(0, n_inner, max(m, 1))]
        return np.concatenate([np.empty(0, np.int64), *blocks])[:n_inner]
    return np.arange(n_inner) % m


def _check_finite(v: float, k: int, s: int, what: str) -> float:
    if not math.isfinite(v):
        raise OptimizeAbort(k, s, f"non-finite {what}")
    return v


def coordinate_basis(man: Manifold, selection: str, labels=None) -> list:
    """The labels an epoch sweeps: ``labels`` (by default the family's
    coordinate basis), or under time-cyclic selection the family's
    ``time_cyclic_basis``."""
    if selection != "time-cyclic":
        return man.enumerate_basis() if labels is None else labels
    return man.time_cyclic_basis()


def _inner_steps(cfg: OptimizerConfig, labels: list) -> int:
    if cfg.inner is not None and not labels:
        raise ValueError(f"{cfg.inner} inner steps per epoch were requested, "
                         "but the label set is empty")
    return cfg.inner if cfg.inner is not None else len(labels)


def coordinate_step(man: Manifold, anchored_steps: int = 0):
    """The engine's coordinate step: read theta from the oracle output at
    label l, skip a zero derivative, retract with -step_scale * eta * theta
    and return the published flops.  With ``anchored_steps`` = S the carrier
    is anchored for the epoch and kept exact by ``update_carrier`` after
    every step but the last."""
    scale = man.step_scale
    last = anchored_steps - 1

    def step(x, d, l, eta, s):
        theta = man.coordinate_derivative_from_carrier(x, d, l)
        if not math.isfinite(theta):
            raise StepRefused(NONFINITE_DERIVATIVE)
        dflops, uflops = man.flop_parts(l)
        if abs(theta) < ZERO_DERIVATIVE_SKIP:
            return x, dflops, 0, 0
        t = -scale * eta * theta
        if not math.isfinite(t):
            raise StepRefused(step_overflow(t))
        x, clamped = man.coordinate_retract(x, l, t, inplace=True)
        # no-op for families whose carrier ignores the point
        upkeep = man.update_carrier(d, x, l, t) if s < last else 0
        return x, dflops + uflops, upkeep, clamped

    return step


def run_rcd(man: Manifold, obj: Objective, x0: np.ndarray, cfg: OptimizerConfig):
    labels = coordinate_basis(man, cfg.selection)
    return run_epochs(man, obj, x0, cfg, labels, coordinate_step(man),
                      fresh_oracle=True, carrier=True)


def run_rcdlin(man: Manifold, obj: Objective, x0: np.ndarray, cfg: OptimizerConfig):
    labels = coordinate_basis(man, cfg.selection)
    n_inner = _inner_steps(cfg, labels)
    step = coordinate_step(man, anchored_steps=n_inner)
    sweep = (man.anchored_sweep(labels, n_inner, cfg.selection)
             if n_inner and cfg.trace != "step" else None)
    return run_epochs(man, obj, x0, cfg, labels, step, fresh_oracle=False, carrier=True,
                      sweep=sweep)


def run_rgd(man: Manifold, obj: Objective, x0: np.ndarray, cfg: OptimizerConfig):
    """One full Riemannian gradient step per epoch."""
    if cfg.selection != "cyclic" or cfg.inner is not None:
        raise ValueError("rgd takes one full step per epoch: use cyclic selection, no inner")

    def step(x, g, _l, eta, _s):
        return man.full_retract(x, man.riemannian_gradient(x, g), -eta), man.rgd_flops(), 0, 0

    return run_epochs(man, obj, x0, cfg, [None], step, fresh_oracle=False)


def run_tsd(man: Manifold, obj: Objective, x0: np.ndarray, cfg: OptimizerConfig):
    """Column-wise Stiefel coordinate baseline (fresh gradient per step)."""
    if man.family not in ("stiefel", "grassmann"):
        raise ValueError("the column-wise baseline runs on the Stiefel family")
    n, p = man.ambient_shape

    def step(x, g, l, eta, _s):
        dflops, uflops = tsd_flop_parts(l, n, p)
        x, moved = (tsd_pair_step(x, l.i, l.j, eta, g) if isinstance(l, Pair)
                    else tsd_column_step(x, l.k, eta, g))
        return x, dflops + (uflops if moved != 0.0 else 0), 0, 0

    labels = coordinate_basis(man, cfg.selection, tsd_enumerate(p))
    return run_epochs(man, obj, x0, cfg, labels, step, fresh_oracle=True)


def optimize(man: Manifold, obj: Objective, x0: np.ndarray, cfg: OptimizerConfig):
    runner = {"rcd": run_rcd, "rcdlin": run_rcdlin, "rgd": run_rgd, "tsd": run_tsd}
    return runner[cfg.algorithm](man, obj, x0, cfg)


def run_epochs(man: Manifold, obj: Objective, x0: np.ndarray, cfg: OptimizerConfig,
               labels: list, step, fresh_oracle: bool, carrier: bool = False,
               sweep=None):
    """The epoch loop of every optimizer, and the one writer of the ledger.
    ``step(x, d, l, eta, s)`` takes step s, at label ``l``; ``d`` is the
    oracle's output, the derivative carrier with ``carrier`` set and the
    Euclidean gradient otherwise.  The oracle runs before every step when
    ``fresh_oracle`` is set, else once per epoch.  ``sweep(x, d, pos, eta)``,
    given only with the oracle once per epoch, no per-step records and
    a step per epoch, takes all the epoch's steps in one call.  Both index
    the epoch's drawn positions ``pos``, and both return ``(x, update_flops,
    upkeep_flops, clamped)`` for the loop to charge; a sweep that refuses a
    step raises ``StepRefused`` with the step s it reached.

    Every record's objective is checked to be finite; a run that keeps no
    record (``trace="none"``) checks it once, at the last step, (K-1, S-1).
    """
    man.check_shape(x0)
    n_inner = _inner_steps(cfg, labels)
    x = x0.copy()
    rng = SplitMix64(cfg.seed)
    trace = Trace(oracle_flops=obj.setup_flops, eta_used=cfg.eta)
    t0 = time.monotonic_ns() if cfg.log_wall else None
    oracle_flops = obj.grad_flops + (man.carrier_flops() if carrier else 0)
    probe = man.epoch_probe
    eta = cfg.eta
    halvings = 0
    k = 0

    def oracle(x):
        g = obj.euclid_grad(x)
        trace.oracle_calls += 1
        trace.oracle_flops += oracle_flops
        return man.derivative_carrier(x, g) if carrier else g

    def charge(x, update, upkeep, clamped):
        trace.update_flops += update
        trace.oracle_flops += upkeep
        trace.clamped_steps += clamped
        return x

    def record(x, s):
        fval = _check_finite(obj.value(x), k, s, "objective")
        wall = time.monotonic_ns() - t0 if cfg.log_wall else None
        logs = s == 0 or cfg.trace == "epoch"
        trace.records.append(IterationRecord(
            k, s, fval,
            epoch_grad if logs else None,
            epoch_feas if logs else None,
            trace.total_flops, wall,
        ))

    with np.errstate(over="ignore", invalid="ignore"):
        while k < cfg.epochs:
            eta_k = eta if cfg.eta_decay == 0.0 else eta / (1.0 + cfg.eta_decay * k)
            if probe is not None:
                # a retry restores these copies (the trace's shares the record
                # list, which it cuts back to its length here)
                epoch_start, saved, nrec, rng_start = (x.copy(), replace(trace),
                                                       len(trace.records), copy(rng))
            epoch_grad = epoch_feas = pos = None
            s = 0
            try:
                # the one converter: a refusal is located at the step s reached,
                # or at the step a sweep names
                try:
                    if cfg.grad_log_every and k % cfg.grad_log_every == 0:
                        epoch_grad = man.gradient_norm(x, obj.euclid_grad(x))
                        trace.instrumentation_flops += obj.grad_flops
                    if cfg.feas_log_every and k % cfg.feas_log_every == 0:
                        epoch_feas = man.feasibility_residual(x)
                    pos = epoch_positions(cfg.selection, len(labels), n_inner, rng)
                    if sweep is not None:
                        x = charge(*sweep(x, oracle(x), pos, eta_k))
                    else:
                        for s, l in enumerate(map(labels.__getitem__, pos.tolist())):
                            if fresh_oracle or s == 0:
                                d = oracle(x)
                            x = charge(*step(x, d, l, eta_k, s))
                            if cfg.trace == "step":
                                record(x, s)
                    if cfg.trace == "epoch" and n_inner:
                        record(x, n_inner - 1)
                except (ArithmeticError, np.linalg.LinAlgError) as exc:
                    if isinstance(exc, StepRefused) and exc.s is not None:
                        s = exc.s
                    raise OptimizeAbort(k, s, str(exc)) from exc
                probe_failed = probe is not None and not probe(x)
            except OptimizeAbort as abort:
                # on a family with a probe a mid-epoch abort counts as a
                # failed probe (the stepsize is simply too large)
                if probe is None:
                    raise
                if pos is not None:  # keep only the draws of steps 0..s
                    rng = rng_start
                    epoch_positions(cfg.selection, len(labels), abort.s + 1, rng)
                probe_failed = True
            if probe_failed:
                if halvings >= PROBE_HALVINGS:
                    raise OptimizeAbort(k, 0, "definiteness probe failed after "
                                              f"{PROBE_HALVINGS} stepsize halvings")
                halvings += 1
                eta *= 0.5
                x, trace = epoch_start, saved
                del trace.records[nrec:]
                trace.eta_used = eta
                continue
            k += 1
        if not trace.records:
            trace.unrecorded_f = _check_finite(obj.value(x), k - 1, max(n_inner - 1, 0),
                                               "objective")
    return x, trace


# -- complexity audit ---------------------------------------------------------


@dataclass
class FlopAuditReport:
    inner: int
    expected_oracle_calls: int
    ok: bool


def flop_audit(trace: Trace, man: Manifold, cfg: OptimizerConfig) -> FlopAuditReport:
    """Check a trace's oracle-call count: K*S for the per-step-gradient
    algorithms, K for the anchored and full-gradient ones, with S from the
    labels the run sweeps."""
    if cfg.algorithm == "rgd":
        n_inner = 1
    else:
        own = tsd_enumerate(man.ambient_shape[1]) if cfg.algorithm == "tsd" else None
        n_inner = _inner_steps(cfg, coordinate_basis(man, cfg.selection, own))
    # one oracle call per step, or per epoch that takes a step
    per_epoch = n_inner if cfg.algorithm in ("rcd", "tsd") else min(n_inner, 1)
    expected = cfg.epochs * per_epoch
    return FlopAuditReport(n_inner, expected, trace.oracle_calls == expected)

"""Column chains: the anchored sweep on the factored SPSD family
(``manifolds.spsd.column_chain_sweep``) against ``coordinate_step``, its
sequential reference.

An ``rcdlin`` run on the family takes the sweep under every drawn rule unless
it records every step.  The same run with the hook switched off steps label
by label; the two must agree bitwise: the point, every record, the three flop
totals, the oracle calls, the clamped steps, and an abort's (k, s, reason).
Both the plain family and the masked one of the structured runner are run.
The family offers the sweep only inside its measured crossovers; the sweep
must still be bitwise at every epoch size, so these runs open the bounds.
"""

import dataclasses
import importlib
import itertools
import sys

import numpy as np
import pytest

from manifold_cd import ManifoldDescriptor
from manifold_cd.bench import run_wls_rcdlin_structured
from manifold_cd.manifolds import make_manifold
from manifold_cd.manifolds.spsd import FactoredSpsd
from manifold_cd.flops import StepRefused
from manifold_cd.optimize import Objective, OptimizeAbort, OptimizerConfig, optimize
from manifold_cd.problems import initial_point, make_weighted_ls
from manifold_cd.rng import SplitMix64

# the module that holds the sweep the family's hook returns
chains = importlib.import_module("manifold_cd.manifolds.spsd")

N, P = 12, 3  # |I| = 36


def _bits(v):
    return v.hex() if isinstance(v, float) else v


def outcome(runner, cfg, causes=None):
    """Everything a run reports, with floats as bit patterns (so -0.0 and
    0.0 differ), or the abort's (k, s, reason); an abort's cause is appended
    to ``causes``."""
    spec, obj, _ = make_weighted_ls(N, P, 0.7, 7)
    y0 = initial_point(spec)
    try:
        if runner == "masked":
            y, tr = run_wls_rcdlin_structured(spec, y0, cfg)
        else:
            y, tr = optimize(make_manifold(spec.descriptor), obj, y0, cfg)
    except OptimizeAbort as err:
        if causes is not None:
            causes.append(err.__cause__)
        return ("abort", err.k, err.s, err.reason)
    records = [tuple(_bits(getattr(r, f)) for f in r.__slots__) for r in tr.records]
    return (y.tobytes(), records, _bits(tr.final_f()), tr.oracle_calls, tr.oracle_flops,
            tr.update_flops, tr.instrumentation_flops, tr.clamped_steps, tr.eta_used)


def both_paths(monkeypatch, runner, cfg, causes=None):
    """(sweep outcome, label-by-label outcome, sweep calls); the sweep's
    abort cause, if any, is appended to ``causes``."""
    calls = []
    real = chains.column_chain_sweep

    def spy(*args):
        sweep = real(*args)
        return lambda *a: calls.append(len(a[2])) or sweep(*a)

    with monkeypatch.context() as m:
        m.setattr(chains, "column_chain_sweep", spy)
        m.setattr(chains, "SWEEP_MIN_STEPS", 1)
        m.setattr(chains, "SWEEP_MAX_CHAIN", N * P)
        fast = outcome(runner, cfg, causes)
    with monkeypatch.context() as m:
        m.setattr(FactoredSpsd, "anchored_sweep", lambda self, *a: None)
        slow = outcome(runner, cfg)
    return fast, slow, calls


CONFIGS = [
    # (selection, inner, trace, eta, logs)
    *[(sel, inner, trace, 0.3, False)
      for sel, inner, trace in itertools.product(
          ("cyclic", "random", "without-replacement"), (1, 7, 50, None), ("epoch", "none"))],
    ("random", 50, "epoch", 0.3, True),
    ("without-replacement", 7, "none", 0.3, True),
    *[(sel, 50, "epoch", eta, False)
      for sel in ("cyclic", "random", "without-replacement")
      for eta in (1e3, 1e150, 1e308, 1e-320)],
]


@pytest.mark.parametrize("runner", ["plain", "masked"])
@pytest.mark.parametrize("selection, inner, trace, eta, logs", CONFIGS)
def test_sweep_is_the_sequential_path(monkeypatch, runner, selection, inner, trace, eta,
                                      logs):
    cfg = OptimizerConfig(algorithm="rcdlin", epochs=8, inner=inner, eta=eta,
                          selection=selection, seed=5, trace=trace,
                          grad_log_every=2 if logs else 0,
                          feas_log_every=3 if logs else 0)
    fast, slow, calls = both_paths(monkeypatch, runner, cfg)
    assert fast == slow
    assert calls, "the sweep was not used"


@pytest.mark.parametrize("eta, where", [
    (1e3, (1, 13, "non-finite coordinate derivative")),
    (1e308, (0, 3, "coordinate step overflow (|t|=inf)")),
])
def test_aborts_are_covered(monkeypatch, eta, where):
    """The large stepsizes above end in each of the step's two refusals past
    an epoch's first step, so the configs check where the sweep locates
    them."""
    cfg = OptimizerConfig(algorithm="rcdlin", epochs=8, inner=50, eta=eta,
                          selection="random", seed=5, trace="epoch")
    causes = []
    fast, slow, _ = both_paths(monkeypatch, "plain", cfg, causes)
    assert fast == slow
    assert fast == ("abort", *where)
    # the sweep names the step it reached; the loop adds the epoch
    [cause] = causes
    assert isinstance(cause, StepRefused) and cause.s == where[1]
    assert str(cause) == where[2]


@pytest.mark.parametrize("n_inner, offered", [(31, False), (32, True), (96, True),
                                               (97, False)])
def test_sweep_only_inside_its_crossovers(n_inner, offered):
    """The family offers the sweep only where it beat the label path: at
    least SWEEP_MIN_STEPS steps an epoch, and a mean column chain n_inner / p
    of at most SWEEP_MAX_CHAIN steps (32 and 32 here, p = 3)."""
    man = FactoredSpsd(ManifoldDescriptor("spsd_factored", (N, P)))
    labels = man.enumerate_basis()
    for selection in ("cyclic", "random", "without-replacement"):
        assert (man.anchored_sweep(labels, n_inner, selection) is not None) == offered


def test_an_underflowing_step_writes_nothing(monkeypatch):
    """At eta 1e-320 a small derivative's t underflows to 0: the step writes
    nothing to y, so a -0.0 entry keeps its sign, as ``coordinate_retract``
    leaves it for t == 0."""
    man = FactoredSpsd(ManifoldDescriptor("spsd_factored", (N, P)))
    rng = SplitMix64(3)
    g = 1e-6 * rng.gaussian(N, N)
    y0 = rng.gaussian(N, P)
    y0[::2] = -0.0
    obj = Objective(value=lambda y: float(np.sum(g * (y @ y.T))), euclid_grad=lambda y: g)
    cfg = OptimizerConfig(algorithm="rcdlin", epochs=2, eta=1e-320, selection="random",
                          trace="epoch")
    monkeypatch.setattr(chains, "SWEEP_MIN_STEPS", 1)
    runs = []
    for hook in (FactoredSpsd.anchored_sweep, lambda self, *a: None):
        monkeypatch.setattr(FactoredSpsd, "anchored_sweep", hook)
        runs.append(optimize(man, obj, y0, cfg)[0])
    assert runs[0].tobytes() == runs[1].tobytes() == y0.tobytes()
    assert np.signbit(runs[0][::2]).all()


def test_random_epochs_repeat_entries(monkeypatch):
    """With more random steps than entries an entry repeats within an epoch,
    so the configs above check that repeats add to y in step order (a sweep
    that writes y as one fancy ``y[ii, jj] += t`` keeps one of them)."""
    drawn = []
    real = chains.column_chain_sweep

    def spy(*args):
        sweep = real(*args)

        def keep(y, d, pos, *rest):
            drawn.append(pos.tolist())
            return sweep(y, d, pos, *rest)
        return keep

    monkeypatch.setattr(chains, "column_chain_sweep", spy)
    cfg = OptimizerConfig(algorithm="rcdlin", epochs=2, inner=50, eta=0.3,
                          selection="random", seed=5, trace="epoch")
    outcome("plain", cfg)
    assert len(drawn) == 2 and all(len(set(d)) < len(d) == 50 for d in drawn)



@pytest.mark.parametrize("selection", ["random", "without-replacement"])
@pytest.mark.parametrize("eta, spikes", [(1e150, 0), (0.3, 4)])
def test_a_probed_family_may_sweep_a_drawn_rule(monkeypatch, selection, eta, spikes):
    """A retried epoch rewinds the generator to the draws of the steps up to
    the abort, wherever the abort was raised, so a family with an epoch
    probe may sweep under a drawn rule.  Here the probe fails an epoch that
    leaves |y| >= 100, and the sweep aborts mid-epoch: at eta 1e150 on every
    try, until the ladder gives up; at eta 0.3 while the first ``spikes``
    gradients are scaled by 1e300, after which the run completes."""
    build = make_weighted_ls

    def spiked(*args):
        spec, obj, ref = build(*args)
        calls = []

        def grad(y):
            calls.append(y)
            return obj.euclid_grad(y) * (1e300 if len(calls) <= spikes else 1.0)
        return spec, dataclasses.replace(obj, euclid_grad=grad), ref

    stops = []
    real = chains.column_chain_sweep

    def spy(*args):
        sweep = real(*args)

        def run(*a):
            try:
                return sweep(*a)
            except StepRefused as err:
                stops.append(err.s)
                raise
        return run

    monkeypatch.setattr(FactoredSpsd, "epoch_probe", lambda self, y: bool(np.abs(y).max() < 100.0))
    monkeypatch.setattr(sys.modules[__name__], "make_weighted_ls", spiked)
    monkeypatch.setattr(chains, "column_chain_sweep", spy)
    cfg = OptimizerConfig(algorithm="rcdlin", epochs=8, inner=50, eta=eta,
                          selection=selection, seed=5, trace="epoch")
    fast, slow, _ = both_paths(monkeypatch, "plain", cfg)
    assert fast == slow
    assert (fast[0] == "abort") == (spikes == 0)
    mid_epoch = [s for s in stops if 0 < s < 49]
    assert len(mid_epoch) >= (30 if spikes == 0 else spikes - 1), stops

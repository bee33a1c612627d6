"""Hyperbolic embedding of a synthetic hierarchy: loss/gradient consistency,
guarded distances, training monotonicity, and edge/non-edge separation."""

import math
from functools import reduce
from operator import add

import numpy as np
import pytest

from manifold_cd import embeddings
from manifold_cd.bench import grid_search
from manifold_cd.embeddings import (
    GRAD_GUARD,
    euclid_grad,
    initial_embedding,
    loss,
    make_lorentz_embed,
    train,
)
from manifold_cd.manifolds import ManifoldDescriptor, lift_to_hyperboloid, make_manifold
from manifold_cd.optimize import OptimizeAbort, OptimizerConfig
from manifold_cd.problems import PRESETS
from manifold_cd.rng import SplitMix64
from reference import edge_separation, hyperbolic_distance


def _column_feasibility(x):
    errs = []
    for u in range(x.shape[1]):
        col = x[:, u]
        errs.append(abs(col[0] ** 2 - np.dot(col[1:], col[1:]) - 1.0))
    return max(errs)


# The scalar per-pair oracle the vectorized one replaced: the bitwise reference.

def _lorentz_inner(a, b):
    return float(-a[0] * b[0] + np.dot(a[1:], b[1:]))


def _dist_and_grad(a, b):
    z = -_lorentz_inner(a, b)
    if z < 1.0 + GRAD_GUARD:
        return (0.0 if z < 1.0 + 1e-12 else math.acosh(max(z, 1.0))), None
    jb = b.copy()
    jb[0] = -jb[0]
    return math.acosh(z), -jb / math.sqrt(z * z - 1.0)


def _reference_loss(prob, x):
    total = 0.0
    for u, v in prob.edges:
        d_uv = hyperbolic_distance(x[:, u], x[:, v])
        acc = math.exp(-d_uv)
        for w in prob.negatives[u]:
            acc += math.exp(-hyperbolic_distance(x[:, u], x[:, w]))
        total += d_uv + math.log(acc)
    return total


def _reference_grad(prob, x):
    g = np.zeros_like(x)

    def add_pair(u, v, weight):
        _, du = _dist_and_grad(x[:, u], x[:, v])
        if du is not None:
            g[:, u] += weight * du
            _, dv = _dist_and_grad(x[:, v], x[:, u])
            g[:, v] += weight * dv

    for u, v in prob.edges:
        weights = [math.exp(-hyperbolic_distance(x[:, u], x[:, w]))
                   for w in [v] + prob.negatives[u]]
        denom = weights[0]
        for wt in weights[1:]:  # left to right, as the loss adds them
            denom += wt
        add_pair(u, v, 1.0 - weights[0] / denom)
        for w, wt in zip(prob.negatives[u], weights[1:]):
            add_pair(u, w, -wt / denom)
    return g


def _test_points(prob, seed):
    """The initial embedding; far-apart lifted points; and points where some
    edge endpoints coincide and others sit about 1e-5 apart (both guards)."""
    rng = np.random.default_rng(seed)
    n, w = prob.n_dim, prob.n_words
    far = 2.0 * rng.standard_normal((n, w))
    near = 0.1 * rng.standard_normal((n, w))
    far[0] = near[0] = 0.0
    for c, parent in prob.edges:
        kind = rng.integers(3)
        if kind == 0:
            near[:, c] = near[:, parent]
        elif kind == 1:
            step = rng.standard_normal(n)
            step[0] = 0.0
            near[:, c] = near[:, parent] + 1e-5 * step / np.linalg.norm(step)

    def lift(v):
        return np.hstack([lift_to_hyperboloid(v[:, [u]]) for u in range(w)])

    return initial_embedding(prob), lift(far), lift(near)


@pytest.mark.parametrize("n_dim", [2, 3, 5, 8])
def test_oracle_bitwise_equal_to_scalar_reference(n_dim):
    banded = guarded = 0
    for n_words in (2, 30, 200):
        for seed in (0, 1, 2):
            prob = make_lorentz_embed(n_dim, n_words, 11 * seed + n_dim)
            for x in _test_points(prob, seed):
                assert loss(prob, x) == _reference_loss(prob, x)
                assert np.array_equal(euclid_grad(prob, x), _reference_grad(prob, x))
                for u, v in prob.edges:
                    z = -_lorentz_inner(x[:, u], x[:, v])
                    guarded += z < 1.0 + 1e-12
                    banded += 1.0 + 1e-12 <= z < 1.0 + GRAD_GUARD
    assert guarded > 0 and banded > 0


def _compensated_sum(values):
    """The builtin sum as Python >= 3.12 adds floats: Neumaier compensation."""
    total = comp = 0.0
    for v in values:
        t = total + v
        comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + comp


def test_oracle_does_not_depend_on_the_builtin_sum(monkeypatch):
    """Each edge's softmax sum is added left to right: a compensated builtin
    sum, as on Python >= 3.12, changes neither the loss nor the gradient."""
    monkeypatch.setattr(embeddings, "sum", _compensated_sum, raising=False)
    compensates = False
    for seed in range(5):
        prob = make_lorentz_embed(5, 200, seed)
        x = initial_embedding(prob)
        assert loss(prob, x) == _reference_loss(prob, x)
        assert np.array_equal(euclid_grad(prob, x), _reference_grad(prob, x))
        weights = [[math.exp(-hyperbolic_distance(x[:, u], x[:, w]))
                    for w in [v] + prob.negatives[u]] for u, v in prob.edges]
        compensates |= any(_compensated_sum(ws) != reduce(add, ws) for ws in weights)
    assert compensates  # the injected sum differs from left to right on these points


def test_fewer_than_two_words_rejected():
    for n_words in (0, 1):
        with pytest.raises(ValueError):
            make_lorentz_embed(3, n_words, 0)


def test_tree_structure_and_negatives():
    prob = make_lorentz_embed(3, 30, 29)
    assert len(prob.edges) == 29
    children = {c for c, _ in prob.edges}
    assert children == set(range(1, 30))
    adjacency = {u: set() for u in range(30)}
    for c, p in prob.edges:
        adjacency[c].add(p)
        adjacency[p].add(c)
    for u, negs in prob.negatives.items():
        assert len(negs) == len(set(negs)) == 5
        assert all(w != u and w not in adjacency[u] for w in negs)


def test_generator_deterministic():
    a = make_lorentz_embed(4, 20, 7)
    b = make_lorentz_embed(4, 20, 7)
    assert a.edges == b.edges and a.negatives == b.negatives
    assert np.array_equal(initial_embedding(a), initial_embedding(b))


def test_identical_points_have_zero_distance():
    x = np.array([math.cosh(0.7), math.sinh(0.7), 0.0])
    assert hyperbolic_distance(x, x) == 0.0


def test_distance_known_value():
    a = np.array([1.0, 0.0, 0.0])
    r = 0.9
    b = np.array([math.cosh(r), math.sinh(r), 0.0])
    assert abs(hyperbolic_distance(a, b) - r) <= 1e-12


def test_gradient_matches_finite_difference():
    prob = make_lorentz_embed(3, 12, 5)
    x = initial_embedding(prob)
    g = euclid_grad(prob, x)
    h = 1e-6
    for (u, d) in ((0, 1), (4, 0), (7, 2)):
        xp = x.copy()
        xp[d, u] += h
        xm = x.copy()
        xm[d, u] -= h
        fd = (loss(prob, xp) - loss(prob, xm)) / (2 * h)
        assert abs(g[d, u] - fd) <= 1e-5 * max(1.0, abs(fd))


def test_training_decreases_loss_and_stays_feasible():
    preset = PRESETS["lorentz-desk"]
    prob = make_lorentz_embed(preset["n"], preset["p"], preset["seed"])
    cfg = OptimizerConfig(algorithm="rcdlin", epochs=preset["epochs"],
                          eta=preset["eta"], eta_decay=preset["eta_decay"],
                          selection="time-cyclic", seed=preset["seed"])
    x0 = initial_embedding(prob)
    x, trace = train(prob, cfg)
    seq = [loss(prob, x0)] + [r.f for r in trace.records]
    assert all(b < a + 1e-12 for a, b in zip(seq, seq[1:]))
    assert _column_feasibility(x) <= 1e-10


def test_edges_end_closer_than_negatives():
    preset = PRESETS["lorentz-desk"]
    prob = make_lorentz_embed(preset["n"], preset["p"], preset["seed"])
    cfg = OptimizerConfig(algorithm="rcdlin", epochs=preset["epochs"],
                          eta=preset["eta"], eta_decay=preset["eta_decay"],
                          selection="time-cyclic", seed=preset["seed"])
    x, _ = train(prob, cfg)
    edge_mean, neg_mean = edge_separation(prob, x)
    assert edge_mean < neg_mean


def test_cyclic_selection_also_trains():
    prob = make_lorentz_embed(3, 20, 13)
    cfg = OptimizerConfig(algorithm="rcdlin", epochs=30, eta=0.05,
                          eta_decay=0.1, selection="cyclic", seed=13)
    x0 = initial_embedding(prob)
    x, trace = train(prob, cfg)
    assert trace.final_f() < loss(prob, x0)
    assert _column_feasibility(x) <= 1e-10


def test_flop_accounting_present():
    prob = make_lorentz_embed(3, 10, 3)
    cfg = OptimizerConfig(algorithm="rcdlin", epochs=5, eta=0.05,
                          selection="time-cyclic", seed=3)
    _, trace = train(prob, cfg)
    assert trace.oracle_calls == 5
    assert trace.oracle_flops > 0
    assert trace.update_flops > 0


@pytest.mark.parametrize("algorithm, selection", [
    ("rcd", "time-cyclic"), ("rgd", "cyclic"), ("tsd", "cyclic"),
    ("rcdlin", "random"), ("rcdlin", "without-replacement"),
])
def test_unimplemented_configurations_rejected(algorithm, selection):
    prob = make_lorentz_embed(3, 6, 1)
    cfg = OptimizerConfig(algorithm=algorithm, epochs=1, eta=0.05,
                          selection=selection, seed=1)
    with pytest.raises(ValueError):
        train(prob, cfg)


def _desk(**kw):
    preset = PRESETS["lorentz-desk"]
    prob = make_lorentz_embed(preset["n"], preset["p"], preset["seed"])
    args = dict(algorithm="rcdlin", epochs=preset["epochs"], eta=preset["eta"],
                eta_decay=preset["eta_decay"], selection="time-cyclic",
                seed=preset["seed"])
    return prob, OptimizerConfig(**{**args, **kw})


def test_grad_log_cadence():
    prob, cfg = _desk(epochs=7, grad_log_every=2)
    _, trace = train(prob, cfg)
    assert [(r.k, r.s) for r in trace.records] == [(k, 0) for k in range(7)]
    assert [r.grad_norm is not None for r in trace.records] == [k % 2 == 0 for k in range(7)]
    assert all(r.feasibility is None for r in trace.records)
    # epoch 0 logs the product norm of the per-word Riemannian gradients
    x0 = initial_embedding(prob)
    word = make_manifold(ManifoldDescriptor("hyperbolic", (prob.n_dim, 1)))
    g = euclid_grad(prob, x0)
    norms = [word.gradient_norm(x0[:, [u]], g[:, [u]]) for u in range(prob.n_words)]
    assert trace.records[0].grad_norm == pytest.approx(math.sqrt(sum(v * v for v in norms)))
    assert trace.oracle_calls == 7


def test_feas_log_cadence():
    prob, cfg = _desk(epochs=7, feas_log_every=3)
    _, trace = train(prob, cfg)
    assert [(r.k, r.s) for r in trace.records] == [(k, 0) for k in range(7)]
    assert [r.feasibility is not None for r in trace.records] == [k % 3 == 0 for k in range(7)]
    assert all(r.grad_norm is None for r in trace.records)
    assert trace.records[3].feasibility <= 1e-12
    assert trace.oracle_calls == 7


def test_inner_sweeps_share_one_oracle_call():
    prob, cfg = _desk(epochs=4, inner=3, trace="epoch")
    _, trace = train(prob, cfg)
    assert [(r.k, r.s) for r in trace.records] == [(k, 2) for k in range(4)]
    assert trace.oracle_calls == 4
    _, single = train(prob, _desk(epochs=4, trace="epoch")[1])
    assert trace.update_flops == 3 * single.update_flops


def test_non_finite_loss_aborts(monkeypatch):
    monkeypatch.setattr(embeddings, "loss", lambda prob, x: math.nan)
    prob, cfg = _desk(epochs=2)
    with pytest.raises(OptimizeAbort):
        train(prob, cfg)


def test_angle_overflow_aborts_with_location():
    # eta 0.2 drives word 3's angle past 500 in the second sweep of epoch 8
    prob = make_lorentz_embed(3, 10, 3)
    cfg = OptimizerConfig(algorithm="rcdlin", epochs=30, eta=0.2, inner=2,
                          selection="time-cyclic", seed=3, trace="epoch")
    with pytest.raises(OptimizeAbort, match="epoch 8, inner step 1") as err:
        train(prob, cfg)
    assert (err.value.k, err.value.s) == (8, 1)
    assert err.value.reason.startswith("rotation angle overflow on word 3 (|angle|=")
    _, scored = grid_search("lorentz", 3, 10, 3, cfg, etas=(0.05, 0.2))
    assert math.isfinite(scored[0][1]) and scored[1][1] == math.inf
    # a grid with no stepsize that completes has no winner
    with pytest.raises(RuntimeError, match="every stepsize in the grid diverged"):
        grid_search("lorentz", 3, 10, 3, cfg, etas=(0.2, 0.4))


def test_only_time_row_pairs_refuse_a_large_angle():
    # a circular rotation overflows only to inf, so a space pair takes any
    # finite angle; a time-row pair past MAX_EXP_STEP, or a space pair whose
    # angle is inf, raises before the pair is written
    x = initial_embedding(make_lorentz_embed(3, 4, 0))
    g = SplitMix64(1).gaussian(3, 4)
    y, flops, upkeep, clamped = embeddings._sweep([(1, 2)])(x.copy(), g, None, 1e6, 0)
    assert not np.array_equal(y, x)
    assert (flops, upkeep, clamped) == (4 * 4 + 6 * 4, 0, 0)  # all 4 words move
    assert _column_feasibility(y) <= 1e-12
    for pair, grad, eta in [((0, 1), g, 1e6), ((1, 2), 100.0 * g, 1e308)]:
        y = x.copy()
        with np.errstate(over="ignore"), pytest.raises(
                OverflowError, match=r"rotation angle overflow on word \d"):
            embeddings._sweep([pair])(y, grad, None, eta, 0)
        assert np.array_equal(y, x)


def test_wrong_shape_names_both_shapes():
    with pytest.raises(ValueError, match=r"shape \(3, 4\), got \(2, 2\)"):
        embeddings.HyperboloidColumns(3, 4).check_shape(np.zeros((2, 2)))


def test_trace_none_and_wall_clock():
    prob = make_lorentz_embed(3, 10, 3)
    kw = dict(algorithm="rcdlin", epochs=4, eta=0.05, selection="time-cyclic", seed=3)
    x_ref, ref = train(prob, OptimizerConfig(**kw))
    x, trace = train(prob, OptimizerConfig(trace="none", **kw))
    assert trace.records == [] and trace.oracle_calls == 4
    assert np.array_equal(x, x_ref) and loss(prob, x) == ref.final_f()
    _, timed = train(prob, OptimizerConfig(log_wall=True, **kw))
    walls = [r.wall_ns for r in timed.records]
    assert all(isinstance(w, int) for w in walls) and walls == sorted(walls)
    assert [r.f for r in timed.records] == [r.f for r in ref.records]

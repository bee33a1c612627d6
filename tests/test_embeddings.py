"""Hyperbolic embedding of a synthetic hierarchy: loss/gradient consistency,
guarded distances, training monotonicity, and edge/non-edge separation."""

import math

import numpy as np
import pytest

from manifold_cd.embeddings import (
    edge_separation,
    euclid_grad,
    hyperbolic_distance,
    initial_embedding,
    loss,
    make_lorentz_embed,
    train,
)
from manifold_cd.optimize import OptimizerConfig
from manifold_cd.problems import PRESETS


def _column_feasibility(x):
    errs = []
    for u in range(x.shape[1]):
        col = x[:, u]
        errs.append(abs(col[0] ** 2 - np.dot(col[1:], col[1:]) - 1.0))
    return max(errs)


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


@pytest.mark.parametrize("setting", [
    {"inner": 3}, {"grad_log_every": 1}, {"feas_log_every": 1},
    {"stop_grad_tol": 1e-3}, {"renormalize_every": 1},
])
def test_unhonoured_settings_rejected(setting):
    prob = make_lorentz_embed(3, 6, 1)
    cfg = OptimizerConfig(algorithm="rcdlin", epochs=1, eta=0.05,
                          selection="time-cyclic", seed=1, **setting)
    with pytest.raises(ValueError):
        train(prob, cfg)


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

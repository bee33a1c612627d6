"""Problem generators: planted optima, gradient consistency, reference
values, determinism of data, and the structured benchmark runners."""

import numpy as np
import pytest

from manifold_cd import ManifoldDescriptor, make_manifold
from manifold_cd.bench import (
    block_flops,
    run_symplectic_block_cd,
    run_wls_rcdlin_structured,
    run_wls_rgd_structured,
    wls_structured_flops,
)
from manifold_cd.linalg import thin_svd
from manifold_cd.optimize import OptimizerConfig, flop_audit, run_rcd, run_rcdlin, run_rgd
from manifold_cd.problems import (
    PRESETS,
    build_problem,
    initial_point,
    long_run_reference,
    make_ds_quadratic,
    make_nearest_symplectic,
    make_pca,
    make_procrustes,
    make_weighted_ls,
    optimality_gap,
)
from manifold_cd.rng import SplitMix64
from reference import grassmann_distance


ALL_PROBLEMS = [
    ("procrustes", dict(n=10, p=4, seed=3)),
    ("pca", dict(n=12, p=3, seed=3)),
    ("nearest-symplectic", dict(n=4, p=3, seed=3)),
    ("weighted-ls", dict(n=12, p=4, seed=3, density=0.8)),
    ("ds-quadratic", dict(n=5, p=4, seed=3)),
]


@pytest.mark.parametrize("name,kw", ALL_PROBLEMS, ids=[c[0] for c in ALL_PROBLEMS])
def test_generators_are_pure_functions_of_seed(name, kw):
    spec_a, obj_a, _ = build_problem(name, kw["n"], kw["p"], kw["seed"],
                                     density=kw.get("density", 1.0))
    spec_b, obj_b, _ = build_problem(name, kw["n"], kw["p"], kw["seed"],
                                     density=kw.get("density", 1.0))
    x0 = initial_point(spec_a)
    assert np.array_equal(x0, initial_point(spec_b))
    assert obj_a.value(x0) == obj_b.value(x0)
    assert np.array_equal(obj_a.euclid_grad(x0), obj_b.euclid_grad(x0))


@pytest.mark.parametrize("name,kw", ALL_PROBLEMS, ids=[c[0] for c in ALL_PROBLEMS])
def test_gradient_matches_directional_finite_difference(name, kw):
    spec, obj, _ = build_problem(name, kw["n"], kw["p"], kw["seed"],
                                 density=kw.get("density", 1.0))
    man = make_manifold(spec.descriptor)
    x = initial_point(spec)
    g = obj.euclid_grad(x)
    h = 1e-6
    rng = SplitMix64(777)
    for _ in range(20):
        d = rng.gaussian(*x.shape)
        d /= np.linalg.norm(d)
        if spec.descriptor.family == "spsd_factored":
            fd = (obj.value(x + h * d) - obj.value(x - h * d)) / (2 * h)
            want = float(np.sum(((g + g.T) @ x) * d))
        else:
            fd = (obj.value(x + h * d) - obj.value(x - h * d)) / (2 * h)
            want = float(np.sum(g * d))
        assert abs(fd - want) <= 1e-6 * max(1.0, abs(want))


@pytest.mark.parametrize("name,kw", ALL_PROBLEMS, ids=[c[0] for c in ALL_PROBLEMS])
def test_initial_points_feasible(name, kw):
    spec, _, _ = build_problem(name, kw["n"], kw["p"], kw["seed"],
                               density=kw.get("density", 1.0))
    man = make_manifold(spec.descriptor)
    assert man.feasibility_residual(initial_point(spec)) <= 1e-10


class TestProcrustes:
    def test_planted_solution(self):
        # build B = Xhat A so the optimum attains -|Xhat A|^2
        rng = SplitMix64(31)
        n, p = 12, 5
        a = rng.gaussian(p, p)
        man = make_manifold(ManifoldDescriptor("stiefel", (n, p)))
        xhat = man.random_point(SplitMix64(32))
        b = xhat @ a
        u, _, v = thin_svd(b @ a.T)
        xstar = u @ v.T
        fstar = -float(np.sum((xstar @ a) * b))
        assert abs(fstar - (-float(np.sum((xhat @ a) * b)))) <= 1e-10 * abs(fstar)

    def test_identity_a_gives_polar_factor(self):
        n, p = 8, 3
        rng = SplitMix64(33)
        b = rng.gaussian(n, p)
        u, _, v = thin_svd(b)
        xstar = u @ v.T
        # the polar factor maximizes <X, B> over the frame manifold
        man = make_manifold(ManifoldDescriptor("stiefel", (n, p)))
        for seed in range(5):
            x = man.random_point(SplitMix64(40 + seed))
            assert np.sum(x * b) <= np.sum(xstar * b) + 1e-10

    def test_gap_against_reference(self):
        spec, obj, ref = make_procrustes(16, 6, 7)
        man = make_manifold(spec.descriptor)
        cfg = OptimizerConfig(algorithm="rcd", epochs=200, eta=0.25,
                              selection="cyclic", seed=7, trace="epoch")
        _, trace = run_rcd(man, obj, initial_point(spec), cfg)
        gap, flagged = optimality_gap(trace.final_f(), ref.value)
        assert not flagged
        assert gap <= 1e-10


def _pca_matrix(obj, n):
    """The data matrix A of a pca objective, read from its gradient -2 A x."""
    e = np.eye(n)
    return -0.5 * np.column_stack([obj.euclid_grad(e[:, [j]]).ravel() for j in range(n)])


def _top_eigenvectors(obj, n, p):
    """The top-p eigenvectors of a pca objective's A: the optimal subspace."""
    a = _pca_matrix(obj, n)
    return np.linalg.eigh(0.5 * (a + a.T))[1][:, n - p:]


class TestPca:
    def test_reference_subspace_is_top_eigenvectors(self):
        spec, obj, ref = make_pca(14, 4, 1e3, 3)
        # gradient at the reference is normal: coordinate derivatives vanish
        man = make_manifold(spec.descriptor)
        x = _top_eigenvectors(obj, 14, 4)
        g = obj.euclid_grad(x)
        u = man.riemannian_gradient(x, g)
        assert np.linalg.norm(u) <= 1e-10

    def test_reference_value_attained_at_reference_point(self):
        spec, obj, ref = make_pca(14, 4, 1e3, 3)
        assert obj.value(_top_eigenvectors(obj, 14, 4)) == pytest.approx(ref.value, rel=1e-12)
        # no feasible point does better (spot check against seeded frames)
        man = make_manifold(spec.descriptor)
        for seed in range(5):
            x = man.random_point(SplitMix64(800 + seed))
            assert obj.value(x) >= ref.value - 1e-10

    def test_spectrum_condition_number(self):
        spec, obj, _ = make_pca(10, 3, 1e3, 5)
        # reconstruct the data matrix from the objective's gradient action
        a = _pca_matrix(obj, 10)
        lam = np.linalg.eigvalsh(0.5 * (a + a.T))
        assert lam[-1] / lam[0] == pytest.approx(1e3, rel=1e-9)

    def test_rcdlin_reaches_reference_subspace(self):
        preset = PRESETS["pca-desk"]
        spec, obj, _ = make_pca(preset["n"], preset["p"], preset["cond"],
                                preset["seed"])
        man = make_manifold(spec.descriptor)
        cfg = OptimizerConfig(algorithm="rcdlin", epochs=preset["epochs"],
                              eta=preset["eta"], selection="cyclic",
                              seed=preset["seed"], trace="epoch")
        x, _ = run_rcdlin(man, obj, initial_point(spec), cfg)
        assert grassmann_distance(x, _top_eigenvectors(obj, *x.shape)) <= 1e-4

    def test_rcdlin_epoch_boundaries_monotone(self):
        spec, obj, _ = make_pca(20, 4, 1e3, 3)
        man = make_manifold(spec.descriptor)
        cfg = OptimizerConfig(algorithm="rcdlin", epochs=200, eta=0.05,
                              selection="without-replacement", seed=3,
                              trace="epoch")
        _, trace = run_rcdlin(man, obj, initial_point(spec), cfg)
        fs = [r.f for r in trace.records]
        assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))


class TestNearestSymplectic:
    def test_planted_target_reaches_zero(self):
        spec, obj, ref = make_nearest_symplectic(4, 3, 9, planted=True)
        assert ref.value == 0.0
        man = make_manifold(spec.descriptor)
        cfg = OptimizerConfig(algorithm="rcd", epochs=1000, eta=0.02,
                              selection="cyclic", seed=9, trace="epoch")
        _, trace = run_rcd(man, obj, initial_point(spec), cfg)
        assert trace.final_f() <= 1e-8

    def test_long_run_reference_below_short_run(self):
        spec, obj, ref = make_nearest_symplectic(4, 3, 11)
        assert ref.provenance == "long_run_baseline"
        x0 = initial_point(spec)
        man = make_manifold(spec.descriptor)
        cfg = OptimizerConfig(algorithm="rgd", epochs=30, eta=0.01, seed=11,
                              trace="epoch")
        _, trace = run_rgd(man, obj, x0, cfg)
        fstar = long_run_reference(spec, obj, x0, 30, 0.01)
        assert fstar <= trace.final_f() + 1e-12

    def test_block_runner_feasible_and_descends(self):
        spec, obj, _ = make_nearest_symplectic(6, 6, 11)
        man = make_manifold(spec.descriptor)
        x0 = initial_point(spec)
        cfg = OptimizerConfig(algorithm="rcd", epochs=15, eta=2.0**-7,
                              selection="cyclic", seed=11, trace="epoch",
                              grad_log_every=5)
        x, trace = run_symplectic_block_cd(spec, obj, x0, cfg)
        assert man.feasibility_residual(x) <= 1e-9
        fs = [r.f for r in trace.records]
        assert fs[-1] < obj.value(x0)
        costs = block_flops(6, 6)
        assert all(v > 0 for v in costs.values())
        # one record per epoch at the last of the 3 blocks + 30 mixed pairs,
        # gradient norms on the configured cadence, one oracle per step
        assert [(r.k, r.s) for r in trace.records] == [(k, 32) for k in range(15)]
        assert [r.k for r in trace.records if r.grad_norm is not None] == [0, 5, 10]
        assert trace.oracle_calls == 15 * 33


class TestWeightedLs:
    def test_planted_optimum_has_zero_gradient(self):
        spec, obj, _ = make_weighted_ls(10, 3, 1.0, 5)
        # a factor of the planted X*: its top-3 eigenpairs, X* having rank 3
        lam, v = np.linalg.eigh(spec.params["x_star"])
        ystar = v[:, -3:] * np.sqrt(lam[-3:])
        assert obj.value(ystar) <= 1e-20
        g = obj.euclid_grad(ystar)
        assert np.max(np.abs(g)) <= 1e-12

    def test_sparse_recovery(self):
        spec, obj, _ = make_weighted_ls(40, 8, 0.7, 19)
        x_star = spec.params["x_star"]
        y0 = initial_point(spec)
        cfg = OptimizerConfig(algorithm="rcdlin", epochs=3000, inner=64,
                              eta=0.5, selection="without-replacement",
                              seed=19, trace="epoch")
        y, _ = run_wls_rcdlin_structured(spec, y0, cfg)
        rel = np.linalg.norm(y @ y.T - x_star) / np.linalg.norm(x_star)
        assert rel <= 1e-2

    def test_mask_symmetric_with_target_density(self):
        spec, _, _ = make_weighted_ls(60, 5, 0.7, 3)
        mask = spec.params["mask"]
        assert np.array_equal(mask, mask.T)
        assert abs(mask.mean() - 0.7) < 0.05

    def test_structured_rcdlin_matches_generic_values(self):
        """The structured runner is the anchored engine on the factored
        family, priced by the masked-sparsity model; its iterates also match
        an independent dense loop over the same selection stream."""
        spec, obj, _ = make_weighted_ls(12, 3, 1.0, 7)
        y0 = initial_point(spec)
        cfg = OptimizerConfig(algorithm="rcdlin", epochs=20, inner=7,
                              eta=0.2, selection="without-replacement",
                              seed=7, trace="epoch")
        y_struct, tr = run_wls_rcdlin_structured(spec, y0, cfg)
        y_gen, tr_gen = run_rcdlin(make_manifold(spec.descriptor), obj, y0, cfg)
        assert np.array_equal(y_struct, y_gen)
        assert [r.f for r in tr.records] == [r.f for r in tr_gen.records]
        model = wls_structured_flops(12, 3, 1.0)
        assert [r.flops for r in tr.records] == [
            model["init"] + (k + 1) * 7 * model["cd_step"] for k in range(20)]
        assert tr.oracle_calls == 20 and tr.update_flops == 20 * 7 * model["cd_step"]
        assert tr.total_flops == tr.records[-1].flops

        mask, x_star = spec.params["mask"], spec.params["x_star"]
        y_ref = y0.copy()
        rng = SplitMix64(cfg.seed)
        for _ in range(cfg.epochs):
            anchor = mask * (y_ref @ y_ref.T) - mask * x_star
            for t_lin in rng.permutation(12 * 3)[:cfg.inner]:
                i, j = divmod(int(t_lin), 3)
                y_ref[i, j] -= cfg.eta * 4.0 * float(np.dot(anchor[i], y_ref[:, j]))
        assert np.max(np.abs(y_struct - y_ref)) <= 1e-9

    def test_structured_rgd_matches_generic_values(self):
        spec, obj, _ = make_weighted_ls(12, 3, 1.0, 7)
        y0 = initial_point(spec)
        cfg = OptimizerConfig(algorithm="rgd", epochs=25, eta=0.2, seed=7,
                              trace="epoch")
        y_struct, tr = run_wls_rgd_structured(spec, obj, y0, cfg)
        y_gen, tr_gen = run_rgd(make_manifold(spec.descriptor), obj, y0, cfg)
        assert np.array_equal(y_struct, y_gen)
        assert [r.f for r in tr.records] == [r.f for r in tr_gen.records]
        model = wls_structured_flops(12, 3, 1.0)
        per_epoch = model["rgd_epoch"]
        assert [r.flops for r in tr.records] == [(k + 1) * per_epoch for k in range(25)]
        assert tr.oracle_calls == 25 and tr.update_flops == 25 * (per_epoch - model["init"])

    def test_structured_runner_runs_every_charged_step(self):
        """With more inner steps than coordinates all S steps run, as the
        ledger charges them."""
        spec, obj, _ = make_weighted_ls(6, 2, 1.0, 3)
        y0 = initial_point(spec)
        man = make_manifold(spec.descriptor)
        runs = {}
        for inner in (12, 30):
            cfg = OptimizerConfig(algorithm="rcdlin", epochs=2, inner=inner,
                                  eta=0.1, selection="without-replacement",
                                  seed=3, trace="epoch")
            y, tr = run_wls_rcdlin_structured(spec, y0, cfg)
            assert np.array_equal(y, run_rcdlin(man, obj, y0, cfg)[0])
            model = wls_structured_flops(6, 2, 1.0)
            assert tr.total_flops == model["init"] + 2 * inner * model["cd_step"]
            runs[inner] = y
        assert not np.array_equal(runs[12], runs[30])

    @pytest.mark.parametrize("trace", ["step", "epoch", "none"])
    @pytest.mark.parametrize("algorithm", ["rcdlin", "rgd"])
    def test_structured_runners_run_every_trace_mode(self, algorithm, trace):
        """The engine writes the masked model's ledger itself, so every trace
        mode gives the point and total of trace='epoch', passes the
        oracle-call audit, and its per-step records at each epoch's end are
        the per-epoch records."""
        spec, obj, _ = make_weighted_ls(6, 2, 1.0, 3)
        y0 = initial_point(spec)
        man = make_manifold(spec.descriptor)

        def run(mode):
            if algorithm == "rgd":
                cfg = OptimizerConfig(algorithm="rgd", epochs=4, eta=0.1, seed=3,
                                      trace=mode)
                return cfg, *run_wls_rgd_structured(spec, obj, y0, cfg)
            cfg = OptimizerConfig(algorithm="rcdlin", epochs=4, inner=5, eta=0.1,
                                  selection="without-replacement", seed=3, trace=mode)
            return cfg, *run_wls_rcdlin_structured(spec, y0, cfg)

        _, y_epoch, tr_epoch = run("epoch")
        cfg, y, tr = run(trace)
        assert y.tobytes() == y_epoch.tobytes()
        assert tr.total_flops == tr_epoch.total_flops
        assert flop_audit(tr, man, cfg).ok
        last = tr_epoch.records[-1].s
        if trace == "step":
            assert [r for r in tr.records if r.s == last] == tr_epoch.records

    def test_flop_model_shapes(self):
        model = wls_structured_flops(40, 8, 0.7)
        assert model["rgd_epoch"] > 64 * model["cd_step"]
        dense = wls_structured_flops(40, 8, 1.0)
        assert dense["rgd_epoch"] > model["rgd_epoch"]


class TestDsQuadratic:
    def test_descends_toward_target(self):
        spec, obj, ref = make_ds_quadratic(5, 4, 3)
        man = make_manifold(spec.descriptor)
        x0 = initial_point(spec)
        cfg = OptimizerConfig(algorithm="rcd", epochs=300, eta=0.2,
                              selection="cyclic", seed=3, trace="epoch")
        x, trace = run_rcd(man, obj, x0, cfg)
        assert trace.final_f() < 0.01 * obj.value(x0)
        assert man.feasibility_residual(x) <= 1e-9


def test_gap_definition():
    assert optimality_gap(1.1, 1.0) == (pytest.approx(0.1), False)
    gap, flagged = optimality_gap(0.02, 0.0)
    assert flagged and gap == 0.02


def test_presets_well_formed():
    for name, preset in PRESETS.items():
        assert "problem" in preset and "eta" in preset and "grid" in preset
        assert preset["eta"] > 0


def test_dense_wls_competitive_at_equal_budget():
    """On the dense mask the anchored coordinate method is at least
    competitive with the full-gradient baseline at an equal flop budget."""
    spec, obj, _ = make_weighted_ls(40, 40, 1.0, 19)
    y0 = initial_point(spec)
    inner = 40 * 40 // 5
    model = wls_structured_flops(40, 40, 1.0)
    cfg_rgd = OptimizerConfig(algorithm="rgd", epochs=150, eta=0.25, seed=19,
                              trace="epoch")
    _, tr_rgd = run_wls_rgd_structured(spec, obj, y0, cfg_rgd)
    budget = tr_rgd.total_flops
    cfg_cd = OptimizerConfig(algorithm="rcdlin", epochs=budget // (inner * model["cd_step"]),
                             inner=inner, eta=0.5,
                             selection="without-replacement", seed=19,
                             trace="epoch")
    _, tr_cd = run_wls_rcdlin_structured(spec, y0, cfg_cd)

    def loss_at(records, b):
        out = None
        for r in records:
            if r.flops <= b:
                out = r.f
        return out

    assert loss_at(tr_cd.records, budget) <= 1.1 * loss_at(tr_rgd.records, budget)

import tracemalloc

import numpy as np
import pytest

from dynalign.analysis import (
    SvmConfig, _as_signed, _density_on_grid, _midranks, _stratified_cap, fit_pca, kde_fit,
    kde_traverse, orthogonality_probe, pca_project, roc_auc, svm_decision, svm_score,
    train_svm,
)
from dynalign.errors import ConfigError, InputError
from dynalign.numcore import Rng, sq_dists


def pca_round_trip(model, data):
    """Project onto the components and map back to data space."""
    return pca_project(model, data) @ model.components.T + model.mean


def grid_mass(model, density):
    """Grid-quadrature mass of a density on the KDE model's grid."""
    return float(np.sum(density) * np.prod([ax[1] - ax[0] for ax in model.axes]))


def broadcast_density(mesh, samples, h, max_samples=512):
    """Gaussian KDE at each mesh row from the full (rows, n, d) difference,
    in row blocks: the direct form the per-axis factors must reproduce."""
    if samples.shape[0] > max_samples:
        samples = samples[:: int(np.ceil(samples.shape[0] / max_samples))]
    n, d = samples.shape
    out = np.empty(mesh.shape[0])
    for start in range(0, mesh.shape[0], 2048):
        block = mesh[start : start + 2048]
        d2 = np.sum((block[:, None, :] - samples[None, :, :]) ** 2, axis=2)
        out[start : start + 2048] = np.exp(-d2 / (2.0 * h * h)).sum(axis=1)
    return out / (n * (h**d) * (2.0 * np.pi) ** (d / 2.0))


def power_iteration_pca(data, d, iters=5000):
    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / (data.shape[0] - 1)
    comps, variances = [], []
    work = cov.copy()
    rng = Rng(123)
    for _ in range(d):
        v = rng.normal(cov.shape[0])
        v /= np.linalg.norm(v)
        for _ in range(iters):
            v = work @ v
            v /= np.linalg.norm(v)
        lam = float(v @ work @ v)
        comps.append(v)
        variances.append(lam)
        work = work - lam * np.outer(v, v)
    return np.array(variances)


class TestPca:
    def test_line_data_aligns_first_component(self):
        rng = Rng(0)
        direction = np.array([1.0, 2.0, -1.0])
        direction /= np.linalg.norm(direction)
        data = np.outer(rng.normal(40), direction) + np.array([5.0, 1.0, 0.0])
        with pytest.warns(UserWarning):
            model = fit_pca(data, 2)
        assert abs(model.components[:, 0] @ direction) > 1.0 - 1e-8

    def test_full_dimension_reconstruction_exact(self):
        data = Rng(1).normal((30, 5))
        model = fit_pca(data, 5)
        recon = pca_round_trip(model, data)
        assert np.max(np.abs(recon - data)) < 1e-8

    def test_variances_match_power_iteration_oracle(self):
        data = Rng(2).normal((50, 6))
        model = fit_pca(data, 6)
        oracle = power_iteration_pca(data, 6)
        assert np.max(np.abs(model.variances - oracle)) < 1e-8

    def test_components_orthonormal(self):
        model = fit_pca(Rng(3).normal((40, 7)), 4)
        gram = model.components.T @ model.components
        assert np.max(np.abs(gram - np.eye(4))) < 1e-10

    def test_reconstruction_error_monotone_in_d(self):
        data = Rng(4).normal((60, 8))
        errs = []
        for d in (1, 2, 4, 6, 8):
            model = fit_pca(data, d)
            recon = pca_round_trip(model, data)
            errs.append(float(np.mean((recon - data) ** 2)))
        assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))

    def test_needs_enough_samples(self):
        with pytest.raises(InputError):
            fit_pca(np.zeros((3, 5)), 3)


def separable_clusters(seed=0, n=60, margin=8.0):
    rng = Rng(seed)
    a = rng.stream("a").normal((n, 2)) + np.array([0.0, 0.0])
    b = rng.stream("b").normal((n, 2)) + np.array([margin, 0.0])
    x = np.concatenate([a, b])
    y = np.concatenate([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
    return x, y


def pegasos_oracle(points, labels, config, rng):
    """The two per-step Pegasos loops train_svm replaced: the primal linear
    update with its (1 - eta lam) shrinkage, and the kernel loop that takes
    one dot product of a Gram row per step. Returns w (linear) or coefs."""
    x = np.asarray(points, dtype=np.float64)
    y = _as_signed(labels)
    keep = _stratified_cap(y, config.max_points, rng.stream("subsample"))
    x, y = x[keep], y[keep]
    n, d = x.shape
    lam = float(config.lam)
    pick = rng.stream("pegasos").integers(0, n, size=config.steps)
    if config.kernel == "linear":
        xa = np.concatenate([x, np.ones((n, 1))], axis=1)
        w = np.zeros(d + 1)
        for t, i in enumerate(pick, start=1):
            eta = 1.0 / (lam * t)
            w *= 1.0 - eta * lam
            if y[i] * (xa[i] @ w) < 1.0:
                w += eta * y[i] * xa[i]
        return w
    gamma = config.gamma
    if gamma is None:
        var = float(x.var())
        gamma = 1.0 / (d * var) if var > 0.0 else 1.0
    gram = np.exp(-gamma * sq_dists(x, x))
    ay = np.zeros(n)
    for t, i in enumerate(pick, start=1):
        if y[i] * (gram[i] @ ay) / (lam * t) < 1.0:
            ay[i] += y[i]
    return ay / (lam * config.steps)


def midranks_oracle(values):
    """The run-by-run midrank loop _midranks replaced."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def random_svm_problems(seed, count):
    """Unbalanced two-class problems, n 10-600, d 2-13; every third one
    caps the training subsample below n. Yields (x, labels, config)."""
    rng = Rng(seed)
    for trial in range(count):
        sub = rng.substream(trial)
        n, d = int(sub.integers(10, 601)), int(sub.integers(2, 14))
        labels = (sub.uniform(0, 1, n) < sub.uniform(0.1, 0.5)).astype(np.int64)
        labels[:2] = (0, 1)
        x = sub.normal((n, d)) * sub.uniform(0.2, 3.0, d) + 0.8 * labels[:, None]
        cap = max(2, n // 2) if trial % 3 == 0 else 2000
        for kernel in ("linear", "rbf"):
            yield x, labels, SvmConfig(kernel=kernel, lam=(1e-4, 1e-3, 1e-2)[trial % 3],
                                       steps=int(sub.integers(200, 6000)), max_points=cap)


class TestSvm:
    def test_kernelized_loop_matches_per_step_oracles(self):
        for trial, (x, labels, cfg) in enumerate(random_svm_problems(21, 24)):
            model = train_svm(x, labels, cfg, Rng(trial))
            oracle = pegasos_oracle(x, labels, cfg, Rng(trial))
            if cfg.kernel == "rbf":
                assert np.array_equal(model.coefs, oracle)
                continue
            assert np.max(np.abs(model.w - oracle)) <= 1e-12 * np.max(np.abs(oracle))
            keep = _stratified_cap(_as_signed(labels), cfg.max_points,
                                   Rng(trial).stream("subsample"))
            xa = np.concatenate([x[keep], np.ones((keep.size, 1))], axis=1)
            assert np.array_equal(np.sign(svm_decision(model, x[keep])), np.sign(xa @ oracle))

    def test_unknown_kernel_rejected(self):
        x, y = separable_clusters(n=10)
        with pytest.raises(ConfigError):
            train_svm(x, y, SvmConfig(kernel="poly", steps=10), Rng(0))

    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    def test_separable_clusters_perfect(self, kernel):
        x, y = separable_clusters()
        model = train_svm(x, y, SvmConfig(kernel=kernel, steps=20000), Rng(1))
        scores = svm_score(y, svm_decision(model, x))
        assert scores["accuracy"] == 1.0
        assert scores["auc"] == 1.0

    def test_flipped_labels_mirror_auc(self):
        x, y = separable_clusters(seed=2, margin=3.0)
        model = train_svm(x, y, SvmConfig(kernel="linear", steps=20000), Rng(2))
        decision = svm_decision(model, x)
        auc = svm_score(y, decision)["auc"]
        flipped = svm_score(1 - y, decision)["auc"]
        assert abs(auc + flipped - 1.0) < 1e-12

    def test_rbf_large_gamma_dominated_by_own_coefficient(self):
        x, y = separable_clusters(seed=3, n=20, margin=2.0)
        model = train_svm(
            x, y, SvmConfig(kernel="rbf", gamma=1e4, steps=5000), Rng(3)
        )
        decisions = svm_decision(model, model.points)
        # With a near-delta kernel each stored point's decision value
        # collapses to its own coefficient.
        assert np.max(np.abs(decisions - model.coefs)) < 1e-3 + 0.05 * np.max(
            np.abs(model.coefs)
        )

    def test_prediction_stable_under_duplicated_point(self):
        x, y = separable_clusters(seed=4, margin=4.0)
        probe = Rng(5).normal((40, 2)) * 2.0 + np.array([4.0, 0.0])
        base = train_svm(x, y, SvmConfig(kernel="rbf", steps=20000), Rng(6))
        x2 = np.concatenate([x, x[:1]])
        y2 = np.concatenate([y, y[:1]])
        dup = train_svm(x2, y2, SvmConfig(kernel="rbf", steps=20000), Rng(6))
        agree = np.mean((svm_decision(base, probe) > 0) == (svm_decision(dup, probe) > 0))
        assert agree >= 0.95

    def test_single_class_rejected(self):
        with pytest.raises(InputError):
            train_svm(np.zeros((4, 2)), np.zeros(4), SvmConfig(), Rng(0))

    def test_deterministic_under_seed(self):
        x, y = separable_clusters(seed=7, margin=2.0)
        m1 = train_svm(x, y, SvmConfig(kernel="linear", steps=5000), Rng(8))
        m2 = train_svm(x, y, SvmConfig(kernel="linear", steps=5000), Rng(8))
        assert np.array_equal(m1.w, m2.w)


class TestRocAuc:
    def test_perfect_ordering(self):
        assert roc_auc(np.array([0, 0, 1, 1]), np.array([0.1, 0.2, 0.8, 0.9])) == 1.0

    def test_midrank_ties(self):
        y = np.array([0, 1, 0, 1])
        s = np.array([0.5, 0.5, 0.5, 0.5])
        assert roc_auc(y, s) == 0.5

    def test_needs_both_classes(self):
        with pytest.raises(InputError):
            roc_auc(np.ones(4), np.arange(4.0))

    def test_midranks_match_run_loop_with_ties_and_nans(self):
        rng = Rng(9)
        for trial in range(30):
            sub = rng.substream(trial)
            n = int(sub.integers(1, 400))
            values = np.round(sub.normal(n) * 3.0) / 2.0   # many ties
            values[sub.uniform(0, 1, n) < 0.1] = np.nan
            values[sub.uniform(0, 1, n) < 0.05] = -0.0
            assert np.array_equal(_midranks(values), midranks_oracle(values))


class TestKde:
    def test_single_samples_peak_near_points(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[4.0, 4.0]])
        model = kde_fit(a, b, h=0.5)
        assert np.linalg.norm(model.m_class0 - a[0]) < 0.5
        assert np.linalg.norm(model.m_class1 - b[0]) < 0.5

    def test_identical_classes_degenerate(self):
        pts = Rng(0).normal((30, 2))
        model = kde_fit(pts, pts.copy(), h=0.4)
        assert model.degenerate
        assert np.max(np.abs(model.delta)) < 1e-12
        with pytest.raises(InputError):
            kde_traverse(model, 0.5)

    def test_two_gaussian_clouds_localize_modes(self):
        rng = Rng(1)
        a = 0.3 * rng.stream("a").normal((400, 2))
        b = np.array([3.0, -2.0]) + 0.3 * rng.stream("b").normal((400, 2))
        model = kde_fit(a, b, h=0.35)
        cell = max(ax[1] - ax[0] for ax in model.axes)
        assert np.linalg.norm(model.m_class0 - a.mean(axis=0)) <= 2 * cell
        assert np.linalg.norm(model.m_class1 - b.mean(axis=0)) <= 2 * cell

    def test_densities_nonnegative_and_normalized(self):
        rng = Rng(2)
        model = kde_fit(rng.stream("a").normal((200, 2)),
                        1.5 + rng.stream("b").normal((150, 2)))
        assert np.all(model.f0 >= 0.0) and np.all(model.f1 >= 0.0)
        assert abs(grid_mass(model, model.f0) - 1.0) < 0.02
        assert abs(grid_mass(model, model.f1) - 1.0) < 0.02

    def test_delta_antisymmetry(self):
        rng = Rng(3)
        a = rng.stream("a").normal((50, 2))
        b = 2.0 + rng.stream("b").normal((50, 2))
        m1 = kde_fit(a, b, h=0.5, nodes=24)
        m2 = kde_fit(b, a, h=0.5, nodes=24)
        assert np.max(np.abs(m1.delta + m2.delta)) < 1e-12
        assert np.array_equal(m1.m_class0, m2.m_class1)

    def test_grid_spacing_must_resolve_bandwidth(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[10.0, 10.0]])
        with pytest.raises(ConfigError, match="analysis.kde_nodes"):
            kde_fit(a, b, h=0.05, nodes=9)

    def test_dimension_cap(self):
        with pytest.raises(ConfigError, match="analysis.kde_d"):
            kde_fit(np.zeros((5, 4)), np.ones((5, 4)))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_per_axis_factors_match_broadcast_density(self, d):
        # More than 512 samples per class (the stride subsample) and an
        # automatic grid; the peaks are the grid nodes of the delta argmax.
        rng = Rng(10 + d)
        a = rng.stream("a").normal((700, d))
        b = 1.0 + 0.7 * rng.stream("b").normal((1100, d))
        model = kde_fit(a, b)
        mesh = np.stack([m.ravel() for m in np.meshgrid(*model.axes, indexing="ij")], axis=1)
        assert mesh.shape[0] == model.f0.size
        np.testing.assert_allclose(model.f0, broadcast_density(mesh, a, model.h), rtol=1e-12)
        np.testing.assert_allclose(model.f1, broadcast_density(mesh, b, model.h), rtol=1e-12)
        np.testing.assert_allclose(_density_on_grid(model.axes, a[:40], model.h),
                                   broadcast_density(mesh, a[:40], model.h), rtol=1e-12)
        assert np.array_equal(model.m_class0, mesh[np.argmax(-model.delta)])
        assert np.array_equal(model.m_class1, mesh[np.argmax(model.delta)])

    def test_grid_density_memory_is_bounded(self):
        # The broadcast form held a 96 MB (rows, n, d) block here.
        rng = Rng(0)
        a = rng.stream("a").normal((480, 3))
        b = 1.0 + rng.stream("b").normal((480, 3))
        tracemalloc.start()
        try:
            model = kde_fit(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.grid_shape == (33, 33, 33)
        assert peak < 16 * 2**20


class TestKdeTraverse:
    def _model(self):
        return kde_fit(np.array([[0.0, 0.0]]), np.array([[2.0, 4.0]]), h=0.5)

    def test_endpoints(self):
        model = self._model()
        assert np.array_equal(kde_traverse(model, 0.0), model.m_class0)
        assert np.array_equal(kde_traverse(model, 1.0), model.m_class1)

    def test_midpoint(self):
        model = self._model()
        mid = kde_traverse(model, 0.5)
        assert np.allclose(mid, 0.5 * (model.m_class0 + model.m_class1))

    def test_range_enforced(self):
        model = self._model()
        with pytest.raises(InputError):
            kde_traverse(model, 1.2)
        with pytest.raises(InputError):
            kde_traverse(model, -0.1)


class TestOrthogonalityProbe:
    def test_clean_orthogonal_factors(self):
        rng = Rng(4)
        taus = rng.stream("t").uniform(0, 1, 300)
        mus = rng.stream("m").uniform(0, 1, 300)
        noise = rng.stream("n").normal((300, 2)) * 0.01
        emb = np.stack([taus, mus], axis=1) + noise
        emb = np.concatenate([emb, rng.stream("x").normal((300, 2))], axis=1)
        assert orthogonality_probe(emb, taus, mus) < 0.05

    def test_exact_coordinates_give_zero(self):
        rng = Rng(5)
        taus = rng.stream("t").uniform(0, 1, 100)
        mus = rng.stream("m").uniform(0, 1, 100)
        emb = np.stack([taus, mus, rng.stream("n").normal(100)], axis=1)
        assert orthogonality_probe(emb, taus, mus) <= 1e-6

    def test_collinear_coefficients_give_one(self):
        rng = Rng(6)
        taus = rng.stream("t").uniform(0, 1, 80)
        mus = rng.stream("m").uniform(0, 1, 80)
        s = taus + mus
        emb = np.stack([s, s], axis=1)
        with pytest.warns(UserWarning):
            val = orthogonality_probe(emb, taus, mus)
        assert abs(val - 1.0) < 1e-6

    def test_constant_target_rejected(self):
        emb = Rng(7).normal((20, 3))
        with pytest.raises(InputError):
            orthogonality_probe(emb, np.ones(20), np.linspace(0, 1, 20))
        with pytest.raises(InputError):
            orthogonality_probe(emb, np.linspace(0, 1, 20), np.ones(20))

    def test_needs_enough_samples(self):
        with pytest.raises(InputError):
            orthogonality_probe(np.zeros((3, 4)), np.arange(3.0), np.arange(3.0))

import dataclasses
import tracemalloc

import numpy as np
import pytest

from dynalign import binio, lifting
from dynalign.errors import FormatError, InputError, NumericError
from dynalign.lifting import (
    LiftingConfig, _distances, _lifts, _median_heuristic, _nearest, _weights, build_table,
    lift, lift_many, load_table, save_table, select_k,
)
from dynalign.metrics import rmse
from dynalign.numcore import Rng, sq_dists


def toy_table(kernel="gaussian", k=3, sigma=1.0, n=20, d=3, D=6, seed=0):
    rng = Rng(seed)
    c = rng.stream("c").normal((n, d))
    z = rng.stream("z").normal((n, D))
    return build_table(c, z, LiftingConfig(kernel=kernel, sigma=sigma), k=k), c, z


def lift_with_weights(table, queries):
    """(latents, weights, neighbours) of a query batch at the table's k."""
    return next(_lifts(table, queries, [table.k]))


class TestBuildTable:
    def test_single_pair_always_returns_it(self):
        table = build_table(np.array([[1.0, 2.0]]), np.array([[5.0, 6.0, 7.0]]),
                            LiftingConfig(), k=4)
        assert table.k == 1
        out = lift(table, np.array([100.0, -50.0]))
        assert np.array_equal(out, [5.0, 6.0, 7.0])

    def test_duplicate_embeddings_average_latents(self):
        c = np.array([[1.0, 0.0], [1.0, 0.0]])
        z = np.array([[0.0, 2.0], [4.0, 0.0]])
        table = build_table(c, z, LiftingConfig(kernel="uniform"), k=2)
        out = lift(table, np.array([1.0, 0.0]))
        assert np.allclose(out, [2.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            build_table(np.zeros((3, 2)), np.zeros((4, 2)), LiftingConfig())

    def test_table_is_a_copy(self):
        c = np.zeros((2, 2))
        z = np.zeros((2, 2))
        table = build_table(c, z, LiftingConfig(sigma=1.0))
        c[0, 0] = 99.0
        assert table.c_ref[0, 0] == 0.0

    def test_round_trip_bit_exact(self, tmp_path):
        table, _, _ = toy_table()
        path = tmp_path / "table.bin"
        save_table(table, path)
        back = load_table(path)
        assert np.array_equal(back.c_ref, table.c_ref)
        assert np.array_equal(back.z_ref, table.z_ref)
        assert (back.kernel, back.metric, back.k, back.sigma) == (
            table.kernel, table.metric, table.k, table.sigma,
        )

    @pytest.mark.parametrize("arrays,meta", [
        ({"z_ref": np.zeros((19, 6))}, {}),
        ({"c_ref": np.zeros(20)}, {}),
        ({}, {"k": 21}),
    ], ids=["row-counts", "rank", "k"])
    def test_arrays_that_disagree_are_a_format_error(self, tmp_path, arrays, meta):
        table, _, _ = toy_table()
        path = tmp_path / "t.bin"
        save_table(table, path)
        old_meta, old_arrays = binio.read_envelope(path, lifting.TABLE_MAGIC)
        binio.write_envelope(path, lifting.TABLE_MAGIC, {**old_meta, **meta},
                             {**old_arrays, **arrays})
        with pytest.raises(FormatError):
            load_table(path)


class TestMedianHeuristic:
    def test_is_the_median_upper_triangle_distance(self):
        c = Rng(3).normal((40, 3))
        d = np.sqrt(np.sum((c[:, None, :] - c[None, :, :]) ** 2, axis=2))
        assert np.isclose(_median_heuristic(c), np.median(d[np.triu_indices(40, k=1)]),
                          rtol=1e-12)

    def test_bits_match_the_masked_median(self):
        # Odd and even pair counts, duplicate points (zero distances) and a
        # rounded grid (ties): the partition picks the values np.median does.
        rng = Rng(6)
        for trial in range(40):
            sub = rng.substream(trial)
            n = 1 + trial if trial < 8 else int(sub.integers(2, 300))
            c = sub.normal((n, int(sub.integers(1, 9))))
            if trial % 3 == 0:
                c = np.round(c, 1)
            c[: n // 4] = c[0]
            idx = np.arange(n)
            upper = np.sqrt(sq_dists(c, c)[idx[:, None] < idx[None, :]])
            expect = float(np.median(upper)) if upper.size else 1.0
            assert _median_heuristic(c) == (expect if expect > 0.0 else 1.0)

    def test_strides_down_to_the_cap(self):
        c = Rng(4).normal((25, 2))
        assert _median_heuristic(c, cap=10) == _median_heuristic(c[::3])

    def test_memory_is_bounded(self):
        n = 1000
        c = Rng(5).normal((n, 3))
        tracemalloc.start()
        try:
            _median_heuristic(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The n^2 distances alone: the triangle is selected and partitioned
        # in place (a boolean mask and its masked copy took 0.6 n^2 floats).
        assert peak <= 1.1 * n * n * 8


class TestLift:
    def test_query_at_reference_with_k1(self):
        table, c, z = toy_table(k=1)
        for i in (0, 7, 19):
            assert np.array_equal(lift(table, c[i]), z[i])

    def test_equidistant_pair_uniform_mean(self):
        c = np.array([[1.0, 0.0], [-1.0, 0.0], [5.0, 5.0]])
        z = np.array([[2.0], [4.0], [100.0]])
        table = build_table(c, z, LiftingConfig(kernel="uniform"), k=2)
        out = lift(table, np.array([0.0, 0.0]))
        assert np.allclose(out, [3.0])

    def test_gaussian_k3_matches_brute_force(self):
        table, c, z = toy_table(kernel="gaussian", k=3, sigma=0.8)
        rng = Rng(5)
        for trial in range(10):
            q = rng.substream(trial).normal(3)
            dist = np.linalg.norm(table.c_ref - q, axis=1)
            order = np.argsort(dist, kind="stable")[:3]
            w = np.exp(-dist[order] ** 2 / (2 * 0.8**2))
            w = w / w.sum()
            expect = w @ table.z_ref[order]
            assert np.max(np.abs(lift(table, q) - expect)) < 1e-12

    def test_weights_nonnegative_sum_to_one(self):
        for kernel in ("uniform", "inverse", "gaussian"):
            table, c, _ = toy_table(kernel=kernel, k=5)
            rng = Rng(6)
            queries = rng.normal((8, 3))
            _, w, _ = lift_with_weights(table, queries)
            assert np.all(w >= 0.0)
            assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-12

    def test_output_in_convex_hull_of_neighbors(self):
        table, _, _ = toy_table(kernel="inverse", k=4)
        rng = Rng(7)
        queries = rng.normal((6, 3))
        lifted, w, nbr = lift_with_weights(table, queries)
        for i in range(6):
            neigh = table.z_ref[nbr[i]]
            assert np.all(lifted[i] >= neigh.min(axis=0) - 1e-12)
            assert np.all(lifted[i] <= neigh.max(axis=0) + 1e-12)

    def test_uniform_kernel_ignores_distances(self):
        table, _, _ = toy_table(kernel="uniform", k=4)
        _, w, _ = lift_with_weights(table, Rng(8).normal((5, 3)))
        assert np.allclose(w, 0.25)

    def test_nonfinite_query_rejected(self):
        table, _, _ = toy_table()
        with pytest.raises(InputError):
            lift(table, np.array([np.nan, 0.0, 0.0]))

    def test_cosine_metric(self):
        c = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
        z = np.array([[1.0], [2.0], [3.0]])
        table = build_table(c, z, LiftingConfig(kernel="uniform", metric="cosine"), k=2)
        # Query along +x: cosine distance 0 to both x-aligned references.
        out = lift(table, np.array([3.0, 0.0]))
        assert np.allclose(out, [2.0])


def fresh_sort_lift(table, queries, k):
    """Lift with a stable sort of its own for this k alone."""
    dist = _distances(table, queries)
    nbr = np.argsort(dist, axis=1, kind="stable")[:, :k]
    w = _weights(np.take_along_axis(dist, nbr, axis=1), table.kernel, table.sigma)
    return np.einsum("qk,qkd->qd", w, table.z_ref[nbr]), w, nbr


def tied_table(kernel, metric):
    """Reference rows in duplicated pairs, so neighbour distances tie."""
    rng = Rng(11)
    c = rng.stream("c").normal((15, 3))
    c = np.concatenate([c, c[::-1]])
    z = rng.stream("z").normal((30, 4))
    table = build_table(c, z, LiftingConfig(kernel=kernel, metric=metric), k=4)
    return table, rng.stream("q").normal((12, 3)), rng.stream("qz").normal((12, 4))


class TestSortOnce:
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("kernel", ["uniform", "inverse", "gaussian"])
    def test_lift_many_equals_a_fresh_sort_per_k(self, kernel, metric):
        table, q, _ = tied_table(kernel, metric)
        for k in (1, 2, 3, 5, 8, 30, 40):
            want = fresh_sort_lift(table, q, min(k, 30))
            got = lift_with_weights(dataclasses.replace(table, k=k), q)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert np.array_equal(lift_many(table, q), fresh_sort_lift(table, q, 4)[0])

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("kernel", ["uniform", "inverse", "gaussian"])
    def test_select_k_equals_a_fresh_sort_per_k(self, kernel, metric):
        table, q, qz = tied_table(kernel, metric)
        # Held-out latents near the references' so that k matters.
        qz = 0.5 * qz + 0.5 * fresh_sort_lift(table, q, 3)[0]
        for grid in ([1, 2, 3, 5, 8, 12], [12, 3, 3, 40, 1], [30, 45]):
            errs = {k: rmse(fresh_sort_lift(table, q, min(k, 30))[0], qz) for k in grid}
            best = min(sorted(errs), key=lambda k: errs[k])
            # select_k answers with the count it lifted with, at most the 30 references.
            assert select_k(table, grid, q, qz) == min(best, 30)


    @pytest.mark.parametrize("k", [1, 2, 5, 9, 16, 39, 40])
    def test_partial_selection_equals_a_stable_full_sort_under_forced_ties(self, k):
        # Distances from four values only, so most rows tie across the k-th
        # column, some in long runs.
        rng = Rng(k).stream("ties")
        dist = rng.integers(0, 4, size=(200, 40)).astype(np.float64)
        dist[::7] = 1.0
        assert np.array_equal(_nearest(dist, k), np.argsort(dist, axis=1, kind="stable")[:, :k])


class TestSelectK:
    def test_heldout_duplicates_pick_k1(self):
        table, c, z = toy_table()
        assert select_k(table, [1, 3, 5], c[:8], z[:8]) == 1

    def test_single_grid_element(self):
        table, c, z = toy_table()
        assert select_k(table, [4], c[:5], z[:5]) == 4

    def test_matches_exhaustive_oracle(self):
        rng = Rng(9)
        # Smooth low-dimensional manifold: z is a deterministic map of c.
        c = rng.stream("c").uniform(-1, 1, (60, 2))
        z = np.stack([np.sin(2 * c[:, 0]), c.prod(axis=1), np.cos(c[:, 1])], axis=1)
        z += 0.05 * rng.stream("noise").normal(z.shape)
        table = build_table(c[:40], z[:40], LiftingConfig(kernel="uniform"))
        grid = [1, 2, 3, 5, 8, 12]
        got = select_k(table, grid, c[40:], z[40:])
        errs = {}
        for k in grid:
            pred = lift_many(dataclasses.replace(table, k=k), c[40:])
            errs[k] = float(np.sqrt(np.mean((pred - z[40:]) ** 2)))
        best = min(sorted(errs), key=lambda k: errs[k])
        assert got == best

    def test_returns_the_clipped_count(self):
        table, c, z = toy_table(n=20)
        assert select_k(table, [25], c[:5], z[:5]) == 20

    def test_no_finite_error_raises(self):
        # A NaN latent makes every count's error NaN: no k may be returned.
        table, c, z = toy_table()
        z_bad = z[:5].copy()
        z_bad[0, 0] = np.nan
        with pytest.raises(NumericError, match="no neighbour count"):
            select_k(table, [1, 3], c[:5], z_bad)

    @pytest.mark.parametrize("kernel", ["uniform", "gaussian"])
    def test_bandwidth_underflow_raises_for_the_gaussian_kernel_only(self, kernel):
        c = Rng(1).normal((6, 2))
        config = LiftingConfig(kernel=kernel, sigma=1e-300)
        if kernel == "gaussian":
            with pytest.raises(NumericError, match="underflows"):
                build_table(c, c, config)
        else:
            assert build_table(c, c, config).sigma == 1e-300

    def test_empty_grid_rejected(self):
        table, c, z = toy_table()
        with pytest.raises(InputError):
            select_k(table, [], c[:2], z[:2])

import numpy as np
import pytest

from dynalign.errors import InputError
from dynalign.lifting import (
    LiftingConfig, build_table, lift, lift_many, load_table, save_table, select_k,
)
from dynalign.numcore import Rng


def toy_table(kernel="gaussian", k=3, sigma=1.0, n=20, d=3, D=6, seed=0):
    rng = Rng(seed)
    c = rng.stream("c").normal((n, d))
    z = rng.stream("z").normal((n, D))
    return build_table(c, z, LiftingConfig(kernel=kernel, sigma=sigma), k=k), c, z


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
            _, w, _ = lift_many(table, queries, return_weights=True)
            assert np.all(w >= 0.0)
            assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-12

    def test_output_in_convex_hull_of_neighbors(self):
        table, _, _ = toy_table(kernel="inverse", k=4)
        rng = Rng(7)
        queries = rng.normal((6, 3))
        lifted, w, nbr = lift_many(table, queries, return_weights=True)
        for i in range(6):
            neigh = table.z_ref[nbr[i]]
            assert np.all(lifted[i] >= neigh.min(axis=0) - 1e-12)
            assert np.all(lifted[i] <= neigh.max(axis=0) + 1e-12)

    def test_uniform_kernel_ignores_distances(self):
        table, _, _ = toy_table(kernel="uniform", k=4)
        _, w, _ = lift_many(table, Rng(8).normal((5, 3)), return_weights=True)
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
            pred = lift_many(table, c[40:], k=k)
            errs[k] = float(np.sqrt(np.mean((pred - z[40:]) ** 2)))
        best = min(sorted(errs), key=lambda k: errs[k])
        assert got == best

    def test_empty_grid_rejected(self):
        table, c, z = toy_table()
        with pytest.raises(InputError):
            select_k(table, [], c[:2], z[:2])

import numpy as np
import pytest

from dynalign import dynsim
from dynalign.errors import ConfigError, FormatError
from dynalign.numcore import Rng


def small_dataset(seed=0, **kw):
    args = dict(n_traj=8, frames_per_traj=16, mu_range=(0.2, 1.0), D=6, seed=seed)
    args.update(kw)
    return dynsim.generate_oscillator(**args)


class TestGenerate:
    def test_periodic_trajectory_closes(self):
        # Degenerate regime interval at the unsteady end, window of exactly
        # one period: the loop closes.
        ds = small_dataset(mu_range=(1.0, 1.0), frames_per_traj=33, t_max=1.0)
        traj = ds.trajectories[0]
        assert traj.zeta == 0.0
        assert np.max(np.abs(traj.xs[0] - traj.xs[-1])) < 1e-9

    def test_decaying_regime_shrinks_monotonically(self):
        ds = small_dataset(n_traj=16)
        steady = [t for t in ds.trajectories if t.class_label == 0]
        assert steady, "expected at least one decaying trajectory"
        center = np.asarray(ds.center)
        for traj in steady:
            assert traj.zeta > 0.0
            envelope = np.linalg.norm(traj.ss - center, axis=1)
            assert np.all(np.diff(envelope) < 0.0)

    def test_same_seed_bit_identical(self):
        a = small_dataset(seed=3)
        b = small_dataset(seed=3)
        for ta, tb in zip(a.trajectories, b.trajectories):
            assert np.array_equal(ta.xs, tb.xs)
            assert ta.mu == tb.mu
        assert a.splits == b.splits

    def test_alpha_grid_is_exact(self):
        ds = small_dataset()
        S = len(ds.trajectories[0])
        expect = np.arange(S) / (S - 1)
        for traj in ds.trajectories:
            assert np.array_equal(traj.alphas, expect)

    def test_labels_rederivable_from_mu(self):
        ds = small_dataset(n_traj=20)
        for traj in ds.trajectories:
            assert traj.class_label == dynsim.class_from_mu(traj.mu, ds.mu_threshold)

    def test_splits_are_blocked_and_disjoint(self):
        ds = small_dataset(n_traj=12)
        train = set(ds.indices("train"))
        test = set(ds.indices("test"))
        assert train.isdisjoint(test)
        assert train | test == set(range(12))

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            small_dataset(n_traj=1)
        with pytest.raises(ConfigError):
            small_dataset(frames_per_traj=4)
        with pytest.raises(ConfigError):
            small_dataset(mu_range=(1.0, 0.2))
        with pytest.raises(ConfigError):
            small_dataset(D=1)


class TestEmbeddingMap:
    def test_invert_recovers_latent(self):
        ds = small_dataset()
        for traj in ds.trajectories[:3]:
            rec = ds.mapping.invert(traj.xs)
            assert np.max(np.abs(rec - traj.ss)) < 1e-10


class TestRender:
    def test_zero_state_renders_black(self):
        ds = small_dataset()
        img = dynsim.render(np.zeros(ds.state_dim), 16, ds.mapping)
        assert np.array_equal(img, np.zeros((16, 16)))

    def test_deterministic(self):
        ds = small_dataset()
        frame = ds.trajectories[0].xs[5]
        a = dynsim.render(frame, 24, ds.mapping)
        b = dynsim.render(frame, 24, ds.mapping)
        assert np.array_equal(a, b)

    def test_unit_bump_peaks_at_center(self):
        # Latent (1, 0): single unit bump centered at the middle pixel.
        grid = 17
        img = dynsim.render_latent(np.array([1.0, 0.0]), grid)
        peak = np.unravel_index(np.argmax(img), img.shape)
        assert peak == (8, 8)
        assert abs(img[peak] - 1.0) < 1e-12

    def test_values_in_unit_interval(self):
        ds = small_dataset()
        img = dynsim.render(ds.trajectories[0].xs[2], 16, ds.mapping)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_grid_too_small(self):
        ds = small_dataset()
        with pytest.raises(Exception):
            dynsim.render(ds.trajectories[0].xs[0], 4, ds.mapping)

    def test_finite_difference_slope_within_bound(self):
        grid = 16
        bound = dynsim.render_lipschitz_bound(grid)
        rng = Rng(4)
        for trial in range(20):
            s = rng.substream(trial).uniform(-1, 1, 2)
            d = rng.substream(100 + trial).normal(2)
            d *= 1e-5 / np.linalg.norm(d)
            a = dynsim.render_latent(s, grid)
            b = dynsim.render_latent(s + d, grid)
            slope = np.max(np.abs(b - a)) / np.linalg.norm(d)
            assert slope <= bound


class TestDatasetFile:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = small_dataset(seed=9)
        path = tmp_path / "ds.bin"
        dynsim.save_dataset(ds, path)
        back = dynsim.load_dataset(path)
        for ta, tb in zip(ds.trajectories, back.trajectories):
            assert np.array_equal(ta.xs, tb.xs)
            assert np.array_equal(ta.ss, tb.ss)
            assert ta.mu == tb.mu and ta.omega == tb.omega and ta.zeta == tb.zeta
        assert back.splits == ds.splits
        assert back.mu_threshold == ds.mu_threshold
        assert np.array_equal(back.mapping.q, ds.mapping.q)

    def test_truncated_file_reports_offset(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "ds.bin"
        dynsim.save_dataset(ds, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError, match="byte offset"):
            dynsim.load_dataset(path)

    def test_wrong_magic_rejected(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "ds.bin"
        dynsim.save_dataset(ds, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            dynsim.load_dataset(path)

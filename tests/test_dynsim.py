import numpy as np
import pytest

from dynalign import binio, dynsim
from dynalign.errors import ConfigError, FormatError, InputError, NumericError


def small_dataset(seed=0, **kw):
    args = dict(n_traj=8, frames_per_traj=16, mu_range=(0.2, 1.0), D=6, seed=seed)
    args.update(kw)
    return dynsim.generate_oscillator(**args)


class TestGenerate:
    def test_periodic_trajectory_closes(self):
        # Degenerate regime interval at the unsteady end, window of exactly
        # one period: the loop closes.
        ds = small_dataset(mu_range=(1.0, 1.0), frames_per_traj=33, t_max=1.0)
        assert ds.zetas[0] == 0.0
        assert np.max(np.abs(ds.xs[0, 0] - ds.xs[0, -1])) < 1e-9

    def test_decaying_regime_shrinks_monotonically(self):
        ds = small_dataset(n_traj=16)
        steady = ds.labels == 0
        assert steady.any(), "expected at least one decaying trajectory"
        assert np.all(ds.zetas[steady] > 0.0)
        envelope = np.linalg.norm(ds.ss[steady] - np.asarray(ds.center), axis=2)
        assert np.all(np.diff(envelope, axis=1) < 0.0)

    def test_same_seed_bit_identical(self):
        a = small_dataset(seed=3)
        b = small_dataset(seed=3)
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.mus, b.mus)
        assert a.splits == b.splits

    def test_alpha_grid_is_exact(self):
        ds = small_dataset()
        S = ds.xs.shape[1]
        assert np.array_equal(ds.alphas, np.tile(np.arange(S) / (S - 1), (8, 1)))

    def test_labels_rederivable_from_mu(self):
        ds = small_dataset(n_traj=20)
        for mu, label in zip(ds.mus, ds.labels):
            assert label == dynsim.class_from_mu(mu, ds.mu_threshold)

    def test_splits_are_blocked_and_disjoint(self):
        ds = small_dataset(n_traj=12)
        train = set(ds.indices("train"))
        test = set(ds.indices("test"))
        assert train.isdisjoint(test)
        assert train | test == set(range(12))

    def test_columns_have_documented_shapes(self):
        ds = small_dataset()
        assert ds.xs.shape == (8, 16, 6) and ds.state_dim == 6
        assert ds.ss.shape == (8, 16, 2)
        assert ds.taus.shape == ds.alphas.shape == (8, 16)
        for col in (ds.mus, ds.zetas, ds.labels):
            assert col.shape == (8,)
        assert ds.labels.dtype == np.int64

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            small_dataset(n_traj=1)
        with pytest.raises(ConfigError):
            small_dataset(frames_per_traj=4)
        with pytest.raises(ConfigError):
            small_dataset(mu_range=(1.0, 0.2))
        with pytest.raises(ConfigError):
            small_dataset(D=1)

    def test_overflowing_phase_is_rejected(self):
        # omega * t overflows to inf; sin(inf) is NaN. No warning escapes
        # (pytest fails on one), and no dataset is returned.
        with pytest.raises(NumericError, match="trajectory 0 has non-finite states"):
            small_dataset(t_max=1e308)


class TestStack:
    def test_per_traj_array_lines_up_with_frame_columns(self):
        ds = small_dataset()
        n, S, _ = ds.xs.shape
        # A caller array whose entries spell out (trajectory, frame, channel).
        extra = (np.arange(n)[:, None, None] * 1000 + np.arange(S)[None, :, None] * 10
                 + np.arange(3)[None, None, :]).astype(np.float64)
        for split in ("train", "test", None):
            idx = ds.indices(split)
            flat = ds.stack(split, extra=extra)
            assert set(flat) == {"x", "tau", "mu", "extra"}
            assert flat["extra"].shape == (len(idx) * S, 3)
            # Row r is frame r % S of the split's (r // S)-th trajectory.
            traj = np.repeat(idx, S)
            frame = np.tile(np.arange(S), len(idx))
            assert np.array_equal(flat["extra"][:, 0] // 1000, traj)
            assert np.array_equal((flat["extra"][:, 0] % 1000) // 10, frame)
            assert np.array_equal(flat["x"], ds.xs[traj, frame])
            assert np.array_equal(flat["tau"], ds.taus[traj, frame])
            assert np.array_equal(flat["mu"], ds.mus[traj])

    def test_empty_split_rejected(self):
        ds = small_dataset()
        ds.splits = ["train"] * len(ds.splits)
        with pytest.raises(InputError, match="no trajectories in split 'test'"):
            ds.stack("test")


class TestEmbeddingMap:
    def test_invert_recovers_latent(self):
        ds = small_dataset()
        for xs, ss in zip(ds.xs[:3], ds.ss[:3]):
            rec = ds.mapping.invert(xs)
            assert np.max(np.abs(rec - ss)) < 1e-10


class TestRender:
    def test_zero_state_renders_black(self):
        ds = small_dataset()
        img = dynsim.render(np.zeros(ds.state_dim), 16, ds.mapping)
        assert np.array_equal(img, np.zeros((16, 16)))

    def test_deterministic(self):
        ds = small_dataset()
        frame = ds.xs[0, 5]
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
        img = dynsim.render(ds.xs[0, 2], 16, ds.mapping)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_grid_too_small(self):
        ds = small_dataset()
        with pytest.raises(Exception):
            dynsim.render(ds.xs[0, 0], 4, ds.mapping)

    def test_batch_matches_each_state(self):
        # The zero state's inverse converges at the first step, the others
        # take many: each row stops at its own step, as when drawn alone.
        ds = small_dataset()
        states = np.concatenate([ds.xs[:2, ::3], np.zeros((2, 1, ds.state_dim))], axis=1)
        batched = dynsim.render(states, 16, ds.mapping)
        loop = np.array([[dynsim.render(x, 16, ds.mapping) for x in row] for row in states])
        assert batched.shape == (2, 7, 16, 16)
        assert np.max(np.abs(batched - loop)) <= 1e-12 * np.max(np.abs(loop))
        assert np.array_equal(batched[:, -1], np.zeros((2, 16, 16)))


class TestDatasetFile:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = small_dataset(seed=9)
        path = tmp_path / "ds.bin"
        dynsim.save_dataset(ds, path)
        back = dynsim.load_dataset(path)
        for name in ("xs", "ss", "taus", "alphas", "mus", "zetas", "labels"):
            a, b = getattr(ds, name), getattr(back, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert np.array_equal(back.mapping.u, ds.mapping.u)
        assert back.splits == ds.splits
        assert back.mu_threshold == ds.mu_threshold
        assert np.array_equal(back.mapping.q, ds.mapping.q)

    def test_artifact_carrying_a_seed_still_loads(self, tmp_path):
        # Dataset files written before the seed was dropped hold it in their
        # metadata; it is read past.
        ds = small_dataset(seed=4)
        path = tmp_path / "ds.bin"
        dynsim.save_dataset(ds, path)
        meta, arrays = binio.read_envelope(path, dynsim.DATASET_MAGIC)
        binio.write_envelope(path, dynsim.DATASET_MAGIC, {**meta, "seed": 4}, arrays)
        back = dynsim.load_dataset(path)
        assert np.array_equal(back.xs, ds.xs) and back.splits == ds.splits

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

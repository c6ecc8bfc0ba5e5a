import numpy as np
import pytest

from dynalign import contrastive
from dynalign.contrastive import (
    ContrastiveBatch, EmbeddingConfig, EncoderModel, batch_loss_and_grads,
    build_positives, embed, infonce_loss, load_encoder, save_encoder,
    train_encoder,
)
from dynalign.errors import ConfigError, InputError, ShapeError
from dynalign.numcore import Rng
from test_numcore import grad_check


def brute_force_positives(taus, mus, delta_t, delta_y, traj_ids):
    n = len(taus)
    out = []
    for i in range(n):
        p = []
        for j in range(n):
            if j == i:
                continue
            same = traj_ids[i] == traj_ids[j]
            if same and abs(taus[j] - taus[i]) <= delta_t:
                p.append(j)
            elif delta_y is not None and abs(mus[j] - mus[i]) <= delta_y:
                p.append(j)
        out.append(np.array(p, dtype=np.int64))
    return out


def brute_force_loss(c, positives, tau):
    n = c.shape[0]
    sims = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            sims[i, j] = -np.sum((c[i] - c[j]) ** 2)
    total, count = 0.0, 0
    for i, pos in enumerate(positives):
        pos = [p for p in pos if p != i]
        if not pos:
            continue
        denom = sum(np.exp(sims[i, a] / tau) for a in range(n) if a != i)
        inner = 0.0
        for p in pos:
            inner += np.log(np.exp(sims[i, p] / tau) / denom)
        total += -inner / len(pos)
        count += 1
    return total / count


def index_mask(positives):
    """The (n, n) boolean mask of per-anchor index lists, read as sets."""
    mask = np.zeros((len(positives), len(positives)), dtype=bool)
    for i, p in enumerate(positives):
        mask[i, np.asarray(p, dtype=np.int64)] = True
    return mask


def anchor_loop_loss(c, positives, tau):
    """The per-anchor loop form of infonce_loss, operation for operation:
    the vectorised loss must reproduce it bit for bit."""
    n = c.shape[0]
    sq = np.sum(c * c, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (c @ c.T), 0.0)
    logits = -d2 / tau
    np.fill_diagonal(logits, -np.inf)
    m = np.max(logits, axis=1, keepdims=True)
    expo = np.exp(logits - m)
    denom = np.sum(expo, axis=1, keepdims=True)
    lse = (m + np.log(denom))[:, 0]
    q = expo / denom
    sets = [np.asarray(p, dtype=np.int64) for p in positives]
    sets = [p[p != i] for i, p in enumerate(sets)]
    anchors = [i for i, p in enumerate(sets) if p.size > 0]
    loss = 0.0
    grad_s = np.zeros((n, n))
    for i in anchors:
        p = sets[i]
        loss += lse[i] - np.sum(logits[i, p]) / p.size
        grad_s[i] = q[i] / (tau * len(anchors))
        grad_s[i, p] -= 1.0 / (tau * p.size * len(anchors))
        grad_s[i, i] = 0.0
    loss /= len(anchors)
    row = grad_s.sum(axis=1)
    col = grad_s.sum(axis=0)
    grad_c = -2.0 * (row[:, None] * c - grad_s @ c) + 2.0 * (grad_s.T @ c - col[:, None] * c)
    return float(loss), grad_c


def random_positive_batches(seed, trials):
    """Training-shaped batches (trajectories x contiguous windows) with plain,
    probe-style (phase window across trajectories plus a regime window) and
    class-match positives; yields (embeddings, mask, tau)."""
    rng = Rng(seed)
    for trial in range(trials):
        sub = rng.substream(trial)
        n_traj, window = int(2 + sub.integers(0, 15)), int(4 + sub.integers(0, 5))
        traj = np.repeat(np.arange(n_traj), window)
        taus = (np.tile(np.arange(window), n_traj)
                + np.repeat(sub.integers(0, 40, size=n_traj), window)) / 47.0
        mus = np.repeat(sub.uniform(0.2, 1.0, size=n_traj), window)
        kind = trial % 3
        try:
            mask = build_positives(
                taus, mus, 2.0 / 47.0, delta_y=0.05 if kind == 1 else None,
                cross_trajectory_time=kind == 1, traj_ids=traj,
                labels=(mus > 0.6).astype(int), class_match=kind == 2,
            )
        except InputError:
            continue
        c = sub.normal((traj.size, int(2 + sub.integers(0, 7)))) * (0.2 + 3.0 * sub.uniform())
        yield c, mask, 0.3 + 1.5 * sub.uniform()


class TestBuildPositives:
    def test_infinite_window_single_trajectory(self):
        taus = np.linspace(0, 1, 6)
        mus = np.full(6, 0.4)
        pos = build_positives(taus, mus, delta_t=np.inf, traj_ids=np.zeros(6, dtype=int))
        for i, p in enumerate(pos):
            assert set(np.flatnonzero(p)) == set(range(6)) - {i}

    def test_zero_window_distinct_taus(self):
        taus = np.linspace(0, 1, 4)
        mus = np.array([0.3, 0.3, 0.8, 0.8])
        with pytest.raises(InputError, match="degenerate"):
            build_positives(taus, mus, delta_t=0.0, traj_ids=np.array([0, 0, 1, 1]))

    def test_matches_brute_force(self):
        rng = Rng(0)
        n = 24
        traj = rng.integers(0, 4, size=n)
        taus = rng.uniform(0, 1, n)
        mus = np.array([0.2, 0.5, 0.8, 1.1])[traj]
        got = build_positives(taus, mus, delta_t=0.15, delta_y=0.31, traj_ids=traj)
        expect = brute_force_positives(taus, mus, 0.15, 0.31, traj)
        for g, e in zip(got, expect):
            assert np.array_equal(np.sort(np.flatnonzero(g)), np.sort(e))

    def test_class_match_positives(self):
        taus = np.linspace(0, 1, 6)
        mus = np.arange(6, dtype=float)
        labels = np.array([0, 0, 1, 1, 0, 1])
        pos = build_positives(taus, mus, delta_t=0.0, traj_ids=np.arange(6), labels=labels,
                              class_match=True)
        assert set(np.flatnonzero(pos[0])) == {1, 4}
        assert set(np.flatnonzero(pos[2])) == {3, 5}

    def test_small_batch_rejected(self):
        with pytest.raises(InputError):
            build_positives(np.zeros(3), np.zeros(3), delta_t=1.0, traj_ids=np.zeros(3))


class TestInfonceLoss:
    def test_identical_embeddings_give_log2(self):
        c = np.tile([1.5, -0.5], (3, 1))
        pos = index_mask([np.array([1, 2]), np.array([0, 2]), np.array([0, 1])])
        loss, _ = infonce_loss(ContrastiveBatch(c, pos, 1.0))
        assert abs(loss - np.log(2.0)) < 1e-12

    def test_batch_of_two_is_zero(self):
        c = Rng(0).normal((2, 3))
        loss, _ = infonce_loss(ContrastiveBatch(c, index_mask([[1], [0]]), 0.7))
        assert abs(loss) < 1e-12

    def test_matches_brute_force_on_random_batches(self):
        rng = Rng(1)
        for trial in range(20):
            sub = rng.substream(trial)
            c = sub.normal((8, 3))
            traj = sub.integers(0, 3, size=8)
            taus = sub.uniform(0, 1, 8)
            try:
                pos = build_positives(taus, traj.astype(float), delta_t=0.4, traj_ids=traj)
            except InputError:
                continue
            loss, _ = infonce_loss(ContrastiveBatch(c, pos, 0.9))
            rows = [np.flatnonzero(r) for r in pos]
            assert abs(loss - brute_force_loss(c, rows, 0.9)) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = Rng(2)
        c = rng.normal((7, 3))
        pos = index_mask([np.array([(i + 1) % 7, (i + 2) % 7]) for i in range(7)])
        _, grad = infonce_loss(ContrastiveBatch(c, pos, 0.8))
        h = 1e-6
        for i in (0, 3, 6):
            for j in range(3):
                cp = c.copy(); cp[i, j] += h
                cm = c.copy(); cm[i, j] -= h
                lp, _ = infonce_loss(ContrastiveBatch(cp, pos, 0.8))
                lm, _ = infonce_loss(ContrastiveBatch(cm, pos, 0.8))
                assert abs(grad[i, j] - (lp - lm) / (2 * h)) < 1e-6

    def test_translation_invariance(self):
        rng = Rng(3)
        c = rng.normal((6, 4))
        pos = index_mask([np.array([(i + 1) % 6]) for i in range(6)])
        l0, _ = infonce_loss(ContrastiveBatch(c, pos, 1.0))
        l1, _ = infonce_loss(ContrastiveBatch(c + np.array([5.0, -3.0, 0.25, 1.0]), pos, 1.0))
        assert abs(l0 - l1) < 1e-12

    def test_identical_configuration_is_nonnegative(self):
        c = np.zeros((5, 2))
        pos = index_mask([np.array([j for j in range(5) if j != i]) for i in range(5)])
        loss, _ = infonce_loss(ContrastiveBatch(c, pos, 1.0))
        assert loss >= 0.0

    def test_permutation_invariance(self):
        rng = Rng(4)
        c = rng.normal((6, 3))
        pos = [np.array([(i + 1) % 6, (i + 3) % 6]) for i in range(6)]
        l0, _ = infonce_loss(ContrastiveBatch(c, index_mask(pos), 1.0))
        perm = Rng(5).permutation(6)
        inv = np.argsort(perm)
        c_p = c[perm]
        pos_p = [inv[pos[perm[i]]] for i in range(6)]
        l1, _ = infonce_loss(ContrastiveBatch(c_p, index_mask(pos_p), 1.0))
        assert abs(l0 - l1) < 1e-12

    def test_mask_index_lists_and_anchor_loop_agree_bit_for_bit(self):
        for c, mask, tau in random_positive_batches(11, 40):
            rows = [np.flatnonzero(r) for r in mask]
            loss, grad = infonce_loss(ContrastiveBatch(c, mask, tau))
            other_loss, other_grad = anchor_loop_loss(c, rows, tau)
            assert loss == other_loss
            assert np.array_equal(grad, other_grad)

    def test_anchors_without_positives_are_skipped_exactly(self):
        rng = Rng(13)
        for trial in range(20):
            sub = rng.substream(trial)
            n = int(6 + sub.integers(0, 30))
            mask = sub.uniform(0, 1, (n, n)) < 0.3
            mask[sub.uniform(0, 1, n) < 0.4] = False   # anchors with no positives
            np.fill_diagonal(mask, False)
            if not mask.any():
                continue
            c = sub.normal((n, 3))
            rows = [np.flatnonzero(r) for r in mask]
            loss, grad = infonce_loss(ContrastiveBatch(c, mask, 0.7))
            other_loss, other_grad = anchor_loop_loss(c, rows, 0.7)
            assert loss == other_loss
            assert np.array_equal(grad, other_grad)

    def test_mask_shape_must_match_batch(self):
        with pytest.raises(ShapeError):
            infonce_loss(ContrastiveBatch(np.zeros((4, 2)), np.ones((3, 3), dtype=bool), 1.0))
        with pytest.raises(ShapeError):   # index lists are not a mask
            infonce_loss(ContrastiveBatch(np.zeros((2, 2)), [np.array([1]), np.array([0])], 1.0))

    def test_temperature_must_be_positive(self):
        with pytest.raises(ConfigError):
            infonce_loss(ContrastiveBatch(np.zeros((2, 2)), index_mask([[1], [0]]), 0.0))


def synthetic_latents(seed=0, n_traj=8, S=12, D=6):
    """Trajectory-major latents (n, S, D), phase times (n, S) and regime
    parameters (n,) of n_traj noiseless loops."""
    rng = Rng(seed)
    zs, mus = [], []
    phase = np.linspace(0, 2 * np.pi, S)
    base = np.stack([np.cos(phase), np.sin(phase)], axis=1)
    for i in range(n_traj):
        mu = 0.2 + 0.8 * rng.substream(i).uniform()
        proj = rng.substream(100 + i).normal((2, D)) * 0.5
        zs.append(base @ proj + mu)
        mus.append(mu)
    return np.stack(zs), np.tile(np.linspace(0, 1, S), (n_traj, 1)), np.array(mus)


class TestTrainEncoder:
    def test_embedding_organizes_neighbors(self):
        z, taus, mus = synthetic_latents()
        enc = EncoderModel(6, 3, hidden=(32, 32), rng=Rng(0).stream("enc"))
        cfg = EmbeddingConfig(epochs=60, traj_per_batch=6, window=6)
        train_encoder(enc, z, taus, mus, cfg, Rng(0).stream("train"))
        n, S, D = z.shape
        c = embed(enc, z.reshape(-1, D))
        trajs, taus = np.repeat(np.arange(n), S), taus.ravel()
        within, across = [], []
        for i in range(len(taus) - 1):
            for j in range(i + 1, min(i + 4, len(taus))):
                dist = np.linalg.norm(c[i] - c[j])
                if trajs[i] == trajs[j] and abs(taus[i] - taus[j]) < 0.2:
                    within.append(dist)
                elif trajs[i] != trajs[j]:
                    across.append(dist)
        assert np.mean(within) < np.mean(across)

    def test_zero_lr_keeps_val_loss_and_params_constant(self):
        z, taus, mus = synthetic_latents(1)
        enc = EncoderModel(6, 3, hidden=(16,), rng=Rng(1).stream("enc"))
        before = {k: v.copy() for k, v in enc.params.items()}
        cfg = EmbeddingConfig(epochs=5, lr=0.0, traj_per_batch=6, window=6,
                              patience=100)
        _, curves = train_encoder(enc, z, taus, mus, cfg, Rng(1).stream("t"))
        # Frozen parameters: the fixed validation batches repeat exactly.
        assert np.ptp(curves["val"]) < 1e-12
        for key in before:
            assert np.array_equal(enc.params[key], before[key])

    def test_same_seed_identical_parameters(self):
        z, taus, mus = synthetic_latents(2)

        def run():
            enc = EncoderModel(6, 3, hidden=(16, 16), rng=Rng(2).stream("enc"))
            cfg = EmbeddingConfig(epochs=10, traj_per_batch=6, window=6)
            train_encoder(enc, z, taus, mus, cfg, Rng(2).stream("t"))
            return enc

        a, b = run(), run()
        for key in a.params:
            assert np.array_equal(a.params[key], b.params[key])

    def test_needs_two_trajectories(self):
        z = Rng(0).normal((1, 10, 4))
        with pytest.raises(InputError):
            train_encoder(
                EncoderModel(4, 2, hidden=(8,)), z, np.linspace(0, 1, 10)[None, :],
                np.full(1, 0.5), EmbeddingConfig(epochs=1), Rng(0),
            )

    @pytest.mark.parametrize("window", [9, 10, 15])
    def test_window_longer_than_trajectory_takes_all_of_it(self, monkeypatch, window):
        z, taus, mus = synthetic_latents(3, S=8)
        seen = []

        def recording(batch_taus, batch_mus, *args, traj_ids, **kwargs):
            seen.append((np.array(batch_taus), np.array(traj_ids)))
            return build_positives(batch_taus, batch_mus, *args, traj_ids=traj_ids, **kwargs)

        monkeypatch.setattr(contrastive, "build_positives", recording)
        enc = EncoderModel(6, 3, hidden=(16,), rng=Rng(3).stream("enc"))
        cfg = EmbeddingConfig(epochs=2, traj_per_batch=3, window=window)
        train_encoder(enc, z, taus, mus, cfg, Rng(3).stream("t"))
        assert seen
        for batch_taus, traj_ids in seen:
            # Every drawn trajectory (3 per training batch, 1 per validation
            # batch) contributes its 8 frames, in order.
            drawn = traj_ids.reshape(-1, 8)
            assert len(drawn) in (1, 3)
            assert np.all(drawn == drawn[:, :1])
            assert np.array_equal(batch_taus.reshape(-1, 8), taus[drawn[:, 0]])


class TestEmbed:
    def test_deterministic_and_correct_width(self):
        enc = EncoderModel(5, 3, hidden=(16,), rng=Rng(3))
        z = Rng(4).normal((7, 5))
        a = embed(enc, z)
        b = embed(enc, z)
        assert np.array_equal(a, b)
        assert a.shape == (7, 3)

    def test_grad_check_through_encoder(self):
        rng = Rng(7)
        enc = EncoderModel(5, 2, hidden=(12, 12), rng=rng.stream("enc"))
        z = rng.stream("z").normal((10, 5))
        pos = index_mask([np.array([(i + 1) % 10, (i + 2) % 10]) for i in range(10)])
        err = grad_check(
            lambda p: batch_loss_and_grads(enc, z, pos, 1.0), enc.params, 1e-4,
            max_coords=30,
        )
        assert err <= 1e-4


def test_checkpoint_round_trip(tmp_path):
    enc = EncoderModel(6, 3, hidden=(16, 16), use_condition=False, rng=Rng(8))
    path = tmp_path / "enc.bin"
    save_encoder(enc, path)
    back = load_encoder(path)
    z = Rng(9).normal((4, 6))
    assert np.array_equal(embed(enc, z), embed(back, z))

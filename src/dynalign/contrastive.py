"""Supervised contrastive embedding of feature latents.

The encoder compresses inverted latents into a low-dimensional space where
phase-neighboring frames cluster. Positives come from time proximity within
a trajectory (trajectory identity is recoverable from exact regime-parameter
equality) and optionally from regime proximity or class identity.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import binio
from .errors import ConfigError, InputError, ShapeError
from .numcore import Mlp, Rng, condition_features, fit, split_count, sq_dists

CHECKPOINT_MAGIC = b"ENC1"


@dataclass
class ContrastiveBatch:
    embeddings: np.ndarray     # (n, d)
    positives: np.ndarray      # (n, n) bool mask, diagonal False (or per-anchor index arrays)
    tau: float


def build_positives(taus, mus, delta_t, delta_y=None, labels=None,
                    class_match=False, traj_ids=None, cross_trajectory_time=False):
    """Positive mask from time/condition proximity: an (n, n) boolean array
    whose row i marks anchor i's positives; the diagonal is False.

    Same-trajectory frames share mu exactly, so trajectory identity defaults
    to exact mu equality; pass traj_ids to override. delta_y=None disables
    the regime-proximity clause; class_match adds same-label positives.
    With cross_trajectory_time the phase-window clause spans all
    trajectories, tying equal-phase frames together across regimes.
    """
    taus = np.asarray(taus, dtype=np.float64)
    mus = np.asarray(mus, dtype=np.float64)
    n = taus.size
    if n < 4:
        raise InputError(f"batch of {n} is too small to form positives")
    if traj_ids is None:
        same_traj = mus[:, None] == mus[None, :]
    else:
        traj_ids = np.asarray(traj_ids)
        same_traj = traj_ids[:, None] == traj_ids[None, :]
    close_t = np.abs(taus[:, None] - taus[None, :]) <= delta_t
    pos = close_t if cross_trajectory_time else (same_traj & close_t)
    if delta_y is not None:
        pos = pos | (np.abs(mus[:, None] - mus[None, :]) <= delta_y)
    if class_match:
        if labels is None:
            raise InputError("class_match requires labels")
        labels = np.asarray(labels)
        pos = pos | (labels[:, None] == labels[None, :])
    np.fill_diagonal(pos, False)
    if not pos.any():
        raise InputError("degenerate batch: every anchor's positive set is empty")
    return pos


def _positive_mask(positives, n):
    """The (n, n) positive mask of a batch, diagonal False. Per-anchor index
    arrays are read as sets: order and repeats do not matter."""
    if isinstance(positives, np.ndarray) and positives.dtype == bool:
        if positives.shape != (n, n):
            raise ShapeError(f"positive mask {positives.shape} does not match batch of {n}")
        mask = positives.copy()
    else:
        mask = np.zeros((n, n), dtype=bool)
        for i, p in enumerate(positives):
            mask[i, np.asarray(p, dtype=np.int64)] = True
    np.fill_diagonal(mask, False)
    return mask


def infonce_loss(batch):
    """Contrastive loss and its gradient w.r.t. the embeddings.

    Similarity is negative squared distance; the denominator runs over all
    non-anchor items; log-sum-exp uses max subtraction. Anchors with empty
    positive sets are skipped.
    """
    if batch.tau <= 0.0:
        raise ConfigError("temperature must be positive", field="tau")
    c = np.asarray(batch.embeddings, dtype=np.float64)
    n, _ = c.shape
    tau = float(batch.tau)

    logits = -sq_dists(c, c) / tau
    np.fill_diagonal(logits, -np.inf)
    m = np.max(logits, axis=1, keepdims=True)
    expo = np.exp(logits - m)
    denom = np.sum(expo, axis=1, keepdims=True)
    lse = (m + np.log(denom))[:, 0]
    q = expo / denom

    mask = _positive_mask(batch.positives, n)
    counts = mask.sum(axis=1)
    anchors = counts > 0
    n_anchor = int(np.count_nonzero(anchors))
    if n_anchor == 0:
        raise InputError("no anchors with positives")
    k = counts[anchors]

    # Each anchor's positive logits, in column order, summed exactly as np.sum
    # sums them: np.sum adds 0.0 + pairwise(s), reduceat adds s[0] +
    # pairwise(s[1:]), so every reduceat segment starts with a 0.0.
    lead = np.cumsum(k + 1) - (k + 1)
    seg = np.zeros(lead[-1] + k[-1] + 1)
    body = np.ones(seg.size, dtype=bool)
    body[lead] = False
    seg[body] = logits[mask]
    pos_sum = np.add.reduceat(seg, lead)
    # A running total over anchors in index order (cumsum adds sequentially).
    loss = np.cumsum(lse[anchors] - pos_sum / k)[-1] / n_anchor

    grad_s = q / (tau * n_anchor)
    grad_s[~anchors] = 0.0
    grad_s[mask] -= np.repeat(1.0 / (tau * k * n_anchor), k)
    np.fill_diagonal(grad_s, 0.0)

    row = grad_s.sum(axis=1)
    col = grad_s.sum(axis=0)
    grad_c = -2.0 * (row[:, None] * c - grad_s @ c) + 2.0 * (grad_s.T @ c - col[:, None] * c)
    return float(loss), grad_c


class EncoderModel:
    """Dense map from feature latents (optionally with conditions) to R^d."""

    N_COND_FEATURES = 16

    def __init__(self, state_dim, embed_dim, hidden=(128, 128, 128),
                 use_condition=False, rng=None):
        self.state_dim = int(state_dim)
        self.embed_dim = int(embed_dim)
        self.use_condition = bool(use_condition)
        n_in = self.state_dim + (2 * self.N_COND_FEATURES if use_condition else 0)
        self.net = Mlp(
            [n_in, *hidden, self.embed_dim],
            rng=rng if rng is not None else Rng(0).stream("encoder-init"),
        )

    @property
    def params(self):
        return self.net.params

    def features(self, z, cond=None):
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        if not self.use_condition:
            return z
        if cond is None:
            raise InputError("encoder was built with use_condition=True; pass cond")
        cond = np.atleast_2d(np.asarray(cond, dtype=np.float64))
        return np.concatenate([z, condition_features(cond, self.N_COND_FEATURES)], axis=1)

    def forward(self, z, cond=None, want_cache=False):
        return self.net.forward(self.features(z, cond), want_cache=want_cache)


def embed(encoder, z, cond=None):
    """Deterministic forward pass of latents (D,) or (n, D)."""
    single = np.ndim(z) == 1
    out = encoder.forward(z, cond)
    return out[0] if single else out


def batch_loss_and_grads(encoder, z, positives, tau, cond=None):
    """InfoNCE loss of one batch plus gradients w.r.t. encoder parameters."""
    out, cache = encoder.forward(z, cond, want_cache=True)
    loss, grad_c = infonce_loss(ContrastiveBatch(out, positives, tau))
    grads, _ = encoder.net.backward(cache, grad_c)
    return loss, grads


@dataclass
class EmbeddingConfig:
    d: int = 8
    tau: float = 1.0
    delta_t: Optional[float] = None   # None -> two-frame window
    delta_y: Optional[float] = None
    use_condition: bool = False
    class_match: bool = False
    cross_trajectory_time: bool = False
    hidden: tuple = (128, 128, 128)
    epochs: int = 200
    lr: float = 1e-3
    traj_per_batch: int = 16
    window: int = 8                   # contiguous frames drawn per trajectory
    val_fraction: float = 0.1
    patience: int = 10
    min_improve: float = 1e-4


def _batches_for(traj_order, frame_count, cfg, pick_rng, n_batches):
    """Yield (traj_subset, start_offsets) index plans for contrastive batches."""
    plans = []
    for b in range(n_batches):
        sub = pick_rng.substream(b)
        chosen = sub.choice(len(traj_order), size=min(cfg.traj_per_batch, len(traj_order)))
        starts = sub.integers(0, max(frame_count - cfg.window, 1) + 1, size=chosen.size)
        plans.append(([traj_order[j] for j in chosen], starts))
    return plans


def train_encoder(encoder, z, taus, mus, config, rng, labels=None, traj_ids=None):
    """Train until the validation loss saturates; returns loss curves.

    z/taus/mus/labels are aligned per-frame arrays; traj_ids group frames
    into trajectories (defaults to grouping by exact mu value). `config` is
    an EmbeddingConfig; its d, hidden and use_condition shape the encoder
    and are not read here.
    """
    z = np.asarray(z, dtype=np.float64)
    taus = np.asarray(taus, dtype=np.float64)
    mus = np.asarray(mus, dtype=np.float64)
    if traj_ids is None:
        _, traj_ids = np.unique(mus, return_inverse=True)
    traj_ids = np.asarray(traj_ids)
    uniq = np.unique(traj_ids)
    if uniq.size < 2:
        raise InputError("need latents from at least 2 trajectories")

    frames_by_traj = {t: np.flatnonzero(traj_ids == t) for t in uniq}
    min_frames = min(len(v) for v in frames_by_traj.values())
    delta_t = config.delta_t
    if delta_t is None:
        delta_t = 2.0 / max(min_frames - 1, 1)

    val_rng = rng.stream("val-split")
    n_val = split_count(uniq.size, config.val_fraction)
    val_set = set(uniq[np.sort(val_rng.choice(uniq.size, size=n_val))])
    train_trajs = [t for t in uniq if t not in val_set]
    val_trajs = [t for t in uniq if t in val_set]
    if not train_trajs:
        raise InputError("validation split swallowed every trajectory")

    cond = np.stack([taus, mus], axis=1) if encoder.use_condition else None

    def loss_and_grads(plan):
        traj_subset, starts = plan
        idx = np.concatenate(
            [
                frames_by_traj[t][min(s, len(frames_by_traj[t]) - config.window):][: config.window]
                for t, s in zip(traj_subset, starts)
            ]
        )
        try:
            positives = build_positives(
                taus[idx], mus[idx], delta_t, config.delta_y,
                labels=None if labels is None else np.asarray(labels)[idx],
                class_match=config.class_match, traj_ids=traj_ids[idx],
                cross_trajectory_time=config.cross_trajectory_time,
            )
        except InputError:
            return None
        return batch_loss_and_grads(
            encoder, z[idx], positives, config.tau,
            None if cond is None else cond[idx],
        )

    batch_rng = rng.stream("batches")
    n_train_batches = max(2, len(train_trajs) // max(config.traj_per_batch, 1) * 4)
    val_plans = _batches_for(val_trajs, min_frames, config,
                             rng.stream("val-batches"), max(2, len(val_trajs)))
    val_curve = []
    best_val, stale = np.inf, 0

    def saturated(mean_loss):
        nonlocal best_val, stale
        v_losses = [out[0] for plan in val_plans if (out := loss_and_grads(plan)) is not None]
        v = float(np.mean(v_losses)) if v_losses else mean_loss
        val_curve.append(v)
        if v < best_val - config.min_improve:
            best_val, stale = v, 0
            return False
        stale += 1
        return stale >= config.patience

    curve = fit(
        encoder.params, config.epochs,
        lambda epoch: _batches_for(train_trajs, min_frames, config,
                                   batch_rng.substream(epoch), n_train_batches),
        loss_and_grads, config.lr, "contrastive", stop=saturated,
    )
    return encoder, {"train": curve, "val": val_curve}


def save_encoder(encoder, path):
    meta = {
        "state_dim": encoder.state_dim,
        "embed_dim": encoder.embed_dim,
        "use_condition": encoder.use_condition,
        "dims": encoder.net.dims,
    }
    binio.write_envelope(path, CHECKPOINT_MAGIC, meta, dict(encoder.net.params))


def load_encoder(path):
    meta, arrays = binio.read_envelope(path, CHECKPOINT_MAGIC)
    hidden = tuple(meta["dims"][1:-1])
    enc = EncoderModel(
        meta["state_dim"], meta["embed_dim"], hidden=hidden,
        use_condition=bool(meta["use_condition"]),
    )
    for key in enc.net.params:
        enc.net.params[key] = arrays[key]
    return enc

"""Supervised contrastive embedding of feature latents.

The encoder compresses inverted latents into a low-dimensional space where
phase-neighboring frames cluster. Positives come from time proximity within
a trajectory and optionally from regime proximity or class identity.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import binio
from .errors import ConfigError, InputError, ShapeError
from .numcore import Mlp, Rng, condition_features, fit, one_blas_thread, split_count, sq_dists

CHECKPOINT_MAGIC = b"ENC1"


@dataclass
class ContrastiveBatch:
    embeddings: np.ndarray     # (n, d)
    positives: np.ndarray      # (n, n) bool mask; its diagonal is ignored
    tau: float


def build_positives(taus, mus, delta_t, delta_y=None, *, traj_ids, labels=None,
                    class_match=False, cross_trajectory_time=False):
    """Positive mask from time/condition proximity: an (n, n) boolean array
    whose row i marks anchor i's positives; the diagonal is False.

    Frames of one trajectory share a traj_ids entry; delta_y=None disables
    the regime-proximity clause; class_match adds same-label positives.
    With cross_trajectory_time the phase-window clause spans all
    trajectories, tying equal-phase frames together across regimes.
    """
    taus = np.asarray(taus, dtype=np.float64)
    mus = np.asarray(mus, dtype=np.float64)
    n = taus.size
    if n < 4:
        raise InputError(f"batch of {n} is too small to form positives")
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
    """A copy of the batch's (n, n) boolean positive mask, diagonal False."""
    if getattr(positives, "dtype", None) != bool or positives.shape != (n, n):
        raise ShapeError(f"positives must be a ({n}, {n}) boolean mask")
    mask = positives.copy()
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

    def forward(self, z, cond=None, want_cache=False):
        """Embeddings of (n, D) latents; a conditioned encoder also takes the
        (n, 2) (tau, mu) rows as sinusoidal features."""
        if self.use_condition:
            if cond is None:
                raise InputError("encoder was built with use_condition=True; pass cond")
            z = np.concatenate([z, condition_features(cond, self.N_COND_FEATURES)], axis=1)
        return self.net.forward(z, want_cache=want_cache)


def embed(encoder, z, cond=None):
    """Deterministic forward pass of (n, D) latents."""
    return encoder.forward(z, cond)


def batch_loss_and_grads(encoder, z, positives, tau, cond=None):
    """InfoNCE loss of one batch plus gradients w.r.t. encoder parameters."""
    out, cache = encoder.forward(z, cond, want_cache=True)
    loss, grad_c = infonce_loss(ContrastiveBatch(out, positives, tau))
    grads = encoder.net.backward(cache, grad_c)
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


def _batches_for(trajs, frame_count, cfg, pick_rng, n_batches):
    """(trajectories, start offsets) index plans for contrastive batches."""
    plans = []
    for b in range(n_batches):
        sub = pick_rng.substream(b)
        chosen = sub.choice(len(trajs), size=min(cfg.traj_per_batch, len(trajs)))
        starts = sub.integers(0, max(frame_count - cfg.window, 1) + 1, size=chosen.size)
        plans.append((trajs[chosen], starts))
    return plans


def train_encoder(encoder, z, taus, mus, config, rng, labels=None):
    """Train until the validation loss saturates; returns loss curves.

    The inputs are trajectory-major: z (n, S, D), taus (n, S), mus and
    labels (n,). A batch takes min(window, S) consecutive frames from each
    of a few trajectories, so a window longer than a trajectory takes all
    of it. `config` is an EmbeddingConfig; its d, hidden and use_condition
    shape the encoder and are not read here.
    """
    n, S = taus.shape
    if n < 2:
        raise InputError("need latents from at least 2 trajectories")
    w = min(config.window, S)
    delta_t = 2.0 / max(S - 1, 1) if config.delta_t is None else config.delta_t

    n_val = split_count(n, config.val_fraction)
    val_trajs = np.sort(rng.stream("val-split").choice(n, size=n_val))
    train_trajs = np.setdiff1d(np.arange(n), val_trajs)
    if not train_trajs.size:
        raise InputError("validation split swallowed every trajectory")

    def rows_and_positives(plan):
        """A plan's latent rows, condition rows (or None) and positive mask;
        None when the batch is degenerate."""
        trajs, starts = plan
        t = np.repeat(trajs, w)
        s = (np.minimum(starts, S - w)[:, None] + np.arange(w)).ravel()
        try:
            positives = build_positives(
                taus[t, s], mus[t], delta_t, config.delta_y,
                labels=None if labels is None else labels[t],
                class_match=config.class_match, traj_ids=t,
                cross_trajectory_time=config.cross_trajectory_time,
            )
        except InputError:
            return None
        cond = np.stack([taus[t, s], mus[t]], axis=1) if encoder.use_condition else None
        return z[t, s], cond, positives

    def loss_and_grads(plan):
        batch = rows_and_positives(plan)
        if batch is None:
            return None
        zb, cb, positives = batch
        return batch_loss_and_grads(encoder, zb, positives, config.tau, cb)

    batch_rng = rng.stream("batches")
    n_train_batches = max(2, len(train_trajs) // max(config.traj_per_batch, 1) * 4)
    val_plans = _batches_for(val_trajs, S, config,
                             rng.stream("val-batches"), max(2, len(val_trajs)))
    # The validation batches are fixed: their rows and positives are built
    # once, and each epoch scores them with the forward pass alone.
    val_batches = list(filter(None, map(rows_and_positives, val_plans)))
    val_curve = []
    best_val, stale = np.inf, 0

    def saturated(mean_loss):
        nonlocal best_val, stale
        v_losses = [infonce_loss(ContrastiveBatch(encoder.forward(zb, cb), pos, config.tau))[0]
                    for zb, cb, pos in val_batches]
        v = float(np.mean(v_losses)) if v_losses else mean_loss
        val_curve.append(v)
        if v < best_val - config.min_improve:
            best_val, stale = v, 0
            return False
        stale += 1
        return stale >= config.patience

    with encoder.net.reused_buffers(), one_blas_thread():
        curve = fit(
            encoder.params, config.epochs,
            lambda epoch: _batches_for(train_trajs, S, config,
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
    for key, p in enc.net.params.items():
        enc.net.params[key] = binio.checked_shape(arrays[key], p.shape, f"array {key!r}")
    return enc

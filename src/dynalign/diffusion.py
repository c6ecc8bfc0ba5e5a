"""Conditional denoising diffusion on state vectors.

A dense noise predictor is trained on noised states (the data is
vector-valued, so no convolutional machinery is needed), then deterministic
DDIM recursions map states to feature latents and back. The cumulative
noise products use index 0..T with the t=0 boundary fixed at 1.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import binio, numcore
from .errors import ConfigError, NumericError, ShapeError
from .numcore import (Mlp, Rng, condition_features, fit, in_lanes, one_blas_thread,
                      shuffled_batches, sinusoidal_features, usable_cpus)

CHECKPOINT_MAGIC = b"DNZ1"

# DDIM carries its rows in max(1, n // DDIM_BLOCK_ROWS) blocks of near-equal
# size, so every block of a large batch holds 512 to 1023 rows and a smaller
# batch is one block. With OpenBLAS, the denoiser's GEMMs give every row of
# a block of 512 rows or more the bits the full batch gives it, at one BLAS
# thread or two, while 128- or 256-row blocks move nearly every row (a
# small-matrix kernel takes the 256 -> 12 output layer): so the blocks change
# no byte, and a frame's latent does not depend on which other frames share
# its batch, as long as that batch holds 512 rows or more. A short remainder
# block would move bits. The blocks are independent, so the CPUs run them
# side by side, one BLAS thread each (_ddim).
DDIM_BLOCK_ROWS = 512


@dataclass(frozen=True)
class NoiseSchedule:
    T: int
    beta: np.ndarray        # (T,) per-step variances, beta[t-1] is step t
    alpha_bar: np.ndarray   # (T+1,) cumulative products, alpha_bar[0] == 1


def make_schedule(T, beta_start=1e-4, beta_end=0.02):
    if T < 2:
        raise ConfigError("need at least 2 diffusion steps", field="T")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ConfigError(
            f"variance endpoints must satisfy 0 < {beta_start} <= {beta_end} < 1",
            field="beta",
        )
    beta = np.linspace(beta_start, beta_end, T)
    alpha_bar = np.concatenate([[1.0], np.cumprod(1.0 - beta)])
    return NoiseSchedule(T=int(T), beta=beta, alpha_bar=alpha_bar)


def forward_noise(x, t, eps, sched):
    """Noisy state at step t: sqrt(abar_t) x + sqrt(1 - abar_t) eps."""
    a = sched.alpha_bar[t]
    if np.ndim(x) == 2 and np.ndim(a) == 1:
        a = a[:, None]
    return np.sqrt(a) * x + np.sqrt(1.0 - a) * eps


class DenoiserModel:
    """Dense conditional noise predictor eps(z_t, t, y).

    The diffusion step enters through sinusoidal features, each condition
    component through 16 sinusoidal features; everything is concatenated
    with z_t. The output layer starts at zero so an untrained model
    predicts zero noise; `stored` builds it from saved arrays instead (Mlp).
    """

    N_TIME_FEATURES = 32
    N_COND_FEATURES = 16  # per condition component

    def __init__(self, state_dim, T, hidden=(256, 256, 256, 256), rng=None,
                 cond_components=2, stored=None):
        self.state_dim = int(state_dim)
        self.T = int(T)
        self.cond_components = int(cond_components)
        n_in = (
            self.state_dim
            + self.N_TIME_FEATURES
            + self.cond_components * self.N_COND_FEATURES
        )
        if rng is None and stored is None:
            rng = Rng(0).stream("denoiser-init")
        self.net = Mlp([n_in, *hidden, self.state_dim], rng=rng, zero_init_last=True,
                       stored=stored)

    @property
    def params(self):
        return self.net.params

    def time_features(self, t):
        """Sinusoidal features of the steps `t`, one row per step."""
        return sinusoidal_features(t, self.N_TIME_FEATURES, 4.0, 4.0 * self.T)

    def condition_rows(self, cond, n):
        """`cond` as float64, checked to hold n (tau, mu)-style rows."""
        cond = np.asarray(cond, dtype=np.float64)
        if cond.shape != (n, self.cond_components):
            raise ShapeError(f"condition of shape {cond.shape}; expected "
                             f"{(n, self.cond_components)}")
        return cond

    def features(self, z, t, cond):
        n = z.shape[0]
        t_feat = self.time_features(np.broadcast_to(np.asarray(t, dtype=np.float64), (n,)))
        y_feat = condition_features(self.condition_rows(cond, n), self.N_COND_FEATURES)
        return np.concatenate([z, t_feat, y_feat], axis=1)

    def predict(self, z, t, cond):
        return self.net.forward(self.features(z, t, cond))

    def loss_and_grads(self, x0, t, eps, cond, sched):
        """Batch denoising loss (mean squared-norm) and parameter grads."""
        z_t = forward_noise(x0, t, eps, sched)
        out, cache = self.net.forward(self.features(z_t, t, cond), want_cache=True)
        resid = out - eps
        n = x0.shape[0]
        loss = float(np.sum(resid * resid) / n)
        grads = self.net.backward(cache, 2.0 * resid / n)
        return loss, grads


def condition_columns(taus, mus, n_components):
    """Stack (tau, mu) columns down to the model's condition width."""
    cols = [np.asarray(taus, dtype=np.float64), np.asarray(mus, dtype=np.float64)]
    return np.stack(cols[:n_components], axis=1)


def train(model, ds, sched, epochs, batch, rng, lr=1e-3):
    """Minimize the denoising objective with Adam; returns the model and its
    per-epoch mean losses. Aborts on divergence (`numcore.fit`)."""
    data = ds.stack("train")
    x = data["x"]
    cond = condition_columns(data["tau"], data["mu"], model.cond_components)
    n = x.shape[0]
    noise_rng = rng.stream("noise")
    step_rng = rng.stream("steps")
    order_rng = rng.stream("order")

    def batches(epoch):
        # Batch b draws its steps and noise from substream epoch * 100003 + b.
        return enumerate(shuffled_batches(order_rng, epoch, n, batch), start=epoch * 100003)

    def loss_and_grads(keyed):
        key, idx = keyed
        t = step_rng.substream(key).integers(1, sched.T + 1, size=idx.size)
        eps = noise_rng.substream(key).normal((idx.size, x.shape[1]))
        return model.loss_and_grads(x[idx], t, eps, cond[idx], sched)

    with model.net.reused_buffers():
        curve = fit(model.params, epochs, batches, loss_and_grads, lr, "diffusion")
    return model, curve


def strided_steps(T, steps):
    """Descending diffusion indices T - floor(k T / steps), k = 0..steps-1,
    spread evenly down to (not incl.) 0: every gap, the last one to 0
    included, is floor(T / steps) or one more. When steps divides T this is
    T, T-s, ..., s with stride s = T / steps."""
    if steps < 1 or steps > T:
        raise ConfigError(f"steps must lie in [1, {T}]", field="steps")
    return [T - k * T // steps for k in range(steps)]


def sample_step(z, eps, t_hi, t_lo, sched):
    """One deterministic DDIM transition t_hi -> t_lo (t_lo < t_hi)."""
    a_hi = sched.alpha_bar[t_hi]
    a_lo = sched.alpha_bar[t_lo]
    root = np.sqrt(a_hi)
    if root < 1e-150:
        raise NumericError(f"vanishing noise scale at step {t_hi}")
    x0_pred = (z - np.sqrt(1.0 - a_hi) * eps) / root
    return np.sqrt(a_lo) * x0_pred + np.sqrt(1.0 - a_lo) * eps


def invert_step(z, eps, t_lo, t_hi, sched):
    """One inverted DDIM transition t_lo -> t_hi (t_lo < t_hi)."""
    a_hi = sched.alpha_bar[t_hi]
    a_lo = sched.alpha_bar[t_lo]
    root = np.sqrt(a_lo)
    if root < 1e-150:
        raise NumericError(f"vanishing noise scale at step {t_lo}")
    return np.sqrt(a_hi) * (z - np.sqrt(1.0 - a_lo) * eps) / root + np.sqrt(1.0 - a_hi) * eps


def _ddim(model, z, cond, sched, transitions, step):
    """Carry (n, D) rows `z` through the DDIM `transitions`, one block of
    rows after another (see DDIM_BLOCK_ROWS), on one BLAS thread. Each
    (a, b) pair predicts the noise at step max(a, b) and moves the rows by
    step(z, eps, a, b, sched). A block's network input is built once, its
    condition features with it; each step rewrites its z columns and
    broadcasts one row of time features. Two or more blocks are spread
    over one lane per CPU this process may run on, at most one per block,
    each a run of consecutive blocks; a block's rows get the same bits in
    any lane. Each lane's input and work arrays are made here, before its
    thread starts. Without OpenBLAS thread control (numcore) every block
    runs in this thread, at the environment's BLAS thread count."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != model.state_dim:
        raise ShapeError(f"expected states (*, {model.state_dim}), got {z.shape}")
    n, D = z.shape
    cond = model.condition_rows(cond, n)
    t_rows = model.time_features([max(a, b) for a, b in transitions])
    c0 = D + model.N_TIME_FEATURES          # first condition-feature column
    n_blocks = max(1, n // DDIM_BLOCK_ROWS)
    bounds = [n * k // n_blocks for k in range(n_blocks + 1)]
    blocks = list(zip(bounds, bounds[1:]))
    rows = max(hi - lo for lo, hi in blocks)
    out = np.empty_like(z)

    def run(mine, x, work):
        with model.net.reused_buffers(work):
            for lo, hi in mine:
                xb = x[: hi - lo]
                xb[:, c0:] = condition_features(cond[lo:hi], model.N_COND_FEATURES)
                zb = z[lo:hi]
                for (a, b), t_row in zip(transitions, t_rows):
                    xb[:, :D] = zb
                    xb[:, D:c0] = t_row
                    zb = step(zb, model.net.forward(xb), a, b, sched)
                out[lo:hi] = zb

    serial = n_blocks == 1 or numcore._BLAS_THREADS is None
    n_lanes = 1 if serial else min(n_blocks, usable_cpus())
    cuts = [n_blocks * k // n_lanes for k in range(n_lanes + 1)]
    lanes = [functools.partial(run, blocks[a:b], np.empty((rows, model.net.dims[0])),
                               model.net.forward_buffers(rows))
             for a, b in zip(cuts, cuts[1:])]
    with one_blas_thread():
        in_lanes(lanes)
    return out


def ddim_sample(model, z, sched, steps, cond):
    """Run the DDIM recursion from the top noise level down to states;
    `z` is (n, D) and `cond` holds one row per state."""
    ts = strided_steps(sched.T, steps)
    return _ddim(model, z, cond, sched, list(zip(ts, ts[1:] + [0])), sample_step)


def ddim_invert(model, x, cond, sched, steps):
    """Map (n, D) states to their top-level feature latents."""
    ascending = [0] + strided_steps(sched.T, steps)[::-1]
    return _ddim(model, x, cond, sched, list(zip(ascending, ascending[1:])), invert_step)


def save_model(model, sched, path):
    meta = {
        "state_dim": model.state_dim,
        "T": model.T,
        "dims": model.net.dims,
        "cond_components": model.cond_components,
    }
    arrays = {"beta": sched.beta}
    arrays.update(model.net.params)
    binio.write_envelope(path, CHECKPOINT_MAGIC, meta, arrays)


def load_model(path):
    meta, arrays = binio.read_envelope(path, CHECKPOINT_MAGIC)
    beta = binio.checked_shape(arrays["beta"], (int(meta["T"]),), "array 'beta'")
    sched = NoiseSchedule(
        T=int(meta["T"]),
        beta=beta,
        alpha_bar=np.concatenate([[1.0], np.cumprod(1.0 - beta)]),
    )
    model = DenoiserModel(meta["state_dim"], meta["T"], hidden=tuple(meta["dims"][1:-1]),
                          cond_components=int(meta["cond_components"]),
                          stored=binio.stored(arrays))
    return model, sched

"""Conditional denoising diffusion on state vectors.

A dense noise predictor is trained on noised states (the data is
vector-valued, so no convolutional machinery is needed), then deterministic
DDIM recursions map states to feature latents and back. The cumulative
noise products use index 0..T with the t=0 boundary fixed at 1.
"""

from dataclasses import dataclass

import numpy as np

from . import binio
from .errors import ConfigError, NumericError, ShapeError
from .numcore import AdamState, Mlp, Rng, adam_step, sinusoidal_features

CHECKPOINT_MAGIC = b"DNZ1"


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
    predicts zero noise.
    """

    N_TIME_FEATURES = 32
    N_COND_FEATURES = 16  # per condition component

    def __init__(self, state_dim, T, hidden=(256, 256, 256, 256), rng=None,
                 cond_components=2):
        self.state_dim = int(state_dim)
        self.T = int(T)
        self.cond_components = int(cond_components)
        n_in = (
            self.state_dim
            + self.N_TIME_FEATURES
            + self.cond_components * self.N_COND_FEATURES
        )
        self.net = Mlp(
            [n_in, *hidden, self.state_dim],
            rng=rng if rng is not None else Rng(0).stream("denoiser-init"),
            zero_init_last=True,
        )

    @property
    def params(self):
        return self.net.params

    def features(self, z, t, cond):
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        n = z.shape[0]
        t_arr = np.broadcast_to(np.asarray(t, dtype=np.float64), (n,))
        cond = np.atleast_2d(np.asarray(cond, dtype=np.float64))
        if cond.shape[1] != self.cond_components:
            raise ShapeError(
                f"expected {self.cond_components} condition components, "
                f"got {cond.shape[1]}"
            )
        if cond.shape[0] == 1 and n > 1:
            cond = np.broadcast_to(cond, (n, cond.shape[1]))
        t_feat = sinusoidal_features(t_arr, self.N_TIME_FEATURES, 4.0, 4.0 * self.T)
        y_feat = np.concatenate(
            [
                sinusoidal_features(cond[:, j], self.N_COND_FEATURES, 0.25, 4.0)
                for j in range(cond.shape[1])
            ],
            axis=1,
        )
        return np.concatenate([z, t_feat, y_feat], axis=1)

    def predict(self, z, t, cond):
        single = np.ndim(z) == 1
        out = self.net.forward(self.features(z, t, cond))
        return out[0] if single else out

    def loss_and_grads(self, x0, t, eps, cond, sched):
        """Batch denoising loss (mean squared-norm) and parameter grads."""
        z_t = forward_noise(x0, t, eps, sched)
        out, cache = self.net.forward(self.features(z_t, t, cond), want_cache=True)
        resid = out - eps
        n = x0.shape[0]
        loss = float(np.sum(resid * resid) / n)
        grads, _ = self.net.backward(cache, 2.0 * resid / n)
        return loss, grads


def condition_columns(taus, mus, n_components):
    """Stack (tau, mu) columns down to the model's condition width."""
    cols = [np.asarray(taus, dtype=np.float64), np.asarray(mus, dtype=np.float64)]
    return np.stack(cols[:n_components], axis=1)


def train(model, ds, sched, epochs, batch, rng, lr=1e-3):
    """Minimize the denoising objective with Adam; returns per-epoch means."""
    data = ds.stack("train")
    x = data["x"]
    cond = condition_columns(data["tau"], data["mu"], model.cond_components)
    n = x.shape[0]
    if n == 0:
        raise ConfigError("training split is empty", field="dataset")
    state = AdamState(model.params, lr=lr)
    noise_rng = rng.stream("noise")
    step_rng = rng.stream("steps")
    order_rng = rng.stream("order")
    curve = []
    for epoch in range(epochs):
        perm = order_rng.substream(epoch).permutation(n)
        total = 0.0
        n_batches = 0
        for start in range(0, n, batch):
            idx = perm[start : start + batch]
            t = step_rng.substream(epoch * 100003 + n_batches).integers(
                1, sched.T + 1, size=idx.size
            )
            eps = noise_rng.substream(epoch * 100003 + n_batches).normal(
                (idx.size, x.shape[1])
            )
            loss, grads = model.loss_and_grads(x[idx], t, eps, cond[idx], sched)
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite diffusion loss at epoch {epoch}, batch {n_batches}"
                )
            adam_step(model.params, grads, state)
            total += loss
            n_batches += 1
        curve.append(total / max(n_batches, 1))
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


def ddim_sample(model, z, sched, steps, cond=None):
    """Run the DDIM recursion from the top noise level down to a state;
    `z` has shape (D,) or (n, D), `cond` one row per state or one shared."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64)).copy()
    ts = strided_steps(sched.T, steps)
    for t_hi, t_lo in zip(ts, ts[1:] + [0]):
        eps = model.predict(z, t_hi, cond)
        z = sample_step(z, eps, t_hi, t_lo, sched)
    return z[0] if z.shape[0] == 1 and np.ndim(cond) <= 1 else z


def ddim_invert(model, x, cond, sched, steps):
    """Map a state (batch) to its top-level feature latent."""
    cond = np.asarray(cond, dtype=np.float64)
    single = np.ndim(x) == 1
    z = np.atleast_2d(np.asarray(x, dtype=np.float64)).copy()
    ts = strided_steps(sched.T, steps)
    ascending = [0] + ts[::-1]
    for t_lo, t_hi in zip(ascending, ascending[1:]):
        eps = model.predict(z, t_hi, cond)
        z = invert_step(z, eps, t_lo, t_hi, sched)
    return z[0] if single else z


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
    beta = arrays.pop("beta")
    sched = NoiseSchedule(
        T=int(meta["T"]),
        beta=beta,
        alpha_bar=np.concatenate([[1.0], np.cumprod(1.0 - beta)]),
    )
    hidden = tuple(meta["dims"][1:-1])
    model = DenoiserModel(meta["state_dim"], meta["T"], hidden=hidden,
                          cond_components=int(meta.get("cond_components", 2)))
    for key in model.net.params:
        model.net.params[key] = arrays[key]
    return model, sched

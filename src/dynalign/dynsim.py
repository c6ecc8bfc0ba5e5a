"""Synthetic labeled trajectories and the analytic image renderer.

The generator produces a damped/periodic planar oscillator embedded into
R^D through a fixed orthonormal map plus a small smooth nonlinearity, so
trajectories are genuinely curved in state space. Low regime parameters
decay ("steady", class 0); high ones stay periodic ("unsteady", class 1).
"""

from dataclasses import dataclass

import numpy as np

from . import binio
from .errors import ConfigError, InputError, NumericError
from .numcore import Rng, split_count

DATASET_MAGIC = b"DYN1"


class OscillatorMap:
    """Fixed seeded embedding R^2 -> R^D and its iterative inverse."""

    def __init__(self, q, u, amp):
        self.q = np.asarray(q, dtype=np.float64)
        self.u = np.asarray(u, dtype=np.float64)
        self.amp = float(amp)

    def embed(self, s):
        s = np.atleast_2d(np.asarray(s, dtype=np.float64))
        return s @ self.q.T + self.amp * np.tanh(s @ self.u.T)

    def invert(self, x):
        """Recover the latent coordinates of (n, D) states; the map is a
        contraction, so the fixed-point iteration converges geometrically (100
        steps at most). Each row stops once its own step falls below 1e-14,
        so a row takes the same steps in any batch that carries it."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        s = x @ self.q
        active = np.arange(s.shape[0])
        for _ in range(100):
            s_prev = s[active]
            s_next = (x[active] - self.amp * np.tanh(s_prev @ self.u.T)) @ self.q
            s[active] = s_next
            active = active[np.max(np.abs(s_next - s_prev), axis=1) >= 1e-14]
            if active.size == 0:
                break
        return s


@dataclass
class Dataset:
    """A trajectory set as columns: per-frame arrays (n_traj, S, ...) and
    per-trajectory arrays (n_traj,), the layout the dataset file stores."""

    xs: np.ndarray                  # (n, S, D) embedded states
    ss: np.ndarray                  # (n, S, 2) latent oscillator states
    taus: np.ndarray                # (n, S) phase times in [0, 1]
    alphas: np.ndarray              # (n, S) ordering parameter, i/(S-1)
    mus: np.ndarray                 # (n,) regime parameters
    zetas: np.ndarray               # (n,) damping rates
    labels: np.ndarray              # (n,) int64 class labels
    splits: list                    # per-trajectory "train" / "test"
    mapping: OscillatorMap
    mu_threshold: float
    center: tuple = (0.0, 0.0)      # latent fixed point the cycles orbit

    @property
    def state_dim(self):
        return self.xs.shape[2]

    def indices(self, split):
        """Indices of a split's trajectories; all of them when split is None."""
        return [i for i, s in enumerate(self.splits) if split is None or s == split]

    def stack(self, split, **per_traj):
        """Flatten a split (every trajectory when None) into aligned per-frame
        columns x, tau and mu, plus each (n_traj, S, ...) array passed by
        name."""
        idx = self.indices(split)
        if not idx:
            raise InputError(f"no trajectories in split {split!r}")
        cols = dict(per_traj, x=self.xs, tau=self.taus,
                    mu=np.broadcast_to(self.mus[:, None], self.taus.shape))
        return {name: col[idx].reshape(-1, *col.shape[2:]) for name, col in cols.items()}


def class_from_mu(mu, mu_threshold):
    """Deterministic regime label: periodic (1) at or above the threshold."""
    return int(np.asarray(mu) >= mu_threshold)


def generate_oscillator(
    n_traj,
    frames_per_traj,
    mu_range,
    D=12,
    seed=0,
    test_fraction=1.0 / 6.0,
    t_max=0.75,
    nonlin_amp=0.1,
    zeta_max=0.8,
):
    """Generate a blocked-split Dataset of oscillator trajectories.

    The planar cycle orbits a seeded off-origin fixed point (the mean state
    a decaying regime relaxes toward), so the embedded trajectories do not
    sit on a sphere around the state-space origin. The default window
    observes three quarters of a turn: an open arc keeps phase time
    identifiable from the state, while t_max=1.0 yields one exact period.
    """
    if n_traj < 2:
        raise ConfigError("need at least 2 trajectories", field="n_traj")
    if frames_per_traj < 8:
        raise ConfigError("need at least 8 frames per trajectory", field="frames_per_traj")
    lo, hi = float(mu_range[0]), float(mu_range[1])
    if hi < lo:
        raise ConfigError(f"empty interval [{lo}, {hi}]", field="mu_range")
    if D < 2:
        raise ConfigError("state dimension must be at least 2", field="D")

    rng = Rng(seed).stream("dynsim")
    q, _ = np.linalg.qr(rng.stream("embed-q").normal((D, 2)))
    u = rng.stream("embed-u").normal((D, 2))
    u *= 2.5 / np.linalg.svd(u, compute_uv=False)[0]
    mapping = OscillatorMap(q, u, nonlin_amp)
    center = 0.6 * rng.stream("center").normal(2)
    mu_threshold = 0.5 * (lo + hi)
    S = int(frames_per_traj)
    taus = np.linspace(0.0, 1.0, S)
    alphas = np.arange(S, dtype=np.float64) / (S - 1)

    omega = 2.0 * np.pi
    rows = []
    for i in range(n_traj):
        sub = rng.stream("traj").substream(i)
        mu = lo + (hi - lo) * sub.uniform()
        u = 0.0 if hi == lo else (mu - lo) / (hi - lo)
        label = class_from_mu(mu, mu_threshold)
        if label == 1:
            zeta = 0.0
        else:
            zeta = zeta_max * (mu_threshold - mu) / max(mu_threshold - lo, 1e-300)
        t = taus * t_max
        # The regime parameter sets the orbit radius; phase time sets the
        # angle. Keeping the factors geometrically separate is what lets a
        # good embedding disentangle them. A phase that overflows leaves
        # non-finite states, rejected here.
        with np.errstate(over="ignore", invalid="ignore"):
            radius = (1.0 + 0.25 * u) * np.exp(-zeta * t)
            ss = center + np.stack(
                [radius * np.cos(omega * t), radius * np.sin(omega * t)], axis=1
            )
        if not np.all(np.isfinite(ss)):
            raise NumericError(f"trajectory {i} has non-finite states (t_max {t_max:g})")
        # One embed call per trajectory: BLAS rows depend on their batch.
        rows.append((mapping.embed(ss), ss, mu, zeta, label))

    xs, ss_all, mus, zetas, labels = zip(*rows)
    n_test = split_count(n_traj, test_fraction)
    order = rng.stream("split").permutation(n_traj)
    splits = ["train"] * n_traj
    for j in order[:n_test]:
        splits[j] = "test"
    return Dataset(
        xs=np.stack(xs),
        ss=np.stack(ss_all),
        taus=np.tile(taus, (n_traj, 1)),
        alphas=np.tile(alphas, (n_traj, 1)),
        mus=np.array(mus, dtype=np.float64),
        zetas=np.array(zetas, dtype=np.float64),
        labels=np.array(labels, dtype=np.int64),
        splits=splits,
        mapping=mapping,
        mu_threshold=float(mu_threshold),
        center=(float(center[0]), float(center[1])),
    )


# Renderer geometry: two isotropic bumps; amplitudes are linear in the
# recovered latent coordinates (zero state -> uniform zero image) and each
# bump's center moves along a diagonal driven by the other coordinate.
_CENTER_GAIN = 0.55


def render(x, grid, mapping):
    """Deterministic analytic grayscale field for each state, in [0, 1]:
    (grid, grid) for a (D,) state, (..., grid, grid) for (..., D) states."""
    if grid < 8:
        raise InputError("render grid must be at least 8")
    x = np.asarray(x, dtype=np.float64)
    s = mapping.invert(x.reshape(-1, x.shape[-1]))
    return render_latent(s.reshape(*x.shape[:-1], 2), grid)


def render_latent(s, grid):
    """The field of latent states `s` (..., 2); (..., grid, grid)."""
    s = np.asarray(s, dtype=np.float64)
    s1, s2 = s[..., 0, None, None], s[..., 1, None, None]
    ctr = (grid - 1) / 2.0
    sigma = grid / 7.0
    c1 = (ctr * (1.0 + _CENTER_GAIN * s2), ctr * (1.0 - _CENTER_GAIN * s2))
    c2 = (ctr * (1.0 - _CENTER_GAIN * s1), ctr * (1.0 + _CENTER_GAIN * s1))
    rows = np.arange(grid, dtype=np.float64)[:, None]
    cols = np.arange(grid, dtype=np.float64)[None, :]
    bump1 = np.exp(-((rows - c1[0]) ** 2 + (cols - c1[1]) ** 2) / (2.0 * sigma**2))
    bump2 = np.exp(-((rows - c2[0]) ** 2 + (cols - c2[1]) ** 2) / (2.0 * sigma**2))
    # Magnitude of the signed field: negative-quadrant states render as
    # bright bumps too, so no seeded orbit placement can go all-dark.
    return np.clip(np.abs(s1 * bump1 + s2 * bump2), 0.0, 1.0)


def save_dataset(ds, path):
    meta = {
        "mu_threshold": ds.mu_threshold,
        "center": list(ds.center),
        "amp": ds.mapping.amp,
        "splits": ds.splits,
        "labels": ds.labels.tolist(),
    }
    arrays = {"q": ds.mapping.q, "u": ds.mapping.u, "mus": ds.mus, "zetas": ds.zetas,
              "xs": ds.xs, "ss": ds.ss, "taus": ds.taus, "alphas": ds.alphas}
    binio.write_envelope(path, DATASET_MAGIC, meta, arrays)


def load_dataset(path):
    meta, arr = binio.read_envelope(path, DATASET_MAGIC)
    return Dataset(
        xs=arr["xs"], ss=arr["ss"], taus=arr["taus"], alphas=arr["alphas"],
        mus=arr["mus"], zetas=arr["zetas"],
        labels=np.array(meta["labels"], dtype=np.int64),
        splits=list(meta["splits"]),
        mapping=OscillatorMap(arr["q"], arr["u"], meta["amp"]),
        mu_threshold=float(meta["mu_threshold"]),
        center=tuple(meta["center"]),
    )

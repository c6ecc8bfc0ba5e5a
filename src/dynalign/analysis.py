"""Downstream analysis: PCA baseline, hinge-loss SVMs, KDE class traversal,
and the regression-orthogonality probe."""

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, InputError


# ---------------------------------------------------------------------------
# PCA


@dataclass
class PcaModel:
    mean: np.ndarray
    components: np.ndarray   # (D, d), orthonormal columns
    variances: np.ndarray    # (d,), descending


def fit_pca(data, d):
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    if n <= d:
        raise InputError(f"need more than {d} samples, got {n}")
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / (n - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:d]
    variances = np.maximum(evals[order], 0.0)
    if np.any(variances <= 1e-15):
        warnings.warn("trailing principal components have zero variance")
    return PcaModel(mean=mean, components=evecs[:, order], variances=variances)


def pca_project(model, data):
    return (np.asarray(data, dtype=np.float64) - model.mean) @ model.components


# ---------------------------------------------------------------------------
# SVM via stochastic subgradient on the hinge objective


@dataclass
class SvmConfig:
    kernel: str = "rbf"            # "linear" | "rbf"
    lam: float = 1e-3
    steps: int = 100_000
    gamma: Optional[float] = None  # rbf width; None -> 1 / (d * var)
    max_points: int = 2000         # training subsample cap (keeps the Gram small)


@dataclass
class SvmModel:
    kernel: str
    lam: float
    w: Optional[np.ndarray] = None        # (d+1,) augmented primal weights (linear)
    coefs: Optional[np.ndarray] = None    # (m,) support coefficients (rbf)
    points: Optional[np.ndarray] = None   # (m, d) stored training points (rbf)
    gamma: float = 1.0


def _as_signed(labels):
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if classes.size != 2:
        raise InputError(f"need exactly 2 classes, got {classes.size}")
    return np.where(labels == classes.max(), 1.0, -1.0)


def _stratified_cap(y, cap, rng):
    n = y.size
    if n <= cap:
        return np.arange(n)
    picked = []
    for cls in (-1.0, 1.0):
        idx = np.flatnonzero(y == cls)
        take = max(1, int(round(cap * idx.size / n)))
        picked.append(idx[np.sort(rng.choice(idx.size, size=min(take, idx.size)))])
    return np.sort(np.concatenate(picked))


def train_svm(points, labels, config, rng):
    """Pegasos-style stochastic subgradient training, deterministic under seed."""
    x = np.asarray(points, dtype=np.float64)
    y = _as_signed(labels)
    keep = _stratified_cap(y, config.max_points, rng.stream("subsample"))
    x, y = x[keep], y[keep]
    n, d = x.shape
    lam = float(config.lam)
    pick = rng.stream("pegasos").integers(0, n, size=config.steps)

    if config.kernel == "linear":
        xa = np.concatenate([x, np.ones((n, 1))], axis=1)
        w = np.zeros(d + 1)
        for t, i in enumerate(pick, start=1):
            eta = 1.0 / (lam * t)
            w *= 1.0 - eta * lam
            if y[i] * (xa[i] @ w) < 1.0:
                w += eta * y[i] * xa[i]
        return SvmModel(kernel="linear", lam=lam, w=w)

    if config.kernel != "rbf":
        raise ConfigError(f"unknown kernel {config.kernel!r}", field="svm.kernel")
    gamma = config.gamma
    if gamma is None:
        var = float(x.var())
        gamma = 1.0 / (d * var) if var > 0.0 else 1.0
    sq = np.sum(x * x, axis=1)
    gram = np.exp(-gamma * np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0))
    alpha = np.zeros(n)
    ay = np.zeros(n)  # running alpha * y, so each step is one dot product
    for t, i in enumerate(pick, start=1):
        if y[i] * (gram[i] @ ay) / (lam * t) < 1.0:
            alpha[i] += 1.0
            ay[i] += y[i]
    coefs = ay / (lam * config.steps)
    return SvmModel(kernel="rbf", lam=lam, coefs=coefs, points=x, gamma=float(gamma))


def svm_decision(model, points):
    x = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if model.kernel == "linear":
        xa = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
        return xa @ model.w
    sq_x = np.sum(x * x, axis=1)
    sq_p = np.sum(model.points * model.points, axis=1)
    k = np.exp(
        -model.gamma
        * np.maximum(sq_x[:, None] + sq_p[None, :] - 2.0 * (x @ model.points.T), 0.0)
    )
    return k @ model.coefs


def _midranks(values):
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def roc_auc(labels, scores):
    """Rank-statistic AUC with midrank tie handling."""
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=np.float64)
    pos = y == y.max()
    n_pos = int(np.sum(pos))
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise InputError("AUC needs both classes present")
    ranks = _midranks(s)
    return float((np.sum(ranks[pos]) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def f1_score(labels, predicted):
    y = np.asarray(labels)
    p = np.asarray(predicted)
    tp = float(np.sum((p == 1) & (y == 1)))
    fp = float(np.sum((p == 1) & (y == 0)))
    fn = float(np.sum((p == 0) & (y == 1)))
    denom = 2.0 * tp + fp + fn
    return 2.0 * tp / denom if denom > 0.0 else 0.0


def svm_score(labels, decision):
    """Accuracy, F1 and ROC-AUC of SVM decision values; the larger label is
    the positive class, and a positive decision predicts it."""
    y = (np.asarray(labels) == np.max(labels)).astype(np.int64)
    predicted = (np.asarray(decision) > 0.0).astype(np.int64)
    return {
        "accuracy": float(np.mean(predicted == y)),
        "f1": f1_score(y, predicted),
        "auc": roc_auc(y, decision),
    }


# ---------------------------------------------------------------------------
# KDE class densities and peak-to-peak traversal


@dataclass
class KdeModel:
    h: float
    axes: list                     # per-dimension grid node arrays
    f0: np.ndarray                 # flattened class-0 density
    f1: np.ndarray
    delta: np.ndarray              # f1 - f0, flattened
    grid_shape: tuple
    m_class0: np.ndarray
    m_class1: np.ndarray
    degenerate: bool


def _scott_bandwidth(points):
    n, d = points.shape
    sigma = float(np.mean(np.std(points, axis=0)))
    return max(sigma, 1e-12) * n ** (-1.0 / (d + 4))


def _grid_axes(points, h, nodes):
    lo = points.min(axis=0) - 2.0 * h
    hi = points.max(axis=0) + 2.0 * h
    return [np.linspace(lo[j], hi[j], nodes) for j in range(points.shape[1])]


def _density_on_grid(mesh, samples, h, max_samples=512):
    if samples.shape[0] > max_samples:
        stride = int(np.ceil(samples.shape[0] / max_samples))
        samples = samples[::stride]
    n, d = samples.shape
    norm = n * (h**d) * (2.0 * np.pi) ** (d / 2.0)
    out = np.zeros(mesh.shape[0])
    chunk = max(1, int(4e6 // max(n, 1)))
    for start in range(0, mesh.shape[0], chunk):
        block = mesh[start : start + chunk]
        d2 = np.sum((block[:, None, :] - samples[None, :, :]) ** 2, axis=2)
        out[start : start + chunk] = np.exp(-d2 / (2.0 * h * h)).sum(axis=1)
    return out / norm


def kde_fit(class0, class1, h=None, nodes=None):
    """Class-conditional gaussian KDEs on a shared regular grid.

    The grid covers both point sets with a 2h margin; requesting node
    spacing coarser than h is a configuration error. Peaks are grid argmax
    of the density difference in each direction.
    """
    c0 = np.atleast_2d(np.asarray(class0, dtype=np.float64))
    c1 = np.atleast_2d(np.asarray(class1, dtype=np.float64))
    if c0.shape[0] == 0 or c1.shape[0] == 0:
        raise InputError("both classes must be nonempty")
    if c0.shape[1] != c1.shape[1]:
        raise InputError("class dimensions disagree")
    d = c0.shape[1]
    if d > 3:
        raise ConfigError("KDE grids support at most 3 dimensions", field="kde.d")
    pooled = np.concatenate([c0, c1])
    if h is None:
        h = _scott_bandwidth(pooled)
    h = float(h)
    if nodes is None:
        span = float(np.max(pooled.max(axis=0) - pooled.min(axis=0))) + 4.0 * h
        nodes = int(np.clip(np.ceil(span / (0.8 * h)) + 1, 9, 61 if d == 3 else 121))
    axes = _grid_axes(pooled, h, nodes)
    spacing = max(float(ax[1] - ax[0]) for ax in axes)
    if spacing > h:
        raise ConfigError(
            f"grid spacing {spacing:.4g} exceeds bandwidth {h:.4g}", field="kde.nodes"
        )
    mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    f0 = _density_on_grid(mesh, c0, h)
    f1 = _density_on_grid(mesh, c1, h)
    delta = f1 - f0
    scale = max(float(f0.max()), float(f1.max()), 1e-300)
    degenerate = float(np.max(np.abs(delta))) <= 1e-6 * scale
    m0 = mesh[int(np.argmax(-delta))]
    m1 = mesh[int(np.argmax(delta))]
    return KdeModel(
        h=h, axes=axes, f0=f0, f1=f1, delta=delta,
        grid_shape=tuple(len(ax) for ax in axes),
        m_class0=m0, m_class1=m1, degenerate=degenerate,
    )


def kde_traverse(model, eta):
    """Point on the segment between the class peaks, eta in [0, 1]."""
    if not 0.0 <= eta <= 1.0:
        raise InputError("traversal parameter must lie in [0, 1]")
    if model.degenerate:
        raise InputError("class densities are indistinguishable; peaks degenerate")
    return model.m_class0 + eta * (model.m_class1 - model.m_class0)


# ---------------------------------------------------------------------------
# Regression-orthogonality probe


def orthogonality_probe(embeddings, taus, mus):
    """|cos| between the OLS coefficient vectors predicting tau and mu."""
    c = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    taus = np.asarray(taus, dtype=np.float64)
    mus = np.asarray(mus, dtype=np.float64)
    n, d = c.shape
    if n < d + 2:
        raise InputError(f"need at least {d + 2} samples, got {n}")
    if np.ptp(taus) == 0.0:
        raise InputError("tau values are constant; regression undefined")
    if np.ptp(mus) == 0.0:
        raise InputError("mu values are constant; regression undefined")
    design = np.concatenate([np.ones((n, 1)), c], axis=1)
    gram = design.T @ design
    rank = np.linalg.matrix_rank(design)
    if rank < d + 1:
        warnings.warn("singular design matrix; applying ridge 1e-8")
        gram = gram + 1e-8 * np.eye(d + 1)
    rhs = design.T @ np.stack([taus, mus], axis=1)
    beta = np.linalg.solve(gram, rhs)
    b_tau, b_mu = beta[1:, 0], beta[1:, 1]
    denom = np.linalg.norm(b_tau) * np.linalg.norm(b_mu)
    if denom == 0.0:
        return 0.0
    return float(abs(np.dot(b_tau, b_mu)) / denom)

"""Evaluation metrics: RMSE, PSNR, SSIM, total absolute error, and
Procrustes shape disparity."""

import numpy as np

from .errors import InputError

PSNR_CAP_DB = 100.0


def _aligned(pred, truth):
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    if p.shape != t.shape:
        raise InputError(f"shape mismatch {p.shape} vs {t.shape}")
    if p.size == 0:
        raise InputError("empty input")
    return p, t


def rmse(pred, truth):
    """Root mean squared error over all scalar entries."""
    p, t = _aligned(pred, truth)
    return float(np.sqrt(np.mean((p - t) ** 2)))


def psnr(a, b, max_value=1.0):
    """Peak signal-to-noise ratio in dB, capped at 100."""
    if max_value <= 0.0:
        raise InputError("max_value must be positive")
    p, t = _aligned(a, b)
    mse = float(np.mean((p - t) ** 2))
    if mse < 1e-10:
        return PSNR_CAP_DB
    return float(min(10.0 * np.log10(max_value**2 / mse), PSNR_CAP_DB))


def _window_sums(img, w):
    # Sliding-window sums via 2-D cumulative sums (stride 1), written into
    # a zero-bordered table so that c[i, j] sums img[:i, :j].
    h, wd = img.shape
    c = np.zeros((h + 1, wd + 1))
    np.cumsum(img, axis=0, out=c[1:, 1:])
    np.cumsum(c[1:, 1:], axis=1, out=c[1:, 1:])
    return c[w:, w:] - c[:-w, w:] - c[w:, :-w] + c[:-w, :-w]


def ssim(a, b, dynamic_range=1.0, window=8):
    """Mean structural similarity over uniform stride-1 windows."""
    p, t = _aligned(a, b)
    if p.ndim != 2:
        raise InputError("ssim expects 2-D images")
    if p.shape[0] < window or p.shape[1] < window:
        raise InputError(f"image smaller than the {window}x{window} window")
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2
    n = float(window * window)
    mu_a = _window_sums(p, window) / n
    mu_b = _window_sums(t, window) / n
    var_a = _window_sums(p * p, window) / n - mu_a**2
    var_b = _window_sums(t * t, window) / n - mu_b**2
    cov = _window_sums(p * t, window) / n - mu_a * mu_b
    score = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)) / (
        (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    )
    return float(np.mean(score))


def total_abs_error(pred_trajs, truth_trajs):
    """Per-trajectory sum of absolute errors, plus mean/std across them.

    Each trajectory's rows (frames) are summed first, then the row totals.
    The std is the population value (ddof=0), matching mean/std summaries
    over a fixed trajectory set.
    """
    if len(pred_trajs) != len(truth_trajs) or len(pred_trajs) == 0:
        raise InputError("trajectory lists must be nonempty and aligned")
    taes = []
    for p, t in zip(pred_trajs, truth_trajs):
        p, t = _aligned(p, t)
        taes.append(float(np.sum(np.sum(np.abs(p - t), axis=-1))))
    taes = np.array(taes)
    return taes, float(np.mean(taes)), float(np.std(taes))


def procrustes_distance(shape_a, shape_b):
    """Shape disparity after translation, uniform scaling, and rotation.

    Both point sets are centered and scaled to unit Frobenius norm; the
    optimal rotation (reflections excluded) comes from the SVD of the
    cross-covariance. Result lies in [0, 1].
    """
    a = np.asarray(shape_a, dtype=np.float64)
    b = np.asarray(shape_b, dtype=np.float64)
    if a.shape != b.shape:
        raise InputError(f"point sets differ in shape: {a.shape} vs {b.shape}")
    if a.ndim != 2 or a.shape[0] < 2:
        raise InputError("need at least 2 points of equal dimension")
    a = a - a.mean(axis=0)
    b = b - b.mean(axis=0)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise InputError("zero-variance point set")
    a /= na
    b /= nb
    u, sv, vt = np.linalg.svd(b.T @ a)
    # Exclude reflections: force a proper rotation.
    det = np.linalg.det(u @ vt)
    if det < 0.0:
        sv = sv.copy()
        sv[-1] = -sv[-1]
    scale = max(float(np.sum(sv)), 0.0)
    return float(max(1.0 - scale**2, 0.0))

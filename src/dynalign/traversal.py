"""Editing operators on trajectories: smoothing splines, Taylor extrapolation,
linear/spherical interpolation, and a small gated recurrent predictor.

All operators are dimension-generic; they run unchanged on feature latents
and on compact embeddings.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .numcore import Rng, fit, shuffled_batches


# ---------------------------------------------------------------------------
# Natural cubic smoothing splines (per-coordinate curvature-penalized fit)


@dataclass
class SplineCurve:
    knots: np.ndarray          # (n,) strictly increasing parameters
    values: np.ndarray         # (n, dim) fitted knot values
    second_derivs: np.ndarray  # (n, dim), zero in the first/last row
    lam: float

    def evaluate(self, alpha):
        """Evaluate the curve; outside the domain the boundary-interval
        cubic is continued (C^2 extension)."""
        alphas = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
        t = self.knots
        seg = np.clip(np.searchsorted(t, alphas, side="right") - 1, 0, t.size - 2)
        h = (t[seg + 1] - t[seg])[:, None]
        lo = (t[seg + 1] - alphas)[:, None]
        hi = (alphas - t[seg])[:, None]
        a0 = self.values[seg]
        a1 = self.values[seg + 1]
        g0 = self.second_derivs[seg]
        g1 = self.second_derivs[seg + 1]
        out = (
            a0 * lo / h
            + a1 * hi / h
            + (lo**3 / h - h * lo) * g0 / 6.0
            + (hi**3 / h - h * hi) * g1 / 6.0
        )
        return out[0] if np.ndim(alpha) == 0 else out


def _difference_operators(knots):
    n = knots.size
    h = np.diff(knots)
    q = np.zeros((n, n - 2))
    r = np.zeros((n - 2, n - 2))
    for k in range(n - 2):
        q[k, k] = 1.0 / h[k]
        q[k + 1, k] = -1.0 / h[k] - 1.0 / h[k + 1]
        q[k + 2, k] = 1.0 / h[k + 1]
        r[k, k] = (h[k] + h[k + 1]) / 3.0
        if k + 1 < n - 2:
            r[k, k + 1] = h[k + 1] / 6.0
            r[k + 1, k] = h[k + 1] / 6.0
    return q, r


def fit_spline(alphas, points, lam):
    """Fit per-coordinate natural cubic smoothing splines.

    Minimizes squared residuals plus lam times integrated squared curvature;
    lam=0 gives the interpolating natural spline.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    if alphas.size < 4:
        raise InputError("need at least 4 points to fit a spline")
    if np.any(np.diff(alphas) <= 0.0):
        raise InputError("knot parameters must be strictly increasing (no duplicates)")
    if lam < 0.0:
        raise InputError("smoothing weight must be nonnegative")
    q, r = _difference_operators(alphas)
    gamma_inner = np.linalg.solve(r + lam * (q.T @ q), q.T @ points)
    values = points - lam * (q @ gamma_inner)
    second = np.zeros_like(values)
    second[1:-1] = gamma_inner
    return SplineCurve(knots=alphas.copy(), values=values, second_derivs=second, lam=float(lam))


def spline_traverse(curve, alpha_s, delta_alpha):
    """Move along the fitted curve by a phase increment.

    Queries outside the fitted interval continue the boundary cubic.
    """
    return curve.evaluate(alpha_s + delta_alpha)


# ---------------------------------------------------------------------------
# Taylor extrapolation from finite-difference stencils


@dataclass
class TexStencil:
    points: np.ndarray    # (m, dim) consecutive samples; the last is the expansion point
    spacing: float
    cdot: np.ndarray      # first-derivative estimate at the last point
    cddot: np.ndarray     # second-derivative estimate at the last point


def stencil_from_window(points, spacing):
    """Estimate derivatives at the last point of a uniform window from the
    one-sided (trailing) 3-point stencil."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    if points.shape[0] < 3:
        raise InputError("window needs at least 3 points")
    if spacing <= 0.0:
        raise InputError("window spacing must be positive")
    d = float(spacing)
    cdot = (3.0 * points[-1] - 4.0 * points[-2] + points[-3]) / (2.0 * d)
    cddot = (points[-1] - 2.0 * points[-2] + points[-3]) / d**2
    return TexStencil(points=points, spacing=d, cdot=cdot, cddot=cddot)


def tex_extrapolate(window, order):
    """Taylor step of one spacing past the window's last point."""
    if order not in (1, 2):
        raise InputError("order must be 1 or 2")
    ds = window.spacing
    out = window.points[-1] + window.cdot * ds
    if order == 2:
        out = out + 0.5 * window.cddot * ds**2
    return out


# ---------------------------------------------------------------------------
# Linear and spherical interpolation


def lerp(c_a, c_b, t):
    if not 0.0 <= t <= 1.0:
        raise InputError("interpolation parameter must lie in [0, 1]")
    a = np.asarray(c_a, dtype=np.float64)
    b = np.asarray(c_b, dtype=np.float64)
    return (1.0 - t) * a + t * b


def slerp(c_a, c_b, t):
    """Great-circle interpolation with linearly interpolated radius."""
    if not 0.0 <= t <= 1.0:
        raise InputError("interpolation parameter must lie in [0, 1]")
    a = np.asarray(c_a, dtype=np.float64)
    b = np.asarray(c_b, dtype=np.float64)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise InputError("slerp endpoints must be nonzero")
    ua, ub = a / na, b / nb
    cosang = np.clip(np.dot(ua, ub), -1.0, 1.0)
    theta = np.arccos(cosang)
    if theta < 1e-6:
        return lerp(a, b, t)
    if theta > np.pi - 1e-6:
        raise InputError("antiparallel endpoints: the shortest arc is ambiguous")
    radius = (1.0 - t) * na + t * nb
    direction = (np.sin((1.0 - t) * theta) * ua + np.sin(t * theta) * ub) / np.sin(theta)
    return radius * direction


# ---------------------------------------------------------------------------
# Minimal gated recurrent predictor (the sequence-model baseline)


class RecurrentPredictor:
    """Single minimal-gated-unit cell with a linear readout.

    Trained one-step-ahead with teacher forcing; rollout feeds predictions
    back autoregressively.
    """

    def __init__(self, dim, hidden=64, rng=None):
        self.dim = int(dim)
        self.hidden = int(hidden)
        if rng is None:
            rng = Rng(0).stream("recurrent-init")
        cat = self.dim + self.hidden
        scale = 1.0 / np.sqrt(cat)
        self.params = {
            "wf": rng.normal((cat, self.hidden)) * scale,
            "bf": np.zeros(self.hidden),
            "wh": rng.normal((cat, self.hidden)) * scale,
            "bh": np.zeros(self.hidden),
            "wo": rng.normal((self.hidden, self.dim)) / np.sqrt(self.hidden),
            "bo": np.zeros(self.dim),
        }

    def _cell(self, x, h):
        p = self.params
        cat_f = np.concatenate([x, h], axis=1)
        with np.errstate(over="ignore"):    # exp(-z) = inf is the exact gate 0
            f = 1.0 / (1.0 + np.exp(-(cat_f @ p["wf"] + p["bf"])))
        cat_h = np.concatenate([x, f * h], axis=1)
        g = np.tanh(cat_h @ p["wh"] + p["bh"])
        h_new = (1.0 - f) * h + f * g
        return h_new, (x, h, f, g, cat_f, cat_h)

    def loss_and_grads(self, batch):
        """One-step-ahead MSE over a (n, S, dim) batch, with BPTT grads."""
        batch = np.asarray(batch, dtype=np.float64)
        n, S, dim = batch.shape
        if S < 3:
            raise InputError("sequences must have length >= 3")
        p = self.params
        h = np.zeros((n, self.hidden))
        caches, preds = [], []
        for t in range(S - 1):
            h, cache = self._cell(batch[:, t], h)
            caches.append(cache)
            preds.append(h @ p["wo"] + p["bo"])
        preds = np.stack(preds, axis=1)
        resid = preds - batch[:, 1:]
        norm = n * (S - 1) * dim
        loss = float(np.sum(resid * resid) / norm)

        grads = {k: np.zeros_like(v) for k, v in p.items()}
        dh_next = np.zeros((n, self.hidden))
        for t in range(S - 2, -1, -1):
            x, h_prev, f, g, cat_f, cat_h = caches[t]
            h_t = (1.0 - f) * h_prev + f * g
            dy = 2.0 * resid[:, t] / norm
            grads["wo"] += h_t.T @ dy
            grads["bo"] += dy.sum(axis=0)
            dh = dy @ p["wo"].T + dh_next
            dg = dh * f
            dzh = dg * (1.0 - g * g)
            grads["wh"] += cat_h.T @ dzh
            grads["bh"] += dzh.sum(axis=0)
            dcat_h = dzh @ p["wh"].T
            dfh = dcat_h[:, self.dim :]
            df = dh * (g - h_prev) + dfh * h_prev
            dh_prev = dh * (1.0 - f) + dfh * f
            dzf = df * f * (1.0 - f)
            grads["wf"] += cat_f.T @ dzf
            grads["bf"] += dzf.sum(axis=0)
            dh_prev += (dzf @ p["wf"].T)[:, self.dim :]
            dh_next = dh_prev
        return loss, grads

    def rollout(self, context, n_steps):
        """Warm up on the context frames, then predict autoregressively."""
        context = np.atleast_2d(np.asarray(context, dtype=np.float64))
        h = np.zeros((1, self.hidden))
        for t in range(context.shape[0]):
            h, _ = self._cell(context[t : t + 1], h)
        out = []
        p = self.params
        for _ in range(n_steps):
            pred = h @ p["wo"] + p["bo"]
            out.append(pred[0])
            h, _ = self._cell(pred, h)
        return np.stack(out)


def train_recurrent(pred, sequences, epochs, rng, lr=1e-3, batch=16):
    """Teacher-forced MSE training; returns the predictor and its per-epoch
    mean losses. Aborts on divergence (`numcore.fit`)."""
    data = np.stack([np.asarray(s, dtype=np.float64) for s in sequences])
    order_rng = rng.stream("order")
    curve = fit(pred.params, epochs,
                lambda epoch: shuffled_batches(order_rng, epoch, data.shape[0], batch),
                lambda idx: pred.loss_and_grads(data[idx]), lr, "recurrent")
    return pred, curve

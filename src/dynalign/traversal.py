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
    k = np.arange(n - 2)
    q = np.zeros((n, n - 2))
    r = np.zeros((n - 2, n - 2))
    q[k, k] = 1.0 / h[:-1]
    q[k + 1, k] = -1.0 / h[:-1] - 1.0 / h[1:]
    q[k + 2, k] = 1.0 / h[1:]
    r[k, k] = (h[:-1] + h[1:]) / 3.0
    r[k[:-1], k[:-1] + 1] = h[1:-1] / 6.0
    r[k[:-1] + 1, k[:-1]] = h[1:-1] / 6.0
    return q, r


def fit_spline(alphas, points, lam):
    """Fit per-coordinate natural cubic smoothing splines.

    Minimizes squared residuals plus lam times integrated squared curvature;
    lam=0 gives the interpolating natural spline.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
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
    return SplineCurve(knots=alphas.copy(), values=values, second_derivs=second)


def spline_traverse(curve, alpha_s, delta_alpha):
    """Move along the fitted curve by a phase increment.

    Queries outside the fitted interval continue the boundary cubic.
    """
    return curve.evaluate(alpha_s + delta_alpha)


# ---------------------------------------------------------------------------
# Taylor extrapolation from finite-difference stencils


@dataclass
class TexStencil:
    points: np.ndarray    # (..., m, dim) consecutive samples; the last is the expansion point
    spacing: float
    cdot: np.ndarray      # first-derivative estimate at the last point
    cddot: np.ndarray     # second-derivative estimate at the last point


def stencil_from_window(points, spacing):
    """Estimate derivatives at the last point of a uniform window from the
    one-sided (trailing) 3-point stencil. `points` is (..., m, dim): any
    leading axes hold independent windows."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim < 2 or points.shape[-2] < 3:
        raise InputError("window needs at least 3 points")
    if spacing <= 0.0:
        raise InputError("window spacing must be positive")
    d = float(spacing)
    last, prev, first = points[..., -1, :], points[..., -2, :], points[..., -3, :]
    cdot = (3.0 * last - 4.0 * prev + first) / (2.0 * d)
    cddot = (last - 2.0 * prev + first) / d**2
    return TexStencil(points=points, spacing=d, cdot=cdot, cddot=cddot)


def tex_extrapolate(window, order):
    """Taylor step of one spacing past the window's last point; (..., dim)
    for a stencil over (..., m, dim) windows."""
    if order not in (1, 2):
        raise InputError("order must be 1 or 2")
    ds = window.spacing
    out = window.points[..., -1, :] + window.cdot * ds
    if order == 2:
        out = out + 0.5 * window.cddot * ds**2
    return out


# ---------------------------------------------------------------------------
# Linear and spherical interpolation


def lerp(c_a, c_b, t):
    """(1 - t) c_a + t c_b for (..., dim) endpoints; `t` is a scalar or an
    array that broadcasts against the endpoints' leading axes."""
    t = np.asarray(t, dtype=np.float64)
    if not np.all((0.0 <= t) & (t <= 1.0)):
        raise InputError("interpolation parameter must lie in [0, 1]")
    a = np.asarray(c_a, dtype=np.float64)
    b = np.asarray(c_b, dtype=np.float64)
    t = t[..., None]
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

    Trained one-step-ahead with teacher forcing; rollout predicts the frame
    after each context. Both run time-major: the arrays of T time steps
    over a batch of n sequences are (T, n, .), so each step is one slab.
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

    def _forward(self, xs):
        """Teacher-forced forward over time-major inputs xs (T, n, dim).
        Returns the states hs (T + 1, n, hidden) with hs[0] = 0, and the
        forget gates, candidates and gated states f * h of each step, each
        (T, n, hidden). The input halves x @ w[:dim] + b of both gates are
        one GEMM each over all T·n rows; the loop runs only the recursion,
        in place. Overflow is ignored: exp(-z) = inf is the exact gate 0."""
        T, n, _ = xs.shape
        p, dim = self.params, self.dim
        x = xs.reshape(T * n, dim)
        f = (x @ p["wf"][:dim]).reshape(T, n, self.hidden)
        f += p["bf"]
        g = (x @ p["wh"][:dim]).reshape(T, n, self.hidden)
        g += p["bh"]
        hs = np.zeros((T + 1, n, self.hidden))
        fh = np.empty_like(f)
        with np.errstate(over="ignore"):
            for t in range(T):
                ft, gt, h, fht, h_new = f[t], g[t], hs[t], fh[t], hs[t + 1]
                ft += h @ p["wf"][dim:]
                np.negative(ft, out=ft)
                np.exp(ft, out=ft)
                ft += 1.0
                np.divide(1.0, ft, out=ft)
                np.multiply(ft, h, out=fht)
                gt += fht @ p["wh"][dim:]
                np.tanh(gt, out=gt)
                np.subtract(1.0, ft, out=h_new)
                h_new *= h
                h_new += ft * gt
        return hs, f, g, fh

    def loss_and_grads(self, batch):
        """One-step-ahead MSE over a (n, S, dim) batch, with BPTT grads.

        The time loops carry only the recursion: forward, the hidden-state
        GEMMs and gate arithmetic; backward, dh. Input projections, the
        readout and every weight gradient are one GEMM over all (S-1)·n rows.
        """
        batch = np.asarray(batch, dtype=np.float64)
        n, S, dim = batch.shape
        if S < 3:
            raise InputError("sequences must have length >= 3")
        p = self.params
        T, hid = S - 1, self.hidden
        rows = T * n
        seq = np.ascontiguousarray(batch.transpose(1, 0, 2))
        hs, f, g, fh = self._forward(seq[:-1])
        h_out = hs[1:].reshape(rows, hid)
        resid = h_out @ p["wo"]
        resid += p["bo"]
        resid -= seq[1:].reshape(rows, dim)
        norm = n * T * dim
        loss = float(np.sum(resid * resid) / norm)

        dy = 2.0 * resid
        dy /= norm
        dh_out = (dy @ p["wo"].T).reshape(T, n, hid)
        # The local slopes of every step, each built once for all steps.
        keep = 1.0 - f
        slope_f = f * keep
        slope_g = 1.0 - g * g
        slope_g *= f
        reset = g - hs[:-1]
        wf_h = p["wf"][dim:].T
        wh_h = p["wh"][dim:].T
        dzf = np.empty_like(f)
        dzh = np.empty_like(g)
        dh = np.zeros((n, hid))
        for t in range(T - 1, -1, -1):
            dh += dh_out[t]
            np.multiply(dh, slope_g[t], out=dzh[t])
            dfh = dzh[t] @ wh_h
            df = dh * reset[t]
            df += dfh * hs[t]
            np.multiply(df, slope_f[t], out=dzf[t])
            dh *= keep[t]
            dfh *= f[t]
            dh += dfh
            dh += dzf[t] @ wf_h

        x = seq[:-1].reshape(rows, dim).T
        dzf = dzf.reshape(rows, hid)
        dzh = dzh.reshape(rows, hid)
        grads = {
            "wf": np.concatenate([x @ dzf, hs[:-1].reshape(rows, hid).T @ dzf]),
            "bf": dzf.sum(axis=0),
            "wh": np.concatenate([x @ dzh, fh.reshape(rows, hid).T @ dzh]),
            "bh": dzh.sum(axis=0),
            "wo": h_out.T @ dy,
            "bo": dy.sum(axis=0),
        }
        return loss, grads

    def rollout(self, contexts):
        """Warm up on each of the contexts (m, ctx, dim) and predict the
        frame after it; returns (m, dim)."""
        contexts = np.asarray(contexts, dtype=np.float64)
        if contexts.ndim != 3 or contexts.shape[2] != self.dim:
            raise InputError(f"expected contexts (m, ctx, {self.dim}), got {contexts.shape}")
        hs = self._forward(np.ascontiguousarray(contexts.transpose(1, 0, 2)))[0]
        return hs[-1] @ self.params["wo"] + self.params["bo"]


def train_recurrent(pred, sequences, epochs, rng, lr=1e-3, batch=16):
    """Teacher-forced MSE training; returns the predictor and its per-epoch
    mean losses. Aborts on divergence (`numcore.fit`), which runs it on one
    BLAS thread, so the gradients do not depend on the thread count."""
    data = np.stack([np.asarray(s, dtype=np.float64) for s in sequences])
    order_rng = rng.stream("order")
    curve = fit(pred.params, epochs,
                lambda epoch: shuffled_batches(order_rng, epoch, data.shape[0], batch),
                lambda idx: pred.loss_and_grads(data[idx]), lr, "recurrent")
    return pred, curve

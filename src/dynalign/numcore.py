"""Dense math core: seeded randomness, Adam and the one training loop,
gradient checking, pairwise distances, and the small fully-connected
network machinery shared by every trainable module.

All floating point is 64-bit. Gradients are hand-derived; grad_check is the
safety net that keeps them honest.
"""

import hashlib

import numpy as np

from .errors import InputError, NumericError, ShapeError


def _name_key(name):
    # Stable across processes (unlike builtin hash()).
    return int.from_bytes(hashlib.blake2s(name.encode("utf-8")).digest()[:8], "little")


class Rng:
    """Counter-based (Philox) generator with named, isolated substreams.

    Identical seeds yield bit-identical draw sequences across runs and
    processes. `stream(name)` / `substream(i)` derive independent
    generators, so modules never share or perturb each other's streams.
    """

    def __init__(self, seed, _path=()):
        self.seed = int(seed)
        self._path = tuple(int(p) for p in _path)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self._path)
        self._gen = np.random.Generator(np.random.Philox(ss))

    def stream(self, name):
        return Rng(self.seed, self._path + (_name_key(name),))

    def substream(self, index):
        return Rng(self.seed, self._path + (int(index),))

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low, high, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n):
        return self._gen.permutation(n)

    def choice(self, n, size, replace=False):
        return self._gen.choice(n, size=size, replace=replace)


def split_count(n, fraction):
    """Items a split taking `fraction` of `n` holds: the rounded share, and
    at least one."""
    return max(1, int(round(n * fraction)))


class AdamState:
    """Bias-corrected Adam moments for a named parameter collection."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}


def adam_step(params, grads, state):
    """One in-place Adam update. Returns (params, state) for chaining."""
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for key, p in params.items():
        g = grads[key]
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != param shape {p.shape} for {key!r}")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in parameter block {key!r}")
        m = state.m[key]
        v = state.v[key]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params, state


def shuffled_batches(rng, epoch, n, size):
    """Epoch `epoch`'s minibatches: a permutation of range(n) drawn from
    substream `epoch` of `rng`, cut into consecutive slices of `size`."""
    perm = rng.substream(epoch).permutation(n)
    return [perm[start : start + size] for start in range(0, n, size)]


def fit(params, epochs, batches, loss_and_grads, lr, what, stop=None):
    """The Adam epoch loop of every trained model; returns the per-epoch
    mean losses, each summed in batch order. `loss_and_grads(batch)` gives
    (loss, grads) for each batch of `batches(epoch)`, or None to skip it.
    A non-finite loss, or an epoch mean above 10 * max(first epoch's mean,
    1e-12) + 1, raises NumericError; an epoch with every batch skipped,
    InputError. `stop(mean)`, asked after each epoch, ends training early.
    """
    state = AdamState(params, lr=lr)
    curve = []
    for epoch in range(epochs):
        total, count = 0.0, 0
        for batch in batches(epoch):
            out = loss_and_grads(batch)
            if out is None:
                continue
            loss, grads = out
            if not np.isfinite(loss):
                raise NumericError(f"non-finite {what} loss at epoch {epoch}, batch {count}")
            # Looked up at call time, so a wrapper installed on the module sees it.
            adam_step(params, grads, state)
            total += loss
            count += 1
        if count == 0:
            raise InputError(f"every {what} training batch degenerated")
        mean = total / count
        if mean > 10.0 * max(curve[0] if curve else mean, 1e-12) + 1.0:
            raise NumericError(f"{what} training diverged at epoch {epoch}")
        curve.append(mean)
        if stop is not None and stop(mean):
            break
    return curve


def grad_check(loss_fn, params, perturbation=1e-4, max_coords=None, rng=None,
               atol=1e-8):
    """Max relative error between analytic and central-difference gradients.

    loss_fn(params) must return (loss, grads). With max_coords set, only a
    seeded random subset of coordinates per block is probed (needed for
    network-sized parameter collections). Coordinates where both values sit
    below `atol` count as agreeing: central differences cannot resolve a
    structurally zero gradient from their own cancellation noise.
    """
    if not (1e-6 <= perturbation <= 1e-3):
        raise ValueError("perturbation must lie in [1e-6, 1e-3]")
    loss, grads = loss_fn(params)
    if not np.isfinite(loss):
        raise NumericError("loss_fn returned a non-finite loss")
    if rng is None:
        rng = Rng(0).stream("grad-check")
    worst = 0.0
    for key, p in params.items():
        flat = p.reshape(-1)
        gflat = np.asarray(grads[key]).reshape(-1)
        n = flat.size
        if max_coords is not None and n > max_coords:
            idx = np.sort(rng.choice(n, size=max_coords, replace=False))
        else:
            idx = np.arange(n)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + perturbation
            lo_plus, _ = loss_fn(params)
            flat[i] = orig - perturbation
            lo_minus, _ = loss_fn(params)
            flat[i] = orig
            if not (np.isfinite(lo_plus) and np.isfinite(lo_minus)):
                raise NumericError("loss_fn returned a non-finite loss during probing")
            numeric = (lo_plus - lo_minus) / (2.0 * perturbation)
            analytic = gflat[i]
            if abs(analytic) <= atol and abs(numeric) <= atol:
                continue
            err = abs(analytic - numeric) / (abs(analytic) + abs(numeric) + 1e-12)
            worst = max(worst, err)
    return worst


def sinusoidal_features(x, num, min_period, max_period):
    """Encode scalars into `num` sin/cos features at geometric periods."""
    if num % 2 != 0 or num < 2:
        raise ValueError("num must be a positive even integer")
    x = np.asarray(x, dtype=np.float64).reshape(-1, 1)
    half = num // 2
    if half == 1:
        periods = np.array([min_period])
    else:
        ratio = (max_period / min_period) ** (1.0 / (half - 1))
        periods = min_period * ratio ** np.arange(half)
    ang = 2.0 * np.pi * x / periods
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def condition_features(cond, num):
    """`num` sinusoidal features (periods 0.25 to 4) per column of the
    (n, k) condition array, side by side."""
    return np.concatenate(
        [sinusoidal_features(cond[:, j], num, 0.25, 4.0) for j in range(cond.shape[1])],
        axis=1,
    )


def sq_dists(a, b):
    """Squared Euclidean distances between the rows of `a` and of `b`, from
    the Gram expansion |a|^2 + |b|^2 - 2 a.b clipped at 0. For self-distances
    pass one array twice: `a @ a.T` then takes BLAS's symmetric path."""
    return np.maximum(
        np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T),
        0.0,
    )


def _silu(z):
    """SiLU of z and the sigmoid gate its slope reuses, built once in one
    buffer."""
    s = np.negative(z)
    with np.errstate(over="ignore"):    # exp(-z) = inf is the exact gate 0
        np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)
    return z * s, s


class Mlp:
    """Plain fully-connected SiLU network with hand-derived backprop.

    Parameters live in a flat dict ("w0", "b0", "w1", ...) so they plug
    straight into fit and grad_check. The last layer is linear;
    zero_init_last starts it at zero (useful for noise predictors whose
    initial output should vanish).
    """

    def __init__(self, dims, rng=None, zero_init_last=False):
        if len(dims) < 2:
            raise ValueError("dims needs at least input and output sizes")
        self.dims = list(int(d) for d in dims)
        if rng is None:
            rng = Rng(0).stream("mlp-init")
        self.params = {}
        n_layers = len(self.dims) - 1
        for i in range(n_layers):
            fan_in, fan_out = self.dims[i], self.dims[i + 1]
            if zero_init_last and i == n_layers - 1:
                w = np.zeros((fan_in, fan_out))
            else:
                w = rng.normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
            self.params[f"w{i}"] = w
            self.params[f"b{i}"] = np.zeros(fan_out)

    @property
    def n_layers(self):
        return len(self.dims) - 1

    def forward(self, x, want_cache=False):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.dims[0]:
            raise ShapeError(f"expected input (*, {self.dims[0]}), got {x.shape}")
        cache = {"inputs": [x], "pre": [], "gates": []}
        h = x
        for i in range(self.n_layers):
            z = h @ self.params[f"w{i}"] + self.params[f"b{i}"]
            if i < self.n_layers - 1:
                h, gate = _silu(z)
                if want_cache:
                    cache["pre"].append(z)
                    cache["gates"].append(gate)
                    cache["inputs"].append(h)
            else:
                h = z
        if want_cache:
            return h, cache
        return h

    def backward(self, cache, dout):
        """Gradients for all parameters plus the input, given d(loss)/d(out)."""
        grads = {}
        delta = np.asarray(dout, dtype=np.float64)
        for i in range(self.n_layers - 1, -1, -1):
            h_in = cache["inputs"][i]
            grads[f"w{i}"] = h_in.T @ delta
            grads[f"b{i}"] = delta.sum(axis=0)
            delta = delta @ self.params[f"w{i}"].T
            if i > 0:
                z, gate = cache["pre"][i - 1], cache["gates"][i - 1]
                delta = delta * (gate * (1.0 + z * (1.0 - gate)))
        return grads, delta

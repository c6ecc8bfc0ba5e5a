"""Dense math core: seeded randomness, Adam and the one training loop,
pairwise distances, the small fully-connected network machinery shared by
every trainable module, and the one-BLAS-thread pin.

All floating point is 64-bit. Gradients are hand-derived; the tests check
them against central differences.
"""

import contextlib
import ctypes
import hashlib
import math
import threading

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


def _blas_thread_control():
    """OpenBLAS's (get, set) thread-count functions, or None, found through
    numpy's extension module: its handle also searches the libraries it
    links, under the names numpy's wheels and plain OpenBLAS export."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:     # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    lib = ctypes.CDLL(umath.__file__)
    for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                 "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
        get, put = (getattr(lib, name.format(op), None) for op in ("get", "set"))
        if get is not None and put is not None:
            get.restype, get.argtypes = ctypes.c_int, ()
            put.restype, put.argtypes = None, (ctypes.c_int,)
            return get, put
    return None


_BLAS_THREADS = _blas_thread_control()


@contextlib.contextmanager
def one_blas_thread():
    """Run the block on one OpenBLAS thread, restoring the previous count on
    exit; a no-op where no thread control was found. The count is the
    process's, so it holds in every thread while the block runs. Every
    model trains inside it (`fit`), and every DDIM run (diffusion._ddim, whose
    row-block lanes use the other CPUs): a second BLAS thread buys those
    GEMMs little or no wall time, spins between them, and splits the
    narrow models' sums by the thread count."""
    if _BLAS_THREADS is None:
        yield
        return
    get, put = _BLAS_THREADS
    previous = get()
    put(1)
    try:
        yield
    finally:
        put(previous)


def split_count(n, fraction):
    """Items a split taking `fraction` of `n` holds: the rounded share, and
    at least one."""
    return max(1, int(round(n * fraction)))


class AdamState:
    """Bias-corrected Adam moments for a named parameter collection.

    Construction moves the collection into one flat float64 vector: each
    entry of `params` is rebound to a view of it, with its key, shape and
    values unchanged, so adam_step updates every block in one pass per
    operation. The moments `m`, `v` and the step's scratch share that
    layout; `blocks` lists each key with its slice bounds.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8    # Kingma & Ba's defaults

    def __init__(self, params, lr=1e-3):
        self.lr = float(lr)
        self.step = 0
        self.blocks = []
        n = 0
        for key, p in params.items():
            self.blocks.append((key, n, n + p.size))
            n += p.size
        self.flat = np.empty(n)
        for key, lo, hi in self.blocks:
            view = self.flat[lo:hi].reshape(params[key].shape)
            view[...] = params[key]
            params[key] = view
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self._g = np.empty(n)
        self._tmp = np.empty(n)


def adam_step(params, grads, state):
    """One in-place Adam update of the flat vector behind `params` (see
    AdamState). Returns (params, state) for chaining. A non-finite gradient
    or squared gradient raises NumericError naming its block, before any
    parameter moves."""
    g, tmp = state._g, state._tmp
    for key, lo, hi in state.blocks:
        p, gk = params[key], grads[key]
        if gk.shape != p.shape:
            raise ShapeError(f"gradient shape {gk.shape} != param shape {p.shape} for {key!r}")
        if p.base is not state.flat:
            raise ValueError(f"parameter block {key!r} was rebound after its AdamState was made")
        g[lo:hi].reshape(p.shape)[...] = gk
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    m, v = state.m, state.v
    m *= b1
    np.multiply(g, 1.0 - b1, out=tmp)
    m += tmp
    v *= b2
    with np.errstate(over="ignore"):    # an overflow leaves inf in v, caught below
        np.multiply(g, 1.0 - b2, out=tmp)
        tmp *= g
        v += tmp
    if not np.isfinite(v.max()):        # v >= 0, so its max is finite iff all are
        for key, lo, hi in state.blocks:
            if not np.all(np.isfinite(v[lo:hi])):
                what = "gradient" if not np.all(np.isfinite(g[lo:hi])) else "squared gradient"
                raise NumericError(f"non-finite {what} in parameter block {key!r}")
    np.divide(v, 1.0 - b2**t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += state.eps
    np.divide(m, 1.0 - b1**t, out=g)
    g *= state.lr
    g /= tmp
    state.flat -= g
    return params, state


def shuffled_batches(rng, epoch, n, size):
    """Epoch `epoch`'s minibatches: a permutation of range(n) drawn from
    substream `epoch` of `rng`, cut into consecutive slices of `size`."""
    perm = rng.substream(epoch).permutation(n)
    return [perm[start : start + size] for start in range(0, n, size)]


@one_blas_thread()
def fit(params, epochs, batches, loss_and_grads, lr, what, stop=None):
    """The Adam epoch loop of every trained model, on one BLAS thread;
    returns the per-epoch mean losses, each summed in batch order.
    `loss_and_grads(batch)` gives (loss, grads) for each batch of
    `batches(epoch)`, or None to skip it. A non-finite loss, or an epoch
    mean above 10 * max(first epoch's mean, 1e-12) + 1, raises NumericError;
    an epoch with every batch skipped, InputError. `stop(mean)`, asked after
    each epoch, ends training early."""
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
    the Gram expansion |a|^2 + |b|^2 - 2 a.b clipped at 0, built in the
    Gram product's buffer. For self-distances pass one array twice:
    `a @ a.T` then takes BLAS's symmetric path. The GEMM is one call; the
    norm sums are formed 64 rows at a time, so one (n, m) array is held."""
    na = np.sum(a * a, axis=1)
    nb = np.sum(b * b, axis=1)[None, :]
    d2 = a @ b.T
    d2 *= 2.0
    for lo in range(0, d2.shape[0], 64):
        rows = d2[lo : lo + 64]
        np.subtract(na[lo : lo + 64, None] + nb, rows, out=rows)
    return np.maximum(d2, 0.0, out=d2)


def _sigmoid(z, out=None):
    """The SiLU gate 1 / (1 + exp(-z)), built in one buffer (`out`, or a
    fresh one)."""
    s = np.negative(z, out=out)
    with np.errstate(over="ignore"):    # exp(-z) = inf is the exact gate 0
        np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


class Mlp:
    """Plain fully-connected SiLU network with hand-derived backprop.

    Parameters live in a flat dict ("w0", "b0", "w1", ...) so they plug
    straight into fit. The last layer is linear;
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
        self._local = threading.local()     # each thread's reused_buffers work arrays

    @property
    def n_layers(self):
        return len(self.dims) - 1

    @property
    def _work(self):
        return getattr(self._local, "work", None)

    @contextlib.contextmanager
    def reused_buffers(self, work=None):
        """Within the block (one training or DDIM run), forward and backward
        write into work arrays kept per role, each grown to the largest row
        count seen, and reuse them call after call; on exit they are
        released. A forward's output and cache, and backward's gradients,
        then last only until the next call of the same kind, which a
        training step or a DDIM step never outlives. Outside the block
        every call allocates fresh arrays. Each thread holds its own work
        arrays; `work`, from `forward_buffers`, starts them with arrays
        made beforehand, in another thread say."""
        local = self._local
        outer, local.work = self._work, {} if work is None else work
        try:
            yield
        finally:
            local.work = outer

    def forward_buffers(self, rows):
        """Work arrays for `reused_buffers(work)` that forwards of up to
        `rows` rows without a cache fill without growing."""
        size = rows * max(self.dims[1:])
        return {role: np.empty(size) for role in (("act", 0), ("act", 1), "gate")}

    def _array(self, role, *shape):
        """An uninitialised float64 array of `shape` for `role`: a view of
        that role's work array inside reused_buffers, else a fresh one."""
        if self._work is None:
            return np.empty(shape)
        size = math.prod(shape)
        flat = self._work.get(role)
        if flat is None or flat.size < size:
            flat = self._work[role] = np.empty(size)
        return flat[:size].reshape(shape)

    def forward(self, x, want_cache=False):
        """Output rows for input rows `x`; with want_cache, also what
        backward needs. Without it, two hidden-width arrays take turns as
        each layer's output, with one gate scratch beside them."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.dims[0]:
            raise ShapeError(f"expected input (*, {self.dims[0]}), got {x.shape}")
        n = x.shape[0]
        cache = {"inputs": [x], "pre": [], "gates": []} if want_cache else None
        h = x
        for i in range(self.n_layers):
            width = self.dims[i + 1]
            z = self._array(("pre", i) if want_cache else ("act", i % 2), n, width)
            np.matmul(h, self.params[f"w{i}"], out=z)
            z += self.params[f"b{i}"]
            del h
            if i == self.n_layers - 1:
                break
            gate = _sigmoid(z, out=self._array(("gate", i) if want_cache else "gate", n, width))
            if want_cache:
                h = np.multiply(z, gate, out=self._array(("out", i), n, width))
                cache["pre"].append(z)
                cache["gates"].append(gate)
                cache["inputs"].append(h)
            else:
                h = np.multiply(z, gate, out=z)
            del z, gate
        return (z, cache) if want_cache else z

    def backward(self, cache, dout):
        """Parameter gradients (not the input's), given d(loss)/d(out)."""
        grads = {}
        delta = np.asarray(dout, dtype=np.float64)
        n = delta.shape[0]
        for i in range(self.n_layers - 1, -1, -1):
            h_in, w = cache["inputs"][i], self.params[f"w{i}"]
            grads[f"w{i}"] = np.matmul(h_in.T, delta, out=self._array(("dw", i), *w.shape))
            grads[f"b{i}"] = np.sum(delta, axis=0, out=self._array(("db", i), w.shape[1]))
            if i > 0:
                delta = np.matmul(delta, w.T, out=self._array(("delta", i % 2), n, w.shape[0]))
                # SiLU slope gate * (1 + z * (1 - gate)), built in one buffer.
                z, gate = cache["pre"][i - 1], cache["gates"][i - 1]
                slope = np.subtract(1.0, gate, out=self._array("slope", n, w.shape[0]))
                slope *= z
                slope += 1.0
                slope *= gate
                delta *= slope
        return grads

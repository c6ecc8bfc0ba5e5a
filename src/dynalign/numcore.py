"""Dense math core: seeded randomness, Adam and the one training loop,
pairwise distances, the small fully-connected network machinery shared by
every trainable module, the one-BLAS-thread pin, the lanes that put a
computation on more than one CPU, and the worker that puts one beside the
calling process.

All floating point is 64-bit. Gradients are hand-derived; the tests check
them against central differences.
"""

import contextlib
import contextvars
import ctypes
import functools
import hashlib
import math
import os
import pickle
import queue
import resource
import signal
import sys
import threading
import time
import traceback

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


def _cpu_getter():
    """libc's sched_getcpu, where the platform has it and lets a thread set
    its own CPU affinity (Linux), else None."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    getcpu = getattr(ctypes.CDLL(None), "sched_getcpu", None)
    if getcpu is not None:
        getcpu.restype, getcpu.argtypes = ctypes.c_int, ()
    return getcpu


_SCHED_GETCPU = _cpu_getter()


def _death_signal_setter():
    """Linux's prctl(PR_SET_PDEATHSIG, signal) as a function of the signal,
    with which a Worker's child asks to be killed when the thread that
    forked it dies; else None."""
    prctl = getattr(ctypes.CDLL(None), "prctl", None) if sys.platform == "linux" else None
    if prctl is None:
        return None
    prctl.restype, prctl.argtypes = ctypes.c_int, (ctypes.c_int, ctypes.c_ulong)
    return functools.partial(prctl, 1)     # PR_SET_PDEATHSIG


_SET_DEATH_SIGNAL = _death_signal_setter()


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


def usable_cpus():
    """The CPUs this process may run on: its affinity set where the
    platform has one (Linux), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def in_lanes(lanes):
    """Run the callables `lanes` at once: the first in this thread, each
    other in a thread of its own and in a copy of this thread's context,
    which carries numpy's floating-point policy. Every thread is joined,
    also on an error; then the first lane's exception, in lane order, is
    raised here. Plain threads, not concurrent.futures: importing that
    package (logging with it) raised a cold pipeline's peak RSS by 1 MB."""
    errors = [None] * len(lanes)

    def guarded(k):
        try:
            lanes[k]()
        except BaseException as exc:    # re-raised in the calling thread
            errors[k] = exc

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(guarded, k))
               for k in range(1, len(lanes))]
    try:
        for thread in threads:
            thread.start()
        guarded(0)
    finally:
        for thread in threads:
            if thread.ident is not None:    # started
                thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def peak_rss_mb(usage=None):
    """A resident-set high-water mark in MB: this process's so far, or that
    of `usage`, a getrusage or wait4 record (KiB on Linux, bytes on macOS)."""
    peak = (usage or resource.getrusage(resource.RUSAGE_SELF)).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


class Worker:
    """task() beside the calling process, in a child forked on entry, where
    os.fork exists, the process may run on two CPUs or more and OpenBLAS
    thread control was found (DDIM's lanes' condition; OpenBLAS's fork
    handler stops its pool before a fork). Elsewhere task() runs inline, on
    entry. The child reads the caller's data as the fork left it, sends the
    task's result or exception pickled through one pipe, and leaves by
    os._exit. Plain fork and a pipe, not multiprocessing: spawning would
    import numpy again, and concurrent.futures raised peak RSS by 1 MB.
    Enter it with no other thread of this package running (lanes are
    joined when their call returns): a fork copies only the calling thread.

    join() returns (result, record), record holding the worker's wall and
    CPU seconds, its peak RSS and whether it forked; the task's exception is
    raised there. A block left before join() kills and reaps the child."""

    def __init__(self, task, what):
        self.task, self.what = task, what
        self._pid = None

    @staticmethod
    def forks():
        """Whether a Worker entered now forks."""
        return hasattr(os, "fork") and _BLAS_THREADS is not None and usable_cpus() >= 2

    def __enter__(self):
        start, cpu = time.perf_counter(), time.process_time()
        if not self.forks():
            self._result = self.task()
            self._record = {"seconds": time.perf_counter() - start,
                            "cpu_seconds": time.process_time() - cpu,
                            "peak_rss_mb": peak_rss_mb(), "forked": False}
            return self
        read, write = os.pipe()
        parent = os.getpid()
        pid = os.fork()
        if pid == 0:
            os.close(read)
            self._child(write, start, parent)
        os.close(write)
        self._pid, self._pipe = pid, open(read, "rb")
        return self

    def _child(self, fd, start, parent):
        try:
            if _SET_DEATH_SIGNAL is not None:
                _SET_DEATH_SIGNAL(signal.SIGKILL)   # die with a killed caller
            if os.getppid() != parent:      # which may have died before that
                return
            try:
                outcome = (True, self.task(), None)
            except BaseException as exc:    # raised by join, in the caller
                outcome = (False, exc, traceback.format_exc())
            seconds = time.perf_counter() - start
            try:
                blob = pickle.dumps(outcome + (seconds,))
                pickle.loads(blob)      # an exception the caller could not rebuild, say
            except Exception as exc:
                blob = pickle.dumps((False, RuntimeError(f"cannot send the outcome: {exc}"),
                                     outcome[2] or traceback.format_exc(), seconds))
            with open(fd, "wb") as fh:
                fh.write(blob)
        finally:
            os._exit(0)

    def join(self):
        """The task's result and the worker's record, once the child has
        sent the whole result and been reaped."""
        if self._pid is None:
            return self._result, self._record
        with self._pipe:    # read to the end before wait4: a result can
            blob = self._pipe.read()    # exceed the pipe's buffer
        _, status, usage = os.wait4(self._pid, 0)
        self._pid = None
        try:
            ok, value, child_traceback, seconds = pickle.loads(blob)
        except Exception:   # no bytes, or a part of them: the child died first
            raise RuntimeError(f"{self.what}: the worker process ended (exit status "
                               f"{os.waitstatus_to_exitcode(status)}) without sending "
                               "its result") from None
        if not ok:
            raise value from RuntimeError(f"{self.what}, in the worker process:\n"
                                          f"{child_traceback}")
        return value, {"seconds": seconds, "cpu_seconds": usage.ru_utime + usage.ru_stime,
                       "peak_rss_mb": peak_rss_mb(usage), "forked": True}

    def __exit__(self, *exc_info):
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pipe.close()
            self._pid = None


# fit gives a model a training lane (TrainingLane) only from this many
# parameters up. On a 2-CPU Xeon VM (numpy 2.4.6, one BLAS thread per lane)
# the lane took the denoiser's training on the benchmark config (216,076
# parameters, batches of 128) from 0.566 to 0.450 s, median of 8 alternated
# runs; it left the encoder's (about 36-40k parameters) no faster and made
# the recurrent baselines' (about 10k) 25-80% slower: a hand-off then costs
# about as much as the work it moves. A 2-CPU AMD EPYC VM read -28%, +5.5%
# and +12% for the three.
LANE_MIN_PARAMS = 100_000

_LANE = contextvars.ContextVar("training lane", default=None)


class TrainingLane:
    """A second thread for the work a training step can do beside its
    critical path: Mlp.backward's weight and bias gradients, once each
    layer's delta exists, and half of each adam_step pass (_in_halves).
    Both find the lane of the training they run in through _LANE; each task
    writes only arrays its caller reserved for it, and the caller waits for
    every task before it reads them."""

    def __init__(self):
        self._tasks = queue.SimpleQueue()
        self._done = queue.SimpleQueue()
        self._pending = 0

    def run(self, body):
        """Call body() in this thread, as the lane's training, with the
        lane's thread serving beside it (in_lanes). Run it on one BLAS
        thread, as fit does: with an OpenBLAS worker pool, a GEMM in one
        thread waits for the other's."""
        def training():
            token = _LANE.set(self)
            try:
                body()
            finally:
                _LANE.reset(token)
                self._tasks.put(None)

        cpu = _SCHED_GETCPU() if _SCHED_GETCPU is not None else -1
        in_lanes([training, functools.partial(self._serve, cpu)])

    def _serve(self, training_cpu):
        # Off the training thread's CPU (-1: unknown), where others are
        # allowed. A thread woken for a task of a few hundred microseconds
        # is often placed on its waker's CPU, and then takes turns with it
        # there while another CPU idles: on a 2-CPU Xeon VM the lane gained
        # nothing until it kept off the training thread's CPU.
        others = os.sched_getaffinity(0) - {training_cpu} if training_cpu >= 0 else set()
        if others:
            try:
                os.sched_setaffinity(0, others)
            except OSError:     # a CPU went offline, say: the lane runs anywhere
                pass
        for task in iter(self._tasks.get, None):
            try:
                task()
            except BaseException as exc:    # raised by wait, in the training thread
                self._done.put(exc)
            else:
                self._done.put(None)

    def submit(self, task, *args):
        """Start task(*args) in the lane's thread."""
        self._pending += 1
        self._tasks.put(functools.partial(task, *args))

    def wait(self):
        """Return once every submitted task is done; raise the first
        task's exception, in submission order, if any raised."""
        outcomes = [self._done.get() for _ in range(self._pending)]
        self._pending = 0
        for exc in outcomes:
            if exc is not None:
                raise exc


def _lane_pays(n_params):
    """Whether fit gives a model of `n_params` parameters a training lane:
    from LANE_MIN_PARAMS up, with OpenBLAS thread control (one_blas_thread)
    and two CPUs or more."""
    return n_params >= LANE_MIN_PARAMS and _BLAS_THREADS is not None and usable_cpus() >= 2


def _in_halves(task, *arrays):
    """task(*arrays); in a training with a lane, over the first half of
    each flat array here and the second half in the lane, at once. Only for
    elementwise work, whose bits do not depend on the split."""
    lane = _LANE.get()
    if lane is None:
        task(*arrays)
        return
    mid = arrays[0].size // 2
    lane.submit(task, *(a[mid:] for a in arrays))
    task(*(a[:mid] for a in arrays))
    lane.wait()


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


def _moments(g, tmp, m, v, b1, b2):
    """Adam's moment update of one span of the flat vectors."""
    m *= b1
    np.multiply(g, 1.0 - b1, out=tmp)
    m += tmp
    v *= b2
    with np.errstate(over="ignore"):    # an overflow leaves inf in v, caught by adam_step
        np.multiply(g, 1.0 - b2, out=tmp)
        tmp *= g
        v += tmp


def _descend(flat, g, tmp, m, v, m_scale, v_scale, lr, eps):
    """Adam's parameter update of one span, with the bias corrections
    m_scale and v_scale; g and tmp are scratch."""
    np.divide(v, v_scale, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += eps
    np.divide(m, m_scale, out=g)
    g *= lr
    g /= tmp
    flat -= g


def adam_step(params, grads, state):
    """One in-place Adam update of the flat vector behind `params` (see
    AdamState). Returns (params, state) for chaining. A non-finite gradient
    or squared gradient raises NumericError naming its block, before any
    parameter moves. In a training with a lane (TrainingLane), the lane
    runs each pass over the second half of the vector, with the same bits."""
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
    _in_halves(functools.partial(_moments, b1=b1, b2=b2), g, tmp, m, v)
    if not np.isfinite(v.max()):        # v >= 0, so its max is finite iff all are
        for key, lo, hi in state.blocks:
            if not np.all(np.isfinite(v[lo:hi])):
                what = "gradient" if not np.all(np.isfinite(g[lo:hi])) else "squared gradient"
                raise NumericError(f"non-finite {what} in parameter block {key!r}")
    _in_halves(functools.partial(_descend, m_scale=1.0 - b1**t, v_scale=1.0 - b2**t,
                                 lr=state.lr, eps=state.eps), state.flat, g, tmp, m, v)
    return params, state


def shuffled_batches(rng, epoch, n, size):
    """Epoch `epoch`'s minibatches: a permutation of range(n) drawn from
    substream `epoch` of `rng`, cut into consecutive slices of `size`."""
    perm = rng.substream(epoch).permutation(n)
    return [perm[start : start + size] for start in range(0, n, size)]


@one_blas_thread()
def fit(params, epochs, batches, loss_and_grads, lr, what, stop=None):
    """The Adam epoch loop of every trained model, on one BLAS thread, with
    a training lane where it pays (_lane_pays); returns the per-epoch mean
    losses, each summed in batch order. `loss_and_grads(batch)` gives
    (loss, grads) for each batch of `batches(epoch)`, or None to skip it.
    A non-finite loss, or an epoch mean above 10 * max(first epoch's mean,
    1e-12) + 1, raises NumericError; an epoch with every batch skipped,
    InputError. `stop(mean)`, asked after each epoch, ends training early."""
    state = AdamState(params, lr=lr)
    curve = []

    def train():
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

    if _lane_pays(state.flat.size):
        TrainingLane().run(train)
    else:
        train()
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


def _layer_grads(h_in, delta, dw, db):
    """One dense layer's weight and bias gradients, into dw and db."""
    np.matmul(h_in.T, delta, out=dw)
    np.sum(delta, axis=0, out=db)


class Mlp:
    """Plain fully-connected SiLU network with hand-derived backprop.

    Parameters live in a flat dict ("w0", "b0", "w1", ...) so they plug
    straight into fit. The last layer is linear;
    zero_init_last starts it at zero (useful for noise predictors whose
    initial output should vanish). With `stored`, a function (key, shape)
    -> array, every parameter is taken from it instead (a saved model's
    arrays), and nothing is drawn.
    """

    def __init__(self, dims, rng=None, zero_init_last=False, stored=None):
        if len(dims) < 2:
            raise ValueError("dims needs at least input and output sizes")
        self.dims = list(int(d) for d in dims)
        if rng is None and stored is None:
            rng = Rng(0).stream("mlp-init")
        self.params = {}
        n_layers = len(self.dims) - 1
        for i in range(n_layers):
            fan_in, fan_out = self.dims[i], self.dims[i + 1]
            if stored is not None:
                self.params[f"w{i}"] = stored(f"w{i}", (fan_in, fan_out))
                self.params[f"b{i}"] = stored(f"b{i}", (fan_out,))
                continue
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
        """Parameter gradients (not the input's), given d(loss)/d(out). In a
        training with a lane (TrainingLane), each layer's weight and bias
        gradients are formed there while this thread carries the delta on;
        each layer's delta has its own array, so none is overwritten while
        the lane reads it."""
        lane = _LANE.get()
        grads = {}
        delta = np.asarray(dout, dtype=np.float64)
        n = delta.shape[0]
        for i in range(self.n_layers - 1, -1, -1):
            h_in, w = cache["inputs"][i], self.params[f"w{i}"]
            dw = grads[f"w{i}"] = self._array(("dw", i), *w.shape)
            db = grads[f"b{i}"] = self._array(("db", i), w.shape[1])
            if lane is None:
                _layer_grads(h_in, delta, dw, db)
            else:
                lane.submit(_layer_grads, h_in, delta, dw, db)
            if i > 0:
                delta = np.matmul(delta, w.T, out=self._array(("delta", i - 1), n, w.shape[0]))
                # SiLU slope gate * (1 + z * (1 - gate)), built in one buffer.
                z, gate = cache["pre"][i - 1], cache["gates"][i - 1]
                slope = np.subtract(1.0, gate, out=self._array("slope", n, w.shape[0]))
                slope *= z
                slope += 1.0
                slope *= gate
                delta *= slope
        if lane is not None:
            lane.wait()
        return grads

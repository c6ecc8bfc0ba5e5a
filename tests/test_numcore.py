import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from dynalign.contrastive import EncoderModel
from dynalign.errors import InputError, NumericError
from dynalign.numcore import (
    AdamState, Mlp, Rng, adam_step, fit, shuffled_batches, sinusoidal_features, sq_dists,
)
from dynalign.traversal import RecurrentPredictor


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


class TestRng:
    def test_same_seed_same_sequence(self):
        assert np.array_equal(Rng(42).normal(16), Rng(42).normal(16))

    def test_streams_are_isolated(self):
        a = Rng(42).stream("a").normal(8)
        b = Rng(42).stream("b").normal(8)
        assert not np.allclose(a, b)

    def test_bit_identical_across_processes(self):
        code = (
            "from dynalign.numcore import Rng;"
            "print(','.join(repr(v) for v in Rng(99).stream('x').normal(6)))"
        )
        runs = [
            subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout
        here = ",".join(repr(v) for v in Rng(99).stream("x").normal(6))
        assert runs[0].stdout.strip() == here


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = {"w": np.array([1.0, -2.0])}
        st = AdamState(p, lr=0.1)
        adam_step(p, {"w": np.zeros(2)}, st)
        assert np.array_equal(p["w"], [1.0, -2.0])
        assert st.step == 1

    def test_constant_positive_gradient_decreases_param(self):
        p = {"w": np.array([0.0])}
        st = AdamState(p, lr=0.05)
        prev = 0.0
        for _ in range(50):
            adam_step(p, {"w": np.array([1.0])}, st)
            assert p["w"][0] < prev
            prev = p["w"][0]

    def test_first_step_matches_hand_value(self):
        # Bias-corrected first step: m_hat = g, v_hat = g^2, update = lr*g/(|g|+eps).
        p = {"w": np.array([0.0])}
        st = AdamState(p, lr=0.1)
        adam_step(p, {"w": np.array([1.0])}, st)
        assert abs(p["w"][0] - (-0.1 / (1.0 + 1e-8))) < 1e-15

    def test_nonfinite_gradient_names_block(self):
        p = {"blockname": np.zeros(2)}
        st = AdamState(p)
        with pytest.raises(NumericError, match="blockname"):
            adam_step(p, {"blockname": np.array([np.nan, 0.0])}, st)

    def test_overflowing_squared_gradient_names_block_and_moves_nothing(self):
        p = {"small": np.ones(3), "huge": np.ones((2, 2))}
        st = AdamState(p)
        with pytest.raises(NumericError, match="squared gradient in parameter block 'huge'"):
            adam_step(p, {"small": np.ones(3), "huge": np.full((2, 2), 1e200)}, st)
        assert np.array_equal(p["small"], np.ones(3))
        assert np.array_equal(p["huge"], np.ones((2, 2)))

    def test_blocks_become_views_of_one_flat_vector(self):
        w, b = Rng(1).normal((3, 4)), Rng(2).normal(4)
        p = {"w": w.copy(), "b": b.copy()}
        st = AdamState(p)
        assert list(p) == ["w", "b"]
        assert np.array_equal(p["w"], w) and np.array_equal(p["b"], b)
        assert p["w"].base is st.flat and p["b"].base is st.flat
        assert np.array_equal(st.flat, np.concatenate([w.ravel(), b]))
        # A block rebound after construction would no longer be updated.
        p["b"] = b.copy()
        with pytest.raises(ValueError, match="'b' was rebound"):
            adam_step(p, {"w": np.ones((3, 4)), "b": np.ones(4)}, st)


def quadratic(params, target):
    """Loss |w - target|^2 and its gradient."""
    r = params["w"] - target
    return float(r @ r), {"w": 2.0 * r}


class TestFit:
    def test_fits_and_returns_one_mean_per_epoch(self):
        params = {"w": np.zeros(2)}
        target = np.array([1.0, -1.0])
        curve = fit(params, 30, lambda epoch: range(3),
                    lambda b: quadratic(params, target), 0.1, "toy")
        assert len(curve) == 30
        assert curve[-1] < curve[0]

    def test_epoch_mean_is_summed_in_batch_order(self):
        losses = [0.1, 0.2, 0.3]
        curve = fit({"w": np.zeros(1)}, 1, lambda epoch: losses,
                    lambda lo: (lo, {"w": np.zeros(1)}), 0.1, "toy")
        assert curve == [(0.0 + 0.1 + 0.2 + 0.3) / 3]

    def test_divergence_raises(self):
        # An epoch mean above 10 * first + 1 trips the guard.
        means = iter([1.0, 11.0, 11.5])
        with pytest.raises(NumericError, match="toy training diverged at epoch 2"):
            fit({"w": np.zeros(1)}, 3, lambda epoch: [epoch],
                lambda b: (next(means), {"w": np.zeros(1)}), 0.1, "toy")

    def test_nonfinite_loss_raises(self):
        with pytest.raises(NumericError, match="non-finite toy loss at epoch 0"):
            fit({"w": np.zeros(1)}, 2, lambda epoch: [0],
                lambda b: (np.inf, {"w": np.zeros(1)}), 0.1, "toy")

    def test_none_batches_are_skipped(self):
        params = {"w": np.zeros(1)}
        state = {"steps": 0}

        def loss_and_grads(b):
            if b % 2:
                return None
            state["steps"] += 1
            return float(b), {"w": np.ones(1)}

        curve = fit(params, 2, lambda epoch: range(4), loss_and_grads, 0.1, "toy")
        assert curve == [1.0, 1.0]
        assert state["steps"] == 4

    def test_every_batch_skipped_raises(self):
        with pytest.raises(InputError, match="every toy training batch degenerated"):
            fit({"w": np.zeros(1)}, 2, lambda epoch: range(3), lambda b: None, 0.1, "toy")

    def test_stop_ends_training_early(self):
        params = {"w": np.zeros(2)}
        seen = []

        def stop(mean):
            seen.append(mean)
            return len(seen) == 4

        curve = fit(params, 50, lambda epoch: range(2),
                    lambda b: quadratic(params, np.ones(2)), 0.1, "toy", stop=stop)
        assert len(curve) == 4
        assert curve == seen


def test_shuffled_batches_cover_every_index_once_per_epoch():
    rng = Rng(3).stream("order")
    for epoch in range(3):
        batches = shuffled_batches(rng, epoch, 23, 5)
        assert [b.size for b in batches] == [5, 5, 5, 5, 3]
        assert np.array_equal(np.sort(np.concatenate(batches)), np.arange(23))
    assert not np.array_equal(np.concatenate(shuffled_batches(rng, 0, 23, 5)),
                              np.concatenate(shuffled_batches(rng, 1, 23, 5)))


def test_sq_dists_matches_broadcast_difference():
    a = Rng(4).normal((7, 3))
    b = Rng(5).normal((9, 3))
    oracle = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    assert np.allclose(sq_dists(a, b), oracle, rtol=1e-12, atol=1e-12)
    self_oracle = np.sum((a[:, None, :] - a[None, :, :]) ** 2, axis=2)
    assert np.allclose(sq_dists(a, a), self_oracle, rtol=1e-12, atol=1e-12)


def test_sq_dists_never_negative():
    # Near-duplicate rows far from the origin: the Gram expansion cancels to
    # rounding noise, which must be clipped at 0.
    a = 1e4 + Rng(6).normal((50, 4)) * 1e-9
    d2 = sq_dists(a, a)
    assert np.all(d2 >= 0.0)
    assert np.min(sq_dists(a, a[::-1])) >= 0.0


class TestGradCheck:
    def test_quadratic_is_exact(self):
        def loss(params):
            p = params["p"]
            return float(np.sum(p * p)), {"p": 2.0 * p}

        params = {"p": Rng(1).normal(6)}
        assert grad_check(loss, params, 1e-4) <= 1e-8

    def test_tanh_layer(self):
        rng = Rng(5)
        w = rng.normal((4, 3))
        x = rng.normal((8, 4))
        y = rng.normal((8, 3))

        def loss(params):
            out = np.tanh(x @ params["w"])
            resid = out - y
            grad = x.T @ (2.0 * resid * (1.0 - out * out))
            return float(np.sum(resid**2)), {"w": grad}

        assert grad_check(loss, {"w": w}, 1e-4) <= 1e-5

    def test_detects_scaled_gradient(self):
        def loss(params):
            p = params["p"]
            return float(np.sum(p * p)), {"p": 2.2 * p}  # gradient scaled by 1.1

        params = {"p": Rng(2).normal(5) + 0.5}
        assert grad_check(loss, params, 1e-4) >= 0.04

    def test_rejects_bad_perturbation(self):
        with pytest.raises(ValueError):
            grad_check(lambda p: (0.0, p), {"p": np.zeros(1)}, 1e-2)


class TestMlp:
    def test_backward_matches_finite_differences(self):
        rng = Rng(9)
        net = Mlp([4, 12, 12, 2], rng=rng.stream("net"))
        x = rng.stream("x").normal((6, 4))
        y = rng.stream("y").normal((6, 2))

        def loss(params):
            out, cache = net.forward(x, want_cache=True)
            resid = out - y
            grads = net.backward(cache, 2.0 * resid / 6)
            return float(np.sum(resid**2) / 6), grads

        assert grad_check(loss, net.params, 1e-4) <= 1e-5

    def test_backward_with_cached_gates_matches_recomputed_slopes(self):
        # Reference backward that recomputes each SiLU slope from the
        # pre-activation alone: the gates the forward pass caches for
        # backward must give the same bits.
        def slope(z):
            s = 1.0 / (1.0 + np.exp(-z))
            return s * (1.0 + z * (1.0 - s))

        rng = Rng(11)
        net = Mlp([5, 16, 16, 16, 3], rng=rng.stream("net"))
        x = rng.stream("x").normal((9, 5)) * 3.0
        dout = rng.stream("d").normal((9, 3))
        out, cache = net.forward(x, want_cache=True)
        grads = net.backward(cache, dout)

        hs, pre = [x], []
        for i in range(net.n_layers - 1):
            pre.append(hs[-1] @ net.params[f"w{i}"] + net.params[f"b{i}"])
            hs.append(pre[-1] * (1.0 / (1.0 + np.exp(-pre[-1]))))
        delta = dout
        for i in range(net.n_layers - 1, -1, -1):
            assert np.array_equal(grads[f"w{i}"], hs[i].T @ delta)
            assert np.array_equal(grads[f"b{i}"], delta.sum(axis=0))
            if i > 0:
                delta = delta @ net.params[f"w{i}"].T
                delta = delta * slope(pre[i - 1])
        assert np.array_equal(out, net.forward(x))

    def test_zero_init_last_layer_outputs_zero(self):
        net = Mlp([3, 8, 2], rng=Rng(0), zero_init_last=True)
        out = net.forward(Rng(1).normal((5, 3)))
        assert np.array_equal(out, np.zeros((5, 2)))


def test_sinusoidal_features_shape_and_range():
    f = sinusoidal_features(np.linspace(0, 1, 7), 16, 0.25, 4.0)
    assert f.shape == (7, 16)
    assert np.max(np.abs(f)) <= 1.0


def test_sinusoidal_features_rejects_odd_count():
    with pytest.raises(ValueError):
        sinusoidal_features(np.zeros(3), 7, 0.5, 2.0)


# Allocating references of the dense kernels: a fresh array for every
# elementwise step. The kernels build the same steps in place, in the same
# order per element, so they must give these bits exactly.


def silu_oracle(z):
    s = np.negative(z)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)
    return z * s, s


def forward_oracle(net, x):
    cache = {"inputs": [x], "pre": [], "gates": []}
    h = x
    for i in range(net.n_layers):
        z = h @ net.params[f"w{i}"] + net.params[f"b{i}"]
        if i < net.n_layers - 1:
            h, gate = silu_oracle(z)
            cache["pre"].append(z)
            cache["gates"].append(gate)
            cache["inputs"].append(h)
        else:
            h = z
    return h, cache


def backward_oracle(net, cache, dout):
    grads = {}
    delta = dout
    for i in range(net.n_layers - 1, -1, -1):
        h_in = cache["inputs"][i]
        grads[f"w{i}"] = h_in.T @ delta
        grads[f"b{i}"] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ net.params[f"w{i}"].T
            z, gate = cache["pre"][i - 1], cache["gates"][i - 1]
            delta = delta * (gate * (1.0 + z * (1.0 - gate)))
    return grads


class AdamOracle:
    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def __call__(self, params, grads):
        self.step += 1
        t = self.step
        b1, b2 = self.beta1, self.beta2
        for key, p in params.items():
            g = grads[key]
            m = self.m[key]
            v = self.v[key]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def sq_dists_oracle(a, b):
    return np.maximum(
        np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T),
        0.0,
    )


def denoiser_net():
    """A denoiser-shaped MLP: 12 state + 32 time + 16 condition features in,
    4 x 256 hidden, 12 out (initialised in full, not with the zero last
    layer that would hide the output half of the comparison)."""
    return Mlp([60, 256, 256, 256, 256, 12], rng=Rng(0).stream("net"))


@pytest.mark.parametrize("rows", [1, 7, 128, 2304])
def test_mlp_kernels_match_the_allocating_oracle(rows):
    net = denoiser_net()
    rng = Rng(rows).stream("data")
    x = rng.stream("x").normal((rows, 60)) * 3.0
    dout = rng.stream("d").normal((rows, 12))
    want, want_cache = forward_oracle(net, x)
    out, cache = net.forward(x, want_cache=True)
    assert np.array_equal(out, want)
    assert np.array_equal(net.forward(x), want)
    for key in ("inputs", "pre", "gates"):
        assert all(np.array_equal(a, b) for a, b in zip(cache[key], want_cache[key], strict=True))
    grads = net.backward(cache, dout)
    want_grads = backward_oracle(net, want_cache, dout)
    assert grads.keys() == want_grads.keys()
    assert all(np.array_equal(grads[k], want_grads[k]) for k in grads)

    # Inside a training run, the same bits from reused buffers, with the row
    # count alternating as a short last batch makes it.
    short = rows // 2 + 1
    short_out, short_cache = forward_oracle(net, x[:short])
    cases = [(rows, want, want_grads),
             (short, short_out, backward_oracle(net, short_cache, dout[:short]))]
    with net.reused_buffers():
        for n, want_out, want_g in cases * 2:
            out, cache = net.forward(x[:n], want_cache=True)
            assert np.array_equal(out, want_out)
            grads = net.backward(cache, dout[:n])
            assert all(np.array_equal(grads[k], want_g[k]) for k in want_g)
            assert np.array_equal(net.forward(x[:n]), want_out)
    assert net._work is None


def test_a_cache_held_outside_a_run_survives_later_forwards():
    net = denoiser_net()
    rng = Rng(3).stream("data")
    x, dout = rng.stream("x").normal((64, 60)), rng.stream("d").normal((64, 12))
    _, cache = net.forward(x, want_cache=True)
    want = {k: g.copy() for k, g in net.backward(cache, dout).items()}
    net.forward(rng.stream("y").normal((64, 60)), want_cache=True)
    net.forward(rng.stream("z").normal((64, 60)))
    grads = net.backward(cache, dout)
    assert all(np.array_equal(grads[k], want[k]) for k in want)


@pytest.mark.parametrize("rows", [1, 7, 128, 2304])
def test_sq_dists_matches_the_allocating_oracle(rows):
    rng = Rng(rows).stream("pts")
    a = rng.stream("a").normal((rows, 5)) * 2.0
    b = rng.stream("b").normal((97, 5))
    assert np.array_equal(sq_dists(a, b), sq_dists_oracle(a, b))
    # Self-distances (BLAS's symmetric path) at up to the median heuristic's
    # 1000-row cap.
    a = a[:1000]
    assert np.array_equal(sq_dists(a, a), sq_dists_oracle(a, a))


@pytest.mark.parametrize("make", [
    lambda: denoiser_net().params,
    lambda: EncoderModel(12, 8, rng=Rng(0).stream("enc")).params,
    lambda: RecurrentPredictor(8, hidden=64, rng=Rng(0).stream("rec")).params,
], ids=["denoiser", "encoder", "recurrent"])
def test_flat_adam_matches_per_block_oracle(make):
    params = make()
    mine = {k: v.copy() for k, v in params.items()}
    state, oracle = AdamState(mine, lr=3e-3), AdamOracle(params, lr=3e-3)
    rng = Rng(5).stream("grads")
    for step in range(24):
        # Gradient scales from 1e-6 to 1e2 exercise both moments' ranges.
        grads = {k: rng.substream(step).stream(k).normal(v.shape) * 10.0 ** (step % 9 - 6)
                 for k, v in params.items()}
        adam_step(mine, grads, state)
        oracle(params, grads)
        assert all(np.array_equal(mine[k], params[k]) for k in params)
    assert all(np.array_equal(state.m[lo:hi], oracle.m[k].ravel())
               and np.array_equal(state.v[lo:hi], oracle.v[k].ravel())
               for k, lo, hi in state.blocks)


def traced_peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_inference_forward_holds_two_hidden_arrays():
    net = denoiser_net()
    rows = 2304
    x = Rng(7).normal((rows, 60))
    # Two 256-wide arrays plus the input and the output, and 64 KiB for
    # interpreter bookkeeping; the allocating forward held four.
    bound = (2 * 256 + 60 + 12) * rows * 8 + 65536
    assert traced_peak_bytes(lambda: net.forward(x)) <= bound


def test_sq_dists_holds_one_distance_array():
    n = 1000
    a = Rng(8).normal((n, 3))
    # The result, at most two 64-row blocks of norm sums, the row norms and
    # the (n, 3) squares they are summed from; the expression it replaced
    # held two n x n arrays.
    bound = (n * n + 2 * 64 * n + 2 * n + n * 3) * 8 + 65536
    assert traced_peak_bytes(lambda: sq_dists(a, a)) <= bound

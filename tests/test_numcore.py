import subprocess
import sys

import numpy as np
import pytest

from dynalign.errors import NumericError
from dynalign.numcore import (
    AdamState, Mlp, Rng, adam_step, grad_check, sinusoidal_features,
)


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
        st = AdamState(p, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
        adam_step(p, {"w": np.array([1.0])}, st)
        assert abs(p["w"][0] - (-0.1 / (1.0 + 1e-8))) < 1e-15

    def test_nonfinite_gradient_names_block(self):
        p = {"blockname": np.zeros(2)}
        st = AdamState(p)
        with pytest.raises(NumericError, match="blockname"):
            adam_step(p, {"blockname": np.array([np.nan, 0.0])}, st)

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            AdamState({"w": np.zeros(1)}, beta1=1.0)
        with pytest.raises(ValueError):
            AdamState({"w": np.zeros(1)}, eps=0.0)


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
            grads, _ = net.backward(cache, 2.0 * resid / 6)
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
        grads, dx = net.backward(cache, dout)

        hs, pre = [x], []
        for i in range(net.n_layers - 1):
            pre.append(hs[-1] @ net.params[f"w{i}"] + net.params[f"b{i}"])
            hs.append(pre[-1] * (1.0 / (1.0 + np.exp(-pre[-1]))))
        delta = dout
        for i in range(net.n_layers - 1, -1, -1):
            assert np.array_equal(grads[f"w{i}"], hs[i].T @ delta)
            assert np.array_equal(grads[f"b{i}"], delta.sum(axis=0))
            delta = delta @ net.params[f"w{i}"].T
            if i > 0:
                delta = delta * slope(pre[i - 1])
        assert np.array_equal(dx, delta)
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

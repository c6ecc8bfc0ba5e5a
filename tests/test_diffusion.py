import numpy as np
import pytest

from dynalign import diffusion, dynsim
from dynalign.diffusion import (
    DenoiserModel, ddim_invert, ddim_sample, forward_noise, invert_step,
    load_model, make_schedule, sample_step, save_model, strided_steps, train,
)
from dynalign.errors import ConfigError, NumericError
from dynalign.numcore import Rng, grad_check


def tiny_model(seed=0, D=4, T=50, hidden=(24, 24), randomize_output=False):
    model = DenoiserModel(D, T, hidden=hidden, rng=Rng(seed).stream("m"))
    if randomize_output:
        last = f"w{model.net.n_layers - 1}"
        model.net.params[last][:] = 0.1 * Rng(seed).stream("out").normal(
            model.net.params[last].shape
        )
    return model


class TestSchedule:
    def test_cumulative_product_oracle(self):
        sched = make_schedule(1000, 1e-4, 0.02)
        prod = 1.0
        for b in sched.beta:
            prod *= 1.0 - b
        assert abs(sched.alpha_bar[-1] - prod) < 1e-15
        assert sched.alpha_bar[0] == 1.0

    def test_constant_schedule_is_power(self):
        b = 0.01
        sched = make_schedule(20, b, b)
        for t in range(21):
            assert abs(sched.alpha_bar[t] - (1.0 - b) ** t) < 1e-13

    def test_strictly_decreasing(self):
        sched = make_schedule(200)
        assert np.all(np.diff(sched.alpha_bar) < 0.0)

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            make_schedule(1)
        with pytest.raises(ConfigError):
            make_schedule(10, 0.02, 1e-4)
        with pytest.raises(ConfigError):
            make_schedule(10, 0.0, 0.02)


class TestForwardNoise:
    def test_no_noise_at_step_zero(self):
        sched = make_schedule(10)
        x = Rng(0).normal(5)
        assert np.array_equal(forward_noise(x, 0, np.zeros(5), sched), x)

    def test_zero_state(self):
        sched = make_schedule(10)
        eps = Rng(1).normal(5)
        t = 7
        expect = np.sqrt(1.0 - sched.alpha_bar[t]) * eps
        assert np.allclose(forward_noise(np.zeros(5), t, eps, sched), expect, atol=1e-15)

    def test_matches_formula(self):
        sched = make_schedule(30)
        rng = Rng(2)
        x = rng.normal((4, 3))
        eps = rng.normal((4, 3))
        t = np.array([3, 11, 29, 30])
        got = forward_noise(x, t, eps, sched)
        for i in range(4):
            a = sched.alpha_bar[t[i]]
            expect = np.sqrt(a) * x[i] + np.sqrt(1 - a) * eps[i]
            assert np.max(np.abs(got[i] - expect)) < 1e-15


class TestDdimAlgebra:
    def test_zero_predictor_sampling_telescopes(self):
        # With eps == 0 the recursion collapses to z / sqrt(abar_T).
        sched = make_schedule(60)
        model = tiny_model()  # zero-init output layer predicts exactly 0
        z = Rng(3).normal((2, 4))
        out = ddim_sample(model, z, sched, 12, cond=np.zeros((2, 2)))
        assert np.max(np.abs(out - z / np.sqrt(sched.alpha_bar[60]))) < 1e-10

    def test_zero_predictor_inversion_telescopes(self):
        sched = make_schedule(60)
        model = tiny_model()
        x = Rng(4).normal((2, 4))
        z = ddim_invert(model, x, np.zeros((2, 2)), sched, 12)
        assert np.max(np.abs(z - np.sqrt(sched.alpha_bar[60]) * x)) < 1e-12

    def test_zero_predictor_cycle_is_identity(self):
        sched = make_schedule(60)
        model = tiny_model()
        x = Rng(5).normal((3, 4))
        cond = np.zeros((3, 2))
        z = ddim_invert(model, x, cond, sched, 12)
        back = ddim_sample(model, z, sched, 12, cond=cond)
        assert np.max(np.abs(back - x)) < 1e-10

    def test_unit_alpha_bar_sampling_is_identity(self):
        # A (hypothetical) noiseless schedule makes every transition a no-op.
        sched = diffusion.NoiseSchedule(
            T=10, beta=np.zeros(10), alpha_bar=np.ones(11)
        )
        model = tiny_model(T=10, randomize_output=True)
        z = Rng(11).normal((3, 4))
        cond = np.zeros((3, 2))
        out = ddim_sample(model, z, sched, 10, cond=cond)
        assert np.max(np.abs(out - z)) < 1e-12

    def test_single_step_matches_hand_formula(self):
        sched = make_schedule(50)
        rng = Rng(6)
        z = rng.normal(4)
        eps = rng.normal(4)
        t_hi, t_lo = 37, 12
        a_hi, a_lo = sched.alpha_bar[t_hi], sched.alpha_bar[t_lo]
        hand = (
            np.sqrt(a_lo) * (z - np.sqrt(1 - a_hi) * eps) / np.sqrt(a_hi)
            + np.sqrt(1 - a_lo) * eps
        )
        assert np.max(np.abs(sample_step(z, eps, t_hi, t_lo, sched) - hand)) < 1e-12
        hand_inv = (
            np.sqrt(a_hi) * (z - np.sqrt(1 - a_lo) * eps) / np.sqrt(a_lo)
            + np.sqrt(1 - a_hi) * eps
        )
        assert np.max(np.abs(invert_step(z, eps, t_lo, t_hi, sched) - hand_inv)) < 1e-12

    def test_sampling_is_deterministic(self):
        sched = make_schedule(40)
        model = tiny_model(randomize_output=True)
        z = Rng(7).normal((2, 4))
        cond = Rng(8).uniform(0, 1, (2, 2))
        a = ddim_sample(model, z, sched, 10, cond=cond)
        b = ddim_sample(model, z, sched, 10, cond=cond)
        assert np.array_equal(a, b)

    def test_strided_steps_layout(self):
        assert strided_steps(1000, 100)[:3] == [1000, 990, 980]
        assert strided_steps(1000, 100)[-1] == 10
        assert strided_steps(8, 8) == [8, 7, 6, 5, 4, 3, 2, 1]
        with pytest.raises(ConfigError):
            strided_steps(10, 11)

    @pytest.mark.parametrize("T,steps", [(1000, 100), (1000, 20), (40, 8)])
    def test_strided_steps_unchanged_when_steps_divide_T(self, T, steps):
        assert strided_steps(T, steps) == list(range(T, 0, -(T // steps)))

    @pytest.mark.parametrize("T,steps", [(1000, 300), (1000, 7), (1000, 999), (97, 13)])
    def test_strided_steps_largest_gap_is_even_share(self, T, steps):
        ts = strided_steps(T, steps)
        gaps = -np.diff(ts + [0])
        assert len(ts) == steps and ts[0] == T and np.all(gaps > 0)
        assert gaps.max() <= -(-T // steps)


def small_ds(seed=0):
    return dynsim.generate_oscillator(
        n_traj=10, frames_per_traj=16, mu_range=(0.2, 1.0), D=4, seed=seed
    )


class TestTraining:
    def test_initial_loss_near_dimension(self):
        # Zero-init output layer: loss is E||eps||^2 = D per sample.
        ds = small_ds()
        sched = make_schedule(50)
        model = tiny_model(D=4, T=50)
        data = ds.stack("train")
        rng = Rng(1)
        n = min(data["x"].shape[0], 512)
        t = rng.stream("t").integers(1, 51, size=n)
        eps = rng.stream("e").normal((n, 4))
        cond = np.stack([data["tau"][:n], data["mu"][:n]], axis=1)
        loss, _ = model.loss_and_grads(data["x"][:n], t, eps, cond, sched)
        assert abs(loss - 4.0) < 1.0

    def test_loss_grad_check(self):
        sched = make_schedule(50)
        model = tiny_model(D=4, T=50, randomize_output=True)
        rng = Rng(2)
        x0 = rng.stream("x").normal((8, 4))
        t = rng.stream("t").integers(1, 51, size=8)
        eps = rng.stream("e").normal((8, 4))
        cond = rng.stream("c").uniform(0, 1, (8, 2))
        err = grad_check(
            lambda p: model.loss_and_grads(x0, t, eps, cond, sched),
            model.params, 1e-4, max_coords=40,
        )
        assert err <= 1e-4

    def test_loss_curve_trends_down(self):
        ds = small_ds()
        sched = make_schedule(50)
        model = tiny_model(D=4, T=50, hidden=(32, 32))
        _, curve = train(model, ds, sched, epochs=10, batch=64, rng=Rng(3), lr=1e-3)
        first = np.mean(curve[:5])
        last = np.mean(curve[-5:])
        assert last < first

    def test_training_reduces_heldout_loss_majority(self):
        wins = 0
        for seed in (0, 1, 2):
            ds = small_ds(seed)
            sched = make_schedule(50)
            model = tiny_model(seed, D=4, T=50, hidden=(32, 32))
            data = ds.stack("test")
            cond = np.stack([data["tau"], data["mu"]], axis=1)
            rng = Rng(100 + seed)
            t = rng.stream("t").integers(1, 51, size=data["x"].shape[0])
            eps = rng.stream("e").normal(data["x"].shape)

            def heldout_loss():
                loss, _ = model.loss_and_grads(data["x"], t, eps, cond, sched)
                return loss

            before = heldout_loss()
            train(model, ds, sched, epochs=1, batch=64, rng=rng.stream("tr"), lr=1e-3)
            wins += heldout_loss() < before
        assert wins >= 2

    def test_nonfinite_loss_aborts_with_location(self):
        ds = small_ds()
        sched = make_schedule(50)
        model = tiny_model(D=4, T=50)
        model.net.params["w0"][0, 0] = np.nan
        with pytest.raises(NumericError, match="epoch"):
            train(model, ds, sched, epochs=1, batch=64, rng=Rng(0))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        sched = make_schedule(40)
        model = tiny_model(randomize_output=True, T=40)
        path = tmp_path / "model.bin"
        save_model(model, sched, path)
        back, back_sched = load_model(path)
        assert np.array_equal(back_sched.beta, sched.beta)
        for key, val in model.params.items():
            assert np.array_equal(back.params[key], val)
        z = Rng(0).normal((2, 4))
        cond = np.zeros((2, 2))
        assert np.array_equal(model.predict(z, 7, cond), back.predict(z, 7, cond))


class TestCycleConsistencyTrend:
    def test_error_decreases_with_steps_on_average(self):
        # Structural check on a lightly trained model: more strided steps
        # should not hurt reconstruction on average.
        ds = small_ds(4)
        sched = make_schedule(60)
        model = tiny_model(4, D=4, T=60, hidden=(32, 32))
        train(model, ds, sched, epochs=8, batch=64, rng=Rng(9), lr=1e-3)
        data = ds.stack("test")
        x = data["x"][:32]
        cond = np.stack([data["tau"][:32], data["mu"][:32]], axis=1)
        errs = []
        for steps in (10, 30, 60):
            z = ddim_invert(model, x, cond, sched, steps)
            xr = ddim_sample(model, z, sched, steps, cond=cond)
            errs.append(np.mean(np.linalg.norm(xr - x, axis=1) / np.linalg.norm(x, axis=1)))
        assert errs[-1] <= errs[0] * 1.05

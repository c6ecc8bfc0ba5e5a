import numpy as np
import pytest

from conftest import recorded_build
from dynalign import binio, diffusion, dynsim
from dynalign.diffusion import (
    DenoiserModel, ddim_invert, ddim_sample, forward_noise, invert_step,
    load_model, make_schedule, sample_step, save_model, strided_steps, train,
)
from dynalign.errors import ConfigError, FormatError, NumericError, ShapeError
from dynalign.numcore import Rng
from test_numcore import grad_check


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

    def test_sampling_requires_a_condition(self):
        # Read as a condition, None is a 1x1 NaN row that a one-component
        # denoiser broadcasts over the batch, sampling NaN; so it is required.
        sched = make_schedule(40)
        model = DenoiserModel(4, 40, hidden=(8,), rng=Rng(0).stream("m"), cond_components=1)
        with pytest.raises(TypeError):
            ddim_sample(model, Rng(1).normal((2, 4)), sched, 10)

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

    @pytest.mark.parametrize("key,shape", [("w1", (24, 20)), ("b0", (23,)), ("beta", (39,))],
                             ids=["w1", "b0", "beta"])
    def test_array_that_disagrees_with_the_metadata_is_a_format_error(self, tmp_path, key,
                                                                      shape):
        path = tmp_path / "model.bin"
        save_model(tiny_model(T=40), make_schedule(40), path)
        meta, arrays = binio.read_envelope(path, diffusion.CHECKPOINT_MAGIC)
        arrays = dict(arrays, **{key: np.zeros(shape)})
        binio.write_envelope(path, diffusion.CHECKPOINT_MAGIC, meta, arrays)
        with pytest.raises(FormatError, match=f"array '{key}' of shape"):
            load_model(path)


def block_model():
    """A denoiser of the trained shape [60 -> 256 x 4 -> 12], its output
    layer initialised in full so that every layer's bits show."""
    model = DenoiserModel(12, 1000, rng=Rng(0).stream("m"))
    model.net.params["w4"][:] = 0.1 * Rng(0).stream("out").normal((256, 12))
    return model


def full_batch_ddim(model, z, cond, sched, steps, invert):
    """DDIM as one loop over the whole batch: each step predicts every row."""
    ts = strided_steps(sched.T, steps)
    if invert:
        ascending = [0] + ts[::-1]
        for t_lo, t_hi in zip(ascending, ascending[1:]):
            z = invert_step(z, model.predict(z, t_hi, cond), t_lo, t_hi, sched)
    else:
        for t_hi, t_lo in zip(ts, ts[1:] + [0]):
            z = sample_step(z, model.predict(z, t_hi, cond), t_hi, t_lo, sched)
    return z


class TestRowBlocks:
    STEPS = 4

    def run(self, model, z, cond, sched, invert):
        if invert:
            return ddim_invert(model, z, cond, sched, self.STEPS)
        return ddim_sample(model, z, sched, self.STEPS, cond)

    @recorded_build
    @pytest.mark.parametrize("invert", [True, False], ids=["invert", "sample"])
    @pytest.mark.parametrize("n", [511, 512, 1023, 1024, 2304])
    def test_rows_equal_the_full_batch_loop(self, n, invert):
        model, sched, rng = block_model(), make_schedule(1000), Rng(n)
        z = rng.stream("z").normal((n, 12))
        cond = rng.stream("c").uniform(0, 1, (n, 2))
        want = full_batch_ddim(model, z, cond, sched, self.STEPS, invert)
        assert np.array_equal(self.run(model, z, cond, sched, invert), want)

    @recorded_build
    @pytest.mark.parametrize("invert", [True, False], ids=["invert", "sample"])
    def test_any_subset_of_512_rows_or_more_gives_the_full_batch_rows(self, invert):
        model, sched, rng = block_model(), make_schedule(1000), Rng(17)
        z = rng.stream("z").normal((2304, 12))
        cond = rng.stream("c").uniform(0, 1, (2304, 2))
        full = self.run(model, z, cond, sched, invert)
        for m in (512, 767, 1500, 2304):
            idx = rng.stream("pick").substream(m).choice(2304, size=m)   # in random order
            assert np.array_equal(self.run(model, z[idx], cond[idx], sched, invert), full[idx])

    def test_blocks_hold_512_to_1023_rows(self, monkeypatch):
        seen = []
        model, sched = tiny_model(randomize_output=True, T=40), make_schedule(40)
        forward = model.net.forward
        monkeypatch.setattr(model.net, "forward", lambda x: seen.append(len(x)) or forward(x))
        for n in (5, 1023, 1024, 2047, 2560):
            seen.clear()
            ddim_invert(model, np.zeros((n, 4)), np.zeros((n, 2)), sched, 1)
            assert sum(seen) == n
            assert all(512 <= rows <= 1023 for rows in seen) if n >= 512 else seen == [n]

    def test_state_and_condition_shapes_are_checked(self):
        model, sched = tiny_model(T=40), make_schedule(40)
        with pytest.raises(ShapeError):
            ddim_invert(model, np.zeros((3, 5)), np.zeros((3, 2)), sched, 2)
        with pytest.raises(ShapeError):
            ddim_sample(model, np.zeros((3, 4)), sched, 2, np.zeros((2, 2)))


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

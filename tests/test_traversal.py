import numpy as np
import pytest

from dynalign.errors import InputError
from dynalign.numcore import Rng, grad_check
from dynalign.traversal import (
    RecurrentPredictor, TexStencil, fit_spline, lerp, slerp, spline_traverse,
    stencil_from_window, tex_extrapolate, train_recurrent,
)


class TestFitSpline:
    def test_zero_smoothing_interpolates_knots(self):
        al = np.linspace(0, 1, 12)
        pts = np.stack([np.sin(2 * np.pi * al), np.cos(3 * al)], axis=1)
        curve = fit_spline(al, pts, 0.0)
        assert np.max(np.abs(curve.evaluate(al) - pts)) < 1e-8

    def test_line_is_reproduced_for_any_smoothing(self):
        al = np.linspace(0, 2, 15)
        pts = (3.0 * al - 1.0)[:, None]
        for lam in (0.0, 0.1, 10.0):
            curve = fit_spline(al, pts, lam)
            queries = np.linspace(0, 2, 40)
            expect = (3.0 * queries - 1.0)[:, None]
            assert np.max(np.abs(curve.evaluate(queries) - expect)) < 1e-8

    def test_quadratic_midpoint_matches_polynomial(self):
        al = np.linspace(0, 1, 30)
        pts = (2.0 * al**2 - al + 0.5)[:, None]
        curve = fit_spline(al, pts, 0.0)
        mid = 0.5 * (al[14] + al[15])
        expect = 2.0 * mid**2 - mid + 0.5
        assert abs(curve.evaluate(mid)[0] - expect) < 1e-6

    def test_residual_monotone_in_smoothing(self):
        rng = Rng(0)
        al = np.linspace(0, 1, 20)
        pts = rng.normal((20, 3))
        residuals = []
        for lam in (10.0, 1.0, 0.1, 0.01, 0.0):
            curve = fit_spline(al, pts, lam)
            residuals.append(float(np.sum((curve.evaluate(al) - pts) ** 2)))
        assert all(residuals[i + 1] <= residuals[i] + 1e-12 for i in range(4))

    def test_input_validation(self):
        with pytest.raises(InputError):
            fit_spline(np.array([0.0, 0.5, 1.0]), np.zeros((3, 2)), 0.0)
        with pytest.raises(InputError):
            fit_spline(np.array([0.0, 0.5, 0.5, 1.0]), np.zeros((4, 2)), 0.0)
        with pytest.raises(InputError):
            fit_spline(np.linspace(0, 1, 5), np.zeros((5, 2)), -1.0)


class TestSplineTraverse:
    def test_zero_increment_is_identity(self):
        al = np.linspace(0, 1, 10)
        pts = np.stack([al**2, al], axis=1)
        curve = fit_spline(al, pts, 0.0)
        out = spline_traverse(curve, 0.437, 0.0)
        assert np.allclose(out, curve.evaluate(0.437))

    def test_negative_increment_moves_backward(self):
        al = np.linspace(0, 1, 10)
        pts = al[:, None]  # monotone curve: value == alpha
        curve = fit_spline(al, pts, 0.0)
        forward = spline_traverse(curve, 0.5, 0.2)[0]
        backward = spline_traverse(curve, 0.5, -0.2)[0]
        assert backward < curve.evaluate(0.5)[0] < forward

    def test_step_to_next_knot_hits_it(self):
        al = np.linspace(0, 1, 9)
        rng = Rng(1)
        pts = rng.normal((9, 2))
        curve = fit_spline(al, pts, 0.0)
        step = al[1] - al[0]
        got = spline_traverse(curve, float(al[3]), step)
        assert np.max(np.abs(got - pts[4])) < 1e-8

    def test_boundary_cubic_continues_past_the_knots(self):
        al = np.linspace(0, 1, 8)
        curve = fit_spline(al, np.zeros((8, 1)), 0.0)
        assert np.isfinite(spline_traverse(curve, 1.0, 0.3)).all()


class TestTexExtrapolate:
    def test_linear_sequence_exact_first_order(self):
        t = np.arange(6.0)
        pts = np.stack([2.0 * t + 1.0, -0.5 * t], axis=1)
        st = stencil_from_window(pts, 1.0)
        expect = np.array([2.0 * (t[-1] + 1) + 1.0, -0.5 * (t[-1] + 1)])
        assert np.max(np.abs(tex_extrapolate(st, 1) - expect)) < 1e-12

    def test_quadratic_sequence_exact_second_order(self):
        t = np.arange(7.0)
        pts = (1.5 * t**2 - 2.0 * t + 3.0)[:, None]
        st = stencil_from_window(pts, 1.0)
        nxt = t[-1] + 1
        expect = 1.5 * nxt**2 - 2.0 * nxt + 3.0
        assert abs(tex_extrapolate(st, 2)[0] - expect) < 1e-10

    def test_cubic_taylor_remainder(self):
        # Exact derivatives of s^3 at s=0 are zero; the step-1 prediction
        # misses the true value by exactly |step|^3.
        window = (np.arange(-2.0, 1.0) ** 3)[:, None]
        st = TexStencil(points=window, spacing=1.0,
                        cdot=np.array([0.0]), cddot=np.array([0.0]))
        pred = tex_extrapolate(st, 2)[0]
        assert abs(pred - 1.0) == 1.0

    def test_window_too_short_for_second_order(self):
        with pytest.raises(InputError):
            stencil_from_window(np.zeros((2, 1)), 1.0)
        with pytest.raises(InputError):
            stencil_from_window(np.zeros((1, 2)), 1.0)

    def test_order2_beats_order1_on_smooth_trajectories(self):
        rng = Rng(2)
        err1, err2 = [], []
        for trial in range(20):
            sub = rng.substream(trial)
            freq = 1.0 + sub.uniform()
            phase = sub.uniform(0, 2 * np.pi)
            t = np.linspace(0, 1, 40)
            track = np.stack(
                [np.sin(2 * np.pi * freq * t + phase), np.cos(2 * np.pi * freq * t + phase)],
                axis=1,
            )
            for end in range(5, 39):
                st = stencil_from_window(track[end - 5 : end], t[1] - t[0])
                truth = track[end]
                err1.append(np.sum((tex_extrapolate(st, 1) - truth) ** 2))
                err2.append(np.sum((tex_extrapolate(st, 2) - truth) ** 2))
        assert np.sqrt(np.mean(err2)) <= np.sqrt(np.mean(err1))


class TestLerpSlerp:
    def test_endpoint_identities(self):
        rng = Rng(3)
        a = rng.normal(4)
        b = rng.normal(4)
        assert np.array_equal(lerp(a, b, 0.0), a)
        assert np.array_equal(lerp(a, b, 1.0), b)
        assert np.allclose(slerp(a, b, 0.0), a)
        assert np.allclose(slerp(a, b, 1.0), b)

    def test_slerp_orthogonal_midpoint(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert np.allclose(slerp(a, b, 0.5), (a + b) / np.sqrt(2.0))

    def test_slerp_zero_vector_rejected(self):
        with pytest.raises(InputError):
            slerp(np.zeros(3), np.ones(3), 0.5)

    def test_slerp_antiparallel_rejected(self):
        a = np.array([1.0, 0.0])
        with pytest.raises(InputError, match="ambiguous"):
            slerp(a, -a, 0.5)

    def test_slerp_near_parallel_falls_back_to_lerp(self):
        a = np.array([1.0, 0.0])
        b = np.array([2.0, 1e-9])
        assert np.allclose(slerp(a, b, 0.5), lerp(a, b, 0.5))

    def test_parameter_range(self):
        a, b = np.zeros(2), np.ones(2)
        with pytest.raises(InputError):
            lerp(a, b, 1.5)


class TestRecurrent:
    def test_converges_on_constant_sequences(self):
        const = np.tile([0.3, -0.7], (12, 1))
        seqs = [const.copy() for _ in range(8)]
        pred = RecurrentPredictor(2, hidden=16, rng=Rng(4))
        train_recurrent(pred, seqs, epochs=300, rng=Rng(5), lr=3e-3)
        out = pred.rollout(const[:4], 3)
        assert np.max(np.abs(out - const[0])) < 5e-2

    def test_zero_lr_keeps_parameters(self):
        pred = RecurrentPredictor(2, hidden=8, rng=Rng(6))
        before = {k: v.copy() for k, v in pred.params.items()}
        seqs = [Rng(7).normal((10, 2))]
        train_recurrent(pred, seqs, epochs=3, rng=Rng(8), lr=0.0)
        for key in before:
            assert np.array_equal(pred.params[key], before[key])

    def test_grad_check(self):
        pred = RecurrentPredictor(3, hidden=8, rng=Rng(9))
        batch = Rng(10).normal((4, 7, 3))
        err = grad_check(lambda p: pred.loss_and_grads(batch), pred.params, 1e-4,
                         max_coords=40)
        assert err <= 1e-4

    def test_short_sequence_rejected(self):
        pred = RecurrentPredictor(2, hidden=4, rng=Rng(11))
        with pytest.raises(InputError):
            pred.loss_and_grads(np.zeros((1, 2, 2)))


def test_operators_are_deterministic():
    rng = Rng(12)
    al = np.linspace(0, 1, 10)
    pts = rng.normal((10, 3))
    c1 = fit_spline(al, pts, 0.5)
    c2 = fit_spline(al, pts, 0.5)
    q = np.linspace(0, 1, 17)
    assert np.array_equal(c1.evaluate(q), c2.evaluate(q))
    st = stencil_from_window(pts[:5], 0.1)
    assert np.array_equal(tex_extrapolate(st, 2), tex_extrapolate(st, 2))

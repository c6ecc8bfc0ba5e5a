import numpy as np
import pytest

from dynalign.errors import InputError
from dynalign.numcore import Rng, grad_check
from dynalign.traversal import (
    RecurrentPredictor, _difference_operators, TexStencil, fit_spline, lerp, slerp, spline_traverse,
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

    @pytest.mark.parametrize("n", [4, 5, 12, 47])
    def test_difference_operators_equal_loop_form(self, n):
        # The per-column loop the index assignments replace, bit for bit.
        knots = np.cumsum(Rng(13).uniform(0.1, 1.0, n))
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
        got_q, got_r = _difference_operators(knots)
        assert np.array_equal(got_q, q) and np.array_equal(got_r, r)

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
        with pytest.raises(InputError):
            lerp(np.zeros((3, 2)), np.ones((3, 2)), np.array([0.0, np.nan, 1.0]))


def assert_matches_per_item(batched, per_item):
    """A batched form equals its per-item form within 1e-12 of the values'
    magnitude."""
    batched, per_item = np.asarray(batched), np.asarray(per_item)
    assert batched.shape == per_item.shape
    assert np.max(np.abs(batched - per_item)) <= 1e-12 * np.max(np.abs(per_item))


class TestBatchedForms:
    """Each operator that takes leading batch axes gives, row by row, what
    it gives one item at a time."""

    def test_lerp_with_one_parameter_per_column(self):
        rng = Rng(20)
        a, b = rng.normal((4, 6, 3)), rng.normal((4, 6, 3))
        t = np.linspace(0.0, 1.0, 6)
        loop = [[lerp(a[i, j], b[i, j], t[j]) for j in range(6)] for i in range(4)]
        assert_matches_per_item(lerp(a, b, t), loop)

    @pytest.mark.parametrize("order", [1, 2])
    def test_tex_stencils_over_window_batches(self, order):
        windows = Rng(21).normal((3, 5, 4, 2))
        batched = tex_extrapolate(stencil_from_window(windows, 0.25), order)
        loop = [[tex_extrapolate(stencil_from_window(w, 0.25), order) for w in row]
                for row in windows]
        assert_matches_per_item(batched, loop)

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_shared_knot_spline_solves_every_trajectory_at_once(self, lam):
        # Trajectories sharing the knots fit as the columns of one solve.
        rng = Rng(22)
        knots = np.delete(np.arange(12) / 11.0, 5)
        trajs = rng.normal((7, 11, 3))
        joint = fit_spline(knots, trajs.transpose(1, 0, 2).reshape(11, 21), lam)
        batched = spline_traverse(joint, 5 / 11.0, 0.0).reshape(7, 3)
        loop = [spline_traverse(fit_spline(knots, tr, lam), 5 / 11.0, 0.0) for tr in trajs]
        assert_matches_per_item(batched, loop)

    def test_stencil_rejects_a_short_batched_window(self):
        with pytest.raises(InputError):
            stencil_from_window(np.zeros((4, 2, 3)), 1.0)


def mgu_cell_oracle(p, dim, x, h):
    """One MGU step on concatenated inputs, as the per-step predictor ran it."""
    cat_f = np.concatenate([x, h], axis=1)
    with np.errstate(over="ignore"):
        f = 1.0 / (1.0 + np.exp(-(cat_f @ p["wf"] + p["bf"])))
    cat_h = np.concatenate([x, f * h], axis=1)
    g = np.tanh(cat_h @ p["wh"] + p["bh"])
    return (1.0 - f) * h + f * g, (x, h, f, g, cat_f, cat_h)


def mgu_loss_and_grads_oracle(p, dim, hidden, batch):
    """Batch-major BPTT with every weight gradient summed step by step."""
    n, S, _ = batch.shape
    h = np.zeros((n, hidden))
    caches, preds = [], []
    for t in range(S - 1):
        h, cache = mgu_cell_oracle(p, dim, batch[:, t], h)
        caches.append(cache)
        preds.append(h @ p["wo"] + p["bo"])
    resid = np.stack(preds, axis=1) - batch[:, 1:]
    norm = n * (S - 1) * dim
    loss = float(np.sum(resid * resid) / norm)
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    dh_next = np.zeros((n, hidden))
    for t in range(S - 2, -1, -1):
        x, h_prev, f, g, cat_f, cat_h = caches[t]
        h_t = (1.0 - f) * h_prev + f * g
        dy = 2.0 * resid[:, t] / norm
        grads["wo"] += h_t.T @ dy
        grads["bo"] += dy.sum(axis=0)
        dh = dy @ p["wo"].T + dh_next
        dzh = dh * f * (1.0 - g * g)
        grads["wh"] += cat_h.T @ dzh
        grads["bh"] += dzh.sum(axis=0)
        dfh = (dzh @ p["wh"].T)[:, dim:]
        df = dh * (g - h_prev) + dfh * h_prev
        dzf = df * f * (1.0 - f)
        grads["wf"] += cat_f.T @ dzf
        grads["bf"] += dzf.sum(axis=0)
        dh_next = dh * (1.0 - f) + dfh * f + (dzf @ p["wf"].T)[:, dim:]
    return loss, grads


def mgu_rollout_oracle(p, dim, hidden, context, n_steps):
    """One context (ctx, dim) at a time: warm up, then feed predictions back."""
    h = np.zeros((1, hidden))
    for t in range(context.shape[0]):
        h, _ = mgu_cell_oracle(p, dim, context[t : t + 1], h)
    out = []
    for _ in range(n_steps):
        pred = h @ p["wo"] + p["bo"]
        out.append(pred[0])
        h, _ = mgu_cell_oracle(p, dim, pred, h)
    return np.stack(out)


class TestRecurrent:
    @pytest.mark.parametrize("shape", [(1, 3, 1), (4, 7, 3), (16, 48, 8), (16, 48, 12)])
    def test_time_major_bptt_matches_per_step_oracle(self, shape):
        n, S, dim = shape
        pred = RecurrentPredictor(dim, hidden=64, rng=Rng(14))
        batch = Rng(15).normal(shape)
        loss, grads = pred.loss_and_grads(batch)
        want_loss, want = mgu_loss_and_grads_oracle(pred.params, dim, 64, batch)
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        assert grads.keys() == want.keys()
        for key in want:
            assert grads[key].shape == want[key].shape
            assert np.max(np.abs(grads[key] - want[key])) <= 1e-12 * np.max(np.abs(want[key]))

    @pytest.mark.parametrize("m", [1, 7, 144])
    def test_batched_rollout_matches_one_context_oracle(self, m):
        dim, ctx = 8, 8
        pred = RecurrentPredictor(dim, hidden=64, rng=Rng(16))
        contexts = Rng(17).normal((m, ctx, dim))
        got = pred.rollout(contexts)
        assert got.shape == (m, dim)
        want = np.stack([mgu_rollout_oracle(pred.params, dim, 64, c, 1)[0] for c in contexts])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_rollout_rejects_unbatched_context(self):
        pred = RecurrentPredictor(2, hidden=4, rng=Rng(18))
        with pytest.raises(InputError):
            pred.rollout(np.zeros((4, 2)))

    def test_converges_on_constant_sequences(self):
        const = np.tile([0.3, -0.7], (12, 1))
        seqs = [const.copy() for _ in range(8)]
        pred = RecurrentPredictor(2, hidden=16, rng=Rng(4))
        train_recurrent(pred, seqs, epochs=300, rng=Rng(5), lr=3e-3)
        out = pred.rollout(const[None, :4])[0]
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

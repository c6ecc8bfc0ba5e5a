import numpy as np
import pytest

from dynalign.errors import InputError
from dynalign.metrics import (
    _window_sums, procrustes_distance, psnr, rmse, ssim, total_abs_error,
)
from dynalign.numcore import Rng


class TestRmse:
    def test_identical(self):
        x = Rng(0).normal((4, 3))
        assert rmse(x, x) == 0.0

    def test_constant_offset(self):
        x = Rng(1).normal((5, 2))
        assert abs(rmse(x + 0.25, x) - 0.25) < 1e-12

    def test_matches_direct_summation(self):
        rng = Rng(2)
        a = rng.normal((6, 4))
        b = rng.normal((6, 4))
        direct = 0.0
        for i in range(6):
            for j in range(4):
                direct += (a[i, j] - b[i, j]) ** 2
        assert abs(rmse(a, b) - np.sqrt(direct / 24)) < 1e-12

    def test_mismatch(self):
        with pytest.raises(InputError):
            rmse(np.zeros((2, 2)), np.zeros((3, 2)))


class TestPsnr:
    def test_identical_hits_cap(self):
        img = Rng(0).uniform(0, 1, (8, 8))
        assert psnr(img, img, 1.0) == 100.0

    def test_mse_equal_to_peak_squared_is_zero_db(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 2.0)
        assert abs(psnr(a, b, 2.0)) < 1e-12

    def test_known_value(self):
        # MSE 1 with peak 255: 20 log10(255) dB.
        a = np.zeros((10, 10))
        b = np.ones((10, 10))
        assert abs(psnr(a, b, 255.0) - 20.0 * np.log10(255.0)) < 1e-10

    def test_symmetry(self):
        rng = Rng(3)
        a = rng.uniform(0, 1, (8, 8))
        b = rng.uniform(0, 1, (8, 8))
        assert psnr(a, b) == psnr(b, a)


def ssim_double_loop(a, b, L=1.0, w=8):
    c1 = (0.01 * L) ** 2
    c2 = (0.03 * L) ** 2
    vals = []
    for i in range(a.shape[0] - w + 1):
        for j in range(a.shape[1] - w + 1):
            pa = a[i : i + w, j : j + w].ravel()
            pb = b[i : i + w, j : j + w].ravel()
            ma, mb = pa.mean(), pb.mean()
            va = np.mean(pa * pa) - ma * ma
            vb = np.mean(pb * pb) - mb * mb
            cov = np.mean(pa * pb) - ma * mb
            vals.append(
                ((2 * ma * mb + c1) * (2 * cov + c2))
                / ((ma**2 + mb**2 + c1) * (va + vb + c2))
            )
    return float(np.mean(vals))


class TestSsim:
    def test_identical_is_one(self):
        img = Rng(0).uniform(0, 1, (12, 12))
        assert abs(ssim(img, img) - 1.0) < 1e-12

    def test_negated_content_goes_negative(self):
        rng = Rng(5)
        a = 0.5 + 0.4 * np.sin(np.outer(np.arange(16), np.arange(16)))
        b = 1.0 - a
        assert ssim(a, b) < 0.0

    def test_matches_double_loop_oracle(self):
        rng = Rng(6)
        a = rng.uniform(0, 1, (16, 16))
        b = np.clip(a + 0.1 * rng.normal((16, 16)), 0, 1)
        assert abs(ssim(a, b) - ssim_double_loop(a, b)) < 1e-10

    def test_symmetry(self):
        rng = Rng(7)
        a = rng.uniform(0, 1, (9, 9))
        b = rng.uniform(0, 1, (9, 9))
        assert abs(ssim(a, b) - ssim(b, a)) < 1e-10

    def test_too_small_image(self):
        with pytest.raises(InputError):
            ssim(np.zeros((4, 4)), np.zeros((4, 4)))

    @pytest.mark.parametrize("shape,w", [((8, 8), 8), ((16, 16), 8), ((13, 21), 5)])
    def test_window_sums_equal_padded_cumsum(self, shape, w):
        # The pad-based form the zero-bordered table replaces, bit for bit.
        img = Rng(8).uniform(0, 1, shape)
        c = np.pad(np.cumsum(np.cumsum(img, axis=0), axis=1), ((1, 0), (1, 0)))
        expect = c[w:, w:] - c[:-w, w:] - c[w:, :-w] + c[:-w, :-w]
        assert np.array_equal(_window_sums(img, w), expect)


class TestTotalAbsError:
    def test_identical_is_zero(self):
        t = [Rng(0).normal((5, 2))]
        taes, mean, std = total_abs_error(t, [t[0].copy()])
        assert taes[0] == 0.0 and mean == 0.0 and std == 0.0

    def test_single_entry_off_by_one(self):
        a = np.zeros((4, 3))
        b = a.copy()
        b[2, 1] = 1.0
        taes, mean, _ = total_abs_error([a], [b])
        assert taes[0] == 1.0 and mean == 1.0

    def test_matches_summation_oracle(self):
        rng = Rng(8)
        preds = [rng.substream(i).normal((6, 2)) for i in range(3)]
        truths = [rng.substream(10 + i).normal((6, 2)) for i in range(3)]
        taes, mean, std = total_abs_error(preds, truths)
        expect = np.array([np.abs(p - t).sum() for p, t in zip(preds, truths)])
        assert np.allclose(taes, expect)
        assert abs(mean - expect.mean()) < 1e-12
        assert abs(std - expect.std()) < 1e-12

    def test_rmse_tae_inequality(self):
        rng = Rng(9)
        a = rng.normal((20, 3))
        b = rng.normal((20, 3))
        err = rmse(a, b)
        taes, _, _ = total_abs_error([a], [b])
        n = a.size
        assert err**2 * n <= np.max(np.abs(a - b)) * taes[0] + 1e-9


def rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


def procrustes_grid_oracle(a, b):
    """Brute-force Procrustes disparity: the least squared residual of the
    centred unit-norm `a` against the centred unit-norm `b` rotated by each
    angle of a 1e-5 rad grid over [0, 2pi), at its optimal non-negative scale
    (for unit norms, the inner product). The grid is scored 65536 angles at a
    time: `rotation(t).T` of an angle vector stacks each angle's R.T."""
    ac = a - a.mean(axis=0)
    bc = b - b.mean(axis=0)
    ac /= np.linalg.norm(ac)
    bc /= np.linalg.norm(bc)
    thetas = np.arange(0.0, 2 * np.pi, 1e-5)
    best = np.inf
    for start in range(0, thetas.size, 65536):
        rotated = bc @ rotation(thetas[start:start + 65536]).T
        scale = np.maximum(np.sum(rotated * ac, axis=(1, 2)), 0.0)
        resid = np.sum((ac - scale[:, None, None] * rotated) ** 2, axis=(1, 2))
        best = min(best, float(resid.min()))
    return best


class TestProcrustes:
    def test_identical_is_zero(self):
        pts = Rng(0).normal((6, 2))
        assert procrustes_distance(pts, pts) < 1e-12

    def test_similarity_invariance(self):
        pts = Rng(1).normal((7, 2))
        moved = 2.5 * pts @ rotation(0.7).T + np.array([3.0, -1.0])
        assert procrustes_distance(pts, moved) < 1e-10

    def test_matches_grid_search_oracle(self):
        rng = Rng(2)
        a = rng.normal((5, 2))
        b = rng.normal((5, 2))
        got = procrustes_distance(a, b)

        assert abs(got - procrustes_grid_oracle(a, b)) < 1e-6

    def test_symmetry(self):
        rng = Rng(3)
        a = rng.normal((6, 3))
        b = rng.normal((6, 3))
        assert abs(procrustes_distance(a, b) - procrustes_distance(b, a)) < 1e-10

    def test_reflection_not_allowed(self):
        pts = Rng(4).normal((8, 2))
        flipped = pts @ np.diag([1.0, -1.0])
        assert procrustes_distance(pts, flipped) > 1e-3

    def test_zero_variance_rejected(self):
        with pytest.raises(InputError):
            procrustes_distance(np.ones((4, 2)), Rng(0).normal((4, 2)))

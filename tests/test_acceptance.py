"""Acceptance suite: every criterion at its stated tolerance, one PASS/FAIL
line each. Three seeded pipelines back the directional criteria; their
artifacts are cached per session, and majority vote (2 of 3) decides the
directional checks."""

import dataclasses
import glob
import hashlib
import json

import numpy as np
import pytest

from conftest import SEEDS
from dynalign import analysis, contrastive, diffusion, harness, lifting, metrics, traversal
from dynalign.numcore import Rng, grad_check

TINY_DOC = {
    "seed": 3,
    "render_grid": 16,
    "dataset": {"n_traj": 10, "frames_per_traj": 24, "mu_range": [0.2, 1.0], "state_dim": 6},
    "diffusion": {"T": 40, "steps": 8, "hidden": [32, 32], "epochs": 2, "batch": 64},
    "embedding": {"d": 3, "hidden": [24, 24], "epochs": 5, "traj_per_batch": 6, "window": 6},
    "traversal": {"keyframe_stride": 8, "tex_window": 4, "context": 5,
                   "target_stride": 5, "render_targets_per_traj": 1,
                   "recurrent_hidden": 12, "recurrent_epochs": 5},
    "lifting": {"k_grid": [1, 3]},
    "analysis": {"svm_steps": 2000, "folds": 3, "frames_per_traj_class": 6,
                  "kde_frames_per_class": 40},
}


def report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_gradient_correctness():
    """grad_check <= 1e-4 for the diffusion, contrastive, and recurrent
    losses at 5 random parameter points each."""
    worst = {"diffusion": 0.0, "infonce": 0.0, "recurrent": 0.0}
    for point in range(5):
        rng = Rng(1000 + point)
        sched = diffusion.make_schedule(60)
        model = diffusion.DenoiserModel(4, 60, hidden=(24, 24),
                                        rng=rng.stream("dnz"), cond_components=1)
        last = f"w{model.net.n_layers - 1}"
        model.net.params[last][:] = 0.1 * rng.stream("out").normal(
            model.net.params[last].shape)
        x0 = rng.stream("x0").normal((8, 4))
        t = rng.stream("t").integers(1, 61, size=8)
        eps = rng.stream("eps").normal((8, 4))
        cond = rng.stream("cond").uniform(0, 1, (8, 1))
        worst["diffusion"] = max(worst["diffusion"], grad_check(
            lambda p: model.loss_and_grads(x0, t, eps, cond, sched),
            model.params, 1e-4, max_coords=25, rng=rng.stream("probe-d")))

        enc = contrastive.EncoderModel(5, 3, hidden=(16, 16), rng=rng.stream("enc"))
        z = rng.stream("z").normal((12, 5))
        pos = [np.array([(i + 1) % 12, (i + 5) % 12]) for i in range(12)]
        worst["infonce"] = max(worst["infonce"], grad_check(
            lambda p: contrastive.batch_loss_and_grads(enc, z, pos, 1.0),
            enc.params, 1e-4, max_coords=25, rng=rng.stream("probe-c")))

        pred = traversal.RecurrentPredictor(3, hidden=8, rng=rng.stream("rec"))
        batch = rng.stream("seq").normal((4, 7, 3))
        worst["recurrent"] = max(worst["recurrent"], grad_check(
            lambda p: pred.loss_and_grads(batch),
            pred.params, 1e-4, max_coords=25, rng=rng.stream("probe-r")))
    ok = all(v <= 1e-4 for v in worst.values())
    report(1, ok, f"max rel errors {({k: float(f'{v:.2e}') for k, v in worst.items()})}")


def test_criterion_2_ddim_algebra():
    """Zero predictor: invert->sample identity <= 1e-10; single transitions
    match hand-evaluated recursions <= 1e-12."""
    sched = diffusion.make_schedule(1000)
    model = diffusion.DenoiserModel(6, 1000, hidden=(16,), rng=Rng(0),
                                    cond_components=1)  # zero-init output
    x = Rng(1).normal((4, 6))
    cond = np.zeros((4, 1))
    z = diffusion.ddim_invert(model, x, cond, sched, 100)
    back = diffusion.ddim_sample(model, z, sched, 100, cond=cond)
    cycle_err = float(np.max(np.abs(back - x)))

    rng = Rng(2)
    zz = rng.normal(6)
    eps = rng.normal(6)
    t_hi, t_lo = 730, 410
    a_hi, a_lo = sched.alpha_bar[t_hi], sched.alpha_bar[t_lo]
    hand_s = np.sqrt(a_lo) * (zz - np.sqrt(1 - a_hi) * eps) / np.sqrt(a_hi) \
        + np.sqrt(1 - a_lo) * eps
    hand_i = np.sqrt(a_hi) * (zz - np.sqrt(1 - a_lo) * eps) / np.sqrt(a_lo) \
        + np.sqrt(1 - a_hi) * eps
    step_err = max(
        float(np.max(np.abs(diffusion.sample_step(zz, eps, t_hi, t_lo, sched) - hand_s))),
        float(np.max(np.abs(diffusion.invert_step(zz, eps, t_lo, t_hi, sched) - hand_i))),
    )
    ok = cycle_err <= 1e-10 and step_err <= 1e-12
    report(2, ok, f"cycle {cycle_err:.2e}, single-step {step_err:.2e}")


@pytest.mark.slow
def test_criterion_3_cycle_consistency(pipelines):
    """Trained model (T=1000, 100 strided steps): mean relative L2
    reconstruction error over 100 test frames <= 0.1."""
    run = pipelines[SEEDS[0]]
    ds, model, sched = run["ds"], run["model"], run["sched"]
    test = ds.stack("test")
    sel = np.arange(test["x"].shape[0])[:: max(1, test["x"].shape[0] // 100)][:100]
    x = test["x"][sel]
    cond = diffusion.condition_columns(test["tau"][sel], test["mu"][sel],
                                       model.cond_components)
    z = diffusion.ddim_invert(model, x, cond, sched, 100)
    back = diffusion.ddim_sample(model, z, sched, 100, cond=cond)
    rel = np.linalg.norm(back - x, axis=1) / np.linalg.norm(x, axis=1)
    mean_err = float(rel.mean())
    report(3, mean_err <= 0.1, f"mean relative error {mean_err:.4f} over {len(sel)} frames")


def test_criterion_4_traversal_exactness():
    """Spline lam=0 interpolates knots <= 1e-8; TEX-1 exact on linear
    <= 1e-12; TEX-2 exact on quadratic <= 1e-10; lerp/slerp endpoints."""
    al = np.linspace(0, 1, 14)
    pts = np.stack([np.sin(5 * al), al**3], axis=1)
    curve = traversal.fit_spline(al, pts, 0.0)
    spline_err = float(np.max(np.abs(curve.evaluate(al) - pts)))

    t = np.arange(6.0)
    lin = np.stack([3.0 * t - 2.0, 0.5 * t], axis=1)
    st = traversal.stencil_from_window(lin, 1.0)
    tex1_err = float(np.max(np.abs(
        traversal.tex_extrapolate(st, 1) - np.array([3.0 * 6 - 2.0, 0.5 * 6]))))
    quad = (0.7 * t**2 - t + 2.0)[:, None]
    st2 = traversal.stencil_from_window(quad, 1.0)
    tex2_err = float(abs(traversal.tex_extrapolate(st2, 2)[0] - (0.7 * 36 - 6 + 2.0)))

    rng = Rng(3)
    a, b = rng.normal(5), rng.normal(5)
    ends_ok = (
        np.array_equal(traversal.lerp(a, b, 0.0), a)
        and np.array_equal(traversal.lerp(a, b, 1.0), b)
        and np.allclose(traversal.slerp(a, b, 0.0), a, atol=1e-12)
        and np.allclose(traversal.slerp(a, b, 1.0), b, atol=1e-12)
    )
    ok = spline_err <= 1e-8 and tex1_err <= 1e-12 and tex2_err <= 1e-10 and ends_ok
    report(4, ok, f"spline {spline_err:.2e}, tex1 {tex1_err:.2e}, tex2 {tex2_err:.2e}")


@pytest.mark.slow
def test_criterion_5_traversal_ordering(pipelines):
    """Directional Table-style ordering, majority over three seeds:
    (a) TEX-2 and spline <= 0.5x lerp in C; (b) TEX-1 better in C than Z
    (normalized); (c) lerp/slerp never the best method in either space."""
    votes_a = votes_b = votes_c = 0
    details = []
    for seed in SEEDS:
        vals = pipelines[seed]["rows"]
        a = (vals[("C", "tex2", "rmse")] <= 0.5 * vals[("C", "lerp", "rmse")]
             and vals[("C", "spline", "rmse")] <= 0.5 * vals[("C", "lerp", "rmse")])
        b = vals[("C", "tex1", "rmse_norm")] < vals[("Z", "tex1", "rmse_norm")]

        def best(space):
            methods = ["lerp", "slerp", "recurrent", "tex1", "tex2"]
            if space != "Z":
                methods.append("spline")
            return min(methods, key=lambda m: vals[(space, m, "rmse")])

        c = best("Z") not in ("lerp", "slerp") and best("C") not in ("lerp", "slerp")
        votes_a += a
        votes_b += b
        votes_c += c
        details.append(f"seed{seed}:a={a},b={b},c={c}")
    ok = votes_a >= 2 and votes_b >= 2 and votes_c >= 2
    report(5, ok, "; ".join(details))


def test_criterion_6_knn_lifting():
    """Weights sum to one <= 1e-12; k=1 at a reference returns the stored
    latent exactly; select_k matches the exhaustive grid oracle."""
    rng = Rng(4)
    c = rng.stream("c").uniform(-1, 1, (50, 2))
    z = np.stack([np.sin(2 * c[:, 0]), c[:, 0] * c[:, 1], np.cos(c[:, 1])], axis=1)
    z += 0.05 * rng.stream("n").normal(z.shape)
    table = lifting.build_table(c[:35], z[:35], lifting.LiftingConfig(kernel="gaussian"))

    _, w, _ = lifting.lift_many(table, rng.stream("q").normal((20, 2)),
                                return_weights=True)
    weight_err = float(np.max(np.abs(w.sum(axis=1) - 1.0)))
    exact = np.array_equal(lifting.lift(table, c[3], k=1), z[3])

    grid = [1, 2, 3, 5, 8]
    got = lifting.select_k(table, grid, c[35:], z[35:])
    errs = {k: metrics.rmse(lifting.lift_many(table, c[35:], k=k), z[35:]) for k in grid}
    oracle = min(sorted(errs), key=lambda k: errs[k])
    ok = weight_err <= 1e-12 and exact and got == oracle
    report(6, ok, f"weight sum err {weight_err:.1e}, k*={got} (oracle {oracle})")


def test_criterion_7_infonce_oracle():
    """Batch loss matches the brute-force double loop <= 1e-12 on 20 random
    batches; translation invariance <= 1e-12."""
    rng = Rng(5)
    worst = 0.0
    worst_shift = 0.0
    for trial in range(20):
        sub = rng.substream(trial)
        n = int(6 + sub.integers(0, 5))
        c = sub.normal((n, 3))
        pos = []
        for i in range(n):
            k = int(1 + sub.integers(0, 3))
            cand = [j for j in range(n) if j != i]
            pick = sub.choice(len(cand), size=min(k, len(cand)))
            pos.append(np.array([cand[int(j)] for j in pick]))
        tau = 0.5 + sub.uniform()
        loss, _ = contrastive.infonce_loss(contrastive.ContrastiveBatch(c, pos, tau))

        sims = -((c[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        total, count = 0.0, 0
        for i, p in enumerate(pos):
            if len(p) == 0:
                continue
            denom = sum(np.exp(sims[i, a] / tau) for a in range(n) if a != i)
            inner = sum(np.log(np.exp(sims[i, q] / tau) / denom) for q in p)
            total += -inner / len(p)
            count += 1
        worst = max(worst, abs(loss - total / count))

        shifted, _ = contrastive.infonce_loss(
            contrastive.ContrastiveBatch(c + sub.normal(3), pos, tau))
        worst_shift = max(worst_shift, abs(loss - shifted))
    ok = worst <= 1e-12 and worst_shift <= 1e-12
    report(7, ok, f"oracle gap {worst:.1e}, translation gap {worst_shift:.1e}")


@pytest.mark.slow
def test_criterion_8_classification(pipelines):
    """SVM-RBF F1 and AUC in C >= Z (majority over seeds, leave-regime-band
    folds); a separable sanity dataset reaches accuracy 1.0."""
    votes = 0
    details = []
    for seed in SEEDS:
        run = pipelines[seed]
        emb = dataclasses.replace(run["cfg"].embedding, class_match=True)
        enc = harness.stage_encoder(run["ws"], run["ds"], run["z_all"], emb,
                                    tag="encoder-classify")
        _, results = harness.classification_metrics(
            run["cfg"], run["ds"], run["z_all"], enc,
            Rng(seed).stream("classify"))
        good = (results[("C", "rbf")]["f1"] >= results[("Z", "rbf")]["f1"]
                and results[("C", "rbf")]["auc"] >= results[("Z", "rbf")]["auc"])
        votes += good
        details.append(
            f"seed{seed}: C f1={results[('C', 'rbf')]['f1']:.3f}"
            f"/auc={results[('C', 'rbf')]['auc']:.3f} vs"
            f" Z f1={results[('Z', 'rbf')]['f1']:.3f}"
            f"/auc={results[('Z', 'rbf')]['auc']:.3f}")

    rng = Rng(6)
    x = np.concatenate([rng.stream("a").normal((60, 2)),
                        rng.stream("b").normal((60, 2)) + np.array([9.0, 0.0])])
    y = np.repeat([0, 1], 60)
    model = analysis.train_svm(x, y, analysis.SvmConfig(kernel="rbf", steps=20000),
                               rng.stream("svm"))
    sanity = analysis.svm_score(y, analysis.svm_decision(model, x))["accuracy"]
    ok = votes >= 2 and sanity == 1.0
    report(8, ok, f"votes {votes}/3, sanity accuracy {sanity}; " + "; ".join(details))


def test_criterion_9_kde_traversal():
    """Endpoint identities exact; density-difference antisymmetry exact;
    peaks within one grid cell of analytic mixture modes."""
    rng = Rng(7)
    a = 0.25 * rng.stream("a").normal((500, 2))
    b = np.array([3.0, -1.5]) + 0.25 * rng.stream("b").normal((500, 2))
    model = analysis.kde_fit(a, b, h=0.3)
    ends_ok = (np.array_equal(analysis.kde_traverse(model, 0.0), model.m_class0)
               and np.array_equal(analysis.kde_traverse(model, 1.0), model.m_class1))
    swapped = analysis.kde_fit(b, a, h=0.3)
    anti = float(np.max(np.abs(model.delta + swapped.delta)))
    cell = max(ax[1] - ax[0] for ax in model.axes)
    loc = max(float(np.linalg.norm(model.m_class0 - a.mean(axis=0))),
              float(np.linalg.norm(model.m_class1 - b.mean(axis=0))))
    ok = ends_ok and anti == 0.0 and loc <= np.sqrt(2.0) * cell
    report(9, ok, f"antisymmetry {anti:.1e}, peak offset {loc:.3f} (cell {cell:.3f})")


@pytest.mark.slow
def test_criterion_10_orthogonality(pipelines):
    """|cos(beta_tau, beta_mu)| lower in C than in Z, majority over seeds."""
    votes = 0
    details = []
    for seed in SEEDS:
        run = pipelines[seed]
        enc = harness.stage_encoder(
            run["ws"], run["ds"], run["z_all"],
            harness.probe_embedding_config(run["cfg"]), tag="encoder-probe",
        )
        values = harness.orthogonality_values(run["cfg"], run["ds"], run["z_all"], enc)
        votes += values["C"] < values["Z"]
        details.append(f"seed{seed}: C={values['C']:.4f} Z={values['Z']:.4f}")
    ok = votes >= 2
    report(10, ok, f"votes {votes}/3; " + "; ".join(details))


def test_criterion_11_metric_oracles():
    """PSNR/SSIM/RMSE/TAE/Procrustes against brute-force references and
    their symmetry/invariance properties."""
    rng = Rng(8)
    a = rng.stream("a").uniform(0, 1, (16, 16))
    b = np.clip(a + 0.05 * rng.stream("b").normal((16, 16)), 0, 1)

    mse = float(np.mean((a - b) ** 2))
    psnr_err = abs(metrics.psnr(a, b, 1.0) - 10 * np.log10(1.0 / mse))

    from test_metrics import ssim_double_loop
    ssim_err = abs(metrics.ssim(a, b) - ssim_double_loop(a, b))

    p = rng.stream("p").normal((10, 3))
    q = rng.stream("q").normal((10, 3))
    rmse_err = abs(metrics.rmse(p, q) - np.sqrt(np.mean((p - q) ** 2)))
    taes, _, _ = metrics.total_abs_error([p], [q])
    tae_err = abs(taes[0] - np.abs(p - q).sum())

    s1 = rng.stream("s1").normal((5, 2))
    s2 = rng.stream("s2").normal((5, 2))
    got = metrics.procrustes_distance(s1, s2)
    c1 = s1 - s1.mean(axis=0)
    c2 = s2 - s2.mean(axis=0)
    c1 /= np.linalg.norm(c1)
    c2 /= np.linalg.norm(c2)
    best = np.inf
    for theta in np.arange(0.0, 2 * np.pi, 1e-5):
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        r = c2 @ rot.T
        scale = max(float(np.sum(r * c1)), 0.0)
        best = min(best, float(np.sum((c1 - scale * r) ** 2)))
    proc_err = abs(got - best)

    sym = (abs(metrics.psnr(a, b) - metrics.psnr(b, a)) <= 1e-10
           and abs(metrics.ssim(a, b) - metrics.ssim(b, a)) <= 1e-10
           and abs(metrics.procrustes_distance(s1, s2)
                   - metrics.procrustes_distance(s2, s1)) <= 1e-10)
    rot = np.array([[np.cos(0.9), -np.sin(0.9)], [np.sin(0.9), np.cos(0.9)]])
    invar = abs(metrics.procrustes_distance(s1, 2.0 * s2 @ rot.T + 1.5)
                - metrics.procrustes_distance(s1, s2)) <= 1e-10
    ok = (psnr_err <= 1e-10 and ssim_err <= 1e-10 and rmse_err <= 1e-12
          and tae_err <= 1e-12 and proc_err <= 1e-5 and sym and invar)
    report(11, ok, f"psnr {psnr_err:.1e}, ssim {ssim_err:.1e}, proc {proc_err:.1e}")


@pytest.mark.slow
def test_criterion_12_determinism(tmp_path):
    """Two fresh pipeline runs with one config produce byte-identical CSV
    and PGM outputs."""
    def run(sub):
        cfg = harness.config_from_dict(json.loads(json.dumps(TINY_DOC)))
        res = harness.cmd_pipeline(cfg, str(tmp_path / sub))
        digests = {}
        for path in sorted(glob.glob(res["run_dir"] + "/**/*", recursive=True)):
            if path.endswith((".csv", ".pgm")):
                rel = path.split(sub, 1)[1]
                digests[rel] = hashlib.sha256(open(path, "rb").read()).hexdigest()
        return digests

    d1 = run("a")
    d2 = run("b")
    ok = d1 == d2 and len(d1) >= 2
    report(12, ok, f"{len(d1)} artifacts compared")

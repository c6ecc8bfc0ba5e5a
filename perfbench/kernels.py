"""Kernel microbenchmarks at the production shapes of the default config.

Run as a script so the BLAS thread count is fixed before numpy loads:

    OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python3 perfbench/kernels.py
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/kernels.py --single-thread

The first form times every kernel at the BLAS thread count of its
environment. The second times only the MLP kernels and the GEMM peak, at one
BLAS thread, under names ending in `_t1`.

The last stdout line is a JSON object of metric name -> value. FLOP counts
are computed from the shapes (2 flops per multiply-add of each GEMM), not
measured; `_gflops` is that count over the measured median time.
"""

import argparse
import json
import os
import statistics
import sys
import time

# Shapes of the default config (see `dynalign config-schema`): the denoiser
# sees 12 state + 32 time + 16 condition features; batch 6720 is every frame
# of the acceptance dataset (140 x 48), batch 128 a diffusion training batch.
DENOISER_BATCHES = (128, 6720)
CONTRASTIVE_TRAJ, CONTRASTIVE_WINDOW, EMBED_DIM = 16, 8, 8
MGU_SHAPE = (16, 48, 8)
SVM_POINTS, SVM_DIM = 2000, 8
SVM_STEPS = (2000, 6000)
GEMM_N = 1024


def median_time(fn, min_reps=3, min_seconds=0.2, max_reps=200):
    """Median seconds per call, after one warm-up call."""
    fn()
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or (time.perf_counter() - start < min_seconds
                                    and len(times) < max_reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def denoiser():
    from dynalign import diffusion, harness
    from dynalign.numcore import Rng

    dc = harness.ExperimentConfig().diffusion
    model = diffusion.DenoiserModel(12, dc.T, hidden=tuple(dc.hidden),
                                    rng=Rng(0).stream("init"),
                                    cond_components=len(dc.condition_on))
    sched = diffusion.make_schedule(dc.T, dc.beta_start, dc.beta_end)
    return model, sched


def mlp_flops(dims, batch):
    """Forward-pass flops of a dense MLP: 2 * batch * sum(fan_in * fan_out)."""
    return 2 * batch * sum(a * b for a, b in zip(dims[:-1], dims[1:]))


def mlp_kernels(suffix):
    from dynalign.numcore import Rng

    model, _ = denoiser()
    net = model.net
    out = {}
    for batch in DENOISER_BATCHES:
        x = Rng(1).stream("x").normal((batch, net.dims[0]))
        dout = Rng(1).stream("d").normal((batch, net.dims[-1]))
        _, cache = net.forward(x, want_cache=True)
        fwd = median_time(lambda: net.forward(x, want_cache=True))
        bwd = median_time(lambda: net.backward(cache, dout))
        flops = mlp_flops(net.dims, batch)
        out[f"numcore.kernel.mlp_fwd_b{batch}{suffix}_ms"] = 1e3 * fwd
        out[f"numcore.kernel.mlp_bwd_b{batch}{suffix}_ms"] = 1e3 * bwd
        out[f"numcore.kernel.mlp_fwd_b{batch}{suffix}_gflops"] = flops / fwd / 1e9
        out[f"numcore.kernel.mlp_bwd_b{batch}{suffix}_gflops"] = 2 * flops / bwd / 1e9
    a = Rng(2).stream("a").normal((GEMM_N, GEMM_N))
    b = Rng(2).stream("b").normal((GEMM_N, GEMM_N))
    a @ b
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    out[f"numcore.kernel.gemm_peak{suffix}_gflops"] = 2 * GEMM_N**3 / best / 1e9
    return out


def other_kernels():
    import numpy as np
    from dynalign import analysis, contrastive, diffusion, numcore, traversal
    from dynalign.numcore import Rng

    out = {}
    model, sched = denoiser()
    grads = {k: Rng(3).stream(k).normal(v.shape) * 1e-3 for k, v in model.params.items()}
    state = numcore.AdamState(model.params)
    out["numcore.kernel.adam_denoiser_ms"] = 1e3 * median_time(
        lambda: numcore.adam_step(model.params, grads, state))

    frames = np.arange(CONTRASTIVE_WINDOW) / 47.0
    taus = np.concatenate([frames + 0.1 * j for j in range(CONTRASTIVE_TRAJ)]) % 1.0
    mus = np.repeat(np.linspace(0.2, 1.0, CONTRASTIVE_TRAJ), CONTRASTIVE_WINDOW)
    traj = np.repeat(np.arange(CONTRASTIVE_TRAJ), CONTRASTIVE_WINDOW)
    out["contrastive.kernel.build_positives_b128_ms"] = 1e3 * median_time(
        lambda: contrastive.build_positives(taus, mus, 2.0 / 47.0, traj_ids=traj))
    positives = contrastive.build_positives(taus, mus, 2.0 / 47.0, traj_ids=traj)
    emb = Rng(4).stream("c").normal((taus.size, EMBED_DIM))
    batch = contrastive.ContrastiveBatch(emb, positives, 1.0)
    out["contrastive.kernel.infonce_b128_ms"] = 1e3 * median_time(
        lambda: contrastive.infonce_loss(batch))

    n, s, d = MGU_SHAPE
    rec = traversal.RecurrentPredictor(d, hidden=64, rng=Rng(5).stream("init"))
    seqs = Rng(5).stream("x").normal((n, s, d))
    out["traversal.kernel.mgu_bptt_16x48x8_ms"] = 1e3 * median_time(
        lambda: rec.loss_and_grads(seqs))

    for batch in (6720, 1):
        z = Rng(6).stream("z").normal((batch, model.state_dim))
        cond = Rng(6).stream("y").uniform(0.0, 1.0, (batch, model.cond_components))

        def step():
            eps = model.predict(z, 500, cond)
            return diffusion.sample_step(z, eps, 500, 490, sched)

        out[f"diffusion.kernel.ddim_step_b{batch}_ms"] = 1e3 * median_time(step)
    out["diffusion.kernel.ddim_step_b6720_gflops"] = (
        mlp_flops(model.net.dims, 6720) / out["diffusion.kernel.ddim_step_b6720_ms"] / 1e6)

    x = Rng(7).stream("x").normal((SVM_POINTS, SVM_DIM))
    y = (x[:, 0] + 0.3 * x[:, 1] > 0).astype(np.int64)
    for kernel in ("linear", "rbf"):
        per_run = []
        for steps in SVM_STEPS:
            cfg = analysis.SvmConfig(kernel=kernel, lam=1e-4, steps=steps,
                                     max_points=SVM_POINTS)
            per_run.append(median_time(
                lambda: analysis.train_svm(x, y, cfg, Rng(8).stream("svm")), min_reps=3))
        per_step = (per_run[1] - per_run[0]) / (SVM_STEPS[1] - SVM_STEPS[0])
        out[f"analysis.kernel.pegasos_{kernel}_us_per_step"] = 1e6 * per_step
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--single-thread", action="store_true",
                        help="time the MLP kernels and GEMM peak at one BLAS thread")
    args = parser.parse_args(argv)
    if args.single_thread and os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        print("set OPENBLAS_NUM_THREADS=1 before starting", file=sys.stderr)
        return 2
    out = mlp_kernels("_t1" if args.single_thread else "")
    if not args.single_thread:
        out.update(other_kernels())
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

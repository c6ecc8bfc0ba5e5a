"""dynalign benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload pipeline-cold --seed 0 --seconds 15 --trace 0

Run from the repository root (it must hold `src/dynalign`). With `--trace 0`
the workload's commands run as a user runs them, through the `dynalign` CLI,
and the end-to-end metrics are reported. With `--trace 1` the same commands
run in this process, once untraced and once with a span around every call
into each package module, and the per-layer metrics are reported together
with the kernel microbenchmarks. Either way every output is checked, and
the last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

See perfbench/README.md for the workloads, the metrics and the layer map.
"""

import argparse
import compileall
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_build", "perfbench")

# One closed-loop client on every core: BLAS uses as many threads as this
# process may run on, fixed here so the caller's environment does not change
# it. Set before numpy is imported (the traced run imports it in process).
THREADS = len(os.sched_getaffinity(0))
RUN_ENV = {
    "OPENBLAS_NUM_THREADS": str(THREADS),
    "OMP_NUM_THREADS": str(THREADS),
    "CONDA_DYN_THREADS": "1",
}
os.environ.update(RUN_ENV)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

# Printed with their units but not part of the JSON result (see README.md):
# the two timings spread across seeds and machine drift too widely for a
# bound of at most 25%, and the cosine is too close to 0 for a relative
# bound. failed_ratio is printed too; `failed`/`attempted` carry it.
REPORTED_ONLY_UNITS = {"classify_s": "s", "kde_edit_s": "s", "ortho_cos_C": "ratio"}
# Per-layer names for the quality figures of the traced pass's config seed.
QUALITY_LAYER_METRICS = {
    "rmse_margin": "traversal.rmse_margin",
    "ortho_margin": "analysis.ortho_margin",
    "auc_margin": "analysis.auc_margin",
    "ortho_cos_C": "analysis.ortho_cos_C",
}


def log(message):
    print(message, flush=True)


def environment(code):
    """The facts a reader needs to compare two runs' numbers."""
    import numpy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            commit = "unknown (git not available)"
    return {
        "nproc": os.cpu_count(), "affinity": THREADS,
        **{k: os.environ.get(k) for k in RUN_ENV},
        "numpy": numpy.__version__, "blas": blas, "cpu": cpu,
        "python": platform.python_version(), "git_commit": commit, "code_digest": code,
    }


def kernel_metrics(ctx):
    """Both kernel microbenchmark runs, each in its own process."""
    out = {}
    for args, threads in (([], THREADS), (["--single-thread"], 1)):
        env = dict(ctx.env, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
        proc = subprocess.run([sys.executable, os.path.join(HERE, "kernels.py"), *args],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=workloads.COMMAND_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"kernels.py {' '.join(args)} failed: {proc.stderr[-500:]}")
        out.update(json.loads(lines[-1]))
    return out


def run_in_process(ctx, workload, source, cfg, tracer=None):
    """The workload's four commands in this process; returns (wall s, rows)."""
    from dynalign import harness

    calls = {
        "pipeline": harness.cmd_pipeline,
        "classify": harness.cmd_classify,
        "kde-edit": harness.cmd_kde_edit,
        "probe-orthogonality": harness.cmd_probe_orthogonality,
    }
    out = workloads.starting_dir(ctx, workload, source)
    cache = os.path.join(out, "cache")
    results = []
    root = tracer.open("workload", "bench") if tracer else None
    start = time.perf_counter()
    for command in workloads.COMMANDS:
        before = checks.cache_snapshot(cache)
        try:
            result = calls[command](harness.load_config(cfg.path), out)
        except Exception as exc:  # a failed command is counted, not fatal
            result = exc
        results.append((command, result, checks.cache_snapshot(cache) != before))
    wall = time.perf_counter() - start
    if tracer:
        tracer.close(root)
    rows = {}
    for command, result, changed in results:
        failed = isinstance(result, Exception)
        rows.update(workloads.check_command(
            ctx, f"in-process {command}", command, cfg,
            out if failed else os.path.dirname(result["csv"]),
            [f"raised {type(result).__name__}: {result}"] if failed else [],
            workload == "reanalyze-warm" and changed))
    shutil.rmtree(out)
    return wall, rows


def traced_run(ctx, workload, seed):
    """Per-layer metrics: kernels, then a warm-up, an untraced and a traced
    in-process pass."""
    import tracing

    source, cfg, _ = workloads.setup(ctx, workload, workloads.config_seeds(seed)[0])
    metrics = kernel_metrics(ctx)
    # A discarded first pass pays the first-call costs (imports, lazy
    # initialisation, allocator growth), so that neither timed pass does.
    run_in_process(ctx, workload, source, cfg)
    untraced, _ = run_in_process(ctx, workload, source, cfg)
    tracer = tracing.Tracer(f"{workload}-{seed}-{os.getpid()}")
    remove = tracing.install(tracer)
    try:
        traced, rows = run_in_process(ctx, workload, source, cfg, tracer)
    finally:
        remove()
    metrics.update(tracing.layer_metrics(tracer.spans))
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    metrics["trace.wall_s"] = traced
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.self_sum_s"] = layer_sum
    metrics["trace.spans"] = len(tracer.spans)
    metrics["trace.span_cost_s"] = len(tracer.spans) * tracing.span_cost()
    log(f"traced {traced:.3f}s untraced {untraced:.3f}s layer self-time sum "
        f"{layer_sum:.3f}s over {len(tracer.spans)} spans")
    q = workloads.quality(rows)
    if q is not None:
        metrics.update({QUALITY_LAYER_METRICS[k]: q[k] for k in QUALITY_LAYER_METRICS})
    return metrics


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dynalign", "harness.py")):
        print(f"error: no dynalign sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2

    compileall.compile_dir(os.path.join(SRC, "dynalign"), quiet=1)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    code = checks.code_digest(SRC)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    sys.path.insert(0, SRC)
    ctx = workloads.Context(root=ROOT, work=work, env=env,
                            store=checks.DigestStore(os.path.join(WORK_ROOT, "digests.json"), code))
    os.makedirs(work)
    log("env: " + json.dumps(environment(code), sort_keys=True))
    try:
        if args.trace:
            values = traced_run(ctx, args.workload, args.seed)
            units = declared("per_layer")
        else:
            setup_times, passes = workloads.timed_passes(
                ctx, args.workload, args.seed, args.seconds, log)
            values = workloads.end_to_end(setup_times, passes)
            values.update(workloads.quality_pass(ctx) or {})
            for name, unit in REPORTED_ONLY_UNITS.items():
                if name in values:
                    log(f"{name} = {values[name]:.6g} {unit} (reported only)")
            units = declared("end_to_end")
            log(f"passes = {len(passes)}, config seeds = {workloads.config_seeds(args.seed)}")
        ctx.store.save()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in ctx.problems:
        log(f"FAILED {problem}")
    log(f"failed_ratio = {ctx.failed / max(ctx.attempted, 1):.6g} ratio "
        f"({ctx.failed} of {ctx.attempted} commands)")
    metrics = {}
    for name, unit in units.items():
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
            log(f"{name} = {values[name]:.6g} {unit}")
    missing = sorted(set(units) - set(metrics))
    if missing:
        log(f"FAILED no value for {missing}")
    correct = ctx.failed == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": ctx.attempted,
                      "failed": ctx.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

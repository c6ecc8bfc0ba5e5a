"""Workloads of the dynalign benchmark.

Every workload drives the same four commands a user runs, one at a time
(a closed loop with one client), on the same generated config:

    pipeline, classify, kde-edit, probe-orthogonality

The workloads differ only in the cache the commands start from:

    pipeline-cold    an empty output directory (set-up writes only the
                     config): every stage trains;
    reanalyze-warm   a cache that set-up filled by running the four commands
                     once: every stage is a hit, nothing trains (run by
                     hand; too noisy to gate, so not in BENCHMARK.json);
    encoder-retrain  a cache holding dataset, diffusion and latents only,
                     filled by a run whose embedding settings differ: the
                     four encoders and both lifting tables retrain, the
                     diffusion model does not.

Every set-up and every timed pass starts from a fresh directory that the
code under test fills; stage keys hash only config fields, so a cache
reused across code versions would serve stale artifacts.

The quality figures come from an untimed cold run on a fixed config seed,
the same on every workload and benchmark seed (see `quality_pass`).
"""

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import checks

COMMANDS = ("pipeline", "classify", "kde-edit", "probe-orthogonality")
COMMAND_METRIC = {
    "pipeline": "pipeline_s",
    "classify": "classify_s",
    "kde-edit": "kde_edit_s",
    "probe-orthogonality": "probe_s",
}
WORKLOADS = ("pipeline-cold", "reanalyze-warm", "encoder-retrain")

# The acceptance config (tests/conftest.py::ACCEPT_DOC) with its trajectory,
# epoch, DDIM-step and SVM-step counts scaled down so that one pass of the
# four commands takes seconds, not minutes (a cold acceptance `pipeline`
# alone takes ~78 s on 2 cores), and a run holds several passes.
# Layer widths, batch sizes, frame count and the KDE grid are unchanged, so
# every kernel runs at its production shape; kernels.py times those shapes.
BENCH_DOC = {
    "dataset": {"n_traj": 48, "frames_per_traj": 48},
    "diffusion": {"epochs": 6, "steps": 20},
    "embedding": {"epochs": 12},
    "traversal": {"keyframe_stride": 16, "recurrent_epochs": 8},
    "analysis": {"svm_steps": 6000},
}
# The encoder-retrain cache is filled by a run with these embedding settings,
# as if the user had since edited `embedding.*`.
PRE_EDIT_EMBEDDING = {"epochs": 1}

# Config seeds per benchmark seed. Timings average the seeds' per-seed
# medians, so the seeds' data weigh the same however many passes fit.
SEEDS_PER_RUN = 2
# Quality figures come from this config seed, whatever the benchmark seed.
# The program is deterministic under a config seed (also across BLAS thread
# counts), so on the same code the figures are the same in every run, and a
# bound of a few percent catches a change that buys speed with accuracy.
# One seed keeps the untimed cold pass to about 6 s of each run.
QUALITY_SEED = 0
QUALITY_COMMANDS = ("pipeline", "classify", "probe-orthogonality")
COMMAND_TIMEOUT_S = 120.0


def config_seeds(seed):
    return [seed * SEEDS_PER_RUN + j for j in range(SEEDS_PER_RUN)]


@dataclass
class Config:
    seed: int
    path: str
    key: str


@dataclass
class CommandRun:
    command: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    rows: dict


@dataclass
class Context:
    root: str
    work: str
    env: dict
    store: checks.DigestStore
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    _dirs: int = 0

    def fresh_dir(self, tag):
        self._dirs += 1
        path = os.path.join(self.work, f"{self._dirs:03d}-{tag}")
        os.makedirs(path)
        return path

    def record(self, label, problems):
        """Count one attempted command, failed if it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def write_config(directory, seed, embedding=None):
    doc = json.loads(json.dumps(BENCH_DOC))
    doc["seed"] = seed
    if embedding:
        doc["embedding"].update(embedding)
    text = json.dumps(doc, sort_keys=True)
    path = os.path.join(directory, "config.json")
    with open(path, "w") as fh:
        fh.write(text)
    return Config(seed=seed, path=path, key=hashlib.sha256(text.encode()).hexdigest()[:16])


def _run_process(ctx, args, log_path):
    """Run one child to completion; returns (exit status, wall s, rusage)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=log, stderr=subprocess.STDOUT,
                                env=ctx.env, cwd=ctx.root)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    # wait4 reaped the child; tell Popen so it does not wait for it again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def check_command(ctx, label, command, cfg, run_dir, problems, cache_changed):
    """Check one finished command's outputs and count it; returns its rows."""
    rows = {}
    if not problems:
        rows, found = checks.check_outputs(command, run_dir, cfg.seed, cfg.key, ctx.store)
        problems = problems + found
    if cache_changed:
        problems = problems + ["wrote to a cache that should have served every stage"]
    ctx.record(f"{label} seed {cfg.seed}", problems)
    return rows


def run_cli(ctx, command, cfg, out_dir, warm=False):
    """Run `dynalign <command>` as a user would and check its outputs."""
    args = [sys.executable, "-m", "dynalign", command,
            "--config", cfg.path, "--out", out_dir]
    cache = os.path.join(out_dir, "cache")
    before = checks.cache_snapshot(cache)
    log_path = os.path.join(out_dir, f"{command}.log")
    code, wall, usage = _run_process(ctx, args, log_path)
    with open(log_path, errors="replace") as fh:
        log = fh.read()
    csv_paths = [line[5:] for line in log.splitlines() if line.startswith("csv: ")]
    problems = []
    if code != 0:
        problems.append(f"exit code {code}: {log.strip()[-300:]}")
    elif len(csv_paths) != 1:
        problems.append("no `csv:` line on stdout")
    run_dir = os.path.dirname(csv_paths[0]) if csv_paths else out_dir
    rows = check_command(ctx, command, command, cfg, run_dir, problems,
                         warm and checks.cache_snapshot(cache) != before)
    return CommandRun(command, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, rows)


# ---------------------------------------------------------------------------
# Set-up: the starting cache of each workload


def setup(ctx, workload, seed):
    """Prepare one starting directory; returns (dir, config, seconds).
    A cold start needs only the directory and its config."""
    start = time.perf_counter()
    out = ctx.fresh_dir(f"setup-{seed}")
    cfg = write_config(out, seed)
    if workload == "reanalyze-warm":
        for command in COMMANDS:
            run_cli(ctx, command, cfg, out)
    elif workload == "encoder-retrain":
        pre_dir = os.path.join(out, "pre-edit")
        os.makedirs(pre_dir)
        pre = write_config(pre_dir, seed, PRE_EDIT_EMBEDDING)
        run_cli(ctx, "probe-orthogonality", pre, out)
    elif workload != "pipeline-cold":
        raise ValueError(f"unknown workload {workload!r}")
    return out, cfg, time.perf_counter() - start


def starting_dir(ctx, workload, source):
    """A fresh copy of a set-up's cache (an empty directory when cold)."""
    out = ctx.fresh_dir("pass")
    if workload != "pipeline-cold":
        shutil.copytree(os.path.join(source, "cache"), os.path.join(out, "cache"))
    return out


def timed_passes(ctx, workload, seed, seconds, log):
    """Set up each config seed once, then repeat the four commands, cycling
    over the set-ups, for `seconds` (at least one pass per config seed).
    Returns (setup seconds, passes)."""
    setups = [setup(ctx, workload, s) for s in config_seeds(seed)]
    setup_times = [t for _, _, t in setups]
    passes = []
    start = time.perf_counter()
    last = 0.0
    # Start a pass only if one like the last still ends inside the window.
    while len(passes) < len(setups) or time.perf_counter() - start + last <= seconds:
        source, cfg, _ = setups[len(passes) % len(setups)]
        if workload == "pipeline-cold":
            # A cold start is its own set-up, well under a millisecond:
            # timing one per pass samples it across the whole run rather
            # than in one burst, whose median moves with the moment.
            out, cfg, took = setup(ctx, workload, cfg.seed)
            setup_times.append(took)
        else:
            out = starting_dir(ctx, workload, source)
        runs = [run_cli(ctx, c, cfg, out, warm=workload == "reanalyze-warm")
                for c in COMMANDS]
        passes.append((cfg, runs))
        last = sum(r.wall_s for r in runs)
        log(f"pass {len(passes)} seed {cfg.seed}: "
            + " ".join(f"{r.command}={r.wall_s:.3f}s" for r in runs))
        shutil.rmtree(out)
    return setup_times, passes


# ---------------------------------------------------------------------------
# Metrics


def quality(rows):
    """Quality figures of one config seed from its four CSVs' rows."""
    c_methods = checks.TRAVERSAL_METHODS + ("spline",)
    out = {}
    try:
        out["rmse_norm_C"] = statistics.fmean(rows[("C", m, "rmse_norm")] for m in c_methods)
        out["psnr_C"] = statistics.fmean(rows[("C", m, "psnr")] for m in c_methods)
        out["auc_C"] = statistics.fmean(rows[("C", k, "auc")] for k in ("svm-linear", "svm-rbf"))
        out["ortho_cos_C"] = rows[("C", "ols-probe", "regression_cosine")]
        out["rmse_margin"] = rows[("Z", "tex1", "rmse_norm")] - rows[("C", "tex1", "rmse_norm")]
        out["ortho_margin"] = (rows[("Z", "ols-probe", "regression_cosine")]
                               - rows[("C", "ols-probe", "regression_cosine")])
        out["auc_margin"] = rows[("C", "svm-rbf", "auc")] - rows[("Z", "svm-rbf", "auc")]
    except KeyError:
        return None
    return out


def pass_figures(runs):
    """Per-pass values of the timing and memory metrics."""
    out = {
        "wall_s": sum(r.wall_s for r in runs),
        "cpu_s": sum(r.cpu_s for r in runs),
        "peak_rss_mb": max(r.rss_mb for r in runs),
    }
    out.update({COMMAND_METRIC[r.command]: r.wall_s for r in runs})
    return out


def end_to_end(setup_times, passes):
    """Each timing and memory metric is the median over a config seed's
    passes, averaged over the config seeds, so every seed weighs the same
    however many passes fit."""
    by_seed = {}
    for cfg, runs in passes:
        by_seed.setdefault(cfg.seed, []).append(pass_figures(runs))
    metrics = {"setup_s": statistics.median(setup_times)}
    for name in pass_figures(passes[0][1]):
        metrics[name] = statistics.fmean(
            statistics.median(f[name] for f in figures) for figures in by_seed.values())
    return metrics


def quality_pass(ctx):
    """Run QUALITY_COMMANDS cold and untimed on the QUALITY_SEED config,
    with the same output check as the timed passes. Returns its quality
    figures, or None if a CSV lacked a row."""
    out = ctx.fresh_dir("quality")
    cfg = write_config(out, QUALITY_SEED)
    rows = {}
    for command in QUALITY_COMMANDS:
        rows.update(run_cli(ctx, command, cfg, out).rows)
    shutil.rmtree(out)
    return quality(rows)

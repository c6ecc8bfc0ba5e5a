"""The one-BLAS-thread pin: the context manager itself, the computations
that run inside it, the thread-invariant bits it buys, and the CLI, which
starts OpenBLAS with no worker pool."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dynalign
from dynalign import analysis, contrastive, diffusion, harness, numcore, traversal

from test_harness import tiny_config

needs_control = pytest.mark.skipif(
    numcore._BLAS_THREADS is None,
    reason="no OpenBLAS thread control in this numpy build",
)


def blas_threads():
    return numcore._BLAS_THREADS[0]()


@pytest.fixture
def two_threads():
    """Two BLAS threads during the test; the count found before it after."""
    get, put = numcore._BLAS_THREADS
    before = get()
    put(2)
    yield
    put(before)


@needs_control
class TestOneBlasThread:
    def test_restores_the_previous_count_on_exit(self, two_threads):
        with numcore.one_blas_thread():
            assert blas_threads() == 1
        assert blas_threads() == 2

    def test_restores_the_previous_count_on_an_exception(self, two_threads):
        with pytest.raises(RuntimeError):
            with numcore.one_blas_thread():
                raise RuntimeError("inside")
        assert blas_threads() == 2

    def test_nested_use_leaves_the_outer_count_in_place(self, two_threads):
        with numcore.one_blas_thread():
            with numcore.one_blas_thread():
                assert blas_threads() == 1
            assert blas_threads() == 1
        assert blas_threads() == 2

    def test_is_a_no_op_without_thread_control(self, two_threads, monkeypatch):
        get = numcore._BLAS_THREADS[0]
        monkeypatch.setattr(numcore, "_BLAS_THREADS", None)
        with numcore.one_blas_thread():
            assert get() == 2

    def test_every_training_runs_on_one_thread(self, two_threads, monkeypatch, tmp_path):
        seen = {}

        def recording(name, owner, attr):
            inner = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                seen.setdefault(name, set()).add(blas_threads())
                return inner(*args, **kwargs)
            monkeypatch.setattr(owner, attr, wrapper)

        recording("denoiser", diffusion.DenoiserModel, "loss_and_grads")
        recording("encoder", contrastive, "batch_loss_and_grads")
        recording("recurrent", traversal.RecurrentPredictor, "loss_and_grads")
        recording("svm", analysis, "train_svm")
        recording("decision", analysis, "svm_decision")
        cfg = tiny_config()
        harness.cmd_pipeline(cfg, str(tmp_path))
        harness.cmd_classify(cfg, str(tmp_path))
        assert seen == {"denoiser": {1}, "encoder": {1}, "recurrent": {1},
                        "svm": {1}, "decision": {1}}
        assert blas_threads() == 2


# The recurrent baseline's training at BENCH_DOC's shape (40 training
# sequences of 48 frames in 8 dims, batches of 16), two epochs. Without the
# pin, its gate weight gradients take other bits at 1 and 2 threads.
RECURRENT_DIGEST = """
import hashlib
import numpy as np
from dynalign.numcore import Rng
from dynalign.traversal import RecurrentPredictor, train_recurrent
rng = Rng(0)
seqs = np.cumsum(rng.stream("data").normal((40, 48, 8)) * 0.1, axis=1)
pred = RecurrentPredictor(8, hidden=64, rng=rng.stream("init"))
train_recurrent(pred, seqs, 2, rng.stream("train"), batch=16)
digest = hashlib.sha256()
for key in sorted(pred.params):
    digest.update(key.encode() + pred.params[key].tobytes())
print(digest.hexdigest())
"""


# A small denoiser (the trained shape's 256-wide layers, on 12-dim states),
# two epochs, then a 1100-row inversion: two DDIM row blocks. Where the
# process may use two CPUs, it trains with a training lane and inverts in two
# lanes; with "serial" it sees one CPU, and does both in one thread.
DENOISER_DIGEST = """
import hashlib
import os
import sys
from dynalign import diffusion, dynsim
from dynalign.numcore import Rng
if sys.argv[1:] == ["serial"]:
    os.sched_getaffinity = lambda pid: {0}
ds = dynsim.generate_oscillator(n_traj=10, frames_per_traj=16, mu_range=(0.2, 1.0), seed=0)
sched = diffusion.make_schedule(100)
model = diffusion.DenoiserModel(12, 100, rng=Rng(0).stream("init"))
diffusion.train(model, ds, sched, 2, 32, Rng(0).stream("train"))
rng = Rng(1)
latents = diffusion.ddim_invert(model, rng.stream("z").normal((1100, 12)),
                                rng.stream("c").uniform(0, 1, (1100, 2)), sched, 8)
digest = hashlib.sha256()
for key in sorted(model.params):
    digest.update(key.encode() + model.params[key].tobytes())
print(digest.hexdigest(), hashlib.sha256(latents.tobytes()).hexdigest())
"""


def digests(script, runs):
    """The distinct outputs of `script`, one child process per (BLAS thread
    count, arguments) run."""
    src = str(Path(dynalign.__file__).parents[1])
    out = set()
    for n, args in runs:
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(n), "OMP_NUM_THREADS": str(n),
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script, *args],
                              capture_output=True, text=True, env=env, check=True)
        out.add(proc.stdout.strip())
    return out


def thread_counts():
    # Only 1 and 2 threads could be checked on the 2-core machine this was
    # written on; the affinity count joins them where it is larger.
    return [1, 2] + [n for n in [diffusion.usable_cpus()] if n > 2]


@needs_control
def test_recurrent_training_bits_do_not_depend_on_the_blas_thread_count():
    assert len(digests(RECURRENT_DIGEST, [(n, []) for n in thread_counts()])) == 1


@needs_control
def test_denoiser_bits_do_not_depend_on_the_blas_thread_count_or_the_lanes():
    runs = [(n, []) for n in thread_counts()] + [(2, ["serial"])]
    assert len(digests(DENOISER_DIGEST, runs)) == 1


# A `dynalign config-schema` run in a process that starts with a two-thread
# OpenBLAS environment, launched by `launch`; it reports the BLAS thread count
# and the process's OS threads.
CLI_POOL = """
import importlib
import os
import runpy
import sys
sys.argv = ["dynalign", "config-schema"]
try:
    {launch}
except SystemExit:
    pass
from dynalign import numcore
tasks = len(os.listdir("/proc/self/task")) if sys.platform.startswith("linux") else 1
print(numcore._BLAS_THREADS[0](), tasks, file=sys.stderr)
"""


@needs_control
def test_the_cli_starts_openblas_without_a_worker_pool():
    root = Path(dynalign.__file__).parents[2]
    # The installed command calls the function pyproject.toml's script names.
    module, function = re.search(r'^dynalign = "([\w.]+):(\w+)"$',
                                 (root / "pyproject.toml").read_text(), re.M).groups()
    launchers = ['runpy.run_module("dynalign", run_name="__main__")',     # python -m
                 f"sys.exit(importlib.import_module({module!r}).{function}())"]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    for launch in launchers:
        proc = subprocess.run([sys.executable, "-c", CLI_POOL.format(launch=launch)],
                              capture_output=True, text=True, env=env, check=True)
        # One BLAS thread, and this process's one OS thread: no pool.
        assert proc.stderr.split() == ["1", "1"], launch

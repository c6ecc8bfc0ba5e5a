"""The one-BLAS-thread pin: the context manager itself, the computations
that run inside it, and the thread-invariant bits it buys."""
import os
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

    def test_narrow_trainings_run_on_one_thread_and_the_denoiser_on_the_outer_count(
            self, two_threads, monkeypatch, tmp_path):
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
        assert seen == {"denoiser": {2}, "encoder": {1}, "recurrent": {1},
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


@needs_control
def test_recurrent_training_bits_do_not_depend_on_the_blas_thread_count():
    # Only 1 and 2 threads could be checked on the 2-core machine this was
    # written on; the affinity count joins them where it is larger.
    counts = [1, 2] + [n for n in [len(os.sched_getaffinity(0))] if n > 2]
    src = str(Path(dynalign.__file__).parents[1])
    digests = set()
    for n in counts:
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(n), "OMP_NUM_THREADS": str(n),
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", RECURRENT_DIGEST],
                              capture_output=True, text=True, env=env, check=True)
        digests.add(proc.stdout.strip())
    assert len(digests) == 1

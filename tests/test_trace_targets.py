"""The benchmark's tracer (perfbench/tracing.py) wraps package functions by
name, so deleting or renaming one of them fails here, in the fast suite,
and not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from dynalign import analysis, traversal
from dynalign.numcore import Rng

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_wraps_and_unwraps():
    tracing = load_tracing()
    mods = [importlib.import_module(f"dynalign.{name}") for name in tracing.LAYERS]
    before = [dict(vars(m)) for m in mods]
    tracer = tracing.Tracer("tier1")
    remove = tracing.install(tracer)
    try:
        assert analysis.f1_score(np.array([0, 1, 1]), np.array([0, 1, 0])) == 2.0 / 3.0
        assert [s.name for s in tracer.spans] == ["f1_score"]
        # The training loop must reach adam_step through the wrapped module
        # global, or numcore.adam.steps would read 0.
        pred = traversal.RecurrentPredictor(2, hidden=4, rng=Rng(0).stream("init"))
        seqs = Rng(1).normal((10, 5, 2))
        traversal.train_recurrent(pred, seqs, epochs=2, rng=Rng(2), batch=4)
        names = [s.name for s in tracer.spans]
        assert names.count("adam_step") == 6
        assert names.count("RecurrentPredictor.loss_and_grads") == 6
    finally:
        remove()
    for m, saved in zip(mods, before):
        assert {k: v for k, v in vars(m).items() if saved.get(k) is not v} == {}, m.__name__

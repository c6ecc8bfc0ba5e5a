"""The benchmark's tracer (perfbench/tracing.py) wraps package functions by
name, so deleting or renaming one of them fails here, in the fast suite,
and not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from dynalign import analysis

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
    finally:
        remove()
    for m, saved in zip(mods, before):
        assert {k: v for k, v in vars(m).items() if saved.get(k) is not v} == {}, m.__name__

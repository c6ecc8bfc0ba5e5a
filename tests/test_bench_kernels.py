"""The benchmark's kernel timings (perfbench/kernels.py) build package
objects directly (DenoiserModel, ContrastiveBatch, SvmConfig, ...), so an API
change that breaks one of those calls fails here, in the fast suite, and not
only in a benchmark run. Each timed call runs once."""

import importlib.util
import math
from pathlib import Path

KERNELS = Path(__file__).resolve().parents[1] / "perfbench" / "kernels.py"


def load_kernels():
    spec = importlib.util.spec_from_file_location("perfbench_kernels", KERNELS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_kernel_call_runs(monkeypatch):
    kernels = load_kernels()

    def once(fn, **_):
        fn()
        return 1e-3

    monkeypatch.setattr(kernels, "median_time", once)
    out = kernels.mlp_kernels("")
    out.update(kernels.other_kernels())
    assert "contrastive.kernel.infonce_b128_ms" in out
    assert "analysis.kernel.pegasos_rbf_us_per_step" in out
    assert all(math.isfinite(v) for v in out.values())

import json
import sys
from pathlib import Path

import numpy as np
import pytest

# Allow the oracle helpers in sibling test modules to be imported directly.
sys.path.insert(0, str(Path(__file__).parent))

SEEDS = (0, 1, 2)

# The numpy build that recorded bytes and bit-identity findings were taken
# with: numpy 2.4.6, whose x86-64 wheels ship OpenBLAS 0.3.31. Another numpy
# or BLAS build may round the last bits differently, or pick its GEMM
# kernels at other row counts. The recorded output digests skip on another
# numpy (tests/test_harness.py); the row-block bit-identity tests skip on
# another numpy or BLAS, with this reason.
RECORDED_NUMPY = "2.4.6"
recorded_build = pytest.mark.skipif(
    np.__version__ != RECORDED_NUMPY
    or not np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    .startswith("scipy-openblas"),
    reason=f"bits recorded with numpy {RECORDED_NUMPY} and its OpenBLAS",
)

ACCEPT_DOC = {
    "dataset": {"n_traj": 140, "frames_per_traj": 48},
    "diffusion": {"epochs": 40},
    "embedding": {"epochs": 150},
    "traversal": {"keyframe_stride": 16},
    "analysis": {"svm_steps": 40000},
}


@pytest.fixture(scope="session")
def pipelines(tmp_path_factory):
    """Per-seed `pipeline` runs on ACCEPT_DOC, shared by the directional
    checks: the command's rows, and the cached chain it was served."""
    from dynalign import harness

    out = str(tmp_path_factory.mktemp("accept"))
    runs = {}
    for seed in SEEDS:
        doc = json.loads(json.dumps(ACCEPT_DOC))
        doc["seed"] = seed
        cfg = harness.config_from_dict(doc)
        res = harness.cmd_pipeline(cfg, out)
        ws = harness.Workspace(out, cfg)
        ds, model, sched, _, _ = harness._upstream(ws, cfg.embedding, "encoder")
        assert {name: r["cache"] for name, r in ws.stages.items()} == dict.fromkeys(
            ["dataset", "diffusion", "latents", "encoder"], "hit")
        runs[seed] = dict(cfg=cfg, out=out, ds=ds, model=model, sched=sched,
                          rows={(r["space"], r["method"], r["metric"]): r["value"]
                                for r in res["rows"]})
    return runs

import json
import sys
from pathlib import Path

import pytest

# Allow the oracle helpers in sibling test modules to be imported directly.
sys.path.insert(0, str(Path(__file__).parent))

SEEDS = (0, 1, 2)

ACCEPT_DOC = {
    "dataset": {"n_traj": 140, "frames_per_traj": 48},
    "diffusion": {"epochs": 40},
    "embedding": {"epochs": 150},
    "traversal": {"keyframe_stride": 16},
    "analysis": {"svm_steps": 40000},
}


@pytest.fixture(scope="session")
def pipelines(tmp_path_factory):
    """Per-seed trained artifacts shared by the directional checks."""
    from dynalign import harness
    from dynalign.numcore import Rng

    out = str(tmp_path_factory.mktemp("accept"))
    runs = {}
    for seed in SEEDS:
        doc = json.loads(json.dumps(ACCEPT_DOC))
        doc["seed"] = seed
        cfg = harness.config_from_dict(doc)
        ws = harness.Workspace(out, cfg)
        ds = harness.stage_dataset(ws)
        model, sched = harness.stage_diffusion(ws, ds)
        z_all = harness.stage_latents(ws, ds, model, sched)
        encoder = harness.stage_encoder(ws, ds, z_all, cfg.embedding)
        c_all = harness.embed_frames(encoder, ds, z_all)
        table = harness.stage_table(ws, ds, z_all, c_all)
        rows, _ = harness.evaluate_traversal(
            cfg, ds, model, sched, z_all, c_all, table,
            Rng(seed).stream("traversal"),
        )
        runs[seed] = dict(cfg=cfg, ws=ws, out=out, ds=ds, model=model,
                          sched=sched, z_all=z_all, encoder=encoder,
                          table=table,
                          rows={(r["space"], r["method"], r["metric"]): r["value"]
                                for r in rows})
    return runs

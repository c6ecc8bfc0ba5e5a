"""Experiment harness: JSON configuration, cached pipeline stages, the
end-to-end comparisons (traversal benchmark, classification, KDE class
morphing, dimension sweep, orthogonality probe), and the CLI.

Artifacts are cached per stage under a hash of the configuration fields
that stage depends on, so reruns and sweeps skip completed work unless
--force is given. Commands are deterministic under a fixed config.
"""

import argparse
import dataclasses
import hashlib
import json
import operator
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Optional, get_args, get_type_hints

import numpy as np

from . import analysis, binio, contrastive, diffusion, dynsim, lifting, metrics, traversal
from .contrastive import EmbeddingConfig
from .errors import ConfigError, FormatError, InputError, NumericError
from .lifting import LiftingConfig
from .numcore import Rng, split_count

CSV_HEADER = "dataset,space,method,metric,value,std,n,seed"


# ---------------------------------------------------------------------------
# Configuration


@dataclass
class DatasetConfig:
    name: str = "oscillator"
    n_traj: int = 240
    frames_per_traj: int = 64
    mu_range: tuple = (0.2, 1.0)
    state_dim: int = 12
    test_fraction: float = 1.0 / 6.0
    t_max: float = 0.75
    nonlin_amp: float = 0.1
    zeta_max: float = 0.8


@dataclass
class DiffusionConfig:
    T: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02
    hidden: tuple = (256, 256, 256, 256)
    epochs: int = 60
    batch: int = 128
    lr: float = 1e-3
    steps: int = 100          # strided steps for inversion and sampling
    condition_on: tuple = ("tau",)   # ("tau",) or ("tau", "mu")


@dataclass
class TraversalConfig:
    lam: float = 0.0
    keyframe_stride: int = 16  # spacing of the anchor frames linear methods see
    tex_window: int = 5        # dense trailing window for the Taylor stencils
    context: int = 8           # dense trailing window for the recurrent baseline
    target_stride: int = 2
    render_targets_per_traj: int = 3
    spline_in_z: bool = False
    include_pca: bool = True
    recurrent_hidden: int = 64
    recurrent_epochs: int = 120
    recurrent_lr: float = 1e-3


@dataclass
class AnalysisConfig:
    svm_lam: float = 1e-4
    svm_steps: int = 60_000
    svm_gamma: Optional[float] = None
    svm_max_points: int = 2000
    folds: int = 4
    frames_per_traj_class: int = 16
    kde_d: int = 3
    kde_bandwidth: Optional[float] = None
    kde_nodes: Optional[int] = None
    kde_frames_per_class: int = 400


@dataclass
class ExperimentConfig:
    seed: int = 0
    render_grid: int = 32
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    traversal: TraversalConfig = field(default_factory=TraversalConfig)
    lifting: LiftingConfig = field(default_factory=LiftingConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)


_SECTIONS = {
    "dataset": DatasetConfig,
    "diffusion": DiffusionConfig,
    "embedding": EmbeddingConfig,
    "traversal": TraversalConfig,
    "lifting": LiftingConfig,
    "analysis": AnalysisConfig,
}


def _is_a(value, kind):
    """JSON type check: a bool is not a number, and an int is a float."""
    if isinstance(value, bool) and kind is not bool:
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _typed(obj, name, value, path):
    """`value` for field `name` of config dataclass `obj`, checked against
    the field's type: its default's type, X for an Optional[X] default of
    None, and a JSON list of the default's element type for a tuple."""
    default = getattr(obj, name)
    if isinstance(default, tuple):
        kind = type(default[0])
        if isinstance(value, list) and all(_is_a(v, kind) for v in value):
            return tuple(value)
        expected = f"a list of {kind.__name__}"
    else:
        optional = default is None
        kind = get_args(get_type_hints(type(obj))[name])[0] if optional else type(default)
        if (optional and value is None) or _is_a(value, kind):
            return value
        expected = kind.__name__ + (" or null" if optional else "")
    raise ConfigError(f"expected {expected}, got {value!r}", field=path)


def config_from_dict(doc):
    """Build an ExperimentConfig, rejecting unknown or wrongly typed fields
    with their path."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be a JSON object")
    cfg = ExperimentConfig()
    for key, value in doc.items():
        if key in ("seed", "render_grid"):
            setattr(cfg, key, _typed(cfg, key, value, key))
        elif key in _SECTIONS:
            section = getattr(cfg, key)
            if not isinstance(value, dict):
                raise ConfigError("section must be a JSON object", field=key)
            for name, item in value.items():
                if not hasattr(section, name):
                    raise ConfigError("unknown field", field=f"{key}.{name}")
                setattr(section, name, _typed(section, name, item, f"{key}.{name}"))
        else:
            raise ConfigError("unknown field", field=key)
    validate_config(cfg)
    return cfg


# One bound per field, as (test, bound): ">" / ">=" a least value, "<" a
# greatest one, "in" a set of allowed values. A null value (the field's
# heuristic) is not checked. tex2 needs a 3-point window, the
# linear methods a keyframe gap with a frame inside it, a KDE grid two nodes
# per axis, a contrastive window two frames to pair, the noise schedule two
# steps and DDIM one stride over them.
_BOUNDS = {
    "render_grid": (">=", 8), "dataset.n_traj": (">=", 2),
    "dataset.frames_per_traj": (">=", 8), "dataset.state_dim": (">=", 2),
    "diffusion.T": (">=", 2), "diffusion.steps": (">=", 1), "diffusion.batch": (">=", 1),
    "diffusion.beta_start": (">", 0), "diffusion.beta_end": ("<", 1),
    "embedding.d": (">=", 1), "embedding.tau": (">", 0),
    "embedding.traj_per_batch": (">=", 1), "embedding.window": (">=", 2),
    "traversal.lam": (">=", 0),
    "traversal.keyframe_stride": (">=", 2), "traversal.tex_window": (">=", 3),
    "traversal.context": (">=", 1), "traversal.target_stride": (">=", 1),
    "traversal.render_targets_per_traj": (">=", 1),
    "traversal.recurrent_hidden": (">=", 1),
    "lifting.kernel": ("in", lifting.KERNELS), "lifting.metric": ("in", lifting.METRICS),
    "lifting.sigma": (">", 0), "analysis.svm_lam": (">", 0), "analysis.svm_steps": (">=", 1),
    "analysis.svm_gamma": (">", 0), "analysis.frames_per_traj_class": (">=", 1),
    "analysis.kde_d": (">=", 1), "analysis.kde_bandwidth": (">", 0),
    "analysis.kde_nodes": (">=", 2), "analysis.kde_frames_per_class": (">=", 1),
}
_COMPARE = {
    ">": (operator.gt, "above"), ">=": (operator.ge, "at least"), "<": (operator.lt, "below"),
    "in": (lambda value, allowed: value in allowed, "one of"),
}


def validate_config(cfg):
    d, t, dc = cfg.dataset, cfg.traversal, cfg.diffusion
    if len(d.mu_range) != 2 or not (d.mu_range[0] <= d.mu_range[1]):
        raise ConfigError(f"invalid interval {d.mu_range}", field="dataset.mu_range")
    for path, (test, bound) in _BOUNDS.items():
        value = operator.attrgetter(path)(cfg)
        holds, words = _COMPARE[test]
        if value is not None and not holds(value, bound):
            raise ConfigError(f"must be {words} {bound}", field=path)
    if not cfg.lifting.k_grid:
        raise ConfigError("must be non-empty", field="lifting.k_grid")
    # The encoder needs 2 training trajectories, one of them outside its
    # validation split; the lifting table one outside its holdout.
    n_train = d.n_traj - split_count(d.n_traj, d.test_fraction)
    if n_train < 2:
        raise ConfigError(f"leaves {n_train} of {d.n_traj} trajectories to train on; "
                          "need 2", field="dataset.test_fraction")
    for path in ("embedding.val_fraction", "lifting.holdout_fraction"):
        if split_count(n_train, operator.attrgetter(path)(cfg)) >= n_train:
            raise ConfigError(f"takes every one of the {n_train} training trajectories",
                              field=path)
    for name in ("tex_window", "context"):
        if getattr(t, name) >= d.frames_per_traj - 1:
            raise ConfigError("must leave a frame to predict before the last",
                              field=f"traversal.{name}")
    if not _target_frames(t, d.frames_per_traj)[1]:
        raise ConfigError("no eligible target frames; shrink context or stride",
                          field="traversal.target_stride")
    if dc.steps > dc.T:
        raise ConfigError("steps cannot exceed T", field="diffusion.steps")
    if dc.beta_start > dc.beta_end:
        raise ConfigError("cannot exceed beta_end", field="diffusion.beta_start")
    if tuple(dc.condition_on) not in (("tau",), ("tau", "mu")):
        raise ConfigError("must be ['tau'] or ['tau', 'mu']",
                          field="diffusion.condition_on")
    return cfg


def config_to_dict(cfg):
    out = dataclasses.asdict(cfg)

    def fix(v):
        if isinstance(v, tuple):
            return [fix(x) for x in v]
        if isinstance(v, list):
            return [fix(x) for x in v]
        if isinstance(v, dict):
            return {k: fix(x) for k, x in v.items()}
        return v

    return fix(out)


def canonical_config_text(cfg):
    return json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))


def _hash_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def config_hash(cfg):
    return _hash_text(canonical_config_text(cfg))


def config_schema():
    """Schema document: every field with its default value."""
    cfg = ExperimentConfig()
    doc = config_to_dict(cfg)
    return {
        "description": "JSON configuration; every field optional, defaults below",
        "defaults": doc,
    }


def load_config(path=None, seed=None):
    if path is None:
        cfg = ExperimentConfig()
    else:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        cfg = config_from_dict(doc)
    if seed is not None:
        cfg.seed = int(seed)
    return validate_config(cfg)


# ---------------------------------------------------------------------------
# Artifact plumbing


def _stage_hash(*parts):
    return _hash_text("|".join(json.dumps(p, sort_keys=True, default=str) for p in parts))


def _dataset_key(cfg):
    return _stage_hash("dataset", cfg.seed, dataclasses.asdict(cfg.dataset))


def _diffusion_key(cfg):
    # Training never reads `steps`; only the latents depend on it.
    fields = dataclasses.asdict(cfg.diffusion)
    del fields["steps"]
    return _stage_hash(_dataset_key(cfg), fields)


def _latents_key(cfg):
    return _stage_hash(_diffusion_key(cfg), cfg.diffusion.steps)


def _encoder_key(cfg, emb):
    return _stage_hash(_latents_key(cfg), dataclasses.asdict(emb))


LATENTS_MAGIC = b"LAT1"


class Workspace:
    """Output directory with stage-hashed caching."""

    def __init__(self, out_dir, cfg, force=False):
        self.cfg = cfg
        self.force = force
        self.cache = os.path.join(out_dir, "cache")
        self.run_dir = os.path.join(out_dir, config_hash(cfg))
        os.makedirs(self.cache, exist_ok=True)
        os.makedirs(self.run_dir, exist_ok=True)
        self.timings = {}
        self.artifacts = []

    def path(self, stage, key, ext="bin"):
        return os.path.join(self.cache, f"{stage}-{key}.{ext}")

    def stage(self, name, key, writer, reader):
        """Run or reuse one cached stage; returns the loaded artifact. Its
        seconds (write and read on a miss, read on a hit) go to timings."""
        path = self.path(name, key)
        start = time.perf_counter()
        if self.force or not os.path.exists(path):
            writer(path)
        artifact = reader(path)
        self.timings[name] = self.timings.get(name, 0.0) + time.perf_counter() - start
        self.artifacts.append(path)
        return artifact

    def manifest(self, command, summary):
        doc = {
            "command": command,
            "config_hash": config_hash(self.cfg),
            "config": config_to_dict(self.cfg),
            "artifacts": sorted(set(self.artifacts)),
            "stage_seconds": {k: round(v, 3) for k, v in self.timings.items()},
            "metrics_summary": summary,
        }
        path = os.path.join(self.run_dir, f"manifest-{command}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        return path


def stage_dataset(ws):
    cfg = ws.cfg

    def write(path):
        d = cfg.dataset
        ds = dynsim.generate_oscillator(
            d.n_traj, d.frames_per_traj, d.mu_range, D=d.state_dim,
            seed=cfg.seed, test_fraction=d.test_fraction, t_max=d.t_max,
            nonlin_amp=d.nonlin_amp, zeta_max=d.zeta_max,
        )
        dynsim.save_dataset(ds, path)

    return ws.stage("dataset", _dataset_key(cfg), write, dynsim.load_dataset)


def stage_diffusion(ws, ds):
    cfg = ws.cfg

    def write(path):
        dc = cfg.diffusion
        sched = diffusion.make_schedule(dc.T, dc.beta_start, dc.beta_end)
        rng = Rng(cfg.seed).stream("diffusion")
        model = diffusion.DenoiserModel(
            cfg.dataset.state_dim, dc.T, hidden=tuple(dc.hidden),
            rng=rng.stream("init"), cond_components=len(dc.condition_on),
        )
        diffusion.train(model, ds, sched, dc.epochs, dc.batch, rng.stream("train"), lr=dc.lr)
        diffusion.save_model(model, sched, path)

    return ws.stage("diffusion", _diffusion_key(cfg), write, diffusion.load_model)


def stage_latents(ws, ds, model, sched):
    """DDIM-invert every frame of every trajectory; (n_traj, S, D) array."""
    cfg = ws.cfg

    def write(path):
        frames = ds.stack(None)
        conds = diffusion.condition_columns(frames["tau"], frames["mu"], model.cond_components)
        z = diffusion.ddim_invert(model, frames["x"], conds, sched, cfg.diffusion.steps)
        binio.write_envelope(path, LATENTS_MAGIC, {"steps": cfg.diffusion.steps},
                             {"z": z.reshape(ds.xs.shape)})

    def read(path):
        _, arrays = binio.read_envelope(path, LATENTS_MAGIC)
        return arrays["z"]

    return ws.stage("latents", _latents_key(cfg), write, read)


def _upstream(ws, emb_cfg, tag):
    """The cached chain every command starts with: dataset -> diffusion ->
    latents -> encoder. The stages run one after another from here, never
    inside another stage's writer, so each stage's seconds are its own."""
    ds = stage_dataset(ws)
    model, sched = stage_diffusion(ws, ds)
    z_all = stage_latents(ws, ds, model, sched)
    encoder = stage_encoder(ws, ds, z_all, emb_cfg, tag=tag)
    return ds, model, sched, z_all, encoder


def embed_frames(encoder, ds, z_all, split=None):
    """Embed one split's frames in one batch, as (n, d) rows; with no split,
    every frame, as an (n_traj, S, d) array. A conditioned encoder also gets
    each frame's (tau, mu)."""
    frames = ds.stack(split, z=z_all)
    cond = np.stack([frames["tau"], frames["mu"]], axis=1) if encoder.use_condition else None
    c = contrastive.embed(encoder, frames["z"], cond)
    return c if split else c.reshape(z_all.shape[0], z_all.shape[1], -1)


def stage_encoder(ws, ds, z_all, emb_cfg, tag="encoder"):
    cfg = ws.cfg

    def write(path):
        train = ds.stack("train", z=z_all)
        enc = contrastive.EncoderModel(
            ds.state_dim, emb_cfg.d, hidden=tuple(emb_cfg.hidden),
            use_condition=emb_cfg.use_condition,
            rng=Rng(cfg.seed).stream(f"{tag}-init"),
        )
        contrastive.train_encoder(
            enc, train["z"], train["tau"], train["mu"], emb_cfg,
            Rng(cfg.seed).stream(f"{tag}-train"),
            labels=train["label"], traj_ids=train["traj"],
        )
        contrastive.save_encoder(enc, path)

    return ws.stage(tag, _encoder_key(cfg, emb_cfg), write, contrastive.load_encoder)


def _frames(arr, idx):
    """The frames of trajectories `idx` of an (n_traj, S, dim) array, as rows."""
    return arr[idx].reshape(-1, arr.shape[2])


def stage_table(ws, ds, z_all, c_all, emb_cfg=None, tag="table"):
    """kNN lifting table from the embedded frames `c_all` of the encoder
    trained under `emb_cfg` (the config's embedding section by default),
    which keys the cache."""
    cfg = ws.cfg
    emb_cfg = emb_cfg or cfg.embedding

    def write(path):
        train_idx = ds.indices("train")
        n_hold = split_count(len(train_idx), cfg.lifting.holdout_fraction)
        ref, hold = train_idx[:-n_hold], train_idx[-n_hold:]
        table = lifting.build_table(_frames(c_all, ref), _frames(z_all, ref), cfg.lifting)
        table.k = lifting.select_k(table, cfg.lifting.k_grid,
                                   _frames(c_all, hold), _frames(z_all, hold))
        lifting.save_table(table, path)

    key = _stage_hash(_encoder_key(cfg, emb_cfg), dataclasses.asdict(cfg.lifting), tag)
    return ws.stage(tag, key, write, lifting.load_table)


# ---------------------------------------------------------------------------
# Output helpers


def row(cfg, space, method, metric, value, n, std=None):
    """One CSV result row of this config's dataset and seed."""
    return dict(dataset=cfg.dataset.name, space=space, method=method, metric=metric,
                value=value, std=std, n=n, seed=cfg.seed)


def format_float(v):
    return repr(float(v))


def write_csv(path, rows):
    lines = [CSV_HEADER]
    for r in rows:
        std = "" if r.get("std") is None else format_float(r["std"])
        lines.append(
            ",".join(
                [
                    r["dataset"],
                    r["space"],
                    r["method"],
                    r["metric"],
                    format_float(r["value"]),
                    std,
                    str(r.get("n", 1)),
                    str(r["seed"]),
                ]
            )
        )
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_pgm(path, image):
    """Binary 8-bit PGM (P5) from a [0, 1] float image."""
    img = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    data = np.round(img * 255.0).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())
    return path


def hstack_images(images, pad=1):
    """Horizontal strip with a thin white separator."""
    h = images[0].shape[0]
    sep = np.ones((h, pad))
    parts = []
    for i, img in enumerate(images):
        if i:
            parts.append(sep)
        parts.append(img)
    return np.concatenate(parts, axis=1)


# ---------------------------------------------------------------------------
# Traversal benchmark (the Table-1-style comparison)


def _space_vectors(cfg, ds, z_all, c_all):
    """name -> dict(vectors (n_traj, S, dim), renderable); PCA keeps as many
    components as the embedding has dimensions."""
    spaces = {"Z": {"vectors": z_all, "renderable": True},
              "C": {"vectors": c_all, "renderable": True}}
    if cfg.traversal.include_pca:
        d = c_all.shape[-1]
        pca = analysis.fit_pca(_frames(z_all, ds.indices("train")), d)
        n_traj, S, D = z_all.shape
        proj = analysis.pca_project(pca, z_all.reshape(-1, D))
        spaces["PCA"] = {
            "vectors": proj.reshape(n_traj, S, d),
            "renderable": False,
        }
    return spaces


def _method_list(space, tcfg):
    methods = ["lerp", "slerp", "recurrent", "tex1", "tex2"]
    if space != "Z" or tcfg.spline_in_z:
        methods.append("spline")
    return methods


def _target_frames(tcfg, S):
    """Keyframes, and the frames each method reconstructs: every
    target_stride-th frame past the longest trailing window, short of the
    last frame, that is not a keyframe."""
    kf = list(range(0, S, tcfg.keyframe_stride))
    if kf[-1] != S - 1:
        kf.append(S - 1)
    start = max(tcfg.tex_window, tcfg.context)
    return np.array(kf), [s for s in range(start, S - 1, tcfg.target_stride) if s not in kf]


def _predict(method, vecs, alphas, s_star, tcfg, recurrent_model, kf):
    """Reconstruct one unobserved frame.

    Linear methods interpolate between the keyframes flanking the target
    (their anchor-to-anchor usage); the smoothing spline imputes the frame
    from every other frame of the trajectory; the Taylor stencils and the
    recurrent baseline work one step ahead from the dense trailing window,
    as local traversal operators do.
    """
    d_alpha = float(alphas[1] - alphas[0])
    if method in ("lerp", "slerp"):
        left = kf[kf < s_star][-1]
        right = kf[kf > s_star][0]
        frac = (alphas[s_star] - alphas[left]) / (alphas[right] - alphas[left])
        if method == "lerp":
            return traversal.lerp(vecs[left], vecs[right], frac)
        try:
            return traversal.slerp(vecs[left], vecs[right], frac)
        except InputError:
            return traversal.lerp(vecs[left], vecs[right], frac)
    if method == "spline":
        observed = np.arange(len(vecs)) != s_star
        curve = traversal.fit_spline(alphas[observed], vecs[observed], tcfg.lam)
        return traversal.spline_traverse(curve, float(alphas[s_star]), 0.0)
    if method in ("tex1", "tex2"):
        window = vecs[s_star - tcfg.tex_window : s_star]
        stencil = traversal.stencil_from_window(window, d_alpha)
        return traversal.tex_extrapolate(stencil, 1 if method == "tex1" else 2)
    if method == "recurrent":
        context = vecs[s_star - tcfg.context : s_star]
        return recurrent_model.rollout(context, 1)[0]
    raise ValueError(f"unknown method {method!r}")


def evaluate_traversal(cfg, ds, model, sched, z_all, c_all, table, seed_rng):
    """Fit and score every traversal operator in every space; `c_all` holds
    the embedded frames, (n_traj, S, d)."""
    tcfg = cfg.traversal
    spaces = _space_vectors(cfg, ds, z_all, c_all)
    test_idx = ds.indices("test")
    train_idx = ds.indices("train")
    kf, targets = _target_frames(tcfg, z_all.shape[1])
    n_render = min(tcfg.render_targets_per_traj, len(targets))
    render_targets = targets[:: max(1, len(targets) // n_render)][:n_render]

    rows = []
    strips = {}
    grid = cfg.render_grid

    true_imgs = {}
    for ti in test_idx:
        for s_star in render_targets:
            true_imgs[(ti, s_star)] = dynsim.render(ds.xs[ti, s_star], grid, ds.mapping)

    for space, info in spaces.items():
        vecs_all = info["vectors"]
        train_vecs = _frames(vecs_all, train_idx)
        center = train_vecs.mean(axis=0)
        scale = float(np.sqrt(np.mean((train_vecs - center) ** 2)))
        rows.append(row(cfg, space, "all", "space_scale", scale, train_vecs.shape[0]))

        rec = traversal.RecurrentPredictor(
            vecs_all.shape[2], hidden=tcfg.recurrent_hidden,
            rng=seed_rng.stream(f"recurrent-{space}-init"),
        )
        traversal.train_recurrent(
            rec, vecs_all[train_idx], tcfg.recurrent_epochs,
            seed_rng.stream(f"recurrent-{space}-train"), lr=tcfg.recurrent_lr,
        )

        for method in _method_list(space, tcfg):
            pred_trajs, render_preds = [], {}
            for ti in test_idx:
                pred = np.stack([_predict(method, vecs_all[ti], ds.alphas[ti], s, tcfg, rec, kf)
                                 for s in targets])
                pred_trajs.append(pred)
                render_preds.update({(ti, s): pred[targets.index(s)] for s in render_targets})
            truth_trajs = [vecs_all[ti][targets] for ti in test_idx]
            preds = np.concatenate(pred_trajs)
            err = metrics.rmse(preds, np.concatenate(truth_trajs))
            rows.append(row(cfg, space, method, "rmse", err, preds.shape[0]))
            rows.append(row(cfg, space, method, "rmse_norm", err / scale, preds.shape[0]))
            _, tae, tae_std = metrics.total_abs_error(pred_trajs, truth_trajs)
            rows.append(row(cfg, space, method, "tae", tae, len(pred_trajs), tae_std))

            if info["renderable"]:
                keys = sorted(render_preds)
                key_traj, key_frame = np.array(keys).T
                cs = np.stack([render_preds[k] for k in keys])
                if space == "Z":
                    z_hat = cs
                else:
                    z_hat = lifting.lift_many(table, cs)
                conds = diffusion.condition_columns(
                    ds.taus[key_traj, key_frame], ds.mus[key_traj], model.cond_components)
                x_hat = diffusion.ddim_sample(model, z_hat, sched,
                                              cfg.diffusion.steps, cond=conds)
                imgs = [dynsim.render(x, grid, ds.mapping) for x in np.atleast_2d(x_hat)]
                ps = [metrics.psnr(img, true_imgs[k], 1.0) for img, k in zip(imgs, keys)]
                ss = [metrics.ssim(img, true_imgs[k], 1.0) for img, k in zip(imgs, keys)]
                for metric, vals in (("psnr", ps), ("ssim", ss)):
                    rows.append(row(cfg, space, method, metric, float(np.mean(vals)),
                                    len(vals), float(np.std(vals))))
                first = test_idx[0]
                strip = [imgs[i] for i, k in enumerate(keys) if k[0] == first]
                if strip:
                    strips[f"{space}-{method}"] = hstack_images(strip)

        # Geometric alignment: per test trajectory, the best planar view of
        # the space's curve against the true latent cycle.
        disparities = []
        for ti in test_idx:
            pts = vecs_all[ti]
            flat2 = analysis.pca_project(analysis.fit_pca(pts, 2), pts)
            disparities.append(metrics.procrustes_distance(flat2, ds.ss[ti]))
        disparities = np.array(disparities)
        rows.append(row(cfg, space, "alignment", "procrustes", float(disparities.mean()),
                        disparities.size, float(disparities.std())))

    first = test_idx[0]
    strips["truth"] = hstack_images(
        [true_imgs[(first, s)] for s in render_targets]
    )
    return rows, strips


# ---------------------------------------------------------------------------
# Commands


def _finish(ws, command, csv_name, rows, summary, images=None, **result):
    """Write a command's PGM images (name -> image, relative to the run
    directory) and CSV rows, then its manifest; returns the result dict."""
    for name, img in sorted((images or {}).items()):
        path = os.path.join(ws.run_dir, f"{name}.pgm")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        ws.artifacts.append(write_pgm(path, img))
    csv_path = write_csv(os.path.join(ws.run_dir, csv_name), rows)
    ws.artifacts.append(csv_path)
    return dict(result, rows=rows, csv=csv_path, run_dir=ws.run_dir,
                manifest=ws.manifest(command, summary))


def cmd_simulate(cfg, out_dir, force=False):
    ws = Workspace(out_dir, cfg, force)
    ds = stage_dataset(ws)
    summary = {
        "n_traj": len(ds.splits),
        "n_train": len(ds.indices("train")),
        "n_test": len(ds.indices("test")),
        "state_dim": ds.state_dim,
    }
    manifest = ws.manifest("simulate", summary)
    return {"dataset": ws.path("dataset", _dataset_key(cfg)), "manifest": manifest}


def cmd_pipeline(cfg, out_dir, force=False):
    ws = Workspace(out_dir, cfg, force)
    ds, model, sched, z_all, encoder = _upstream(ws, cfg.embedding, "encoder")
    c_all = embed_frames(encoder, ds, z_all)
    table = stage_table(ws, ds, z_all, c_all)
    t0 = time.perf_counter()
    rows, strips = evaluate_traversal(
        cfg, ds, model, sched, z_all, c_all, table, Rng(cfg.seed).stream("traversal")
    )
    ws.timings["evaluate"] = time.perf_counter() - t0
    summary = {
        f"{r['space']}/{r['method']}/{r['metric']}": r["value"]
        for r in rows
        if r["metric"] in ("rmse", "rmse_norm")
    }
    with open(os.path.join(ws.run_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    images = {f"strips/{name}": img for name, img in strips.items()}
    return _finish(ws, "pipeline", "pipeline.csv", rows, summary, images)


def _band_folds(mus, folds):
    lo, hi = float(np.min(mus)), float(np.max(mus))
    edges = np.linspace(lo, hi, folds + 1)
    edges[-1] = np.inf
    return [(edges[i], edges[i + 1]) for i in range(folds)]


def classification_metrics(cfg, ds, z_all, encoder, seed_rng, labels=None):
    """Leave-mu-band-out CV in Z and C, pooled over folds.

    With a single fold this degenerates to plain train/test evaluation on
    the dataset's own split.
    """
    acfg = cfg.analysis
    n_traj, S = z_all.shape[:2]
    stride = max(1, S // acfg.frames_per_traj_class)
    frame_sel = np.arange(0, S, stride)

    labels = ds.labels if labels is None else labels
    c_all = embed_frames(encoder, ds, z_all)
    feats = {
        "Z": z_all[:, frame_sel, :],
        "C": c_all[:, frame_sel, :],
    }

    if acfg.folds <= 1:
        folds = [(np.array(ds.indices("train")), np.array(ds.indices("test")))]
    else:
        folds = []
        for lo, hi in _band_folds(ds.mus, acfg.folds):
            test_traj = np.flatnonzero((ds.mus >= lo) & (ds.mus < hi))
            folds.append((np.setdiff1d(np.arange(n_traj), test_traj), test_traj))
    # A fold is scored only if it has test frames and both classes to train on.
    folds = [(f, train, test) for f, (train, test) in enumerate(folds)
             if test.size and np.unique(labels[train]).size > 1]
    if not folds:
        raise InputError("no fold's training set holds both classes")

    rows = []
    results = {}
    for space, arr in feats.items():
        for kernel in ("linear", "rbf"):
            pooled_scores, pooled_labels = [], []
            for f, train_traj, test_traj in folds:
                y_train = np.repeat(labels[train_traj], frame_sel.size)
                x_train = _frames(arr, train_traj)
                x_test = _frames(arr, test_traj)
                svm_cfg = analysis.SvmConfig(
                    kernel=kernel, lam=acfg.svm_lam, steps=acfg.svm_steps,
                    gamma=acfg.svm_gamma, max_points=acfg.svm_max_points,
                )
                svm = analysis.train_svm(
                    x_train, y_train, svm_cfg,
                    seed_rng.stream(f"svm-{space}-{kernel}-{f}"),
                )
                pooled_scores.append(analysis.svm_decision(svm, x_test))
                pooled_labels.append(np.repeat(labels[test_traj], frame_sel.size))
            truth = np.concatenate(pooled_labels)
            vals = analysis.svm_score(truth, np.concatenate(pooled_scores))
            results[(space, kernel)] = vals
            for metric, value in vals.items():
                rows.append(row(cfg, space, f"svm-{kernel}", metric, value, truth.size))
    return rows, results


def cmd_classify(cfg, out_dir, force=False):
    ws = Workspace(out_dir, cfg, force)
    emb = dataclasses.replace(cfg.embedding, class_match=True)
    ds, _, _, z_all, encoder = _upstream(ws, emb, "encoder-classify")
    t0 = time.perf_counter()
    rows, results = classification_metrics(
        cfg, ds, z_all, encoder, Rng(cfg.seed).stream("classify")
    )
    ws.timings["classify"] = time.perf_counter() - t0
    summary = {f"{s}/{k}": v for (s, k), v in results.items()}
    return _finish(ws, "classify", "classification.csv", rows, summary, results=results)


def cmd_kde_edit(cfg, out_dir, eta_list=(0.0, 0.25, 0.5, 0.75, 1.0), force=False):
    ws = Workspace(out_dir, cfg, force)
    # Structure-retaining compact embedding (same family as the probe): the
    # peak-to-peak segment then crosses intermediate regimes instead of the
    # empty gap between class-collapsed clusters.
    emb = dataclasses.replace(
        probe_embedding_config(cfg), d=min(cfg.analysis.kde_d, 3)
    )
    ds, model, sched, z_all, encoder = _upstream(ws, emb, "encoder-kde")
    c_all = embed_frames(encoder, ds, z_all)
    table = stage_table(ws, ds, z_all, c_all, emb, tag="table-kde")

    train = np.array(ds.indices("train"))
    labels = ds.labels[train]
    class0 = _frames(c_all, train[labels == 0])
    class1 = _frames(c_all, train[labels == 1])
    cap = cfg.analysis.kde_frames_per_class
    class0 = class0[:: max(1, class0.shape[0] // cap)]
    class1 = class1[:: max(1, class1.shape[0] // cap)]

    kde = analysis.kde_fit(class0, class1, h=cfg.analysis.kde_bandwidth,
                           nodes=cfg.analysis.kde_nodes)
    if kde.degenerate:
        raise NumericError("class-conditional densities are indistinguishable; "
                           "no traversal direction exists")

    train_flat = ds.stack("train")
    c_flat = embed_frames(encoder, ds, z_all, "train")

    def peak_condition(point):
        # Mean (tau, mu) of the frames whose embeddings sit nearest the peak.
        near = np.argsort(np.linalg.norm(c_flat - point, axis=1), kind="stable")[:16]
        return float(np.mean(train_flat["tau"][near])), float(np.mean(train_flat["mu"][near]))

    tau0, mu0 = peak_condition(kde.m_class0)
    tau1, mu1 = peak_condition(kde.m_class1)

    frames = []
    for eta in eta_list:
        c_eta = analysis.kde_traverse(kde, float(eta))
        z_eta = lifting.lift(table, c_eta)
        cond = diffusion.condition_columns(
            np.array([(1.0 - eta) * tau0 + eta * tau1]),
            np.array([(1.0 - eta) * mu0 + eta * mu1]),
            model.cond_components,
        )
        x_hat = diffusion.ddim_sample(model, z_eta[None, :], sched,
                                      cfg.diffusion.steps, cond=cond)
        frames.append(dynsim.render(x_hat[0], cfg.render_grid, ds.mapping))
    diffs = [frame - frames[0] for frame in frames]
    rows = [row(cfg, "C", f"kde@{float(eta):g}", "diff_l1", float(np.abs(diff).sum()),
                diff.size)
            for eta, diff in zip(eta_list, diffs)]
    images = {"kde/morph-strip": hstack_images(frames),
              "kde/diff-strip": hstack_images([0.5 + 0.5 * diff for diff in diffs])}
    return _finish(ws, "kde-edit", "kde.csv", rows, {"etas": list(map(float, eta_list))},
                   images, frames=frames,
                   peaks=(kde.m_class0.tolist(), kde.m_class1.tolist()))


def cmd_sweep_dim(cfg, out_dir, d_list, force=False):
    if len(d_list) == 0:
        raise ConfigError("dimension list must be nonempty", field="sweep.d_list")
    ws = Workspace(out_dir, cfg, force)
    rows = []
    for d in d_list:
        sub = validate_config(
            dataclasses.replace(cfg, embedding=dataclasses.replace(cfg.embedding, d=int(d))))
        tag = f"{cfg.dataset.name}:d{int(d)}"
        res = cmd_pipeline(sub, out_dir, force=force)
        rows += [dict(r, dataset=tag) for r in res["rows"]]
        # Each dimension's pipeline keeps its own workspace; its manifest's
        # stage seconds and artifacts go into the sweep's, under "d<d>/".
        with open(res["manifest"]) as fh:
            done = json.load(fh)
        ws.timings.update({f"d{int(d)}/{k}": v for k, v in done["stage_seconds"].items()})
        ws.artifacts += done["artifacts"] + [res["manifest"]]
    return _finish(ws, "sweep-dim", "sweep-dim.csv", rows, {"d_list": [int(d) for d in d_list]})


def orthogonality_values(cfg, ds, z_all, encoder):
    test = ds.stack("test", z=z_all)
    c_test = embed_frames(encoder, ds, z_all, "test")
    return {
        "Z": analysis.orthogonality_probe(test["z"], test["tau"], test["mu"]),
        "C": analysis.orthogonality_probe(c_test, test["tau"], test["mu"]),
    }


def probe_embedding_config(cfg):
    """Encoder settings for the disentanglement probe: a compact 3-d space
    trained with both proximity clauses (phase window across trajectories
    plus a regime window), so both factors get an explicit axis."""
    emb = cfg.embedding
    return dataclasses.replace(
        emb,
        d=min(emb.d, 3),
        cross_trajectory_time=True,
        delta_y=emb.delta_y if emb.delta_y is not None else 0.05,
    )


def cmd_probe_orthogonality(cfg, out_dir, force=False):
    ws = Workspace(out_dir, cfg, force)
    ds, _, _, z_all, encoder = _upstream(ws, probe_embedding_config(cfg), "encoder-probe")
    values = orthogonality_values(cfg, ds, z_all, encoder)
    n = len(ds.indices("test")) * z_all.shape[1]
    rows = [row(cfg, space, "ols-probe", "regression_cosine", v, n)
            for space, v in values.items()]
    return _finish(ws, "probe-orthogonality", "orthogonality.csv", rows, values,
                   values=values)


# ---------------------------------------------------------------------------
# CLI


def _add_common(p):
    p.add_argument("--config", default=None, help="JSON config path (defaults used if omitted)")
    p.add_argument("--out", default="runs", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--force", action="store_true", help="recompute cached stages")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dynalign",
        description="Latent-dynamics editing experiments on synthetic trajectories",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "pipeline", "classify", "probe-orthogonality"):
        _add_common(sub.add_parser(name))
    p = sub.add_parser("kde-edit")
    _add_common(p)
    p.add_argument("--etas", default="0,0.25,0.5,0.75,1",
                   help="comma-separated traversal positions in [0, 1]")
    p = sub.add_parser("sweep-dim")
    _add_common(p)
    p.add_argument("--dims", default="2,3,4,8,16", help="comma-separated embedding dims")
    sub.add_parser("config-schema")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "config-schema":
            print(json.dumps(config_schema(), indent=2, sort_keys=True))
            return 0
        cfg = load_config(args.config, args.seed)
        if args.command == "simulate":
            result = cmd_simulate(cfg, args.out, args.force)
        elif args.command == "pipeline":
            result = cmd_pipeline(cfg, args.out, args.force)
        elif args.command == "classify":
            result = cmd_classify(cfg, args.out, args.force)
        elif args.command == "kde-edit":
            etas = [float(x) for x in args.etas.split(",") if x != ""]
            result = cmd_kde_edit(cfg, args.out, etas, args.force)
        elif args.command == "sweep-dim":
            dims = [int(x) for x in args.dims.split(",") if x != ""]
            result = cmd_sweep_dim(cfg, args.out, dims, args.force)
        elif args.command == "probe-orthogonality":
            result = cmd_probe_orthogonality(cfg, args.out, args.force)
        else:  # pragma: no cover
            raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, InputError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    for key in ("csv", "manifest", "dataset"):
        if key in result:
            print(f"{key}: {result[key]}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

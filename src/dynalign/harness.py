"""Experiment harness: JSON configuration, cached pipeline stages, the
end-to-end comparisons (traversal benchmark, classification, KDE class
morphing, dimension sweep, orthogonality probe), and the CLI.

Artifacts are cached per stage under a key that hashes the stage's code
version, the configuration fields it reads and the key its upstream stage
was served under, so reruns and sweeps skip completed work unless --force
is given. Commands are deterministic under a fixed config.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import operator
import os
import re
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Optional, get_args

import numpy as np

from . import analysis, binio, contrastive, diffusion, dynsim, lifting, metrics, traversal
from .contrastive import EmbeddingConfig
from .errors import ConfigError, FormatError, InputError, NumericError
from .lifting import LiftingConfig
from .numcore import Rng, one_blas_thread, split_count

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


def _is_a(value, kind):
    """JSON type check: a bool is not a number, an int is a float, and a
    float is finite (Python's json reads NaN and Infinity)."""
    if isinstance(value, bool) and kind is not bool:
        return False
    if kind is float:
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, kind)


def _kind_name(kind):
    return "finite float" if kind is float else kind.__name__


def _typed(f, value, path):
    """`value` for config dataclass field `f`, checked against the field's
    type: a section (a config dataclass) is built from it by recursion; else
    the default's type, X for an Optional[X] default of None, and a JSON
    list of the default's element type for a tuple."""
    if dataclasses.is_dataclass(f.type):
        return _from_dict(f.type, value, path)
    default = f.default
    if isinstance(default, tuple):
        kind = type(default[0])
        if isinstance(value, list) and all(_is_a(v, kind) for v in value):
            return tuple(value)
        expected = f"a list of {_kind_name(kind)}"
    else:
        optional = default is None
        kind = get_args(f.type)[0] if optional else type(default)
        if (optional and value is None) or _is_a(value, kind):
            return value
        expected = _kind_name(kind) + (" or null" if optional else "")
    raise ConfigError(f"expected {expected}, got {value!r}", field=path)


def _from_dict(cls, doc, path=""):
    """Config dataclass `cls` from the fields of JSON object `doc`; unknown
    or wrongly typed fields are rejected with their path."""
    if not isinstance(doc, dict):
        raise ConfigError("must be a JSON object", field=path or "configuration document")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    values = {}
    for name, value in doc.items():
        where = f"{path}.{name}" if path else name
        if name not in fields:
            raise ConfigError("unknown field", field=where)
        values[name] = _typed(fields[name], value, where)
    return cls(**values)


def config_from_dict(doc):
    """Build and validate an ExperimentConfig from a JSON document."""
    return validate_config(_from_dict(ExperimentConfig, doc))


# One bound per field, as (test, bound): ">" / ">=" a least value, "<" a
# greatest one, "[)" a (least, below) pair, "in" a set of allowed values,
# "re" a pattern the whole text matches. A null value (the field's
# heuristic) is not checked. The seed seeds numpy's RNG, which takes no
# negative entropy. The dataset name is a CSV field and part of sweep-dim's
# "name:d<d>" tags, so it holds no comma, quote or line break. tex2 needs a
# 3-point window, the linear methods a keyframe gap with a frame inside it, a
# KDE grid two nodes per axis, a contrastive window two frames to pair, the
# noise schedule two steps and DDIM one stride over them. A trajectory needs
# a time span to move over, and damping must not grow the orbit. The
# renderer's fixed-point inverse of the state map contracts only while
# 2.5 * nonlin_amp < 1 (2.5 is the spectral norm of the map's nonlinear part).
# Every training runs at least one epoch at a positive learning rate, and
# an SVM keeps at least one point of each class.
_BOUNDS = {
    "seed": (">=", 0), "render_grid": (">=", 8),
    "dataset.name": ("re", r"[A-Za-z0-9_.-]+"), "dataset.n_traj": (">=", 2),
    "dataset.frames_per_traj": (">=", 8), "dataset.state_dim": (">=", 2),
    "dataset.test_fraction": (">", 0), "dataset.t_max": (">", 0),
    "dataset.zeta_max": (">=", 0), "dataset.nonlin_amp": ("[)", (0, 0.4)),
    "diffusion.T": (">=", 2), "diffusion.steps": (">=", 1), "diffusion.batch": (">=", 1),
    "diffusion.beta_start": (">", 0), "diffusion.beta_end": ("<", 1),
    "diffusion.condition_on": ("in", (("tau",), ("tau", "mu"))),
    "diffusion.epochs": (">=", 1), "diffusion.lr": (">", 0),
    "embedding.d": (">=", 1), "embedding.tau": (">", 0),
    "embedding.traj_per_batch": (">=", 1), "embedding.window": (">=", 2),
    "embedding.epochs": (">=", 1), "embedding.lr": (">", 0), "embedding.patience": (">=", 1),
    "embedding.min_improve": (">=", 0), "embedding.delta_t": (">=", 0),
    "embedding.delta_y": (">=", 0), "embedding.val_fraction": (">", 0),
    "traversal.lam": (">=", 0),
    "traversal.keyframe_stride": (">=", 2), "traversal.tex_window": (">=", 3),
    "traversal.context": (">=", 1), "traversal.target_stride": (">=", 1),
    "traversal.render_targets_per_traj": (">=", 1), "traversal.recurrent_hidden": (">=", 1),
    "traversal.recurrent_epochs": (">=", 1), "traversal.recurrent_lr": (">", 0),
    "lifting.kernel": ("in", lifting.KERNELS), "lifting.metric": ("in", lifting.METRICS),
    "lifting.sigma": (">", 0), "lifting.holdout_fraction": (">", 0),
    "analysis.svm_lam": (">", 0), "analysis.svm_steps": (">=", 1),
    "analysis.svm_max_points": (">=", 2), "analysis.folds": (">=", 1),
    "analysis.svm_gamma": (">", 0), "analysis.frames_per_traj_class": (">=", 1),
    "analysis.kde_d": (">=", 1), "analysis.kde_bandwidth": (">", 0),
    "analysis.kde_nodes": (">=", 2), "analysis.kde_frames_per_class": (">=", 1),
}
_COMPARE = {
    ">": (operator.gt, "above {}"), ">=": (operator.ge, "at least {}"),
    "<": (operator.lt, "below {}"),
    "[)": (lambda value, b: b[0] <= value < b[1], "at least {0[0]} and below {0[1]}"),
    "in": (lambda value, allowed: value in allowed, "one of {}"),
    "re": (lambda value, pattern: re.fullmatch(pattern, value) is not None,
           "a name matching {}"),
}


def validate_config(cfg):
    d, t, dc = cfg.dataset, cfg.traversal, cfg.diffusion
    if len(d.mu_range) != 2 or not (d.mu_range[0] <= d.mu_range[1]):
        raise ConfigError(f"invalid interval {d.mu_range}", field="dataset.mu_range")
    for path, (test, bound) in _BOUNDS.items():
        value = operator.attrgetter(path)(cfg)
        holds, words = _COMPARE[test]
        if value is not None and not holds(value, bound):
            raise ConfigError("must be " + words.format(bound), field=path)
    if not cfg.lifting.k_grid or min(cfg.lifting.k_grid) < 1:
        raise ConfigError("must be a non-empty list of counts of at least 1",
                          field="lifting.k_grid")
    for path in ("diffusion.hidden", "embedding.hidden"):
        if any(width < 1 for width in operator.attrgetter(path)(cfg)):
            raise ConfigError("every layer width must be at least 1", field=path)
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
    return cfg


def config_to_dict(cfg):
    """The config as a JSON document (tuples become lists)."""
    return json.loads(json.dumps(dataclasses.asdict(cfg)))


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
    """Read and validate a config file (defaults when `path` is None); a
    seed override takes the place of the document's seed before the one
    check."""
    doc = {}
    if path is not None:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if seed is not None and isinstance(doc, dict):
        doc = {**doc, "seed": int(seed)}
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# Artifact plumbing


# The code version of each kind of stage, folded into its key and so into the
# keys of every stage after it: bump an entry when its code writes other bytes
# under an unchanged config, and its cached artifacts are recomputed.
STAGE_VERSION = {"dataset": 1, "diffusion": 1, "latents": 1, "encoder": 2, "table": 1}
# Digits the manifest keeps of a stage record's measurements.
_RECORD_DIGITS = {"seconds": 3, "cpu_seconds": 3, "peak_rss_mb": 1}

LATENTS_MAGIC = b"LAT1"


def _peak_rss_mb():
    """The process's resident-set high-water mark so far, in MB (getrusage
    reports KiB on Linux, bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


class Workspace:
    """Output directory with keyed stage caching. It keeps one record per
    cached stage or timed block, `stages[name]`: its wall and CPU seconds,
    the process's peak RSS after it, and for a cached stage the key it was
    served under and whether that was a cache "hit" or "miss"."""

    def __init__(self, out_dir, cfg, force=False):
        self.cfg = cfg
        self.force = force
        self.cache = os.path.join(out_dir, "cache")
        self.run_dir = os.path.join(out_dir, config_hash(cfg))
        os.makedirs(self.cache, exist_ok=True)
        os.makedirs(self.run_dir, exist_ok=True)
        self.stages = {}
        self.artifacts = []

    def path(self, stage, key):
        return os.path.join(self.cache, f"{stage}-{key}.bin")

    def key(self, kind, upstream, *parts):
        """A stage's key, a constructive trace: the hash of its kind's code
        version, the key this workspace served its `upstream` stage under
        (none for the dataset) and the config `parts` the stage reads."""
        above = () if upstream is None else (self.stages[upstream]["key"],)
        trace = (kind, STAGE_VERSION[kind]) + above + parts
        return _hash_text("|".join(json.dumps(p, sort_keys=True, default=str) for p in trace))

    @contextlib.contextmanager
    def timed(self, name):
        """Add the wall and CPU seconds of the block to stages[name], and
        record the process's peak RSS after it there. A numeric failure
        raised inside, a floating-point error (see `main`) included, leaves as
        NumericError naming the stage."""
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            yield
        except (FloatingPointError, NumericError) as exc:
            raise NumericError(f"stage {name}: {exc}") from exc
        record = self.stages.setdefault(name, {"seconds": 0.0, "cpu_seconds": 0.0})
        record["seconds"] += time.perf_counter() - start
        record["cpu_seconds"] += time.process_time() - cpu_start
        record["peak_rss_mb"] = _peak_rss_mb()

    def stage(self, name, key, writer, reader):
        """Run or reuse one cached stage; returns the loaded artifact. Its
        record gets its seconds (write and read on a miss, read on a hit),
        its key, and whether it was served from the cache."""
        path = self.path(name, key)
        with self.timed(name):
            hit = not self.force and os.path.exists(path)
            if not hit:
                writer(path)
            artifact = reader(path)
        self.stages[name].update(key=key, cache="hit" if hit else "miss")
        self.artifacts.append(path)
        return artifact

    def manifest(self, command, summary):
        doc = {
            "command": command,
            "config_hash": config_hash(self.cfg),
            "config": config_to_dict(self.cfg),
            "artifacts": sorted(set(self.artifacts)),
            "stages": {name: {k: round(v, _RECORD_DIGITS[k]) if k in _RECORD_DIGITS else v
                              for k, v in record.items()}
                       for name, record in self.stages.items()},
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

    key = ws.key("dataset", None, cfg.seed, dataclasses.asdict(cfg.dataset))
    return ws.stage("dataset", key, write, dynsim.load_dataset)


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

    # Training never reads `steps`; only the latents depend on it.
    fields = {k: v for k, v in dataclasses.asdict(cfg.diffusion).items() if k != "steps"}
    return ws.stage("diffusion", ws.key("diffusion", "dataset", fields), write,
                    diffusion.load_model)


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
        return binio.checked_shape(arrays["z"], ds.xs.shape, "latents")

    return ws.stage("latents", ws.key("latents", "diffusion", cfg.diffusion.steps), write, read)


def _upstream(ws, emb_cfg, tag):
    """The cached chain every command starts with: dataset -> diffusion ->
    latents -> encoder. The stages run one after another from here, never
    inside another stage's writer, so each stage's seconds are its own."""
    ds = stage_dataset(ws)
    model, sched = stage_diffusion(ws, ds)
    z_all = stage_latents(ws, ds, model, sched)
    encoder = stage_encoder(ws, ds, z_all, emb_cfg, tag)
    return ds, model, sched, z_all, encoder


def embed_frames(encoder, ds, z_all, split=None):
    """Embed one split's frames in one batch, as (n, d) rows; with no split,
    every frame, as an (n_traj, S, d) array. A conditioned encoder also gets
    each frame's (tau, mu)."""
    frames = ds.stack(split, z=z_all)
    cond = np.stack([frames["tau"], frames["mu"]], axis=1) if encoder.use_condition else None
    c = contrastive.embed(encoder, frames["z"], cond)
    return c if split else c.reshape(z_all.shape[0], z_all.shape[1], -1)


def stage_encoder(ws, ds, z_all, emb_cfg, tag):
    cfg = ws.cfg

    def write(path):
        train = ds.indices("train")
        enc = contrastive.EncoderModel(
            ds.state_dim, emb_cfg.d, hidden=tuple(emb_cfg.hidden),
            use_condition=emb_cfg.use_condition,
            rng=Rng(cfg.seed).stream(f"{tag}-init"),
        )
        contrastive.train_encoder(
            enc, z_all[train], ds.taus[train], ds.mus[train], emb_cfg,
            Rng(cfg.seed).stream(f"{tag}-train"), labels=ds.labels[train],
        )
        contrastive.save_encoder(enc, path)

    key = ws.key("encoder", "latents", dataclasses.asdict(emb_cfg))
    return ws.stage(tag, key, write, contrastive.load_encoder)


def _frames(arr, idx):
    """The frames of trajectories `idx` of an (n_traj, S, dim) array, as rows."""
    return arr[idx].reshape(-1, arr.shape[2])


def stage_table(ws, ds, z_all, c_all, encoder="encoder", tag="table"):
    """kNN lifting table from the frames `c_all` that this workspace's
    `encoder` stage embedded; that stage's key is part of the table's."""
    cfg = ws.cfg

    def write(path):
        train_idx = ds.indices("train")
        n_hold = split_count(len(train_idx), cfg.lifting.holdout_fraction)
        ref, hold = train_idx[:-n_hold], train_idx[-n_hold:]
        table = lifting.build_table(_frames(c_all, ref), _frames(z_all, ref), cfg.lifting)
        table.k = lifting.select_k(table, cfg.lifting.k_grid,
                                   _frames(c_all, hold), _frames(z_all, hold))
        lifting.save_table(table, path)

    return ws.stage(tag, ws.key("table", encoder, dataclasses.asdict(cfg.lifting), tag), write,
                    lifting.load_table)


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
    """name -> (n_traj, S, dim) vectors; PCA keeps as many components as the
    embedding has dimensions."""
    spaces = {"Z": z_all, "C": c_all}
    if cfg.traversal.include_pca:
        n_traj, S, D = z_all.shape
        d = c_all.shape[-1]
        pca = analysis.fit_pca(_frames(z_all, ds.indices("train")), d)
        spaces["PCA"] = analysis.pca_project(pca, z_all.reshape(-1, D)).reshape(n_traj, S, d)
    return spaces


def _target_frames(tcfg, S):
    """Keyframes, and the frames each method reconstructs: every
    target_stride-th frame past the longest trailing window, short of the
    last frame, that is not a keyframe."""
    kf = list(range(0, S, tcfg.keyframe_stride))
    if kf[-1] != S - 1:
        kf.append(S - 1)
    start = max(tcfg.tex_window, tcfg.context)
    return np.array(kf), [s for s in range(start, S - 1, tcfg.target_stride) if s not in kf]


def _predict_targets(method, vecs, alphas, targets, tcfg, kf, rec):
    """Reconstruct every target frame of every trajectory of `vecs`
    (n, S, dim) at once; returns (n, n_targets, dim). All trajectories share
    the knots `alphas`.

    Linear methods interpolate between the keyframes flanking the target
    (their anchor-to-anchor usage); the smoothing spline imputes the frame
    from every other frame of the trajectory; the Taylor stencils and the
    recurrent baseline work one step ahead from the dense trailing window,
    as local traversal operators do.
    """
    n, S, dim = vecs.shape

    def trailing(width):
        # Each target's dense trailing window: (n, n_targets, width, dim).
        return np.take(vecs, targets[:, None] + np.arange(-width, 0), axis=1)

    if method in ("lerp", "slerp"):
        pos = np.searchsorted(kf, targets)
        left, right = kf[pos - 1], kf[pos]
        frac = (alphas[targets] - alphas[left]) / (alphas[right] - alphas[left])
        a, b = np.take(vecs, left, axis=1), np.take(vecs, right, axis=1)
        if method == "lerp":
            return traversal.lerp(a, b, frac)
        # slerp stays per row: a row whose endpoints it rejects (zero or
        # antiparallel) falls back to lerp alone.
        out = np.empty_like(a)
        for i, j in np.ndindex(n, len(targets)):
            try:
                out[i, j] = traversal.slerp(a[i, j], b[i, j], frac[j])
            except InputError:
                out[i, j] = traversal.lerp(a[i, j], b[i, j], frac[j])
        return out
    if method == "spline":
        # One solve per target: the leave-one-out knots are the same for
        # every trajectory, whose coordinates are the right-hand sides.
        out = np.empty((n, len(targets), dim))
        for j, s in enumerate(targets):
            observed = np.arange(S) != s
            points = vecs[:, observed].transpose(1, 0, 2).reshape(S - 1, n * dim)
            curve = traversal.fit_spline(alphas[observed], points, tcfg.lam)
            out[:, j] = traversal.spline_traverse(curve, float(alphas[s]), 0.0).reshape(n, -1)
        return out
    if method in ("tex1", "tex2"):
        stencil = traversal.stencil_from_window(trailing(tcfg.tex_window),
                                                float(alphas[1] - alphas[0]))
        return traversal.tex_extrapolate(stencil, 1 if method == "tex1" else 2)
    if method == "recurrent":
        contexts = trailing(tcfg.context).reshape(-1, tcfg.context, dim)
        return rec.rollout(contexts).reshape(n, len(targets), dim)
    raise ValueError(f"unknown method {method!r}")


def evaluate_traversal(cfg, ds, model, sched, z_all, c_all, table, seed_rng):
    """Fit and score every traversal operator in every space; `c_all` holds
    the embedded frames, (n_traj, S, d). Each (space, method) predicts every
    (test trajectory, target) pair in one batch. Z and C predictions are
    rendered (C's lifted to Z first), one sampling and one render per space,
    and scored against the true frames."""
    tcfg = cfg.traversal
    test_idx = ds.indices("test")
    train_idx = ds.indices("train")
    alphas = ds.alphas[test_idx[0]]
    if np.any(ds.alphas[test_idx] != alphas):
        raise InputError("test trajectories differ in their ordering parameters")
    kf, targets = _target_frames(tcfg, z_all.shape[1])
    targets = np.array(targets)
    n_pred = len(test_idx) * len(targets)
    n_render = min(tcfg.render_targets_per_traj, len(targets))
    at = np.arange(n_render) * max(1, len(targets) // n_render)
    # Rendered frames are trajectory-major: (test trajectory, target) rows.
    render_frames = targets[at]
    true_imgs = dynsim.render(ds.xs[np.ix_(test_idx, render_frames)], cfg.render_grid,
                              ds.mapping).reshape(-1, cfg.render_grid, cfg.render_grid)
    conds = diffusion.condition_columns(ds.taus[np.ix_(test_idx, render_frames)].ravel(),
                                        np.repeat(ds.mus[test_idx], n_render),
                                        model.cond_components)
    rows = []
    strips = {"truth": hstack_images(true_imgs[:n_render])}

    for space, vecs_all in _space_vectors(cfg, ds, z_all, c_all).items():
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

        methods = ["lerp", "slerp", "recurrent", "tex1", "tex2"]
        if space != "Z" or tcfg.spline_in_z:
            methods.append("spline")
        test_vecs = vecs_all[test_idx]
        truth = test_vecs[:, targets]
        # (n_test, n_targets, dim) each, like truth
        preds = [_predict_targets(m, test_vecs, alphas, targets, tcfg, kf, rec) for m in methods]
        if space != "PCA":
            # Every method's render targets in one sampling and one render:
            # (method, test trajectory, target) rows.
            z_hat = np.concatenate([pred[:, at].reshape(-1, pred.shape[2]) for pred in preds])
            if space == "C":
                z_hat = lifting.lift_many(table, z_hat)
            x_hat = diffusion.ddim_sample(model, z_hat, sched, cfg.diffusion.steps,
                                          cond=np.tile(conds, (len(methods), 1)))
            imgs = dynsim.render(x_hat, cfg.render_grid, ds.mapping).reshape(
                len(methods), *true_imgs.shape)
        for i, (method, pred) in enumerate(zip(methods, preds)):
            err = metrics.rmse(pred, truth)
            rows.append(row(cfg, space, method, "rmse", err, n_pred))
            rows.append(row(cfg, space, method, "rmse_norm", err / scale, n_pred))
            _, tae, tae_std = metrics.total_abs_error(pred, truth)
            rows.append(row(cfg, space, method, "tae", tae, len(test_idx), tae_std))
            if space == "PCA":
                continue
            for metric, score in (("psnr", metrics.psnr), ("ssim", metrics.ssim)):
                vals = score(imgs[i], true_imgs, 1.0)
                rows.append(row(cfg, space, method, metric, float(np.mean(vals)),
                                vals.size, float(np.std(vals))))
            strips[f"{space}-{method}"] = hstack_images(imgs[i][:n_render])

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
    return {"dataset": ws.path("dataset", ws.stages["dataset"]["key"]), "manifest": manifest}


def cmd_pipeline(cfg, out_dir, force=False):
    ws = Workspace(out_dir, cfg, force)
    ds, model, sched, z_all, encoder = _upstream(ws, cfg.embedding, "encoder")
    with ws.timed("embed"):
        c_all = embed_frames(encoder, ds, z_all)
    table = stage_table(ws, ds, z_all, c_all)
    with ws.timed("evaluate"):
        rows, strips = evaluate_traversal(
            cfg, ds, model, sched, z_all, c_all, table, Rng(cfg.seed).stream("traversal")
        )
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


@one_blas_thread()
def classification_metrics(cfg, ds, z_all, encoder, seed_rng):
    """Leave-mu-band-out CV in Z and C, pooled over folds, on one BLAS thread.

    With a single fold this degenerates to plain train/test evaluation on
    the dataset's own split.
    """
    acfg = cfg.analysis
    n_traj, S = z_all.shape[:2]
    stride = max(1, S // acfg.frames_per_traj_class)
    frame_sel = np.arange(0, S, stride)

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
             if test.size and np.unique(ds.labels[train]).size > 1]
    if not folds:
        raise InputError("no fold's training set holds both classes")

    rows = []
    results = {}
    for space, arr in feats.items():
        for kernel in ("linear", "rbf"):
            pooled_scores, pooled_labels = [], []
            for f, train_traj, test_traj in folds:
                y_train = np.repeat(ds.labels[train_traj], frame_sel.size)
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
                pooled_labels.append(np.repeat(ds.labels[test_traj], frame_sel.size))
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
    with ws.timed("classify"):
        rows, results = classification_metrics(
            cfg, ds, z_all, encoder, Rng(cfg.seed).stream("classify")
        )
    summary = {f"{s}/{k}": v for (s, k), v in results.items()}
    return _finish(ws, "classify", "classification.csv", rows, summary, results=results)


def cmd_kde_edit(cfg, out_dir, eta_list=(0.0, 0.25, 0.5, 0.75, 1.0), force=False):
    ws = Workspace(out_dir, cfg, force)
    # The morph works in the probe's structure-retaining compact space, so
    # the peak-to-peak segment crosses intermediate regimes instead of the
    # empty gap between class-collapsed clusters. At the default kde_d the
    # probe's cached encoder serves it.
    emb = probe_embedding_config(cfg, cfg.analysis.kde_d)
    ds, model, sched, z_all, encoder = _upstream(ws, emb, "encoder-probe")
    with ws.timed("embed"):
        c_all = embed_frames(encoder, ds, z_all)
    table = stage_table(ws, ds, z_all, c_all, "encoder-probe", tag="table-kde")

    with ws.timed("kde"):
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

        train_flat = ds.stack("train", c=c_all)

        def peak_condition(point):
            # Mean (tau, mu) of the frames whose embeddings sit nearest the peak.
            near = np.argsort(np.linalg.norm(train_flat["c"] - point, axis=1), kind="stable")[:16]
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
        # stage records and artifacts go into the sweep's, under "d<d>/".
        with open(res["manifest"]) as fh:
            done = json.load(fh)
        ws.stages.update({f"d{int(d)}/{k}": v for k, v in done["stages"].items()})
        ws.artifacts += done["artifacts"] + [res["manifest"]]
    return _finish(ws, "sweep-dim", "sweep-dim.csv", rows, {"d_list": [int(d) for d in d_list]})


def probe_embedding_config(cfg, d=None):
    """Encoder settings of the compact probe space that `probe-orthogonality`
    and `kde-edit` share: at most 3 dimensions (`d`, the embedding's by
    default), trained with both proximity clauses (phase window across
    trajectories plus a regime window), so both factors get an explicit axis.
    Both commands cache it as "encoder-probe"; equal settings train once."""
    emb = cfg.embedding
    return dataclasses.replace(
        emb,
        d=min(emb.d if d is None else d, 3),
        cross_trajectory_time=True,
        delta_y=emb.delta_y if emb.delta_y is not None else 0.05,
    )


def cmd_probe_orthogonality(cfg, out_dir, force=False):
    ws = Workspace(out_dir, cfg, force)
    ds, _, _, z_all, encoder = _upstream(ws, probe_embedding_config(cfg), "encoder-probe")
    with ws.timed("probe"):
        test = ds.stack("test", z=z_all)
        c_test = embed_frames(encoder, ds, z_all, "test")
        values = {space: analysis.orthogonality_probe(x, test["tau"], test["mu"])
                  for space, x in (("Z", test["z"]), ("C", c_test))}
    n = test["z"].shape[0]
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


def _cli_list(text, flag, convert, ok, what):
    """The entries of a non-empty comma-separated list flag, each `ok`."""
    try:
        values = [convert(x) for x in text.split(",") if x != ""]
    except ValueError:
        values = []
    if not values or not all(map(ok, values)):
        raise ConfigError(f"must be a comma-separated list of {what}, got {text!r}", field=flag)
    return values


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "config-schema":
            print(json.dumps(config_schema(), indent=2, sort_keys=True))
            return 0
        cfg = load_config(args.config, args.seed)
        # One floating-point policy: overflow, division by zero and invalid
        # operations raise (exit 3). The declared exceptions are local
        # errstate blocks whose overflow is exact or checked right after:
        # numcore._sigmoid, the MGU gate, adam_step, generate_oscillator.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if args.command == "simulate":
                result = cmd_simulate(cfg, args.out, args.force)
            elif args.command == "pipeline":
                result = cmd_pipeline(cfg, args.out, args.force)
            elif args.command == "classify":
                result = cmd_classify(cfg, args.out, args.force)
            elif args.command == "kde-edit":
                etas = _cli_list(args.etas, "--etas", float, lambda v: 0.0 <= v <= 1.0,
                                 "numbers in [0, 1]")
                result = cmd_kde_edit(cfg, args.out, etas, args.force)
            elif args.command == "sweep-dim":
                dims = _cli_list(args.dims, "--dims", int, lambda v: v >= 1,
                                 "dimensions of at least 1")
                result = cmd_sweep_dim(cfg, args.out, dims, args.force)
            elif args.command == "probe-orthogonality":
                result = cmd_probe_orthogonality(cfg, args.out, args.force)
            else:  # pragma: no cover
                raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, InputError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    for key in ("csv", "manifest", "dataset"):
        if key in result:
            print(f"{key}: {result[key]}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

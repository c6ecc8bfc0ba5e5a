"""In-process tracing of the dynalign layers, from the benchmark's own files.

`install(tracer)` wraps the public functions and methods each package
module exposes to the harness, so every call records a span: name, layer,
start, end, process CPU at both ends, parent span and run id. Spans stay in
memory until the traced pass ends. Nothing in the package changes; the
wrappers are removed by the function `install` returns.

A layer's self time is the time its spans cover minus the part of that
time their child spans cover; summed over all layers it equals the traced
wall time minus the benchmark's own glue (the root span's self time).
"""

import functools
import itertools
import os
import threading
import time
from dataclasses import dataclass, field

LAYERS = ("harness", "binio", "numcore", "diffusion", "contrastive",
          "traversal", "lifting", "analysis", "dynsim", "metrics")
STAGES = ("dataset", "diffusion", "latents", "encoder", "encoder-classify",
          "encoder-probe", "encoder-kde", "table", "table-kde",
          "evaluate", "classify", "kde", "probe")
# The part of each command that runs after its cached stages.
COMMAND_STAGE = {"cmd_pipeline": "evaluate", "cmd_classify": "classify",
                 "cmd_kde_edit": "kde", "cmd_probe_orthogonality": "probe"}


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int
    run: str
    start: float
    cpu_start: float
    end: float = 0.0
    cpu_end: float = 0.0
    error: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Span recorder; a per-thread stack of open spans gives the parents."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name, layer):
        stack = self._stack()
        span = Span(next(self._ids), name, layer, stack[-1].id if stack else 0,
                    self.run_id, time.perf_counter(), time.process_time())
        stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        span.cpu_end = time.process_time()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, layer, name, fn, before=None, after=None):
        """`fn` recording one span per call; `before(args, kwargs)` and
        `after(args, kwargs, result)` return attributes for the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name, layer)
            try:
                if before is not None:
                    span.attrs.update(before(args, kwargs))
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            if after is not None:
                span.attrs.update(after(args, kwargs, result))
            return result

        return traced


def span_cost(calls=20000):
    """Seconds one traced call adds to an untraced one, measured here."""
    def noop():
        return None

    traced = Tracer("calibration").wrap("bench", "noop", noop)
    timings = []
    for fn in (noop, traced):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        timings.append(time.perf_counter() - start)
    return max(timings[1] - timings[0], 0.0) / calls


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _rows(x):
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) > 1 else 1


def _targets(mods):
    """(owner, attribute, layer, span name, before, after) for every wrapped call."""
    h, b, n, d = mods["harness"], mods["binio"], mods["numcore"], mods["diffusion"]
    c, t, li, a = mods["contrastive"], mods["traversal"], mods["lifting"], mods["analysis"]
    ds, me = mods["dynsim"], mods["metrics"]

    def stage_before(args, kwargs):
        ws, name, key = args[0], args[1], args[2]
        return {"stage": name, "hit": not ws.force and os.path.exists(ws.path(name, key))}

    def size_of(args, kwargs, *result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}

    out = [
        (h.Workspace, "stage", "harness", "stage", stage_before, None),
        (b, "write_envelope", "binio", "write_envelope", None, size_of),
        (b, "read_envelope", "binio", "read_envelope", size_of, None),
        (n.Mlp, "forward", "numcore", "Mlp.forward", None, None),
        (n.Mlp, "backward", "numcore", "Mlp.backward", None, None),
        (n, "adam_step", "numcore", "adam_step", None, None),
        (d, "train", "diffusion", "train", None, None),
        (d.DenoiserModel, "loss_and_grads", "diffusion", "DenoiserModel.loss_and_grads",
         None, None),
        (d, "ddim_invert", "diffusion", "ddim_invert",
         lambda args, kw: {"frame_steps": _rows(_arg(args, kw, 1, "x"))
                           * int(_arg(args, kw, 4, "steps"))}, None),
        (d, "ddim_sample", "diffusion", "ddim_sample",
         lambda args, kw: {"rows": _rows(_arg(args, kw, 1, "z"))}, None),
        (d, "save_model", "diffusion", "save_model", None, None),
        (d, "load_model", "diffusion", "load_model", None, None),
        (c, "train_encoder", "contrastive", "train_encoder", None,
         lambda args, kw, result: {"epochs": len(result[1]["train"])}),
        (c, "batch_loss_and_grads", "contrastive", "batch_loss_and_grads", None, None),
        (c, "build_positives", "contrastive", "build_positives", None, None),
        (c, "embed", "contrastive", "embed", None, None),
        (c, "save_encoder", "contrastive", "save_encoder", None, None),
        (c, "load_encoder", "contrastive", "load_encoder", None, None),
        (t, "train_recurrent", "traversal", "train_recurrent", None, None),
        (t.RecurrentPredictor, "loss_and_grads", "traversal",
         "RecurrentPredictor.loss_and_grads", None, None),
        (t.RecurrentPredictor, "rollout", "traversal", "RecurrentPredictor.rollout",
         None, None),
        (t, "fit_spline", "traversal", "fit_spline", None, None),
        (t, "spline_traverse", "traversal", "spline_traverse", None, None),
        (t, "stencil_from_window", "traversal", "stencil_from_window", None, None),
        (t, "tex_extrapolate", "traversal", "tex_extrapolate", None, None),
        (t, "lerp", "traversal", "lerp", None, None),
        (t, "slerp", "traversal", "slerp", None, None),
        (li, "build_table", "lifting", "build_table", None, None),
        (li, "select_k", "lifting", "select_k", None, None),
        (li, "lift_many", "lifting", "lift_many",
         lambda args, kw: {"rows": _rows(_arg(args, kw, 1, "queries"))}, None),
        (li, "lift", "lifting", "lift", None, None),
        (li, "save_table", "lifting", "save_table", None, None),
        (li, "load_table", "lifting", "load_table", None, None),
        (a, "fit_pca", "analysis", "fit_pca", None, None),
        (a, "pca_project", "analysis", "pca_project", None, None),
        (a, "train_svm", "analysis", "train_svm",
         lambda args, kw: {"kernel": _arg(args, kw, 2, "config").kernel,
                           "steps": int(_arg(args, kw, 2, "config").steps)}, None),
        (a, "svm_decision", "analysis", "svm_decision", None, None),
        (a, "roc_auc", "analysis", "roc_auc", None, None),
        (a, "f1_score", "analysis", "f1_score", None, None),
        (a, "kde_fit", "analysis", "kde_fit", None,
         lambda args, kw, result: {"grid_points": int(result.f0.size)}),
        (a, "kde_traverse", "analysis", "kde_traverse", None, None),
        (a, "orthogonality_probe", "analysis", "orthogonality_probe", None, None),
        (ds, "generate_oscillator", "dynsim", "generate_oscillator", None, None),
        (ds, "render", "dynsim", "render", None, None),
        (ds, "save_dataset", "dynsim", "save_dataset", None, None),
        (ds, "load_dataset", "dynsim", "load_dataset", None, None),
        (me, "rmse", "metrics", "rmse", None, None),
        (me, "psnr", "metrics", "psnr", None, None),
        (me, "ssim", "metrics", "ssim", None, None),
        (me, "procrustes_distance", "metrics", "procrustes_distance", None, None),
    ]
    out += [(h, cmd, "harness", cmd, None, None) for cmd in COMMAND_STAGE]
    return out


def install(tracer):
    """Wrap every traced call; returns a function that removes the wrappers.

    Module functions are also replaced wherever another package module
    imported them by name (e.g. `adam_step` in diffusion and traversal).
    """
    import importlib

    mods = {name: importlib.import_module(f"dynalign.{name}") for name in LAYERS}
    undo = []
    for owner, attr, layer, name, before, after in _targets(mods):
        original = owner.__dict__[attr]
        traced = tracer.wrap(layer, name, original, before, after)
        holders = [owner]
        if not isinstance(owner, type):
            holders += [m for m in mods.values()
                        if m is not owner and m.__dict__.get(attr) is original]
        for holder in holders:
            setattr(holder, attr, traced)
            undo.append((holder, attr, original))

    def remove():
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)

    return remove


# ---------------------------------------------------------------------------
# Span arithmetic


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """span id -> its duration minus the time its child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - _covered(children.get(s.id, [])) for s in spans}


def layer_self_times(spans):
    """layer -> summed self time of its spans."""
    own = self_times(spans)
    out = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + own[s.id]
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics


def layer_metrics(spans):
    """Per-layer metric values from one traced pass's spans."""
    by_id = {s.id: s for s in spans}

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    def under(s, name):
        while s.parent in by_id:
            s = by_id[s.parent]
            if s.name == name:
                return True
        return False

    m = {}
    stage_wall = {st: 0.0 for st in STAGES}
    stage_cpu = {st: 0.0 for st in STAGES}
    stages = named("stage")
    for s in stages:
        stage_wall[s.attrs["stage"]] += s.duration
        stage_cpu[s.attrs["stage"]] += s.cpu_end - s.cpu_start
    for cmd, st in COMMAND_STAGE.items():
        for s in named(cmd):
            kids = [k for k in stages if k.parent == s.id]
            stage_wall[st] += s.duration - sum(k.duration for k in kids)
            stage_cpu[st] += (s.cpu_end - s.cpu_start) - sum(k.cpu_end - k.cpu_start
                                                            for k in kids)
    for st in STAGES:
        m[f"harness.stage.{st}.wall_s"] = stage_wall[st]
        m[f"harness.stage.{st}.cpu_s"] = stage_cpu[st]
    hits = sum(1 for s in stages if s.attrs["hit"])
    m["harness.cache.hits"] = hits
    m["harness.cache.misses"] = len(stages) - hits
    m["harness.cache.hit_ratio"] = hits / len(stages) if stages else 0.0

    m["binio.write_s"] = total("write_envelope")
    m["binio.bytes_written"] = sum(s.attrs.get("bytes", 0) for s in named("write_envelope"))
    m["binio.read_s"] = total("read_envelope")
    m["binio.bytes_read"] = sum(s.attrs["bytes"] for s in named("read_envelope"))

    m["numcore.mlp_forward_s"] = total("Mlp.forward")
    m["numcore.mlp_forward.calls"] = len(named("Mlp.forward"))
    m["numcore.mlp_backward_s"] = total("Mlp.backward")
    m["numcore.adam_s"] = total("adam_step")
    m["numcore.adam.steps"] = len(named("adam_step"))

    m["diffusion.train_s"] = total("train")
    m["diffusion.train.batches"] = len(named("DenoiserModel.loss_and_grads"))
    m["diffusion.invert_s"] = total("ddim_invert")
    m["diffusion.invert.frame_steps"] = sum(s.attrs["frame_steps"] for s in named("ddim_invert"))
    m["diffusion.sample_s"] = total("ddim_sample")
    m["diffusion.sample.calls"] = len(named("ddim_sample"))
    m["diffusion.sample.rows"] = sum(s.attrs["rows"] for s in named("ddim_sample"))

    positives = named("build_positives")
    m["contrastive.train_s"] = total("train_encoder")
    m["contrastive.epochs_run"] = sum(s.attrs.get("epochs", 0) for s in named("train_encoder"))
    m["contrastive.batches"] = len(named("batch_loss_and_grads"))
    m["contrastive.degenerate_ratio"] = (
        sum(1 for s in positives if s.error) / len(positives) if positives else 0.0)
    m["contrastive.embed_s"] = total("embed")

    slerps = named("slerp")
    fallbacks = {s.parent for s in named("lerp")}
    m["traversal.recurrent_train_s"] = total("train_recurrent")
    m["traversal.recurrent.batches"] = len(named("RecurrentPredictor.loss_and_grads"))
    m["traversal.spline_s"] = total("fit_spline") + total("spline_traverse")
    m["traversal.spline.fits"] = len(named("fit_spline"))
    m["traversal.rollout_s"] = total("RecurrentPredictor.rollout")
    m["traversal.slerp_fallback_ratio"] = (
        sum(1 for s in slerps if s.error or s.id in fallbacks) / len(slerps)
        if slerps else 0.0)

    lifts = named("lift_many")
    m["lifting.build_s"] = total("build_table")
    m["lifting.select_k_s"] = total("select_k")
    m["lifting.select_k.tries"] = sum(1 for s in lifts if under(s, "select_k"))
    m["lifting.lift_s"] = sum(s.duration for s in lifts if not under(s, "select_k"))
    m["lifting.queries"] = sum(s.attrs["rows"] for s in lifts if not under(s, "select_k"))

    svms = named("train_svm")
    m["analysis.svm_linear_s"] = sum(s.duration for s in svms if s.attrs["kernel"] == "linear")
    m["analysis.svm_rbf_s"] = sum(s.duration for s in svms if s.attrs["kernel"] == "rbf")
    m["analysis.svm.steps"] = sum(s.attrs["steps"] for s in svms)
    m["analysis.kde_fit_s"] = total("kde_fit")
    m["analysis.kde.grid_points"] = sum(s.attrs.get("grid_points", 0) for s in named("kde_fit"))
    m["analysis.probe_s"] = total("orthogonality_probe")

    m["dynsim.generate_s"] = total("generate_oscillator")
    m["dynsim.render_s"] = total("render")
    m["dynsim.render.calls"] = len(named("render"))

    images = named("psnr") + named("ssim")
    m["metrics.image_s"] = sum(s.duration for s in images)
    m["metrics.image.calls"] = len(images)

    selfs = layer_self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    return m

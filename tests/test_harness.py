import argparse
import glob
import hashlib
import inspect
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import RECORDED_NUMPY, recorded_build
from dynalign import binio, harness, numcore, traversal
from dynalign.errors import ConfigError, FormatError, InputError, NumericError


TINY = {
    "seed": 3,
    "render_grid": 16,
    "dataset": {"n_traj": 10, "frames_per_traj": 24, "mu_range": [0.2, 1.0], "state_dim": 6},
    "diffusion": {"T": 40, "steps": 8, "hidden": [32, 32], "epochs": 2, "batch": 64},
    "embedding": {"d": 3, "hidden": [24, 24], "epochs": 5, "traj_per_batch": 6, "window": 6},
    "traversal": {"keyframe_stride": 8, "tex_window": 4, "context": 5,
                   "target_stride": 5, "render_targets_per_traj": 1,
                   "recurrent_hidden": 12, "recurrent_epochs": 5},
    "lifting": {"k_grid": [1, 3]},
    "analysis": {"svm_steps": 2000, "folds": 3, "frames_per_traj_class": 6,
                  "kde_frames_per_class": 40},
}


# sha256 over "<relative path> <file sha256>" lines of every CSV and PGM each
# command writes on TINY, recorded with numpy 2.4.6 (OpenBLAS 0.3.31, x86-64).
# Another numpy or BLAS build may round the last bits differently.
TINY_OUTPUT_DIGESTS = {
    "pipeline": "d958551613d03ac9fb01085982be29d9614a430ae03fafe21d8fbdef5fd732bf",
    "classify": "e407355909f34674ce8e25946f750e97a57df1dc7e949027cb9f5ac356ba4759",
    "kde-edit": "9b9bf710b334d9a73192692d37aff3dc66e4dc0f804a9af7da05009887bfceb2",
    "probe-orthogonality": "a5b6bd63da4eaab8ab53559ff25da9809708784626fb9dfd590a3098b3ecf4c7",
    "sweep-dim": "b70db8fa629922e4c22797a27772b466cf5abe3318b65c060aae2a57841010cc",
}
# sha256 of each cache artifact the four single-config commands write on TINY,
# next to the STAGE_VERSION of its kind, recorded on the same build. Bytes
# that move under an unchanged version are a missed bump: the old code's
# cached artifacts would be served as the new code's.
TINY_CACHE_DIGESTS = {
    "dataset": (1, "3f294c78d814f755656c6b73f199cf27ed3ac5915f931767fcc773858b773a80"),
    "diffusion": (1, "ab22bf4f04de0550eed37517f61e8cc1ff795772b5323603b02c3efdc0fbba3b"),
    "latents": (1, "45770252a219889d23c8aff29987e51fefa8bbe5b4fca826e225f641df2f3699"),
    "encoder": (2, "c01aa17231f04b04977086a30b56d93c61b9b74815bb821a75db63adbc066bab"),
    "encoder-classify": (2, "0c783810261eae0e8beb88e1528886a798cabb06b51508bd066e2790ddb4ee00"),
    "encoder-probe": (2, "c9fdafec5429fd866f0693be634f6920498117624aaab32d2340098ccfead149"),
    "table": (1, "91db123b3c4def3dcea755b931d896be8e29222bb86a92ffead058f70e0b6ac3"),
    "table-kde": (1, "2452a3c50338e070a0780bdbde4605416310506d42fe53a6d9cf16143319e398"),
}
# CLI children fail on a numpy floating-point warning, as the tests do.
CLI_ENV = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"}
COMMANDS = {
    "pipeline": harness.cmd_pipeline,
    "classify": harness.cmd_classify,
    "kde-edit": harness.cmd_kde_edit,
    "probe-orthogonality": harness.cmd_probe_orthogonality,
    "sweep-dim": lambda cfg, out: harness.cmd_sweep_dim(cfg, out, [2, 3]),
}


def output_digest(out_dir):
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(out_dir, "**"), recursive=True)):
        if path.endswith((".csv", ".pgm")):
            blob = open(path, "rb").read()
            h.update(f"{os.path.relpath(path, out_dir)} {hashlib.sha256(blob).hexdigest()}\n"
                     .encode())
    return h.hexdigest()


def assert_cpu_and_peak_rss_per_entry(manifest):
    """Every timed entry of a manifest has wall seconds, CPU seconds and a
    positive peak RSS in MB, which never falls from one stage of a run to
    the next."""
    records = manifest["stages"]
    assert all({"seconds", "cpu_seconds", "peak_rss_mb"} <= set(r) for r in records.values())
    assert all(r["cpu_seconds"] >= 0.0 for r in records.values())
    peaks = {name: r["peak_rss_mb"] for name, r in records.items()}
    assert all(10.0 < v < 1e5 for v in peaks.values())
    chain = [s for s in ("dataset", "diffusion", "latents", "encoder", "table") if s in peaks]
    assert [peaks[s] for s in chain] == sorted(peaks[s] for s in chain)


def cache_use(records):
    """Stage name -> "hit" or "miss" for every cached stage of `records`."""
    return {name: r["cache"] for name, r in records.items() if "cache" in r}


def tiny_config(**overrides):
    doc = json.loads(json.dumps(TINY))
    for key, val in overrides.items():
        if isinstance(val, dict):
            doc.setdefault(key, {}).update(val)
        else:
            doc[key] = val
    return harness.config_from_dict(doc)


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = harness.ExperimentConfig()
        doc = harness.config_to_dict(cfg)
        back = harness.config_from_dict(json.loads(json.dumps(doc)))
        assert harness.config_to_dict(back) == doc

    def test_unknown_field_names_path(self):
        with pytest.raises(ConfigError, match="dataset.bogus"):
            harness.config_from_dict({"dataset": {"bogus": 1}})
        with pytest.raises(ConfigError, match="unknown field"):
            harness.config_from_dict({"wat": {}})

    def test_invalid_mu_range_names_field(self):
        with pytest.raises(ConfigError, match="dataset.mu_range"):
            harness.config_from_dict({"dataset": {"mu_range": [2.0, 1.0]}})

    def test_hash_changes_iff_canonical_text_changes(self):
        a = harness.ExperimentConfig()
        b = harness.config_from_dict({"seed": 1})
        assert harness.config_hash(a) != harness.config_hash(b)
        c = harness.config_from_dict({})
        assert harness.canonical_config_text(a) == harness.canonical_config_text(c)
        assert harness.config_hash(a) == harness.config_hash(c)

    def test_schema_lists_defaults(self):
        schema = harness.config_schema()
        assert schema["defaults"]["diffusion"]["T"] == 1000
        assert "dataset" in schema["defaults"]

    def test_default_hash_and_schema_are_pinned(self):
        # Cached stages and run directories are keyed on this text, so a
        # codec change that moves it orphans every existing cache.
        assert harness.config_hash(harness.ExperimentConfig()) == "746cbd775a99"
        text = json.dumps(harness.config_schema(), indent=2, sort_keys=True)
        schema_digest = "a792cf905f6ad0c2c9e096d3b5cf52e2fe5ddbcda0256eff0f5c6c42732c12d5"
        assert hashlib.sha256(text.encode()).hexdigest() == schema_digest

    @pytest.mark.parametrize("from_file", [False, True])
    def test_load_config_validates_once(self, tmp_path, monkeypatch, from_file):
        calls = []
        check = harness.validate_config
        monkeypatch.setattr(harness, "validate_config", lambda cfg: calls.append(cfg) or check(cfg))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(TINY))
        cfg = harness.load_config(str(path) if from_file else None, seed=9)
        assert cfg.seed == 9 and len(calls) == 1


class TestCsvAndPgm:
    def test_csv_layout(self, tmp_path):
        rows = [dict(dataset="d", space="Z", method="lerp", metric="rmse",
                     value=0.5, std=None, n=3, seed=7),
                dict(dataset="d", space="C", method="tex2", metric="psnr",
                     value=31.25, std=0.125, n=4, seed=7)]
        path = harness.write_csv(tmp_path / "out.csv", rows)
        text = open(path).read()
        lines = text.strip().split("\n")
        assert lines[0] == "dataset,space,method,metric,value,std,n,seed"
        assert lines[1] == "d,Z,lerp,rmse,0.5,,3,7"
        assert lines[2] == "d,C,tex2,psnr,31.25,0.125,4,7"

    def test_pgm_format(self, tmp_path):
        img = np.linspace(0, 1, 64).reshape(8, 8)
        path = harness.write_pgm(tmp_path / "img.pgm", img)
        blob = open(path, "rb").read()
        assert blob.startswith(b"P5\n8 8\n255\n")
        assert len(blob) == len(b"P5\n8 8\n255\n") + 64

    def test_strip_concatenation(self):
        imgs = [np.zeros((4, 3)), np.ones((4, 2))]
        strip = harness.hstack_images(imgs, pad=1)
        assert strip.shape == (4, 6)
        assert np.all(strip[:, 3] == 1.0)  # separator column


class TestSimulate:
    def test_writes_dataset_and_manifest(self, tmp_path):
        cfg = tiny_config()
        result = harness.cmd_simulate(cfg, str(tmp_path))
        manifest = json.load(open(result["manifest"]))
        assert manifest["config_hash"] == harness.config_hash(cfg)
        assert manifest["metrics_summary"]["n_traj"] == 10
        assert any(p.endswith(".bin") for p in manifest["artifacts"])

    def test_identical_config_identical_bytes(self, tmp_path):
        cfg = tiny_config()
        r1 = harness.cmd_simulate(cfg, str(tmp_path / "a"))
        r2 = harness.cmd_simulate(cfg, str(tmp_path / "b"))
        assert open(r1["dataset"], "rb").read() == open(r2["dataset"], "rb").read()

    def test_invalid_mu_range_is_config_error(self):
        with pytest.raises(ConfigError, match="mu_range"):
            tiny_config(dataset={"mu_range": [5.0, 1.0]})


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe")
    return harness.cmd_pipeline(tiny_config(), str(out)), out


class TestPipelineSmall:
    def test_emits_expected_method_rows(self, result):
        res, _ = result
        combos = {(r["space"], r["method"]) for r in res["rows"]}
        for method in ("lerp", "slerp", "recurrent", "tex1", "tex2"):
            assert ("Z", method) in combos
            assert ("C", method) in combos
        assert ("C", "spline") in combos
        assert ("Z", "spline") not in combos

    def test_metrics_present_per_method(self, result):
        res, _ = result
        metrics_for = {}
        for r in res["rows"]:
            metrics_for.setdefault((r["space"], r["method"]), set()).add(r["metric"])
        assert {"rmse", "rmse_norm", "tae"} <= metrics_for[("C", "tex2")]
        assert {"psnr", "ssim"} <= metrics_for[("Z", "lerp")]

    def test_artifacts_exist(self, result):
        res, _ = result
        assert json.load(open(res["manifest"]))["stages"]
        assert open(res["csv"]).read().startswith("dataset,space,method")

    def test_rerun_uses_cache_and_matches_bytes(self, result):
        res, out = result
        blob = open(res["csv"], "rb").read()
        res2 = harness.cmd_pipeline(tiny_config(), str(out))
        assert open(res2["csv"], "rb").read() == blob

    def test_cache_hit_rerun_times_every_upstream_stage(self, result):
        _, out = result
        res = harness.cmd_pipeline(tiny_config(), str(out))
        manifest = json.load(open(res["manifest"]))
        stages = {"dataset", "diffusion", "latents", "encoder", "table"}
        assert stages <= set(manifest["stages"])
        assert cache_use(manifest["stages"]) == {s: "hit" for s in stages}
        assert_cpu_and_peak_rss_per_entry(manifest)

    def test_each_command_keeps_its_manifest(self, result):
        res, out = result
        harness.cmd_classify(tiny_config(), str(out))
        for command in ("pipeline", "classify"):
            path = os.path.join(res["run_dir"], f"manifest-{command}.json")
            assert json.load(open(path))["command"] == command

    def test_rows_keep_their_order_and_strips_their_names(self, result):
        # Space, then method, then rmse, rmse_norm, tae (psnr, ssim where
        # the space is rendered), then the alignment row.
        res, _ = result
        expect, strips = [], ["truth"]
        for space in ("Z", "C", "PCA"):
            expect.append((space, "all", "space_scale"))
            methods = ["lerp", "slerp", "recurrent", "tex1", "tex2"] + (
                ["spline"] if space != "Z" else [])
            scored = ["rmse", "rmse_norm", "tae"] + (["psnr", "ssim"] if space != "PCA" else [])
            expect += [(space, m, metric) for m in methods for metric in scored]
            expect.append((space, "alignment", "procrustes"))
            strips += [f"{space}-{m}" for m in methods] if space != "PCA" else []
        assert [(r["space"], r["method"], r["metric"]) for r in res["rows"]] == expect
        written = sorted(os.listdir(os.path.join(res["run_dir"], "strips")))
        assert written == sorted(f"{name}.pgm" for name in strips)

    def test_commands_do_not_mutate_dataset_file(self, result):
        res, out = result
        cfg = tiny_config()
        key = json.load(open(res["manifest"]))["stages"]["dataset"]["key"]
        ds_path = harness.Workspace(str(out), cfg).path("dataset", key)
        before = open(ds_path, "rb").read()
        harness.cmd_classify(cfg, str(out))
        assert open(ds_path, "rb").read() == before


def predict_one_oracle(method, vecs, alphas, s_star, tcfg, kf):
    """One target frame of one trajectory, as the per-target scoring made it."""
    if method in ("lerp", "slerp"):
        left, right = kf[kf < s_star][-1], kf[kf > s_star][0]
        frac = (alphas[s_star] - alphas[left]) / (alphas[right] - alphas[left])
        try:
            op = traversal.lerp if method == "lerp" else traversal.slerp
            return op(vecs[left], vecs[right], frac)
        except InputError:
            return traversal.lerp(vecs[left], vecs[right], frac)
    if method == "spline":
        observed = np.arange(len(vecs)) != s_star
        curve = traversal.fit_spline(alphas[observed], vecs[observed], tcfg.lam)
        return traversal.spline_traverse(curve, float(alphas[s_star]), 0.0)
    window = vecs[s_star - tcfg.tex_window : s_star]
    stencil = traversal.stencil_from_window(window, float(alphas[1] - alphas[0]))
    return traversal.tex_extrapolate(stencil, 1 if method == "tex1" else 2)


class TestBatchedPrediction:
    S = 24

    def setup_method(self):
        self.tcfg = tiny_config(traversal={"lam": 0.2}).traversal
        self.alphas = np.arange(self.S) / (self.S - 1)
        kf, targets = harness._target_frames(self.tcfg, self.S)
        self.kf, self.targets = kf, np.array(targets)

    def predict(self, method, vecs):
        return harness._predict_targets(method, vecs, self.alphas, self.targets,
                                        self.tcfg, self.kf, None)

    @pytest.mark.parametrize("method", ["lerp", "slerp", "spline", "tex1", "tex2"])
    def test_every_pair_matches_the_per_target_oracle(self, method):
        vecs = np.random.default_rng(5).normal(size=(4, self.S, 3))
        loop = np.array([[predict_one_oracle(method, v, self.alphas, s, self.tcfg, self.kf)
                          for s in self.targets] for v in vecs])
        batched = self.predict(method, vecs)
        assert batched.flags.c_contiguous
        assert np.max(np.abs(batched - loop)) <= 1e-12 * np.max(np.abs(loop))

    def test_slerp_rows_it_rejects_fall_back_to_lerp_alone(self):
        vecs = np.random.default_rng(6).normal(size=(4, self.S, 3))
        left, right = self.kf[0], self.kf[1]       # the first target's keyframes
        vecs[1, left] = 0.0                        # zero norm
        vecs[2, right] = -3.0 * vecs[2, left]      # antiparallel
        vecs[3, right] = 2.0 * vecs[3, left] + 1e-9  # near-parallel: slerp takes lerp itself
        out = self.predict("slerp", vecs)[:, 0]
        s = self.targets[0]
        frac = (self.alphas[s] - self.alphas[left]) / (self.alphas[right] - self.alphas[left])
        lerped = traversal.lerp(vecs[:, left], vecs[:, right], frac)
        assert np.array_equal(out[1:], lerped[1:])
        assert np.array_equal(out[0], traversal.slerp(vecs[0, left], vecs[0, right], frac))
        assert not np.allclose(out[0], lerped[0])

    def test_trajectories_with_other_knots_are_rejected(self, tmp_path):
        cfg = tiny_config()
        ws = harness.Workspace(str(tmp_path), cfg)
        ds = harness.stage_dataset(ws)
        ds.alphas[ds.indices("test")[-1]] **= 2
        with pytest.raises(InputError, match="ordering parameters"):
            harness.traversal_setup(cfg, ds, None)


def test_spline_in_z_without_pca(tmp_path):
    res = harness.cmd_pipeline(
        tiny_config(traversal={"spline_in_z": True, "include_pca": False}), str(tmp_path))
    z_spline = {r["metric"] for r in res["rows"] if (r["space"], r["method"]) == ("Z", "spline")}
    assert {"rmse", "psnr", "ssim"} <= z_spline
    assert os.path.exists(os.path.join(res["run_dir"], "strips", "Z-spline.pgm"))
    assert not any(r["space"] == "PCA" for r in res["rows"])


class TestSweepAndErrors:
    def test_empty_dim_list_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            harness.cmd_sweep_dim(tiny_config(), str(tmp_path / "runs"), [])
        assert not (tmp_path / "runs").exists()
        with pytest.raises(ConfigError, match="embedding.d"):
            harness.cmd_sweep_dim(tiny_config(), str(tmp_path), [0])

    def test_sweep_manifest_records_each_dimension(self, tmp_path):
        res = harness.cmd_sweep_dim(tiny_config(), str(tmp_path), [2, 3])
        manifest = json.load(open(res["manifest"]))
        stages = ("dataset", "diffusion", "latents", "encoder", "table", "evaluate")
        assert {f"d{d}/{s}" for d in (2, 3) for s in stages} <= set(manifest["stages"])
        assert {f"d{d}/embed" for d in (2, 3)} <= set(manifest["stages"])
        assert_cpu_and_peak_rss_per_entry(manifest)
        # The second dimension reuses everything upstream of its encoder.
        cache = cache_use(manifest["stages"])
        assert set(cache) == {f"d{d}/{s}" for d in (2, 3) for s in stages[:-1]}
        assert [cache[f"d3/{s}"] for s in stages[:-1]] == ["hit"] * 3 + ["miss"] * 2
        assert set(cache[f"d2/{s}"] for s in stages[:-1]) == {"miss"}
        names = [os.path.basename(p) for p in manifest["artifacts"]]
        assert sum(n.startswith("encoder-") for n in names) == 2
        assert names.count("pipeline.csv") == 2
        assert names.count("manifest-pipeline.json") == 2
        assert all(os.path.exists(p) for p in manifest["artifacts"])

    def test_an_embedding_wider_than_the_latents_keeps_every_pca_component(self, tmp_path):
        # TINY's latents have 6 dimensions; PCA cannot keep 8.
        res = harness.cmd_sweep_dim(tiny_config(), str(tmp_path), [8])
        pca = {r["method"] for r in res["rows"] if r["space"] == "PCA"}
        assert {"recurrent", "spline", "alignment"} <= pca

    def test_constant_mu_probe_errors(self, tmp_path):
        cfg = tiny_config(dataset={"mu_range": [0.7, 0.7]})
        with pytest.raises(Exception, match="regression undefined"):
            harness.cmd_probe_orthogonality(cfg, str(tmp_path))

    def test_probe_emits_two_unit_interval_values(self, tmp_path):
        res = harness.cmd_probe_orthogonality(tiny_config(), str(tmp_path))
        assert set(res["values"]) == {"Z", "C"}
        for v in res["values"].values():
            assert np.isfinite(v) and 0.0 <= v <= 1.0


def inline_worker(monkeypatch):
    """Make pipeline's worker run inline, as on one CPU."""
    monkeypatch.setattr(numcore, "usable_cpus", lambda: 1)


class TestEvaluateWorker:
    """`pipeline` scores Z and PCA in a worker (numcore.Worker) while it
    trains the encoder and scores C: a forked child where one may be, else
    inline, right after the latents."""

    @pytest.mark.parametrize("command", ["pipeline", "sweep-dim"])
    def test_inline_and_forked_write_the_same_bytes(self, tmp_path, monkeypatch, command):
        forks = numcore.Worker.forks()
        forked = COMMANDS[command](tiny_config(), str(tmp_path / "forked"))
        inline_worker(monkeypatch)
        inline = COMMANDS[command](tiny_config(), str(tmp_path / "inline"))
        assert output_digest(str(tmp_path / "forked")) == output_digest(str(tmp_path / "inline"))
        for res, was_forked in ((forked, forks), (inline, False)):
            records = json.load(open(res["manifest"]))["stages"]
            workers = [r for name, r in records.items() if name.endswith("evaluate-worker")]
            assert len(workers) == (2 if command == "sweep-dim" else 1)
            assert all(r["forked"] is was_forked for r in workers)

    @pytest.mark.parametrize("where", ["forked", "inline"])
    @pytest.mark.parametrize("exc,code,line", [
        (FloatingPointError("overflow encountered in multiply"), 3,
         "numeric failure: stage evaluate-worker: overflow encountered in multiply"),
        (InputError("no PCA here"), 2, "error: no PCA here"),
    ], ids=["numeric", "input"])
    def test_a_failure_in_the_worker_exits_with_its_code(self, tmp_path, capsys, monkeypatch,
                                                          where, exc, code, line):
        if where == "inline":
            inline_worker(monkeypatch)
        score = harness.score_space

        def failing(cfg, setup, ds, model, sched, space, *rest):
            if space == "PCA":
                raise exc
            return score(cfg, setup, ds, model, sched, space, *rest)
        monkeypatch.setattr(harness, "score_space", failing)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(TINY))
        assert harness.main(["pipeline", "--config", str(cfgfile),
                             "--out", str(tmp_path / "runs")]) == code
        out, err = capsys.readouterr()
        assert out == "" and err == line + "\n"
        [path] = (tmp_path / "runs").glob("*/manifest-pipeline.json")
        failure = json.loads(path.read_text())["failure"]
        assert failure["stage"] == "evaluate-worker" and failure["exit_code"] == code

    @pytest.mark.skipif(not numcore.Worker.forks(), reason="the worker runs inline here")
    def test_a_failure_beside_the_worker_kills_and_reaps_it(self, tmp_path, monkeypatch):
        score = harness.score_space

        def slow(cfg, setup, ds, model, sched, space, *rest):
            if space != "C":
                time.sleep(60)
            return score(cfg, setup, ds, model, sched, space, *rest)

        def failing(*args):
            raise NumericError("boom")
        monkeypatch.setattr(harness, "score_space", slow)
        monkeypatch.setattr(harness, "stage_encoder", failing)
        start = time.perf_counter()
        with pytest.raises(NumericError, match="boom"):
            harness.cmd_pipeline(tiny_config(), str(tmp_path))
        assert time.perf_counter() - start < 10.0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestStageChain:
    @pytest.mark.skipif(np.__version__ != RECORDED_NUMPY,
                        reason=f"digests recorded with numpy {RECORDED_NUMPY}")
    @pytest.mark.parametrize("command", sorted(TINY_OUTPUT_DIGESTS))
    def test_outputs_match_recorded_bytes(self, tmp_path, command):
        COMMANDS[command](tiny_config(), str(tmp_path))
        assert output_digest(str(tmp_path)) == TINY_OUTPUT_DIGESTS[command]

    @pytest.mark.parametrize("command",
                             ["pipeline", "classify", "kde-edit", "probe-orthogonality"])
    def test_conditioned_encoder_serves_every_command(self, tmp_path, command):
        res = COMMANDS[command](tiny_config(embedding={"use_condition": True}),
                                str(tmp_path))
        assert res["rows"] and all(np.isfinite(r["value"]) for r in res["rows"])

    @pytest.mark.parametrize("command,name", [
        ("pipeline", "evaluate"), ("classify", "classify"), ("kde-edit", "kde"),
        ("probe-orthogonality", "probe")])
    def test_manifest_times_the_work_after_the_stages(self, tmp_path, command, name):
        res = COMMANDS[command](tiny_config(), str(tmp_path))
        manifest = json.load(open(res["manifest"]))
        assert name in manifest["stages"]
        if command in ("pipeline", "kde-edit"):
            assert "embed" in manifest["stages"]
        if command == "pipeline":
            worker = manifest["stages"]["evaluate-worker"]
            assert worker["forked"] is numcore.Worker.forks()
        assert_cpu_and_peak_rss_per_entry(manifest)

    def test_kde_table_follows_kde_dimension(self, tmp_path):
        harness.cmd_kde_edit(tiny_config(), str(tmp_path))
        res = harness.cmd_kde_edit(tiny_config(analysis={"kde_d": 2}), str(tmp_path))
        assert all(len(peak) == 2 for peak in res["peaks"])
        assert len(list((tmp_path / "cache").glob("table-kde-*.bin"))) == 2
        # A 2-d morph space is not the probe's 3-d one: a second encoder.
        assert len(list((tmp_path / "cache").glob("encoder-probe-*.bin"))) == 2

    @pytest.mark.parametrize("order", [("kde-edit", "probe-orthogonality"),
                                       ("probe-orthogonality", "kde-edit")])
    def test_kde_edit_and_probe_share_one_encoder(self, tmp_path, order):
        first, second = (COMMANDS[c](tiny_config(), str(tmp_path)) for c in order)
        used = [json.load(open(r["manifest"]))["stages"]["encoder-probe"]["cache"]
                for r in (first, second)]
        assert used == ["miss", "hit"]
        cache = tmp_path / "cache"
        assert len(list(cache.glob("encoder-probe-*.bin"))) == 1
        assert not list(cache.glob("encoder-kde-*"))

    @pytest.fixture(scope="class")
    def four_commands(self, tmp_path_factory):
        """The output directory of the four single-config commands run on
        TINY, one after another, and their manifests."""
        out = tmp_path_factory.mktemp("four-commands")
        return out, [json.load(open(COMMANDS[command](tiny_config(), str(out))["manifest"]))
                     for command in ("pipeline", "classify", "kde-edit", "probe-orthogonality")]

    def test_cache_names_and_stage_records_agree(self, four_commands):
        # A change to how keys are derived must rename no cache file.
        out, manifests = four_commands
        for manifest in manifests:
            for name, key in ((n, r["key"]) for n, r in manifest["stages"].items() if "cache" in r):
                assert str(out / "cache" / f"{name}-{key}.bin") in manifest["artifacts"]
        assert sorted(os.listdir(out / "cache")) == [
            "dataset-ccc0d8e7754e.bin", "diffusion-5d4d50a9261a.bin", "encoder-2b6dbd5c0239.bin",
            "encoder-classify-fbf4dac40840.bin", "encoder-probe-e8fb49e66f2b.bin",
            "latents-69fced9ed462.bin", "table-559ec685c9de.bin", "table-kde-0028cb71633b.bin"]

    @recorded_build
    def test_cache_bytes_move_only_with_a_version_bump(self, four_commands):
        out, _ = four_commands
        got = {}
        for path in (out / "cache").glob("*.bin"):
            name = path.name.rsplit("-", 1)[0]
            got[name] = (harness.STAGE_VERSION[name.split("-")[0]],
                         hashlib.sha256(path.read_bytes()).hexdigest())
        moved = sorted(name for name, (version, digest) in TINY_CACHE_DIGESTS.items()
                       if got[name][0] == version and got[name][1] != digest)
        assert not moved, f"cache bytes moved under an unchanged STAGE_VERSION: bump {moved}"
        assert got == TINY_CACHE_DIGESTS, "a STAGE_VERSION moved: re-record TINY_CACHE_DIGESTS"

    def test_steps_change_reuses_the_denoiser(self, tmp_path):
        for steps in (8, 4):
            ws = harness.Workspace(str(tmp_path), tiny_config(diffusion={"steps": steps}))
            ds = harness.stage_dataset(ws)
            model, sched = harness.stage_diffusion(ws, ds)
            harness.stage_latents(ws, ds, model, sched)
        assert len(list((tmp_path / "cache").glob("diffusion-*.bin"))) == 1
        assert len(list((tmp_path / "cache").glob("latents-*.bin"))) == 2

    @pytest.mark.parametrize("bumped", list(harness.STAGE_VERSION))
    def test_stage_version_bump_misses_that_stage_and_its_descendants(
            self, tmp_path, monkeypatch, bumped):
        def run_chain():
            res = harness.cmd_pipeline(tiny_config(), str(tmp_path))
            return cache_use(json.load(open(res["manifest"]))["stages"])

        run_chain()
        monkeypatch.setitem(harness.STAGE_VERSION, bumped, harness.STAGE_VERSION[bumped] + 1)
        chain = list(harness.STAGE_VERSION)
        assert run_chain() == {stage: "hit" if i < chain.index(bumped) else "miss"
                               for i, stage in enumerate(chain)}


class TestCli:
    def test_config_schema_command(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dynalign", "config-schema"],
            capture_output=True, text=True, env=CLI_ENV,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["defaults"]["diffusion"]["T"] == 1000

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dataset": {"mu_range": [9, 1]}}))
        proc = subprocess.run(
            [sys.executable, "-m", "dynalign", "simulate", "--config", str(bad),
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=CLI_ENV,
        )
        assert proc.returncode == 2
        assert "mu_range" in proc.stderr

    @pytest.mark.parametrize("doc,field", [
        ({"seed": "abc"}, "seed"),
        ({"diffusion": {"epochs": "3"}}, "diffusion.epochs"),
        ({"embedding": {"d": 0}}, "embedding.d"),
        ({"diffusion": {"batch": 0}}, "diffusion.batch"),
        ({"embedding": {"traj_per_batch": 0}}, "embedding.traj_per_batch"),
        ({"traversal": {"target_stride": 0}}, "traversal.target_stride"),
        ({"traversal": {"render_targets_per_traj": 0}}, "traversal.render_targets_per_traj"),
        ({"analysis": {"frames_per_traj_class": 0}}, "analysis.frames_per_traj_class"),
        ({"analysis": {"kde_frames_per_class": 0}}, "analysis.kde_frames_per_class"),
        ({"traversal": {"context": 0}}, "traversal.context"),
        ({"analysis": {"svm_steps": 0}}, "analysis.svm_steps"),
        ({"traversal": {"keyframe_stride": 1}}, "traversal.keyframe_stride"),
        ({"traversal": {"tex_window": 2}}, "traversal.tex_window"),
        ({"dataset": {"frames_per_traj": 24}, "traversal": {"tex_window": 23}},
         "traversal.tex_window"),
        ({"dataset": {"frames_per_traj": 24}, "traversal": {"context": 23}},
         "traversal.context"),
        ({"dataset": {"frames_per_traj": 24},
          "traversal": {"keyframe_stride": 8, "context": 8, "target_stride": 8}},
         "traversal.target_stride"),
        ({"analysis": {"svm_lam": 0}}, "analysis.svm_lam"),
        ({"analysis": {"svm_lam": -1e-4}}, "analysis.svm_lam"),
        ({"analysis": {"svm_gamma": -1.0}}, "analysis.svm_gamma"),
        ({"analysis": {"kde_nodes": 1}}, "analysis.kde_nodes"),
        ({"analysis": {"kde_bandwidth": -0.1}}, "analysis.kde_bandwidth"),
        ({"traversal": {"recurrent_hidden": 0}}, "traversal.recurrent_hidden"),
        ({"embedding": {"tau": 0}}, "embedding.tau"),
        ({"embedding": {"window": 1}}, "embedding.window"),
        ({"embedding": {"val_fraction": 1.0}}, "embedding.val_fraction"),
        ({"lifting": {"kernel": "foo"}}, "lifting.kernel"),
        ({"lifting": {"metric": "foo"}}, "lifting.metric"),
        ({"lifting": {"k_grid": []}}, "lifting.k_grid"),
        ({"lifting": {"sigma": 0}}, "lifting.sigma"),
        ({"lifting": {"holdout_fraction": 1.0}}, "lifting.holdout_fraction"),
        ({"traversal": {"lam": -1}}, "traversal.lam"),
        ({"diffusion": {"beta_start": 0}}, "diffusion.beta_start"),
        ({"diffusion": {"beta_end": 1}}, "diffusion.beta_end"),
        ({"diffusion": {"beta_start": 0.03, "beta_end": 0.02}}, "diffusion.beta_start"),
        ({"dataset": {"test_fraction": 1.0}}, "dataset.test_fraction"),
        ({"dataset": {"state_dim": 1}}, "dataset.state_dim"),
        ({"diffusion": {"T": 1, "steps": 1}}, "diffusion.T"),
        ({"diffusion": {"steps": 0}}, "diffusion.steps"),
        ({"analysis": {"kde_d": 0}}, "analysis.kde_d"),
        # Each split rounds its share of trajectories: 10 at 0.95 leaves 0 to
        # train on, and 8 training trajectories at 0.95 leave 0 outside the
        # encoder's validation split or the lifting holdout.
        ({"dataset": {"n_traj": 10, "test_fraction": 0.95}}, "dataset.test_fraction"),
        ({"dataset": {"n_traj": 10}, "embedding": {"val_fraction": 0.95}},
         "embedding.val_fraction"),
        ({"dataset": {"n_traj": 10}, "lifting": {"holdout_fraction": 0.95}},
         "lifting.holdout_fraction"),
        ({"dataset": {"t_max": 0}}, "dataset.t_max"),
        ({"dataset": {"zeta_max": -5}}, "dataset.zeta_max"),
        ({"dataset": {"nonlin_amp": -0.1}}, "dataset.nonlin_amp"),
        # The state map's inverse stops contracting at 2.5 * nonlin_amp = 1.
        ({"dataset": {"nonlin_amp": 0.4}}, "dataset.nonlin_amp"),
        # Every layer of the denoiser and the encoder is at least one unit wide.
        ({"diffusion": {"hidden": [-2]}}, "diffusion.hidden"),
        ({"embedding": {"hidden": [24, 0]}}, "embedding.hidden"),
        ({"embedding": {"hidden": [-1]}}, "embedding.hidden"),
        # JSON's NaN reads as a float; a seed seeds the RNG; the name is a
        # CSV field.
        ({"lifting": {"holdout_fraction": float("nan")}}, "lifting.holdout_fraction"),
        ({"seed": -1}, "seed"),
        ({"dataset": {"name": "osc,x"}}, "dataset.name"),
        # Every training runs at least one epoch at a positive learning
        # rate; the early stop waits at least one epoch.
        ({"diffusion": {"epochs": -1}}, "diffusion.epochs"),
        ({"diffusion": {"epochs": 0}}, "diffusion.epochs"),
        ({"embedding": {"epochs": -1}}, "embedding.epochs"),
        ({"embedding": {"epochs": 0}}, "embedding.epochs"),
        ({"traversal": {"recurrent_epochs": -1}}, "traversal.recurrent_epochs"),
        ({"traversal": {"recurrent_epochs": 0}}, "traversal.recurrent_epochs"),
        ({"diffusion": {"lr": 0}}, "diffusion.lr"),
        ({"diffusion": {"lr": -1}}, "diffusion.lr"),
        ({"embedding": {"lr": 0}}, "embedding.lr"),
        ({"embedding": {"lr": -1}}, "embedding.lr"),
        ({"traversal": {"recurrent_lr": 0}}, "traversal.recurrent_lr"),
        ({"traversal": {"recurrent_lr": -1}}, "traversal.recurrent_lr"),
        ({"embedding": {"patience": -1}}, "embedding.patience"),
        ({"embedding": {"patience": 0}}, "embedding.patience"),
        # The contrastive thresholds are distances (a null one keeps its
        # default), and the early stop's improvement is a decrease.
        ({"embedding": {"min_improve": -1e-4}}, "embedding.min_improve"),
        ({"embedding": {"delta_t": -1}}, "embedding.delta_t"),
        ({"embedding": {"delta_y": -0.05}}, "embedding.delta_y"),
        ({"analysis": {"folds": 0}}, "analysis.folds"),
        # An SVM's point cap keeps one point per class.
        ({"analysis": {"svm_max_points": 0}}, "analysis.svm_max_points"),
        ({"analysis": {"svm_max_points": 1}}, "analysis.svm_max_points"),
        ({"dataset": {"test_fraction": -0.5}}, "dataset.test_fraction"),
        ({"dataset": {"test_fraction": 0}}, "dataset.test_fraction"),
        ({"embedding": {"val_fraction": -0.1}}, "embedding.val_fraction"),
        ({"lifting": {"holdout_fraction": -0.1}}, "lifting.holdout_fraction"),
    ])
    def test_mistyped_or_out_of_range_field_exits_2(self, tmp_path, doc, field):
        self._assert_rejected(tmp_path, doc, field)

    @pytest.mark.parametrize("doc,field", [
        # A dunder name is no field, and a section is an object.
        ({"dataset": {"n_traj": 50, "__dict__": {}}}, "dataset.__dict__"),
        ({"embedding": {"__module__": "x"}}, "embedding.__module__"),
        ({"dataset": 5}, "dataset"),
        ({"lifting": {"k_grid": [3, 0]}}, "lifting.k_grid"),
    ])
    def test_unknown_name_or_malformed_section_exits_2(self, tmp_path, doc, field):
        self._assert_rejected(tmp_path, doc, field)

    @staticmethod
    def _assert_rejected(tmp_path, doc, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "dynalign", "simulate", "--config", str(bad),
             "--out", str(tmp_path / "runs")],
            capture_output=True, text=True, env=CLI_ENV,
        )
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1 and field in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "runs").exists()

    def test_negative_seed_override_exits_2(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "dynalign", "simulate", "--seed", "-1",
             "--out", str(tmp_path / "runs")],
            capture_output=True, text=True, env=CLI_ENV,
        )
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1 and "seed" in proc.stderr
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("corrupt", ["array_name", "empty_metadata"])
    def test_cached_artifact_that_does_not_read_back_exits_2(self, tmp_path, corrupt):
        from dynalign import dynsim
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(TINY))
        args = [sys.executable, "-m", "dynalign", "simulate", "--config", str(cfgfile),
                "--out", str(tmp_path / "runs")]
        assert subprocess.run(args, capture_output=True, env=CLI_ENV).returncode == 0
        (path,) = (tmp_path / "runs" / "cache").glob("dataset-*.bin")
        if corrupt == "array_name":
            blob = bytearray(path.read_bytes())
            meta_len = int.from_bytes(blob[8:16], "little")
            blob[16 + meta_len + 8] = 0xFF       # first byte of the first array name
            path.write_bytes(bytes(blob))
        else:
            _, arrays = binio.read_envelope(path, dynsim.DATASET_MAGIC)
            binio.write_envelope(path, dynsim.DATASET_MAGIC, {}, arrays)
        proc = subprocess.run(args, capture_output=True, text=True, env=CLI_ENV)
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr

    @pytest.fixture(scope="class")
    def tiny_cache(self, tmp_path_factory):
        """A TINY pipeline's config file and output directory."""
        root = tmp_path_factory.mktemp("tiny-cache")
        cfgfile = root / "cfg.json"
        cfgfile.write_text(json.dumps(TINY))
        args = [sys.executable, "-m", "dynalign", "pipeline", "--config", str(cfgfile),
                "--out", str(root / "runs")]
        assert subprocess.run(args, capture_output=True, env=CLI_ENV).returncode == 0
        return args, root / "runs"

    @pytest.mark.parametrize("stage,magic,array,cut", [
        ("diffusion", b"DNZ1", "w1", lambda a: a[:, :20]),
        ("encoder", b"ENC1", "w0", lambda a: a[:-1]),
        ("latents", b"LAT1", "z", lambda a: a[:-1]),
        ("table", b"KNT1", "z_ref", lambda a: a[:-1]),
    ], ids=["diffusion", "encoder", "latents", "table"])
    def test_cached_array_that_disagrees_with_its_metadata_exits_2(
            self, tmp_path, tiny_cache, stage, magic, array, cut):
        args, runs = tiny_cache
        shutil.copytree(runs, tmp_path / "runs")
        args = args[:-1] + [str(tmp_path / "runs")]
        (path,) = (tmp_path / "runs" / "cache").glob(f"{stage}-*.bin")
        meta, arrays = binio.read_envelope(path, magic)
        binio.write_envelope(path, magic, meta, {**arrays, array: cut(arrays[array])})
        proc = subprocess.run(args, capture_output=True, text=True, env=CLI_ENV)
        assert proc.returncode == 2, proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr

    def test_diverging_denoiser_exits_3_before_caching_it(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({**TINY, "diffusion": {**TINY["diffusion"], "lr": 1e9}}))
        proc = subprocess.run(
            [sys.executable, "-m", "dynalign", "pipeline", "--config", str(cfgfile),
             "--out", str(tmp_path / "runs")],
            capture_output=True, text=True, env=CLI_ENV,
        )
        assert proc.returncode == 3
        # One line: the exit-3 message, with no numpy overflow warning before it.
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(
            "numeric failure: stage diffusion: diffusion training diverged")
        assert "Traceback" not in proc.stderr
        cached = [p.name for p in (tmp_path / "runs" / "cache").iterdir()]
        assert len(cached) == 1 and cached[0].startswith("dataset-")

    @pytest.mark.parametrize("command,section,doc,code,stage,message", [
        ("pipeline", "diffusion", {"lr": 1e9}, 3, "diffusion",
         "stage diffusion: diffusion training diverged at epoch 1"),
        ("classify", "dataset", {"mu_range": [0.5, 0.5]}, 2, "classify",
         "no fold's training set holds both classes"),
        # The sweep fails in its first dimension's pipeline, outside every
        # stage of its own.
        ("sweep-dim --dims 2", "diffusion", {"lr": 1e9}, 3, None,
         "stage diffusion: diffusion training diverged at epoch 1"),
    ], ids=["numeric", "input", "sweep-dim"])
    def test_failed_run_keeps_a_manifest(self, tmp_path, capsys, command, section, doc, code,
                                         stage, message):
        command, *listed = command.split()
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({**TINY, section: {**TINY[section], **doc}}))
        assert harness.main([command, *listed, "--config", str(cfgfile),
                             "--out", str(tmp_path / "runs")]) == code
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        [path] = (tmp_path / "runs").glob(f"*/manifest-{command}.json")
        manifest = json.loads(path.read_text())
        failure = manifest.pop("failure")
        assert failure["stage"] == stage and failure["exit_code"] == code
        assert message in failure["message"] and failure["message"] in err
        # The records of the stages that finished before it, and no other.
        finished = {"pipeline": {"dataset"}, "sweep-dim": set(), "classify": {
            "dataset", "diffusion", "latents", "encoder-classify"}}[command]
        assert set(manifest["stages"]) == finished
        if command == "sweep-dim":
            # The d2 pipeline's own manifest names the stage it failed in.
            [path] = (tmp_path / "runs").glob("*/manifest-pipeline.json")
            assert json.loads(path.read_text())["failure"]["stage"] == "diffusion"
        assert_cpu_and_peak_rss_per_entry(manifest)
        assert manifest["metrics_summary"] is None
        assert all(os.path.exists(p) for p in manifest["artifacts"])

    def test_failed_run_leaves_a_successful_manifest_in_place(self, tmp_path, monkeypatch):
        cfg, out = tiny_config(), str(tmp_path)
        path = harness.cmd_simulate(cfg, out)["manifest"]
        kept = open(path).read()

        def failing(ws):
            raise NumericError("boom")
        monkeypatch.setattr(harness, "stage_dataset", failing)
        with pytest.raises(NumericError):
            harness.cmd_simulate(cfg, out, force=True)
        assert open(path).read() == kept

    @pytest.mark.parametrize("section,key,value,message,left", [
        # The encoder's squared gradient overflows in Adam.
        ("embedding", "tau", 1e-300, "squared gradient in parameter block", "encoder-"),
        # sigma**2 underflows, so every Gaussian weight would be NaN.
        ("lifting", "sigma", 1e-300, "gaussian bandwidth 1e-300 underflows", "table-"),
        # omega * t overflows: the dataset itself is non-finite.
        ("dataset", "t_max", 1e308, "trajectory 0 has non-finite states", "dataset-"),
        # sigma**2 is subnormal, so dist**2 / (2 sigma**2) overflows; no local
        # guard catches it, the command's floating-point policy does.
        ("lifting", "sigma", 1e-160, "overflow", "table-"),
    ], ids=["tau", "sigma", "t_max", "sigma_subnormal"])
    def test_non_finite_numbers_exit_3_before_caching(self, tmp_path, section, key, value,
                                                       message, left):
        doc = json.loads(json.dumps(TINY))
        doc[section][key] = value
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "dynalign", "pipeline", "--config", str(cfgfile),
             "--out", str(tmp_path / "runs")],
            capture_output=True, text=True, env=CLI_ENV,
        )
        assert proc.returncode == 3
        # One line: the exit-3 message naming the stage that failed, with no
        # numpy warning before it.
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(f"numeric failure: stage {left[:-1]}: ")
        assert message in proc.stderr
        assert not list((tmp_path / "runs" / "cache").glob(f"{left}*"))

    def test_in_process_run_keeps_the_floating_point_policy(self, tmp_path):
        # The sigma_subnormal case above, called in-process: the overflow
        # raises where it happens, as from the CLI, not as a warning.
        with pytest.raises(NumericError, match=r"^stage table: overflow"):
            harness.cmd_pipeline(tiny_config(lifting={"sigma": 1e-160}), str(tmp_path))
        [path] = tmp_path.glob("*/manifest-pipeline.json")
        assert json.loads(path.read_text())["failure"]["stage"] == "table"

    def test_parser_matches_the_registry(self):
        parser = harness.build_parser()
        [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == set(harness.COMMANDS) | {"config-schema"}
        for name in harness.COMMANDS:
            args = parser.parse_args([name, "--config", "c.json", "--out", "o",
                                      "--seed", "4", "--force"])
            assert (args.config, args.out, args.seed, args.force) == ("c.json", "o", 4, True)
        # Each list flag's default text gives the values its command takes
        # by default.
        for name, spec in harness.LIST_FLAGS.items():
            text = vars(parser.parse_args([name]))[spec.flag[2:]]
            assert harness._cli_list(text, name) == list(spec.default)
        etas = inspect.signature(harness.cmd_kde_edit).parameters["eta_list"].default
        assert list(etas) == list(harness.LIST_FLAGS["kde-edit"].default)

    @pytest.mark.parametrize("command", ["pipeline", "kde-edit"])
    def test_floating_point_error_while_embedding_names_the_stage(self, tmp_path, monkeypatch,
                                                                  capsys, command):
        def overflow(*args, **kwargs):
            raise FloatingPointError("overflow encountered in matmul")

        monkeypatch.setattr(harness.contrastive, "embed", overflow)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(TINY))
        code = harness.main([command, "--config", str(cfgfile), "--out", str(tmp_path / "runs")])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            "numeric failure: stage embed: overflow encountered in matmul"]

    @pytest.mark.parametrize("command,flag,value", [
        ("kde-edit", "--etas", ","),
        ("kde-edit", "--etas", "abc"),
        ("kde-edit", "--etas", "0,1.5"),
        ("sweep-dim", "--dims", "x"),
        ("sweep-dim", "--dims", "2.5"),
        ("sweep-dim", "--dims", "2,0"),
    ])
    def test_bad_cli_list_exits_2_before_any_stage(self, tmp_path, command, flag, value):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(TINY))
        proc = subprocess.run(
            [sys.executable, "-m", "dynalign", command, "--config", str(cfgfile),
             "--out", str(tmp_path / "runs"), flag, value],
            capture_output=True, text=True, env=CLI_ENV,
        )
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert flag in proc.stderr
        assert not (tmp_path / "runs").exists()

    def test_window_longer_than_trajectory_runs(self, tmp_path):
        # The encoder's window then takes each drawn trajectory whole.
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({**TINY,
                                       "dataset": {**TINY["dataset"], "frames_per_traj": 8},
                                       "embedding": {**TINY["embedding"], "window": 9}}))
        proc = subprocess.run(
            [sys.executable, "-m", "dynalign", "pipeline", "--config", str(cfgfile),
             "--out", str(tmp_path / "runs")],
            capture_output=True, text=True, env=CLI_ENV,
        )
        assert proc.returncode == 0, proc.stderr

    def test_single_class_classify_exits_2(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(
            {**TINY, "dataset": {**TINY["dataset"], "mu_range": [0.5, 0.5]}}))
        proc = subprocess.run(
            [sys.executable, "-m", "dynalign", "classify", "--config", str(cfgfile),
             "--out", str(tmp_path / "runs")],
            capture_output=True, text=True, env=CLI_ENV,
        )
        assert proc.returncode == 2
        assert "no fold's training set holds both classes" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_simulate_cli_runs(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(TINY))
        proc = subprocess.run(
            [sys.executable, "-m", "dynalign", "simulate", "--config", str(cfgfile),
             "--out", str(tmp_path / "runs")],
            capture_output=True, text=True, env=CLI_ENV,
        )
        assert proc.returncode == 0
        assert "manifest" in proc.stdout

    def test_simulate_cli_runs_at_a_seed_beyond_64_bits(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({**TINY, "seed": 2**64}))
        proc = subprocess.run(
            [sys.executable, "-m", "dynalign", "simulate", "--config", str(cfgfile),
             "--out", str(tmp_path / "runs")],
            capture_output=True, text=True, env=CLI_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert len(list((tmp_path / "runs" / "cache").glob("dataset-*.bin"))) == 1

    def test_pipeline_cli_writes_csv(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(TINY))
        proc = subprocess.run(
            [sys.executable, "-m", "dynalign", "pipeline", "--config", str(cfgfile),
             "--out", str(tmp_path / "runs"), "--seed", "5"],
            capture_output=True, text=True, env=CLI_ENV,
        )
        assert proc.returncode == 0
        csv_line = [l for l in proc.stdout.splitlines() if l.startswith("csv:")]
        assert csv_line
        path = csv_line[0].split("csv: ")[1]
        assert open(path).readline().startswith("dataset,space,method")


def test_saturated_recurrent_gate_runs_clean(tmp_path):
    # A far too large encoder step saturates the MGU forget gate of the C
    # baseline: exp(-z) overflows to inf, the exact gate 0, with no warning
    # (pytest turns a RuntimeWarning into an error).
    res = harness.cmd_pipeline(tiny_config(embedding={"lr": 1e6}), str(tmp_path))
    assert res["rows"]


def test_single_fold_equals_plain_split_eval(tmp_path):
    cfg = tiny_config(analysis={"folds": 1})
    res = harness.cmd_classify(cfg, str(tmp_path))
    # One fold means: train on the dataset's train split, score its test split.
    import dataclasses

    from dynalign import analysis
    from dynalign.numcore import Rng

    ws = harness.Workspace(str(tmp_path), cfg)
    ds, _, _, z_all, _ = harness._upstream(
        ws, dataclasses.replace(cfg.embedding, class_match=True), "encoder-classify")

    S = z_all.shape[1]
    stride = max(1, S // cfg.analysis.frames_per_traj_class)
    sel = np.arange(0, S, stride)
    train_idx = ds.indices("train")
    test_idx = ds.indices("test")
    x_train = z_all[train_idx][:, sel, :].reshape(-1, z_all.shape[2])
    y_train = np.repeat(ds.labels[train_idx], sel.size)
    x_test = z_all[test_idx][:, sel, :].reshape(-1, z_all.shape[2])
    y_test = np.repeat(ds.labels[test_idx], sel.size)
    svm = analysis.train_svm(
        x_train, y_train,
        analysis.SvmConfig(kernel="rbf", lam=cfg.analysis.svm_lam,
                           steps=cfg.analysis.svm_steps,
                           max_points=cfg.analysis.svm_max_points),
        Rng(cfg.seed).stream("classify").stream("svm-Z-rbf-0"),
    )
    direct = analysis.svm_score(y_test, analysis.svm_decision(svm, x_test))
    assert res["results"][("Z", "rbf")] == pytest.approx(direct)


@pytest.mark.slow
class TestEndToEndControls:
    def test_shuffled_labels_give_chance_auc(self, pipelines):
        import dataclasses

        from dynalign.numcore import Rng

        cfg = pipelines[0]["cfg"]
        ds, _, _, z_all, enc = harness._upstream(
            harness.Workspace(pipelines[0]["out"], cfg),
            dataclasses.replace(cfg.embedding, class_match=True), "encoder-classify")
        shuffled = dataclasses.replace(ds, labels=ds.labels[Rng(99).permutation(ds.labels.size)])
        _, results = harness.classification_metrics(cfg, shuffled, z_all, enc,
                                                    Rng(0).stream("classify"))
        for key in (("Z", "rbf"), ("C", "rbf")):
            assert abs(results[key]["auc"] - 0.5) <= 0.1

    def test_kde_edit_morph(self, pipelines):
        etas = [0.0, 0.25, 0.5, 0.75, 1.0]
        curves = []
        for seed, run in pipelines.items():
            res = harness.cmd_kde_edit(run["cfg"], run["out"], etas)
            vals = [r["value"] for r in res["rows"]]
            assert vals[0] == 0.0
            assert len(res["frames"]) == len(etas)
            curves.append(vals)
        # Difference from the source grows along the traversal on average
        # over seeds.
        mean_curve = np.mean(curves, axis=0)
        assert np.all(np.diff(mean_curve) > 0.0)

    def test_single_element_sweep_matches_pipeline(self, pipelines):
        run = pipelines[0]
        d = run["cfg"].embedding.d
        swept = harness.cmd_sweep_dim(run["cfg"], run["out"], [d])
        base = harness.cmd_pipeline(run["cfg"], run["out"])
        swept_vals = {
            (r["space"], r["method"], r["metric"]): r["value"] for r in swept["rows"]
        }
        for r in base["rows"]:
            assert swept_vals[(r["space"], r["method"], r["metric"])] == r["value"]

    def test_dimension_sweep_aggregates(self, tmp_path):
        import glob as globmod

        res = harness.cmd_sweep_dim(tiny_config(), str(tmp_path), [2, 3])
        tags = {r["dataset"] for r in res["rows"]}
        assert tags == {"oscillator:d2", "oscillator:d3"}
        # Upstream stages are shared across dimensions; only the encoder
        # (and what depends on it) is retrained per d.
        cache = str(tmp_path / "cache")
        assert len(globmod.glob(cache + "/dataset-*.bin")) == 1
        assert len(globmod.glob(cache + "/diffusion-*.bin")) == 1
        assert len(globmod.glob(cache + "/encoder-*.bin")) == 2


class TestBinioEnvelope:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "f.bin"
        arrays = {"a": np.arange(6.0).reshape(2, 3), "b": np.array([1.5])}
        binio.write_envelope(path, b"TST1", {"k": 1}, arrays)
        meta, back = binio.read_envelope(path, b"TST1")
        assert meta == {"k": 1}
        assert np.array_equal(back["a"], arrays["a"])

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "f.bin"
        binio.write_envelope(path, b"TST1", {}, {"a": np.zeros(2)})
        with open(path, "ab") as fh:
            fh.write(b"junk")
        with pytest.raises(FormatError, match="trailing"):
            binio.read_envelope(path, b"TST1")

    def test_failed_write_leaves_no_partial_artifact(self, tmp_path):
        path = tmp_path / "f.bin"
        bad = {"a": np.zeros(4), "b": np.array(["not a number"])}
        with pytest.raises(ValueError):
            binio.write_envelope(path, b"TST1", {}, bad)
        assert list(tmp_path.iterdir()) == []
        binio.write_envelope(path, b"TST1", {"k": 1}, {"a": np.arange(3.0)})
        before = path.read_bytes()
        with pytest.raises(ValueError):
            binio.write_envelope(path, b"TST1", {}, bad)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == before

    def test_undecodable_array_name_is_a_format_error(self, tmp_path):
        path = tmp_path / "f.bin"
        binio.write_envelope(path, b"TST1", {}, {"ab": np.zeros(2)})
        blob = bytearray(path.read_bytes())
        blob[blob.index(b"ab")] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="array name"):
            binio.read_envelope(path, b"TST1")

    @pytest.mark.parametrize("module,magic,loader", [
        ("dynsim", "DATASET_MAGIC", "load_dataset"),
        ("diffusion", "CHECKPOINT_MAGIC", "load_model"),
        ("contrastive", "CHECKPOINT_MAGIC", "load_encoder"),
        ("lifting", "TABLE_MAGIC", "load_table"),
    ])
    def test_every_loader_rejects_missing_entries(self, tmp_path, module, magic, loader):
        import importlib
        mod = importlib.import_module(f"dynalign.{module}")
        path = tmp_path / "f.bin"
        binio.write_envelope(path, getattr(mod, magic), {}, {})
        with pytest.raises(FormatError, match="missing"):
            getattr(mod, loader)(path)
        binio.write_envelope(path, getattr(mod, magic), [], {})
        with pytest.raises(FormatError, match="JSON object"):
            getattr(mod, loader)(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "f.bin"
        binio.write_envelope(path, b"TST1", {}, {})
        with pytest.raises(FormatError):
            binio.read_envelope(path, b"XXXX")

"""Output checks for the benchmark: every command's CSV and PGM outputs are
validated from outside the program, and their bytes are compared with the
first output of the same config on the same code.

A command fails the check when any of these holds:
  - it exited non-zero (or raised, when driven in process);
  - a CSV header differs from the program's documented schema;
  - an expected (space, method, metric) row is missing or not finite, or a
    row carries another seed than the config;
  - an expected PGM strip is missing or malformed;
  - a CSV or PGM differs byte-wise from the reference digest;
  - on a warm cache, the cache directory changed.
"""

import hashlib
import json
import math
import os

CSV_HEADER = "dataset,space,method,metric,value,std,n,seed"
KDE_ETAS = ("0", "0.25", "0.5", "0.75", "1")
TRAVERSAL_METHODS = ("lerp", "slerp", "recurrent", "tex1", "tex2")

# command -> CSV file name, relative to the command's run directory.
CSV_NAME = {
    "pipeline": "pipeline.csv",
    "classify": "classification.csv",
    "kde-edit": "kde.csv",
    "probe-orthogonality": "orthogonality.csv",
}


def _methods(space):
    return TRAVERSAL_METHODS + (("spline",) if space != "Z" else ())


def expected_rows(command):
    """The (space, method, metric) keys a command must write."""
    keys = set()
    if command == "pipeline":
        for space in ("Z", "C", "PCA"):
            keys.add((space, "all", "space_scale"))
            keys.add((space, "alignment", "procrustes"))
            for m in _methods(space):
                keys.update((space, m, metric) for metric in ("rmse", "rmse_norm", "tae"))
                if space != "PCA":
                    keys.update((space, m, metric) for metric in ("psnr", "ssim"))
    elif command == "classify":
        for space in ("Z", "C"):
            for kernel in ("svm-linear", "svm-rbf"):
                keys.update((space, kernel, m) for m in ("accuracy", "f1", "auc"))
    elif command == "kde-edit":
        keys.update(("C", f"kde@{eta}", "diff_l1") for eta in KDE_ETAS)
    elif command == "probe-orthogonality":
        keys.update((space, "ols-probe", "regression_cosine") for space in ("Z", "C"))
    else:
        raise ValueError(f"unknown command {command!r}")
    return keys


def expected_images(command):
    """PGM files a command must write, relative to its run directory."""
    if command == "pipeline":
        names = ["strips/truth.pgm"]
        names += [f"strips/{space}-{m}.pgm" for space in ("Z", "C") for m in _methods(space)]
        return names
    if command == "kde-edit":
        return ["kde/morph-strip.pgm", "kde/diff-strip.pgm"]
    return []


def parse_csv(text, seed):
    """Rows of a result CSV as {(space, method, metric): value}.

    Raises ValueError on a wrong header, a malformed or duplicated row, a
    non-finite value or a row for another seed.
    """
    lines = text.split("\n")
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"bad CSV header {lines[0] if lines else ''!r}")
    if lines[-1] != "":
        raise ValueError("CSV does not end with a newline")
    rows = {}
    for line in lines[1:-1]:
        parts = line.split(",")
        if len(parts) != 8:
            raise ValueError(f"malformed CSV row {line!r}")
        _, space, method, metric, value, _, _, row_seed = parts
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"non-finite value in row {line!r}")
        if int(row_seed) != seed:
            raise ValueError(f"row for seed {row_seed}, expected {seed}")
        key = (space, method, metric)
        if key in rows:
            raise ValueError(f"duplicate row {key}")
        rows[key] = value
    return rows


def check_pgm(data):
    """Raise ValueError unless `data` is a binary 8-bit PGM with a full raster."""
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5" or parts[2] != b"255":
        raise ValueError("bad PGM header")
    w, h = (int(v) for v in parts[1].split())
    if w < 1 or h < 1 or len(parts[3]) != w * h:
        raise ValueError("PGM raster size does not match its header")


def cache_snapshot(cache_dir):
    """name -> (size, mtime_ns) of every cache artifact."""
    if not os.path.isdir(cache_dir):
        return {}
    out = {}
    for name in sorted(os.listdir(cache_dir)):
        st = os.stat(os.path.join(cache_dir, name))
        out[name] = (st.st_size, st.st_mtime_ns)
    return out


def code_digest(src_dir):
    """Hash of the package sources, so references never cross code versions."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src_dir):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


class DigestStore:
    """Reference digests of output files per (code, config), kept on disk
    so a later run of the same seed on the same code is compared too."""

    def __init__(self, path, code):
        self.path = path
        self.code = code
        self.refs = {}
        try:
            with open(path) as fh:
                doc = json.load(fh)
            self.refs = doc.get(code, {}) if isinstance(doc, dict) else {}
        except (OSError, ValueError):
            self.refs = {}

    def compare(self, config_key, relpath, data):
        """Record the first digest; return False if `data` differs from it."""
        digest = hashlib.sha256(data).hexdigest()
        ref = self.refs.setdefault(config_key, {}).setdefault(relpath, digest)
        return ref == digest

    def save(self):
        tmp = self.path + f".{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump({self.code: self.refs}, fh, sort_keys=True)
        os.replace(tmp, self.path)


def check_outputs(command, run_dir, seed, config_key, store):
    """Validate one command's outputs; returns (rows, problems)."""
    problems = []
    rows = {}
    csv_rel = CSV_NAME[command]
    try:
        with open(os.path.join(run_dir, csv_rel), "rb") as fh:
            data = fh.read()
        rows = parse_csv(data.decode("utf-8"), seed)
        missing = expected_rows(command) - set(rows)
        if missing:
            problems.append(f"{csv_rel}: missing rows {sorted(missing)[:3]}")
        if not store.compare(config_key, csv_rel, data):
            problems.append(f"{csv_rel}: bytes differ from the first run of this config")
    except (OSError, ValueError) as exc:
        problems.append(f"{csv_rel}: {exc}")
    for rel in expected_images(command):
        try:
            with open(os.path.join(run_dir, rel), "rb") as fh:
                data = fh.read()
            check_pgm(data)
            if not store.compare(config_key, rel, data):
                problems.append(f"{rel}: bytes differ from the first run of this config")
        except (OSError, ValueError) as exc:
            problems.append(f"{rel}: {exc}")
    return rows, problems

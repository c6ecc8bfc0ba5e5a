"""kNN decoder from compact embeddings back to feature latents.

Exact linear-scan neighbor search (desk-scale tables, deterministic) with
uniform, inverse-distance, or gaussian neighbor weights, plus neighbor-count
selection by held-out reconstruction error.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import binio
from .errors import InputError
from .metrics import rmse

TABLE_MAGIC = b"KNT1"

KERNELS = ("uniform", "inverse", "gaussian")
METRICS = ("euclidean", "cosine")


@dataclass
class LiftingConfig:
    kernel: str = "gaussian"
    metric: str = "euclidean"
    k_grid: tuple = (1, 2, 3, 5, 8, 12)
    sigma: Optional[float] = None   # gaussian bandwidth; None -> median heuristic
    holdout_fraction: float = 0.1


@dataclass
class KnnTable:
    c_ref: np.ndarray   # (m, d)
    z_ref: np.ndarray   # (m, D)
    kernel: str
    metric: str
    k: int
    sigma: float


def _median_heuristic(c_ref, cap=1000):
    n = c_ref.shape[0]
    if n > cap:
        stride = int(np.ceil(n / cap))
        c_ref = c_ref[::stride]
    d2 = np.maximum(
        np.sum(c_ref**2, axis=1)[:, None]
        + np.sum(c_ref**2, axis=1)[None, :]
        - 2.0 * (c_ref @ c_ref.T),
        0.0,
    )
    upper = np.sqrt(d2[np.triu_indices(c_ref.shape[0], k=1)])
    med = float(np.median(upper)) if upper.size else 1.0
    return med if med > 0.0 else 1.0


def build_table(embeddings, latents, config, k=5):
    """Freeze reference (embedding, latent) pairs into an immutable table
    with the kernel, metric and bandwidth of `config` and k neighbors."""
    c = np.atleast_2d(np.asarray(embeddings, dtype=np.float64)).copy()
    z = np.atleast_2d(np.asarray(latents, dtype=np.float64)).copy()
    if c.shape[0] != z.shape[0]:
        raise InputError(
            f"embedding count {c.shape[0]} != latent count {z.shape[0]}"
        )
    if c.shape[0] == 0:
        raise InputError("cannot build an empty table")
    if config.kernel not in KERNELS:
        raise InputError(f"unknown kernel {config.kernel!r}")
    if config.metric not in METRICS:
        raise InputError(f"unknown metric {config.metric!r}")
    sigma = config.sigma if config.sigma is not None else _median_heuristic(c)
    if sigma <= 0.0:
        raise InputError("gaussian bandwidth must be positive")
    k = int(np.clip(k, 1, c.shape[0]))
    return KnnTable(c_ref=c, z_ref=z, kernel=config.kernel,
                    metric=config.metric, k=k, sigma=float(sigma))


def _distances(table, queries):
    c = table.c_ref
    if table.metric == "euclidean":
        d2 = np.maximum(
            np.sum(queries**2, axis=1)[:, None]
            + np.sum(c**2, axis=1)[None, :]
            - 2.0 * (queries @ c.T),
            0.0,
        )
        return np.sqrt(d2)
    qn = np.linalg.norm(queries, axis=1, keepdims=True)
    cn = np.linalg.norm(c, axis=1, keepdims=True)
    if np.any(qn == 0.0) or np.any(cn == 0.0):
        raise InputError("cosine distance undefined for zero vectors")
    cos = (queries / qn) @ (c / cn).T
    return 1.0 - np.clip(cos, -1.0, 1.0)


def _weights(dist, kernel, sigma):
    if kernel == "uniform":
        w = np.ones_like(dist)
    elif kernel == "inverse":
        w = 1.0 / (dist + 1e-9)
    else:
        e = dist**2 / (2.0 * sigma**2)
        w = np.exp(-(e - e.min(axis=1, keepdims=True)))
    return w / w.sum(axis=1, keepdims=True)


def lift_many(table, queries, k=None, return_weights=False):
    """Vectorized lift of a query batch; returns (q, D) latents."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if not np.all(np.isfinite(queries)):
        raise InputError("query contains non-finite entries")
    k = table.k if k is None else int(np.clip(k, 1, table.c_ref.shape[0]))
    dist = _distances(table, queries)
    # Stable sort keeps ties deterministic (lowest reference index wins).
    nbr = np.argsort(dist, axis=1, kind="stable")[:, :k]
    ndist = np.take_along_axis(dist, nbr, axis=1)
    w = _weights(ndist, table.kernel, table.sigma)
    lifted = np.einsum("qk,qkd->qd", w, table.z_ref[nbr])
    if return_weights:
        return lifted, w, nbr
    return lifted


def lift(table, c_query, k=None):
    """Lift one embedding back to a feature latent."""
    c = np.asarray(c_query, dtype=np.float64)
    single = c.ndim == 1
    out = lift_many(table, c, k=k)
    return out[0] if single else out


def select_k(table, k_grid, heldout_embeddings, heldout_latents):
    """Pick the neighbor count minimizing held-out latent RMSE.

    Ties break toward the smaller count; the grid is scanned in ascending
    order with strict improvement required.
    """
    if len(k_grid) == 0:
        raise InputError("empty neighbor-count grid")
    hc = np.atleast_2d(np.asarray(heldout_embeddings, dtype=np.float64))
    hz = np.atleast_2d(np.asarray(heldout_latents, dtype=np.float64))
    if hc.shape[0] == 0 or hc.shape[0] != hz.shape[0]:
        raise InputError("held-out pairs must be nonempty and aligned")
    best_k, best_err = None, np.inf
    for k in sorted(set(int(k) for k in k_grid)):
        err = rmse(lift_many(table, hc, k=k), hz)
        if err < best_err:
            best_k, best_err = k, err
    return best_k


def save_table(table, path):
    meta = {"kernel": table.kernel, "metric": table.metric,
            "k": table.k, "sigma": table.sigma}
    binio.write_envelope(path, TABLE_MAGIC, meta,
                         {"c_ref": table.c_ref, "z_ref": table.z_ref})


def load_table(path):
    meta, arrays = binio.read_envelope(path, TABLE_MAGIC)
    return KnnTable(c_ref=arrays["c_ref"], z_ref=arrays["z_ref"],
                    kernel=meta["kernel"], metric=meta["metric"],
                    k=int(meta["k"]), sigma=float(meta["sigma"]))

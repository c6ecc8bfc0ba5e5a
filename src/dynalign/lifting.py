"""kNN decoder from compact embeddings back to feature latents.

Exact linear-scan neighbor search (desk-scale tables, deterministic) with
uniform, inverse-distance, or gaussian neighbor weights, plus neighbor-count
selection by held-out reconstruction error.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import binio
from .errors import FormatError, InputError, NumericError
from .metrics import rmse
from .numcore import sq_dists

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
    m = c_ref.shape[0]
    if m < 2:
        return 1.0
    # The median distance of the strict upper triangle, found in the distance
    # buffer itself: with the diagonal and lower triangle at -inf, the upper
    # values hold the flat ranks from m(m+1)/2 on, and one in-place partition
    # places the middle one or two. sqrt is monotone, so it can come last.
    d2 = sq_dists(c_ref, c_ref)
    for i in range(m):
        d2[i, : i + 1] = -np.inf
    upper = m * (m - 1) // 2
    ranks = m * (m + 1) // 2 + np.unique([(upper - 1) // 2, upper // 2])
    flat = d2.reshape(-1)
    flat.partition(ranks)
    med = float(np.mean(np.sqrt(flat[ranks])))   # np.median's mean of the middle
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
    if config.kernel == "gaussian" and 2.0 * sigma**2 == 0.0:
        raise NumericError(f"gaussian bandwidth {sigma:g} underflows when squared")
    k = int(np.clip(k, 1, c.shape[0]))
    return KnnTable(c_ref=c, z_ref=z, kernel=config.kernel,
                    metric=config.metric, k=k, sigma=float(sigma))


def _distances(table, queries):
    c = table.c_ref
    if table.metric == "euclidean":
        d2 = sq_dists(queries, c)
        return np.sqrt(d2, out=d2)
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


def _nearest(dist, k):
    """The first k columns of a stable argsort of each row of `dist`: the k
    nearest references ordered by (distance, reference index), so ties go
    to the lowest index. A partial selection finds them; a row whose k-th
    distance ties a reference the selection left out is sorted in full."""
    if k >= dist.shape[1]:
        return np.argsort(dist, axis=1, kind="stable")
    nbr = np.argpartition(dist, k - 1, axis=1)[:, :k]
    nbr.sort(axis=1)
    near = np.take_along_axis(dist, nbr, axis=1)
    kth = near.max(axis=1, keepdims=True)
    cut = np.count_nonzero(dist == kth, axis=1) > np.count_nonzero(near == kth, axis=1)
    nbr = np.take_along_axis(nbr, np.argsort(near, axis=1, kind="stable"), axis=1)
    if cut.any():
        nbr[cut] = np.argsort(dist[cut], axis=1, kind="stable")[:, :k]
    return nbr


def _lifts(table, queries, ks):
    """Yield (latents, weights, neighbours) of a query batch for each
    neighbour count in `ks`, from one selection of its max(ks) nearest."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if not np.all(np.isfinite(queries)):
        raise InputError("query contains non-finite entries")
    dist = _distances(table, queries)
    # Selected 64 query rows at a time, so the index arrays stay small.
    k_max = min(max(ks), dist.shape[1])
    order = np.empty((dist.shape[0], k_max), dtype=np.intp)
    for lo in range(0, dist.shape[0], 64):
        order[lo : lo + 64] = _nearest(dist[lo : lo + 64], k_max)
    for k in ks:
        nbr = order[:, :k]
        w = _weights(np.take_along_axis(dist, nbr, axis=1), table.kernel, table.sigma)
        yield np.einsum("qk,qkd->qd", w, table.z_ref[nbr]), w, nbr


def lift_many(table, queries):
    """Vectorized lift of a query batch with the table's k; returns (q, D)
    latents."""
    return next(_lifts(table, queries, [table.k]))[0]


def lift(table, c_query):
    """Lift one embedding back to a feature latent."""
    c = np.asarray(c_query, dtype=np.float64)
    out = lift_many(table, c)
    return out[0] if c.ndim == 1 else out


def select_k(table, k_grid, heldout_embeddings, heldout_latents):
    """Pick the neighbor count minimizing held-out latent RMSE.

    Grid entries are clipped to [1, reference count], and the clipped count
    is returned. Ties break toward the smaller count; the grid is scanned in
    ascending order with strict improvement required. NumericError if no
    count gives a finite error.
    """
    if len(k_grid) == 0:
        raise InputError("empty neighbor-count grid")
    hc = np.atleast_2d(np.asarray(heldout_embeddings, dtype=np.float64))
    hz = np.atleast_2d(np.asarray(heldout_latents, dtype=np.float64))
    if hc.shape[0] == 0 or hc.shape[0] != hz.shape[0]:
        raise InputError("held-out pairs must be nonempty and aligned")
    grid = sorted({int(k) for k in np.clip(k_grid, 1, table.c_ref.shape[0])})
    best_k, best_err = None, np.inf
    for k, (lifted, _, _) in zip(grid, _lifts(table, hc, grid)):
        err = rmse(lifted, hz)
        if err < best_err:
            best_k, best_err = k, err
    if best_k is None:
        raise NumericError("no neighbour count gives a finite held-out error")
    return best_k


def save_table(table, path):
    meta = {"kernel": table.kernel, "metric": table.metric,
            "k": table.k, "sigma": table.sigma}
    binio.write_envelope(path, TABLE_MAGIC, meta,
                         {"c_ref": table.c_ref, "z_ref": table.z_ref})


def load_table(path):
    meta, arrays = binio.read_envelope(path, TABLE_MAGIC)
    c_ref, z_ref = arrays["c_ref"], arrays["z_ref"]
    if c_ref.ndim != 2 or z_ref.ndim != 2 or c_ref.shape[0] != z_ref.shape[0]:
        raise FormatError(f"table of {c_ref.shape} embeddings and {z_ref.shape} latents; "
                          "expected one latent row per embedding row")
    k = int(meta["k"])
    if not 1 <= k <= c_ref.shape[0]:
        raise FormatError(f"table k = {k} outside [1, {c_ref.shape[0]}]")
    return KnnTable(c_ref=c_ref, z_ref=z_ref, kernel=meta["kernel"], metric=meta["metric"],
                    k=k, sigma=float(meta["sigma"]))

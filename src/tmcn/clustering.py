"""K-means with restarts plus clustering agreement metrics.

The metric conventions are fixed here once: accuracy maximizes matched
fraction over cluster-to-class bijections (Hungarian assignment on the
contingency table), NMI normalizes mutual information by the geometric
mean of the entropies (defined as 0 when either entropy is 0), and
purity is the average best-class overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment


@dataclass
class ClusteringResult:
    assignments: np.ndarray          # (N,) int64 cluster ids
    centers: np.ndarray              # (k, D)
    objective: float                 # sum of squared distances to assigned centers
    n_iter: int                      # Lloyd iterations of the winning restart
    objective_trace: list[float]     # per-iteration objective of the winning restart


def _sq_diff(points: np.ndarray, other: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``(points - other) ** 2``, written into ``scratch`` and returned."""
    np.subtract(points, other, out=scratch)
    return np.square(scratch, out=scratch)


def _plusplus_init(points: np.ndarray, k: int, rng: np.random.Generator,
                   scratch: np.ndarray) -> np.ndarray:
    """k-means++ seeding; falls back to uniform choice when all distances vanish."""
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = _sq_diff(points, points[chosen[0]], scratch).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        chosen.append(idx)
        d2 = np.minimum(d2, _sq_diff(points, points[idx], scratch).sum(axis=1))
    return points[chosen].copy()


def _lloyd(points: np.ndarray, norms: np.ndarray, twice: np.ndarray, scratch: np.ndarray,
           centers: np.ndarray, max_iters: int, tol: float):
    n = points.shape[0]
    k = centers.shape[0]
    prev_obj = np.inf
    trace: list[float] = []
    assign = np.zeros(n, dtype=np.int64)
    for it in range(max_iters):
        d2 = np.maximum(norms[:, None] + (centers * centers).sum(axis=1)[None, :]
                        - twice @ centers.T, 0.0)
        assign = d2.argmin(axis=1)
        # re-seed empty clusters on the point farthest from its center; a moved
        # point drops out of the running, so each empty cluster gets its own
        counts = np.bincount(assign, minlength=k)
        point_cost = d2[np.arange(n), assign]
        for cid in np.flatnonzero(counts == 0):
            far = int(point_cost.argmax())
            centers[cid] = points[far]
            assign[far] = cid
            point_cost[far] = -np.inf
        new_centers = np.empty_like(centers)
        for cid in range(k):
            members = points[assign == cid]
            new_centers[cid] = members.mean(axis=0)
        obj = float(_sq_diff(points, new_centers[assign], scratch).sum())
        if not obj <= prev_obj * (1.0 + 1e-12) + 1e-12:
            raise RuntimeError(f"k-means objective increased: {prev_obj} -> {obj}")
        trace.append(obj)
        shift = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
        prev_obj = obj
        if shift < tol:
            break
    return assign, centers, prev_obj, len(trace), trace


def kmeans(points: np.ndarray, k: int, seed: int = 0, restarts: int = 10,
           max_iters: int = 300, tol: float = 1e-9) -> ClusteringResult:
    """Lloyd's algorithm with k-means++ seeding and ``restarts`` independent runs.

    Deterministic for a given (points, k, seed, restarts); the restart
    with the lowest objective wins, first winner on ties.  The points'
    squared norms, the doubled points and one (N, D) scratch buffer are
    made once per call, so no iteration allocates an (N, D) temporary.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError(f"kmeans: expected a non-empty (N, D) matrix, got {points.shape}")
    n = points.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"kmeans: k must be in [1, {n}], got {k}")
    if restarts < 1:
        raise ValueError(f"kmeans: restarts must be >= 1, got {restarts}")
    with np.errstate(over="ignore", invalid="ignore"):
        norms = (points * points).sum(axis=1)
    bad = ~np.isfinite(norms)
    if bad.any():
        raise ValueError(f"kmeans: row {int(bad.argmax())} has a non-finite squared norm")
    # a squared distance to a point or a center in the points' hull is at most
    # 4 max|x|^2, and the seeding and objective sums add N of them
    top = float(norms.max())
    if not np.isfinite(4.0 * top * n):
        raise ValueError(f"kmeans: distance scale 4 * max squared norm ({top:.3g}) * N ({n}) "
                         f"overflows float64")
    twice = 2.0 * points
    scratch = np.empty_like(points)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        init = _plusplus_init(points, k, rng, scratch)
        assign, centers, obj, n_iter, trace = _lloyd(points, norms, twice, scratch, init,
                                                     max_iters, tol)
        if best is None or obj < best.objective:
            best = ClusteringResult(assignments=assign, centers=centers, objective=obj,
                                    n_iter=n_iter, objective_trace=trace)
    return best


# ---------------------------------------------------------------------------
# agreement metrics

def _check_labels(pred, truth):
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.ndim != 1 or pred.shape != truth.shape or pred.shape[0] == 0:
        raise ValueError(f"metrics: label arrays must be equal-length non-empty vectors, "
                         f"got shapes {pred.shape} and {truth.shape}")
    pred = pred.astype(np.int64)
    truth = truth.astype(np.int64)
    if pred.min() < 0 or truth.min() < 0:
        raise ValueError("metrics: labels must be non-negative integers")
    return pred, truth


def _contingency(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    rows = int(truth.max()) + 1
    cols = int(pred.max()) + 1
    table = np.zeros((rows, cols), dtype=np.int64)
    np.add.at(table, (truth, pred), 1)
    return table


def accuracy(pred, truth) -> float:
    """Clustering accuracy: best matched fraction over cluster/class bijections."""
    pred, truth = _check_labels(pred, truth)
    table = _contingency(pred, truth)
    side = max(table.shape)
    padded = np.zeros((side, side), dtype=np.int64)
    padded[: table.shape[0], : table.shape[1]] = table
    rows, cols = linear_sum_assignment(-padded)
    return float(padded[rows, cols].sum()) / pred.shape[0]


def nmi(pred, truth) -> float:
    """Mutual information over the geometric entropy mean; 0 if either side is constant."""
    pred, truth = _check_labels(pred, truth)
    table = _contingency(pred, truth).astype(np.float64)
    n = pred.shape[0]
    p = table / n
    pt = p.sum(axis=1)
    pp = p.sum(axis=0)
    h_truth = float(-(pt[pt > 0] * np.log(pt[pt > 0])).sum())
    h_pred = float(-(pp[pp > 0] * np.log(pp[pp > 0])).sum())
    if h_truth == 0.0 or h_pred == 0.0:
        return 0.0
    mask = p > 0
    mi = float((p[mask] * np.log(p[mask] / (pt[:, None] * pp[None, :])[mask])).sum())
    return float(max(mi, 0.0) / np.sqrt(h_truth * h_pred))


def purity(pred, truth) -> float:
    """Average best-class overlap: each cluster votes its majority class."""
    pred, truth = _check_labels(pred, truth)
    table = _contingency(pred, truth)
    return float(table.max(axis=0).sum()) / pred.shape[0]


@dataclass
class MetricTriple:
    acc: float
    nmi: float
    pur: float


def evaluate_labels(pred, truth) -> MetricTriple:
    return MetricTriple(acc=accuracy(pred, truth), nmi=nmi(pred, truth),
                        pur=purity(pred, truth))

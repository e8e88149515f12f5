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


@dataclass
class ClusteringResult:
    assignments: np.ndarray          # (N,) int64 cluster ids
    centers: np.ndarray              # (k, D)
    objective: float                 # sum of squared distances to assigned centers
    n_iter: int                      # Lloyd iterations of the winning restart
    objective_trace: list[float]     # per-iteration objective of the winning restart


# Rows per block of a Lloyd sweep.  At D = 384 a block of the points and
# the gathered centers it is compared with take 384 KiB each, so both stay
# in a 2 MiB L2 while the block's objective, distances and sums read them.
BLOCK_ROWS = 128

# Lloyd stops after MAX_ITERS iterations, or once no center moves by TOL or more.
MAX_ITERS = 300
TOL = 1e-9


def _dists_to(points: np.ndarray, norms: np.ndarray, i: int) -> np.ndarray:
    """Squared distances of every point to point ``i``: the norms identity, one GEMV.

    The cross term is doubled after the GEMV, in place; scaling by a power
    of two is exact, so it equals the GEMV of the doubled points bit for bit.
    """
    cross = points @ points[i]
    cross *= 2.0
    return np.maximum(norms + norms[i] - cross, 0.0)


def _plusplus_init(points: np.ndarray, norms: np.ndarray, k: int,
                   rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding; falls back to uniform choice when all distances vanish."""
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = _dists_to(points, norms, chosen[0])
    for _ in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        chosen.append(idx)
        d2 = np.minimum(d2, _dists_to(points, norms, idx))
    return points[chosen].copy()


def _lloyd(points: np.ndarray, norms: np.ndarray, centers: np.ndarray, max_iters: int,
           tol: float):
    """Lloyd iterations from ``centers``, each one sweep over the points in row blocks.

    Iteration t's sweep takes each block once: it adds the block's exact
    objective term of assignment t - 1 against centers t, from explicit
    differences; it assigns the block to its nearest center t (norms
    identity GEMM); and it adds the block's rows to the member sums that
    give centers t + 1.  An empty cluster is reseeded on the point
    farthest from its center, each on a point of its own, and the sums
    are then rebuilt in one more pass.  The last assignment's objective
    takes one objective-only pass.  Returns (assignments, centers,
    objective, n_iter, objective_trace).
    """
    n, dim = points.shape
    k = centers.shape[0]
    blocks = [slice(lo, lo + BLOCK_ROWS) for lo in range(0, n, BLOCK_ROWS)]
    assign = np.zeros(n, dtype=np.int64)
    cost = np.empty(n)
    sums = np.empty((k, dim))
    gap = np.empty((min(n, BLOCK_ROWS), dim))
    member = np.empty(min(n, BLOCK_ROWS))

    def add_sums(block, labels):
        # one GEMV per cluster over its 0/1 membership row, always through the
        # same buffer: a cluster's sum is rounded alike whatever its label, so
        # restarts that reach one partition under other labels tie exactly
        row = member[: len(block)]
        for cid in range(k):
            np.equal(labels, cid, out=row)
            sums[cid] += row @ block

    def sweep(centers, objective, reassign):
        cnorms = (centers * centers).sum(axis=1)
        obj = 0.0
        sums[:] = 0.0
        for rows in blocks:
            block, labels = points[rows], assign[rows]
            if objective:
                diff = gap[: len(block)]
                # labels are in range; the default mode="raise" buffers ``out``
                np.take(centers, labels, axis=0, out=diff, mode="clip")
                flat = np.subtract(block, diff, out=diff).ravel()
                obj += float(flat @ flat)
            if reassign:
                cross = block @ centers.T
                cross *= 2.0
                d2 = np.maximum(norms[rows, None] + cnorms[None, :] - cross, 0.0)
                d2.argmin(axis=1, out=labels)
                d2.min(axis=1, out=cost[rows])
                add_sums(block, labels)
        return obj

    prev_obj = np.inf
    trace: list[float] = []
    sweep(centers, objective=False, reassign=True)
    for it in range(max_iters):
        counts = np.bincount(assign, minlength=k)
        empty = np.flatnonzero(counts == 0)
        # re-seed empty clusters on the point farthest from its center; a moved
        # point drops out of the running, so each empty cluster gets its own
        for cid in empty:
            far = int(cost.argmax())
            centers[cid] = points[far]
            assign[far] = cid
            cost[far] = -np.inf
        if empty.size:
            counts = np.bincount(assign, minlength=k)
            sums[:] = 0.0
            for rows in blocks:
                add_sums(points[rows], assign[rows])
        new_centers = sums / counts[:, None]
        shift = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
        last = shift < tol or it == max_iters - 1
        obj = sweep(centers, objective=True, reassign=not last)
        if not obj <= prev_obj * (1.0 + 1e-12) + 1e-12:
            raise RuntimeError(f"k-means objective increased: {prev_obj} -> {obj}")
        trace.append(obj)
        prev_obj = obj
        if last:
            break
    return assign, centers, prev_obj, len(trace), trace


def kmeans(points: np.ndarray, k: int, seed: int = 0, restarts: int = 10) -> ClusteringResult:
    """Lloyd's algorithm with k-means++ seeding and ``restarts`` independent runs.

    Deterministic for a given (points, k, seed, restarts); the restart
    with the lowest objective wins, first winner on ties.  The points'
    squared norms are made once per call, one row block at a time; each
    k-means++ pick is one GEMV against the points, and each Lloyd iteration
    one sweep over the points in L2-sized row blocks (``_lloyd``).  No
    point-sized array is made besides the assignments and costs.  The
    reported objective is summed from explicit differences, and the
    centers from member sums that do not depend on the cluster labels, so
    two restarts that reach one partition tie exactly.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError(f"kmeans: expected a non-empty (N, D) matrix, got {points.shape}")
    n = points.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"kmeans: k must be in [1, {n}], got {k}")
    if restarts < 1:
        raise ValueError(f"kmeans: restarts must be >= 1, got {restarts}")
    norms = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, BLOCK_ROWS):
            block = points[lo:lo + BLOCK_ROWS]
            norms[lo:lo + BLOCK_ROWS] = (block * block).sum(axis=1)
    bad = ~np.isfinite(norms)
    if bad.any():
        raise ValueError(f"kmeans: row {int(bad.argmax())} has a non-finite squared norm")
    # a squared distance to a point or a center in the points' hull is at most
    # 4 max|x|^2, and the seeding and objective sums add N of them
    top = float(norms.max())
    if not np.isfinite(4.0 * top * n):
        raise ValueError(f"kmeans: distance scale 4 * max squared norm ({top:.3g}) * N ({n}) "
                         f"overflows float64")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        init = _plusplus_init(points, norms, k, rng)
        assign, centers, obj, n_iter, trace = _lloyd(points, norms, init, MAX_ITERS, TOL)
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


def _hungarian(profit: np.ndarray) -> np.ndarray:
    """Column matched to each row of a square table, maximizing the matched sum.

    Kuhn's method with row and column potentials: each row joins the
    matching along a shortest augmenting path over reduced costs, O(k^3).
    Index 0 of the work arrays is a virtual column that starts each path.
    """
    k = profit.shape[0]
    cost = np.zeros((k + 1, k + 1))
    cost[1:, 1:] = -profit
    u = np.zeros(k + 1)                        # row potentials
    v = np.zeros(k + 1)                        # column potentials
    owner = np.zeros(k + 1, dtype=np.int64)    # row matched to each column; 0 = free
    way = np.zeros(k + 1, dtype=np.int64)      # previous column on the shortest path
    for row in range(1, k + 1):
        owner[0] = row
        col = 0
        slack = np.full(k + 1, np.inf)
        used = np.zeros(k + 1, dtype=bool)
        while owner[col]:
            used[col] = True
            i = owner[col]
            reduced = cost[i] - u[i] - v
            better = ~used & (reduced < slack)
            slack[better] = reduced[better]
            way[better] = col
            col = int(np.where(used, np.inf, slack).argmin())
            delta = slack[col]
            u[owner[used]] += delta
            v[used] -= delta
            slack[~used] -= delta
        while col:                             # flip the path back to the virtual column
            owner[col] = owner[way[col]]
            col = way[col]
    match = np.empty(k, dtype=np.int64)
    match[owner[1:] - 1] = np.arange(k)
    return match


def accuracy(pred, truth) -> float:
    """Clustering accuracy: best matched fraction over cluster/class bijections."""
    pred, truth = _check_labels(pred, truth)
    table = _contingency(pred, truth)
    side = max(table.shape)
    padded = np.zeros((side, side), dtype=np.int64)
    padded[: table.shape[0], : table.shape[1]] = table
    matched = padded[np.arange(side), _hungarian(padded)]
    return float(matched.sum()) / pred.shape[0]


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

"""Independent oracles and the finite-difference gradient checker.

Everything here is deliberately written the slow, obvious way (python
loops, enumeration) so the fast library paths are checked against a
different derivation, not against themselves.
"""

import hashlib
import itertools
import json
import math
import struct

import numpy as np

from tmcn import tensor as T
from tmcn.clustering import ClusteringResult
from tmcn.tensor import Tape, Tensor, parameter


# ---------------------------------------------------------------------------
# finite-difference gradient checking

def numeric_grads(scalar_fn, tensors, h=1e-6):
    """Central finite differences of scalar_fn() wrt each tensor's elements.

    scalar_fn must recompute the forward pass from the tensors' current
    ``data`` on every call.
    """
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = scalar_fn()
            flat[i] = orig - h
            down = scalar_fn()
            flat[i] = orig
            gf[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def grad_rel_error(analytic, numeric):
    """max over elements of |analytic - numeric| / max(1, |analytic|)."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        err = np.abs(a - n) / np.maximum(1.0, np.abs(a))
        worst = max(worst, float(err.max()) if err.size else 0.0)
    return worst


def check_grads(build_fn, leaves, rtol=1e-5, h=1e-6, seed=0):
    """Compare taped gradients of a scalar-projected output against central FD.

    ``build_fn()`` runs the forward pass and returns a Tensor (any
    shape); a fixed random projection turns it into a scalar so the full
    Jacobian action is exercised.  Returns the worst relative error.
    """
    probe = np.random.default_rng(seed).normal(size=build_fn().shape)

    def scalar():
        return float((build_fn().data * probe).sum())

    for t in leaves:
        t.grad = None
    with Tape() as tape:
        out = build_fn()
        loss = (out * Tensor(probe)).sum()
        tape.backward(loss)
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in leaves]
    numeric = numeric_grads(scalar, leaves, h=h)
    err = grad_rel_error(analytic, numeric)
    assert err < rtol, f"gradient mismatch: rel err {err:.3e} >= {rtol:.0e}"
    return err


OP_KINDS = (
    "add", "relu", "concat", "conv1d-depthwise", "cosine-similarity-matrix",
    "elementwise-mul", "exp", "matmul", "recompute-rows", "reshape", "scalar-mul",
    "silu", "softplus", "square", "state-scan", "sub", "sum",
    # the kinds added last, so the kinds before them draw the same cases from a shared rng
    "ascl-term", "recompute",
)


def op_grad_case(kind, rng):
    """Random leaves for one op kind of ``OP_KINDS``, inputs kept off kinks.

    Returns (leaves, build_fn); build_fn recomputes the op from the
    leaves' current data.
    """
    normal = lambda *shape: parameter(rng.normal(size=shape))
    if kind == "matmul":
        # a batched (..., K) left operand, a bias and a fused relu, each half the
        # time; relu pre-activations stay clear of 0 by far more than the FD step
        shape = (3, 4) if rng.integers(2) else (2, 3, 4)
        n_leaves = 2 + int(rng.integers(2))
        relu = bool(rng.integers(2))
        while True:
            leaves = [normal(*shape), normal(4, 2), normal(2)][:n_leaves]
            pre = T.matmul(*leaves).data
            if not relu or np.abs(pre).min() > 0.1:
                return leaves, lambda: T.matmul(*leaves, relu=relu)
    if kind in ("add", "sub", "elementwise-mul"):
        # one broadcast operand so the unbroadcast path is on the hook too
        leaves = [normal(3, 4), normal(4)]
        fn = {"add": T.add, "sub": T.sub, "elementwise-mul": T.mul}[kind]
        return leaves, lambda: fn(*leaves)
    if kind == "scalar-mul":
        leaves, c = [normal(3, 4)], float(rng.normal())
        return leaves, lambda: T.scalar_mul(leaves[0], c)
    if kind == "reshape":
        leaves = [normal(2, 6)]
        return leaves, lambda: T.reshape(leaves[0], (3, 4))
    if kind == "concat":
        leaves = [normal(2, 3), normal(2, 2), normal(2, 4)]
        return leaves, lambda: T.concat(leaves, axis=1)
    if kind == "sum":
        axis = [None, 0, 1][int(rng.integers(3))]
        leaves, keepdims = [normal(3, 4)], bool(rng.integers(2))
        return leaves, lambda: T.tensor_sum(leaves[0], axis, keepdims)
    if kind == "exp":
        leaves = [parameter(rng.uniform(-2.0, 2.0, size=(3, 4)))]
        return leaves, lambda: T.exp(leaves[0])
    if kind in ("softplus", "silu", "square"):
        leaves = [parameter(rng.normal(scale=2.0, size=(3, 4)))]
        fn = {"softplus": T.softplus, "silu": T.silu, "square": T.square}[kind]
        return leaves, lambda: fn(leaves[0])
    if kind == "relu":
        # the fused relu alone: an identity weight leaves its input as the
        # pre-activation, kept off the kink at 0
        signs = rng.choice([-1.0, 1.0], size=(3, 4))
        leaves = [parameter(rng.uniform(0.2, 1.5, size=(3, 4)) * signs)]
        return leaves, lambda: T.matmul(leaves[0], np.eye(4), relu=True)
    if kind == "cosine-similarity-matrix":
        leaves = [normal(4, 5), normal(3, 5)]
        return leaves, lambda: T.cosine_similarity_matrix(*leaves)
    if kind == "conv1d-depthwise":
        k = [2, 4, 7][int(rng.integers(3))]  # 7 > L exercises the short-input path
        leaves = [normal(2, 5, 3), normal(3, k)]
        return leaves, lambda: T.conv1d_depthwise(*leaves)
    if kind == "state-scan":
        # delta positive and decay rates negative, the recurrence's domain
        length = [1, 3, 6][int(rng.integers(3))]
        leaves = [normal(2, length, 3),
                  parameter(rng.uniform(0.05, 0.8, size=(2, length, 3))),
                  normal(2, length, 2), normal(2, length, 2),
                  parameter(rng.uniform(-2.0, -0.2, size=(3, 2))),
                  normal(3)]
        return leaves, lambda: T.state_scan(*leaves)
    if kind == "recompute-rows":
        # a ragged second chunk half the time; the function reads its input twice
        n = [3, T.CHUNK_ROWS + 2][int(rng.integers(2))]
        leaves = [normal(n, 3), normal(3, 3), normal(3)]

        def rows_fn(v):
            return T.mul(T.silu(T.matmul(v, leaves[1], leaves[2])), v)

        return leaves, lambda: T.recompute_rows(rows_fn, leaves[0], leaves[1:])
    if kind == "recompute":
        # three inputs, the first read twice
        leaves = [normal(3, 4), normal(2, 4), normal(4, 4)]

        def term_fn(a, b, w):
            cos = T.cosine_similarity_matrix(T.matmul(a, w), b)
            return T.mul(cos, T.tensor_sum(a, axis=1, keepdims=True)), None

        return leaves, lambda: T.recompute(term_fn, leaves)[0]
    if kind == "ascl-term":
        # either denominator mode; a literal row is floored or not by a margin
        # no FD step crosses
        n, tau = 4, 0.5
        s = rng.uniform(-1.0, 1.0, size=(n, n))
        s = (s + s.T) / 2.0
        np.fill_diagonal(s, 1.0)
        weights = (1.0 - s) / tau
        mode = ["self-excluded", "literal"][int(rng.integers(2))]
        cos = rng.uniform(-1.0, 1.0, size=(n, n))
        while np.abs(np.exp(cos * weights).sum(axis=1) - np.exp(1.0 / tau)).min() < 0.1:
            cos = rng.uniform(-1.0, 1.0, size=(n, n))
        leaves = [parameter(cos)]
        return leaves, lambda: T.ascl_term(leaves[0], weights, tau, mode, 1e-8)[0]
    raise ValueError(f"no gradient case for op kind {kind!r}")


# ---------------------------------------------------------------------------
# scalar oracles

def conv_causal_reference(x, w):
    """Per-channel causal convolution, triple loop."""
    n, c, length = x.shape
    k = w.shape[1]
    out = np.zeros_like(x)
    for i in range(n):
        for ch in range(c):
            for t in range(length):
                acc = 0.0
                for j in range(k):
                    if t - j >= 0:
                        acc += w[ch, j] * x[i, ch, t - j]
                out[i, ch, t] = acc
    return out


def scan_reference(x, a_log, b_proj, c_proj, delta_proj, delta_bias, skip):
    """Scalar unrolled state-space recurrence, one loop level per index."""
    n, length, dp = x.shape
    state = a_log.shape[1]
    out = np.zeros_like(x)
    for i in range(n):
        h = np.zeros((dp, state))
        for t in range(length):
            token = x[i, t]
            pre = delta_proj.T @ token + delta_bias
            delta = np.log1p(np.exp(-np.abs(pre))) + np.maximum(pre, 0.0)  # softplus
            b_t = b_proj.T @ token
            c_t = c_proj.T @ token
            for ch in range(dp):
                y = 0.0
                for s in range(state):
                    a = -math.exp(a_log[ch, s])
                    decay = math.exp(delta[ch] * a)
                    h[ch, s] = decay * h[ch, s] + delta[ch] * b_t[s] * token[ch]
                    y += c_t[s] * h[ch, s]
                out[i, t, ch] = y + skip[ch] * token[ch]
    return out


def cosine_matrix_reference(a, b, eps=1e-12):
    """Pairwise cosines by explicit double loop."""
    out = np.zeros((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            na = math.sqrt(float((a[i] * a[i]).sum())) + eps
            nb = math.sqrt(float((b[j] * b[j]).sum())) + eps
            out[i, j] = float((a[i] * b[j]).sum()) / (na * nb)
    return out


def contrastive_reference(cos_mats, similarity, tau, mode, floor):
    """Term-by-term contrastive loss from precomputed cosine matrices.

    Returns (loss, clamp count).  ``cos_mats[m][i][j]`` is the cosine of
    fused anchor i against view-m projection j.
    """
    n = similarity.shape[0]
    total = 0.0
    clamped = 0
    for cos in cos_mats:
        for i in range(n):
            num = math.exp(cos[i][i] / tau)
            if mode == "literal":
                den = sum(math.exp((1.0 - similarity[i][j]) * cos[i][j] / tau)
                          for j in range(n)) - math.exp(1.0 / tau)
                if den < floor:
                    den = floor
                    clamped += 1
            else:
                den = sum(math.exp((1.0 - similarity[i][j]) * cos[i][j] / tau)
                          for j in range(n) if j != i)
            total += math.log(num / den)
    return -total / (2.0 * n), clamped


def guarded_log(a):
    """Taped ``log(max(a, EPS))``, the guard ``ascl_term`` puts on its denominators."""
    safe = np.maximum(a.data, T.EPS)

    def backward(g):
        T._accum(a, g / safe)

    return T._make(np.log(safe), (a,), backward)


def floored_max(a, floor):
    """Taped ``max(a, floor)``; no gradient reaches a floored element."""
    def backward(g):
        T._accum(a, g * (a.data > floor))

    return T._make(np.maximum(a.data, floor), (a,), backward)


def composed_contrastive_loss(h_fused, h_views, similarity, tau, mode, floor):
    """The contrastive loss as a chain of taped ops, one node per op.

    ``tensor.ascl_term`` runs each view's chain as one node, with the same
    bits forward and backward.
    """
    n = h_fused.shape[0]
    weights = Tensor((1.0 - similarity) / tau)
    eye, off_diag = Tensor(np.eye(n)), Tensor(1.0 - np.eye(n))
    total = None
    for h_view in h_views:
        cos = T.cosine_similarity_matrix(h_fused, h_view)
        pos = T.mul(T.mul(cos, eye).sum(axis=1), Tensor(np.full(n, 1.0 / tau)))
        weighted = T.exp(T.mul(cos, weights))
        if mode == "self-excluded":
            den = T.mul(weighted, off_diag).sum(axis=1)
        else:
            den = floored_max(T.sub(weighted.sum(axis=1), Tensor(np.exp(1.0 / tau))), floor)
        term = T.sub(pos, guarded_log(den)).sum()
        total = term if total is None else T.add(total, term)
    return total * (-1.0 / (2.0 * n))


def accuracy_bruteforce(pred, truth):
    """Best matched fraction over every cluster/class bijection."""
    ids = sorted(set(int(v) for v in pred) | set(int(v) for v in truth))
    best = 0
    for perm in itertools.permutations(ids):
        relabel = dict(zip(ids, perm))
        best = max(best, sum(1 for p, t in zip(pred, truth) if relabel[int(p)] == int(t)))
    return best / len(pred)


def nmi_reference(pred, truth):
    """sqrt-normalized mutual information from explicit contingency counts."""
    n = len(pred)
    pred_ids = sorted(set(int(v) for v in pred))
    truth_ids = sorted(set(int(v) for v in truth))
    counts = {(t, p): 0 for t in truth_ids for p in pred_ids}
    for p, t in zip(pred, truth):
        counts[(int(t), int(p))] += 1
    pt = {t: sum(counts[(t, p)] for p in pred_ids) / n for t in truth_ids}
    pp = {p: sum(counts[(t, p)] for t in truth_ids) / n for p in pred_ids}
    h_t = -sum(v * math.log(v) for v in pt.values() if v > 0)
    h_p = -sum(v * math.log(v) for v in pp.values() if v > 0)
    if h_t == 0.0 or h_p == 0.0:
        return 0.0
    mi = 0.0
    for t in truth_ids:
        for p in pred_ids:
            joint = counts[(t, p)] / n
            if joint > 0:
                mi += joint * math.log(joint / (pt[t] * pp[p]))
    return max(mi, 0.0) / math.sqrt(h_t * h_p)


def purity_reference(pred, truth):
    """Average best-class overlap via explicit per-cluster counting."""
    n = len(pred)
    total = 0
    for cluster in set(int(v) for v in pred):
        members = [int(t) for p, t in zip(pred, truth) if int(p) == cluster]
        counts = {}
        for t in members:
            counts[t] = counts.get(t, 0) + 1
        total += max(counts.values())
    return total / n


def best_two_partition_centers(points):
    """Brute-force optimal 2-means on a 1-D point set: try every split."""
    pts = sorted(float(p) for p in points)
    best = None
    for cut in range(1, len(pts)):
        left, right = pts[:cut], pts[cut:]
        ml = sum(left) / len(left)
        mr = sum(right) / len(right)
        cost = sum((p - ml) ** 2 for p in left) + sum((p - mr) ** 2 for p in right)
        if best is None or cost < best[0]:
            best = (cost, (ml, mr))
    return best[1]


# ---------------------------------------------------------------------------
# k-means as it was before its buffers were hoisted: a fresh (N, D)
# temporary per distance, objective and seeding step.  Only the function
# names differ from that version.  The library sweeps the points in row
# blocks, seeds from the norms identity and sums centers and objective
# block by block, so its floats match these to about an ulp and its
# assignments and iteration counts exactly.

def _ref_pairwise_sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    d2 = (
        (points * points).sum(axis=1)[:, None]
        + (centers * centers).sum(axis=1)[None, :]
        - 2.0 * points @ centers.T
    )
    return np.maximum(d2, 0.0)


def _ref_plusplus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding; falls back to uniform choice when all distances vanish."""
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        chosen.append(idx)
        d2 = np.minimum(d2, ((points - points[idx]) ** 2).sum(axis=1))
    return points[chosen].copy()


def _ref_lloyd(points: np.ndarray, centers: np.ndarray, max_iters: int, tol: float):
    n = points.shape[0]
    k = centers.shape[0]
    prev_obj = np.inf
    trace: list[float] = []
    assign = np.zeros(n, dtype=np.int64)
    for it in range(max_iters):
        d2 = _ref_pairwise_sq_dists(points, centers)
        assign = d2.argmin(axis=1)
        # re-seed empty clusters on the point farthest from its center
        counts = np.bincount(assign, minlength=k)
        point_cost = d2[np.arange(n), assign]
        for cid in np.flatnonzero(counts == 0):
            far = int(point_cost.argmax())
            centers[cid] = points[far]
            assign[far] = cid
            point_cost[far] = 0.0
        new_centers = np.empty_like(centers)
        for cid in range(k):
            members = points[assign == cid]
            new_centers[cid] = members.mean(axis=0)
        obj = float(((points - new_centers[assign]) ** 2).sum())
        if not obj <= prev_obj * (1.0 + 1e-12) + 1e-12:
            raise RuntimeError(f"k-means objective increased: {prev_obj} -> {obj}")
        trace.append(obj)
        shift = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
        prev_obj = obj
        if shift < tol:
            break
    return assign, centers, prev_obj, len(trace), trace


def kmeans_reference(points: np.ndarray, k: int, seed: int = 0, restarts: int = 10,
                     max_iters: int = 300, tol: float = 1e-9) -> ClusteringResult:
    """Lloyd's algorithm with k-means++ seeding and ``restarts`` independent runs.

    Deterministic for a given (points, k, seed, restarts); the restart
    with the lowest objective wins, first winner on ties.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError(f"kmeans: expected a non-empty (N, D) matrix, got {points.shape}")
    n = points.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"kmeans: k must be in [1, {n}], got {k}")
    if restarts < 1:
        raise ValueError(f"kmeans: restarts must be >= 1, got {restarts}")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        init = _ref_plusplus_init(points, k, rng)
        assign, centers, obj, n_iter, trace = _ref_lloyd(points, init, max_iters, tol)
        if best is None or obj < best.objective:
            best = ClusteringResult(assignments=assign, centers=centers, objective=obj,
                                    n_iter=n_iter, objective_trace=trace)
    return best


# ---------------------------------------------------------------------------
# checkpoint surgery

DROP = object()  # set_checkpoint_field value that removes the field


def write_sealed(path, body):
    """Write ``body`` and the SHA-256 trailer that makes it a well-formed checkpoint."""
    path.write_bytes(body + hashlib.sha256(body).digest())


def set_checkpoint_field(path, name, value):
    """Rewrite one field of a checkpoint's JSON header, the header's length and the digest.

    ``value`` is written with ``json.dumps``, so NaN becomes ``NaN``;
    ``DROP`` removes the field.  The digest is resealed, so the loader's
    field checks, not the digest check, see the change.
    """
    raw = path.read_bytes()
    (size,) = struct.unpack_from("<I", raw, 8)
    header = json.loads(raw[12:12 + size])
    if value is DROP:
        del header[name]
    else:
        header[name] = value
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    write_sealed(path, raw[:8] + struct.pack("<I", len(encoded)) + encoded + raw[12 + size:-32])

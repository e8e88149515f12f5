"""Dense float64 tensors with taped reverse-mode differentiation.

Everything downstream (the encoders, the fusion block, the contrastive
and reconstruction losses) is built from the operations in this module.
Values are numpy arrays; while a :class:`Tape` is active each operation
records a backward closure, and ``Tape.backward`` replays the records
once in reverse execution order to accumulate gradients.
Tapes are single use and support first-order gradients only.

Domain guards follow one convention: ``ascl_term`` clamps its row
denominators at ``EPS`` and cosine denominators use ``norm + EPS``, so a
degenerate embedding never turns into a NaN mid-training.
"""

from __future__ import annotations

import logging

import numpy as np

EPS = 1e-12

logger = logging.getLogger(__name__)


class ShapeError(ValueError):
    """Operand shapes do not conform to the requested operation."""


class Tensor:
    """Dense float64 array, optionally tracked for gradients.

    Tensors are value-like: operations never mutate their inputs.  The
    trainer rebinding ``data`` between optimization steps is the only
    sanctioned mutation.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scalar_mul(self, float(other))
        return mul(self, other)

    # -- method forms of ops --------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)


def parameter(data) -> Tensor:
    """Leaf tensor that accumulates gradients."""
    return Tensor(data, requires_grad=True)


# ---------------------------------------------------------------------------
# tape

_TAPES: list["Tape | None"] = []   # None: ops record nothing


def active_tape():
    return _TAPES[-1] if _TAPES else None


class Tape:
    """Execution-ordered record of differentiable operations.

    Records append in forward order, so the list is already topologically
    sorted (every node's inputs precede it); ``backward`` sweeps it once
    in reverse.  A tape can run backward exactly once.
    """

    def __init__(self):
        self._records = []          # (out, backward_fn)
        self._spent = False

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        _TAPES.pop()
        return False

    def record(self, out: Tensor, inputs, backward_fn) -> None:
        """Append ``out`` and its backward closure; ``inputs`` is not kept."""
        self._records.append((out, backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) on the ``.grad`` slot of every leaf reached."""
        if self._spent:
            raise RuntimeError("tape already consumed; build a new tape per forward pass")
        self._spent = True
        if loss.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
        self._sweep(loss, np.ones_like(loss.data))

    def _sweep(self, out: Tensor, grad: np.ndarray) -> None:
        """Seed ``out`` with ``grad`` and run every record once, newest first.

        A record is dropped, with its output ``Tensor`` unless the caller
        holds it, before its closure runs on the gradient alone; the arrays
        the closure saved go once it has run, before the ops upstream
        allocate their gradients.
        """
        out.grad = grad
        records, self._records = self._records, []
        while records:
            out, fn = records.pop()
            grad, out = out.grad, None
            if grad is not None:
                fn(grad)


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _make(data: np.ndarray, inputs, backward_fn) -> Tensor:
    out = Tensor(data)
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(out, inputs, backward_fn)
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# binary ops

def matmul(a, b, bias=None, relu: bool = False) -> Tensor:
    """``a`` (..., K) times ``b`` (K, M), one GEMM over the rows of ``a``, plus ``bias`` (M,).

    The bias is added, and with ``relu`` max(., 0) taken, in place on the
    GEMM output, so a dense layer keeps one output-sized array on the
    tape, not the product, the sum and the activation.  The relu backward
    masks on ``out > 0``, which is the pre-activation's sign for every
    float, NaN and -0.0 included.  The forward and all gradients are
    bitwise those of ``add(matmul(a, b), bias)`` followed by a separate
    max(., 0) node: the bias gradient is the same ``_unbroadcast``
    reduction ``add`` runs.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 1 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    rows = a.data.reshape(-1, b.shape[0])
    data = rows @ b.data
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != b.shape[1:]:
            raise ShapeError(f"matmul: bias shape {bias.shape}, expected {b.shape[1:]}")
        data += bias.data
    if relu:
        np.maximum(data, 0.0, out=data)
    data = data.reshape(a.shape[:-1] + b.shape[1:])

    def backward(g):
        if relu:
            g = g * (data > 0.0)
        if bias is not None and bias.requires_grad:
            _accum(bias, _unbroadcast(g, bias.shape))
        g = g.reshape(-1, b.shape[1])
        if a.requires_grad:
            _accum(a, (g @ b.data.T).reshape(a.shape))
        if b.requires_grad:
            _accum(b, rows.T @ g)

    return _make(data, (a, b) if bias is None else (a, b, bias), backward)


def _broadcast_binary(name, a, b, fwd, da, db) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = fwd(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{name}: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward(g):
        for t, dt in ((a, da), (b, db)):
            if t.requires_grad:
                _accum(t, _unbroadcast(dt(g, a.data, b.data), t.shape))

    return _make(data, (a, b), backward)


def add(a, b) -> Tensor:
    return _broadcast_binary("add", a, b, np.add,
                             lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _broadcast_binary("sub", a, b, np.subtract,
                             lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _broadcast_binary("elementwise-mul", a, b, np.multiply,
                             lambda g, x, y: g * y, lambda g, x, y: g * x)


def scalar_mul(a, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    data = a.data * c

    def backward(g):
        _accum(a, g * c)

    return _make(data, (a,), backward)


# ---------------------------------------------------------------------------
# structural ops

def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(int(s) for s in shape)
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view shape {a.shape} as {shape}") from None
    old = a.shape

    def backward(g):
        _accum(a, g.reshape(old))

    return _make(data, (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat: need at least one tensor")
    nd = tensors[0].ndim
    ax = axis if axis >= 0 else axis + nd
    for t in tensors[1:]:
        if t.ndim != nd or any(i != ax and t.shape[i] != tensors[0].shape[i] for i in range(nd)):
            raise ShapeError(
                f"concat: shape {t.shape} does not align with {tensors[0].shape} off axis {ax}")
    data = np.concatenate([t.data for t in tensors], axis=ax)
    sizes = [t.shape[ax] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * nd
            idx[ax] = slice(int(start), int(stop))
            _accum(t, g[tuple(idx)])

    return _make(data, tuple(tensors), backward)


# ---------------------------------------------------------------------------
# reductions

def _norm_axis(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax if ax >= 0 else ax + ndim for ax in axis)


def _spread(g, shape, axis, keepdims):
    """Broadcast a reduced gradient back over the reduced axes."""
    if axis is None:
        return np.broadcast_to(g, shape)
    if not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    ax = _norm_axis(axis, a.ndim)
    data = a.data.sum(axis=ax, keepdims=keepdims)
    shape = a.shape

    def backward(g):
        _accum(a, _spread(g, shape, ax, keepdims))

    return _make(data, (a,), backward)


# ---------------------------------------------------------------------------
# pointwise ops

def _expit(x) -> np.ndarray:
    """Logistic sigmoid ``1 / (1 + exp(-x))`` in a new array; ``x`` is not written.

    Computed in place on one copy.  Where ``exp(-x)`` overflows the result
    is exactly 0, and at -inf and +inf exactly 0 and 1; NaN stays NaN.
    """
    out = np.array(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        np.negative(out, out=out)
        np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out


def exp(a) -> Tensor:
    a = _as_tensor(a)
    data = np.exp(a.data)

    def backward(g):
        _accum(a, g * data)

    return _make(data, (a,), backward)


def softplus(a) -> Tensor:
    a = _as_tensor(a)
    data = np.logaddexp(0.0, a.data)

    def backward(g):
        _accum(a, g * _expit(a.data))

    return _make(data, (a,), backward)


def silu(a) -> Tensor:
    """``a * sigmoid(a)``.  The backward recomputes the sigmoid from ``a``
    rather than keeping it, so the tape holds only the output; the same ops
    on the same data give the same bits."""
    a = _as_tensor(a)
    data = a.data * _expit(a.data)

    def backward(g):
        s = _expit(a.data)
        _accum(a, g * (s * (1.0 + a.data * (1.0 - s))))

    return _make(data, (a,), backward)


def square(a) -> Tensor:
    a = _as_tensor(a)
    data = a.data * a.data

    def backward(g):
        _accum(a, g * (2.0 * a.data))

    return _make(data, (a,), backward)


# ---------------------------------------------------------------------------
# similarity ops

def cosine_similarity_matrix(a, b) -> Tensor:
    """Pairwise row cosines: out[i, j] = cos(a_i, b_j).

    Row norms are guarded with ``+ EPS``; zero rows therefore yield zero
    similarities and are flagged in the log rather than raising.  The node
    keeps the norms; the backward rebuilds the normalised rows bit for bit.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(
            f"cosine-similarity-matrix: incompatible shapes {a.shape} and {b.shape}")
    raw_na = np.linalg.norm(a.data, axis=1)
    raw_nb = np.linalg.norm(b.data, axis=1)
    zeros = int((raw_na == 0.0).sum() + (raw_nb == 0.0).sum())
    if zeros:
        logger.warning("cosine similarity: %d zero-norm rows epsilon-guarded", zeros)
    na = raw_na + EPS
    nb = raw_nb + EPS
    data = (a.data / na[:, None]) @ (b.data / nb[:, None]).T

    def backward(g):
        ah = a.data / na[:, None]
        bh = b.data / nb[:, None]
        gd = g * data
        row, col = gd.sum(axis=1), gd.sum(axis=0)
        del gd
        _accum(a, (g @ bh - row[:, None] * ah) / na[:, None])
        _accum(b, (g.T @ ah - col[:, None] * bh) / nb[:, None])

    return _make(data, (a, b), backward)


def ascl_term(cos, weights: np.ndarray, tau: float, mode: str,
              floor: float) -> tuple[Tensor, int]:
    """One view's AsCL term: the sum over anchors i of pos_i - log den_i.

    ``cos`` is the (N, N) fused/view cosine matrix and ``weights`` the
    constant W = (1 - S) / tau.  pos_i = cos_ii / tau; den_i sums
    exp(cos_ij * W_ij) over j != i (``self-excluded``), or over all j less
    exp(1/tau) and floored at ``floor`` (``literal``), and is clamped at
    ``EPS``: a row whose negatives all underflow reads pos_i - log(EPS).
    Taped, the node keeps exp(cos * W) and the row denominators; the
    contrastive loss builds it inside ``recompute``, so that tape lives
    only while one view's term is rerun in the backward.  Its bits are
    those of the composed reference in ``tests/helpers.py``.  Returns the
    scalar term and the number of floored rows.
    """
    cos = _as_tensor(cos)
    c = cos.data
    pos = np.diagonal(c) * (1.0 / tau)
    weighted = np.exp(c * weights)
    if mode == "self-excluded":
        np.fill_diagonal(weighted, 0.0)     # j != i; with W_ii = 0 no gradient needs it
        den = weighted.sum(axis=1)
        live = None
        clamped = 0
    else:
        raw = weighted.sum(axis=1) - np.exp(1.0 / tau)
        live = raw > floor                  # a floored row passes no gradient
        clamped = int((raw < floor).sum())
        den = np.maximum(raw, floor)
    safe = np.maximum(den, EPS)
    data = (pos - np.log(safe)).sum()

    def backward(g):
        g_den = -g / safe
        if live is not None:
            g_den = g_den * live
        g_cos = g_den[:, None] * weighted
        g_cos *= weights
        g_cos[np.diag_indices_from(g_cos)] += g * (1.0 / tau)
        _accum(cos, g_cos)

    return _make(data, (cos,), backward), clamped


# ---------------------------------------------------------------------------
# depthwise causal convolution

def conv1d_depthwise(x, kernel) -> Tensor:
    """Per-channel causal convolution along the token axis.

    ``x`` is token-major (N, L, C), ``kernel`` is (C, k); tap j multiplies
    the input j tokens in the past, so kernel [1, 0, ...] is the identity
    and no output token sees the future.
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if x.ndim != 3 or kernel.ndim != 2 or kernel.shape[0] != x.shape[2]:
        raise ShapeError(
            f"conv1d-depthwise: expected x (N, L, C) with kernel (C, k), "
            f"got {x.shape} and {kernel.shape}")
    k = kernel.shape[1]
    length = x.shape[1]
    w = kernel.data
    data = np.zeros_like(x.data)
    for j in range(min(k, length)):
        data[:, j:] += w[:, j] * x.data[:, :length - j]

    def backward(g):
        gx = np.zeros_like(x.data)
        gw = np.zeros_like(w)
        for j in range(min(k, length)):
            gx[:, :length - j] += w[:, j] * g[:, j:]
            gw[:, j] = np.einsum("nlc,nlc->c", g[:, j:], x.data[:, :length - j])
        _accum(x, gx)
        _accum(kernel, gw)

    return _make(data, (x, kernel), backward)


def state_scan(x, delta, b_seq, c_seq, a, skip) -> Tensor:
    """Input-dependent linear state recurrence along the token axis.

    ``x`` and ``delta`` are (N, L, C); ``b_seq`` and ``c_seq`` are
    (N, L, S); ``a`` is (C, S) per-channel decay rates (negative keeps
    the recurrence contractive); ``skip`` is (C,).  Per step each
    channel's state decays by exp(delta*a), absorbs delta*b*x, and the
    output token is <c, h> plus skip*x.

    The kernel holds the state as (N, S, C), channels innermost, and
    contracts it with batched ``matmul``.  Untaped, it keeps one state
    slab.  Taped, it keeps every step's state, L + 1 slabs of N*S*C
    floats, and its backward is one reverse sweep over them that
    recomputes each step's decay; the fusion block bounds N by
    ``CHUNK_ROWS`` (``recompute_rows``).

    Raises on a non-finite state, naming the earliest offending step
    over all N rows.
    """
    x, delta = _as_tensor(x), _as_tensor(delta)
    b_seq, c_seq = _as_tensor(b_seq), _as_tensor(c_seq)
    a, skip = _as_tensor(a), _as_tensor(skip)
    if x.ndim != 3:
        raise ShapeError(f"state-scan: expected x (N, L, C), got {x.shape}")
    n, length, channels = x.shape
    if delta.shape != x.shape:
        raise ShapeError(f"state-scan: delta shape {delta.shape} does not match x {x.shape}")
    if b_seq.ndim != 3 or b_seq.shape[:2] != (n, length):
        raise ShapeError(f"state-scan: b shape {b_seq.shape} does not match x {x.shape}")
    state = b_seq.shape[2]
    if c_seq.shape != b_seq.shape:
        raise ShapeError(f"state-scan: c shape {c_seq.shape} does not match b {b_seq.shape}")
    if a.shape != (channels, state):
        raise ShapeError(f"state-scan: a shape {a.shape}, expected {(channels, state)}")
    if skip.shape != (channels,):
        raise ShapeError(f"state-scan: skip shape {skip.shape}, expected {(channels,)}")

    xv, dv, bv, cv, av, sv = x.data, delta.data, b_seq.data, c_seq.data, a.data, skip.data
    inputs = (x, delta, b_seq, c_seq, a, skip)
    track = active_tape() is not None and any(t.requires_grad for t in inputs)
    at = np.ascontiguousarray(av.T)                 # (S, C)
    h = np.zeros((n, state, channels))
    decay = np.empty_like(h)
    inflow = np.empty_like(h)
    states = np.zeros((length + 1,) + h.shape) if track else None   # states[t] enters step t
    drive = dv * xv                                 # delta*x
    y = np.empty_like(xv)
    for t in range(length):
        prev, h = (states[t], states[t + 1]) if track else (h, h)
        np.einsum("nc,sc->nsc", dv[:, t], at, out=decay)
        np.exp(decay, out=decay)
        np.multiply(decay, prev, out=h)
        np.einsum("ns,nc->nsc", bv[:, t], drive[:, t], out=inflow)
        np.add(h, inflow, out=h)
        if not np.isfinite(h).all():
            raise FloatingPointError(f"state-scan: non-finite state at step {t}")
        np.matmul(cv[:, t, None, :], h, out=y[:, t, None, :])
    y += xv * sv

    def backward(g):
        gb = np.empty_like(bv)
        gc = np.empty_like(cv)
        ga = np.zeros_like(av)
        gh = np.zeros((n, state, channels))
        work = np.empty_like(gh)
        decay = np.empty_like(gh)
        g_dx = np.empty_like(xv)    # grad at delta*x, summed over states
        g_da = np.empty_like(xv)    # grad at delta through the exponent
        for t in range(length - 1, -1, -1):
            gy = g[:, t]
            np.einsum("nc,sc->nsc", dv[:, t], at, out=decay)
            np.exp(decay, out=decay)
            np.matmul(states[t + 1], gy[:, :, None], out=gc[:, t, :, None])
            np.einsum("ns,nc->nsc", cv[:, t], gy, out=work)
            np.add(gh, work, out=gh)
            np.matmul(bv[:, t, None, :], gh, out=g_dx[:, t, None, :])
            np.matmul(gh, drive[:, t, :, None], out=gb[:, t, :, None])
            np.multiply(gh, states[t], out=work)
            np.multiply(work, decay, out=work)          # grad at the exponent delta*a
            np.einsum("nsc,sc->nc", work, at, out=g_da[:, t])
            ga += np.einsum("nsc,nc->cs", work, dv[:, t])
            np.multiply(gh, decay, out=gh)
        _accum(x, g_dx * dv + g * sv)
        _accum(delta, g_dx * xv + g_da)
        _accum(b_seq, gb)
        _accum(c_seq, gc)
        _accum(a, ga)
        _accum(skip, (g * xv).sum(axis=(0, 1)))

    return _make(y, inputs, backward)


# ---------------------------------------------------------------------------
# row-chunked recomputation

# Rows per chunk of ``recompute_rows``.  Training the acceptance config in one
# process (10 runs each, one BLAS thread on a 2-vCPU VM), 32-row chunks peaked
# at 63.8 MiB RSS and 64-row ones at 69.1 MiB, in the same median CPU time
# (2.67 and 2.65 s); 16-row chunks saved 0.9 MiB more and took 9% longer.
# 128- and 256-row chunks peaked higher and trained slower still.
CHUNK_ROWS = 32


def _untaped(fn, *args):
    """``fn(*args)`` with no tape active, so its ops record nothing."""
    _TAPES.append(None)
    try:
        return fn(*args)
    finally:
        _TAPES.pop()


def _rerun(fn, leaves, g) -> None:
    """Rerun ``fn(*leaves)`` under a tape of its own and sweep it from its output with ``g``.

    The leaves and the tensors ``fn`` closes over add up ``.grad`` as
    usual.  The rerun repeats a forward that has already run and logged,
    so the records this module logs during it are dropped.
    """
    muted, logger.disabled = logger.disabled, True
    try:
        with Tape() as tape:
            out = fn(*leaves)
    finally:
        logger.disabled = muted
    tape._sweep(out, g)


def recompute(fn, inputs) -> tuple[Tensor, object]:
    """``fn(*inputs)``, taped as one node that keeps only ``inputs``.

    ``fn`` returns ``(out, info)`` and takes every tensor that needs a
    gradient as one of ``inputs``.  The forward runs it untaped and keeps
    ``out``'s data; ``info`` (a count, say) is returned as it is.  The
    backward reruns ``fn`` on new leaves over the inputs' data
    (``_rerun``), so no intermediate of ``fn`` lives from the forward to
    the backward.
    """
    inputs = [_as_tensor(t) for t in inputs]
    out, info = _untaped(fn, *inputs)

    def backward(g):
        leaves = [Tensor(t.data, requires_grad=t.requires_grad) for t in inputs]
        _rerun(lambda *ts: fn(*ts)[0], leaves, g)
        for t, leaf in zip(inputs, leaves):
            if leaf.grad is not None:
                _accum(t, leaf.grad)

    return _make(out.data, inputs, backward), info


def recompute_rows(fn, x, params) -> Tensor:
    """``fn(x)`` for a row-separable ``fn``, taped as one node that keeps only ``x``.

    Row i of ``fn``'s output depends only on row i of its input and on
    the tensors in ``params``.  The forward runs ``fn`` untaped on chunks
    of ``CHUNK_ROWS`` rows.  The backward reruns each chunk like
    ``recompute`` does, seeded with that chunk's rows of the output
    gradient, and the parameters add up ``.grad`` over the chunks:
    gradient checkpointing at block granularity (Chen et al., arXiv
    1604.06174).  An error raised in the forward comes from the first
    chunk that fails.
    """
    x = _as_tensor(x)
    if x.ndim < 1:
        raise ShapeError(f"recompute-rows: expected rows, got shape {x.shape}")
    n = x.shape[0]
    chunks = [slice(r, min(r + CHUNK_ROWS, n)) for r in range(0, n, CHUNK_ROWS)] or [slice(0, 0)]
    data = np.concatenate([_untaped(fn, Tensor(x.data[rows])).data for rows in chunks])

    def backward(g):
        gx = np.zeros_like(x.data)
        for rows in chunks:
            part = Tensor(x.data[rows], requires_grad=x.requires_grad)
            _rerun(fn, [part], g[rows])
            if part.grad is not None:
                gx[rows] = part.grad
        _accum(x, gx)

    return _make(data, (x, *params), backward)

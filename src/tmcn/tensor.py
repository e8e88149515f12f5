"""Dense float64 tensors with taped reverse-mode differentiation.

Everything downstream (the encoders, the fusion block, the contrastive
and reconstruction losses) is built from the operations in this module.
Values are numpy arrays; while a :class:`Tape` is active each operation
records a backward closure, and ``Tape.backward`` replays the records
once in reverse execution order to accumulate gradients.
Tapes are single use and support first-order gradients only.

Domain guards follow one convention: ``log`` clamps its argument at
``EPS`` and cosine denominators use ``norm + EPS``, so a degenerate
embedding never turns into a NaN mid-training.
"""

from __future__ import annotations

import logging

import numpy as np
from scipy.special import expit

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

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scalar_mul(self, float(other))
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, float)):
            raise TypeError("tensor division is only defined for python scalars")
        return scalar_mul(self, 1.0 / float(other))

    def __neg__(self):
        return scalar_mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    # -- method forms of ops --------------------------------------------
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self):
        return transpose(self)

    def sum(self, axis=None, keepdims: bool = False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def softplus(self):
        return softplus(self)

    def silu(self):
        return silu(self)

    def square(self):
        return square(self)

    def relu(self):
        return clamp_min(self, 0.0)

    def clamp_min(self, floor: float):
        return clamp_min(self, floor)


def parameter(data) -> Tensor:
    """Leaf tensor that accumulates gradients."""
    return Tensor(data, requires_grad=True)


# ---------------------------------------------------------------------------
# tape

_TAPES: list["Tape"] = []


def active_tape():
    return _TAPES[-1] if _TAPES else None


class Tape:
    """Execution-ordered record of differentiable operations.

    Records append in forward order, so the list is already topologically
    sorted (every node's inputs precede it); ``backward`` sweeps it once
    in reverse.  A tape can run backward exactly once.
    """

    def __init__(self):
        self._records = []          # (out, inputs, backward_fn)
        self._spent = False

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        _TAPES.pop()
        return False

    def record(self, out: Tensor, inputs, backward_fn) -> None:
        self._records.append((out, inputs, backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) on the ``.grad`` slot of every leaf reached."""
        if self._spent:
            raise RuntimeError("tape already consumed; build a new tape per forward pass")
        self._spent = True
        if loss.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
        loss.grad = np.ones_like(loss.data)
        # each record is dropped once it has run, so the arrays its closure
        # saved are freed before the ops upstream allocate their gradients
        records, self._records = self._records, []
        while records:
            out, _inputs, fn = records.pop()
            if out.grad is not None:
                fn(out.grad)


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

def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    data = a.data @ b.data

    def backward(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _make(data, (a, b), backward)


def _broadcast_binary(name, a, b, fwd, da, db) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = fwd(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{name}: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward(g):
        _accum(a, _unbroadcast(da(g, a.data, b.data), a.shape))
        _accum(b, _unbroadcast(db(g, a.data, b.data), b.shape))

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


def transpose(a) -> Tensor:
    """Swap the last two axes; defined for 2-D and batched 3-D tensors."""
    a = _as_tensor(a)
    if a.ndim not in (2, 3):
        raise ShapeError(f"transpose: expected a 2-D or 3-D tensor, got shape {a.shape}")
    data = np.swapaxes(a.data, -1, -2)

    def backward(g):
        _accum(a, np.swapaxes(g, -1, -2))

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

def exp(a) -> Tensor:
    a = _as_tensor(a)
    data = np.exp(a.data)

    def backward(g):
        _accum(a, g * data)

    return _make(data, (a,), backward)


def log(a) -> Tensor:
    """Natural log with the argument clamped at ``EPS``."""
    a = _as_tensor(a)
    safe = np.maximum(a.data, EPS)
    data = np.log(safe)

    def backward(g):
        _accum(a, g / safe)

    return _make(data, (a,), backward)


def softplus(a) -> Tensor:
    a = _as_tensor(a)
    data = np.logaddexp(0.0, a.data)

    def backward(g):
        _accum(a, g * expit(a.data))

    return _make(data, (a,), backward)


def silu(a) -> Tensor:
    a = _as_tensor(a)
    s = expit(a.data)
    data = a.data * s

    def backward(g):
        _accum(a, g * (s * (1.0 + a.data * (1.0 - s))))

    return _make(data, (a,), backward)


def square(a) -> Tensor:
    a = _as_tensor(a)
    data = a.data * a.data

    def backward(g):
        _accum(a, g * (2.0 * a.data))

    return _make(data, (a,), backward)


def clamp_min(a, floor: float) -> Tensor:
    """Elementwise max with a constant; zero gradient on the clamped side."""
    a = _as_tensor(a)
    floor = float(floor)
    data = np.maximum(a.data, floor)

    def backward(g):
        _accum(a, g * (a.data > floor))

    return _make(data, (a,), backward)


# ---------------------------------------------------------------------------
# similarity ops

def cosine_similarity_matrix(a, b) -> Tensor:
    """Pairwise row cosines: out[i, j] = cos(a_i, b_j).

    Row norms are guarded with ``+ EPS``; zero rows therefore yield zero
    similarities and are flagged in the log rather than raising.
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
    ah = a.data / na[:, None]
    bh = b.data / nb[:, None]
    data = ah @ bh.T

    def backward(g):
        row = (g * data).sum(axis=1)
        _accum(a, (g @ bh - row[:, None] * ah) / na[:, None])
        col = (g * data).sum(axis=0)
        _accum(b, (g.T @ ah - col[:, None] * bh) / nb[:, None])

    return _make(data, (a, b), backward)


# ---------------------------------------------------------------------------
# depthwise causal convolution

def conv1d_depthwise(x, kernel) -> Tensor:
    """Per-channel causal convolution along the last axis.

    ``x`` is (N, C, L), ``kernel`` is (C, k); tap j multiplies the input
    j steps in the past, so kernel [1, 0, ...] is the identity and no
    output position sees the future.
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if x.ndim != 3 or kernel.ndim != 2 or kernel.shape[0] != x.shape[1]:
        raise ShapeError(
            f"conv1d-depthwise: expected x (N, C, L) with kernel (C, k), "
            f"got {x.shape} and {kernel.shape}")
    k = kernel.shape[1]
    length = x.shape[2]
    w = kernel.data
    data = np.zeros_like(x.data)
    for j in range(min(k, length)):
        data[..., j:] += w[:, j][None, :, None] * x.data[..., :length - j]

    def backward(g):
        gx = np.zeros_like(x.data)
        gw = np.zeros_like(w)
        for j in range(min(k, length)):
            gx[..., :length - j] += w[:, j][None, :, None] * g[..., j:]
            gw[:, j] = np.einsum("ncl,ncl->c", g[..., j:], x.data[..., :length - j])
        _accum(x, gx)
        _accum(kernel, gw)

    return _make(data, (x, kernel), backward)


# Rows per sweep of the scan kernel.  At L = 24 tokens, C = 32 channels
# and S = 8 states, one block's sqrt(L) segment of replayed states and
# decays is 11 slabs of 128 KiB, inside a 2 MiB L2.  A 256-row forward +
# backward there took 50, 48 and 50 ms at 32, 64 and 128 rows per block,
# and at C = 1536 2.5, 2.6 and 3.1 s (one thread, 2-vCPU x86 VM).
SCAN_BLOCK_ROWS = 64


def _scan_step(h, out, decay, scratch, dt, bt, ut, at) -> None:
    """One step for a row block: ``out = exp(dt*a) * h + b (x) (dt*x)``.

    The forward pass and the backward replay both step through here, so
    the replayed states are the forward's bit for bit.  ``decay`` keeps
    exp(dt*a); ``out`` may be ``h``.
    """
    np.einsum("nc,sc->nsc", dt, at, out=decay)
    np.exp(decay, out=decay)
    np.multiply(decay, h, out=out)
    np.einsum("ns,nc->nsc", bt, ut, out=scratch)
    np.add(out, scratch, out=out)


def state_scan(x, delta, b_seq, c_seq, a, skip) -> Tensor:
    """Input-dependent linear state recurrence along the token axis.

    ``x`` and ``delta`` are (N, L, C); ``b_seq`` and ``c_seq`` are
    (N, L, S); ``a`` is (C, S) per-channel decay rates (negative keeps
    the recurrence contractive); ``skip`` is (C,).  Per step each
    channel's state decays by exp(delta*a), absorbs delta*b*x, and the
    output token is <c, h> plus skip*x.

    The kernel holds the state as (rows, S, C), channels innermost,
    contracts it with batched ``matmul`` and writes every step into
    preallocated buffers.  It sweeps the rows in blocks of
    ``SCAN_BLOCK_ROWS``, each block through all L steps.  The forward
    pass keeps the state entering every sqrt(L)-th step; the backward
    pass replays one block's segment at a time from those checkpoints
    rather than taping every step, so beyond the checkpoints live memory
    stays at O(sqrt(L)) state slabs of one row block no matter the
    sequence length.

    Raises on a non-finite state, naming the earliest offending step
    over all rows.
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
    stride = max(1, int(np.ceil(np.sqrt(length))))
    n_seg = -(-length // stride)
    block = max(1, min(SCAN_BLOCK_ROWS, n))
    blocks = [slice(r, min(r + block, n)) for r in range(0, n, block)]
    # state entering step seg*stride, all rows
    checkpoints = np.empty((n_seg, n, state, channels)) if track else None
    h = np.empty((block, state, channels))
    decay = np.empty_like(h)
    inflow = np.empty_like(h)
    drive = np.empty((block, length, channels))    # delta*x, then skip*x
    y = np.empty_like(xv)
    # earliest non-finite step over the blocks so far; a later block only
    # scans the steps before it, and nothing after it is written to y
    first_bad = length
    for rows in blocks:
        nb = rows.stop - rows.start
        hb, db, ib, u = h[:nb], decay[:nb], inflow[:nb], drive[:nb]
        hb.fill(0.0)
        np.multiply(dv[rows], xv[rows], out=u)
        for t in range(first_bad):
            if track and t % stride == 0:
                checkpoints[t // stride, rows] = hb
            _scan_step(hb, hb, db, ib, dv[rows, t], bv[rows, t], u[:, t], at)
            if not np.isfinite(hb).all():
                first_bad = t
                break
            np.matmul(cv[rows, t, None, :], hb, out=y[rows, t, None, :])
        if first_bad == length:
            np.multiply(xv[rows], sv, out=u)
            np.add(y[rows], u, out=y[rows])
    if first_bad < length:
        raise FloatingPointError(f"state-scan: non-finite state at step {first_bad}")

    def backward(g):
        gx = np.empty_like(xv)
        gdelta = np.empty_like(dv)
        gb = np.empty_like(bv)
        gc = np.empty_like(cv)
        ga = np.zeros_like(av)
        gskip = np.zeros_like(sv)
        states = np.empty((stride + 1, block, state, channels))  # entering each step, and after
        decays = np.empty((stride, block, state, channels))
        gh = np.empty((block, state, channels))
        work = np.empty_like(gh)
        drive = np.empty((block, length, channels))   # delta*x
        g_dx = np.empty_like(drive)                   # grad at delta*x, summed over states
        g_da = np.empty_like(drive)                   # grad at delta through the exponent
        for rows in blocks:
            nb = rows.stop - rows.start
            ghb, wb, u = gh[:nb], work[:nb], drive[:nb]
            ghb.fill(0.0)
            np.multiply(dv[rows], xv[rows], out=u)
            for seg in range(n_seg - 1, -1, -1):
                start = seg * stride
                stop = min(start + stride, length)
                st, dc = states[:, :nb], decays[:, :nb]
                st[0] = checkpoints[seg, rows]
                for i, t in enumerate(range(start, stop)):
                    _scan_step(st[i], st[i + 1], dc[i], wb, dv[rows, t], bv[rows, t], u[:, t], at)
                for t in range(stop - 1, start - 1, -1):
                    i = t - start
                    gy = g[rows, t]
                    np.matmul(st[i + 1], gy[:, :, None], out=gc[rows, t, :, None])
                    np.einsum("ns,nc->nsc", cv[rows, t], gy, out=wb)
                    np.add(ghb, wb, out=ghb)
                    np.matmul(bv[rows, t, None, :], ghb, out=g_dx[:nb, t, None, :])
                    np.matmul(ghb, u[:, t, :, None], out=gb[rows, t, :, None])
                    np.multiply(ghb, st[i], out=wb)
                    np.multiply(wb, dc[i], out=wb)          # grad at the exponent delta*a
                    np.einsum("nsc,sc->nc", wb, at, out=g_da[:nb, t])
                    ga += np.einsum("nsc,nc->cs", wb, dv[rows, t])
                    np.multiply(ghb, dc[i], out=ghb)
            gx[rows] = g_dx[:nb] * dv[rows] + g[rows] * sv
            gdelta[rows] = g_dx[:nb] * xv[rows] + g_da[:nb]
            gskip += (g[rows] * xv[rows]).sum(axis=(0, 1))
        _accum(x, gx)
        _accum(delta, gdelta)
        _accum(b_seq, gb)
        _accum(c_seq, gc)
        _accum(a, ga)
        _accum(skip, gskip)

    return _make(y, inputs, backward)

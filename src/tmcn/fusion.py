"""Gated selective state-space fusion of per-view embeddings.

Each flat view embedding (N, l*d) is reshaped into a sequence of l
d-dimensional tokens; the view sequences are concatenated along the
token axis into one length L = M*l sequence per sample.  Two
position-wise branches expand tokens to width dp = d * expand_factor;
the first runs through a causal depthwise convolution, a SiLU, and an
input-dependent state-space recurrence scanned left to right; the
second gates the scan output through a SiLU.  A final position-wise map
contracts back to width d and the sequence is flattened to the fused
vector (N, M*l*d).

The recurrence per channel c with state size n is

    h_t = exp(delta_t * A_c) * h_{t-1} + (delta_t * B_t) * x_t
    y_t = <C_t, h_t> + skip_c * x_t

where delta, B and C are affine projections of the token (delta through
a softplus), A_c = -exp(a_log_c) stays negative, so every decay factor
sits strictly inside the unit interval and the scan cannot blow up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .nn import Affine
from .tensor import (
    ShapeError,
    Tensor,
    add,
    concat,
    conv1d_depthwise,
    exp,
    matmul,
    mul,
    parameter,
    reshape,
    silu,
    softplus,
    state_scan,
    transpose,
)

if TYPE_CHECKING:  # trainer imports this module
    from .trainer import ModelConfig


# ---------------------------------------------------------------------------
# pipeline stages

def fine_grain(z: Tensor, seq_len: int, seq_dim: int) -> Tensor:
    """Reshape a flat view embedding (N, l*d) into token form (N, l, d)."""
    if z.ndim != 2 or z.shape[1] != seq_len * seq_dim:
        raise ShapeError(f"fine-grain: expected (N, {seq_len * seq_dim}), got {z.shape}")
    return reshape(z, (z.shape[0], seq_len, seq_dim))


def concat_views(seqs: list[Tensor]) -> Tensor:
    """Stack per-view token sequences along the token axis: (N, M*l, d)."""
    if not seqs:
        raise ShapeError("concat-views: need at least one sequence")
    first = seqs[0].shape
    for s in seqs:
        if s.ndim != 3 or s.shape != first:
            raise ShapeError(f"concat-views: shape {s.shape} does not match {first}")
    return concat(seqs, axis=1)


def _positionwise(x: Tensor, layer: Affine) -> Tensor:
    """Apply an affine map to every token of a (N, L, d) sequence."""
    n, length, width = x.shape
    flat = reshape(x, (n * length, width))
    return reshape(layer(flat), (n, length, layer.out_dim))


def branch_project(e: Tensor, branch_p: Affine, branch_q: Affine) -> tuple[Tensor, Tensor]:
    """Expand tokens into the scan branch p and the gate branch q, both (N, L, dp)."""
    if e.ndim != 3:
        raise ShapeError(f"branch-project: expected (N, L, d), got {e.shape}")
    return _positionwise(e, branch_p), _positionwise(e, branch_q)


def conv_branch(p: Tensor, kernel: Tensor) -> Tensor:
    """Depthwise causal conv over the token axis, then SiLU.

    Input is token-major (N, L, dp); output is channels-first (N, dp, L)
    ready for per-channel work.
    """
    if p.ndim != 3:
        raise ShapeError(f"conv-branch: expected (N, L, dp), got {p.shape}")
    return silu(conv1d_depthwise(transpose(p), kernel))


@dataclass
class MambaParams:
    """Parameters of the input-dependent state-space recurrence."""

    a_log: Tensor       # (dp, n); decay A = -exp(a_log)
    b_proj: Tensor      # (dp, n)
    c_proj: Tensor      # (dp, n)
    delta_proj: Tensor  # (dp, dp)
    delta_bias: Tensor  # (dp,)
    skip: Tensor        # (dp,)


def selective_scan(x: Tensor, params: MambaParams) -> Tensor:
    """Left-to-right input-dependent recurrence over a (N, L, dp) sequence.

    The delta, B and C projections run as ordinary taped ops; the
    recurrence itself is the fused ``state_scan`` kernel, which replays
    states from checkpoints in its backward pass instead of taping every
    step.

    Raises on a non-finite state, naming the offending step.
    """
    if x.ndim != 3:
        raise ShapeError(f"selective-scan: expected (N, L, dp), got {x.shape}")
    n, length, dp = x.shape
    state = params.a_log.shape[1]
    if params.a_log.shape != (dp, state):
        raise ShapeError(f"selective-scan: a_log shape {params.a_log.shape} "
                         f"does not match input width {dp}")

    flat = reshape(x, (n * length, dp))
    delta = reshape(softplus(add(matmul(flat, params.delta_proj), params.delta_bias)),
                    (n, length, dp))
    b_seq = reshape(matmul(flat, params.b_proj), (n, length, state))
    c_seq = reshape(matmul(flat, params.c_proj), (n, length, state))
    decay = mul(exp(params.a_log), Tensor(-1.0))  # A = -exp(a_log), kept negative
    return state_scan(x, delta, b_seq, c_seq, decay, params.skip)


def gate_and_contract(scanned: Tensor, q: Tensor, contract: Affine) -> Tensor:
    """Gate the scan output with SiLU(q), then map tokens back to width d."""
    if scanned.shape != q.shape:
        raise ShapeError(f"gate: scan shape {scanned.shape} does not match gate {q.shape}")
    return _positionwise(mul(scanned, silu(q)), contract)


def convert_to_vector(a: Tensor) -> Tensor:
    """Flatten a (N, L, d) sequence into the fused vector (N, L*d)."""
    if a.ndim != 3:
        raise ShapeError(f"convert: expected (N, L, d), got {a.shape}")
    n, length, width = a.shape
    return reshape(a, (n, length * width))


# ---------------------------------------------------------------------------
# the block

class SelectiveFusion:
    """Parameter bundle plus forward pass of the fusion block."""

    def __init__(self, n_views: int, config: ModelConfig, rng: np.random.Generator):
        self.n_views = n_views
        self.config = config
        d, state = config.seq_dim, config.state_size
        dp = d * config.expand_factor
        self.branch_p = Affine.init(d, dp, rng)
        self.branch_q = Affine.init(d, dp, rng)
        # both branch biases start at +1 so the SiLUs open in their monotone
        # region, and the conv kernel starts near a one-hot last tap, which is a
        # (conv_width - 1)-token delay since tap j looks j tokens back: the block
        # then begins as a smooth quasi-linear map even for centered inputs,
        # instead of folding sign information through the SiLU dip
        self.branch_p.b.data += 1.0
        self.branch_q.b.data += 1.0
        bound = 0.1 / np.sqrt(config.conv_width)
        kernel0 = rng.uniform(-bound, bound, size=(dp, config.conv_width))
        kernel0[:, -1] += 1.0
        self.kernel = parameter(kernel0)
        # decay exponents start at -(j+1) per state index, the usual real-SSM ramp
        # c_proj and delta_proj start near zero: the block then opens as the
        # skip path alone, which keeps the fused geometry intact whatever the
        # embedding scale, and the recurrence output grows only as training
        # asks for it
        self.ssm = MambaParams(
            a_log=parameter(np.tile(np.log(np.arange(1, state + 1)), (dp, 1))),
            b_proj=parameter(rng.uniform(-1.0 / np.sqrt(dp), 1.0 / np.sqrt(dp), size=(dp, state))),
            c_proj=parameter(rng.normal(scale=1e-3, size=(dp, state))),
            delta_proj=parameter(rng.normal(scale=1e-3, size=(dp, dp))),
            # bias alone sets the initial step sizes: softplus(...) in [0.01, 0.1]
            delta_bias=parameter(np.log(np.expm1(rng.uniform(0.01, 0.1, size=dp)))),
            skip=parameter(np.ones(dp)),
        )
        self.contract = Affine.init(dp, d, rng)

    def forward(self, z_views: list[Tensor]) -> Tensor:
        """Fuse flat per-view embeddings into one (N, M*l*d) vector per sample."""
        cfg = self.config
        if len(z_views) != self.n_views:
            raise ShapeError(f"fusion: expected {self.n_views} views, got {len(z_views)}")
        seqs = [fine_grain(z, cfg.seq_len, cfg.seq_dim) for z in z_views]
        e = concat_views(seqs)
        p, q = branch_project(e, self.branch_p, self.branch_q)
        causal = conv_branch(p, self.kernel)
        scanned = selective_scan(transpose(causal), self.ssm)
        return convert_to_vector(gate_and_contract(scanned, q, self.contract))

    __call__ = forward

    def params(self, prefix: str = "fusion") -> dict[str, Tensor]:
        out = self.branch_p.params(f"{prefix}.branch_p")
        out.update(self.branch_q.params(f"{prefix}.branch_q"))
        out[f"{prefix}.conv.kernel"] = self.kernel
        out[f"{prefix}.ssm.a_log"] = self.ssm.a_log
        out[f"{prefix}.ssm.b_proj"] = self.ssm.b_proj
        out[f"{prefix}.ssm.c_proj"] = self.ssm.c_proj
        out[f"{prefix}.ssm.delta_proj"] = self.ssm.delta_proj
        out[f"{prefix}.ssm.delta_bias"] = self.ssm.delta_bias
        out[f"{prefix}.ssm.skip"] = self.ssm.skip
        out.update(self.contract.params(f"{prefix}.contract"))
        return out

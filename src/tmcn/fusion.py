"""Gated selective state-space fusion of per-view embeddings.

The input is the concatenation of the flat view embeddings, (N, M*l*d).
Read row-major, that vector already is the token sequence: token t of
view m is token m*l + t, so each sample is one length L = M*l sequence
of d-dimensional tokens.  The block reshapes the input to (N, L, d) once
and keeps every intermediate token-major, (N, L, width), until it
reshapes the output back.  Two position-wise branches expand tokens to
width dp = d * expand_factor; the first runs through a causal depthwise
convolution, a SiLU, and an input-dependent state-space recurrence
scanned left to right; the second gates the scan output through a SiLU.
A final position-wise map contracts back to width d, and the tokens are
read back as the fused vector (N, M*l*d).

The recurrence per channel c with state size n is

    h_t = exp(delta_t * A_c) * h_{t-1} + (delta_t * B_t) * x_t
    y_t = <C_t, h_t> + skip_c * x_t

where delta, B and C are affine projections of the token (delta through
a softplus), A_c = -exp(a_log_c) stays negative, so every decay factor
sits strictly inside the unit interval and the scan cannot blow up.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .nn import Affine
from .tensor import (
    ShapeError,
    Tensor,
    conv1d_depthwise,
    exp,
    matmul,
    mul,
    parameter,
    recompute_rows,
    reshape,
    silu,
    softplus,
    state_scan,
)

if TYPE_CHECKING:  # trainer imports this module
    from .trainer import ModelConfig


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

    The delta, B and C projections are ``matmul`` calls straight on the
    (N, L, dp) tokens, ``delta_bias`` added as the delta projection's
    bias operand.  The recurrence is the fused ``state_scan`` kernel,
    which keeps every step's state when taped; the block hands it one
    chunk of rows at a time.

    Raises on a non-finite state, naming the earliest offending step over
    the rows of ``x``.
    """
    if x.ndim != 3:
        raise ShapeError(f"selective-scan: expected (N, L, dp), got {x.shape}")
    dp = x.shape[2]
    if params.a_log.ndim != 2 or params.a_log.shape[0] != dp:
        raise ShapeError(f"selective-scan: a_log shape {params.a_log.shape} "
                         f"does not match input width {dp}")

    delta = softplus(matmul(x, params.delta_proj, params.delta_bias))
    b_seq = matmul(x, params.b_proj)
    c_seq = matmul(x, params.c_proj)
    decay = mul(exp(params.a_log), Tensor(-1.0))  # A = -exp(a_log), kept negative
    return state_scan(x, delta, b_seq, c_seq, decay, params.skip)


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

    def forward(self, u: Tensor) -> Tensor:
        """Fuse the concatenated view embeddings (N, M*l*d) into a vector of that shape.

        Each sample is fused on its own, so the block runs through
        ``recompute_rows`` in chunks of ``CHUNK_ROWS`` rows, and the tape
        keeps only ``u``.  A non-finite scan state raises naming the
        earliest step in the first chunk that fails.
        """
        d = self.config.seq_dim
        length = self.n_views * self.config.seq_len
        if u.ndim != 2 or u.shape[1] != length * d:
            raise ShapeError(f"fusion: expected (N, {length * d}), got {u.shape}")
        return recompute_rows(self._fuse_rows, u, self.params().values())

    def _fuse_rows(self, u: Tensor) -> Tensor:
        n, width = u.shape
        tokens = reshape(u, (n, width // self.config.seq_dim, self.config.seq_dim))
        causal = silu(conv1d_depthwise(self.branch_p(tokens), self.kernel))
        scanned = selective_scan(causal, self.ssm)
        gated = mul(scanned, silu(self.branch_q(tokens)))
        return reshape(self.contract(gated), (n, width))

    __call__ = forward

    def params(self, prefix: str = "fusion") -> dict[str, Tensor]:
        out = self.branch_p.params(f"{prefix}.branch_p")
        out.update(self.branch_q.params(f"{prefix}.branch_q"))
        out[f"{prefix}.conv.kernel"] = self.kernel
        for f in fields(MambaParams):
            out[f"{prefix}.ssm.{f.name}"] = getattr(self.ssm, f.name)
        out.update(self.contract.params(f"{prefix}.contract"))
        return out

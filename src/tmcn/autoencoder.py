"""Per-view encoder/decoder stacks and the summed reconstruction objective.

Each view gets its own autoencoder: an MLP D_m -> hidden dims -> E with
ReLU hidden activations and a linear output, mirrored exactly on the
decoder side.  E is the flat embedding width consumed by the fusion
block (sequence length times channel width).
"""

from __future__ import annotations

import numpy as np

from .nn import Mlp
from .tensor import ShapeError, Tensor, add, sub


class ViewAutoencoder:
    """Encoder/decoder pair for a single view, parameters independent per view."""

    def __init__(self, view_dim: int, embed_dim: int, rng: np.random.Generator,
                 hidden_dims):
        if view_dim < 1 or embed_dim < 1:
            raise ValueError(f"view_dim and embed_dim must be positive, got "
                             f"{view_dim} and {embed_dim}")
        hidden = list(hidden_dims)
        self.view_dim = view_dim
        self.embed_dim = embed_dim
        self.encoder = Mlp([view_dim, *hidden, embed_dim], rng)
        self.decoder = Mlp([embed_dim, *reversed(hidden), view_dim], rng)

    def encode(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.view_dim:
            raise ShapeError(f"encode: expected (N, {self.view_dim}), got {x.shape}")
        return self.encoder(x)

    def decode(self, z: Tensor) -> Tensor:
        if z.ndim != 2 or z.shape[1] != self.embed_dim:
            raise ShapeError(f"decode: expected (N, {self.embed_dim}), got {z.shape}")
        return self.decoder(z)

    def params(self, prefix: str) -> dict[str, Tensor]:
        out = self.encoder.params(f"{prefix}.encoder")
        out.update(self.decoder.params(f"{prefix}.decoder"))
        return out


def reconstruction_loss(inputs: list[Tensor], reconstructions: list[Tensor]) -> Tensor:
    """Sum of squared errors over all views, samples and features (scalar tensor)."""
    if len(inputs) != len(reconstructions) or not inputs:
        raise ValueError(f"got {len(inputs)} inputs and {len(reconstructions)} reconstructions")
    total = None
    for x, xh in zip(inputs, reconstructions):
        if x.shape != xh.shape:
            raise ShapeError(f"reconstruction-loss: shape {xh.shape} does not match input {x.shape}")
        diff = sub(x, xh)
        term = (diff * diff).sum()
        total = term if total is None else add(total, term)
    return total

"""Affine layers and MLP stacks shared by the encoders and projection heads."""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor, matmul, parameter


class Affine:
    """Single dense layer y = x @ w + b, applied along the last axis of x.

    One ``matmul`` with ``b`` as its bias operand and, with ``relu``, the
    activation fused in: the tape keeps one output-sized array per call.
    """

    def __init__(self, w: Tensor, b: Tensor):
        self.w = w
        self.b = b

    @classmethod
    def init(cls, fan_in: int, fan_out: int, rng: np.random.Generator) -> "Affine":
        """Uniform fan-in (He-style) weight init, zero bias."""
        bound = np.sqrt(6.0 / fan_in)
        return cls(parameter(rng.uniform(-bound, bound, size=(fan_in, fan_out))),
                   parameter(np.zeros(fan_out)))

    @property
    def in_dim(self) -> int:
        return self.w.shape[0]

    def __call__(self, x: Tensor, relu: bool = False) -> Tensor:
        if x.ndim < 1 or x.shape[-1] != self.in_dim:
            raise ShapeError(f"affine: expected input (..., {self.in_dim}), got {x.shape}")
        return matmul(x, self.w, self.b, relu=relu)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.weight": self.w, f"{prefix}.bias": self.b}


class Mlp:
    """Dense stack with ReLU hidden activations and a linear output layer."""

    def __init__(self, dims: list[int], rng: np.random.Generator):
        if len(dims) < 2:
            raise ValueError("mlp needs at least an input and an output width")
        self.layers = [Affine.init(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)]

    def __call__(self, x: Tensor) -> Tensor:
        for layer in self.layers[:-1]:
            x = layer(x, relu=True)
        return self.layers[-1](x)

    def params(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, layer in enumerate(self.layers):
            out.update(layer.params(f"{prefix}.layer{i}"))
        return out

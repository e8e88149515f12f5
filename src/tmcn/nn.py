"""Affine layers and MLP stacks shared by the encoders and projection heads."""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor, add, matmul, parameter


def init_affine(fan_in: int, fan_out: int, rng: np.random.Generator):
    """Uniform fan-in (He-style) weight init, zero bias."""
    bound = np.sqrt(6.0 / fan_in)
    w = parameter(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
    b = parameter(np.zeros(fan_out))
    return w, b


class Affine:
    """Single dense layer y = x @ w + b."""

    def __init__(self, w: Tensor, b: Tensor):
        self.w = w
        self.b = b

    @classmethod
    def init(cls, fan_in: int, fan_out: int, rng: np.random.Generator) -> "Affine":
        return cls(*init_affine(fan_in, fan_out, rng))

    @property
    def in_dim(self) -> int:
        return self.w.shape[0]

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"affine: expected input (N, {self.in_dim}), got {x.shape}")
        return add(matmul(x, self.w), self.b)

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
            x = layer(x).relu()
        return self.layers[-1](x)

    def params(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, layer in enumerate(self.layers):
            out.update(layer.params(f"{prefix}.layer{i}"))
        return out

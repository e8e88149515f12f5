"""Tensor core tests: frozen values, shape diagnostics, tape rules, gradients."""

import inspect
import logging

import numpy as np
import pytest

from helpers import (
    OP_KINDS,
    check_grads,
    conv_causal_reference,
    cosine_matrix_reference,
    op_grad_case,
)
from tmcn import tensor
from tmcn.nn import Mlp
from tmcn.tensor import (
    EPS,
    ShapeError,
    Tape,
    Tensor,
    concat,
    conv1d_depthwise,
    cosine_similarity_matrix,
    exp,
    log,
    matmul,
    parameter,
    silu,
    softplus,
    transpose,
)


# ---------------------------------------------------------------------------
# forward values

def test_frozen_pointwise_values():
    assert silu(Tensor(1.0)).item() == pytest.approx(0.7310585786300049, abs=1e-15)
    assert softplus(Tensor(0.0)).item() == pytest.approx(0.6931471805599453, abs=1e-15)
    assert exp(Tensor(0.0)).item() == 1.0
    assert Tensor(3.0).square().item() == 9.0


def test_log_clamps_its_argument():
    floor = np.log(EPS)
    assert log(Tensor(0.0)).item() == pytest.approx(floor)
    assert log(Tensor(-5.0)).item() == pytest.approx(floor)
    assert log(Tensor(np.e)).item() == pytest.approx(1.0, abs=1e-14)


def test_operator_sugar_matches_numpy():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=(3, 4)))
    m = Tensor(rng.normal(size=(4, 2)))
    assert np.allclose((a + b).data, a.data + b.data)
    assert np.allclose((a - b).data, a.data - b.data)
    assert np.allclose((a * b).data, a.data * b.data)
    assert np.allclose((a * 2.5).data, a.data * 2.5)
    assert np.allclose((a / 2.0).data, a.data / 2.0)
    assert np.allclose((-a).data, -a.data)
    assert np.allclose((a @ m).data, a.data @ m.data)
    with pytest.raises(TypeError):
        a / b  # tensor/tensor division is not an op


def test_item_requires_single_element():
    with pytest.raises(ValueError):
        Tensor([1.0, 2.0]).item()


# ---------------------------------------------------------------------------
# structural bijections

def test_reshape_round_trip():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(4, 6)))
    back = x.reshape(2, 3, 4).reshape(4, 6)
    assert np.array_equal(back.data, x.data)


def test_transpose_is_an_involution():
    rng = np.random.default_rng(2)
    for shape in [(3, 5), (2, 3, 5)]:
        x = Tensor(rng.normal(size=shape))
        assert np.array_equal(transpose(transpose(x)).data, x.data)
    x3 = Tensor(rng.normal(size=(2, 3, 5)))
    assert transpose(x3).shape == (2, 5, 3)


def test_slice_concat_reassembles():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(3, 7)))
    parts = [Tensor(x.data[:, 0:2]), Tensor(x.data[:, 2:5]), Tensor(x.data[:, 5:7])]
    assert np.array_equal(concat(parts, axis=1).data, x.data)


def test_mean_and_sum_axes_match_numpy():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(3, 4, 5)))
    assert np.allclose(x.sum(axis=1).data, x.data.sum(axis=1))
    # means are taken as a sum times a scalar, as the trainer does per batch
    assert np.allclose((x.sum(axis=(0, 2), keepdims=True) * (1.0 / 15)).data,
                       x.data.mean(axis=(0, 2), keepdims=True))
    assert (x.sum() * (1.0 / x.size)).item() == pytest.approx(float(x.data.mean()))


# ---------------------------------------------------------------------------
# shape diagnostics

def test_shape_errors_name_op_and_shapes():
    a = Tensor(np.zeros((3, 4)))
    with pytest.raises(ShapeError) as err:
        matmul(a, Tensor(np.zeros((3, 2))))
    assert "matmul" in str(err.value) and "(3, 4)" in str(err.value)
    with pytest.raises(ShapeError) as err:
        a.reshape(5, 5)
    assert "reshape" in str(err.value)
    with pytest.raises(ShapeError):
        transpose(Tensor(np.zeros(4)))
    with pytest.raises(ShapeError):
        concat([a, Tensor(np.zeros((2, 2)))], axis=1)
    with pytest.raises(ShapeError):
        cosine_similarity_matrix(a, Tensor(np.zeros((3, 5))))
    with pytest.raises(ShapeError):
        conv1d_depthwise(Tensor(np.zeros((2, 3, 5))), Tensor(np.zeros((4, 2))))


def test_catalog_is_exactly_the_published_kinds():
    # every public op of tmcn.tensor has a gradient case, and no case is stale
    ops = {name for name, f in vars(tensor).items()
           if inspect.isfunction(f) and f.__module__ == tensor.__name__
           and not name.startswith("_")} - {"parameter", "active_tape"}
    renamed = {"elementwise-mul": "mul", "sum": "tensor_sum"}
    assert {renamed.get(k, k.replace("-", "_")) for k in OP_KINDS} == ops


# ---------------------------------------------------------------------------
# convolution semantics

def test_conv_identity_kernel_is_identity():
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(2, 3, 8)))
    kernel = np.zeros((3, 4))
    kernel[:, 0] = 1.0
    out = conv1d_depthwise(x, Tensor(kernel))
    assert np.array_equal(out.data, x.data)


def test_conv_never_reads_the_future():
    rng = np.random.default_rng(7)
    base = rng.normal(size=(1, 2, 10))
    kernel = Tensor(rng.normal(size=(2, 4)))
    out_base = conv1d_depthwise(Tensor(base), kernel).data
    for t0 in [3, 7]:
        bumped = base.copy()
        bumped[0, :, t0] += 5.0
        out_bumped = conv1d_depthwise(Tensor(bumped), kernel).data
        assert np.array_equal(out_bumped[..., :t0], out_base[..., :t0])
        assert not np.allclose(out_bumped[..., t0], out_base[..., t0])


def test_conv_matches_loop_reference():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n, c, length = (int(v) for v in rng.integers(1, 6, size=3))
        k = int(rng.integers(1, 8))  # sometimes wider than the sequence
        x = rng.normal(size=(n, c, length))
        w = rng.normal(size=(c, k))
        got = conv1d_depthwise(Tensor(x), Tensor(w)).data
        assert np.allclose(got, conv_causal_reference(x, w), atol=1e-12)


# ---------------------------------------------------------------------------
# cosine similarity

def test_cosine_matrix_matches_loop_reference():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = rng.normal(size=(int(rng.integers(1, 6)), 4))
        b = rng.normal(size=(int(rng.integers(1, 6)), 4))
        got = cosine_similarity_matrix(Tensor(a), Tensor(b)).data
        assert np.allclose(got, cosine_matrix_reference(a, b), atol=1e-10)


def test_cosine_zero_rows_warn_instead_of_raising(caplog):
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.ones((2, 3)))
    with caplog.at_level(logging.WARNING, logger="tmcn.tensor"):
        out = cosine_similarity_matrix(a, b)
    assert "zero-norm" in caplog.text
    assert np.allclose(out.data, 0.0)


# ---------------------------------------------------------------------------
# tape semantics

def test_square_gradient_frozen_example():
    w = parameter([1.0, 2.0])
    with Tape() as tape:
        loss = (w * w).sum()
        tape.backward(loss)
    assert np.allclose(w.grad, [2.0, 4.0])


def test_unreached_leaf_reports_zero_gradient():
    # an unreached leaf keeps grad None, which the optimizer skips as zero
    w = parameter([1.0, 2.0])
    u = parameter([3.0])
    with Tape() as tape:
        loss = u.square().sum()
        tape.backward(loss)
    assert w.grad is None
    assert np.allclose(u.grad, [6.0])


def test_tape_is_single_use():
    w = parameter([2.0])
    with Tape() as tape:
        loss = w.square().sum()
        tape.backward(loss)
        with pytest.raises(RuntimeError) as err:
            tape.backward(loss)
    assert "consumed" in str(err.value)


def test_backward_rejects_vector_losses():
    w = parameter([1.0, 2.0])
    with Tape() as tape:
        out = w * 2.0
        with pytest.raises(ValueError):
            tape.backward(out)


def test_gradients_accumulate_across_reuse():
    w = parameter([1.0, -2.0])
    with Tape() as tape:
        loss = w.sum() + (w * 3.0).sum()
        tape.backward(loss)
    assert np.allclose(w.grad, [4.0, 4.0])


def test_no_tracking_outside_a_tape():
    w = parameter([1.0])
    out = w.square()
    assert not out.requires_grad
    assert w.grad is None


def test_constant_inputs_are_not_recorded():
    x = Tensor([1.0, 2.0])  # requires_grad False
    with Tape() as tape:
        out = x.square()
        assert not out.requires_grad
        assert tape._records == []


# ---------------------------------------------------------------------------
# finite-difference gradient checks

@pytest.mark.parametrize("kind", OP_KINDS)
def test_op_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(sum(kind.encode()))
    for _ in range(6):
        leaves, build = op_grad_case(kind, rng)
        check_grads(build, leaves, rtol=1e-5)


def test_three_layer_mlp_gradients():
    rng = np.random.default_rng(12)
    mlp = Mlp([4, 6, 5, 3], rng)
    x = Tensor(rng.normal(size=(5, 4)))
    leaves = list(mlp.params("net").values())
    check_grads(lambda: mlp(x), leaves, rtol=1e-5)

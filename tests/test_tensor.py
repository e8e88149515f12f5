"""Tensor core tests: frozen values, shape diagnostics, tape rules, gradients."""

import inspect
import logging
import math
import re
import sys
import tracemalloc
import warnings
import weakref

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
from tmcn.contrastive import ASCL_MODES
from tmcn.data import SyntheticSpec, generate_synthetic
from tmcn.nn import Affine, Mlp
from tmcn.tensor import (
    EPS,
    ShapeError,
    Tape,
    Tensor,
    _expit,
    add,
    ascl_term,
    concat,
    conv1d_depthwise,
    cosine_similarity_matrix,
    exp,
    matmul,
    mul,
    parameter,
    reshape,
    silu,
    softplus,
    square,
)
from tmcn.trainer import MODES, TrainConfig, evaluate, train


# ---------------------------------------------------------------------------
# forward values

def test_frozen_pointwise_values():
    assert silu(Tensor(1.0)).item() == pytest.approx(0.7310585786300049, abs=1e-15)
    assert softplus(Tensor(0.0)).item() == pytest.approx(0.6931471805599453, abs=1e-15)
    assert exp(Tensor(0.0)).item() == 1.0
    assert square(Tensor(3.0)).item() == 9.0


def test_expit_is_bracketed_by_a_math_exp_reference():
    # numpy's exp and math.exp may differ by 1 ulp; the rest is the same two
    # rounded IEEE steps, both monotone, so the result lies between the
    # reference's values at exp(-x) one ulp up and one ulp down
    rng = np.random.default_rng(12)
    x = np.concatenate([rng.normal(size=3000) * np.repeat([1.0, 8.0, 40.0], 1000),
                        rng.uniform(-700.0, 700.0, size=1000)])   # exp(700) is finite
    got = _expit(x)
    for xi, gi in zip(x.tolist(), got.tolist()):
        e = math.exp(-xi)
        assert 1.0 / (1.0 + math.nextafter(e, math.inf)) <= gi \
            <= 1.0 / (1.0 + math.nextafter(e, 0.0))


def test_expit_saturates_exactly_and_passes_nan():
    x = np.array([-np.inf, -1000.0, 1000.0, np.inf, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _expit(x)
    assert got[:4].tolist() == [0.0, 0.0, 1.0, 1.0]
    assert np.isnan(got[4])


def test_expit_leaves_its_input_and_takes_0d():
    x = np.random.default_rng(13).normal(size=(3, 4))
    before = x.copy()
    out = _expit(x)
    assert np.array_equal(x, before) and out is not x
    zero = np.array(0.0)
    half = _expit(zero)
    assert half.shape == () and float(half) == 0.5 and float(zero) == 0.0


def test_ascl_term_guards_a_denominator_that_underflows():
    # row 0's negatives are exp(-1e4) = 0, so its denominator is clamped at
    # EPS: the row reads pos_0 - log(EPS), and no infinity reaches the gradient
    tau = 0.5
    cos = parameter([[1.0, -1.0, -1.0], [-1.0, 1.0, 0.5], [-1.0, 0.5, 1.0]])
    weights = np.array([[0.0, 1e4, 1e4], [1e4, 0.0, 1.0], [1e4, 1.0, 0.0]])
    with Tape() as tape:
        term, clamped = ascl_term(cos, weights, tau, "self-excluded", 1e-8)
        tape.backward(term)
    want = (1.0 / tau - np.log(EPS)) + 2.0 * (1.0 / tau - np.log(np.exp(0.5)))
    assert clamped == 0 and term.item() == pytest.approx(want, rel=1e-15)
    assert np.isfinite(cos.grad).all()
    assert cos.grad[0].tolist() == [1.0 / tau, 0.0, 0.0]


def test_relu_passes_gradient_only_where_its_input_is_positive():
    # the mask is read off the output, which gives a > 0 at -0.0 and NaN too;
    # one column keeps the NaN's product in its own row
    x = parameter([[-1.0], [-0.0], [0.0], [np.nan], [2.0]])
    with Tape() as tape:
        tape.backward(matmul(x, [[1.0]], relu=True).sum())
    assert x.grad.tolist() == [[0.0], [0.0], [0.0], [0.0], [1.0]]


def test_operator_sugar_matches_numpy():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=(3, 4)))
    assert np.allclose((a + b).data, a.data + b.data)
    assert np.allclose((a * b).data, a.data * b.data)
    assert np.allclose((a * 2.5).data, a.data * 2.5)


def test_item_requires_single_element():
    with pytest.raises(ValueError):
        Tensor([1.0, 2.0]).item()


# ---------------------------------------------------------------------------
# structural bijections

def test_reshape_round_trip():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(4, 6)))
    back = reshape(reshape(x, (2, 3, 4)), (4, 6))
    assert np.array_equal(back.data, x.data)


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
    assert (x.sum() * (1.0 / x.data.size)).item() == pytest.approx(float(x.data.mean()))


# ---------------------------------------------------------------------------
# shape diagnostics

def test_shape_errors_name_op_and_shapes():
    a = Tensor(np.zeros((3, 4)))
    with pytest.raises(ShapeError) as err:
        matmul(a, Tensor(np.zeros((3, 2))))
    assert "matmul" in str(err.value) and "(3, 4)" in str(err.value)
    with pytest.raises(ShapeError) as err:
        reshape(a, (5, 5))
    assert "reshape" in str(err.value)
    with pytest.raises(ShapeError):
        concat([a, Tensor(np.zeros((2, 2)))], axis=1)
    with pytest.raises(ShapeError):
        cosine_similarity_matrix(a, Tensor(np.zeros((3, 5))))
    with pytest.raises(ShapeError):
        conv1d_depthwise(Tensor(np.zeros((2, 5, 3))), Tensor(np.zeros((4, 2))))


def _engine_code() -> dict:
    """Code object -> name of every function of tmcn.tensor and every
    method and property getter of ``Tensor`` and ``Tape``."""
    code = {f.__code__: name for name, f in vars(tensor).items()
            if inspect.isfunction(f) and f.__module__ == tensor.__name__}
    for cls in (Tensor, Tape):
        for name, member in vars(cls).items():
            f = member.fget if isinstance(member, property) else member
            if inspect.isfunction(f):
                code[f.__code__] = f"{cls.__name__}.{name}"
    return code


def test_every_engine_entry_point_serves_a_model_path():
    # train + evaluate in every mode and denominator convention enter each
    # function and method of the engine: one that only tests reach is dead code
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    data = generate_synthetic(SyntheticSpec(n_samples=40, n_clusters=2, view_dims=[5, 4]))
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for mode in MODES:
            for ascl_mode in ASCL_MODES:
                config = TrainConfig(hidden_dims=(8,), seq_len=2, seq_dim=4, state_size=2,
                                     proj_dim=4, pretrain_epochs=1, joint_epochs=1,
                                     batch_size=16, mode=mode, ascl_mode=ascl_mode)
                evaluate(train(config, data)[0], data)
    finally:
        sys.setprofile(previous)
    unreached = sorted(name for code, name in _engine_code().items()
                       if code not in entered and name != "Tensor.__repr__")
    assert unreached == [], f"no model path enters {unreached}"


def test_catalog_is_exactly_the_published_kinds():
    # every public op of tmcn.tensor has a gradient case, and no case is stale
    ops = {name for name, f in vars(tensor).items()
           if inspect.isfunction(f) and f.__module__ == tensor.__name__
           and not name.startswith("_")} - {"parameter", "active_tape"}
    renamed = {"elementwise-mul": "mul", "sum": "tensor_sum", "relu": "matmul"}
    assert {renamed.get(k, k.replace("-", "_")) for k in OP_KINDS} == ops


# ---------------------------------------------------------------------------
# convolution semantics

def test_conv_identity_kernel_is_identity():
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(2, 8, 3)))
    kernel = np.zeros((3, 4))
    kernel[:, 0] = 1.0
    out = conv1d_depthwise(x, Tensor(kernel))
    assert np.array_equal(out.data, x.data)


def test_conv_never_reads_the_future():
    rng = np.random.default_rng(7)
    base = rng.normal(size=(1, 10, 2))
    kernel = Tensor(rng.normal(size=(2, 4)))
    out_base = conv1d_depthwise(Tensor(base), kernel).data
    for t0 in [3, 7]:
        bumped = base.copy()
        bumped[0, t0] += 5.0
        out_bumped = conv1d_depthwise(Tensor(bumped), kernel).data
        assert np.array_equal(out_bumped[:, :t0], out_base[:, :t0])
        assert not np.allclose(out_bumped[:, t0], out_base[:, t0])


def test_conv_matches_loop_reference():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n, c, length = (int(v) for v in rng.integers(1, 6, size=3))
        k = int(rng.integers(1, 8))  # sometimes wider than the sequence
        x = rng.normal(size=(n, length, c))
        w = rng.normal(size=(c, k))
        got = conv1d_depthwise(Tensor(x), Tensor(w)).data
        want = np.swapaxes(conv_causal_reference(np.swapaxes(x, 1, 2), w), 1, 2)
        assert np.allclose(got, want, atol=1e-12)


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
        loss = square(u).sum()
        tape.backward(loss)
    assert w.grad is None
    assert np.allclose(u.grad, [6.0])


def test_tape_is_single_use():
    w = parameter([2.0])
    with Tape() as tape:
        loss = square(w).sum()
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
    out = square(w)
    assert not out.requires_grad
    assert w.grad is None


def test_sweep_frees_a_node_output_before_its_backward_runs():
    # the closure gets only the gradient: with no outside reference, the
    # node's output, its data and its .grad slot are gone while it runs
    class Node(Tensor):         # a subclass without __slots__ takes weak references
        pass

    w = parameter([1.0, -2.0])
    dead = []
    with Tape() as tape:
        out = Node(w.data * 3.0, requires_grad=True)
        node = weakref.ref(out)

        def backward(g):
            dead.append(node() is None)
            tensor._accum(w, g * 3.0)

        tape.record(out, (w,), backward)
        loss = out.sum()
        del out
        tape.backward(loss)
    assert dead == [True]
    assert np.array_equal(w.grad, [3.0, 3.0])


def test_constant_inputs_are_not_recorded():
    x = Tensor([1.0, 2.0])  # requires_grad False
    with Tape() as tape:
        out = square(x)
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


def test_affine_maps_the_last_axis_like_the_flattened_rows():
    # one GEMM over the flattened rows either way, so the bits agree
    rng = np.random.default_rng(13)
    layer = Affine.init(4, 3, rng)
    layer.b.data = rng.normal(size=3)
    x = rng.normal(size=(2, 5, 4))
    probe = rng.normal(size=(2, 5, 3))
    outs, grads = [], []
    for shape in [(2, 5, 4), (10, 4)]:
        xt = parameter(x.reshape(shape))
        layer.w.grad = None
        with Tape() as tape:
            out = layer(xt)
            tape.backward((out * Tensor(probe.reshape(out.shape))).sum())
        outs.append(out.data)
        grads.append((xt.grad, layer.w.grad))
    assert outs[0].shape == (2, 5, 3)
    assert np.array_equal(outs[0], outs[1].reshape(2, 5, 3))
    assert np.array_equal(grads[0][0], grads[1][0].reshape(2, 5, 4))
    assert np.array_equal(grads[0][1], grads[1][1])
    with pytest.raises(ShapeError, match=r"affine: expected input \(\.\.\., 4\)"):
        layer(Tensor(np.zeros((2, 5, 3))))


# ---------------------------------------------------------------------------
# the bias operand of matmul, and what the tape keeps

@pytest.mark.parametrize("a_shape", [(5, 4), (2, 3, 4)])
def test_matmul_bias_gradients_match_finite_differences(a_shape):
    rng = np.random.default_rng(21)
    a = parameter(rng.normal(size=a_shape))
    b = parameter(rng.normal(size=(4, 3)))
    bias = parameter(rng.normal(size=3))
    check_grads(lambda: matmul(a, b, bias), [a, b, bias], rtol=1e-5)


@pytest.mark.parametrize("a_shape", [(7, 5), (3, 6, 5)])
def test_matmul_bias_is_bitwise_add_of_matmul(a_shape):
    rng = np.random.default_rng(22)
    a = parameter(rng.normal(size=a_shape))
    b = parameter(rng.normal(size=(5, 4)))
    bias = parameter(rng.normal(size=4))
    probe = Tensor(rng.normal(size=a_shape[:-1] + (4,)))
    results = []
    for build in (lambda: matmul(a, b, bias), lambda: add(matmul(a, b), bias)):
        for t in (a, b, bias):
            t.grad = None
        with Tape() as tape:
            out = build()
            tape.backward((out * probe).sum())
        results.append([out.data, a.grad, b.grad, bias.grad])
    for fused, reference in zip(*results):
        assert np.array_equal(fused, reference)


@pytest.mark.parametrize("bias", [False, True])
def test_matmul_relu_is_bitwise_the_masked_dense_node(bias):
    # the fused relu forward is max(pre, 0); its backward hands the dense node
    # g * (out > 0), so a plain node fed that gradient gives the same bits
    rng = np.random.default_rng(26)
    a = parameter(rng.normal(size=(2, 7, 5)))
    b = parameter(rng.normal(size=(5, 4)))
    operands = (a, b, parameter(rng.normal(size=4))) if bias else (a, b)
    probe = rng.normal(size=(2, 7, 4))
    results = []
    for relu in (True, False):
        for t in operands:
            t.grad = None
        with Tape() as tape:
            out = matmul(*operands, relu=relu)
            g = probe if relu else probe * (out.data > 0.0)
            tape.backward((out * Tensor(g)).sum())
        results.append([np.maximum(out.data, 0.0)] + [t.grad for t in operands])
    assert (results[0][0] == 0.0).any() and (results[0][0] > 0.0).any()
    for fused, reference in zip(*results):
        assert np.array_equal(fused, reference)


def test_matmul_refuses_a_bias_of_the_wrong_shape():
    a, b = Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 5)))
    for shape in [(4,), (1, 5), ()]:
        with pytest.raises(ShapeError, match=rf"matmul: bias shape {re.escape(str(shape))}"):
            matmul(a, b, Tensor(np.zeros(shape)))


def test_silu_gradient_is_bitwise_the_stored_sigmoid_form():
    rng = np.random.default_rng(23)
    x = parameter(rng.normal(size=(6, 5)) * 4.0)
    g = rng.normal(size=(6, 5))
    with Tape() as tape:
        tape.backward((silu(x) * Tensor(g)).sum())
    s = _expit(x.data)
    assert np.array_equal(x.grad, g * (s * (1.0 + x.data * (1.0 - s))))


def _taped_bytes(build, x):
    """Bytes newly allocated and still alive after ``build(x)`` under a live tape."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape():
            out = build(x)
            kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return kept, out.data.nbytes


@pytest.mark.parametrize("op", ["affine", "affine-relu", "silu"])
def test_dense_layer_and_silu_keep_one_output_array_on_the_tape(op):
    # the bias is added and the relu taken in the GEMM output, and silu
    # recomputes its sigmoid in backward: each keeps its output, not a second array
    rng = np.random.default_rng(24)
    x = parameter(rng.normal(size=(256, 24, 16)))
    layer = Affine.init(16, 16, rng)
    build = {"affine": layer, "affine-relu": lambda v: layer(v, relu=True), "silu": silu}[op]
    kept, nbytes = _taped_bytes(build, x)
    assert kept <= nbytes + 8 * 1024, f"{op} keeps {kept} bytes for a {nbytes}-byte output"


@pytest.mark.parametrize("hidden", [0, 1, 3])
def test_mlp_tapes_one_node_per_layer(hidden):
    # each hidden relu is fused into its dense node: H + 1 records, not 2H + 1
    rng = np.random.default_rng(27)
    mlp = Mlp([4] + [6] * hidden + [3], rng)
    with Tape() as tape:
        mlp(Tensor(rng.normal(size=(5, 4))))
        assert len(tape._records) == hidden + 1


def test_backward_computes_no_gradient_for_a_constant_operand():
    # mul(parameter, constant): g * constant for the parameter, and no g * parameter
    rng = np.random.default_rng(25)
    w = parameter(rng.normal(size=(512, 256)))
    c = Tensor(rng.normal(size=(512, 256)))
    with Tape() as tape:
        loss = mul(w, c).sum()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert np.array_equal(w.grad, c.data) and c.grad is None
    assert peak <= w.data.nbytes + 64 * 1024, f"backward peaked at {peak} bytes"


def test_three_layer_mlp_gradients():
    rng = np.random.default_rng(12)
    mlp = Mlp([4, 6, 5, 3], rng)
    x = Tensor(rng.normal(size=(5, 4)))
    leaves = list(mlp.params("net").values())
    check_grads(lambda: mlp(x), leaves, rtol=1e-5)

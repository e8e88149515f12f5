"""Fusion block tests: token layout, conv branch, scan semantics, gradients."""

import numpy as np
import pytest

from helpers import check_grads, scan_reference
from tmcn.fusion import (
    MambaParams,
    SelectiveFusion,
    branch_project,
    concat_views,
    conv_branch,
    convert_to_vector,
    fine_grain,
    gate_and_contract,
    selective_scan,
)
from tmcn.nn import Affine
from tmcn.tensor import ShapeError, Tensor, parameter, silu
from tmcn.trainer import ModelConfig


def _random_scan_params(rng, dp, state):
    return MambaParams(
        a_log=parameter(rng.normal(scale=0.5, size=(dp, state))),
        b_proj=parameter(rng.normal(scale=0.5, size=(dp, state))),
        c_proj=parameter(rng.normal(scale=0.5, size=(dp, state))),
        delta_proj=parameter(rng.normal(scale=0.5, size=(dp, dp))),
        delta_bias=parameter(rng.normal(scale=0.5, size=dp)),
        skip=parameter(rng.normal(size=dp)),
    )


# ---------------------------------------------------------------------------
# token layout

def test_fine_grain_token_layout():
    z = Tensor(np.arange(12.0).reshape(1, 12))
    seq = fine_grain(z, 3, 4)
    assert seq.shape == (1, 3, 4)
    for t in range(3):
        assert np.array_equal(seq.data[0, t], z.data[0, t * 4:(t + 1) * 4])


def test_concat_views_puts_view_m_token_t_at_position_m_l_plus_t():
    rng = np.random.default_rng(0)
    l, d = 3, 2
    zs = [Tensor(rng.normal(size=(2, l * d))) for _ in range(2)]
    e = concat_views([fine_grain(z, l, d) for z in zs])
    assert e.shape == (2, 2 * l, d)
    for m in range(2):
        for t in range(l):
            assert np.array_equal(e.data[:, m * l + t], zs[m].data[:, t * d:(t + 1) * d])


def test_flatten_inverts_fine_grain():
    rng = np.random.default_rng(1)
    z = Tensor(rng.normal(size=(4, 10)))
    assert np.array_equal(convert_to_vector(fine_grain(z, 5, 2)).data, z.data)


def test_layout_shape_errors():
    with pytest.raises(ShapeError, match="fine-grain"):
        fine_grain(Tensor(np.zeros((2, 7))), 3, 2)
    with pytest.raises(ShapeError, match="concat-views"):
        concat_views([Tensor(np.zeros((2, 3, 2))), Tensor(np.zeros((2, 4, 2)))])
    with pytest.raises(ShapeError, match="concat-views"):
        concat_views([])


# ---------------------------------------------------------------------------
# branches

def test_branch_projection_with_explicit_weights():
    # project token [a, b] to [a, b, 0, 0]: weight [I; 0], zero bias
    w = np.zeros((2, 4))
    w[0, 0] = w[1, 1] = 1.0
    layer = Affine(parameter(w), parameter(np.zeros(4)))
    e = Tensor(np.arange(12.0).reshape(2, 3, 2))
    p, q = branch_project(e, layer, layer)
    assert p.shape == (2, 3, 4)
    assert np.array_equal(p.data[..., :2], e.data)
    assert np.array_equal(p.data[..., 2:], np.zeros((2, 3, 2)))
    assert np.array_equal(q.data, p.data)


def test_conv_branch_identity_kernel_is_pointwise_silu():
    rng = np.random.default_rng(2)
    p = Tensor(rng.normal(size=(2, 5, 3)))  # (N, L, dp)
    kernel = np.zeros((3, 4))
    kernel[:, 0] = 1.0
    out = conv_branch(p, Tensor(kernel))
    assert out.shape == (2, 3, 5)  # channels-first
    expected = silu(Tensor(np.swapaxes(p.data, 1, 2))).data
    assert np.allclose(out.data, expected, atol=1e-15)


# ---------------------------------------------------------------------------
# selective scan

def test_scan_single_step_hand_computation():
    # dp = state = L = N = 1; delta_bias chosen so softplus gives exactly 1
    params = MambaParams(
        a_log=parameter([[0.0]]),                      # A = -1
        b_proj=parameter([[0.5]]),
        c_proj=parameter([[1.5]]),
        delta_proj=parameter([[0.0]]),
        delta_bias=parameter([np.log(np.e - 1.0)]),    # softplus -> 1
        skip=parameter([0.25]),
    )
    x = Tensor(np.full((1, 1, 1), 2.0))
    out = selective_scan(x, params)
    # h = 1 * 0 + delta*b*x = 1 * (0.5*2) * 2 = 2; y = c*h + skip*x = 3*2 + 0.5
    assert out.data[0, 0, 0] == pytest.approx(6.5, abs=1e-12)


def test_scan_matches_scalar_reference():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        length = int(rng.integers(1, 7))
        dp = int(rng.integers(1, 5))
        state = int(rng.integers(1, 4))
        params = _random_scan_params(rng, dp, state)
        x = rng.normal(size=(n, length, dp))
        got = selective_scan(Tensor(x), params).data
        ref = scan_reference(x, params.a_log.data, params.b_proj.data,
                             params.c_proj.data, params.delta_proj.data,
                             params.delta_bias.data, params.skip.data)
        assert np.max(np.abs(got - ref)) < 1e-10


def test_scan_state_stays_bounded_on_long_constant_input():
    # negative decay exponents keep every step factor inside (0, 1)
    rng = np.random.default_rng(4)
    params = _random_scan_params(rng, 3, 2)
    x = Tensor(np.ones((1, 200, 3)) * 2.0)
    out = selective_scan(x, params)
    assert np.all(np.isfinite(out.data))
    assert np.max(np.abs(out.data[0, -1])) < 1e3


def test_scan_raises_on_non_finite_state():
    rng = np.random.default_rng(5)
    params = _random_scan_params(rng, 2, 2)
    x = np.ones((1, 3, 2))
    x[0, 1, 0] = np.inf
    with np.errstate(invalid="ignore"):  # the poisoned input itself warns
        with pytest.raises(FloatingPointError, match="step 1"):
            selective_scan(Tensor(x), params)


def test_scan_shape_errors():
    rng = np.random.default_rng(6)
    params = _random_scan_params(rng, 3, 2)
    with pytest.raises(ShapeError, match="selective-scan"):
        selective_scan(Tensor(np.zeros((2, 4))), params)
    with pytest.raises(ShapeError, match="a_log"):
        selective_scan(Tensor(np.zeros((1, 2, 5))), params)


# ---------------------------------------------------------------------------
# gate

def test_gate_passes_large_activations_through():
    # silu(50)/50 is 1 up to ~1e-22, so the gate multiplier is q itself
    scanned = Tensor(np.ones((1, 2, 3)))
    q = Tensor(np.full((1, 2, 3), 50.0))
    ident = Affine(parameter(np.eye(3)), parameter(np.zeros(3)))
    out = gate_and_contract(scanned, q, ident)
    assert np.allclose(out.data, 50.0, atol=50.0 * 1e-10)


def test_gate_shape_mismatch():
    ident = Affine(parameter(np.eye(3)), parameter(np.zeros(3)))
    with pytest.raises(ShapeError, match="gate"):
        gate_and_contract(Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((1, 3, 3))), ident)


# ---------------------------------------------------------------------------
# the block

def test_forward_shape_law():
    cfg = ModelConfig(seq_len=3, seq_dim=4, expand_factor=2, state_size=3, conv_width=2)
    block = SelectiveFusion(2, cfg, np.random.default_rng(7))
    zs = [Tensor(np.random.default_rng(8).normal(size=(5, 12))) for _ in range(2)]
    out = block(zs)
    assert out.shape == (5, 2 * 3 * 4)
    with pytest.raises(ShapeError, match="views"):
        block([zs[0]])


def test_param_names_are_stable():
    cfg = ModelConfig(seq_len=2, seq_dim=2, expand_factor=2, state_size=2, conv_width=2)
    block = SelectiveFusion(2, cfg, np.random.default_rng(9))
    assert set(block.params()) == {
        "fusion.branch_p.weight", "fusion.branch_p.bias",
        "fusion.branch_q.weight", "fusion.branch_q.bias",
        "fusion.conv.kernel",
        "fusion.ssm.a_log", "fusion.ssm.b_proj", "fusion.ssm.c_proj",
        "fusion.ssm.delta_proj", "fusion.ssm.delta_bias", "fusion.ssm.skip",
        "fusion.contract.weight", "fusion.contract.bias",
    }


def test_initial_step_sizes_sit_in_the_declared_band():
    cfg = ModelConfig(seq_len=2, seq_dim=4, expand_factor=2)
    block = SelectiveFusion(1, cfg, np.random.default_rng(10))
    steps = np.logaddexp(0.0, block.ssm.delta_bias.data)  # softplus at zero input
    assert np.all(steps >= 0.01 - 1e-12) and np.all(steps <= 0.1 + 1e-12)
    assert np.all(-np.exp(block.ssm.a_log.data) < 0.0)


def test_full_block_gradients_match_finite_differences():
    cfg = ModelConfig(seq_len=2, seq_dim=2, expand_factor=2, state_size=2, conv_width=2)
    rng = np.random.default_rng(11)
    block = SelectiveFusion(2, cfg, rng)
    zs = [parameter(rng.normal(size=(2, 4))) for _ in range(2)]
    leaves = list(block.params().values()) + zs
    check_grads(lambda: block(zs), leaves, rtol=1e-4)

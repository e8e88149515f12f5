"""Fusion block tests: scan semantics, token layout, numpy reference, gradients."""

import numpy as np
import pytest

from helpers import check_grads, conv_causal_reference, scan_reference
from tmcn.fusion import MambaParams, SelectiveFusion, selective_scan
from tmcn.tensor import SCAN_BLOCK_ROWS, ShapeError, Tape, Tensor, concat, parameter, state_scan
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


def _raw_scan_inputs(rng, n, length, channels, state):
    """Leaves for ``state_scan`` in its domain: delta positive, decay rates negative."""
    return [rng.normal(size=(n, length, channels)),
            rng.uniform(0.05, 0.8, size=(n, length, channels)),
            rng.normal(size=(n, length, state)), rng.normal(size=(n, length, state)),
            rng.uniform(-2.0, -0.2, size=(channels, state)), rng.normal(size=channels)]


def _scan_grads(arrays, probe):
    leaves = [parameter(a.copy()) for a in arrays]
    with Tape() as tape:
        tape.backward((state_scan(*leaves) * Tensor(probe)).sum())
    return [t.grad for t in leaves]


def test_scan_across_row_blocks_matches_reference_and_one_row_calls():
    # 130 rows sweep as blocks of 64, 64 and 2; 6 tokens replay in 2 segments
    n = 130
    assert SCAN_BLOCK_ROWS == 64
    rng = np.random.default_rng(15)
    params = _random_scan_params(rng, 3, 2)
    x = rng.normal(size=(n, 6, 3))
    got = selective_scan(Tensor(x), params).data
    ref = scan_reference(x, params.a_log.data, params.b_proj.data, params.c_proj.data,
                         params.delta_proj.data, params.delta_bias.data, params.skip.data)
    assert np.max(np.abs(got - ref)) < 1e-10

    arrays = _raw_scan_inputs(rng, n, 6, 3, 2)
    probe = rng.normal(size=(n, 6, 3))
    full = _scan_grads(arrays, probe)
    rows = [_scan_grads([a[i:i + 1] for a in arrays[:4]] + arrays[4:], probe[i:i + 1])
            for i in range(n)]
    for k in range(4):      # x, delta, b, c: row i's gradient comes from row i alone
        want = np.concatenate([r[k] for r in rows])
        assert np.max(np.abs(full[k] - want)) <= 1e-12 * np.max(np.abs(want))
    for k in (4, 5):        # a, skip: summed over the rows
        want = sum(r[k] for r in rows)
        assert np.max(np.abs(full[k] - want)) <= 1e-12 * np.max(np.abs(want))


def test_scan_names_the_earliest_non_finite_step_across_row_blocks():
    # row 3 sits in the first block and breaks at step 4, row 70 in the second at step 1
    x, delta, b_seq, c_seq, a, skip = _raw_scan_inputs(np.random.default_rng(16), 130, 6, 3, 2)
    x[3, 4, 0] = np.inf
    x[70, 1, 0] = np.inf
    with pytest.raises(FloatingPointError, match="step 1$"):
        state_scan(x, delta, b_seq, c_seq, a, skip)


def test_scan_shape_errors():
    rng = np.random.default_rng(6)
    params = _random_scan_params(rng, 3, 2)
    with pytest.raises(ShapeError, match="selective-scan"):
        selective_scan(Tensor(np.zeros((2, 4))), params)
    with pytest.raises(ShapeError, match="a_log"):
        selective_scan(Tensor(np.zeros((1, 2, 5))), params)


# ---------------------------------------------------------------------------
# the block

def test_forward_shape_law():
    cfg = ModelConfig(seq_len=3, seq_dim=4, expand_factor=2, state_size=3, conv_width=2)
    block = SelectiveFusion(2, cfg, np.random.default_rng(7))
    zs = [Tensor(np.random.default_rng(8).normal(size=(5, 12))) for _ in range(2)]
    out = block(concat(zs, axis=1))
    assert out.shape == (5, 2 * 3 * 4)
    with pytest.raises(ShapeError, match="fusion"):
        block(zs[0])
    with pytest.raises(ShapeError, match="fusion"):
        block(Tensor(np.zeros((5, 2, 12))))


def test_block_matches_numpy_reference():
    l, d, dp = 3, 2, 4
    cfg = ModelConfig(seq_len=l, seq_dim=d, expand_factor=dp // d, state_size=3, conv_width=3)
    rng = np.random.default_rng(12)
    block = SelectiveFusion(2, cfg, rng)
    for param in block.params().values():  # every path carries weight, unlike at init
        param.data = rng.normal(scale=0.5, size=param.data.shape)
    w = {name.removeprefix("fusion."): param.data for name, param in block.params().items()}
    u = rng.normal(size=(3, 2 * l * d))

    def silu(x):
        return x / (1.0 + np.exp(-x))

    tokens = u.reshape(3, 2 * l, d)
    p = tokens @ w["branch_p.weight"] + w["branch_p.bias"]
    q = tokens @ w["branch_q.weight"] + w["branch_q.bias"]
    causal = silu(conv_causal_reference(np.swapaxes(p, 1, 2), w["conv.kernel"]))
    scanned = scan_reference(np.swapaxes(causal, 1, 2), w["ssm.a_log"], w["ssm.b_proj"],
                             w["ssm.c_proj"], w["ssm.delta_proj"], w["ssm.delta_bias"],
                             w["ssm.skip"])
    ref = (scanned * silu(q)) @ w["contract.weight"] + w["contract.bias"]
    got = block(Tensor(u)).data
    assert np.max(np.abs(got - ref.reshape(3, 2 * l * d))) < 1e-10


def test_token_position_follows_view_order():
    # token t of view m is fused token m*l + t, and no fused token sees a later one
    l, d = 3, 2
    cfg = ModelConfig(seq_len=l, seq_dim=d, expand_factor=2, state_size=2, conv_width=2)
    block = SelectiveFusion(2, cfg, np.random.default_rng(13))
    zs = [np.random.default_rng(14 + m).normal(size=(2, l * d)) for m in range(2)]

    def fused(views):
        return block(concat([Tensor(z) for z in views], axis=1)).data.reshape(2, 2 * l, d)

    base = fused(zs)
    for t in range(l):
        bumped = [zs[0], zs[1].copy()]
        bumped[1][:, t * d:(t + 1) * d] += 1.0
        out = fused(bumped)
        assert np.array_equal(out[:, :l + t], base[:, :l + t])
        assert not np.array_equal(out[:, l + t], base[:, l + t])


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
    check_grads(lambda: block(concat(zs, axis=1)), leaves, rtol=1e-4)

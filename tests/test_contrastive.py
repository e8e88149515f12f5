"""Similarity matrix, projection head and weighted contrastive loss tests."""

import tracemalloc

import numpy as np
import pytest

from helpers import (
    check_grads,
    composed_contrastive_loss,
    contrastive_reference,
    cosine_matrix_reference,
)
from tmcn.contrastive import (
    ContrastiveStats,
    ProjectionHeads,
    average_similarity,
    contrastive_loss,
    project,
    view_similarity,
)
from tmcn.tensor import ShapeError, Tape, Tensor, parameter
from tmcn.trainer import TrainConfig


def _random_inputs(rng, n=5, m=2, d=4):
    h_fused = Tensor(rng.normal(size=(n, d)))
    h_views = [Tensor(rng.normal(size=(n, d))) for _ in range(m)]
    sim = average_similarity([view_similarity(rng.normal(size=(n, 6))) for _ in range(m)])
    return h_fused, h_views, sim


# ---------------------------------------------------------------------------
# similarity matrices

def test_view_similarity_properties_and_values():
    rng = np.random.default_rng(0)
    for _ in range(5):
        z = rng.normal(size=(6, 4))
        s = view_similarity(z)
        assert np.array_equal(s, s.T)
        assert np.all(np.diag(s) == 1.0)
        assert s.min() >= -1.0 and s.max() <= 1.0
        ref = cosine_matrix_reference(z, z)
        off = ~np.eye(6, dtype=bool)
        assert np.allclose(s[off], ref[off], atol=1e-10)


def test_view_similarity_zero_rows_guarded():
    z = np.zeros((3, 4))
    z[0] = [1.0, 0.0, 0.0, 0.0]
    s = view_similarity(z)
    assert s[0, 1] == 0.0 and s[1, 2] == 0.0
    assert np.all(np.diag(s) == 1.0)


def test_average_similarity_is_the_mean():
    rng = np.random.default_rng(1)
    mats = [view_similarity(rng.normal(size=(4, 3))) for _ in range(3)]
    avg = average_similarity(mats)
    assert np.allclose(avg, np.mean(mats, axis=0))
    with pytest.raises(ShapeError):
        average_similarity([np.eye(3), np.eye(4)])
    with pytest.raises(ValueError):
        average_similarity([])


# ---------------------------------------------------------------------------
# projection heads

def test_heads_shapes_and_param_names():
    rng = np.random.default_rng(2)
    heads = ProjectionHeads.init(fused_dim=8, view_dim=4, n_views=2, proj_dim=3, rng=rng)
    u = Tensor(rng.normal(size=(5, 8)))
    zs = [Tensor(rng.normal(size=(5, 4))) for _ in range(2)]
    h_fused, h_views = project(u, zs, heads)
    assert h_fused.shape == (5, 3)
    assert all(h.shape == (5, 3) for h in h_views)
    assert set(heads.params()) == {
        "heads.fused.weight", "heads.fused.bias",
        "heads.view0.weight", "heads.view0.bias",
        "heads.view1.weight", "heads.view1.bias",
    }
    with pytest.raises(ShapeError, match="project"):
        project(u, zs[:1], heads)


# ---------------------------------------------------------------------------
# loss values

def test_two_sample_closed_form():
    # orthogonal pairs at tau=1: pos term 1, denominator 1, loss -(1/4)*2
    h = Tensor(np.eye(2))
    sim = np.eye(2)
    config = TrainConfig(temperature=1.0, ascl_mode="self-excluded")
    loss, stats = contrastive_loss(h, [Tensor(np.eye(2))], sim, config)
    assert loss.item() == pytest.approx(-0.5, abs=1e-9)
    assert stats.clamped == 0 and stats.terms == 2


def test_two_sample_literal_mode_clamps_every_term():
    # same geometry: sum over all j gives 2, minus e**(1/tau) = e goes negative
    h = Tensor(np.eye(2))
    config = TrainConfig(temperature=1.0, ascl_mode="literal")
    loss, stats = contrastive_loss(h, [Tensor(np.eye(2))], np.eye(2), config)
    assert stats.clamp_frac == 1.0
    assert stats.terms == 2
    assert np.isfinite(loss.item())


@pytest.mark.parametrize("mode", ["self-excluded", "literal"])
def test_loss_matches_term_by_term_reference(mode):
    rng = np.random.default_rng(3)
    for _ in range(8):
        h_fused, h_views, sim = _random_inputs(rng)
        config = TrainConfig(temperature=0.7, ascl_mode=mode)
        loss, stats = contrastive_loss(h_fused, h_views, sim, config)
        cos_mats = [cosine_matrix_reference(h_fused.data, h.data) for h in h_views]
        ref_loss, ref_clamped = contrastive_reference(cos_mats, sim, 0.7, mode, 1e-8)
        assert loss.item() == pytest.approx(ref_loss, abs=1e-10)
        assert stats.clamped == ref_clamped


def test_higher_similarity_weakens_repulsion():
    # positive off-diagonal cosines: scaling their exponent down by (1 - S)
    # shrinks the denominator, so the loss must drop
    rng = np.random.default_rng(4)
    h_fused = Tensor(rng.uniform(0.5, 1.5, size=(4, 3)))
    h_views = [Tensor(rng.uniform(0.5, 1.5, size=(4, 3)))]
    config = TrainConfig(temperature=0.5)
    flat = np.eye(4)
    merged = np.full((4, 4), 0.9)
    np.fill_diagonal(merged, 1.0)
    low, _ = contrastive_loss(h_fused, h_views, flat, config)
    high, _ = contrastive_loss(h_fused, h_views, merged, config)
    assert high.item() < low.item()


def test_loss_is_invariant_under_a_common_rotation():
    rng = np.random.default_rng(5)
    h_fused, h_views, sim = _random_inputs(rng, n=6, m=2, d=4)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    config = TrainConfig()
    base, _ = contrastive_loss(h_fused, h_views, sim, config)
    rot, _ = contrastive_loss(Tensor(h_fused.data @ q),
                              [Tensor(h.data @ q) for h in h_views], sim, config)
    assert rot.item() == pytest.approx(base.item(), abs=1e-9)


# ---------------------------------------------------------------------------
# gradients and detachment

@pytest.mark.parametrize("mode", ["self-excluded", "literal"])
def test_gradients_match_finite_differences(mode):
    rng = np.random.default_rng(6)
    n, m, d = 5, 2, 4
    h_fused = parameter(rng.normal(size=(n, d)))
    h_views = [parameter(rng.normal(size=(n, d))) for _ in range(m)]
    sim = average_similarity([view_similarity(rng.normal(size=(n, 6))) for _ in range(m)])
    # wide temperature keeps the literal denominator clear of its floor
    config = TrainConfig(temperature=2.0, ascl_mode=mode)
    _, stats = contrastive_loss(h_fused, h_views, sim, config)
    assert stats.clamped == 0

    def build():
        loss, _ = contrastive_loss(h_fused, h_views, sim, config)
        return loss

    check_grads(build, [h_fused, *h_views], rtol=1e-4)


def _loss_and_grads(loss_fn, leaves):
    for leaf in leaves:
        leaf.grad = None
    with Tape() as tape:
        loss = loss_fn()
        tape.backward(loss)
    return loss.data, [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("mode, tau", [("self-excluded", 0.5), ("literal", 0.5),
                                       ("literal", 0.25)])
def test_loss_and_gradients_are_bitwise_the_composed_formula(mode, tau):
    # at tau = 0.25, exp(1/tau) = 55 sits among the row sums of 40 samples:
    # some literal rows are floored and some are not
    rng = np.random.default_rng(8)
    n, d = 40, 6
    h_fused = parameter(rng.normal(size=(n, d)))
    h_views = [parameter(rng.normal(size=(n, d)) + h_fused.data) for _ in range(3)]
    sim = average_similarity([view_similarity(rng.normal(size=(n, 4)) + 1.0)
                              for _ in range(3)])
    config = TrainConfig(temperature=tau, ascl_mode=mode)
    leaves = [h_fused, *h_views]
    got, got_grads = _loss_and_grads(
        lambda: contrastive_loss(h_fused, h_views, sim, config)[0], leaves)
    want, want_grads = _loss_and_grads(
        lambda: composed_contrastive_loss(h_fused, h_views, sim, tau, mode, 1e-8), leaves)
    _, stats = contrastive_loss(h_fused, h_views, sim, config)
    if tau == 0.25:
        assert 0 < stats.clamped < n * len(h_views)
    assert got.tobytes() == want.tobytes()
    for g, w in zip(got_grads, want_grads):
        assert g.tobytes() == w.tobytes()


def test_literal_floored_row_passes_no_gradient():
    # Anchor 0 is nearly a duplicate of every other sample (S = 0.99), so its
    # negatives stay near exp(0) = 1 and its row sums to about 5, below
    # exp(1/0.5) = 7.4: that row is floored, by a margin no FD step crosses.
    # The aligned positive embeddings keep the other rows' sums near 20.
    rng = np.random.default_rng(9)
    n, d = 5, 4
    h_fused = parameter(rng.uniform(0.5, 1.5, size=(n, d)))
    h_views = [parameter(rng.uniform(0.5, 1.5, size=(n, d))) for _ in range(2)]
    sim = np.eye(n)
    sim[0, 1:] = sim[1:, 0] = 0.99
    config = TrainConfig(temperature=0.5, ascl_mode="literal")
    _, stats = contrastive_loss(h_fused, h_views, sim, config)
    assert stats.clamped == len(h_views)    # row 0 of each view's term

    def build():
        return contrastive_loss(h_fused, h_views, sim, config)[0]

    check_grads(build, [h_fused, *h_views], rtol=1e-4)


def test_loss_tape_keeps_the_shared_weights_and_no_matrix_per_view():
    # the 3-view acceptance step: each view's term reruns its cosine matrix
    # and exp(cos * W) in its own backward, so the tape keeps W alone
    rng = np.random.default_rng(10)
    n, proj_dim = 256, 128
    h_fused = parameter(rng.normal(size=(n, proj_dim)))
    h_views = [parameter(rng.normal(size=(n, proj_dim))) for _ in range(3)]
    sim = average_similarity([view_similarity(rng.normal(size=(n, 6))) for _ in range(3)])
    for mode in ("self-excluded", "literal"):
        config = TrainConfig(ascl_mode=mode)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                loss, _ = contrastive_loss(h_fused, h_views, sim, config)
                kept = tracemalloc.get_traced_memory()[0] - before
                tape.backward(loss)
        finally:
            tracemalloc.stop()
        arrays = kept / (n * n * 8)
        assert arrays < 1.5, f"{mode}: the tape keeps {arrays:.2f} (n, n) arrays"


def test_similarity_enters_as_a_constant():
    # embeddings that only feed the similarity matrix get no gradient
    rng = np.random.default_rng(7)
    z = parameter(rng.normal(size=(4, 6)))
    h_fused = parameter(rng.normal(size=(4, 3)))
    h_view = parameter(rng.normal(size=(4, 3)))
    with Tape() as tape:
        sim = view_similarity(z.data)
        loss, _ = contrastive_loss(h_fused, [h_view], sim, TrainConfig())
        tape.backward(loss)
    assert z.grad is None
    assert h_fused.grad is not None and h_view.grad is not None


# ---------------------------------------------------------------------------
# validation

def test_config_validation():
    # the loss reads these TrainConfig fields, and each error names the field
    with pytest.raises(ValueError, match="^temperature must"):
        TrainConfig(temperature=0.0)
    with pytest.raises(ValueError, match="^ascl_mode must be one of"):
        TrainConfig(ascl_mode="both")


@pytest.mark.parametrize("field, value", [
    ("temperature", float("inf")), ("temperature", float("nan")),
])
def test_config_refuses_non_finite_or_non_numeric_values(field, value):
    # the temperature the loss divides by is refused when the config is built
    with pytest.raises(ValueError, match=f"^{field} must be a finite positive number, got"):
        TrainConfig(**{field: value})


def test_loss_input_validation():
    config = TrainConfig()
    one = Tensor(np.ones((1, 3)))
    two = Tensor(np.ones((2, 3)))
    with pytest.raises(ShapeError, match="batch"):
        contrastive_loss(one, [one], np.eye(1), config)
    with pytest.raises(ValueError, match="view"):
        contrastive_loss(two, [], np.eye(2), config)
    with pytest.raises(ShapeError, match="similarity"):
        contrastive_loss(two, [two], np.eye(3), config)
    with pytest.raises(ValueError, match="symmetric"):
        bad = np.eye(2)
        bad[0, 1] = 0.5
        contrastive_loss(two, [two], bad, config)


def test_stats_clamp_frac():
    assert ContrastiveStats(clamped=3, terms=6).clamp_frac == 0.5
    assert ContrastiveStats(clamped=0, terms=0).clamp_frac == 0.0

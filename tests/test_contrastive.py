"""Similarity matrix, projection head and weighted contrastive loss tests."""

import numpy as np
import pytest

from helpers import check_grads, contrastive_reference, cosine_matrix_reference
from tmcn.contrastive import (
    ContrastiveConfig,
    ContrastiveStats,
    ProjectionHeads,
    average_similarity,
    contrastive_loss,
    project,
    view_similarity,
)
from tmcn.tensor import ShapeError, Tape, Tensor, parameter


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
    config = ContrastiveConfig(temperature=1.0, mode="self-excluded")
    loss, stats = contrastive_loss(h, [Tensor(np.eye(2))], sim, config)
    assert loss.item() == pytest.approx(-0.5, abs=1e-9)
    assert stats.clamped == 0 and stats.terms == 2


def test_two_sample_literal_mode_clamps_every_term():
    # same geometry: sum over all j gives 2, minus e**(1/tau) = e goes negative
    h = Tensor(np.eye(2))
    config = ContrastiveConfig(temperature=1.0, mode="literal", floor=1e-8)
    loss, stats = contrastive_loss(h, [Tensor(np.eye(2))], np.eye(2), config)
    assert stats.clamp_frac == 1.0
    assert stats.terms == 2
    assert np.isfinite(loss.item())


@pytest.mark.parametrize("mode", ["self-excluded", "literal"])
def test_loss_matches_term_by_term_reference(mode):
    rng = np.random.default_rng(3)
    for _ in range(8):
        h_fused, h_views, sim = _random_inputs(rng)
        config = ContrastiveConfig(temperature=0.7, mode=mode, floor=1e-8)
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
    config = ContrastiveConfig(temperature=0.5)
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
    config = ContrastiveConfig()
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
    config = ContrastiveConfig(temperature=2.0, mode=mode, floor=1e-8)
    _, stats = contrastive_loss(h_fused, h_views, sim, config)
    assert stats.clamped == 0

    def build():
        loss, _ = contrastive_loss(h_fused, h_views, sim, config)
        return loss

    check_grads(build, [h_fused, *h_views], rtol=1e-4)


def test_similarity_enters_as_a_constant():
    # embeddings that only feed the similarity matrix get no gradient
    rng = np.random.default_rng(7)
    z = parameter(rng.normal(size=(4, 6)))
    h_fused = parameter(rng.normal(size=(4, 3)))
    h_view = parameter(rng.normal(size=(4, 3)))
    with Tape() as tape:
        sim = view_similarity(z.data)
        loss, _ = contrastive_loss(h_fused, [h_view], sim, ContrastiveConfig())
        tape.backward(loss)
    assert z.grad is None
    assert h_fused.grad is not None and h_view.grad is not None


# ---------------------------------------------------------------------------
# validation

def test_config_validation():
    with pytest.raises(ValueError, match="temperature"):
        ContrastiveConfig(temperature=0.0)
    with pytest.raises(ValueError, match="mode"):
        ContrastiveConfig(mode="both")
    with pytest.raises(ValueError, match="floor"):
        ContrastiveConfig(floor=0.0)


def test_loss_input_validation():
    config = ContrastiveConfig()
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

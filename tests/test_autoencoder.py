"""Autoencoder stack and reconstruction objective tests."""

import numpy as np
import pytest

from helpers import check_grads, numeric_grads
from tmcn.autoencoder import ViewAutoencoder, reconstruction_loss
from tmcn.tensor import ShapeError, Tape, Tensor


def _loss_reference(inputs, recons):
    """Triple loop over views, samples, features."""
    total = 0.0
    for x, xh in zip(inputs, recons):
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                total += (x[i, j] - xh[i, j]) ** 2
    return total


def test_shapes_and_param_naming():
    rng = np.random.default_rng(0)
    ae = ViewAutoencoder(7, 6, rng, hidden_dims=(5, 4))
    x = Tensor(rng.normal(size=(3, 7)))
    z = ae.encode(x)
    assert z.shape == (3, 6)
    assert ae.decode(z).shape == (3, 7)
    names = set(ae.params("view0"))
    assert "view0.encoder.layer0.weight" in names
    assert "view0.decoder.layer2.bias" in names
    # encoder D->5->4->E mirrored by decoder E->4->5->D: 3 layers each, w+b
    assert len(names) == 12


def test_shape_errors():
    ae = ViewAutoencoder(7, 6, np.random.default_rng(0), hidden_dims=(5,))
    with pytest.raises(ShapeError, match="encode"):
        ae.encode(Tensor(np.zeros((3, 5))))
    with pytest.raises(ShapeError, match="decode"):
        ae.decode(Tensor(np.zeros((3, 7))))
    with pytest.raises(ValueError):
        ViewAutoencoder(0, 6, np.random.default_rng(0), hidden_dims=(5,))


def test_zeroed_final_encoder_layer_gives_zero_embeddings():
    rng = np.random.default_rng(1)
    ae = ViewAutoencoder(5, 4, rng, hidden_dims=(6,))
    last = ae.encoder.layers[-1]
    last.w.data = np.zeros_like(last.w.data)
    last.b.data = np.zeros_like(last.b.data)
    z = ae.encode(Tensor(rng.normal(size=(3, 5))))
    assert np.array_equal(z.data, np.zeros((3, 4)))


def test_loss_matches_loop_reference():
    rng = np.random.default_rng(2)
    for _ in range(5):
        inputs = [rng.normal(size=(4, 3)), rng.normal(size=(4, 6))]
        recons = [rng.normal(size=(4, 3)), rng.normal(size=(4, 6))]
        got = reconstruction_loss([Tensor(x) for x in inputs],
                                  [Tensor(x) for x in recons]).item()
        assert got == pytest.approx(_loss_reference(inputs, recons), rel=1e-12)


def test_loss_is_additive_over_views():
    rng = np.random.default_rng(3)
    xs = [Tensor(rng.normal(size=(3, 4))) for _ in range(2)]
    rs = [Tensor(rng.normal(size=(3, 4))) for _ in range(2)]
    both = reconstruction_loss(xs, rs).item()
    single = sum(reconstruction_loss([x], [r]).item() for x, r in zip(xs, rs))
    assert both == pytest.approx(single, rel=1e-12)


def test_loss_is_zero_on_perfect_reconstruction():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert reconstruction_loss([x], [Tensor(x.data.copy())]).item() == 0.0


def test_loss_validation():
    x = Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        reconstruction_loss([x], [])
    with pytest.raises(ShapeError):
        reconstruction_loss([x], [Tensor(np.zeros((2, 4)))])


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    ae = ViewAutoencoder(5, 3, rng, hidden_dims=(6,))
    x = Tensor(rng.normal(size=(4, 5)))
    leaves = list(ae.params("v").values())
    check_grads(lambda: ae.reconstruct(x), leaves, rtol=1e-5)


def test_relu_stack_loss_gradients():
    # the production activation; fixed seed keeps preactivations off the kink
    rng = np.random.default_rng(5)
    ae = ViewAutoencoder(4, 3, rng, hidden_dims=(6,))
    x = Tensor(rng.normal(size=(3, 4)))
    leaves = list(ae.params("v").values())

    def scalar():
        return reconstruction_loss([x], [ae.reconstruct(x)]).item()

    for t in leaves:
        t.grad = None
    with Tape() as tape:
        tape.backward(reconstruction_loss([x], [ae.reconstruct(x)]))
    numeric = numeric_grads(scalar, leaves)
    for leaf, num in zip(leaves, numeric):
        err = np.abs(leaf.grad - num) / np.maximum(1.0, np.abs(leaf.grad))
        assert err.max() < 1e-5


def test_one_gradient_step_reduces_the_loss():
    rng = np.random.default_rng(6)
    ae = ViewAutoencoder(5, 3, rng, hidden_dims=(8,))
    x = Tensor(rng.normal(size=(6, 5)))
    leaves = list(ae.params("v").values())
    with Tape() as tape:
        loss = reconstruction_loss([x], [ae.reconstruct(x)])
        tape.backward(loss)
    before = loss.item()
    for t in leaves:
        t.data = t.data - 1e-4 * t.grad
    after = reconstruction_loss([x], [ae.reconstruct(x)]).item()
    assert after < before

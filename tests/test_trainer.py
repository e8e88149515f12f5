"""Trainer tests: determinism, modes, history schema, checkpoints, evaluation."""

import numpy as np
import pytest

from helpers import set_checkpoint_scalar
from tmcn.clustering import accuracy
from tmcn.data import MultiViewDataset, SyntheticSpec, generate_synthetic
from tmcn.tensor import Tensor, parameter
from tmcn.trainer import (
    HISTORY_COLUMNS,
    MODES,
    Adam,
    ModelConfig,
    TmcnModel,
    TrainConfig,
    TrainingDiverged,
    _batches,
    evaluate,
    load_checkpoint_blobs,
    load_model,
    run_ablation,
    save_checkpoint,
    train,
)


def _tiny_dataset(seed=0, n=24, k=2):
    return generate_synthetic(SyntheticSpec(
        n_samples=n, n_clusters=k, view_dims=[5, 4], separation=8.0,
        noise_std=0.3, seed=seed))


def _tiny_config(**overrides):
    base = dict(seq_len=2, seq_dim=2, expand_factor=2, state_size=2, conv_width=2,
                proj_dim=8, hidden_dims=(8,), learning_rate=1e-3, batch_size=8,
                pretrain_epochs=2, joint_epochs=2, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def _params_equal(a, b):
    if set(a) != set(b):
        return False
    return all(np.array_equal(a[name].data, b[name].data) for name in a)


# ---------------------------------------------------------------------------
# config and model structure

def test_config_validation():
    with pytest.raises(ValueError, match="mode"):
        _tiny_config(mode="everything")
    with pytest.raises(ValueError, match="batch_size"):
        _tiny_config(batch_size=1)
    with pytest.raises(ValueError, match="ascl_weight"):
        _tiny_config(ascl_weight=-0.1)
    with pytest.raises(ValueError, match="temperature"):
        _tiny_config(temperature=0.0)
    with pytest.raises(ValueError, match="mode"):
        _tiny_config(ascl_mode="none")
    with pytest.raises(ValueError, match="n_clusters"):
        _tiny_config(n_clusters=0)


@pytest.mark.parametrize("mode", MODES)
def test_model_config_rejects_non_positive_shapes(mode):
    for field in ("seq_len", "seq_dim", "expand_factor", "state_size", "conv_width",
                  "proj_dim"):
        with pytest.raises(ValueError, match=field):
            ModelConfig(mode=mode, **{field: 0})
    with pytest.raises(ValueError, match="hidden_dims"):
        ModelConfig(mode=mode, hidden_dims=(8, 0))
    with pytest.raises(ValueError, match="proj_dim"):
        _tiny_config(mode=mode, proj_dim=-1)
    assert ModelConfig(mode=mode, hidden_dims=()).hidden_dims == ()


def test_mode_changes_leave_other_initializations_alone():
    # keyed per-component streams: ablation modes must share every init
    shape = dict(seq_len=2, seq_dim=2, expand_factor=2, state_size=2, conv_width=2,
                 proj_dim=8, hidden_dims=(8,))
    full, no_ascl, no_tmfn = (TmcnModel([5, 4], ModelConfig(mode=mode, **shape), seed=3)
                              for mode in ("full", "no-ascl", "no-tmfn"))
    assert _params_equal(full.params(), no_ascl.params())
    for name, p in no_tmfn.params().items():
        assert np.array_equal(p.data, full.params()[name].data)
    assert no_tmfn.fusion is None


def test_no_tmfn_fuses_by_concatenation():
    model = TmcnModel([5, 4], ModelConfig(seq_len=2, seq_dim=2, proj_dim=8,
                                          hidden_dims=(8,), mode="no-tmfn"))
    ds = _tiny_dataset()
    emb = model.fused_embedding(ds.views)
    assert emb.shape == (ds.n_samples, 8)
    zs = model.encode_views([parameter(v) for v in ds.views])
    fused = model.fuse(zs)
    assert fused.shape == (ds.n_samples, 2 * model.embed_dim)
    assert np.array_equal(fused.data[:, : model.embed_dim], zs[0].data)


# ---------------------------------------------------------------------------
# batching

def test_trailing_singleton_batch_is_merged():
    order = np.arange(7)
    batches = _batches(order, 3)
    assert [len(b) for b in batches] == [3, 4]
    assert np.array_equal(np.concatenate(batches), order)


def test_batches_cover_everything_in_order():
    order = np.arange(9)
    batches = _batches(order, 3)
    assert [len(b) for b in batches] == [3, 3, 3]
    assert np.array_equal(np.concatenate(batches), order)
    assert len(_batches(np.arange(5), 8)) == 1


# ---------------------------------------------------------------------------
# training behavior

def test_training_is_bit_reproducible():
    ds = _tiny_dataset()
    m1, h1 = train(_tiny_config(), ds)
    m2, h2 = train(_tiny_config(), ds)
    assert _params_equal(m1.params(), m2.params())
    assert h1.records == h2.records


def test_zero_weight_matches_no_ascl_exactly():
    ds = _tiny_dataset()
    m_zero, h_zero = train(_tiny_config(mode="full", ascl_weight=0.0), ds)
    m_off, h_off = train(_tiny_config(mode="no-ascl", ascl_weight=1.0), ds)
    assert _params_equal(m_zero.params(), m_off.params())
    assert [r.total_loss for r in h_zero.records] == [r.total_loss for r in h_off.records]


def test_pretrain_only_runs_agree_across_modes():
    ds = _tiny_dataset()
    trained = {mode: train(_tiny_config(mode=mode, joint_epochs=0), ds)[0]
               for mode in MODES}
    full_params = trained["full"].params()
    for mode in ("no-tmfn", "no-ascl"):
        for name, p in trained[mode].params().items():
            assert np.array_equal(p.data, full_params[name].data), (mode, name)


def test_pretraining_reduces_reconstruction_loss():
    ds = _tiny_dataset()
    _, history = train(_tiny_config(pretrain_epochs=6, joint_epochs=0), ds)
    recs = [r.rec_loss for r in history.phase_records("pretrain")]
    assert recs[-1] < recs[0]
    assert all(r.rec_per_sample == pytest.approx(r.rec_loss / ds.n_samples) for r in history.records)


def test_history_phases_and_fields():
    ds = _tiny_dataset()
    _, history = train(_tiny_config(), ds)
    pre = history.phase_records("pretrain")
    joint = history.phase_records("joint")
    assert len(pre) == 2 and len(joint) == 2
    assert [r.epoch for r in history.records] == [1, 2, 3, 4]
    for r in pre:
        assert r.ascl_loss is None and r.clamp_frac is None
        assert r.total_loss == r.rec_loss
    for r in joint:
        assert r.ascl_loss is not None and r.clamp_frac is not None
        assert r.total_loss == pytest.approx(r.rec_loss + r.ascl_loss)


def test_eval_rows_appear_on_schedule():
    ds = _tiny_dataset()
    _, history = train(_tiny_config(eval_every=2, joint_epochs=3), ds)
    with_metrics = [r.epoch for r in history.records if r.acc is not None]
    assert with_metrics == [2, 4]
    for r in history.records:
        if r.acc is not None:
            assert 0.0 <= r.acc <= 1.0 and 0.0 <= r.nmi <= 1.0 and 0.0 <= r.pur <= 1.0


def test_history_csv_schema_and_blanks(tmp_path):
    ds = _tiny_dataset()
    _, history = train(_tiny_config(), ds)
    out = tmp_path / "history.csv"
    history.write_csv(out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",".join(HISTORY_COLUMNS)
    assert len(lines) == 1 + 4
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "pretrain"
    assert first[4] == "" and first[5] == "" and first[6] == ""  # no contrastive columns yet
    joint = lines[3].split(",")
    assert joint[1] == "joint" and joint[4] != ""
    # repr-formatted floats round-trip exactly
    rec = history.records[2]
    assert float(joint[3]) == rec.rec_loss


def test_divergence_is_reported_with_epoch_and_term():
    # the dataset rejects non-finite input, so blow the weights up instead
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(TrainingDiverged, match="epoch 1.*reconstruction"):
            train(_tiny_config(learning_rate=1e300), _tiny_dataset())


# ---------------------------------------------------------------------------
# optimizer

def test_adam_skips_parameters_without_gradients():
    a = parameter(np.ones(3))
    b = parameter(np.ones(3))
    opt = Adam({"a": a, "b": b}, lr=0.1)
    a.grad = np.ones(3)
    opt.step()
    assert not np.array_equal(a.data, np.ones(3))
    assert np.array_equal(b.data, np.ones(3))
    opt.zero_grad()
    assert a.grad is None


def test_adam_first_step_size_is_lr():
    # bias correction makes the first update lr * sign(grad) up to eps
    p = parameter(np.zeros(2))
    opt = Adam({"p": p}, lr=0.05)
    p.grad = np.array([3.0, -0.5])
    opt.step()
    assert np.allclose(p.data, [-0.05, 0.05], atol=1e-6)


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_uses_dataset_cluster_count():
    ds = _tiny_dataset()
    model, _ = train(_tiny_config(), ds)
    result = evaluate(model, ds, seed=0)
    assert result.metrics is not None
    assert len(np.unique(result.clustering.assignments)) <= 2


def test_evaluate_requires_some_cluster_count():
    ds = _tiny_dataset()
    unlabeled = MultiViewDataset(views=ds.views, name="u")
    model, _ = train(_tiny_config(pretrain_epochs=1, joint_epochs=0), unlabeled)
    with pytest.raises(ValueError, match="cluster count"):
        evaluate(model, unlabeled)
    result = evaluate(model, unlabeled, k=3)
    assert result.metrics is None
    assert result.clustering.centers.shape[0] == 3


def test_evaluate_is_duck_typed_over_the_embedding():
    # a stub producing perfectly separated points must score acc 1.0
    ds = _tiny_dataset(n=30, k=3)

    class Oracle:
        def fused_embedding(self, views):
            return np.stack([ds.labels * 10.0, np.zeros(len(ds.labels))], axis=1)

    result = evaluate(Oracle(), ds, seed=0)
    assert result.metrics.acc == 1.0
    assert accuracy(result.clustering.assignments, ds.labels) == 1.0


@pytest.mark.parametrize("mode", ["full", "no-tmfn"])
@pytest.mark.parametrize("n", [2 * 256 + 1, 5])
def test_chunked_embedding_equals_one_pass_bitwise(mode, n):
    # 2*256 + 1 rows: the trailing 1-row chunk folds into the one before it
    rng = np.random.default_rng(n)
    views = [rng.normal(size=(n, 20)), rng.normal(size=(n, 30))]
    model = TmcnModel([20, 30], ModelConfig(hidden_dims=(32,), mode=mode), seed=1)
    chunked = model.fused_embedding(views)
    whole = model.fuse(model.encode_views([Tensor(v) for v in views])).data
    assert chunked.tobytes() == whole.tobytes()


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_non_finite_embedding_rows_are_named(value):
    model = TmcnModel([3, 2], ModelConfig(hidden_dims=(4,), seq_len=2, seq_dim=2,
                                          mode="no-tmfn"), seed=0)
    views = [np.ones((6, 3)), np.ones((6, 2))]
    views[1][4, 0] = value
    with pytest.raises(FloatingPointError, match="fused embedding: non-finite value in row 4"):
        model.fused_embedding(views)


# ---------------------------------------------------------------------------
# ablation

def test_ablation_covers_all_modes():
    ds = _tiny_dataset()
    result = run_ablation(_tiny_config(pretrain_epochs=1, joint_epochs=1), ds)
    assert set(result.runs) == set(MODES)
    table = result.table()
    assert len(table) == 3
    for _, acc, nmi_val, pur in table:
        assert 0.0 <= acc <= 1.0 and 0.0 <= nmi_val <= 1.0 and 0.0 <= pur <= 1.0


def test_ablation_requires_labels():
    ds = _tiny_dataset()
    unlabeled = MultiViewDataset(views=ds.views, name="u")
    with pytest.raises(ValueError, match="labeled"):
        run_ablation(_tiny_config(), unlabeled)


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_round_trip_preserves_evaluation_exactly(tmp_path):
    ds = _tiny_dataset()
    model, _ = train(_tiny_config(), ds)
    path = tmp_path / "model.tmcn"
    save_checkpoint(model, path, extra={"normalized": 1.0})
    loaded, extra = load_model(path)
    assert extra == {"normalized": 1.0}
    assert loaded.config.mode == "full"
    assert loaded.view_dims == model.view_dims
    before = model.fused_embedding(ds.views)
    after = loaded.fused_embedding(ds.views)
    assert np.array_equal(before, after)
    a = evaluate(model, ds, seed=0)
    b = evaluate(loaded, ds, seed=0)
    assert np.array_equal(a.clustering.assignments, b.clustering.assignments)
    assert a.metrics == b.metrics


def test_checkpoint_mode_round_trip(tmp_path):
    ds = _tiny_dataset()
    model, _ = train(_tiny_config(mode="no-tmfn"), ds)
    path = save_checkpoint(model, tmp_path / "m.tmcn")
    loaded, extra = load_model(path)
    assert loaded.config.mode == "no-tmfn"
    assert loaded.fusion is None
    assert extra == {}


def test_checkpoint_header_and_errors(tmp_path):
    ds = _tiny_dataset()
    model, _ = train(_tiny_config(pretrain_epochs=1, joint_epochs=0), ds)
    path = save_checkpoint(model, tmp_path / "m.tmcn")
    raw = path.read_bytes()
    assert raw[:4] == b"TMCN"
    assert int.from_bytes(raw[4:8], "little") == 1

    bad = tmp_path / "bad.tmcn"
    bad.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(ValueError, match="bad magic"):
        load_model(bad)

    truncated = tmp_path / "short.tmcn"
    truncated.write_bytes(raw[:-10])
    with pytest.raises(ValueError, match="truncated"):
        load_model(truncated)

    versioned = tmp_path / "v9.tmcn"
    versioned.write_bytes(raw[:4] + (9).to_bytes(4, "little") + raw[8:])
    with pytest.raises(ValueError, match="version"):
        load_model(versioned)


@pytest.mark.parametrize("blob, value, match", [
    ("meta.mode", 7, "meta.mode"), ("meta.mode", -1, "meta.mode"),
    ("meta.mode", 1.5, "meta.mode"), ("meta.mode", 1, "fusion"),
    ("meta.seq_len", 1e12, r"meta\.\* blobs"),
], ids=["7-meta.mode", "-1-meta.mode", "1.5-meta.mode", "1-fusion", "1e12-meta.seq_len"])
def test_checkpoint_metadata_must_fit_the_model(tmp_path, blob, value, match):
    ds = _tiny_dataset()
    model, _ = train(_tiny_config(pretrain_epochs=1, joint_epochs=0), ds)
    path = save_checkpoint(model, tmp_path / "m.tmcn")
    set_checkpoint_scalar(path, blob, value)
    with pytest.raises(ValueError, match=match):
        load_model(path)


def test_checkpoint_blobs_are_named_and_typed(tmp_path):
    ds = _tiny_dataset()
    model, _ = train(_tiny_config(pretrain_epochs=1, joint_epochs=0), ds)
    path = save_checkpoint(model, tmp_path / "m.tmcn")
    blobs = load_checkpoint_blobs(path)
    assert "meta.view_dims" in blobs
    assert "view0.encoder.layer0.weight" in blobs
    assert "fusion.ssm.a_log" in blobs
    assert "heads.fused.weight" in blobs
    for name, p in model.params().items():
        assert np.array_equal(blobs[name], p.data)

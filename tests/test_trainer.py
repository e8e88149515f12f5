"""Trainer tests: determinism, modes, history schema, checkpoints, evaluation."""

import hashlib
import json
import math
import re
import tracemalloc
import weakref
from dataclasses import asdict, fields

import numpy as np
import pytest

from helpers import DROP, set_checkpoint_field, write_sealed
from tmcn import trainer
from tmcn.clustering import accuracy
from tmcn.data import MultiViewDataset, SyntheticSpec, generate_synthetic
from tmcn.fusion import SelectiveFusion
from tmcn.tensor import Tape, Tensor, active_tape, parameter
from tmcn.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    HISTORY_COLUMNS,
    MODES,
    Adam,
    ModelConfig,
    TmcnModel,
    TrainConfig,
    TrainingDiverged,
    _batches,
    _read_checkpoint,
    evaluate,
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


@pytest.mark.parametrize("field, value", [
    ("seq_len", 2.5), ("seq_len", 2.0), ("seq_len", True), ("seq_dim", 4.0),
    ("expand_factor", False), ("state_size", 3.5), ("conv_width", True),
    ("proj_dim", 8.0), ("hidden_dims", (2.7,)), ("hidden_dims", (8, True)),
    ("hidden_dims", 8), ("hidden_dims", "8"), ("hidden_dims", None),
])
def test_model_config_refuses_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"^{field} .*must be (an )?integers? >= 1, got"):
        ModelConfig(**{field: value})


@pytest.mark.parametrize("field, value, low", [
    ("batch_size", 8.0, 2), ("batch_size", True, 2), ("pretrain_epochs", 1.5, 0),
    ("joint_epochs", 2.0, 0), ("joint_epochs", -1, 0), ("seed", True, 0), ("seed", 1.0, 0),
    ("seed", -1, 0), ("eval_every", 2.0, 0), ("n_clusters", True, 1), ("n_clusters", 2.0, 1),
])
def test_train_config_refuses_non_integer_run_counts(field, value, low):
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= {low}, got"):
        _tiny_config(**{field: value})


def test_train_config_run_counts_keep_their_floors_and_take_numpy_integers():
    config = _tiny_config(pretrain_epochs=0, joint_epochs=0, seed=0, eval_every=0,
                          n_clusters=None, batch_size=np.int64(2))
    assert config.batch_size == 2 and config.n_clusters is None
    assert _tiny_config(n_clusters=np.int32(3), seed=np.uint8(7)).n_clusters == 3



@pytest.mark.parametrize("field, value, kind", [
    ("learning_rate", 0.0, "positive"), ("learning_rate", -0.01, "positive"),
    ("learning_rate", "0.1", "positive"), ("learning_rate", math.inf, "positive"),
    ("ascl_weight", math.nan, "non-negative"), ("ascl_weight", -1.0, "non-negative"),
    ("ascl_weight", True, "non-negative"), ("temperature", math.inf, "positive"),
    ("temperature", math.nan, "positive"), ("temperature", 0, "positive"),
    ("temperature", "0.5", "positive"),
])
def test_train_config_refuses_non_finite_or_non_numeric_floats(field, value, kind):
    with pytest.raises(ValueError, match=rf"^{field} must be a finite {kind} number, got "
                                         rf"{re.escape(repr(value))}$"):
        _tiny_config(**{field: value})


def test_train_config_floats_take_ints_and_numpy_floats():
    config = _tiny_config(learning_rate=1, ascl_weight=0, temperature=np.float32(0.5))
    assert config.learning_rate == 1 and config.temperature == 0.5


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


def test_one_sample_refuses_a_contrastive_phase_before_the_first_step(monkeypatch):
    one = _tiny_dataset(n=1, k=1)

    def step(self):
        raise AssertionError("an optimizer step ran before the sample count was checked")

    with monkeypatch.context() as patch:
        patch.setattr(Adam, "step", step)
        with pytest.raises(ValueError, match="at least 2 samples, the dataset has 1;"):
            train(_tiny_config(), one)
    for overrides in ({"mode": "no-ascl"}, {"ascl_weight": 0.0}, {"joint_epochs": 0}):
        _, history = train(_tiny_config(**overrides), one)
        assert len(history.records) == 2 + overrides.get("joint_epochs", 2)


def test_joint_step_frees_the_fused_vector_and_projections_before_the_block_backward():
    # nothing outside the tape holds them once the contrastive forward returns,
    # and the sweep drops each node's output before its backward runs: the
    # fusion block's backward, which comes after the heads', finds them gone
    raw_project, raw_rows = trainer.project, SelectiveFusion._fuse_rows
    watched, live = [], []

    def project(u, zs, heads):
        h_fused, h_views = raw_project(u, zs, heads)
        watched[:] = [weakref.ref(t.data) for t in (u, h_fused, *h_views)]
        return h_fused, h_views

    def fuse_rows(self, u):
        if active_tape() is not None and watched:      # the backward's first rerun
            live.append(sum(ref() is not None for ref in watched))
            watched.clear()
        return raw_rows(self, u)

    trainer.project, SelectiveFusion._fuse_rows = project, fuse_rows
    try:
        train(_tiny_config(pretrain_epochs=0, joint_epochs=1), _tiny_dataset())
    finally:
        trainer.project, SelectiveFusion._fuse_rows = raw_project, raw_rows
    assert live == [0, 0, 0], f"arrays still live per step: {live}"


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


def test_adam_updates_its_moments_in_place_with_the_textbook_bits():
    rng = np.random.default_rng(4)
    p = parameter(rng.normal(size=(3, 4)))
    opt = Adam({"p": p}, lr=0.01)
    moments = opt._m["p"], opt._v["p"]
    m, v, data = np.zeros(p.shape), np.zeros(p.shape), p.data.copy()
    for t in range(1, 4):
        g = p.grad = rng.normal(size=p.shape)
        opt.step()
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g ** 2
        m_hat, v_hat = m / (1 - ADAM_BETA1 ** t), v / (1 - ADAM_BETA2 ** t)
        data = data - 0.01 * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        assert (opt._m["p"].tobytes(), opt._v["p"].tobytes()) == (m.tobytes(), v.tobytes())
        assert p.data.tobytes() == data.tobytes()
    assert opt._m["p"] is moments[0] and opt._v["p"] is moments[1]


def test_joint_step_tape_keeps_no_n_by_n_matrix_per_view(monkeypatch):
    # AsCL builds a cosine matrix and exp(cos * W) per view; each view's term
    # reruns both in its own backward, so when the backward starts the step
    # holds W = (1 - S) / tau and less than two more (N, N) arrays, not 2M
    n = 512
    ds = generate_synthetic(SyntheticSpec(n_samples=n, n_clusters=2, view_dims=[5, 4, 3],
                                          separation=8.0, noise_std=0.3, seed=0))
    config = _tiny_config(batch_size=n, pretrain_epochs=0, joint_epochs=1)
    live = []
    enter, backward = Tape.__enter__, Tape.backward

    def traced_enter(tape):
        if not live:        # the step's own tape; the reruns open theirs in the backward
            live.append(tracemalloc.get_traced_memory()[0])
        return enter(tape)

    def traced_backward(tape, loss):
        live.append(tracemalloc.get_traced_memory()[0] - live[0])
        return backward(tape, loss)

    monkeypatch.setattr(Tape, "__enter__", traced_enter)
    monkeypatch.setattr(Tape, "backward", traced_backward)
    tracemalloc.start()
    try:
        train(config, ds)
    finally:
        tracemalloc.stop()
    beyond_weights = live[1] / (n * n * 8) - 1
    assert beyond_weights < 2, f"{beyond_weights:.2f} (N, N) arrays beyond W"


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


@pytest.mark.parametrize("mode", ["full", "no-tmfn"])
def test_embedding_holds_its_output_once(mode):
    # 2,000 rows at the acceptance widths: each batch is written into the one
    # output array. Above that 5.9 MiB output, full mode peaked at 3.5 MiB and
    # no-tmfn at 1.5 MiB (numpy 2.4); a list of batches and its concatenation
    # held it twice, 5.9 MiB above it
    rng = np.random.default_rng(3)
    model = TmcnModel([20, 30, 25], ModelConfig(hidden_dims=(128,), seq_len=8, seq_dim=16,
                                                state_size=8, mode=mode), seed=1)
    views = [rng.normal(size=(2000, d)) for d in (20, 30, 25)]
    tracemalloc.start()
    try:
        out = model.fused_embedding(views)
        above = tracemalloc.get_traced_memory()[1] - out.nbytes
    finally:
        tracemalloc.stop()
    assert out.shape == (2000, 384)
    assert above < 0.75 * out.nbytes, f"{above / 2**20:.2f} MiB above the output"


def test_embedding_of_no_rows_is_refused():
    model = TmcnModel([3, 2], ModelConfig(hidden_dims=(4,), seq_len=2, seq_dim=2), seed=0)
    with pytest.raises(ValueError, match="the views have no rows"):
        model.fused_embedding([np.ones((0, 3)), np.ones((0, 2))])


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_non_finite_embedding_rows_are_named(value):
    model = TmcnModel([3, 2], ModelConfig(hidden_dims=(4,), seq_len=2, seq_dim=2,
                                          mode="no-tmfn"), seed=0)
    views = [np.ones((6, 3)), np.ones((6, 2))]
    views[1][4, 0] = value
    with pytest.raises(FloatingPointError, match="fused embedding: non-finite value in row 4"):
        model.fused_embedding(views)


@pytest.mark.parametrize("rows", [4, 9])
def test_views_with_unequal_rows_are_named(rows):
    # unchecked, a shorter view fails mid-batch and a longer one loses rows silently
    model = TmcnModel([3, 2], ModelConfig(hidden_dims=(4,), seq_len=2, seq_dim=2), seed=0)
    with pytest.raises(ValueError, match=f"view 1 has {rows} rows, view 0 has 6"):
        model.fused_embedding([np.ones((6, 3)), np.ones((rows, 2))])


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
    save_checkpoint(model, path)
    loaded = load_model(path)
    assert loaded.config.mode == "full"
    assert loaded.config.preprocess == "minmax"
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
    loaded = load_model(path)
    assert loaded.config.mode == "no-tmfn"
    assert loaded.fusion is None


@pytest.mark.parametrize("hidden_dims", [(7, 3), ()], ids=["7,3", "none"])
def test_checkpoint_header_round_trips_every_model_config_field(tmp_path, hidden_dims):
    config = ModelConfig(hidden_dims=hidden_dims, seq_len=3, seq_dim=5, expand_factor=3,
                         state_size=4, conv_width=3, proj_dim=6, mode="no-ascl",
                         preprocess="none")
    for f in fields(ModelConfig):  # a new field must be set here too
        assert getattr(config, f.name) != f.default, f.name
    model = TmcnModel([5, 4, 2], config, seed=3)
    loaded = load_model(save_checkpoint(model, tmp_path / "m.tmcn"))
    assert asdict(loaded.config) == asdict(config)
    assert loaded.view_dims == [5, 4, 2]
    assert _params_equal(loaded.params(), model.params())


def test_checkpoint_header_takes_numpy_integers(tmp_path):
    config = ModelConfig(hidden_dims=(np.int64(4),), seq_len=np.int64(2), seq_dim=np.int32(2),
                         state_size=2, proj_dim=4)
    loaded = load_model(save_checkpoint(TmcnModel([3, 2], config), tmp_path / "m.tmcn"))
    assert asdict(loaded.config) == asdict(config)


def test_checkpoint_header_and_errors(tmp_path):
    ds = _tiny_dataset()
    model, _ = train(_tiny_config(pretrain_epochs=1, joint_epochs=0), ds)
    path = save_checkpoint(model, tmp_path / "m.tmcn")
    raw = path.read_bytes()
    assert raw[:4] == b"TMCN"
    assert int.from_bytes(raw[4:8], "little") == 3
    size = int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12:12 + size].decode("utf-8"))
    assert list(header) == sorted(header)
    assert header == {"view_dims": [5, 4], "hidden_dims": [8], "seq_len": 2, "seq_dim": 2,
                      "expand_factor": 2, "state_size": 2, "conv_width": 2, "proj_dim": 8,
                      "mode": "full", "preprocess": "minmax", "params": list(model.params())}

    bad = tmp_path / "bad.tmcn"
    bad.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(ValueError, match="bad magic"):
        load_model(bad)

    truncated = tmp_path / "short.tmcn"
    truncated.write_bytes(raw[:-10])
    with pytest.raises(ValueError, match="truncated"):
        load_model(truncated)

    for version in (1, 2, 9):
        versioned = tmp_path / f"v{version}.tmcn"
        versioned.write_bytes(raw[:4] + version.to_bytes(4, "little") + raw[8:])
        with pytest.raises(ValueError, match=f"unsupported checkpoint version {version}"):
            load_model(versioned)

    garbled = tmp_path / "garbled.tmcn"
    garbled.write_bytes(raw[:12] + b"\xff" * size + raw[12 + size:])
    with pytest.raises(ValueError, match="header is not UTF-8 JSON"):
        load_model(garbled)


@pytest.mark.parametrize("length", ["header"])
def test_checkpoint_lengths_past_the_end_are_truncation(tmp_path, length):
    ds = _tiny_dataset()
    model, _ = train(_tiny_config(pretrain_epochs=1, joint_epochs=0), ds)
    path = save_checkpoint(model, tmp_path / "m.tmcn")
    raw = bytearray(path.read_bytes())
    raw[8:12] = (2**32 - 1).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="^checkpoint truncated$"):
        load_model(path)


# the first five ids keep the names of the v1 metadata cases they port
@pytest.mark.parametrize("field, value, match", [
    ("mode", 7, "mode must be one of"),
    ("mode", -1, "mode must be one of"),
    ("mode", 1.5, "mode must be one of"),
    ("mode", "no-tmfn", r"stray \['fusion\."),
    ("seq_len", 10**12, "too large to build"),
    ("mode", "everything", "mode must be one of"),
    ("preprocess", "rms", "preprocess must be one of"),
    ("seq_len", -1, "^checkpoint header: seq_len must be an integer >= 1, got -1$"),
    ("state_size", 1.5, "^checkpoint header: state_size must be an integer >= 1, got 1.5$"),
    ("conv_width", True, "^checkpoint header: conv_width must be an integer >= 1, got True$"),
    ("proj_dim", float("nan"), "^checkpoint header: proj_dim must be an integer >= 1, got nan$"),
    ("hidden_dims", [8, True],
     r"^checkpoint header: hidden_dims widths must be integers >= 1, got \[8, True\]$"),
    ("hidden_dims", "8", "^checkpoint header: hidden_dims widths must be integers >= 1, got '8'$"),
    ("view_dims", [], r"^checkpoint header: view_dims must name at least one view, got \[\]$"),
    ("view_dims", [5, 0],
     r"^checkpoint header: view_dims widths must be integers >= 1, got \[5, 0\]$"),
    ("seq_dim", DROP, r"missing \['seq_dim'\], unknown \[\]"),
    ("bogus", 1, r"missing \[\], unknown \['bogus'\]"),
], ids=["7-meta.mode", "-1-meta.mode", "1.5-meta.mode", "1-fusion", "1e12-meta.seq_len",
        "unknown-mode", "unknown-preprocess", "-1-seq_len", "1.5-state_size",
        "true-conv_width", "nan-proj_dim", "true-hidden_dims", "str-hidden_dims",
        "empty-view_dims", "0-view_dims", "missing-field", "extra-field"])
def test_checkpoint_metadata_must_fit_the_model(tmp_path, field, value, match):
    ds = _tiny_dataset()
    model, _ = train(_tiny_config(pretrain_epochs=1, joint_epochs=0), ds)
    path = save_checkpoint(model, tmp_path / "m.tmcn")
    set_checkpoint_field(path, field, value)
    with pytest.raises(ValueError, match=match):
        load_model(path)


def test_checkpoint_blobs_are_named_and_typed(tmp_path):
    """The v3 layout: ``params`` names the parameters in ``model.params()`` order, their
    little-endian float64 bytes follow the header back to back, then a SHA-256 trailer."""
    ds = _tiny_dataset()
    model, _ = train(_tiny_config(pretrain_epochs=1, joint_epochs=0), ds)
    path = save_checkpoint(model, tmp_path / "m.tmcn")
    header, raw, at = _read_checkpoint(path)
    assert header["view_dims"] == [5, 4]
    assert header["params"] == list(model.params())
    assert "view0.encoder.layer0.weight" in header["params"]
    assert "fusion.ssm.a_log" in header["params"]
    assert "heads.fused.weight" in header["params"]
    payload = b"".join(p.data.astype("<f8").tobytes() for p in model.params().values())
    assert raw[at:-32] == payload
    assert raw[-32:] == hashlib.sha256(raw[:-32]).digest()


def _saved(tmp_path):
    model, _ = train(_tiny_config(pretrain_epochs=1, joint_epochs=0), _tiny_dataset())
    return model, save_checkpoint(model, tmp_path / "m.tmcn")


def test_checkpoint_refuses_a_permuted_params_list(tmp_path):
    model, path = _saved(tmp_path)
    names = list(model.params())
    p, q = names.index("fusion.branch_p.weight"), names.index("fusion.branch_q.weight")
    names[p], names[q] = names[q], names[p]   # one shape, so only the list tells them apart
    set_checkpoint_field(path, "params", names)
    with pytest.raises(ValueError, match=r"in name or order: missing \[\], stray \[\]$"):
        load_model(path)


def test_checkpoint_refuses_a_payload_one_float_too_long(tmp_path):
    model, path = _saved(tmp_path)
    raw = path.read_bytes()
    write_sealed(path, raw[:-32] + np.float64(1.0).tobytes())
    floats = sum(p.data.size for p in model.params().values())
    with pytest.raises(ValueError, match=f"holds {8 * floats + 8} parameter bytes, "
                                         f"the model takes {8 * floats}$"):
        load_model(path)

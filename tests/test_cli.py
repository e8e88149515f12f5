"""Command-line tests driven through main(argv) plus one real subprocess."""

import json
import shutil
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from helpers import set_checkpoint_field
from tmcn.cli import main
from tmcn.data import MultiViewDataset, load_dataset, save_dataset
from tmcn.trainer import TrainConfig, evaluate, load_model, save_checkpoint, train

TINY_SETS = [
    "--set", "seq_len=2", "--set", "seq_dim=2", "--set", "expand_factor=2",
    "--set", "state_size=2", "--set", "conv_width=2", "--set", "proj_dim=8",
    "--set", "hidden_dims=8", "--set", "batch_size=8",
    "--set", "pretrain_epochs=2", "--set", "joint_epochs=2",
    "--set", "learning_rate=1e-3",
]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = main(["synth", "--samples", "24", "--clusters", "2", "--views", "5,4",
                 "--separation", "8.0", "--noise", "0.3", "--seed", "0",
                 "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, dataset_dir):
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--dataset", str(dataset_dir / "manifest.json"),
                 "--out", str(out), *TINY_SETS])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def no_tmfn_dir(tmp_path_factory, dataset_dir):
    out = tmp_path_factory.mktemp("run-no-tmfn")
    code = main(["train", "--dataset", str(dataset_dir / "manifest.json"),
                 "--out", str(out), "--mode", "no-tmfn", *TINY_SETS])
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# synth

def test_synth_prints_manifest_and_is_deterministic(tmp_path, capsys):
    argv = ["synth", "--samples", "20", "--clusters", "2", "--views", "4",
            "--seed", "5", "--out"]
    assert main(argv + [str(tmp_path / "a")]) == 0
    assert str(tmp_path / "a" / "manifest.json") in capsys.readouterr().out
    assert main(argv + [str(tmp_path / "b")]) == 0
    for name in ("manifest.json", "view0.mvcd", "labels.mvcl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("argv, message", [
    (["synth", "--samples", "10", "--clusters", "0"], "--clusters: expected a positive integer"),
    (["synth", "--samples", "10", "--clusters", "2", "--views", "a,3"],
     "--views: invalid _widths value: 'a,3'"),
    (["synth", "--samples", "10", "--clusters", "2", "--views", "3,0"],
     "--views: expected a positive integer, got '0'"),
    (["synth", "--samples", "10", "--clusters", "2", "--views", ""],
     "--views: expected comma-separated positive integers, got ''"),
    (["synth", "--samples", "10", "--clusters", "2", "--seed", "-1"],
     "--seed: expected a non-negative integer, got '-1'"),
    (["eval", "--checkpoint", "c.tmcn", "--dataset", "manifest.json", "--seed", "-1"],
     "--seed: expected a non-negative integer, got '-1'"),
], ids=["clusters-0", "views-a,3", "views-3,0", "views-empty", "synth-seed--1", "eval-seed--1"])
def test_synth_rejects_non_positive_counts(tmp_path, capsys, argv, message):
    out = ["--out", str(tmp_path / "x")] if argv[0] == "synth" else []
    with pytest.raises(SystemExit) as exc:
        main(argv + out)
    assert exc.value.code == 2
    assert f"error: argument {message}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()



@pytest.mark.parametrize("argv, message", [
    (["synth", "--samples", "20", "--clusters", "2", "--noise", "nan"],
     "noise_std must be a finite positive number, got nan"),
    (["synth", "--samples", "20", "--clusters", "2", "--separation", "inf"],
     "separation must be a finite positive number, got inf"),
    (["train", "--dataset", "manifest.json", "--set", "ascl_weight=nan"],
     "invalid configuration: ascl_weight must be a finite non-negative number, got nan"),
    (["train", "--dataset", "manifest.json", "--set", "temperature=inf"],
     "invalid configuration: temperature must be a finite positive number, got inf"),
    (["train", "--dataset", "manifest.json", "--set", "learning_rate=0"],
     "invalid configuration: learning_rate must be a finite positive number, got 0.0"),
    (["train", "--dataset", "manifest.json", "--set", "learning_rate=-0.01"],
     "invalid configuration: learning_rate must be a finite positive number, got -0.01"),
    (["train", "--dataset", "manifest.json", "--set", "ascl_mode=both"],
     "invalid configuration: ascl_mode must be one of ('self-excluded', 'literal'), got 'both'"),
    (["train", "--dataset", "manifest.json", "--set", "hidden_dims=1 2"],
     "cannot parse '1 2' as a value for hidden_dims"),
])
def test_bad_float_settings_fail_before_any_output(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv + ["--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {message}"]
    assert not out.exists()


# ---------------------------------------------------------------------------
# train

def test_train_writes_run_manifest_history_checkpoint(trained_dir, capsys):
    run = json.loads((trained_dir / "run.json").read_text())
    assert run["command"] == "train"
    assert run["config"]["seq_len"] == 2
    assert run["config"]["hidden_dims"] == [8]
    assert run["config"]["preprocess"] == "minmax"
    assert run["dataset"]["fingerprint"]
    header = (trained_dir / "history.csv").read_text().splitlines()[0]
    assert header == "epoch,phase,total_loss,rec_loss,ascl_loss,clamp_frac,acc,nmi,pur"
    assert (trained_dir / "checkpoint.tmcn").read_bytes()[:4] == b"TMCN"


def test_train_rerun_is_byte_identical(tmp_path, dataset_dir):
    argv = ["train", "--dataset", str(dataset_dir / "manifest.json"), *TINY_SETS]
    assert main(argv + ["--out", str(tmp_path / "r1")]) == 0
    assert main(argv + ["--out", str(tmp_path / "r2")]) == 0
    for name in ("history.csv", "checkpoint.tmcn", "run.json"):
        a = (tmp_path / "r1" / name).read_bytes()
        b = (tmp_path / "r2" / name).read_bytes()
        assert a == b, name


def test_preprocess_none_trains_and_evaluates_on_raw_views(tmp_path, dataset_dir, capsys):
    manifest = dataset_dir / "manifest.json"
    out = tmp_path / "raw"
    assert main(["train", "--dataset", str(manifest), "--out", str(out), *TINY_SETS,
                 "--set", "preprocess=none"]) == 0
    assert json.loads((out / "run.json").read_text())["config"]["preprocess"] == "none"
    assert load_model(out / "checkpoint.tmcn").config.preprocess == "none"
    raw = load_dataset(manifest)
    config = TrainConfig(seq_len=2, seq_dim=2, expand_factor=2, state_size=2, conv_width=2,
                         proj_dim=8, hidden_dims=(8,), batch_size=8, pretrain_epochs=2,
                         joint_epochs=2, learning_rate=1e-3, preprocess="none")  # TINY_SETS
    model, history = train(config, raw)
    history.write_csv(tmp_path / "history.csv")
    assert (out / "history.csv").read_bytes() == (tmp_path / "history.csv").read_bytes()
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(out / "checkpoint.tmcn"),
                 "--dataset", str(manifest), "--assignments", str(tmp_path / "a.csv")]) == 0
    payload = json.loads(capsys.readouterr().out)
    result = evaluate(model, raw, seed=0)
    assert [payload[k] for k in ("acc", "nmi", "pur")] == [
        result.metrics.acc, result.metrics.nmi, result.metrics.pur]
    rows = (tmp_path / "a.csv").read_text().splitlines()[1:]
    assert [int(r.split(",")[1]) for r in rows] == result.clustering.assignments.tolist()


def test_no_normalize_flag_is_gone(tmp_path, dataset_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--dataset", str(dataset_dir / "manifest.json"),
              "--out", str(tmp_path), "--no-normalize"])
    assert exc.value.code == 2
    assert "--no-normalize" in capsys.readouterr().err


def test_config_file_then_set_then_flag_precedence(tmp_path, dataset_dir):
    ini = tmp_path / "run.ini"
    ini.write_text("[train]\nseq_len = 4\nseq_dim = 4\nseed = 11\n"
                   "hidden_dims = 8\nproj_dim = 8\nbatch_size = 8\n"
                   "pretrain_epochs = 1\njoint_epochs = 0\n"
                   "expand_factor = 2\nstate_size = 2\nconv_width = 2\n")
    out = tmp_path / "out"
    code = main(["train", "--dataset", str(dataset_dir / "manifest.json"),
                 "--out", str(out), "--config", str(ini),
                 "--set", "l=2", "--seed", "3"])
    assert code == 0
    config = json.loads((out / "run.json").read_text())["config"]
    assert config["seq_dim"] == 4        # from the INI file
    assert config["seq_len"] == 2        # --set overrides the file (via alias l)
    assert config["seed"] == 3           # named flag overrides everything


@pytest.mark.parametrize("text, want", [
    ("[DEFAULT]\nseq_len = 2\nseq_dim = 4\nhidden_dims = 8\n", (2, 4, [8])),
    ("[DEFAULT]\nseq_len = 2\nseq_dim = 4\nhidden_dims = 8\n[train]\nseq_dim = 2\n"
     "[more]\nseed = 3\n", (2, 2, [8])),
    ("[train]\nseq_dim = 2\n[DEFAULT]\nseq_len = 2\nseq_dim = 4\nhidden_dims = 8\n",
     (2, 2, [8])),
], ids=["default-only", "section-wins", "default-last"])
def test_config_file_default_keys_apply_under_the_named_sections(tmp_path, dataset_dir,
                                                                  text, want):
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    out = tmp_path / "out"
    code = main(["train", "--dataset", str(dataset_dir / "manifest.json"),
                 "--out", str(out), "--config", str(ini),
                 "--set", "pretrain_epochs=1", "--set", "joint_epochs=0"])
    assert code == 0
    config = json.loads((out / "run.json").read_text())["config"]
    assert (config["seq_len"], config["seq_dim"], config["hidden_dims"]) == want


@pytest.mark.parametrize("text, message", [
    ("seq_len = 2\n", "File contains no section headers"),
    ("[train]\nseq_len = 2\n[train]\nseed = 1\n", "[line 3]: section 'train' already exists"),
    ("[train]\nseq_len = %(x)s\n", "cannot parse '%(x)s' as a value for seq_len"),
    ("[train]\nseq_len = 2\nseq_len = 3\n", "[line 3]: option 'seq_len' in section 'train'"),
], ids=["no-section", "repeated-section", "percent", "repeated-key"])
def test_bad_config_file_is_one_error_line(tmp_path, dataset_dir, capsys, text, message):
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    out = tmp_path / "out"
    code = main(["train", "--dataset", str(dataset_dir / "manifest.json"),
                 "--out", str(out), "--config", str(ini)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not out.exists()


def test_model_too_large_to_build_is_a_clean_error(tmp_path, dataset_dir, capsys):
    # 16e12-wide embeddings: numpy refuses the allocation outright, nothing is paged in
    code = main(["train", "--dataset", str(dataset_dir / "manifest.json"), "--out", str(tmp_path),
                 "--set", "hidden_dims=8", "--set", "seq_len=1000000000000"])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: model too large to build: [5, 4], ")


def test_one_sample_dataset_with_a_contrastive_phase_is_a_clean_error(tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "run"
    assert main(["synth", "--samples", "1", "--clusters", "1", "--views", "3,4",
                 "--out", str(data)]) == 0
    capsys.readouterr()
    code = main(["train", "--dataset", str(data / "manifest.json"), "--out", str(out),
                 *TINY_SETS, "--set", "pretrain_epochs=1", "--set", "joint_epochs=1"])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "the dataset has 1;" in err[0]
    assert not (out / "checkpoint.tmcn").exists()
    assert not (out / "run.json").exists()


@pytest.mark.parametrize("command, extra", [("ablate", []),
                                            ("sweep", ["--grid", "ascl_weight=0,1"])])
def test_ablate_and_sweep_refuse_one_sample_before_run_json(tmp_path, capsys, command, extra):
    # full mode, and the sweep's ascl_weight=1 cell, each have a contrastive phase
    data, out = tmp_path / "data", tmp_path / "run"
    assert main(["synth", "--samples", "1", "--clusters", "1", "--views", "3,4",
                 "--out", str(data)]) == 0
    capsys.readouterr()
    code = main([command, "--dataset", str(data / "manifest.json"), "--out", str(out),
                 *TINY_SETS, *extra])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "the dataset has 1;" in err[0]
    assert not (out / "run.json").exists()


def test_unknown_set_field_is_a_clean_error(tmp_path, dataset_dir, capsys):
    code = main(["train", "--dataset", str(dataset_dir / "manifest.json"),
                 "--out", str(tmp_path), "--set", "bogus=1"])
    assert code == 1
    assert "unknown config field" in capsys.readouterr().err


def test_missing_config_file_is_a_clean_error(tmp_path, dataset_dir, capsys):
    code = main(["train", "--dataset", str(dataset_dir / "manifest.json"),
                 "--out", str(tmp_path), "--config", str(tmp_path / "nope.ini")])
    assert code == 1
    assert "config file not found" in capsys.readouterr().err


def test_bad_dataset_path_is_a_clean_error(tmp_path, capsys):
    code = main(["train", "--dataset", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


MANIFEST_TYPE_CASES = [
    ((), [1, 2], "the manifest must be a JSON object, got [1, 2]"),
    (("name",), 5, "name must be a string, got 5"),
    (("n_samples",), "abc", "n_samples must be an integer >= 1, got 'abc'"),
    (("n_samples",), True, "n_samples must be an integer >= 1, got True"),
    (("n_samples",), 24.0, "n_samples must be an integer >= 1, got 24.0"),
    (("views",), 3, "views must be a non-empty list of view objects, got 3"),
    (("views",), [], "views must be a non-empty list of view objects, got []"),
    (("views", 0), 7, "views[0] must be an object with 'file' and 'dim', got 7"),
    (("views", 0, "file"), 3, "views[0].file must be a string, got 3"),
    (("views", 1, "dim"), 4.5, "views[1].dim must be an integer >= 1, got 4.5"),
    (("views", 1, "dim"), False, "views[1].dim must be an integer >= 1, got False"),
    (("labels_file",), 1, "labels_file must be a string or null, got 1"),
    (("n_clusters",), "2", "n_clusters must be an integer >= 1, got '2'"),
    (("n_clusters",), True, "n_clusters must be an integer >= 1, got True"),
]


@pytest.mark.parametrize("path, value, message", MANIFEST_TYPE_CASES, ids=[
    f"{'.'.join(map(str, path)) or 'manifest'}={json.dumps(value)}"
    for path, value, _ in MANIFEST_TYPE_CASES])
def test_manifest_of_the_wrong_type_is_a_clean_error(tmp_path, dataset_dir, capsys,
                                                      path, value, message):
    data = tmp_path / "data"
    shutil.copytree(dataset_dir, data)
    doc = json.loads((data / "manifest.json").read_text())
    if path:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    else:
        doc = value
    (data / "manifest.json").write_text(json.dumps(doc))
    out = tmp_path / "run"
    code = main(["train", "--dataset", str(data / "manifest.json"), "--out", str(out),
                 *TINY_SETS])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [ln for ln in err.splitlines() if ln.startswith("error:")] == \
        [f"error: manifest.json: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("field", ["hidden_dims", "proj_dim"])
def test_zero_width_is_a_clean_error(tmp_path, dataset_dir, capsys, field):
    code = main(["train", "--dataset", str(dataset_dir / "manifest.json"),
                 "--out", str(tmp_path), *TINY_SETS, "--set", f"{field}=0"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_training_is_a_clean_error(tmp_path, dataset_dir, capsys, recwarn):
    code = main(["train", "--dataset", str(dataset_dir / "manifest.json"),
                 "--out", str(tmp_path), *TINY_SETS, "--set", "learning_rate=1e300"])
    assert code == 1
    assert "error: epoch 1: reconstruction term went non-finite" in capsys.readouterr().err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_non_finite_view_is_a_clean_error(tmp_path, dataset_dir, capsys):
    data = tmp_path / "data"
    manifest = save_dataset(load_dataset(dataset_dir / "manifest.json"), data)
    raw = bytearray((data / "view1.mvcd").read_bytes())
    cols = 4
    at = 12 + 4 * (3 * cols + 2)          # row 3, column 2
    raw[at:at + 4] = struct.pack("<f", float("nan"))
    (data / "view1.mvcd").write_bytes(bytes(raw))
    code = main(["train", "--dataset", str(manifest), "--out", str(tmp_path / "run"),
                 *TINY_SETS])
    assert code == 1
    assert "error: view 1: non-finite value in row 3" in capsys.readouterr().err


def test_label_far_above_the_sample_count_is_a_clean_error(tmp_path, dataset_dir, capsys):
    # with no n_clusters the largest label sets the cluster count: 2**32 - 1 on
    # 24 rows is refused in time linear in the rows, not by listing missing ids
    data = tmp_path / "data"
    shutil.copytree(dataset_dir, data)
    doc = json.loads((data / "manifest.json").read_text())
    del doc["n_clusters"]
    (data / "manifest.json").write_text(json.dumps(doc))
    labels = np.arange(24) % 2
    labels[5] = 2**32 - 1
    (data / "labels.mvcl").write_bytes(b"MVCL" + struct.pack("<I", 24)
                                       + labels.astype("<u4").tobytes())
    code = main(["train", "--dataset", str(data / "manifest.json"),
                 "--out", str(tmp_path / "run"), *TINY_SETS])
    assert code == 1
    err = capsys.readouterr().err
    assert [ln for ln in err.splitlines() if ln.startswith("error:")] == \
        ["error: 4294967296 clusters cannot all occur in 24 samples (largest label 4294967295)"]
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# eval

def test_eval_labeled_prints_metrics_json(trained_dir, dataset_dir, capsys):
    code = main(["eval", "--checkpoint", str(trained_dir / "checkpoint.tmcn"),
                 "--dataset", str(dataset_dir / "manifest.json")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == 2
    assert payload["nmi_variant"] == "sqrt"
    for key in ("acc", "nmi", "pur"):
        assert 0.0 <= payload[key] <= 1.0
    assert "assignments" not in payload


def test_eval_unlabeled_writes_assignments(tmp_path, trained_dir, dataset_dir, capsys):
    labeled = load_dataset(dataset_dir / "manifest.json")
    unlabeled_dir = tmp_path / "unlabeled"
    save_dataset(MultiViewDataset(views=labeled.views, name="u"), unlabeled_dir)
    ckpt = tmp_path / "checkpoint.tmcn"
    ckpt.write_bytes((trained_dir / "checkpoint.tmcn").read_bytes())

    code = main(["eval", "--checkpoint", str(ckpt),
                 "--dataset", str(unlabeled_dir / "manifest.json")])
    assert code == 1
    assert "pass --k" in capsys.readouterr().err

    code = main(["eval", "--checkpoint", str(ckpt),
                 "--dataset", str(unlabeled_dir / "manifest.json"), "--k", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["assignments"] == str(tmp_path / "assignments.csv")
    lines = (tmp_path / "assignments.csv").read_text().splitlines()
    assert lines[0] == "index,cluster"
    assert len(lines) == 1 + 24
    assert "acc" not in payload


def test_eval_explicit_assignments_path(tmp_path, trained_dir, dataset_dir, capsys):
    target = tmp_path / "mine.csv"
    code = main(["eval", "--checkpoint", str(trained_dir / "checkpoint.tmcn"),
                 "--dataset", str(dataset_dir / "manifest.json"),
                 "--assignments", str(target)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["assignments"] == str(target)
    assert target.read_text().splitlines()[0] == "index,cluster"


def test_eval_rejects_an_unknown_mode_code(tmp_path, trained_dir, dataset_dir, capsys):
    ckpt = tmp_path / "checkpoint.tmcn"
    ckpt.write_bytes((trained_dir / "checkpoint.tmcn").read_bytes())
    set_checkpoint_field(ckpt, "mode", 7)
    code = main(["eval", "--checkpoint", str(ckpt),
                 "--dataset", str(dataset_dir / "manifest.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint header: mode must be one of") and err.count("\n") == 1


@pytest.mark.parametrize("where, mask, message", [
    ("payload", 0x80, "checkpoint does not match its digest"),
    ("version", 0x01, "unsupported checkpoint version 2"),   # 3 -> 2
], ids=["payload", "version"])
def test_eval_of_a_corrupt_checkpoint_is_a_clean_error(tmp_path, trained_dir, dataset_dir,
                                                       capsys, where, mask, message):
    raw = bytearray((trained_dir / "checkpoint.tmcn").read_bytes())
    # the version's low byte, or the first byte of the first parameter float
    at = 4 if where == "version" else 12 + int.from_bytes(raw[8:12], "little")
    raw[at] ^= mask
    ckpt = tmp_path / "checkpoint.tmcn"
    ckpt.write_bytes(bytes(raw))
    code = main(["eval", "--checkpoint", str(ckpt),
                 "--dataset", str(dataset_dir / "manifest.json")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_eval_refuses_every_single_bit_flip_of_a_checkpoint(tmp_path, trained_dir, dataset_dir,
                                                            capsys):
    raw = (trained_dir / "checkpoint.tmcn").read_bytes()
    ckpt = tmp_path / "checkpoint.tmcn"
    rng = np.random.default_rng(150)
    for bit in rng.integers(8 * len(raw), size=150):
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        ckpt.write_bytes(bytes(flipped))
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--dataset", str(dataset_dir / "manifest.json")])
        err = capsys.readouterr().err
        # one line, the error line: no traceback and no warning
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, (bit, err)


@pytest.mark.parametrize("mode, scale, command, message", [
    ("no-tmfn", 1e308, "eval", "fused embedding: non-finite value in row"),
    ("no-tmfn", 1e308, "export-embeddings", "fused embedding: non-finite value in row"),
    ("full", 1e300, "eval", "state-scan: non-finite state at step 0"),
    ("full", 1e300, "export-embeddings", "state-scan: non-finite state at step 0"),
    # a finite embedding near 1e299 whose squared norms overflow
    ("no-tmfn", 1e300, "eval", "kmeans: row 0 has a non-finite squared norm"),
])
def test_blown_up_weights_are_a_clean_error(tmp_path, dataset_dir, capsys, recwarn,
                                            mode, scale, command, message):
    manifest = str(dataset_dir / "manifest.json")
    # hidden width 32, so that a 1e308 first layer overflows the encoder on some rows
    assert main(["train", "--dataset", manifest, "--out", str(tmp_path), "--mode", mode,
                 *TINY_SETS, "--set", "hidden_dims=32"]) == 0
    ckpt = tmp_path / "checkpoint.tmcn"
    model = load_model(ckpt)
    model.params()["view0.encoder.layer0.weight"].data *= scale
    save_checkpoint(model, ckpt)
    capsys.readouterr()
    target = tmp_path / "out.csv"
    out_flag = ["--assignments" if command == "eval" else "--out", str(target)]
    code = main([command, "--checkpoint", str(ckpt), "--dataset", manifest, *out_flag])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not target.exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("views, message", [
    ("5,4,3", "dataset has 3 views, the model was trained on 2 (view_dims [5, 4])"),
    ("5", "dataset has 1 view, the model was trained on 2 (view_dims [5, 4])"),
    ("5,6", "view 1 has 6 columns, the model expects 4"),
    ("3,4", "view 0 has 3 columns, the model expects 5"),
])
@pytest.mark.parametrize("command", ["eval", "export-embeddings"])
@pytest.mark.parametrize("mode", ["full", "no-tmfn"])
def test_views_that_do_not_fit_the_model_are_a_clean_error(request, tmp_path, capsys, mode,
                                                           command, views, message):
    run = request.getfixturevalue("trained_dir" if mode == "full" else "no_tmfn_dir")
    data = tmp_path / "data"
    assert main(["synth", "--samples", "24", "--clusters", "2", "--views", views,
                 "--out", str(data)]) == 0
    capsys.readouterr()
    target = tmp_path / "out.csv"
    out_flag = ["--assignments" if command == "eval" else "--out", str(target)]
    code = main([command, "--checkpoint", str(run / "checkpoint.tmcn"),
                 "--dataset", str(data / "manifest.json"), *out_flag])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not target.exists()


# ---------------------------------------------------------------------------
# ablate and sweep

def test_ablate_writes_mode_table(tmp_path, dataset_dir, capsys):
    out = tmp_path / "ab"
    code = main(["ablate", "--dataset", str(dataset_dir / "manifest.json"),
                 "--out", str(out), *TINY_SETS,
                 "--set", "pretrain_epochs=1", "--set", "joint_epochs=1"])
    assert code == 0
    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[0] == "mode,acc,nmi,pur"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["full", "no-tmfn", "no-ascl"]
    stdout = capsys.readouterr().out
    assert "full: acc=" in stdout and "no-ascl: acc=" in stdout
    assert json.loads((out / "run.json").read_text())["command"] == "ablate"


def test_ablate_is_a_sweep_over_mode(tmp_path, capsys):
    # overlapping clusters, so the modes score apart and the rows are told apart
    data = tmp_path / "data"
    assert main(["synth", "--samples", "120", "--clusters", "4", "--separation", "1.5",
                 "--noise", "1.5", "--seed", "0", "--out", str(data)]) == 0
    base = ["--dataset", str(data / "manifest.json"), *TINY_SETS]
    assert main(["ablate", *base, "--out", str(tmp_path / "ab")]) == 0
    assert main(["sweep", *base, "--out", str(tmp_path / "sw"),
                 "--grid", "mode=full,no-tmfn,no-ascl"]) == 0
    table = (tmp_path / "ab" / "ablation.csv").read_bytes()
    assert table == (tmp_path / "sw" / "sweep.csv").read_bytes()
    scores = [row.split(",", 1)[1] for row in table.decode().splitlines()[1:]]
    assert len(set(scores)) == 3
    ablate, sweep = (json.loads((tmp_path / name / "run.json").read_text())
                     for name in ("ab", "sw"))
    assert {key for key in ablate.keys() | sweep.keys()
            if ablate.get(key) != sweep.get(key)} == {"command", "outputs", "grid"}


def test_sweep_covers_the_grid(tmp_path, dataset_dir):
    out = tmp_path / "sw"
    code = main(["sweep", "--dataset", str(dataset_dir / "manifest.json"),
                 "--out", str(out), *TINY_SETS,
                 "--set", "pretrain_epochs=1", "--set", "joint_epochs=1",
                 "--grid", "d=2,4", "--grid", "alpha=2"])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "d,alpha,acc,nmi,pur"
    assert len(lines) == 1 + 2
    assert lines[1].startswith("2,2,") and lines[2].startswith("4,2,")
    run = json.loads((out / "run.json").read_text())
    assert run["grid"] == {"d": [2, 4], "alpha": [2]}


def test_sweep_over_preprocess_matches_single_runs(tmp_path, dataset_dir, capsys):
    manifest = str(dataset_dir / "manifest.json")
    assert main(["sweep", "--dataset", manifest, "--out", str(tmp_path / "sw"), *TINY_SETS,
                 "--grid", "preprocess=minmax,none"]) == 0
    rows = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["minmax", "none"]
    for row in rows:
        setting, *metrics = row.split(",")
        out = tmp_path / setting
        assert main(["train", "--dataset", manifest, "--out", str(out), *TINY_SETS,
                     "--set", f"preprocess={setting}"]) == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out / "checkpoint.tmcn"),
                     "--dataset", manifest]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [float(m) for m in metrics] == [payload[k] for k in ("acc", "nmi", "pur")]
    assert rows[0].split(",")[1:] != rows[1].split(",")[1:]


def test_run_manifests_share_one_layout(tmp_path, dataset_dir):
    base = ["--dataset", str(dataset_dir / "manifest.json"), *TINY_SETS,
            "--set", "pretrain_epochs=1", "--set", "joint_epochs=1"]
    runs = {}
    for command, extra in (("train", []), ("ablate", []), ("sweep", ["--grid", "d=2"])):
        out = tmp_path / command
        assert main([command, *base, "--out", str(out), *extra]) == 0
        runs[command] = json.loads((out / "run.json").read_text())
    layout = {"tool_version", "command", "config", "dataset", "outputs"}
    assert set(runs["train"]) == set(runs["ablate"]) == layout
    assert set(runs["sweep"]) == layout | {"grid"}
    configs = [TrainConfig(**run["config"]) for run in runs.values()]
    assert configs[0] == configs[1] == configs[2]
    assert configs[0].hidden_dims == (8,)


def test_sweep_rejects_zero_clusters(tmp_path, dataset_dir, capsys):
    code = main(["sweep", "--dataset", str(dataset_dir / "manifest.json"),
                 "--out", str(tmp_path), *TINY_SETS, "--set", "n_clusters=0",
                 "--grid", "d=2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n_clusters" in err


@pytest.mark.parametrize("grid, cell, reason", [
    ("d=4,0", "d=0", "seq_dim must be an integer >= 1, got 0"),
    ("preprocess=minmax,rms", "preprocess=rms", "preprocess must be one of"),
])
def test_sweep_checks_every_cell_before_training(tmp_path, dataset_dir, capsys,
                                                 grid, cell, reason):
    out = tmp_path / "sw"
    code = main(["sweep", "--dataset", str(dataset_dir / "manifest.json"),
                 "--out", str(out), *TINY_SETS, "--grid", grid])
    assert code == 1
    captured = capsys.readouterr()
    errors = [ln for ln in captured.err.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith(f"error: invalid configuration in grid cell {cell}: {reason}")
    assert captured.out == ""
    assert not out.exists()  # neither run.json nor a sweep.csv row


@pytest.mark.parametrize("command", ["sweep", "ablate"])
def test_unlabeled_dataset_is_refused_before_any_output(tmp_path, dataset_dir, capsys, command):
    labeled = load_dataset(dataset_dir / "manifest.json")
    unlabeled = save_dataset(MultiViewDataset(views=labeled.views, name="u"), tmp_path / "u")
    out = tmp_path / "out"
    grid = ["--grid", "d=2"] if command == "sweep" else []
    code = main([command, "--dataset", str(unlabeled), "--out", str(out), *TINY_SETS,
                 "--set", "n_clusters=2", *grid])
    assert code == 1
    captured = capsys.readouterr()
    assert [ln for ln in captured.err.splitlines() if ln.startswith("error:")] == \
        [f"error: {command} needs a labeled dataset"]
    assert captured.out == ""
    assert not (out / "run.json").exists() and not (out / "sweep.csv").exists()


@pytest.mark.parametrize("grids, first, second, field", [
    (["d=4,8", "d=16"], "d", "d", "seq_dim"),
    (["d=4", "seq_dim=8"], "d", "seq_dim", "seq_dim"),
], ids=["same-name", "alias-and-field"])
def test_sweep_refuses_a_field_gridded_twice(tmp_path, dataset_dir, capsys,
                                             grids, first, second, field):
    # two --grid flags on one field would train every row at the last value
    # while the table's columns claim the others
    out = tmp_path / "sw"
    code = main(["sweep", "--dataset", str(dataset_dir / "manifest.json"),
                 "--out", str(out), *TINY_SETS,
                 *(arg for grid in grids for arg in ("--grid", grid))])
    assert code == 1
    captured = capsys.readouterr()
    errors = [ln for ln in captured.err.splitlines() if ln.startswith("error:")]
    assert errors == [f"error: --grid {first} and --grid {second} both set {field}; "
                      f"give each field one --grid"]
    assert captured.out == ""
    assert not (out / "run.json").exists() and not (out / "sweep.csv").exists()


def test_sweep_without_grid_is_an_error(tmp_path, dataset_dir, capsys):
    code = main(["sweep", "--dataset", str(dataset_dir / "manifest.json"),
                 "--out", str(tmp_path)])
    assert code == 1
    assert "--grid" in capsys.readouterr().err


def test_grid_rejects_unknown_fields(tmp_path, dataset_dir, capsys):
    code = main(["sweep", "--dataset", str(dataset_dir / "manifest.json"),
                 "--out", str(tmp_path), "--grid", "width=1,2"])
    assert code == 1
    assert "unknown config field" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# export

def test_export_embeddings_csv(tmp_path, trained_dir, dataset_dir):
    target = tmp_path / "emb.csv"
    code = main(["export-embeddings", "--checkpoint", str(trained_dir / "checkpoint.tmcn"),
                 "--dataset", str(dataset_dir / "manifest.json"), "--out", str(target)])
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == ",".join([f"h{i}" for i in range(8)] + ["label"])
    assert len(lines) == 1 + 24
    first = lines[1].split(",")
    assert len(first) == 9
    float(first[0])  # repr floats parse back
    assert first[-1] in {"0", "1"}


# ---------------------------------------------------------------------------
# process-level entry

def test_import_loads_no_scipy():
    # the runtime is numpy only; scipy would add most of the start-up time
    code = ("import sys, tmcn, tmcn.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_point_reports_version():
    proc = subprocess.run([sys.executable, "-m", "tmcn.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def test_verbose_flag_logs_each_views_zero_norm_warning_once_through_its_handler(tmp_path):
    # row 0 is zero in every view; with zero-init biases its embeddings and
    # projections are zero on the first step, so each view's cosine warns
    rng = np.random.default_rng(0)
    views = [rng.uniform(0.5, 1.5, size=(12, d)) for d in (5, 4, 3)]
    for view in views:
        view[0] = 0.0
    manifest = save_dataset(MultiViewDataset(views=views, name="zero-row"), tmp_path / "data")
    argv = [sys.executable, "-m", "tmcn.cli", "-v", "train", "--dataset", str(manifest),
            "--out", str(tmp_path / "run"), *TINY_SETS, "--set", "preprocess=none",
            "--set", "pretrain_epochs=0", "--set", "joint_epochs=1", "--set", "batch_size=12"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = [ln for ln in proc.stderr.splitlines() if "zero-norm" in ln]
    # one step, three views: the backward's rerun of each term logs nothing,
    # and Python's last-resort handler would print the bare message
    assert len(lines) == 3, proc.stderr
    assert all(ln.startswith("WARNING tmcn.tensor: cosine similarity:") for ln in lines)

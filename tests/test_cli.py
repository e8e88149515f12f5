"""Command-line tests driven through main(argv) plus one real subprocess."""

import json
import struct
import subprocess
import sys

import pytest

from helpers import set_checkpoint_scalar
from tmcn.cli import main
from tmcn.data import MultiViewDataset, load_dataset, save_dataset
from tmcn.trainer import TrainConfig, load_model, save_checkpoint

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


def test_synth_rejects_non_positive_counts(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--samples", "10", "--clusters", "0", "--out", "/tmp/x"])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train

def test_train_writes_run_manifest_history_checkpoint(trained_dir, capsys):
    run = json.loads((trained_dir / "run.json").read_text())
    assert run["command"] == "train"
    assert run["config"]["seq_len"] == 2
    assert run["config"]["hidden_dims"] == [8]
    assert run["normalize"] is True
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
    set_checkpoint_scalar(ckpt, "meta.mode", 7)
    code = main(["eval", "--checkpoint", str(ckpt),
                 "--dataset", str(dataset_dir / "manifest.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "meta.mode" in err


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
    model, extra = load_model(ckpt)
    model.params()["view0.encoder.layer0.weight"].data *= scale
    save_checkpoint(model, ckpt, extra=extra)
    capsys.readouterr()
    target = tmp_path / "out.csv"
    out_flag = ["--assignments" if command == "eval" else "--out", str(target)]
    code = main([command, "--checkpoint", str(ckpt), "--dataset", manifest, *out_flag])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not target.exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


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


def test_run_manifests_share_one_layout(tmp_path, dataset_dir):
    base = ["--dataset", str(dataset_dir / "manifest.json"), *TINY_SETS,
            "--set", "pretrain_epochs=1", "--set", "joint_epochs=1"]
    runs = {}
    for command, extra in (("train", []), ("ablate", []), ("sweep", ["--grid", "d=2"])):
        out = tmp_path / command
        assert main([command, *base, "--out", str(out), *extra]) == 0
        runs[command] = json.loads((out / "run.json").read_text())
    layout = {"tool_version", "command", "config", "dataset", "normalize", "outputs"}
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

def test_module_entry_point_reports_version():
    proc = subprocess.run([sys.executable, "-m", "tmcn.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"

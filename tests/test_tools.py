"""Smoke tests of the scripts under tools/, each run as its own process."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_cell_ab_prints_one_json_line_for_a_small_cell():
    argv = [sys.executable, str(ROOT / "tools" / "cell_ab.py"), "--seq-dim", "4",
            "--expand", "2", "--pretrain", "1", "--joint", "1"]
    runs = [subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
            for _ in range(2)]
    lines = [run.stdout.strip().splitlines() for run in runs]
    assert all(len(ln) == 1 for ln in lines)
    first, second = (json.loads(ln[0]) for ln in lines)
    assert (first["seq_dim"], first["expand_factor"]) == (4, 2)
    assert (first["pretrain_epochs"], first["joint_epochs"]) == (1, 1)
    assert first["train_s"] > 0 and first["train_cpu_s"] > 0 and first["peak_rss_mib"] > 0
    assert len(first["params_sha256"]) == 64
    assert Path(first["src"]) == ROOT / "src"
    # training is a pure function of its config: a second process gives the same bits
    assert (first["final_loss"], first["params_sha256"]) == \
        (second["final_loss"], second["params_sha256"])


def test_step_memory_prints_one_json_line_for_a_small_cell():
    argv = [sys.executable, str(ROOT / "tools" / "step_memory.py"), "--seq-dim", "4",
            "--expand", "2", "--batch-size", "900"]
    run = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
    lines = run.stdout.strip().splitlines()
    assert len(lines) == 1
    out = json.loads(lines[0])
    assert set(out) == {"seq_dim", "expand_factor", "batch_size", "joint_forward_mib",
                        "joint_backward_peak_mib", "pretrain_peak_mib", "src"}
    # the batch is capped at the cell's 500 rows
    assert (out["seq_dim"], out["expand_factor"], out["batch_size"]) == (4, 2, 500)
    assert 0 < out["pretrain_peak_mib"]
    # the joint tape holds the fusion input and output and the contrastive weights
    assert 0 < out["joint_forward_mib"] <= out["joint_backward_peak_mib"]
    assert Path(out["src"]) == ROOT / "src"

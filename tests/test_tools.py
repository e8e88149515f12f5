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

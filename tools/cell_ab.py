"""Train one (seq_dim, expand_factor) cell of the acceptance config and report its cost.

    python3 tools/cell_ab.py --seq-dim 128 --expand 12 --pretrain 1 --joint 1
    python3 tools/cell_ab.py --seq-dim 128 --expand 12 --src /path/to/other/checkout/src

The cell is criterion 10's, as ``acceptance_cell.py`` builds it, with the
epoch counts given.  The process prints one JSON line:
``train_s`` (wall time of ``train``), ``train_cpu_s`` (its process CPU
time, the clock ``perfbench`` uses, which leaves out time the host
holds the CPU back), ``peak_rss_mib`` (the process's peak RSS, data
generation included), the final ``total_loss`` and the SHA-256 of
every parameter's bytes in name order.

``--src`` picks the ``tmcn`` sources to import (default: this
checkout's ``src``), so one script measures two checkouts: run it once
per side, alternating, for a same-script A/B of a wide cell.  Equal
``params_sha256`` and ``final_loss`` mean bit-identical training.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from acceptance_cell import SRC, build


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seq-dim", type=int, required=True)
    p.add_argument("--expand", type=int, required=True, help="expand_factor")
    p.add_argument("--pretrain", type=int, default=15, help="pretrain epochs (default 15)")
    p.add_argument("--joint", type=int, default=10, help="joint epochs (default 10)")
    p.add_argument("--src", default=str(SRC), help="tmcn sources to import")
    args = p.parse_args(argv)

    config, data = build(args.src, args.seq_dim, args.expand, args.pretrain, args.joint)
    from tmcn import train
    t0, cpu0 = time.perf_counter(), time.process_time()
    model, history = train(config, data)
    train_s, train_cpu_s = time.perf_counter() - t0, time.process_time() - cpu0
    sha = hashlib.sha256()
    for name, tensor in sorted(model.params().items()):
        sha.update(name.encode())
        sha.update(tensor.data.tobytes())
    print(json.dumps({
        "seq_dim": args.seq_dim, "expand_factor": args.expand,
        "pretrain_epochs": args.pretrain, "joint_epochs": args.joint,
        "train_s": train_s,
        "train_cpu_s": train_cpu_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_loss": history.records[-1].total_loss if history.records else None,
        "params_sha256": sha.hexdigest(),
        "src": str(Path(args.src).resolve()),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Measure the traced memory of the pretrain and joint steps of the acceptance config.

    python3 tools/step_memory.py
    python3 tools/step_memory.py --seq-dim 128 --expand 12
    python3 tools/step_memory.py --batch-size 500
    python3 tools/step_memory.py --src /path/to/other/checkout/src

It runs ``train`` on the cell of ``acceptance_cell.py``, with ``seq_dim``,
``expand_factor`` and ``batch_size`` as given (the batch is capped at the
cell's 500 rows), for one pretrain epoch and one joint epoch, under
``tracemalloc``.  ``Tape.__enter__`` and ``Tape.backward``
are wrapped for the run, so each training step is measured from the
moment its tape opens, above what was live then: the model, the data,
the optimiser state and the interpreter are left out.  The process
prints one JSON line, each figure the largest over the steps of its
phase:

- ``joint_forward_mib``: live when a joint step's backward starts, the
  arrays its tape keeps for the backward;
- ``joint_backward_peak_mib``: the peak inside that backward;
- ``pretrain_peak_mib``: the peak of a whole pretrain step, forward and
  backward.

``--src`` picks the ``tmcn`` sources to import (default: this checkout's
``src``), so one script measures two checkouts.
"""

import argparse
import json
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

from acceptance_cell import SRC, build

MIB = 2.0 ** 20


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seq-dim", type=int, default=16)
    p.add_argument("--expand", type=int, default=2, help="expand_factor")
    p.add_argument("--batch-size", type=int, default=256,
                   help="rows per step (default 256, at most the cell's 500)")
    p.add_argument("--src", default=str(SRC), help="tmcn sources to import")
    args = p.parse_args(argv)

    config, data = build(args.src, args.seq_dim, args.expand, pretrain=1, joint=1)
    config = replace(config, batch_size=min(args.batch_size, data.n_samples))
    from tmcn import train
    from tmcn.tensor import Tape

    steps = []          # per step: [start, forward live, forward peak, backward peak]
    in_backward = False
    enter, backward = Tape.__enter__, Tape.backward

    def traced_enter(tape):
        # a tape opened inside a backward reruns a chunk; it is no step of its own
        if not in_backward:
            tracemalloc.reset_peak()
            steps.append([tracemalloc.get_traced_memory()[0]])
        return enter(tape)

    def traced_backward(tape, loss):
        nonlocal in_backward
        step = steps[-1]
        live, peak = tracemalloc.get_traced_memory()
        step += [live - step[0], peak - step[0]]
        tracemalloc.reset_peak()
        in_backward = True
        try:
            backward(tape, loss)
        finally:
            in_backward = False
        step.append(tracemalloc.get_traced_memory()[1] - step[0])

    Tape.__enter__, Tape.backward = traced_enter, traced_backward
    tracemalloc.start()
    try:
        train(config, data)
    finally:
        tracemalloc.stop()
        Tape.__enter__, Tape.backward = enter, backward
    # both phases run one epoch over the same rows, so they take as many steps
    pretrain, joint = steps[:len(steps) // 2], steps[len(steps) // 2:]
    print(json.dumps({
        "seq_dim": args.seq_dim, "expand_factor": args.expand, "batch_size": config.batch_size,
        "joint_forward_mib": max(s[1] for s in joint) / MIB,
        "joint_backward_peak_mib": max(s[3] for s in joint) / MIB,
        "pretrain_peak_mib": max(max(s[2], s[3]) for s in pretrain) / MIB,
        "src": str(Path(args.src).resolve()),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

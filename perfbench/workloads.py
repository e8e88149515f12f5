"""The benchmark's workloads: inputs made from a seed, the timed calls, output checks.

Every workload draws its samples, at the benchmark's ``--seed``, from
one fixed population: 20,000 rows of ``SyntheticSpec(n_clusters=4,
view_dims=[20, 30, 25], separation=6.0, noise_std=0.5, seed=7)``.  The
program only ever sees the drawn rows.  The seed picks samples, not the
cluster geometry, because k-means time follows the geometry: over
SyntheticSpec seeds 1-8 the ten restarts took 21 to 70 Lloyd iterations
in all, over eight draws from one population 51 to 66.  With a new
geometry per seed, eval_s would spread by about a fifth between seeds.

Each session of a run draws its own rows, from the seed and the
session's index, so that a run's medians cover several draws.  Even
within one population the draw moves k-means work: on cluster_large the
median Lloyd iterations per evaluate call ranged 69-89 over seeds 41-50.

``acceptance`` rescales the views with ``rescale_views``, as the
acceptance tests do; ``cluster_large`` goes through the command line,
which applies its own min-max scaling.

Why each workload exists:

- ``acceptance``: the pinned release configuration of
  ``tests/test_acceptance.py``.  Its mix (state scan, autoencoders,
  Adam, contrastive loss, engine overhead) is where a gain in one layer
  that costs another shows up.
- ``cluster_large``: the ``tmcn train`` then ``tmcn eval`` user path:
  training on the first 500 of 2,000 samples, evaluation on all 2,000.
  Evaluation has no tape and no backward: k-means and forward-only
  fusion dominate, and memory grows with N.

Each train call is followed by several evaluate calls, each with its own
k-means seed (``eval_seeds``): the Lloyd iterations of ten restarts, and
with them one call's time, vary by a tenth or more from one k-means
seed to the next, so a steady eval_s is a median over many seeds.
That is also why ``cluster_large`` has 2,000 rows and not 10,000: at
10,000 one evaluate call takes about 10 s, too long for the many calls
a run makes within its time budget.

Before its timed calls a session warms up (``warm_up``): one train call
on the configuration cut to one epoch per phase, and one evaluate call,
both checked and neither timed.  The first train call in a process was
often 10-25% slower than the later ones, and by how much varied from
process to process; that start-up cost is not the program's steady
cost, and it made train_s spread.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import struct
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from tmcn import (
    MultiViewDataset,
    SyntheticSpec,
    TrainConfig,
    cli,
    generate_synthetic,
    rescale_views,
    save_dataset,
    trainer,
)

# Every timing is the process's CPU time (user + system).  Runs are
# single-threaded under the BLAS pin, so on an idle machine this is the
# wall time; on a shared virtual machine it leaves out the time the host
# holds the virtual CPU back (12-15% steal on a 2-vCPU cloud VM), which
# would enter wall time as noise.
CLOCK = time.process_time

POPULATION = SyntheticSpec(n_samples=20_000, n_clusters=4, view_dims=[20, 30, 25],
                           separation=6.0, noise_std=0.5, seed=7)

# the pinned release configuration of tests/test_acceptance.py
ACCEPTANCE = TrainConfig(pretrain_epochs=15, joint_epochs=10, seed=1,
                         ascl_weight=0.01, hidden_dims=(128,),
                         seq_len=8, seq_dim=16, state_size=8)

# the same configuration as command-line flags, as in the README
ACCEPTANCE_FLAGS = ["--set", "pretrain_epochs=15", "--set", "joint_epochs=10",
                    "--set", "hidden_dims=128", "--set", "seq_len=8",
                    "--set", "seq_dim=16", "--set", "state_size=8",
                    "--set", "ascl_weight=0.01", "--seed", "1"]


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


@dataclass(frozen=True)
class Workload:
    name: str
    n_samples: int
    config: TrainConfig | None      # None: trained through the command line
    evals_per_train: int            # evaluate calls per train call, each a k-means seed
    acc_floor: float                # a check fails below these: about 0.1 under the
    nmi_floor: float                # lowest acc and nmi seen at the defining commit


WORKLOADS = {
    w.name: w for w in (
        Workload("acceptance", 500, ACCEPTANCE, 3, 0.88, 0.85),
        Workload("cluster_large", 2_000, None, 2, 0.88, 0.82),
    )
}

# the warm-up cut of the configuration: one epoch per phase
WARM_EPOCHS = {"pretrain_epochs": 1, "joint_epochs": 1}


# ---------------------------------------------------------------------------
# output checks

def digest(total_loss: float, assignments: np.ndarray) -> str:
    """Bit-exact fingerprint of a run's final loss and eval assignments."""
    h = hashlib.sha256(struct.pack("<d", total_loss))
    h.update(np.ascontiguousarray(assignments, dtype="<i8").tobytes())
    return h.hexdigest()


def check_losses(losses) -> None:
    bad = [x for x in losses if x is not None and not math.isfinite(x)]
    if bad or not losses:
        raise CheckFailed(f"non-finite or missing history loss: {bad[:3]}")


def check_embedding(embedding, n_samples: int, width: int) -> None:
    if embedding is None or embedding.shape != (n_samples, width):
        shape = None if embedding is None else embedding.shape
        raise CheckFailed(f"fused embedding shape {shape}, expected {(n_samples, width)}")
    if not np.all(np.isfinite(embedding)):
        raise CheckFailed("fused embedding has non-finite entries")


def check_quality(w: Workload, acc: float, nmi: float) -> None:
    if not (acc >= w.acc_floor and nmi >= w.nmi_floor):
        raise CheckFailed(f"quality below floor: acc {acc} (>= {w.acc_floor}), "
                          f"nmi {nmi} (>= {w.nmi_floor})")


@contextlib.contextmanager
def capture_embedding():
    """Keep the last fused embedding that evaluation computed, for checking.

    Adds one Python call per evaluation; nothing is timed.
    """
    model = trainer.TmcnModel
    raw = model.__dict__["fused_embedding"]
    box = {}

    def fused_embedding(self, views):
        box["embedding"] = out = raw(self, views)
        box["width"] = self.n_views * self.embed_dim
        return out

    model.fused_embedding = fused_embedding
    try:
        yield box
    finally:
        model.fused_embedding = raw


# ---------------------------------------------------------------------------
# set-up and timed operations

def draw(n_samples: int, seed: int, session: int) -> MultiViewDataset:
    """``n_samples`` rows of the population, chosen by ``seed`` and ``session``.

    The rows stay in population order.
    """
    pool = generate_synthetic(POPULATION)
    rng = np.random.default_rng([seed, session])
    rows = np.sort(rng.choice(POPULATION.n_samples, n_samples, replace=False))
    return MultiViewDataset(views=[v[rows] for v in pool.views], labels=pool.labels[rows],
                            n_clusters=pool.n_clusters)


class LibraryRun:
    """train() then evaluate() in process, on views rescaled as the acceptance tests do."""

    def __init__(self, w: Workload, seed: int, session: int, work: Path, tracer):
        self.w = w
        self.tracer = tracer
        with tracer.span("data.generate"):
            raw = draw(w.n_samples, seed, session)
        with tracer.span("data.rescale"):
            self.data = rescale_views(raw)
        self.model = None
        self.total_loss = None

    def train(self, config: TrainConfig | None = None) -> float:
        t0 = CLOCK()
        with self.tracer.span("trainer.train"):
            self.model, history = trainer.train(config or self.w.config, self.data)
        elapsed = CLOCK() - t0
        self.total_loss = history.records[-1].total_loss
        check_losses([x for r in history.records
                      for x in (r.total_loss, r.rec_loss, r.ascl_loss)])
        return elapsed

    def warm_up(self) -> None:
        """An untimed, checked train call on the cut configuration, then one evaluate."""
        self.train(replace(self.w.config, **WARM_EPOCHS))
        self.evaluate(ACCEPTANCE.seed)

    def evaluate(self, kmeans_seed: int):
        """Returns (seconds, acc, nmi, digest)."""
        with capture_embedding() as box:
            t0 = CLOCK()
            with self.tracer.span("trainer.evaluate"):
                result = trainer.evaluate(self.model, self.data, seed=kmeans_seed)
            elapsed = CLOCK() - t0
        check_embedding(box.get("embedding"), self.w.n_samples, box.get("width"))
        acc, nmi = result.metrics.acc, result.metrics.nmi
        check_quality(self.w, acc, nmi)
        return elapsed, acc, nmi, digest(self.total_loss, result.clustering.assignments)


def _cli(argv, tracer, name) -> str:
    out = io.StringIO()
    with tracer.span(name), contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise CheckFailed(f"tmcn {argv[0]} exited {rc}")
    return out.getvalue()


class CliRun:
    """``tmcn train`` on the first 500 rows of the drawn dataset, then ``tmcn eval`` of all.

    Set-up writes both datasets; every train call writes a new checkpoint
    over the last, and the evaluate calls that follow read it.
    """

    def __init__(self, w: Workload, seed: int, session: int, work: Path, tracer):
        self.w = w
        self.tracer = tracer
        with tracer.span("data.generate"):
            full = draw(w.n_samples, seed, session)
            head = MultiViewDataset(views=[v[:500] for v in full.views],
                                    labels=full.labels[:500], n_clusters=full.n_clusters)
        with tracer.span("data.save"):
            self.full = save_dataset(full, work / "full")
            self.head = save_dataset(head, work / "head")
        self.run = work / "run"
        self.checkpoint = self.run / "checkpoint.tmcn"
        self.assignments = work / "assignments.csv"
        self.total_loss = None

    def train(self, extra_flags=()) -> float:
        t0 = CLOCK()
        _cli(["train", "--dataset", str(self.head), "--out", str(self.run),
              *ACCEPTANCE_FLAGS, *extra_flags], self.tracer, "cli.train")
        elapsed = CLOCK() - t0
        with open(self.run / "history.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        check_losses([float(r[k]) for r in rows for k in ("total_loss", "rec_loss")]
                     + [float(r["ascl_loss"]) for r in rows if r["ascl_loss"]])
        self.total_loss = float(rows[-1]["total_loss"])
        return elapsed

    def warm_up(self) -> None:
        """An untimed, checked train call on the cut configuration, then one evaluate."""
        self.train([f for k, v in WARM_EPOCHS.items() for f in ("--set", f"{k}={v}")])
        self.evaluate(ACCEPTANCE.seed)

    def evaluate(self, kmeans_seed: int):
        argv = ["eval", "--checkpoint", str(self.checkpoint), "--dataset", str(self.full),
                "--seed", str(kmeans_seed), "--assignments", str(self.assignments)]
        with capture_embedding() as box:
            t0 = CLOCK()
            printed = _cli(argv, self.tracer, "cli.eval")
            elapsed = CLOCK() - t0
        check_embedding(box.get("embedding"), self.w.n_samples, box.get("width"))
        payload = json.loads(printed)
        with open(self.assignments, newline="") as f:
            assignments = np.array([int(r["cluster"]) for r in csv.DictReader(f)])
        if assignments.shape != (self.w.n_samples,):
            raise CheckFailed(f"{assignments.shape[0]} assignments for {self.w.n_samples} rows")
        check_quality(self.w, payload["acc"], payload["nmi"])
        return elapsed, payload["acc"], payload["nmi"], digest(self.total_loss, assignments)


def eval_seeds(rep: int, count: int) -> list[int]:
    """k-means seeds of the ``count`` evaluate calls after a session's ``rep``-th train call.

    Every seed in a session is new, so that a run's median eval_s covers
    many k-means seeds.
    """
    first = ACCEPTANCE.seed + rep * count
    return list(range(first, first + count))


def start(w: Workload, seed: int, session: int, work: Path, tracer):
    """Make the workload's inputs; the returned object runs the timed calls."""
    return (CliRun if w.config is None else LibraryRun)(w, seed, session, work, tracer)

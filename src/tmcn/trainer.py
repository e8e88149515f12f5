"""Two-phase training, evaluation, ablation, checkpoints and history logging.

Phase 1 pretrains the per-view autoencoders on the summed reconstruction
loss; phase 2 jointly minimizes reconstruction plus ``ascl_weight``
times the contrastive term.  The optimized step objective divides the
reconstruction sum by the batch size so the learning rate does not
depend on batching; the history records both the sum form and the
per-sample form.

Modes: ``full`` is the whole pipeline, ``no-tmfn`` replaces the fusion
block with plain concatenation of view embeddings, ``no-ascl`` trains
with contrastive weight 0.

A training run is a pure function of (config, dataset): all parameter
init and shuffling derive from keyed generators under ``config.seed``,
and each component gets its own stream so ablation modes share inits.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .autoencoder import ViewAutoencoder, reconstruction_loss
from .clustering import ClusteringResult, MetricTriple, evaluate_labels, kmeans
from .contrastive import (
    ContrastiveConfig,
    ProjectionHeads,
    average_similarity,
    contrastive_loss,
    project,
    view_similarity,
)
from .data import MultiViewDataset
from .fusion import SelectiveFusion
from .tensor import Tape, Tensor, concat

MODES = ("full", "no-tmfn", "no-ascl")
HISTORY_COLUMNS = ("epoch", "phase", "total_loss", "rec_loss", "ascl_loss",
                   "clamp_frac", "acc", "nmi", "pur")
CHECKPOINT_MAGIC = b"TMCN"
CHECKPOINT_VERSION = 1

_MODE_CODES = {mode: i for i, mode in enumerate(MODES)}


class TrainingDiverged(ArithmeticError):
    """A loss term went non-finite mid-run."""


@dataclass
class ModelConfig:
    """The shape of a model: everything its parameter layout depends on."""

    hidden_dims: tuple[int, ...] = (500, 500, 2000)
    seq_len: int = 16
    seq_dim: int = 16
    expand_factor: int = 2
    state_size: int = 16
    conv_width: int = 4
    proj_dim: int = 128
    mode: str = "full"

    def __post_init__(self):
        self.hidden_dims = tuple(int(h) for h in self.hidden_dims)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError(f"hidden_dims widths must be >= 1, got {self.hidden_dims}")
        for f in fields(ModelConfig):
            if f.type == "int" and getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be >= 1, got {getattr(self, f.name)}")


@dataclass
class TrainConfig(ModelConfig):
    """Everything a run depends on besides the dataset itself."""

    ascl_weight: float = 1.0          # weight on the contrastive term
    temperature: float = 0.5
    learning_rate: float = 3e-4
    batch_size: int = 256
    pretrain_epochs: int = 25
    joint_epochs: int = 35
    seed: int = 0
    ascl_mode: str = "self-excluded"  # denominator convention, or "literal"
    ascl_floor: float = 1e-8
    n_clusters: int | None = None
    eval_every: int = 0               # epochs between metric rows; 0 disables

    def __post_init__(self):
        super().__post_init__()
        if self.ascl_weight < 0:
            raise ValueError(f"ascl_weight must be >= 0, got {self.ascl_weight}")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.pretrain_epochs < 0 or self.joint_epochs < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.eval_every < 0:
            raise ValueError(f"eval_every must be >= 0, got {self.eval_every}")
        if self.n_clusters is not None and self.n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {self.n_clusters}")
        self.contrastive()  # temperature / mode / floor checks live with the loss config

    def contrastive(self) -> ContrastiveConfig:
        return ContrastiveConfig(temperature=self.temperature, mode=self.ascl_mode,
                                 floor=self.ascl_floor)


# ---------------------------------------------------------------------------
# model

class TmcnModel:
    """Per-view autoencoders, optional fusion block, projection heads."""

    def __init__(self, view_dims, config: ModelConfig, seed=0):
        self.view_dims = [int(d) for d in view_dims]
        self.config = config

        m = len(self.view_dims)
        embed = self.embed_dim
        # keyed streams: every component draws from its own generator, so
        # switching mode never shifts another component's initialization
        self.autoencoders = [
            ViewAutoencoder(dim, embed, np.random.default_rng([seed, 1, i]),
                            hidden_dims=config.hidden_dims)
            for i, dim in enumerate(self.view_dims)
        ]
        self.fusion = (None if config.mode == "no-tmfn"
                       else SelectiveFusion(m, config, np.random.default_rng([seed, 2])))
        self.heads = ProjectionHeads.init(fused_dim=m * embed, view_dim=embed,
                                          n_views=m, proj_dim=config.proj_dim,
                                          rng=np.random.default_rng([seed, 3]))

    @classmethod
    def from_config(cls, view_dims, config: TrainConfig) -> "TmcnModel":
        return cls(view_dims, config, seed=config.seed)

    @property
    def n_views(self) -> int:
        return len(self.view_dims)

    @property
    def embed_dim(self) -> int:
        return self.config.seq_len * self.config.seq_dim

    def encode_views(self, xs: list[Tensor]) -> list[Tensor]:
        return [ae.encode(x) for ae, x in zip(self.autoencoders, xs)]

    def decode_views(self, zs: list[Tensor]) -> list[Tensor]:
        return [ae.decode(z) for ae, z in zip(self.autoencoders, zs)]

    def fuse(self, zs: list[Tensor]) -> Tensor:
        u = concat(zs, axis=1)
        return u if self.fusion is None else self.fusion(u)

    def project(self, u: Tensor, zs: list[Tensor]):
        return project(u, zs, self.heads)

    def fused_embedding(self, views: list[np.ndarray]) -> np.ndarray:
        """Fused representation of every sample (no gradient tracking).

        This is the consensus vector the clustering runs on; the
        projection heads exist only inside the contrastive loss.  Rows
        run in chunks of ``TrainConfig.batch_size``, so inference memory
        is bounded by the batch size, not by the sample count.
        """
        views = [np.asarray(v) for v in views]
        # an overflow surfaces as a non-finite row, which raises below
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.concatenate([
                self.fuse(self.encode_views([Tensor(v[idx]) for v in views])).data
                for idx in _batches(np.arange(len(views[0])), TrainConfig.batch_size)])
        bad = ~np.isfinite(out).all(axis=1)
        if bad.any():
            raise FloatingPointError(f"fused embedding: non-finite value in row "
                                     f"{int(bad.argmax())}")
        return out

    def params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for m, ae in enumerate(self.autoencoders):
            out.update(ae.params(f"view{m}"))
        if self.fusion is not None:
            out.update(self.fusion.params("fusion"))
        out.update(self.heads.params("heads"))
        return out

    def structure(self) -> dict[str, np.ndarray]:
        """Structural metadata blobs embedded in checkpoints."""
        blobs = {"meta.view_dims": np.asarray(self.view_dims, dtype=np.float64)}
        for f in fields(ModelConfig):
            value = getattr(self.config, f.name)
            if f.name == "mode":
                value = _MODE_CODES[value]
            blobs[f"meta.{f.name}"] = np.asarray(value, dtype=np.float64)
        return blobs


# ---------------------------------------------------------------------------
# optimizer

class Adam:
    """Adam with per-parameter step counts; parameters without a gradient are skipped."""

    def __init__(self, params: dict[str, Tensor], lr: float = 3e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in params.items()}
        self._t = {name: 0 for name in params}

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                continue
            t = self._t[name] = self._t[name] + 1
            m = self._m[name] = self.beta1 * self._m[name] + (1 - self.beta1) * p.grad
            v = self._v[name] = self.beta2 * self._v[name] + (1 - self.beta2) * p.grad ** 2
            m_hat = m / (1 - self.beta1 ** t)
            v_hat = v / (1 - self.beta2 ** t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


# ---------------------------------------------------------------------------
# history

@dataclass
class EpochRecord:
    epoch: int
    phase: str
    total_loss: float
    rec_loss: float                    # summed squared error over the epoch's data
    rec_per_sample: float              # same divided by the sample count
    ascl_loss: float | None = None
    clamp_frac: float | None = None
    acc: float | None = None
    nmi: float | None = None
    pur: float | None = None


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)

    def phase_records(self, phase: str) -> list[EpochRecord]:
        return [r for r in self.records if r.phase == phase]

    def write_csv(self, path) -> None:
        def cell(x):
            return "" if x is None else (repr(float(x)) if isinstance(x, float) else x)

        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(HISTORY_COLUMNS)
            for r in self.records:
                w.writerow([r.epoch, r.phase, cell(r.total_loss), cell(r.rec_loss),
                            cell(r.ascl_loss), cell(r.clamp_frac), cell(r.acc),
                            cell(r.nmi), cell(r.pur)])


# ---------------------------------------------------------------------------
# training

def _batches(order: np.ndarray, batch: int) -> list[np.ndarray]:
    out = [order[i:i + batch] for i in range(0, len(order), batch)]
    if len(out) > 1 and len(out[-1]) < 2:
        out[-2] = np.concatenate([out[-2], out[-1]])  # contrastive loss needs >= 2
        out.pop()
    return out


def train(config: TrainConfig, dataset: MultiViewDataset) -> tuple[TmcnModel, TrainHistory]:
    """Run both phases; returns the trained model and the per-epoch history."""
    model = TmcnModel.from_config(dataset.view_dims, config)
    params = model.params()
    opt = Adam(params, lr=config.learning_rate)
    shuffle_rng = np.random.default_rng([config.seed, 4])
    ccfg = config.contrastive()
    lam = 0.0 if config.mode == "no-ascl" else config.ascl_weight
    n = dataset.n_samples
    batch = min(config.batch_size, n)
    history = TrainHistory()

    epoch = 0
    for phase, n_epochs in (("pretrain", config.pretrain_epochs),
                            ("joint", config.joint_epochs)):
        contrast_on = phase == "joint" and lam > 0.0
        for _ in range(n_epochs):
            epoch += 1
            rec_sum = 0.0
            ascl_weighted = 0.0
            clamped = 0
            terms = 0
            for idx in _batches(shuffle_rng.permutation(n), batch):
                xs = [Tensor(view[idx]) for view in dataset.views]
                b = len(idx)
                # an overflow surfaces as a non-finite loss term, which raises
                # TrainingDiverged below, so numpy need not warn about it first
                with np.errstate(over="ignore", invalid="ignore"):
                    with Tape() as tape:
                        zs = model.encode_views(xs)
                        rec = reconstruction_loss(xs, model.decode_views(zs))
                        if not np.isfinite(rec.item()):
                            raise TrainingDiverged(
                                f"epoch {epoch}: reconstruction term went non-finite")
                        if contrast_on:
                            u = model.fuse(zs)
                            sim = average_similarity([view_similarity(z.data) for z in zs])
                            h_fused, h_views = model.project(u, zs)
                            closs, stats = contrastive_loss(h_fused, h_views, sim, ccfg)
                            if not np.isfinite(closs.item()):
                                raise TrainingDiverged(
                                    f"epoch {epoch}: contrastive term went non-finite")
                            objective = rec * (1.0 / b) + closs * lam
                            ascl_weighted += closs.item() * b
                            clamped += stats.clamped
                            terms += stats.terms
                        else:
                            objective = rec * (1.0 / b)
                        tape.backward(objective)
                    opt.step()
                opt.zero_grad()
                rec_sum += rec.item()

            record = EpochRecord(
                epoch=epoch, phase=phase,
                total_loss=rec_sum + lam * (ascl_weighted / n) if contrast_on else rec_sum,
                rec_loss=rec_sum, rec_per_sample=rec_sum / n,
                ascl_loss=ascl_weighted / n if contrast_on else None,
                clamp_frac=clamped / terms if contrast_on else None,
            )
            if (config.eval_every and epoch % config.eval_every == 0
                    and dataset.labels is not None):
                result = evaluate(model, dataset, k=config.n_clusters, seed=config.seed)
                record.acc = result.metrics.acc
                record.nmi = result.metrics.nmi
                record.pur = result.metrics.pur
            history.records.append(record)
    return model, history


# ---------------------------------------------------------------------------
# evaluation and ablation

@dataclass
class EvalResult:
    clustering: ClusteringResult
    metrics: MetricTriple | None


def evaluate(model: TmcnModel, dataset: MultiViewDataset, k: int | None = None,
             seed: int = 0, restarts: int = 10) -> EvalResult:
    """K-means on the fused representation; metrics when labels exist."""
    if k is None:
        k = dataset.n_clusters
    if k is None:
        raise ValueError("no cluster count available: pass k or use a labeled dataset")
    embedding = model.fused_embedding(dataset.views)
    clustering = kmeans(embedding, k, seed=seed, restarts=restarts)
    metrics = None
    if dataset.labels is not None:
        metrics = evaluate_labels(clustering.assignments, dataset.labels)
    return EvalResult(clustering=clustering, metrics=metrics)


@dataclass
class AblationRun:
    model: TmcnModel
    history: TrainHistory
    metrics: MetricTriple


@dataclass
class AblationResult:
    runs: dict[str, AblationRun]

    def table(self) -> list[tuple[str, float, float, float]]:
        return [(mode, run.metrics.acc, run.metrics.nmi, run.metrics.pur)
                for mode, run in self.runs.items()]


def run_ablation(config: TrainConfig, dataset: MultiViewDataset) -> AblationResult:
    """Train and evaluate every mode with the shared seed from ``config``."""
    if dataset.labels is None:
        raise ValueError("ablation needs a labeled dataset")
    runs: dict[str, AblationRun] = {}
    for mode in MODES:
        cfg = replace(config, mode=mode)
        model, history = train(cfg, dataset)
        result = evaluate(model, dataset, k=config.n_clusters, seed=config.seed)
        runs[mode] = AblationRun(model=model, history=history, metrics=result.metrics)
    return AblationResult(runs=runs)


# ---------------------------------------------------------------------------
# checkpoints

def _write_blob(f, name: str, arr: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    f.write(struct.pack("<I", len(encoded)))
    f.write(encoded)
    f.write(struct.pack("<I", arr.ndim))
    for dim in arr.shape:
        f.write(struct.pack("<I", dim))
    f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def save_checkpoint(model: TmcnModel, path, extra: dict[str, float] | None = None) -> Path:
    """Write structure metadata and all parameters as named float64 blobs."""
    path = Path(path)
    blobs = dict(model.structure())
    for key, value in (extra or {}).items():
        blobs[f"meta.extra.{key}"] = np.asarray(float(value))
    for name, p in model.params().items():
        blobs[name] = p.data
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(blobs)))
        for name, arr in blobs.items():
            _write_blob(f, name, arr)
    return path


def _read_exact(f, count: int) -> bytes:
    raw = f.read(count)
    if len(raw) != count:
        raise ValueError("checkpoint truncated")
    return raw


def load_checkpoint_blobs(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        if _read_exact(f, 4) != CHECKPOINT_MAGIC:
            raise ValueError(f"{Path(path).name}: bad magic, not a checkpoint")
        (version,) = struct.unpack("<I", _read_exact(f, 4))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        (count,) = struct.unpack("<I", _read_exact(f, 4))
        blobs: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read_exact(f, 4))
            name = _read_exact(f, name_len).decode("utf-8")
            (ndim,) = struct.unpack("<I", _read_exact(f, 4))
            shape = tuple(struct.unpack("<I", _read_exact(f, 4))[0] for _ in range(ndim))
            n_items = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(_read_exact(f, 8 * n_items), dtype="<f8").reshape(shape)
            blobs[name] = arr.astype(np.float64)
    return blobs


def _meta_ints(blobs: dict[str, np.ndarray], name: str, ndim: int):
    """The exact integers a structural blob holds: one (ndim 0) or a list (ndim 1)."""
    if name not in blobs:
        raise ValueError(f"checkpoint missing structural metadata {name!r}")
    arr = blobs[name]
    if arr.ndim != ndim or not np.all(np.isfinite(arr) & (arr == np.round(arr))):
        raise ValueError(f"checkpoint blob {name} must hold exact integers, got {arr.tolist()}")
    return arr.astype(np.int64).tolist()


def load_model(path) -> tuple[TmcnModel, dict[str, float]]:
    """Rebuild a model from a checkpoint; returns (model, extra-metadata)."""
    blobs = load_checkpoint_blobs(path)
    values = {f.name: _meta_ints(blobs, f"meta.{f.name}", int(f.name == "hidden_dims"))
              for f in fields(ModelConfig)}
    if values["mode"] not in range(len(MODES)):
        raise ValueError(f"checkpoint blob meta.mode holds unknown mode code {values['mode']}")
    values["mode"] = MODES[values["mode"]]
    view_dims = _meta_ints(blobs, "meta.view_dims", 1)
    try:
        model = TmcnModel(view_dims, ModelConfig(**values))
    except MemoryError:
        raise ValueError("checkpoint meta.* blobs describe a model too large to "
                         f"build: view_dims {view_dims}, {values}") from None
    params = model.params()
    missing = sorted(set(params) - set(blobs))
    if missing:
        raise ValueError(f"checkpoint missing parameters: {missing[:3]}...")
    stray = sorted(name for name in set(blobs) - set(params) if not name.startswith("meta."))
    if stray:
        raise ValueError(f"checkpoint parameters {stray[:3]}... do not fit the model "
                         f"its meta.* blobs describe")
    for name, p in params.items():
        arr = blobs[name]
        if arr.shape != p.data.shape:
            raise ValueError(f"checkpoint parameter {name} has shape {arr.shape}, "
                             f"expected {p.data.shape}")
        p.data = arr.copy()
    extra = {name.removeprefix("meta.extra."): float(arr)
             for name, arr in blobs.items() if name.startswith("meta.extra.")}
    return model, extra

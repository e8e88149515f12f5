"""Two-phase training, evaluation, checkpoints and history logging.

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
import hashlib
import json
import struct
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .autoencoder import ViewAutoencoder, reconstruction_loss
from .clustering import ClusteringResult, MetricTriple, evaluate_labels, kmeans
from .contrastive import (
    ASCL_MODES,
    ProjectionHeads,
    average_similarity,
    contrastive_loss,
    project,
    view_similarity,
)
from .data import MultiViewDataset, check_real
from .fusion import SelectiveFusion
from .tensor import Tape, Tensor, concat

MODES = ("full", "no-tmfn", "no-ascl")
HISTORY_COLUMNS = ("epoch", "phase", "total_loss", "rec_loss", "ascl_loss",
                   "clamp_frac", "acc", "nmi", "pur")
CHECKPOINT_MAGIC = b"TMCN"
CHECKPOINT_VERSION = 3
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _rule(default, parse, check):
    """A config field: ``parse`` reads its --set/INI text; ``check(name, value)`` raises."""
    return field(default=default, metadata={"parse": parse, "check": check})


def _count(default, low=1):
    """An integer >= ``low``, not a float or bool; a None default also admits ``none``."""
    def check(name, value):
        if not ((value is None and default is None) or (_is_int(value) and value >= low)):
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")

    def parse(text):
        return None if default is None and text.strip().lower() in ("", "none") else int(text)
    return _rule(default, parse, check)


def _check_widths(name, value) -> None:
    if not (isinstance(value, (tuple, list, np.ndarray))
            and all(_is_int(w) and w >= 1 for w in value)):
        raise ValueError(f"{name} widths must be integers >= 1, got {value!r}")


def _widths(default):
    """Integers >= 1, written ``500,500,2000``; the empty string is no widths."""
    return _rule(default, lambda text: tuple(int(w) for w in text.split(",") if w.strip()),
                 _check_widths)


def _real(default, zero_ok=False):
    return _rule(default, float, lambda name, value: check_real(name, value, zero_ok))


def _choice(default, choices):
    def check(name, value):
        if value not in choices:
            raise ValueError(f"{name} must be one of {choices}, got {value!r}")
    return _rule(default, str, check)


class TrainingDiverged(ArithmeticError):
    """A loss term went non-finite mid-run."""


@dataclass
class ModelConfig:
    """Everything a checkpoint records: the parameter layout and the input scaling.

    ``preprocess`` is applied by the command line (``minmax``:
    ``data.normalize_views``); ``train`` and ``evaluate`` take views as given.
    """

    hidden_dims: tuple[int, ...] = _widths((500, 500, 2000))
    seq_len: int = _count(16)
    seq_dim: int = _count(16)
    expand_factor: int = _count(2)
    state_size: int = _count(16)
    conv_width: int = _count(4)
    proj_dim: int = _count(128)
    mode: str = _choice("full", MODES)
    preprocess: str = _choice("minmax", ("minmax", "none"))

    def __post_init__(self):
        for f in fields(self):
            f.metadata["check"](f.name, getattr(self, f.name))
        self.hidden_dims = tuple(int(h) for h in self.hidden_dims)  # from a list or numpy ints


@dataclass
class TrainConfig(ModelConfig):
    """Everything a run depends on besides the dataset itself."""

    ascl_weight: float = _real(1.0, zero_ok=True)  # weight on the contrastive term
    temperature: float = _real(0.5)
    learning_rate: float = _real(3e-4)
    batch_size: int = _count(256, low=2)
    pretrain_epochs: int = _count(25, low=0)
    joint_epochs: int = _count(35, low=0)
    seed: int = _count(0, low=0)
    ascl_mode: str = _choice("self-excluded", ASCL_MODES)  # denominator convention, or "literal"
    n_clusters: int | None = _count(None)
    eval_every: int = _count(0, low=0)  # epochs between metric rows; 0 disables


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
        try:
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
        except MemoryError:
            raise ValueError(f"model too large to build: {self.view_dims}, {config}") from None

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

    def fused_embedding(self, views: list[np.ndarray]) -> np.ndarray:
        """Fused representation of every sample (no gradient tracking).

        This is the consensus vector the clustering runs on; the
        projection heads exist only inside the contrastive loss.  Rows
        run in chunks of ``TrainConfig.batch_size``, each written into the
        one (N, M*E) output, so inference memory above that output is
        bounded by the batch size, not by the sample count.  The views
        must match the model's ``view_dims`` in count and width, and one
        another in rows.
        """
        views = [np.asarray(v) for v in views]
        if len(views) != self.n_views:
            raise ValueError(f"dataset has {len(views)} view{'s' * (len(views) != 1)}, the "
                             f"model was trained on {self.n_views} (view_dims {self.view_dims})")
        for m, (v, dim) in enumerate(zip(views, self.view_dims)):
            if v.shape[-1] != dim:
                raise ValueError(f"view {m} has {v.shape[-1]} columns, the model expects {dim}")
            if len(v) != len(views[0]):
                raise ValueError(f"view {m} has {len(v)} rows, view 0 has {len(views[0])}")
        n = len(views[0])
        if n == 0:
            raise ValueError("fused embedding: the views have no rows")
        out = np.empty((n, self.n_views * self.embed_dim))
        for idx in _batches(np.arange(n), TrainConfig.batch_size):
            rows = out[idx[0]:idx[-1] + 1]
            # an overflow surfaces as a non-finite row, which raises below
            with np.errstate(over="ignore", invalid="ignore"):
                rows[:] = self.fuse(self.encode_views([Tensor(v[idx]) for v in views])).data
            bad = ~np.isfinite(rows).all(axis=1)
            if bad.any():
                raise FloatingPointError(f"fused embedding: non-finite value in row "
                                         f"{int(idx[bad.argmax()])}")
        return out

    def params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for m, ae in enumerate(self.autoencoders):
            out.update(ae.params(f"view{m}"))
        if self.fusion is not None:
            out.update(self.fusion.params("fusion"))
        out.update(self.heads.params("heads"))
        return out


# ---------------------------------------------------------------------------
# optimizer

class Adam:
    """Adam with ``ADAM_BETA1``, ``ADAM_BETA2``, ``ADAM_EPS`` and per-parameter step
    counts; parameters without a gradient are skipped.  The moments are
    updated in place, with the ops and bits of the textbook step."""

    def __init__(self, params: dict[str, Tensor], lr: float = 3e-4):
        self.params = params
        self.lr = lr
        self._m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in params.items()}
        self._t = {name: 0 for name in params}

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                continue
            t = self._t[name] = self._t[name] + 1
            m, v = self._m[name], self._v[name]
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * p.grad
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * p.grad ** 2
            m_hat = m / (1 - ADAM_BETA1 ** t)
            v_hat = v / (1 - ADAM_BETA2 ** t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

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
                w.writerow([cell(getattr(r, c)) for c in HISTORY_COLUMNS])


# ---------------------------------------------------------------------------
# training

def _batches(order: np.ndarray, batch: int) -> list[np.ndarray]:
    out = [order[i:i + batch] for i in range(0, len(order), batch)]
    if len(out) > 1 and len(out[-1]) < 2:
        out[-2] = np.concatenate([out[-2], out[-1]])  # contrastive loss needs >= 2
        out.pop()
    return out


def _contrast_weight(config: TrainConfig) -> float:
    return 0.0 if config.mode == "no-ascl" else config.ascl_weight


def check_trainable(config: TrainConfig, n_samples: int) -> None:
    """Refuse a contrastive phase on fewer than the 2 samples the loss needs."""
    if n_samples < 2 and config.joint_epochs and _contrast_weight(config) > 0.0:
        raise ValueError(f"the contrastive term needs at least 2 samples, the dataset has "
                         f"{n_samples}; train with joint_epochs=0, ascl_weight=0 or mode no-ascl")


def _contrastive_term(model: TmcnModel, zs: list[Tensor], config: TrainConfig):
    """The joint step's contrastive loss and stats, in a function of its own so
    that no local outlives it: the tape's sweep then frees the fused vector and
    the projections, with their gradients, once their nodes' backwards start."""
    u = model.fuse(zs)
    sim = average_similarity([view_similarity(z.data) for z in zs])
    h_fused, h_views = project(u, zs, model.heads)
    return contrastive_loss(h_fused, h_views, sim, config)


def train(config: TrainConfig, dataset: MultiViewDataset) -> tuple[TmcnModel, TrainHistory]:
    """Run both phases; returns the trained model and the per-epoch history."""
    lam = _contrast_weight(config)
    n = dataset.n_samples
    check_trainable(config, n)
    model = TmcnModel.from_config(dataset.view_dims, config)
    params = model.params()
    opt = Adam(params, lr=config.learning_rate)
    shuffle_rng = np.random.default_rng([config.seed, 4])
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
                            closs, stats = _contrastive_term(model, zs, config)
                            if not np.isfinite(closs.item()):
                                raise TrainingDiverged(
                                    f"epoch {epoch}: contrastive term went non-finite")
                            objective = rec * Tensor(1.0 / b) + closs * Tensor(lam)
                            ascl_weighted += closs.item() * b
                            clamped += stats.clamped
                            terms += stats.terms
                        else:
                            objective = rec * Tensor(1.0 / b)
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
# evaluation

@dataclass
class EvalResult:
    clustering: ClusteringResult
    metrics: MetricTriple | None


def evaluate(model: TmcnModel, dataset: MultiViewDataset, k: int | None = None,
             seed: int = 0) -> EvalResult:
    """K-means on the fused representation; metrics when labels exist."""
    if k is None:
        k = dataset.n_clusters
    if k is None:
        raise ValueError("no cluster count available: pass k or use a labeled dataset")
    embedding = model.fused_embedding(dataset.views)
    clustering = kmeans(embedding, k, seed=seed)
    metrics = None
    if dataset.labels is not None:
        metrics = evaluate_labels(clustering.assignments, dataset.labels)
    return EvalResult(clustering=clustering, metrics=metrics)


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(model: TmcnModel, path) -> Path:
    """Write magic, uint32 version, uint32 header length, the UTF-8 JSON header
    (``view_dims``, every ``ModelConfig`` field and ``params``, the parameter
    names in ``model.params()`` order), every parameter's little-endian float64
    bytes in that order, and a SHA-256 of all the bytes before it."""
    params = model.params()
    header = {"view_dims": model.view_dims, "params": list(params)}
    header.update((f.name, getattr(model.config, f.name)) for f in fields(ModelConfig))
    encoded = json.dumps(header, sort_keys=True, default=int).encode("utf-8")  # numpy ints
    body = b"".join([CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(encoded)),
                     encoded] + [np.asarray(p.data, "<f8").tobytes() for p in params.values()])
    with open(path, "wb") as f:
        f.write(body)
        f.write(hashlib.sha256(body).digest())
    return Path(path)


def _read_checkpoint(path) -> tuple[object, bytes, int]:
    """The JSON header, the file's bytes and the offset of the parameters after the header."""
    raw = Path(path).read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{Path(path).name}: bad magic, not a checkpoint")
    if len(raw) < 12:
        raise ValueError("checkpoint truncated")
    version, size = struct.unpack_from("<II", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    if size > len(raw) - 12:
        raise ValueError("checkpoint truncated")
    try:
        header = json.loads(raw[12:12 + size].decode("utf-8"))
    except ValueError as e:
        raise ValueError(f"checkpoint header is not UTF-8 JSON: {e}") from None
    return header, raw, 12 + size


def load_model(path) -> TmcnModel:
    """Rebuild a model from a checkpoint; ``model.config.preprocess`` says how to scale views.

    The header must name exactly ``view_dims``, ``params`` and the
    ``ModelConfig`` fields, so that no field falls back to its default
    unseen.  ``params`` must list the built model's parameters in order,
    the payload must hold exactly their floats, and the trailing SHA-256
    must match every byte before it.
    """
    header, raw, at = _read_checkpoint(path)
    keys = {f.name for f in fields(ModelConfig)} | {"view_dims", "params"}
    names = set(header) if isinstance(header, dict) else set()
    if names != keys:
        raise ValueError(f"checkpoint header does not fit the model config: missing "
                         f"{sorted(keys - names)}, unknown {sorted(names - keys)}")
    view_dims, stored = header.pop("view_dims"), header.pop("params")
    try:
        _check_widths("view_dims", view_dims)
        if not view_dims:
            raise ValueError("view_dims must name at least one view, got []")
        model = TmcnModel(view_dims, ModelConfig(**header))
    except ValueError as e:
        raise ValueError(f"checkpoint header: {e}") from None
    params = model.params()
    if stored != list(params):
        stored = {str(n) for n in stored} if isinstance(stored, list) else set()
        raise ValueError(f"checkpoint parameters do not fit the model its header describes "
                         f"in name or order: missing {sorted(set(params) - stored)[:3]}, "
                         f"stray {sorted(stored - set(params))[:3]}")
    end = at + 8 * sum(p.data.size for p in params.values())
    if end + 32 > len(raw):
        raise ValueError("checkpoint truncated")
    if end + 32 < len(raw):
        raise ValueError(f"checkpoint holds {len(raw) - 32 - at} parameter bytes, "
                         f"the model takes {end - at}")
    if hashlib.sha256(memoryview(raw)[:end]).digest() != raw[end:]:
        raise ValueError("checkpoint does not match its digest")
    for p in params.values():
        p.data = np.frombuffer(raw, "<f8", p.data.size, at).reshape(p.data.shape).astype(float)
        at += p.data.nbytes
    return model

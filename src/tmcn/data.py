"""Multi-view dataset container, binary on-disk format, synthetic generator.

On disk each view is a little-endian binary matrix: magic ``MVCD``,
uint32 rows, uint32 cols, then float32 row-major data (12 + 4*N*D bytes
total).  Labels use magic ``MVCL``, uint32 count, uint32 values.  A JSON
manifest names the files.  In memory everything is float64; matrices are
quantized to float32-representable values at construction so that
``save_dataset`` followed by ``load_dataset`` is the identity, bit for
bit.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MATRIX_MAGIC = b"MVCD"
LABEL_MAGIC = b"MVCL"


class DataFormatError(ValueError):
    """A dataset file or manifest violates the on-disk contract."""


@dataclass
class MultiViewDataset:
    """Aligned feature matrices over one sample set, with optional labels.

    ``views[m]`` is an (N, D_m) float64 matrix; row i of every view
    describes the same sample.  ``labels``, when present, are cluster
    ids 0..k-1 with every id occurring at least once.
    """

    views: list[np.ndarray]
    labels: np.ndarray | None = None
    name: str = "dataset"
    n_clusters: int | None = None

    def __post_init__(self):
        if not self.views:
            raise DataFormatError("dataset needs at least one view")
        quantized = []
        for m, v in enumerate(self.views):
            v = np.asarray(v, dtype=np.float64)
            if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
                raise DataFormatError(f"view {m}: expected a non-empty 2-D matrix, got shape {v.shape}")
            # float32 quantization keeps in-memory values exactly representable on
            # disk; values beyond float32's range become inf and are rejected below
            with np.errstate(over="ignore"):
                v = v.astype(np.float32).astype(np.float64)
            bad = ~np.isfinite(v).all(axis=1)
            if bad.any():
                raise DataFormatError(f"view {m}: non-finite value in row {int(bad.argmax())}")
            quantized.append(v)
        n = quantized[0].shape[0]
        for m, v in enumerate(quantized):
            if v.shape[0] != n:
                raise DataFormatError(
                    f"row-count mismatch: view {m} has {v.shape[0]} rows, expected {n}")
        self.views = quantized
        if self.labels is not None:
            y = np.asarray(self.labels)
            if y.shape != (n,):
                raise DataFormatError(
                    f"row-count mismatch: {y.shape[0] if y.ndim == 1 else y.shape} labels for {n} samples")
            if not np.issubdtype(y.dtype, np.integer) or y.min() < 0:
                raise DataFormatError("labels must be non-negative integers")
            self.labels = y.astype(np.int64)
            present = np.unique(self.labels)
            k = self.n_clusters if self.n_clusters is not None else int(present[-1]) + 1
            if present[-1] >= k:
                raise DataFormatError(f"label out of range: {present[-1]} with {k} clusters")
            if len(present) != k:
                missing = sorted(set(range(k)) - set(present.tolist()))
                raise DataFormatError(f"missing cluster id(s): {missing}")
            self.n_clusters = k

    @property
    def n_samples(self) -> int:
        return self.views[0].shape[0]

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def view_dims(self) -> list[int]:
        return [v.shape[1] for v in self.views]


# ---------------------------------------------------------------------------
# binary io

def _write_matrix(path: Path, data: np.ndarray) -> None:
    rows, cols = data.shape
    with open(path, "wb") as f:
        f.write(MATRIX_MAGIC)
        f.write(struct.pack("<II", rows, cols))
        f.write(np.ascontiguousarray(data, dtype="<f4").tobytes())


def _read_matrix(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    if len(raw) < 12 or raw[:4] != MATRIX_MAGIC:
        raise DataFormatError(f"{path.name}: bad magic, not a matrix file")
    rows, cols = struct.unpack("<II", raw[4:12])
    expected = 12 + 4 * rows * cols
    if len(raw) != expected:
        raise DataFormatError(
            f"{path.name}: truncated or oversized payload ({len(raw)} bytes, expected {expected})")
    flat = np.frombuffer(raw, dtype="<f4", offset=12)
    return flat.reshape(rows, cols).astype(np.float64)


def _write_labels(path: Path, labels: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(LABEL_MAGIC)
        f.write(struct.pack("<I", labels.shape[0]))
        f.write(labels.astype("<u4").tobytes())


def _read_labels(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    if len(raw) < 8 or raw[:4] != LABEL_MAGIC:
        raise DataFormatError(f"{path.name}: bad magic, not a label file")
    (count,) = struct.unpack("<I", raw[4:8])
    if len(raw) != 8 + 4 * count:
        raise DataFormatError(f"{path.name}: truncated or oversized payload")
    return np.frombuffer(raw, dtype="<u4", offset=8).astype(np.int64)


def save_dataset(dataset: MultiViewDataset, out_dir) -> Path:
    """Write matrices, labels and manifest under ``out_dir``; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "name": dataset.name,
        "n_samples": dataset.n_samples,
        "views": [],
    }
    for m, view in enumerate(dataset.views):
        fname = f"view{m}.mvcd"
        _write_matrix(out / fname, view)
        manifest["views"].append({"file": fname, "dim": view.shape[1]})
    if dataset.labels is not None:
        _write_labels(out / "labels.mvcl", dataset.labels)
        manifest["labels_file"] = "labels.mvcl"
    if dataset.n_clusters is not None:
        manifest["n_clusters"] = dataset.n_clusters
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def load_dataset(manifest_path) -> MultiViewDataset:
    """Load a dataset from its JSON manifest, validating every header."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as e:
        raise DataFormatError(f"{manifest_path.name}: invalid JSON manifest ({e})") from None
    for key in ("name", "n_samples", "views"):
        if key not in manifest:
            raise DataFormatError(f"{manifest_path.name}: manifest missing key {key!r}")
    base = manifest_path.parent
    n = int(manifest["n_samples"])
    views = []
    for m, entry in enumerate(manifest["views"]):
        for key in ("file", "dim"):
            if key not in entry:
                raise DataFormatError(
                    f"{manifest_path.name}: view {m} entry missing key {key!r}")
        mat = _read_matrix(base / entry["file"])
        if mat.shape[0] != n:
            raise DataFormatError(
                f"row-count mismatch: view {m} has {mat.shape[0]} rows, manifest says {n}")
        if mat.shape[1] != int(entry["dim"]):
            raise DataFormatError(
                f"view {m}: dim mismatch, file has {mat.shape[1]} cols, manifest says {entry['dim']}")
        views.append(mat)
    labels = None
    if manifest.get("labels_file"):
        labels = _read_labels(base / manifest["labels_file"])
        if labels.shape[0] != n:
            raise DataFormatError(
                f"row-count mismatch: {labels.shape[0]} labels, manifest says {n}")
    return MultiViewDataset(views=views, labels=labels, name=manifest["name"],
                            n_clusters=manifest.get("n_clusters"))


def dataset_fingerprint(manifest_path) -> str:
    """SHA-256 over the manifest and every file it references, in manifest order."""
    manifest_path = Path(manifest_path)
    manifest = json.loads(manifest_path.read_text())
    h = hashlib.sha256()
    h.update(manifest_path.read_bytes())
    for entry in manifest.get("views", []):
        h.update((manifest_path.parent / entry["file"]).read_bytes())
    if manifest.get("labels_file"):
        h.update((manifest_path.parent / manifest["labels_file"]).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# preprocessing

def normalize_views(dataset: MultiViewDataset) -> MultiViewDataset:
    """Min-max scale every feature column to [0, 1]; constant columns map to 0.

    Pure function; applying it twice gives the same matrices as applying
    it once.
    """
    scaled = []
    for v in dataset.views:
        lo = v.min(axis=0)
        span = v.max(axis=0) - lo
        out = np.where(span > 0.0, (v - lo) / np.where(span > 0.0, span, 1.0), 0.0)
        scaled.append(out)
    return MultiViewDataset(views=scaled, labels=dataset.labels, name=dataset.name,
                            n_clusters=dataset.n_clusters)


def rescale_views(dataset: MultiViewDataset, target_rms: float = 0.125) -> MultiViewDataset:
    """Center every feature column and scale each view to a common quadratic mean.

    Unlike per-column min-max scaling this is a single scalar stretch per
    view, so within-view geometry (and thus cluster structure) is kept
    exactly; ``target_rms`` sets the overall signal level.  The default
    keeps tokens small enough that the fusion gates open in their
    quasi-linear band.  Constant views stay at zero.
    """
    if target_rms <= 0:
        raise ValueError(f"target_rms must be positive, got {target_rms}")
    scaled = []
    for v in dataset.views:
        centered = v - v.mean(axis=0)
        rms = np.sqrt((centered ** 2).mean())
        scaled.append(centered * (target_rms / rms) if rms > 0 else centered)
    return MultiViewDataset(views=scaled, labels=dataset.labels, name=dataset.name,
                            n_clusters=dataset.n_clusters)


# ---------------------------------------------------------------------------
# synthetic data

@dataclass
class SyntheticSpec:
    """Recipe for a labeled multi-view blob dataset.

    ``separation`` scales the spread of the cluster centroids in latent
    space (within-cluster latent noise has unit scale); ``noise_std`` is
    added per view after the random linear map.
    """

    n_samples: int = 500
    n_clusters: int = 4
    view_dims: list[int] = field(default_factory=lambda: [20, 30, 25])
    separation: float = 6.0
    noise_std: float = 0.5
    seed: int = 0
    name: str = "synthetic"


def generate_synthetic(spec: SyntheticSpec) -> MultiViewDataset:
    """Sample a dataset from ``spec``; same spec, same bytes.

    k centroids are drawn in a latent space and scaled by ``separation``;
    each sample is its centroid plus unit Gaussian latent noise; each
    view applies a seeded random linear map plus ``noise_std`` Gaussian
    noise.  Labels are balanced to within one sample per cluster.
    """
    n, k = spec.n_samples, spec.n_clusters
    if k < 1 or n < k:
        raise ValueError(f"need n_samples >= n_clusters >= 1, got {n} and {k}")
    if not spec.view_dims or any(d < 1 for d in spec.view_dims):
        raise ValueError(f"view_dims must be positive, got {spec.view_dims}")
    if spec.separation <= 0 or spec.noise_std <= 0:
        raise ValueError("separation and noise_std must be positive")
    rng = np.random.default_rng(spec.seed)
    latent_dim = max(4, k)
    centroids = rng.normal(size=(k, latent_dim)) * spec.separation
    counts = np.full(k, n // k)
    counts[: n % k] += 1
    labels = rng.permutation(np.repeat(np.arange(k), counts))
    latent = centroids[labels] + rng.normal(size=(n, latent_dim))
    views = []
    for dim in spec.view_dims:
        w = rng.normal(size=(latent_dim, dim)) / np.sqrt(latent_dim)
        views.append(latent @ w + rng.normal(size=(n, dim)) * spec.noise_std)
    return MultiViewDataset(views=views, labels=labels, name=spec.name, n_clusters=k)

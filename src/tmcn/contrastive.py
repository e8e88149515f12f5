"""Similarity-weighted contrastive alignment of fused and per-view embeddings.

The fused vector and each view embedding pass through linear projection
heads into a shared space.  For anchor i and view m the positive is the
fused/view pair of the same sample; every other sample j contributes a
negative whose exponent is scaled by (1 - S_ij), where S averages the
per-view cosine similarity matrices.  Near-duplicate samples therefore
stop repelling each other instead of fighting the alignment.

S is built from detached embeddings and enters the loss as a constant:
gradients flow through the projected cosines only.

Two denominator conventions are provided.  ``self-excluded`` (default)
sums the weighted negatives over j != i.  ``literal`` sums over all j
and subtracts exp(1/temperature); that difference can go non-positive,
so it is floored at ``ASCL_FLOOR`` and the clamp rate is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .nn import Affine
from .tensor import EPS, ShapeError, Tensor, add, ascl_term, cosine_similarity_matrix, recompute

if TYPE_CHECKING:  # trainer imports this module
    from .trainer import TrainConfig

ASCL_MODES = ("self-excluded", "literal")
ASCL_FLOOR = 1e-8   # the floor under a literal-mode denominator


@dataclass
class ContrastiveStats:
    """Denominator clamp accounting for one loss evaluation."""

    clamped: int
    terms: int

    @property
    def clamp_frac(self) -> float:
        return self.clamped / self.terms if self.terms else 0.0


# ---------------------------------------------------------------------------
# similarity matrices (detached)

def view_similarity(z: np.ndarray) -> np.ndarray:
    """Pairwise cosine matrix of one view's embeddings.

    Returns an exactly symmetric matrix with unit diagonal and entries
    clipped to [-1, 1]; zero rows are epsilon-guarded to zero cosine.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ShapeError(f"view-similarity: expected (N, d), got {z.shape}")
    norms = np.linalg.norm(z, axis=1) + EPS
    zh = z / norms[:, None]
    s = zh @ zh.T
    s = s + s.T
    s /= 2.0
    np.fill_diagonal(s, 1.0)
    return np.clip(s, -1.0, 1.0, out=s)


def average_similarity(mats: list[np.ndarray]) -> np.ndarray:
    """Mean of per-view similarity matrices; validates shared shape and range."""
    if not mats:
        raise ValueError("average-similarity: need at least one matrix")
    shape = mats[0].shape
    for m in mats:
        if m.shape != shape:
            raise ShapeError(f"average-similarity: shape {m.shape} does not match {shape}")
    s = np.array(mats[0], dtype=np.float64)      # the views added in order, as np.mean does
    for m in mats[1:]:
        s += m
    s /= len(mats)
    _check_similarity(s)
    return s


def _check_similarity(s: np.ndarray) -> None:
    if not np.array_equal(s, s.T):
        raise ValueError("similarity matrix must be symmetric")
    if not np.all(np.diag(s) == 1.0):
        raise ValueError("similarity matrix must have unit diagonal")
    if not (s.min() >= -1.0 and s.max() <= 1.0):
        raise ValueError("similarity entries must lie in [-1, 1]")


# ---------------------------------------------------------------------------
# projection heads

@dataclass
class ProjectionHeads:
    """Linear maps into the shared contrastive space."""

    fused: Affine               # fused vector (M*l*d) -> proj_dim
    views: list[Affine]         # each view embedding (l*d) -> proj_dim

    @classmethod
    def init(cls, fused_dim: int, view_dim: int, n_views: int, proj_dim: int,
             rng: np.random.Generator) -> "ProjectionHeads":
        return cls(fused=Affine.init(fused_dim, proj_dim, rng),
                   views=[Affine.init(view_dim, proj_dim, rng) for _ in range(n_views)])

    def params(self, prefix: str = "heads") -> dict[str, Tensor]:
        out = self.fused.params(f"{prefix}.fused")
        for m, head in enumerate(self.views):
            out.update(head.params(f"{prefix}.view{m}"))
        return out


def project(u: Tensor, z_views: list[Tensor], heads: ProjectionHeads):
    """Project the fused vector and every view embedding into the shared space."""
    if len(z_views) != len(heads.views):
        raise ShapeError(f"project: {len(z_views)} views for {len(heads.views)} heads")
    return heads.fused(u), [head(z) for head, z in zip(heads.views, z_views)]


# ---------------------------------------------------------------------------
# the loss

def contrastive_loss(h_fused: Tensor, h_views: list[Tensor], similarity: np.ndarray,
                     config: TrainConfig) -> tuple[Tensor, ContrastiveStats]:
    """Similarity-weighted InfoNCE over fused/view pairs.

    Averages -log(pos / den) over all N * M anchor/view terms with the
    1/(2N) convention; ``similarity`` is treated as a constant.  It reads
    ``temperature`` and ``ascl_mode`` from ``config``.  Each view's term,
    its cosine matrix followed by ``tensor.ascl_term``, is one
    ``recompute`` node that keeps only ``h_fused`` and that view's
    projection: the forward keeps the scalar term and the clamp count, and
    the backward rebuilds that view's two (N, N) matrices under a tape of
    its own.  So between forward and backward the only (N, N) array is
    W = (1 - S) / tau, which the views share.
    Returns the scalar loss tensor and clamp statistics (always zero clamps
    in self-excluded mode).
    """
    n = h_fused.shape[0]
    if n < 2:
        raise ShapeError(f"contrastive-loss: need a batch of at least 2, got {n}")
    if not h_views:
        raise ValueError("contrastive-loss: need at least one view")
    if similarity.shape != (n, n):
        raise ShapeError(f"contrastive-loss: similarity shape {similarity.shape} "
                         f"does not match batch {n}")
    _check_similarity(similarity)

    tau = config.temperature
    weights = 1.0 - similarity                      # constant negative scaling (1 - S) / tau
    weights /= tau

    def view_term(fused, view):
        return ascl_term(cosine_similarity_matrix(fused, view), weights, tau, config.ascl_mode,
                         ASCL_FLOOR)

    clamped = 0
    total = None
    for h_view in h_views:
        if h_view.shape != h_fused.shape:
            raise ShapeError(f"contrastive-loss: view projection {h_view.shape} "
                             f"does not match fused {h_fused.shape}")
        term, rows_clamped = recompute(view_term, (h_fused, h_view))
        clamped += rows_clamped
        total = term if total is None else add(total, term)

    loss = total * (-1.0 / (2.0 * n))
    return loss, ContrastiveStats(clamped=clamped, terms=n * len(h_views))


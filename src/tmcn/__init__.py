"""Multi-view clustering engine.

Per-view autoencoders feed a gated selective state-space fusion block;
the fused and per-view representations are aligned with a contrastive
loss whose negatives are down-weighted by averaged cross-view cosine
similarity, and cluster assignments come from k-means on the fused
representation.

``TMCN_THREADS`` caps the BLAS thread pools (default 1, for
bit-reproducible runs).  The cap is applied here, before numpy loads,
so it only takes effect when this package is imported first.
"""

import os as _os

_threads = _os.environ.get("TMCN_THREADS", "1")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    _os.environ.setdefault(_var, _threads)

from .tensor import Tape, Tensor, ShapeError, parameter  # noqa: E402
from .data import (  # noqa: E402
    DataFormatError,
    MultiViewDataset,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    normalize_views,
    rescale_views,
    save_dataset,
)
from .autoencoder import ViewAutoencoder, reconstruction_loss  # noqa: E402
from .fusion import FusionConfig, SelectiveFusion  # noqa: E402
from .contrastive import (  # noqa: E402
    ContrastiveConfig,
    ProjectionHeads,
    average_similarity,
    contrastive_loss,
    view_similarity,
)
from .clustering import MetricTriple, accuracy, evaluate_labels, kmeans, nmi, purity  # noqa: E402
from .trainer import (  # noqa: E402
    ModelConfig,
    TmcnModel,
    TrainConfig,
    evaluate,
    load_model,
    run_ablation,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Tape", "Tensor", "ShapeError", "parameter",
    "DataFormatError", "MultiViewDataset", "SyntheticSpec", "generate_synthetic",
    "load_dataset", "normalize_views", "rescale_views", "save_dataset",
    "ViewAutoencoder", "reconstruction_loss",
    "FusionConfig", "SelectiveFusion",
    "ContrastiveConfig", "ProjectionHeads", "average_similarity",
    "contrastive_loss", "view_similarity",
    "MetricTriple", "accuracy", "evaluate_labels", "kmeans", "nmi", "purity",
    "ModelConfig", "TmcnModel", "TrainConfig", "evaluate", "load_model",
    "run_ablation", "save_checkpoint", "train",
    "__version__",
]

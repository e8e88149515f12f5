"""The acceptance cell that ``cell_ab.py`` and ``step_memory.py`` train.

The cell is criterion 10's: the acceptance configuration of
``tests/test_acceptance.py`` with ``seq_dim``, ``expand_factor`` and the
epoch counts given, on the rescaled ``SyntheticSpec(seed=7)`` data.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def build(src, seq_dim: int, expand: int, pretrain: int, joint: int):
    """Import ``tmcn`` from ``src`` and return the cell's ``(config, dataset)``."""
    sys.path.insert(0, str(src))
    # tmcn first: it pins the BLAS threads before numpy loads
    from tmcn import SyntheticSpec, TrainConfig, generate_synthetic, rescale_views

    config = TrainConfig(pretrain_epochs=pretrain, joint_epochs=joint, seed=1,
                         ascl_weight=0.01, hidden_dims=(128,), seq_len=8,
                         seq_dim=seq_dim, expand_factor=expand, state_size=8)
    data = rescale_views(generate_synthetic(SyntheticSpec(
        n_samples=500, n_clusters=4, view_dims=[20, 30, 25], separation=6.0,
        noise_std=0.5, seed=7)))
    return config, data

"""Layer-wise training of deep networks from local error signals.

Hidden layers learn from two single-layer sub-networks attached to their own
activations (a local classifier and a similarity-matching head) instead of a
globally back-propagated error; backprop-free variants replace even those
gradients with fixed random projections. Global backprop is included as a
baseline, sharing every kernel.
"""

from .data import AugmentConfig, Dataset, load_idx, synthetic_blobs
from .errors import (
    ConfigError,
    DataError,
    InputError,
    LocalLearnError,
    NonFiniteError,
    ShapeError,
)
from .losses import MODES, pred_loss, sim_loss, similarity_matrix
from .trainer import (
    ARCH_PRESETS,
    Network,
    TrainConfig,
    build_network,
    evaluate,
    load_network_state,
    metrics_csv,
    parse_arch,
    save_network,
    train,
    train_step,
)

__version__ = "0.1.0"

__all__ = [
    "ARCH_PRESETS",
    "AugmentConfig",
    "ConfigError",
    "DataError",
    "Dataset",
    "InputError",
    "LocalLearnError",
    "MODES",
    "Network",
    "NonFiniteError",
    "ShapeError",
    "TrainConfig",
    "build_network",
    "evaluate",
    "load_idx",
    "load_network_state",
    "metrics_csv",
    "parse_arch",
    "pred_loss",
    "save_network",
    "sim_loss",
    "similarity_matrix",
    "synthetic_blobs",
    "train",
    "train_step",
]

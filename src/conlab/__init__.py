"""Desk-scale contrastive representation learning with a momentum encoder
and a label-aware FIFO queue, under a family of interchangeable losses.
"""

__version__ = "0.1.0"

from .config import (
    AugConfig,
    ConfigError,
    DatasetSpec,
    ModelConfig,
    ProbeConfig,
    RunConfig,
    TrainConfig,
    config_from_dict,
    load_config,
    run_id,
    with_train,
)
from .losses import LOSS_KINDS, loss_batch, triplet_pair
from .model import EncoderParams, forward, init_params, momentum_update
from .numerics import Rng, log_sum_exp, sigmoid, softplus
from .pipeline import (
    Dataset,
    DivergenceError,
    StepMetrics,
    TrainState,
    augment,
    generate_dataset,
    mask_labels,
    pretrain,
    train_step,
)
from .probes import extract_features, knn_probe, linear_probe, run_probes
from .queues import UNLABELED, PairQueue, build_target, init_queue, push_batch

__all__ = [
    "AugConfig",
    "ConfigError",
    "Dataset",
    "DatasetSpec",
    "DivergenceError",
    "EncoderParams",
    "LOSS_KINDS",
    "ModelConfig",
    "PairQueue",
    "ProbeConfig",
    "Rng",
    "RunConfig",
    "StepMetrics",
    "TrainConfig",
    "TrainState",
    "UNLABELED",
    "augment",
    "build_target",
    "config_from_dict",
    "extract_features",
    "forward",
    "generate_dataset",
    "init_params",
    "init_queue",
    "knn_probe",
    "linear_probe",
    "load_config",
    "log_sum_exp",
    "loss_batch",
    "mask_labels",
    "momentum_update",
    "pretrain",
    "push_batch",
    "run_id",
    "run_probes",
    "sigmoid",
    "softplus",
    "train_step",
    "triplet_pair",
    "with_train",
]

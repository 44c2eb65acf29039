"""Desk-scale contrastive representation learning with a momentum encoder
and a label-aware FIFO queue, under a family of interchangeable losses.

The root holds the library workflow and its types. The kernels live in their
submodules: `conlab.losses`, `conlab.queues`, `conlab.model`,
`conlab.numerics` and `conlab.probes`.
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
    with_train,
)
from .pipeline import (
    Dataset,
    DivergenceError,
    StepMetrics,
    TrainState,
    generate_dataset,
    pretrain,
)
from .probes import run_probes

__all__ = [
    "AugConfig",
    "ConfigError",
    "Dataset",
    "DatasetSpec",
    "DivergenceError",
    "ModelConfig",
    "ProbeConfig",
    "RunConfig",
    "StepMetrics",
    "TrainConfig",
    "TrainState",
    "generate_dataset",
    "pretrain",
    "run_probes",
    "with_train",
]

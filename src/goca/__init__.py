"""Guided online cluster assignment.

Entropic optimal assignment between feature batches and unit
prototypes, a prior-guided variant that lets two views steer each
other's assignments, hyperspherical prototype placement, a two-view
swapped-prediction training loop with ablation baselines, and the
clustering/retrieval metrics used to score it — all exercised on a
synthetic two-view benchmark at desk scale.
"""

from .ot_core import (
    SinkhornResult,
    SolverConfig,
    clamp_prior,
    cost_from_features,
    cross_guided_assign,
    guided_sinkhorn,
    marginal_residual,
    sinkhorn,
)
from .prototypes import (
    ProtoOptConfig,
    max_pairwise_cosine,
    optimize_prototypes,
    project_to_sphere,
    prototype_loss,
    prototype_loss_grad,
)
from .ssl_engine import (
    TrainConfig,
    TrainResult,
    encode,
    extract_features,
    init_params,
    prototype_scores,
    step,
    swapped_loss,
    train,
)
from .synth_data import SynthConfig, SynthDataset, generate

__version__ = "0.1.0"

__all__ = [
    "SolverConfig",
    "SinkhornResult",
    "cost_from_features",
    "marginal_residual",
    "sinkhorn",
    "clamp_prior",
    "guided_sinkhorn",
    "cross_guided_assign",
    "ProtoOptConfig",
    "prototype_loss",
    "prototype_loss_grad",
    "project_to_sphere",
    "optimize_prototypes",
    "max_pairwise_cosine",
    "TrainConfig",
    "TrainResult",
    "init_params",
    "encode",
    "prototype_scores",
    "swapped_loss",
    "step",
    "train",
    "extract_features",
    "SynthConfig",
    "SynthDataset",
    "generate",
    "__version__",
]

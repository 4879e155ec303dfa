"""Deterministic simulator for gossip-based decentralized federated learning.

Implements opposite-lookahead client initialization composed with SGD/SAM
local optimizers and gossip mixing, the usual decentralized and
centralized baselines, and a diagnostics pipeline (consensus distance,
consistency term, spectral quantities, stability probing) for checking
the algorithm family's trend-level claims at desk scale.
"""

from .data import (
    LabeledDataset,
    generate_synthetic,
    generate_synthetic_holdout,
    load_csv,
    partition_dirichlet,
    partition_iid,
    partition_pathological,
)
from .engine import (
    AlgorithmKind,
    ConfigError,
    DataConfig,
    DivergenceError,
    ExperimentConfig,
    ExperimentResult,
    ModelConfig,
    PartitionConfig,
    Problem,
    build_problem,
    client_batches,
    gossip_mix,
    ole_init,
    run_experiment,
    run_round,
    validated,
)
from .localopt import (
    LocalResult,
    OptimizerConfig,
    local_train,
    lr_at_round,
    momentum_step,
    sam_step,
    sgd_step,
)
from .metrics import (
    RoundRecord,
    consensus_distance,
    consistency_delta,
    eval_model,
    rounds_to_target,
    update_energies,
    write_metrics_csv,
)
from .models import (
    Batch,
    ModelSpec,
    Shard,
    ShardStack,
    batch_grads,
    full_objective,
    init_params,
    loss_and_grad,
    loss_and_predictions,
    quadratic_testbed,
)
from .stability import StabilityTrace, first_draw, stability_probe
from .topology import (
    MixingMatrix,
    ModifiedMatrix,
    TopologyKind,
    TopologySpec,
    beta_theory_bound,
    build_mixing,
    chebyshev_modified,
    spectral_gap,
)

__version__ = "0.1.0"

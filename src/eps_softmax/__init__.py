"""Noise-tolerant classification via an amplified softmax output.

The core idea: add a constant m to the winning softmax probability and
renormalize. The output then sits within sqrt(1 - 1/K) / (m + 1) of a one-hot
vector, so cross entropy evaluated on it behaves like a bounded, nearly
symmetric loss, while its gradient still pulls mispredicted samples exactly
like plain CE. Pairing it with MAE gives a loss family that trains through
heavy label noise without giving up clean accuracy.
"""

from .core import (
    LOG_FLOOR,
    as_matrix,
    check_prob_vector,
    l2_distance,
    log_clamped,
    make_rng,
    softmax_rows,
    stable_softmax,
)
from .data import (
    Dataset,
    DatasetSpec,
    build_dataset,
    generate_blobs,
    generate_spirals,
    load_csv,
    load_idx,
    standardize,
)
from .errors import ConfigError, DataError, TrainingDiverged
from .experiment import (
    EpochRecord,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    emit_results,
    load_config_file,
    read_results,
    run_experiment,
)
from .losses import (
    COMBINED_KINDS,
    LOSS_KINDS,
    LossOutput,
    LossSpec,
    batch_loss,
    ce_eps_on_probs,
    ce_eps_symmetric_sums,
    ce_on_probs,
    evaluate_loss,
    loss_ce,
    loss_ce_eps,
    loss_combined,
    loss_fl,
    loss_fl_eps,
    loss_gce,
    loss_mae,
    loss_sce,
    mae_on_probs,
    symmetric_sum,
)
from .mlp import (
    MlpSpec,
    OptimSpec,
    ParamSet,
    backward,
    clip_grad_norm,
    cosine_lr,
    evaluate,
    forward,
    init_params,
    sgd_step,
    zeros_like_params,
)
from .noise import (
    NOISE_KINDS,
    CorruptionResult,
    NoiseSpec,
    clean_dominance_margin,
    corrupt_labels,
    expected_clean_weight,
    transition_matrix,
)
from .theory import (
    CheckReport,
    RiskReport,
    calibration_optimum,
    check_rank_preserving,
    closed_form_optimum,
    delta_sweep,
    excess_risk_demo,
    fd_gradient,
    gradcheck_losses,
    gradcheck_mlp,
    measure_delta,
    one_hot_bound_grid,
    run_verification_suite,
    sample_gapped_distribution,
    verify_calibration,
    verify_excess_risk,
    verify_one_hot_bound,
    verify_symmetric_term_cancellation,
)
from .transform import (
    EpsConfig,
    distance_to_one_hot,
    distances_to_one_hot_rows,
    eps_bound,
    eps_softmax,
    eps_softmax_rows,
    eps_transform_probs,
)

__version__ = "0.1.0"

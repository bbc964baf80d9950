"""Generative modeling of time series with memory via neural SDEs.

The generator couples a state equation and a learned memory process,

    dX = (b(X) - ell1(t) sigma(X) K(t)) dt + sigma(X) dW,
    dK = ell2(t) dW,

with all four coefficient functions given by small tanh networks.  Setting
ell2 to zero removes the memory channel and recovers a plain neural SDE.
Training maximizes a kernel-density likelihood of observed log-returns
against simulated ensembles; evaluation covers Hurst-index recovery,
marginal total variation, autocorrelation structure, and one-step R^2.

Everything is reproducible: every random draw is addressed by an explicit
seed, domain and stream, so training, initialization and evaluation never
share noise, and no code path depends on BLAS threading.  The networks and
the Euler scheme run on whole batches: one sweep simulates every path of an
ensemble and records the tape that pathwise backpropagation replays.
"""

from .errors import (
    DataError,
    GenerationError,
    IngestError,
    KernelError,
    MetricError,
    NansdeError,
    TrainingError,
)
from .grid import TimeGrid, unit_grid
from .integrator import (
    DIVERGENCE_GUARD,
    SIGMA_FLOOR,
    Ensemble,
    ModelGradients,
    NansdeModel,
    SimTape,
    backpropagate,
    coefficients,
    kernel_values,
    simulate_batch_with_tape,
    simulate_ensemble,
    softplus,
    softplus_inverse,
)
from .metrics import (
    BinSpec,
    MetricReport,
    acf_scores,
    acf_weights,
    compute_report,
    default_lag_count,
    estimate_hurst,
    r2_from_predictions,
    r2_score,
    tv_distance,
)
from .neural import (
    GradientBundle,
    MlpParams,
    init_params,
    mlp_forward_batch,
    params_from_text,
    params_to_text,
)
from .noise import (
    ArmaKernelParams,
    FbmConfig,
    Path,
    arma_ell,
    arma_ell_su,
    arma_noise_path,
    brownian_increments,
    brownian_path,
    fbm_increments,
    fbm_path,
)
from .optim import Adam
from .rng import NoiseSeed, eval_generator, init_generator, noise_generator
from .training import (
    LogReturnSeries,
    TrainConfig,
    TrainState,
    fit,
    init_state,
    log_returns,
    loss_and_gradients,
    nll_loss,
    silverman_bandwidth,
    train_step,
)

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "ArmaKernelParams",
    "BinSpec",
    "DIVERGENCE_GUARD",
    "DataError",
    "Ensemble",
    "FbmConfig",
    "GenerationError",
    "GradientBundle",
    "IngestError",
    "KernelError",
    "LogReturnSeries",
    "MetricError",
    "MetricReport",
    "MlpParams",
    "ModelGradients",
    "NansdeError",
    "NansdeModel",
    "NoiseSeed",
    "Path",
    "SIGMA_FLOOR",
    "SimTape",
    "TimeGrid",
    "TrainConfig",
    "TrainState",
    "TrainingError",
    "acf_scores",
    "acf_weights",
    "arma_ell",
    "arma_ell_su",
    "arma_noise_path",
    "backpropagate",
    "brownian_increments",
    "brownian_path",
    "coefficients",
    "compute_report",
    "default_lag_count",
    "estimate_hurst",
    "eval_generator",
    "fbm_increments",
    "fbm_path",
    "fit",
    "init_generator",
    "init_params",
    "init_state",
    "kernel_values",
    "log_returns",
    "loss_and_gradients",
    "mlp_forward_batch",
    "nll_loss",
    "noise_generator",
    "params_from_text",
    "params_to_text",
    "r2_from_predictions",
    "r2_score",
    "silverman_bandwidth",
    "simulate_batch_with_tape",
    "simulate_ensemble",
    "softplus",
    "softplus_inverse",
    "train_step",
    "tv_distance",
    "unit_grid",
]

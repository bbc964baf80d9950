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

from types import ModuleType as _ModuleType

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

# Every public name bound above, submodules aside.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))

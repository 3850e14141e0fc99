"""Feed-forward network training with per-layer empirical gain constraints.

The training loop measures, for every learned layer and minibatch, the largest
ratio ||Wx||_p / ||x||_p over the batch, and after each optimizer update
rescales the layer's weights by 1 / max(1, gamma_hat / gamma) so the measured
gain never exceeds the target gamma. The package also ships the measurement
tools (gain reports, closed-form operator norms and the Lipschitz bound they
give, and power iteration to cross-check them), a disjoint-folds evaluation
protocol with a paired t-test, and a CLI.
"""

from .checkpoint import load_network, network_from_text, network_to_text, save_network
from .data import (
    Dataset,
    Fold,
    FoldProtocol,
    augment,
    load_csv,
    load_idx,
    make_folds,
    synth_blobs,
    synth_spirals,
)
from .errors import (
    AdjointMismatchError,
    CacheError,
    ConfigError,
    DegenerateSampleError,
    DivergenceError,
    EmptySampleError,
    FormatError,
    InvalidValueError,
    MaxGainError,
    ShapeError,
)
from .evaluate import (
    GainReport,
    GainReportRow,
    TTestResult,
    eval_metrics,
    gain_report,
    paired_t_test,
    per_layer_gains,
    regularized_incomplete_beta,
)
from .experiment import (
    FoldScores,
    RunResult,
    SweepResult,
    SweepRow,
    build_dataset,
    build_fold_protocol,
    build_maxgain,
    build_network,
    build_optimizer,
    build_schedule,
    build_splits,
    check_config,
    gamma_sweep,
    parse_norm_order,
    run_config,
    run_folds,
)
from .gain import (
    GainStats,
    batch_max_gain,
    gain_stats,
    instance_gains,
    layer_operator_norm,
    lipschitz_upper_bound,
    spectral_norm_power_iteration,
)
from .layers import (
    BatchNorm,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    MaxPool2d,
    Network,
    ReLU,
    ResidualBlock,
    StepCaches,
    backward,
    forward,
    softmax_cross_entropy,
)
from .optim import (
    Adam,
    EpochRecord,
    MaxGainConfig,
    Schedule,
    SgdNesterov,
    StepReport,
    TrainingLedger,
    fit,
    project,
    projection_scale,
    train_step,
)
from .tensor import init_weights, make_rng, operator_norm_exact, spawn_rngs

__version__ = "0.1.0"

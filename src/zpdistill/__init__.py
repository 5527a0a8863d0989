"""Competence-weighted distillation toolkit.

Weight training problems by the student's own pass rate: a Beta-shaped
kernel w(p) = p^alpha * (1-p)^beta concentrates gradient signal on problems
the student sometimes solves, suppressing both hopeless and mastered ones.
The package provides the kernel and its moment-matched calibration,
closed-form robustness and variance calculators for that weighting, binned
gradient signal-to-noise diagnostics, and a small synthetic distillation
world that reproduces the mechanism end to end.
"""

from .errors import (
    ConfigError,
    DegenerateInputError,
    DomainError,
    FileFormatError,
    FitError,
    InsufficientDataError,
    NumericError,
    ZpdistillError,
)
from .kernel import (
    ZpdMoments,
    at_flat_boundary,
    raw_weights,
    select_exponents,
    unit_mean,
    zpd_moments,
)
from .numerics import label_tokens, stream
from .passrate import (
    THREE_BIN_EDGES,
    RolloutTable,
    bin_indices,
    equal_edges,
)
from .robustness import (
    SnrModelFit,
    fit_snr_model,
    minimax_scale,
    minimax_weight,
    robustness_rows,
)
from .snr_profile import (
    GradientTable,
    SnrProfile,
    bell_shape_score,
    compute_snr_bins,
    normalize_profile,
)
from .variance import (
    EmpiricalRatio,
    VarianceSpec,
    gamma_from_signal,
    smoothness_constant,
    variance_ratio_beta,
    variance_ratio_empirical,
)
from .distill_sim import (
    SimConfig,
    SimMetrics,
    SimWorld,
    build_world,
    measure_snr,
    retention,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "ZpdistillError",
    "DomainError",
    "DegenerateInputError",
    "InsufficientDataError",
    "FitError",
    "ConfigError",
    "FileFormatError",
    "NumericError",
    "stream",
    "label_tokens",
    "RolloutTable",
    "THREE_BIN_EDGES",
    "bin_indices",
    "equal_edges",
    "ZpdMoments",
    "raw_weights",
    "unit_mean",
    "zpd_moments",
    "select_exponents",
    "at_flat_boundary",
    "SnrModelFit",
    "minimax_scale",
    "minimax_weight",
    "fit_snr_model",
    "robustness_rows",
    "VarianceSpec",
    "EmpiricalRatio",
    "variance_ratio_empirical",
    "variance_ratio_beta",
    "gamma_from_signal",
    "smoothness_constant",
    "GradientTable",
    "SnrProfile",
    "compute_snr_bins",
    "normalize_profile",
    "bell_shape_score",
    "SimConfig",
    "SimWorld",
    "SimMetrics",
    "build_world",
    "train",
    "measure_snr",
    "retention",
    "__version__",
]

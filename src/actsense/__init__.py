"""Active sensor deployment for monthly energy breakdown.

Fits a nonnegative CP factorization of a homes x appliances x months
kWh tensor with closed-form alternating ridge updates, scores candidate
<home, appliance> pairs by confidence-ellipsoid uncertainty integrated
over a seasonal horizon, and simulates month-by-month sensor rollout
against random and query-by-committee baselines.
"""

from .als_engine import (FitReport, SufficientStats, accumulate_stats, fit,
                         resolve_caps)
from .data_io import (DatasetManifest, SyntheticConfig, generate_synthetic,
                      load_csv, read_report, save_csv, write_report)
from .errors import DataFormatError, NumericalError
from .evaluation import (FoldSplit, GridSpec, grid_search, kfold_split,
                         mean_rmse, relative_improvement,
                         rmse_appliance_month, year_rmse)
from .simulator import SimReport, SimState, reveal, run, run_with_state, step_month
from .strategies import (CandidatePool, SelectionResult, select_actsense,
                         select_qbc, select_random)
from .tensor_core import (EnergyTensor, LatentFactors, ModelConfig,
                          ObservationSet, masked_objective)
from .uncertainty import (ConfidenceParams, KernelConfig, factor_error_alphas,
                          instant_score, integrated_uncertainty, invert_stats,
                          sherman_morrison_update, triangle_weight)

__version__ = "0.1.0"

# Numeric backend, recorded in benchmark run metadata; numpy is the only one.
BACKEND = "numpy"

__all__ = [
    "BACKEND", "CandidatePool", "ConfidenceParams", "DataFormatError",
    "DatasetManifest", "EnergyTensor", "FitReport", "FoldSplit", "GridSpec",
    "KernelConfig", "LatentFactors", "ModelConfig", "NumericalError",
    "ObservationSet", "SelectionResult", "SimReport", "SimState",
    "SufficientStats", "SyntheticConfig", "accumulate_stats",
    "factor_error_alphas", "fit", "generate_synthetic", "grid_search",
    "instant_score", "integrated_uncertainty", "invert_stats",
    "kfold_split", "load_csv", "masked_objective", "mean_rmse",
    "read_report", "relative_improvement", "resolve_caps",
    "reveal", "rmse_appliance_month", "run", "run_with_state", "save_csv",
    "select_actsense", "select_qbc", "select_random",
    "sherman_morrison_update", "step_month", "triangle_weight",
    "write_report", "year_rmse",
]

"""Covariance-domain simulator for a MIMO point-to-point link whose receiver
splits power between information detection and RF energy harvesting."""

from .errors import (ConfigError, ConvergenceError, InvalidInputError,
                     NumericalError, UnsupportedConfigError)
from .harvesting import (HarvestResult, RfCovariance, build_rf_covariance,
                         optimal_steering)
from .linalg import haar_unitary, herm_eig, svd
from .montecarlo import (McResult, average_metric, ensemble_for, metric_samples,
                         metric_samples_grid, random_bs_covariance, sample_grids)
from .rates import (NoiseProfile, PowerAllocation, optimal_q_global,
                    tin_rate_global, waterfill, worst_case_rate)
from .saddle import (SaddleBatch, SaddleSolution, bs_best_response,
                     p2p_best_response, solve_saddle, solve_saddle_batch)
from .scenario import (EquivalentChannel, PowerSplit, ScenarioConfig,
                       equivalent_channels, reference_scenario,
                       synthesize_channel)
from .transfer import (TransmitDesign, structure2_energy, structure2_rate,
                       swipt_design)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ConvergenceError", "InvalidInputError", "NumericalError",
    "UnsupportedConfigError",
    "HarvestResult", "RfCovariance", "build_rf_covariance", "optimal_steering",
    "haar_unitary", "herm_eig", "svd",
    "McResult", "average_metric", "ensemble_for", "metric_samples",
    "metric_samples_grid", "random_bs_covariance", "sample_grids",
    "NoiseProfile", "PowerAllocation", "optimal_q_global", "tin_rate_global",
    "waterfill", "worst_case_rate",
    "SaddleBatch", "SaddleSolution", "bs_best_response", "p2p_best_response",
    "solve_saddle", "solve_saddle_batch",
    "EquivalentChannel", "PowerSplit", "ScenarioConfig", "equivalent_channels",
    "reference_scenario", "synthesize_channel",
    "TransmitDesign", "structure2_energy", "structure2_rate", "swipt_design",
    "__version__",
]

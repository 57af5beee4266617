"""Covariance-domain simulator for a MIMO point-to-point link whose receiver
splits power between information detection and RF energy harvesting."""

from .errors import (ConfigError, ConvergenceError, InvalidInputError,
                     NumericalError, UnsupportedConfigError)
from .harvesting import delivered, steering, top_eigpair
from .linalg import haar_unitary, svd
from .montecarlo import (McResult, average_metric, ensemble_for, metric_samples,
                         metric_samples_grid, random_bs_covariance, sample_grids)
from .rates import (NoiseProfile, PowerAllocation, tin_rate_global, transmit_covariance,
                    waterfill, waterfilled_modes, worst_case_rate)
from .saddle import (SaddleBatch, SaddleSolution, bs_best_response,
                     p2p_best_response, solve_saddle, solve_saddle_batch)
from .scenario import (EquivalentChannel, PowerSplit, ScenarioConfig,
                       equivalent_channels, reference_scenario,
                       synthesize_channel)
from .transfer import (combined_energy, combined_interference, combined_rate,
                       combiner, energy_beam)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ConvergenceError", "InvalidInputError", "NumericalError",
    "UnsupportedConfigError",
    "delivered", "steering", "top_eigpair",
    "haar_unitary", "svd",
    "McResult", "average_metric", "ensemble_for", "metric_samples",
    "metric_samples_grid", "random_bs_covariance", "sample_grids",
    "NoiseProfile", "PowerAllocation", "tin_rate_global",
    "transmit_covariance", "waterfill", "waterfilled_modes", "worst_case_rate",
    "SaddleBatch", "SaddleSolution", "bs_best_response", "p2p_best_response",
    "solve_saddle", "solve_saddle_batch",
    "EquivalentChannel", "PowerSplit", "ScenarioConfig", "equivalent_channels",
    "reference_scenario", "synthesize_channel",
    "combined_energy", "combined_interference", "combined_rate", "combiner",
    "energy_beam",
    "__version__",
]

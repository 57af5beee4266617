"""Covariance-domain simulator for a MIMO point-to-point link whose receiver
splits power between information detection and RF energy harvesting."""

from .errors import (ConfigError, ConvergenceError, InvalidInputError,
                     NumericalError, UnsupportedConfigError)
from .harvesting import delivered, harvested_power, steering, top_eigpair
from .montecarlo import (McResult, average_metric, ensemble_for, metric_samples,
                         metric_samples_grid, sample_grids)
from .rates import (PowerAllocation, tin_rate_global, transmit_covariance, waterfill,
                    waterfilled_modes, worst_case_rate)
from .saddle import (SaddleBatch, SaddleSolution, bs_best_response,
                     p2p_best_response, solve_links, solve_saddle, solve_saddle_batch)
from .scenario import ScenarioConfig, equivalent_channel, reference_scenario
from .transfer import (combined_energy, combined_interference, combined_rate,
                       combiner, energy_beam)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ConvergenceError", "InvalidInputError", "NumericalError",
    "UnsupportedConfigError",
    "delivered", "harvested_power", "steering", "top_eigpair",
    "McResult", "average_metric", "ensemble_for", "metric_samples",
    "metric_samples_grid", "sample_grids",
    "PowerAllocation", "tin_rate_global",
    "transmit_covariance", "waterfill", "waterfilled_modes", "worst_case_rate",
    "SaddleBatch", "SaddleSolution", "bs_best_response", "p2p_best_response",
    "solve_links", "solve_saddle", "solve_saddle_batch",
    "ScenarioConfig", "equivalent_channel", "reference_scenario",
    "combined_energy", "combined_interference", "combined_rate", "combiner",
    "energy_beam",
    "__version__",
]

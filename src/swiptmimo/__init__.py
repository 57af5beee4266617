"""Covariance-domain simulator for a MIMO point-to-point link whose receiver
splits power between information detection and RF energy harvesting."""

from .errors import (ConfigError, ConvergenceError, InvalidInputError,
                     NumericalError, PreconditionError, UnsupportedConfigError)
from .harvesting import (HarvestResult, RfCovariance, build_rf_covariance,
                         dominant_interference_energy, optimal_steering,
                         weak_majorization)
from .linalg import haar_unitary, herm_eig, svd
from .montecarlo import McResult, average_metric, metric_samples, random_bs_covariance
from .rates import (NoiseProfile, PowerAllocation, local_csi_rate,
                    optimal_q_global, tin_rate_global, waterfill,
                    worst_case_rate)
from .saddle import (SaddleBatch, SaddleSolution, bs_best_response,
                     p2p_best_response, solve_saddle, solve_saddle_batch)
from .scenario import (EquivalentChannel, PowerSplit, ScenarioConfig,
                       equivalent_channels, reference_scenario,
                       synthesize_channel, worst_case_align)
from .transfer import (TransmitDesign, structure2_energy, structure2_rate,
                       swipt_design, swipt_rate)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ConvergenceError", "InvalidInputError", "NumericalError",
    "PreconditionError", "UnsupportedConfigError",
    "HarvestResult", "RfCovariance", "build_rf_covariance",
    "dominant_interference_energy", "optimal_steering", "weak_majorization",
    "haar_unitary", "herm_eig", "svd",
    "McResult", "average_metric", "metric_samples", "random_bs_covariance",
    "NoiseProfile", "PowerAllocation", "local_csi_rate", "optimal_q_global",
    "tin_rate_global", "waterfill", "worst_case_rate",
    "SaddleBatch", "SaddleSolution", "bs_best_response", "p2p_best_response",
    "solve_saddle", "solve_saddle_batch",
    "EquivalentChannel", "PowerSplit", "ScenarioConfig", "equivalent_channels",
    "reference_scenario", "synthesize_channel", "worst_case_align",
    "TransmitDesign", "structure2_energy", "structure2_rate", "swipt_design",
    "swipt_rate",
    "__version__",
]

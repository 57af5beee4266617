"""Scenario configuration and the split channel.

A link's channels are specified by their singular-value profiles only: trial t of a
seed draws the unitary factors from its own (seed, t) generator, in
`montecarlo.ensemble_for`. A channel is a plain complex matrix (or a stack of them);
`equivalent_channel` is the one place the split channel Psi^1/2 H is formed.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .rates import MAX_BUDGET

REFERENCE_SIGMA_P2P = (0.9, 0.8, 0.7)
REFERENCE_SIGMA_BS = (0.8, 0.7, 0.5)


# Profile and noise bounds, by the argument for MAX_BUDGET: a noise variance is a power
# like a budget, so it too stays <= MAX_BUDGET. A gain sigma^2 enters only via
# gain * budget / noise, which keeps the saddle value exact to 1e-12 below ~1e105, so
# at budgets up to MAX_BUDGET gain / noise may reach 1e5: sigma^2 <= 1e2, noise >= 1e-3.
PROFILE_BOUND = (lambda v: 0.0 <= v <= 10.0, "singular value {} outside [0, 10]")
NOISE_BOUND = (lambda v: 1e-3 <= v <= MAX_BUDGET,
               f"noise variance {{}} outside [0.001, {MAX_BUDGET:g}]")
# (config key, attribute, bound each value meets, message when one does not)
BOUNDS = [(key, attr, lambda v, low=low: isinstance(v, numbers.Integral) and v >= low,
           f"{key} = {{}} must be an integer >= {low}")
          for key, attr, low in (("k", "K", 1), ("m", "M", 1), ("n", "N", 1),
                                 ("trials", "trials", 1), ("seed", "seed", 0))] + [
    # every trial index t < 2**32 is one SeedSequence entropy word
    ("trials", "trials", lambda v: v <= 2 ** 32, "trials = {} exceeds 2**32"),
    ("sigma_p2p", "sigma_p2p", *PROFILE_BOUND), ("sigma_bs", "sigma_bs", *PROFILE_BOUND),
    ("psi", "psi", lambda v: 0.0 <= v <= 1.0, "split ratio {} outside [0, 1]"),
    ("sigma2_w", "sigma2_w", *NOISE_BOUND), ("sigma2_n", "sigma2_n", *NOISE_BOUND),
    ("p", "P", lambda v: v >= 0, "power budget {} must be nonnegative"),
    ("p", "P", lambda v: v <= MAX_BUDGET, f"power budget {{}} exceeds {MAX_BUDGET:g}"),
]


def _descending_nonneg(values, name):
    arr = np.asarray(values, dtype=float)
    if np.any(np.diff(arr) > 1e-12):
        raise InvalidInputError(f"{name} must be sorted descending", (name,))
    return arr


@dataclass(frozen=True)
class ScenarioConfig:
    """Static description of one link setup, the one validated link schema.

    K receive antennas, M transmit antennas at the point-to-point node, N antennas at the
    interfering base station. `psi` holds the per-antenna power-split ratios toward the
    information branch; one number splits every antenna alike. Each other field is one number
    and each profile a flat sequence of numbers, and a bool is no number; every value is checked
    against BOUNDS and the cross-field rules, and an InvalidInputError names the keys it read.
    """

    K: int = 3
    M: int = 3
    N: int = 5
    sigma_p2p: tuple = REFERENCE_SIGMA_P2P
    sigma_bs: tuple = REFERENCE_SIGMA_BS
    psi: float | tuple = 0.3
    sigma2_w: float = 1.0
    sigma2_n: float = 1.0
    P: float = 5.0
    seed: int = 42
    trials: int = 2000

    def __post_init__(self):
        for key, attr, in_bound, message in BOUNDS:
            values, flat = getattr(self, attr), attr in ("sigma_p2p", "sigma_bs", "psi")
            values = values.tolist() if flat and isinstance(values, np.ndarray) else values
            listed = isinstance(values, (tuple, list))  # only psi may be one number
            values = values if flat and listed else (values,)
            if (flat and not listed and attr != "psi") or not all(
                    isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values):
                shape = "a flat sequence of numbers" if flat else "one number"
                raise InvalidInputError(f"{key} must be {shape}", (key,))
            for value in values:
                if not in_bound(value):
                    raise InvalidInputError(message.format(value), (key,))
        for key, dim, size in (("sigma_p2p", "m", self.M), ("sigma_bs", "n", self.N)):
            actual = len(_descending_nonneg(getattr(self, key), key))
            if actual != min(self.K, size):
                raise InvalidInputError(f"{key} has length {actual}, expected min(k, {dim}) = "
                                        f"{min(self.K, size)}", (key, "k", dim))
        if self.K > min(self.M, self.N):
            raise InvalidInputError(f"k = {self.K} must not exceed min(m, n) = "
                                    f"{min(self.M, self.N)}", ("k", "m", "n"))
        psi = (self.psi,) * self.K if np.ndim(self.psi) == 0 else self.psi
        if len(psi) != self.K:
            raise InvalidInputError(f"psi must have length k = {self.K}", ("psi", "k"))
        for attr, values in (("psi", psi), ("sigma_p2p", self.sigma_p2p),
                             ("sigma_bs", self.sigma_bs)):
            object.__setattr__(self, attr, tuple(float(x) for x in values))

    @property
    def psi_vector(self):
        return np.asarray(self.psi, dtype=float)

    @property
    def beta(self):
        """Per-mode information-branch noise psi_k * sigma2_w + sigma2_n."""
        return self.psi_vector * self.sigma2_w + self.sigma2_n

    def modes(self):
        """(lambda2, lambda2_bs, beta) of the worst case, in which the interference
        aligns with the link and every mode decouples: squared gains scaled by psi."""
        psi = self.psi_vector
        return psi * np.square(self.sigma_p2p), psi * np.square(self.sigma_bs), self.beta


def reference_scenario(psi=0.3, trials=2000, seed=42):
    """The baseline setup used throughout: K=M=3, N=5, unit noise, P=5."""
    return ScenarioConfig(psi=float(psi), trials=trials, seed=seed)


def equivalent_channel(psi, h):
    """The split channel Psi^1/2 H after splitting antenna k's signal with ratio psi[k]:
    row k of h scaled by sqrt(psi[k]), over any leading batch axes of h. Pass psi for
    the information branch, and theta2 = 1 - psi for the energy branch."""
    return np.sqrt(psi)[:, None] * h

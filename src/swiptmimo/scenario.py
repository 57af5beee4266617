"""Scenario configuration, channel synthesis, power splitting, equivalent channels.

Channels are specified by their singular-value profiles only; the unitary
factors are drawn Haar-randomly per trial from a seeded generator.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import InvalidInputError

REFERENCE_SIGMA_P2P = (0.9, 0.8, 0.7)
REFERENCE_SIGMA_BS = (0.8, 0.7, 0.5)


def _descending_nonneg(values, name):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or len(arr) == 0:
        raise InvalidInputError(f"{name} must be a non-empty 1-D profile")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} must be finite and nonnegative")
    if np.any(np.diff(arr) > 1e-12):
        raise InvalidInputError(f"{name} must be sorted descending")
    return arr


@dataclass(frozen=True)
class ScenarioConfig:
    """Static description of one link setup.

    K receive antennas, M transmit antennas at the point-to-point node,
    N antennas at the interfering base station. `psi` holds the per-antenna
    power-split ratios toward the information branch.
    """

    K: int = 3
    M: int = 3
    N: int = 5
    sigma_p2p: tuple = REFERENCE_SIGMA_P2P
    sigma_bs: tuple = REFERENCE_SIGMA_BS
    psi: tuple = (0.3, 0.3, 0.3)
    sigma2_w: float = 1.0
    sigma2_n: float = 1.0
    P: float = 5.0
    Pb: float = 0.0
    seed: int = 42
    trials: int = 2000

    def __post_init__(self):
        if self.K > min(self.M, self.N):
            raise InvalidInputError(
                f"K={self.K} must not exceed min(M, N)={min(self.M, self.N)}")
        psi = np.asarray(self.psi, dtype=float)
        if len(psi) != self.K:
            raise InvalidInputError(f"psi must have length K={self.K}")
        if not np.all((psi >= 0) & (psi <= 1)):
            raise InvalidInputError("each split ratio must lie in [0, 1]")
        sp = _descending_nonneg(self.sigma_p2p, "sigma_p2p")
        sb = _descending_nonneg(self.sigma_bs, "sigma_bs")
        if len(sp) != min(self.K, self.M):
            raise InvalidInputError("sigma_p2p must have length min(K, M)")
        if len(sb) != min(self.K, self.N):
            raise InvalidInputError("sigma_bs must have length min(K, N)")
        if not np.all(np.isfinite((self.sigma2_w, self.sigma2_n, self.P, self.Pb))):
            raise InvalidInputError("noise variances and power budgets must be finite")
        if self.sigma2_w <= 0 or self.sigma2_n <= 0:
            raise InvalidInputError("noise variances must be positive")
        if self.P < 0 or self.Pb < 0:
            raise InvalidInputError("power budgets must be nonnegative")
        if not isinstance(self.trials, numbers.Integral) or self.trials < 1:
            raise InvalidInputError("trials must be an integer >= 1")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise InvalidInputError("seed must be an integer >= 0")
        object.__setattr__(self, "psi", tuple(float(x) for x in psi))
        object.__setattr__(self, "sigma_p2p", tuple(float(x) for x in sp))
        object.__setattr__(self, "sigma_bs", tuple(float(x) for x in sb))

    @property
    def psi_vector(self):
        return np.asarray(self.psi, dtype=float)


def reference_scenario(psi=0.3, trials=2000, seed=42, pb=0.0):
    """The baseline setup used throughout: K=M=3, N=5, unit noise, P=5."""
    return ScenarioConfig(psi=(float(psi),) * 3, trials=trials, seed=seed, Pb=pb)


@dataclass(frozen=True)
class PowerSplit:
    """Per-antenna power split between information detection and harvesting.

    `psi` and `theta2 = 1 - psi` are the squared split gains of the two
    branches, so psi + theta2 == 1 holds exactly entrywise.
    """

    psi: np.ndarray
    theta2: np.ndarray = field(init=False)

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=float)
        if np.any(psi < 0) or np.any(psi > 1):
            raise InvalidInputError("split ratios must lie in [0, 1]")
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "theta2", 1.0 - psi)


@dataclass(frozen=True)
class EquivalentChannel:
    """A channel matrix with its cached SVD factors (matrix = left @ diag @ right^H)."""

    matrix: np.ndarray
    left: np.ndarray
    sigma: np.ndarray
    right: np.ndarray

    @property
    def lambda2(self):
        """Squared singular values, descending."""
        return self.sigma ** 2

    @classmethod
    def from_matrix(cls, a):
        left, sigma, right = linalg.svd(a)
        return cls(np.asarray(a, dtype=complex), left, sigma, right)


def synthesize_channel(sigma, rows, cols, rng):
    """Build rows x cols channel with the given singular values and Haar factors.

    Draws the left factor first, then the right factor; the Monte-Carlo
    ensemble replays the same order for bit-identical trials.
    """
    sigma = _descending_nonneg(sigma, "sigma")
    if len(sigma) > min(rows, cols):
        raise InvalidInputError("singular-value profile longer than min(rows, cols)")
    left = linalg.haar_unitary(rows, rng)
    right = linalg.haar_unitary(cols, rng)
    return left @ linalg.pad_diag(sigma, rows, cols) @ right.conj().T


def equivalent_channels(h, h_bs, split):
    """Equivalent channels after the information-branch split, with fresh SVDs."""
    h = np.asarray(h, dtype=complex)
    h_bs = np.asarray(h_bs, dtype=complex)
    k = len(split.psi)
    if h.shape[0] != k or h_bs.shape[0] != k:
        raise InvalidInputError("split dimension must match the receiver antenna count")
    scale = np.sqrt(split.psi)[:, None]
    return (EquivalentChannel.from_matrix(scale * h),
            EquivalentChannel.from_matrix(scale * h_bs))


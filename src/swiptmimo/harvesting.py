"""RF energy harvesting: the post-split covariance and analog steering.

The energy branch sees C_rf = C + C_bs + W, where C carries the desired
signal, C_bs the interference, and W = sigma2_w * Theta^2 the split-scaled
antenna noise. The optimal unit-norm steering vector is the top eigenvector
of the total covariance.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .linalg import herm_eig, hermitize


def to_db(linear):
    """10*log10, with -inf for zero power."""
    with np.errstate(divide="ignore"):
        return float(10.0 * np.log10(linear)) if np.ndim(linear) == 0 \
            else 10.0 * np.log10(linear)


@dataclass(frozen=True)
class RfCovariance:
    """Energy-branch covariance split into signal, interference and noise parts."""

    C: np.ndarray
    C_bs: np.ndarray
    W: np.ndarray

    @property
    def total(self):
        return self.C + self.C_bs + self.W


@dataclass(frozen=True)
class HarvestResult:
    """Harvested power (linear and dB) with the steering vector that attains it."""

    linear: float
    dB: float
    q: np.ndarray


def _as_cov(v, d, h, theta_scale):
    """Theta H V diag(d) V^H H^H Theta for a beamforming matrix V and powers d."""
    v = np.asarray(v, dtype=complex)
    d = np.asarray(d, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    if d.ndim == 0:
        d = d[None]
    if v.shape[1] != len(d):
        raise InvalidInputError("beam count and power count must match")
    if np.any(d < -1e-12):
        raise InvalidInputError("stream powers must be nonnegative")
    beams = theta_scale[:, None] * (h @ v)
    return hermitize((beams * np.maximum(d, 0.0)) @ beams.conj().T)


def build_rf_covariance(h, v, d, h_bs, v_bs, d_bs, split, sigma2_w):
    """Assemble the energy-branch covariance from both transmitters' designs.

    `v`/`v_bs` hold beamforming columns, `d`/`d_bs` the per-stream powers
    (diagonal transmit covariances in those bases).
    """
    h = np.asarray(h, dtype=complex)
    h_bs = np.asarray(h_bs, dtype=complex)
    k = len(split.psi)
    if h.shape[0] != k or h_bs.shape[0] != k:
        raise InvalidInputError("channel row count must match the split dimension")
    theta = np.sqrt(split.theta2)
    c = _as_cov(v, d, h, theta)
    c_bs = _as_cov(v_bs, d_bs, h_bs, theta)
    w = np.diag(sigma2_w * split.theta2)
    return RfCovariance(c, c_bs, w)


def optimal_steering(cov):
    """Steer the analog branch along the top eigenvector of the total covariance."""
    total = cov.total
    k = total.shape[0]
    if np.allclose(total, 0.0):
        q = np.zeros(k, dtype=complex)
        q[0] = 1.0
        return HarvestResult(0.0, to_db(0.0), q)
    w, vecs = herm_eig(total)
    linear = float(max(w[0], 0.0))
    return HarvestResult(linear, to_db(linear), vecs[:, 0])


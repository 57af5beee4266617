"""Achievable-rate formulas, water-filling and the rate-optimal transmit covariance.

Rates are in bits per channel use (base-2 logs throughout). The per-mode
effective noise is beta_k = psi_k * sigma2_w + sigma2_n.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError
from .linalg import ch, check_finite, hermitize

LN2 = np.log(2.0)
BUDGET_TOL = 1e-9
# Largest power budget (link or interferer) a sweep or a saddle solve accepts.
# No product the solvers form grows faster than the square of a budget: the
# interferer's stationarity root forms a * a / 4 ~ P^2 and a * g / mu ~ (g * Pb)^2,
# and the Monte-Carlo standard error squares deviations ~ P. At 1e100 these stay
# near 1e200, far below the float maximum 1.8e308. The solvers see a budget only
# through the ratio gain * budget / noise: at the baseline's gain / noise ~ 0.2,
# the saddle value at ratio 1 is the same to 1e-12 from p = 1e20 to 1e105, and
# first drifts at 1e110. `cli.FIELDS` bounds gains and noise variances to match.
MAX_BUDGET = 1e100


@dataclass(frozen=True)
class PowerAllocation:
    """Nonnegative per-eigenmode powers under a total budget."""

    p: np.ndarray
    budget: float

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if np.any(p < -1e-12) or not np.all(np.isfinite(p)):
            raise InvalidInputError("mode powers must be finite and nonnegative")
        p = np.maximum(p, 0.0)
        if p.sum() > self.budget + BUDGET_TOL * max(1.0, self.budget):
            raise InvalidInputError(
                f"allocation {p.sum():.12g} exceeds budget {self.budget:.12g}")
        object.__setattr__(self, "p", p)

    @property
    def total(self):
        return float(self.p.sum())


@dataclass(frozen=True)
class NoiseProfile:
    """Antenna/processing noise variances together with the split vector."""

    sigma2_w: float
    sigma2_n: float
    psi: np.ndarray

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=float)
        object.__setattr__(self, "psi", psi)
        if not (np.isfinite(self.sigma2_w) and np.isfinite(self.sigma2_n)
                and np.all(np.isfinite(psi))):
            raise InvalidInputError("noise variances and split ratios must be finite")
        if np.any(self.beta <= 0):
            raise InvalidInputError("effective per-mode noise must be positive")

    @property
    def beta(self):
        """Per-mode information-branch noise psi_k*sigma2_w + sigma2_n."""
        return self.psi * self.sigma2_w + self.sigma2_n


def _powers(alloc):
    return alloc.p if isinstance(alloc, PowerAllocation) else np.asarray(alloc, dtype=float)


def waterfill_batch(inv_gains, total_power):
    """Vectorized sorted active-set water-filling over stacked instances.

    `inv_gains` has shape (..., K); entries may be +inf for disabled modes.
    `total_power` is a scalar or broadcasts against the leading axes (...,).
    Returns (p, eta) with p.shape == inv_gains.shape and eta.shape == (...,).
    """
    c = np.asarray(inv_gains, dtype=float)
    k = c.shape[-1]
    cs = np.sort(c, axis=-1)
    finite = np.isfinite(cs)
    csum = np.cumsum(np.where(finite, cs, 0.0), axis=-1)
    counts = np.arange(1, k + 1, dtype=float)
    etas = (np.asarray(total_power, dtype=float)[..., None] + csum) / counts
    feasible = (etas > cs) & finite
    any_feasible = feasible.any(axis=-1)
    # largest feasible active-set size; 0 active modes only when P == 0
    m_star = k - np.argmax(feasible[..., ::-1], axis=-1)
    m_star = np.where(any_feasible, m_star, 1)
    eta = np.take_along_axis(etas, (m_star - 1)[..., None], axis=-1)[..., 0]
    eta = np.where(any_feasible, eta, np.where(np.isfinite(cs[..., 0]), cs[..., 0], 0.0))
    p = np.maximum(0.0, eta[..., None] - c)
    p = np.where(np.isfinite(c), p, 0.0)
    return p, eta


def waterfill(inv_gains, total_power):
    """Water-filling allocation: p_k = max(0, eta - inv_gains_k), sum p = P.

    Modes with zero gain are passed as +inf and receive zero power. The water
    level is found by the exact sorted active-set method, no iterative search.
    """
    c = np.asarray(inv_gains, dtype=float)
    if total_power < 0:
        raise InvalidInputError("total power must be nonnegative")
    if np.any(np.isnan(c)) or np.any(c <= 0):
        raise InvalidInputError("inverse gains must be positive (or +inf)")
    if not np.any(np.isfinite(c)) and total_power > 0:
        raise InvalidInputError("no usable mode: all inverse gains are infinite")
    p, eta = waterfill_batch(c[None, :], total_power)
    return PowerAllocation(p[0], total_power), float(eta[0])


def _logdet2(a):
    """log2 |det A| for a (stacked) complex matrix, via slogdet."""
    _, logabs = np.linalg.slogdet(a)
    return logabs / LN2


def self_noise(noise, k):
    """Information-branch noise covariance sigma2_w*Psi^2 + sigma2_n*I."""
    return np.diag(noise.psi * noise.sigma2_w + np.full(k, noise.sigma2_n))


def tin_rate_global(hhat, hhat_bs, q, q_bs, noise):
    """Rate with global channel knowledge, treating interference as noise.

    log2 det(I + Hhat^H S^-1 Hhat Q) with S the interference-plus-noise
    covariance at the information branch.
    """
    q = check_finite(np.asarray(q, dtype=complex), "Q")
    s = hermitize(hhat_bs.matrix @ np.asarray(q_bs, dtype=complex) @ hhat_bs.matrix.conj().T) \
        + self_noise(noise, hhat_bs.matrix.shape[0])
    try:
        inner = np.linalg.solve(s, hhat.matrix @ q @ hhat.matrix.conj().T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("interference-plus-noise covariance is singular") from exc
    k = s.shape[0]
    return max(float(_logdet2(np.eye(k) + inner)), 0.0)


def waterfilled_modes(t_mats, total_power):
    """Eigenmodes of stacked PSD matrices T = Hhat^H S^-1 Hhat and their water-filled
    powers, as (gains, vectors, powers) with modes descending per matrix; the
    rate-optimal transmit covariance against receive covariance S is
    `transmit_covariance(vectors, powers)`, PSD with trace `total_power` (0 if T = 0)."""
    w, g = np.linalg.eigh(hermitize(t_mats))
    w = w[..., ::-1]
    g = g[..., :, ::-1]
    usable = w > np.maximum(w[..., :1], 0.0) * 1e-14  # above the top's rounding
    inv_gains = np.where(usable, 1.0 / np.where(usable, w, 1.0), np.inf)
    powers, _ = waterfill_batch(inv_gains, total_power)
    return w, g, powers


def transmit_covariance(vectors, powers):
    """Batched transmit covariance G diag(p) G^H."""
    return (vectors * powers[..., None, :]) @ ch(vectors)


def worst_case_rate(lambda2, lambda2_bs, p, p_bs, noise):
    """Scalar-sum rate over jointly diagonalized modes.

    sum_k log2(1 + lambda2_k p_k / (lambda2_bs_k p_bs_k + beta_k)).
    """
    lam2 = np.asarray(lambda2, dtype=float)
    lam2_bs = np.asarray(lambda2_bs, dtype=float)
    p = _powers(p)
    p_bs = _powers(p_bs)
    if not (len(lam2) == len(lam2_bs) == len(p) == len(p_bs) == len(noise.beta)):
        raise InvalidInputError("mode vectors must share length K")
    return float(mode_rate_sum(lam2, lam2_bs, p, p_bs, noise.beta))


def mode_rate_sum(lambda2, lambda2_bs, p, p_bs, beta):
    """Kernel of `worst_case_rate`: the mode sum over the last axis, stacked."""
    return np.log2(1.0 + lambda2 * p / (lambda2_bs * p_bs + beta)).sum(axis=-1)


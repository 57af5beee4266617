"""Achievable-rate formulas, water-filling and the rate-optimal transmit covariance.

Rates are in bits per channel use (base-2 logs throughout). The per-mode
effective noise is beta_k = psi_k * sigma2_w + sigma2_n (`ScenarioConfig.beta`).
"""

import numpy as np

from .errors import InvalidInputError, NumericalError
from .linalg import ch, check_finite, hermitian_eigh, hermitize, matmul

LN2 = np.log(2.0)
# Largest power budget (link or interferer) a sweep or a saddle solve accepts.
# No product the solvers form grows faster than the square of a budget: the
# interferer's stationarity root forms a * a / 4 ~ P^2 and a * g / mu ~ (g * Pb)^2,
# and the Monte-Carlo standard error squares deviations ~ P. At 1e100 these stay
# near 1e200, far below the float maximum 1.8e308. The solvers see a budget only
# through the ratio gain * budget / noise: at the baseline's gain / noise ~ 0.2,
# the saddle value at ratio 1 is the same to 1e-12 from p = 1e20 to 1e105, and
# first drifts at 1e110. `scenario.BOUNDS` bounds gains and noise variances to match.
MAX_BUDGET = 1e100


def _beta(beta):
    """Per-mode noise beta as an array; each entry must be positive (NaN is not)."""
    beta = np.asarray(beta, dtype=float)
    if not np.all(beta > 0):
        raise InvalidInputError("per-mode noise beta must be positive")
    return beta


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
    """Water-filling allocation (p, eta): p_k = max(0, eta - inv_gains_k), sum p = P.

    Modes with zero gain are passed as +inf and receive zero power. The water
    level is found by the exact sorted active-set method, no iterative search.
    """
    c = np.asarray(inv_gains, dtype=float)
    if not 0 <= total_power < np.inf:
        raise InvalidInputError("total power must be finite and nonnegative")
    if np.any(np.isnan(c)) or np.any(c <= 0):
        raise InvalidInputError("inverse gains must be positive (or +inf)")
    if not np.any(np.isfinite(c)) and total_power > 0:
        raise InvalidInputError("no usable mode: all inverse gains are infinite")
    p, eta = waterfill_batch(c[None, :], total_power)
    return p[0], float(eta[0])


def _logdet2(a):
    """log2 |det A| for a (stacked) complex matrix, via slogdet."""
    _, logabs = np.linalg.slogdet(a)
    return logabs / LN2


def tin_rate_global(hhat, hhat_bs, q, q_bs, beta):
    """Rate with global channel knowledge, treating interference as noise.

    log2 det(I + Hhat^H S^-1 Hhat Q) with S the interference-plus-noise
    covariance at the information branch, whose own noise is diag(beta).
    `hhat` and `hhat_bs` are the split channel matrices (`scenario.equivalent_channel`).
    Broadcasts over leading axes of `q`; a single Q gives a numpy float.
    """
    q = check_finite(np.asarray(q, dtype=complex), "Q")
    s = hermitize(hhat_bs @ np.asarray(q_bs, dtype=complex) @ ch(hhat_bs)) \
        + np.diag(_beta(beta))
    try:
        inner = np.linalg.solve(s, hhat @ q @ ch(hhat))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("interference-plus-noise covariance is singular") from exc
    return np.maximum(_logdet2(np.eye(s.shape[0]) + inner), 0.0)


def mode_powers(gains, total_power):
    """Water-filled powers of stacked mode gains, descending per row; gains within
    the top gain's rounding get none."""
    usable = gains > np.maximum(gains[..., :1], 0.0) * 1e-14
    inv_gains = np.where(usable, 1.0 / np.where(usable, gains, 1.0), np.inf)
    return waterfill_batch(inv_gains, total_power)[0]


def waterfilled_modes(t_mats, total_power):
    """Eigenmodes of stacked PSD matrices T = Hhat^H S^-1 Hhat and their water-filled
    powers, as (gains, vectors, powers) with modes descending per matrix; the
    rate-optimal transmit covariance against receive covariance S is
    `transmit_covariance(vectors, powers)`, PSD with trace `total_power` (0 if T = 0)."""
    w, g = hermitian_eigh(t_mats)
    w = w[..., ::-1]
    return w, g[..., :, ::-1], mode_powers(w, total_power)


def transmit_covariance(vectors, powers):
    """Batched transmit covariance G diag(p) G^H."""
    return matmul(vectors * powers[..., None, :], ch(vectors))


def worst_case_rate(lambda2, lambda2_bs, p, p_bs, beta):
    """Rate over jointly diagonalized modes, summed over the last axis and broadcast
    over leading ones: sum_k log2(1 + lambda2_k p_k / (lambda2_bs_k p_bs_k + beta_k))."""
    lam2, lam2_bs, p, p_bs = (np.asarray(x, dtype=float) for x in (lambda2, lambda2_bs, p, p_bs))
    beta = _beta(beta)
    if len({x.shape[-1:] for x in (lam2, lam2_bs, p, p_bs, beta)}) != 1:
        raise InvalidInputError("mode vectors must share length K")
    return np.log2(1.0 + lam2 * p / (lam2_bs * p_bs + beta)).sum(axis=-1)

"""Max-min power-allocation game between the link and a worst-case interferer.

The link maximizes the jointly-diagonalized rate by water-filling; the
interferer minimizes it with a closed-form KKT allocation whose multiplier is
found by bisection. The rate is concave in the link powers and convex in the
interferer powers, so alternating damped best responses converge to the
saddle point.

Every solver here is a kernel over a batch of points: arrays of shape (B, K)
hold one point per row, and each row runs exactly the floating-point
operations it would run alone, so a row's result does not depend on the
batch it is solved in. The scalar entry points are batches of one.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidInputError
from .rates import MAX_BUDGET, PowerAllocation, _powers, mode_rate_sum, waterfill_batch

MU_TOL = 1e-10
RATE_TOL = 1e-10
MAX_ITER = 10_000


@dataclass(frozen=True)
class SaddleSolution:
    """Saddle allocations with the achieved rate and convergence metadata.

    `gap` is the exact duality gap rate(BR_p(pb*), pb*) - rate(p*, BR_b(p*))
    from the two closed-form best responses: a certificate of how far the
    returned pair is from the saddle point.
    """

    p_star: PowerAllocation
    pb_star: PowerAllocation
    rate: float
    iterations: int
    residual: float
    gap: float


@dataclass(frozen=True)
class SaddleBatch:
    """Solutions of a batch of saddle points, one row per point.

    Rows that did not converge hold their last iterate and `converged` False;
    `solution` raises ConvergenceError for them.
    """

    p: np.ndarray
    pb: np.ndarray
    total_power: np.ndarray
    pb_budget: np.ndarray
    rate: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    gap: np.ndarray
    converged: np.ndarray

    def solution(self, b):
        """The saddle point of row `b`."""
        if not self.converged[b]:
            raise ConvergenceError(
                f"saddle iteration did not converge within {self.iterations[b]} "
                f"steps (last residual {self.residual[b]:.3e})",
                p=self.p[b], p_bs=self.pb[b], rate=float(self.rate[b]),
                residual=float(self.residual[b]), iterations=int(self.iterations[b]))
        return SaddleSolution(
            PowerAllocation(self.p[b], float(self.total_power[b])),
            PowerAllocation(self.pb[b], float(self.pb_budget[b])),
            float(self.rate[b]), int(self.iterations[b]),
            float(self.residual[b]), float(self.gap[b]))


def p2p_response_batch(lambda2, lambda2_bs, p_bs, beta, total_power):
    """Water-filling response of the link to interferer powers, per row.

    Modes with zero gain get nothing, so a row with no usable mode gets the
    all-zero allocation.
    """
    usable = lambda2 > 0
    denom = lambda2_bs * p_bs + beta
    inv_gains = np.where(usable, denom / np.where(usable, lambda2, 1.0), np.inf)
    return waterfill_batch(inv_gains, total_power)[0]


def bs_response_batch(alpha, beta, lambda2_bs, pb_budget):
    """Rate-minimizing interferer allocation for fixed link mode powers, per row.

    Solves the KKT stationarity condition per mode: with x = lambda2_bs * p_b,
    (x + beta)(x + beta + alpha) = alpha * lambda2_bs / mu, taking the positive
    root; mu > 0 is bisected per row so the budget binds. Modes that cannot
    affect the rate (alpha = 0 or zero interference gain) receive nothing; a
    row in which no mode can be hurt gets the all-zero allocation.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    lam2_bs = np.asarray(lambda2_bs, dtype=float)
    budget = np.broadcast_to(np.asarray(pb_budget, dtype=float), alpha.shape[:-1])
    if np.any(beta <= 0) or np.any(lam2_bs < 0) or np.any(budget < 0):
        raise InvalidInputError("bs_best_response requires beta > 0, gains >= 0, budget >= 0")
    harmful = (alpha > 0) & (lam2_bs > 0)
    live = harmful.any(axis=-1) & (budget > 0)
    # harmless modes become a = 0, g = 1, whose root is negative, so they add
    # exact zeros to each row sum; numpy sums rows of K < 8 left to right, so
    # the total equals the sum over the harmful modes alone, bit for bit
    a = np.where(harmful, alpha, 0.0)
    g = np.where(harmful, lam2_bs, 1.0)
    # positive root of the stationarity quadratic in x = g * p_b, split into
    # the parts that do not depend on mu
    shift, a2_4, ag = -(beta + a / 2), a * a / 4, a * g

    def allocation(mu):
        return np.maximum(0.0, shift + np.sqrt(a2_4 + ag / mu[..., None])) / g

    # above mu_hi every mode is off; rows with nothing to bisect keep mu = 1.
    # The loops below run ~50 times per call, so they use np.add.reduce and
    # np.count_nonzero, which skip the Python wrappers of .sum() and .any().
    mu_hi = np.where(live, np.max(ag / (beta * (beta + a)), axis=-1), 1.0)
    mu_lo = mu_hi
    growing = live
    while True:
        growing = growing & (np.add.reduce(allocation(mu_lo), axis=-1) < budget)
        if not np.count_nonzero(growing):
            break
        mu_lo = np.where(growing, mu_lo * 0.5, mu_lo)
        growing = growing & (mu_lo >= 1e-300)
    # keep the answer on the feasible (undershooting) side of the bracket
    tol = np.minimum(MU_TOL * budget, 5e-10)
    active = live
    for _ in range(400):
        if not np.count_nonzero(active):
            break
        mu = 0.5 * (mu_lo + mu_hi)
        total = np.add.reduce(allocation(mu), axis=-1)
        over = active & (total > budget)
        lowered = active ^ over
        mu_lo = np.where(over, mu, mu_lo)
        mu_hi = np.where(lowered, mu, mu_hi)
        active = active ^ (lowered & (budget - total <= tol))
    return np.where(live[..., None], allocation(mu_hi), 0.0)


def solve_saddle_batch(lambda2, lambda2_bs, beta, total_power, pb_budget,
                       damping=0.5, rate_tol=RATE_TOL, max_iter=MAX_ITER):
    """Damped alternating best responses, run in lockstep over a batch.

    `lambda2`, `lambda2_bs` and `beta` have shape (B, K); `total_power` and
    `pb_budget` broadcast to (B,). Each row keeps its own damping factor,
    stall counter and stop flag, and leaves the batch once converged.

    The interferer update is damped (pb <- (1-gamma) pb + gamma BR) because
    undamped alternation limit-cycles; when a row's rate residual stalls, its
    damping factor is halved so the iteration contracts onto the saddle. A row
    in which no interference mode can affect the rate stops after one step.
    """
    lam2 = np.asarray(lambda2, dtype=float)
    lam2_bs = np.asarray(lambda2_bs, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if lam2.ndim != 2 or lam2.shape != lam2_bs.shape or lam2.shape != beta.shape:
        raise InvalidInputError("mode arrays must share shape (B, K)")
    n, k = lam2.shape
    power = np.broadcast_to(np.asarray(total_power, dtype=float), (n,))
    budget = np.broadcast_to(np.asarray(pb_budget, dtype=float), (n,))
    inputs = (lam2, lam2_bs, beta, power, budget)
    if not all(np.all(np.isfinite(x)) for x in inputs):
        raise InvalidInputError("saddle inputs must be finite")
    if (np.any(lam2 < 0) or np.any(lam2_bs < 0) or np.any(beta <= 0)
            or not np.all((0 <= power) & (power <= MAX_BUDGET) & (0 <= budget)
                          & (budget <= MAX_BUDGET))):
        raise InvalidInputError("saddle inputs need gains >= 0, beta > 0, budgets in "
                                f"[0, {MAX_BUDGET:g}]")
    if max_iter < 1:
        raise InvalidInputError("max_iter must be at least 1")

    out_p = np.zeros((n, k))
    out_pb = np.zeros((n, k))
    out_rate = np.zeros(n)
    out_iter = np.full(n, max_iter)
    out_res = np.full(n, np.inf)
    converged = np.zeros(n, dtype=bool)

    # state of the rows still iterating; a row leaves when it stops
    live = np.arange(n)
    l2, l2_bs, b, pw, bg = inputs
    pb = np.repeat((budget / k)[:, None], k, axis=1)
    gamma = np.full(n, float(damping))
    best_residual = np.full(n, np.inf)
    stall = np.zeros(n, dtype=int)
    rate_prev = None
    for iteration in range(1, max_iter + 1):
        if not len(live):
            break
        p = p2p_response_batch(l2, l2_bs, pb, b, pw)
        rate = mode_rate_sum(l2, l2_bs, p, pb, b)
        if rate_prev is None:
            # no interference mode can affect the rate: any feasible split works
            stop = (bg == 0) | ~np.any((l2 > 0) & (l2_bs > 0), axis=-1)
            residual = np.where(stop, 0.0, np.inf)
        else:
            residual = np.abs(rate - rate_prev)
            stop = residual < rate_tol
            better = residual < 0.9 * best_residual
            stall = np.where(better, 0, stall + 1)
            halve = ~better & (stall >= 50)
            gamma = np.where(halve, np.maximum(gamma * 0.5, 1e-4), gamma)
            best_residual = np.where(better | halve, residual, best_residual)
            stall = np.where(halve, 0, stall)
        if stop.any():
            done = live[stop]
            out_p[done], out_pb[done], out_rate[done] = p[stop], pb[stop], rate[stop]
            out_iter[done], out_res[done] = iteration, residual[stop]
            converged[done] = True
            live, p, rate, residual, pb, gamma, best_residual, stall = (
                x[~stop] for x in (live, p, rate, residual, pb, gamma,
                                   best_residual, stall))
            l2, l2_bs, b, pw, bg = (x[live] for x in inputs)
        rate_prev = rate
        response = bs_response_batch(l2 * p, b, l2_bs, bg)
        pb = (1.0 - gamma)[:, None] * pb + gamma[:, None] * response
    else:
        out_p[live], out_pb[live], out_rate[live], out_res[live] = p, pb, rate, residual

    gap = duality_gap(lam2, lam2_bs, beta, power, budget, out_p, out_pb)
    return SaddleBatch(out_p, out_pb, power, budget, out_rate, out_iter, out_res,
                       gap, converged)


def duality_gap(lambda2, lambda2_bs, beta, total_power, pb_budget, p, pb):
    """rate(BR_p(pb), pb) - rate(p, BR_b(p)) per row; zero exactly at a saddle."""
    upper = mode_rate_sum(
        lambda2, lambda2_bs,
        p2p_response_batch(lambda2, lambda2_bs, pb, beta, total_power), pb, beta)
    lower = mode_rate_sum(
        lambda2, lambda2_bs, p,
        bs_response_batch(lambda2 * p, beta, lambda2_bs, pb_budget), beta)
    return upper - lower


def p2p_best_response(lambda2, lambda2_bs, p_bs, noise, total_power):
    """Water-filling response of the link against a fixed interferer allocation."""
    p = p2p_response_batch(np.asarray(lambda2, dtype=float),
                           np.asarray(lambda2_bs, dtype=float),
                           _powers(p_bs), noise.beta, total_power)
    return PowerAllocation(p, total_power)


def bs_best_response(alpha, beta, lambda2_bs, pb_budget):
    """Rate-minimizing interferer allocation for fixed link mode powers."""
    pb = bs_response_batch(alpha, beta, lambda2_bs, pb_budget)
    return PowerAllocation(pb, pb_budget)


def solve_saddle(lambda2, lambda2_bs, noise, total_power, pb_budget,
                 damping=0.5, rate_tol=RATE_TOL, max_iter=MAX_ITER):
    """Saddle point of one link: a batch of one for `solve_saddle_batch`."""
    lam2 = np.asarray(lambda2, dtype=float)
    lam2_bs = np.asarray(lambda2_bs, dtype=float)
    if not len(lam2) == len(lam2_bs) == len(noise.beta):
        raise InvalidInputError("mode vectors must share length K")
    return solve_saddle_batch(lam2[None], lam2_bs[None], noise.beta[None],
                              total_power, pb_budget, damping, rate_tol,
                              max_iter).solution(0)

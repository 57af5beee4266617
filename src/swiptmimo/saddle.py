"""Max-min power-allocation game between the link and a worst-case interferer.

The link maximizes the jointly-diagonalized rate by water-filling; the
interferer minimizes it with a closed-form KKT allocation whose multiplier is
found by safeguarded Newton steps. The rate is concave in the link powers and
convex in the interferer powers, so alternating damped best responses converge
to the saddle point.

Every solver here is a kernel over a batch of points: arrays of shape (B, K)
hold one point per row, and each row runs exactly the floating-point
operations it would run alone, so a row's result does not depend on the
batch it is solved in. The scalar entry points are batches of one.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidInputError
from .rates import MAX_BUDGET, PowerAllocation, _beta, _powers, mode_rate_sum, waterfill_batch

MU_TOL = 1e-10
MU_STEPS = 100  # multiplier steps per interferer response; a few suffice
RATE_TOL = 1e-10
GAP_TOL = 1e-8  # a row is a saddle point only if its exact duality gap is this small
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

    Rows that did not converge, whose interferer response hit its step cap, or
    whose duality gap exceeds GAP_TOL hold their last iterate and `converged`
    False; `solution` raises for them.
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
                f"no saddle point after {self.iterations[b]} steps (last residual "
                f"{self.residual[b]:.3e}, duality gap {self.gap[b]:.3e})",
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
    """Rate-minimizing interferer allocation for fixed link mode powers, and whether
    each row's multiplier was found within MU_STEPS steps.

    Solves the KKT stationarity condition per mode: with x = lambda2_bs * p_b,
    (x + beta)(x + beta + alpha) = alpha * lambda2_bs * nu, taking the positive
    root; nu = 1 / mu > 0 is set per row so the budget binds. The budget used
    grows with nu and is concave between the nu at which modes switch on, so a
    Newton step from either side lands on the feasible side; one that leaves the
    bracket becomes its geometric midpoint. Modes that cannot affect the rate
    (alpha = 0 or zero interference gain) receive nothing, nor does a row in
    which none can.
    """
    alpha, beta, lam2_bs = (np.asarray(x, dtype=float) for x in (alpha, beta, lambda2_bs))
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
    # positive root of the stationarity quadratic in x = g * p_b, in parts free of nu
    shift, a2_4, ag = -(beta + a / 2), a * a / 4, a * g

    def allocation(nu):
        return np.maximum(0.0, shift + np.sqrt(a2_4 + ag * nu[..., None])) / g

    # ag = 0 gives kink = inf, and a row without a harmful mode NaNs, masked at the end;
    # np.add.reduce and np.count_nonzero skip the Python wrappers of .sum() and .any()
    with np.errstate(divide="ignore", invalid="ignore"):
        kink = beta * (beta + a) / ag  # where each mode switches on
        gb = g * budget[..., None] + beta
        nu_hi = np.min(gb * (gb + a) / ag, axis=-1)  # where one mode alone spends the budget
        nu = nu_lo = np.min(kink, axis=-1)  # nu: the last point tried
        total = np.add.reduce(allocation(nu), axis=-1)
        tol = np.minimum(MU_TOL * budget, 5e-10)
        active = live & (budget - total > tol)
        for step in range(MU_STEPS + 1):
            root = np.sqrt(a2_4 + ag * nu[..., None])
            slope = np.add.reduce(np.where(kink <= nu[..., None], a / (2 * root), 0.0), -1)
            newton = nu + (budget - total) / slope
            # a feasible point whose Newton correction rounds away is the root
            active = active & ~((newton == nu) & (total <= budget))
            if step == MU_STEPS or not np.count_nonzero(active):
                break
            trial = np.where((newton > nu_lo) & (newton < nu_hi), newton,
                             np.sqrt(nu_lo) * np.sqrt(nu_hi))
            moved = active & (trial > nu_lo) & (trial < nu_hi)  # else no float is left
            nu = np.where(moved, trial, nu)
            total = np.where(moved, np.add.reduce(allocation(trial), axis=-1), total)
            over = moved & (total > budget)
            nu_lo, nu_hi = np.where(moved ^ over, nu, nu_lo), np.where(over, nu, nu_hi)
            active = moved & ~(~over & (budget - total <= tol))
        # one last Newton step for all rows at once, kept where it stays feasible
        pb = allocation(np.where((newton > nu_lo) & (newton < nu_hi), newton, nu_lo))
        pb = np.where((np.add.reduce(pb, axis=-1) <= budget)[..., None], pb, allocation(nu_lo))
    return np.where(live[..., None], pb, 0.0), ~active


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
    lam2, lam2_bs, beta = (np.asarray(x, dtype=float) for x in (lambda2, lambda2_bs, beta))
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
    settled = np.ones(n, dtype=bool)  # every interferer response so far converged
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
            converged[done] = settled[stop]
            live, p, rate, residual, pb, gamma, best_residual, stall, settled = (
                x[~stop] for x in (live, p, rate, residual, pb, gamma,
                                   best_residual, stall, settled))
            l2, l2_bs, b, pw, bg = (x[live] for x in inputs)
        rate_prev = rate
        response, solved = bs_response_batch(l2 * p, b, l2_bs, bg)
        settled = settled & solved
        pb = (1.0 - gamma)[:, None] * pb + gamma[:, None] * response
    else:
        out_p[live], out_pb[live], out_rate[live], out_res[live] = p, pb, rate, residual

    gap = duality_gap(lam2, lam2_bs, beta, power, budget, out_p, out_pb)
    return SaddleBatch(out_p, out_pb, power, budget, out_rate, out_iter, out_res,
                       gap, converged & (np.abs(gap) <= GAP_TOL))


def duality_gap(lambda2, lambda2_bs, beta, total_power, pb_budget, p, pb):
    """rate(BR_p(pb), pb) - rate(p, BR_b(p)) per row; zero exactly at a saddle."""
    upper = mode_rate_sum(
        lambda2, lambda2_bs,
        p2p_response_batch(lambda2, lambda2_bs, pb, beta, total_power), pb, beta)
    lower = mode_rate_sum(
        lambda2, lambda2_bs, p,
        bs_response_batch(lambda2 * p, beta, lambda2_bs, pb_budget)[0], beta)
    return upper - lower


def p2p_best_response(lambda2, lambda2_bs, p_bs, beta, total_power):
    """Water-filling response of the link against a fixed interferer allocation."""
    p = p2p_response_batch(np.asarray(lambda2, dtype=float),
                           np.asarray(lambda2_bs, dtype=float),
                           _powers(p_bs), _beta(beta), total_power)
    return PowerAllocation(p, total_power)


def bs_best_response(alpha, beta, lambda2_bs, pb_budget):
    """Rate-minimizing interferer allocation for fixed link mode powers."""
    pb, converged = bs_response_batch(alpha, beta, lambda2_bs, pb_budget)
    if not np.all(converged):
        raise ConvergenceError(f"interferer multiplier not found in {MU_STEPS} steps", p_bs=pb)
    return PowerAllocation(pb, pb_budget)


def solve_saddle(lambda2, lambda2_bs, beta, total_power, pb_budget,
                 damping=0.5, rate_tol=RATE_TOL, max_iter=MAX_ITER):
    """Saddle point of one link: a batch of one for `solve_saddle_batch`."""
    lam2, lam2_bs, beta = (np.asarray(x, dtype=float) for x in (lambda2, lambda2_bs, beta))
    return solve_saddle_batch(lam2[None], lam2_bs[None], beta[None],
                              total_power, pb_budget, damping, rate_tol,
                              max_iter).solution(0)


def solve_links(links, pb_budgets):
    """Saddle points of ScenarioConfig links (their `modes` and budget P) against
    the interferer budgets, one row each, as one `solve_saddle_batch`."""
    lam2, lam2_bs, beta = (np.stack(rows) for rows in zip(*(link.modes() for link in links)))
    return solve_saddle_batch(lam2, lam2_bs, beta, [link.P for link in links], pb_budgets)

"""Max-min power-allocation game between the link and a worst-case interferer.

The rate is concave in the link powers and convex in the interferer powers, so
the players' KKT conditions define the saddle point, and `solve_saddle_batch`
solves them with one root per point. The two closed-form best responses
(water-filling, and the interferer's KKT allocation) certify its duality gap.

Every solver here is a kernel over a batch of points: arrays of shape (B, K)
hold one point per row, and each row runs exactly the floating-point
operations it would run alone, so a row's result does not depend on the
batch it is solved in. Only `solve_saddle` is a batch of one.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConvergenceError, InvalidInputError
from .rates import MAX_BUDGET, _beta, waterfill_batch, worst_case_rate

MU_TOL = 1e-10
MU_STEPS = 100  # multiplier steps per interferer response; a few suffice
ROOT_TOL = 1e-13  # relative miss of the interferer's budget at which t is its root
ROOT_STEPS = 100  # points t tried per saddle row; about ten suffice
GAP_TOL = 1e-8  # a row is a saddle point only if its exact duality gap is this small


@dataclass(frozen=True)
class SaddleBatch:
    """Solutions of a batch of saddle points, one row per point.

    `iterations` counts the points t a row tried, and `gap` is the row's exact
    duality gap (`duality_gap`). Rows whose root search hit ROOT_STEPS, or whose
    duality gap exceeds GAP_TOL or could not be computed, hold their last iterate
    and `converged` False; `row` raises for them.
    """

    p: np.ndarray
    pb: np.ndarray
    rate: np.ndarray
    iterations: np.ndarray
    gap: np.ndarray
    converged: np.ndarray

    def row(self, b):
        """The saddle point of row `b`, as a SaddleBatch of that row's values: `p` and
        `pb` of shape (K,), every other field a numpy scalar."""
        if not self.converged[b]:
            raise ConvergenceError(
                f"no saddle point after {self.iterations[b]} steps (duality gap "
                f"{self.gap[b]:.3e})", p=self.p[b], p_bs=self.pb[b],
                rate=float(self.rate[b]), iterations=int(self.iterations[b]))
        return SaddleBatch(*(getattr(self, field.name)[b] for field in fields(self)))


def p2p_best_response(lambda2, lambda2_bs, p_bs, beta, total_power):
    """Water-filling response of the link to interferer powers, per row.

    Modes with zero gain get nothing, so a row with no usable mode gets the
    all-zero allocation. The gains must be finite and nonnegative; `p_bs` may be a
    solver's iterate, so it is not checked.
    """
    lambda2, lambda2_bs, p_bs, power = (np.asarray(x, dtype=float)
                                        for x in (lambda2, lambda2_bs, p_bs, total_power))
    if not all(np.all(np.isfinite(x) & (x >= 0)) for x in (power, lambda2, lambda2_bs)):
        raise InvalidInputError("total power and gains must be finite and nonnegative")
    usable = lambda2 > 0
    denom = lambda2_bs * p_bs + _beta(beta)
    inv_gains = np.where(usable, denom / np.where(usable, lambda2, 1.0), np.inf)
    return waterfill_batch(inv_gains, power)[0]


def bs_best_response(alpha, beta, lambda2_bs, pb_budget):
    """Rate-minimizing interferer allocation for fixed link mode powers, and whether
    each row was solved: its alpha (maybe a solver's iterate, so no error) finite and
    >= 0, its multiplier found within MU_STEPS steps, its powers finite.

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
    if not (np.all(beta > 0) and np.all((0 <= lam2_bs) & (lam2_bs < np.inf))
            and np.all((0 <= budget) & (budget < np.inf))):
        raise InvalidInputError("bs_best_response requires beta > 0, finite gains and budget >= 0")
    harmful = (alpha > 0) & (lam2_bs > 0)
    live = harmful.any(axis=-1) & (budget > 0)
    # harmless modes become a = 0, g = 1 (and a root of 0 / 1 - beta < 0), so they
    # add exact zeros to each row sum; numpy sums rows of K < 8 left to right, so
    # the total equals the sum over the harmful modes alone, bit for bit
    a = np.where(harmful, alpha, 0.0)
    g = np.where(harmful, lam2_bs, 1.0)
    # positive root of the stationarity quadratic in x = g * p_b, in parts free of nu, as
    # a g nu / (sqrt(a^2 / 4 + a g nu) + a / 2) - beta: sqrt(...) - a / 2 cancels at large a
    half, a2_4, ag = np.where(harmful, a / 2, 1.0), a * a / 4, a * g

    def allocation(nu):
        agnu = ag * nu[..., None]
        return np.maximum(0.0, agnu / (np.sqrt(a2_4 + agnu) + half) - beta) / g

    # ag = 0 gives kink = inf (a tiny ag may overflow nu_hi to inf), and a row without
    # a harmful mode NaNs, masked at the end; np.add.reduce and np.count_nonzero skip
    # the Python wrappers of .sum() and .any()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
    sound = np.all(np.isfinite(alpha) & (alpha >= 0), axis=-1)
    return np.where(live[..., None], pb, 0.0), ~active & sound & (~live | np.isfinite(pb).all(-1))


def solve_saddle_batch(lambda2, lambda2_bs, beta, total_power, pb_budget):
    """Saddle points of a batch from the KKT conditions, one root per row.

    `lambda2`, `lambda2_bs` and `beta` have shape (B, K); `total_power` and
    `pb_budget` broadcast to (B,). At t = mu * w (interferer multiplier times link
    water level) mode i carries d_i = max(beta_i, w c_i), c_i = lambda2_bs_i lambda2_i
    / (lambda2_bs_i + t lambda2_i), link power (w - d_i / lambda2_i)+ and interferer
    power (d_i - beta_i) / lambda2_bs_i. The link's budget sets w exactly, and the
    interferer's total falls with t: safeguarded Newton steps on 1 / total find where
    it spends its budget. Budget no mode needs (all of it if no interference can
    affect the rate, the rest at t = 0 once every reachable mode is shut) is split evenly.
    """
    lam2, lam2_bs, beta = (np.asarray(x, dtype=float) for x in (lambda2, lambda2_bs, beta))
    if lam2.ndim != 2 or lam2.shape != lam2_bs.shape or lam2.shape != beta.shape:
        raise InvalidInputError("mode arrays must share shape (B, K)")
    n, k = lam2.shape
    power, budget = (np.broadcast_to(np.asarray(x, dtype=float), (n,))
                     for x in (total_power, pb_budget))
    if not (all(np.all(np.isfinite(x)) for x in (lam2, lam2_bs, beta))
            and np.all((lam2 >= 0) & (lam2_bs >= 0) & (beta > 0))
            and np.all([(0 <= x) & (x <= MAX_BUDGET) for x in (power, budget)])):
        raise InvalidInputError("saddle inputs need finite gains >= 0, beta > 0, budgets in "
                                f"[0, {MAX_BUDGET:g}]")

    harmful = (lam2 > 0) & (lam2_bs > 0)
    free = np.any((lam2 > 0) & (lam2_bs == 0), axis=-1)  # modes the interferer cannot reach
    trivial = (budget == 0) | (power == 0) | ~harmful.any(axis=-1)
    plain = p2p_best_response(lam2, lam2_bs, np.zeros_like(lam2), beta, power)
    # unreachable knots are inf, and rows without a usable mode NaN, masked at the end
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        on = np.where(lam2 > 0, beta / lam2, np.inf)  # water level at which the link uses i
        floor = np.where(harmful, beta / lam2_bs, 0.0)  # pb_i = w q_i - floor_i when jammed

        def kkt_point(t):
            """(p, pb, the interferer's total, its slope in t) at t, all rows."""
            d = np.where(harmful, lam2_bs + t[:, None] * lam2, 1.0)
            q = np.where(harmful, lam2 / d, 0.0)  # c_i / lambda2_bs_i
            tq = t[:, None] * q
            jam = np.where(harmful, floor / q, np.inf)  # water level at which i is jammed
            # the water level and the slope of the link's total on the segment after
            # each knot; the highest knot below its own segment's level holds w
            knots = np.concatenate([on, jam], axis=-1)
            up, both = (x[:, None] <= knots[..., None] for x in (on, jam))
            slope = np.add.reduce(np.where(up, np.where(both, tq[:, None], 1.0), 0.0), axis=-1)
            level = (power[:, None] + np.add.reduce(np.where(up & ~both, on[:, None], 0.0),
                                                    axis=-1)) / slope
            j = np.argmax(np.where((level >= knots) & (knots < np.inf), knots, -np.inf), -1)
            w, slope = (np.take_along_axis(x, j[:, None], axis=-1) for x in (level, slope))
            both = harmful & (jam < w)
            p = np.where(both, w * tq, np.maximum(w - on, 0.0))
            pb = np.where(both, np.maximum(w * q - floor, 0.0), 0.0)
            dw = np.add.reduce(np.where(both, w * lam2_bs * q / d, 0.0), -1, keepdims=True) / slope
            dpb = np.add.reduce(np.where(both, (dw + w * q) * q, 0.0), axis=-1)
            return p, pb, np.add.reduce(pb, axis=-1), -dpb

        # the interferer's total is at least power / t - sum(floor) without a free mode,
        # and zero from the t at which it stops jamming the plain water-filling
        t = lo = np.where(free, 0.0, power / (budget + np.add.reduce(floor, axis=-1)))
        hi = np.max(np.where(harmful, lam2_bs * plain / beta, 0.0), axis=-1)
        active, steps = ~trivial, trivial.astype(int)
        for step in range(1, ROOT_STEPS + 1):
            p, pb, total, slope = kkt_point(t)  # a row whose t stays gets the same bits
            steps += active
            over = total > budget
            lo, hi = np.where(active & over, t, lo), np.where(active & ~over, t, hi)
            newton = t + (total / budget) * (budget - total) / slope  # Newton on 1 / total
            trial = np.where((newton > lo) & (newton < hi), newton,
                             np.where(lo > 0, np.sqrt(lo) * np.sqrt(hi), 0.5 * hi))
            # the root is a point within ROOT_TOL, or whose correction rounds away, or
            # with no float left in its bracket (so is t_lo if the budget covers it)
            active &= ((np.abs(budget - total) > ROOT_TOL * budget) & (trial > lo)
                       & (trial < hi) & ((newton != t) | (total == 0)))
            if step == ROOT_STEPS or not np.count_nonzero(active):
                break
            t = np.where(active, trial, t)
    spare = np.where(trivial, budget, np.where(t == 0, budget - total, 0.0)) / k
    p = np.where(trivial[:, None], plain, p)
    pb = np.where(trivial[:, None], 0.0, pb) + spare[:, None]
    gap = duality_gap(lam2, lam2_bs, beta, power, budget, p, pb)
    return SaddleBatch(p, pb, worst_case_rate(lam2, lam2_bs, p, pb, beta), steps, gap,
                       ~active & (np.abs(gap) <= GAP_TOL))


def duality_gap(lambda2, lambda2_bs, beta, total_power, pb_budget, p, pb):
    """rate(BR_p(pb), pb) - rate(p, BR_b(p)) per row; zero exactly at a saddle, and
    inf where the interferer's response hit MU_STEPS, so no certificate exists."""
    upper = worst_case_rate(
        lambda2, lambda2_bs,
        p2p_best_response(lambda2, lambda2_bs, pb, beta, total_power), pb, beta)
    response, solved = bs_best_response(lambda2 * p, beta, lambda2_bs, pb_budget)
    # the response may stop up to MU_TOL short of its budget, which biases the gap
    # down; spending the rest in proportion removes that bias to first order
    spent = np.add.reduce(response, axis=-1, keepdims=True)
    response = response * (np.asarray(pb_budget, dtype=float)[..., None]
                           / np.where(spent > 0, spent, 1.0))
    return np.where(solved, upper - worst_case_rate(lambda2, lambda2_bs, p, response, beta),
                    np.inf)


def solve_saddle(lambda2, lambda2_bs, beta, total_power, pb_budget):
    """Saddle point of one link: row 0 of a batch of one for `solve_saddle_batch`."""
    lam2, lam2_bs, beta = (np.asarray(x, dtype=float) for x in (lambda2, lambda2_bs, beta))
    return solve_saddle_batch(lam2[None], lam2_bs[None], beta[None],
                              total_power, pb_budget).row(0)


def solve_links(links, pb_budgets):
    """Saddle points of ScenarioConfig links (their `modes` and budget P) against
    the interferer budgets, one row each, as one `solve_saddle_batch`."""
    lam2, lam2_bs, beta = (np.stack(rows) for rows in zip(*(link.modes() for link in links)))
    return solve_saddle_batch(lam2, lam2_bs, beta, [link.P for link in links], pb_budgets)

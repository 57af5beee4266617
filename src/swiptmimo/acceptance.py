"""Acceptance checks: pinned reference values, oracle equivalences, orderings.

Each criterion takes the battery's `cli.SweepResult` and returns a CheckResult;
`run_all` builds that result once with `cli.sweep`, the code that makes every CSV
row, and drives the full battery.
Reference curve values are regression anchors for the baseline setup
(K = M = 3, N = 5, unit noise variances, P = 5, seed 42).
"""

from dataclasses import dataclass

import numpy as np

from . import cli, montecarlo, rates, saddle
from .harvesting import to_db
from .rates import LN2
from .scenario import equivalent_channel, reference_scenario

RATIO_GRID = cli.SweepConfig.ratio_grid  # 0 to 14
RATE_PSIS = (0.3, 0.6, 0.9)
ENERGY_PSIS = (0.3, 0.6)

# Pinned reference anchors (rate in bits/cu, energy in dB).
WC_ENDPOINTS = {0.3: 1.016649, 0.6: 1.509088, 0.9: 1.816096}
WC_CURVE_03 = {1: 0.660668, 5: 0.262106, 14: 0.114810}
S2_RATE_ENDPOINTS = {0.3: 0.952047, 0.6: 1.332708, 0.9: 1.545188}
S2_ENERGY_ENDPOINTS = {0.3: 5.483894, 0.6: 3.053514}
S1_ENERGY_ENDPOINTS = {0.3: 4.015909, 0.6: 1.027521}
AVG_CURVE_03 = {1: 0.943662, 7: 0.754587, 14: 0.658612}
SWIPT_CURVE_03 = {1: 6.156, 5: 11.168, 14: 15.218}


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str


def sweep_configs(trials, seed):
    """The sweep the battery reads, on one link: every scenario at ENERGY_PSIS, and the
    worst-case and both average rates at the other RATE_PSIS, over RATIO_GRID."""
    link = reference_scenario(trials=trials, seed=seed)
    rest = tuple(psi for psi in RATE_PSIS if psi not in ENERGY_PSIS)
    return (cli.SweepConfig(link, ENERGY_PSIS, RATIO_GRID, cli.SCENARIOS),
            cli.SweepConfig(link, rest, RATIO_GRID, ("worst-case", "average", "structure2")))


def criterion_1(shared):
    """Deterministic worst-case rate endpoints at zero interferer power."""
    tol = 1e-3
    lines, ok = [], True
    for psi, expected in WC_ENDPOINTS.items():
        got = shared.solutions[psi, 0].rate
        good = abs(got - expected) <= tol
        ok &= good
        lines.append(f"psi={psi}: {got:.6f} vs {expected:.6f} (tol {tol})")
    return CheckResult(1, "worst-case rate endpoints", ok, "; ".join(lines))


def criterion_2(shared):
    """Saddle curve anchors plus the unilateral-deviation certificate."""
    tol = 5e-3
    lines, values_ok = [], True
    cert_ok = True
    rng = np.random.default_rng(shared.seed)
    cfg = reference_scenario(0.3)
    lam2, lam2_bs, beta = cfg.modes()
    for ratio, expected in WC_CURVE_03.items():
        sol = shared.solutions[0.3, ratio]
        good = abs(sol.rate - expected) <= tol
        values_ok &= good
        lines.append(f"ratio={ratio}: {sol.rate:.6f} vs {expected:.6f}")
        cert_ok &= saddle_certificate(
            lam2, lam2_bs, beta, cfg.P, ratio * cfg.P, sol, rng)
    lines.append(f"certificate: {'pass' if cert_ok else 'fail'}")
    return CheckResult(2, "saddle-point curve anchors + certificate",
                       values_ok and cert_ok, "; ".join(lines))


def saddle_certificate(lam2, lam2_bs, beta, p_budget, pb_budget, sol, rng,
                       deviations=200, margin=1e-6):
    """No unilateral deviation improves either player's objective: `deviations`
    random splits of each player's budget, drawn in one pass and rated together."""
    ones = np.ones(len(lam2))
    p_dev = p_budget * rng.dirichlet(ones, size=deviations)
    if np.any(rates.worst_case_rate(lam2, lam2_bs, p_dev, sol.pb, beta)
              > sol.rate + margin):
        return False
    if pb_budget == 0:
        return True
    pb_dev = pb_budget * rng.dirichlet(ones, size=deviations)
    return not np.any(rates.worst_case_rate(lam2, lam2_bs, sol.p, pb_dev, beta)
                      < sol.rate - margin)


def _endpoint_check(criterion, name, anchors, metric, shared, tol, unit=""):
    """`metric` at Pb = 0 against anchors {psi: value}: trial 0 of the sweep's Pb = 0
    row, the first of every metric (RATIO_GRID starts at 0). With no BS power and a
    uniform split the metric sees only the singular values, which all trials share.
    Energies (unit " dB") compare in dB to 4 decimals, rates to 6."""
    lines, ok, spec = [], True, ".4f" if unit else ".6f"
    for psi, expected in anchors.items():
        got = shared.samples[psi, metric][0, 0]
        got = to_db(got) if unit else float(got)
        ok &= abs(got - expected) <= tol
        lines.append(f"psi={psi}: {got:{spec}}{unit} vs {expected:{spec}}{unit}")
    return CheckResult(criterion, name, ok, "; ".join(lines))


def criterion_3(shared):
    """Combine-then-split baseline rate endpoints."""
    return _endpoint_check(3, "structure-2 rate endpoints", S2_RATE_ENDPOINTS,
                           "rate-struct2", shared, 1e-3)


def criterion_4(shared):
    """Combine-then-split baseline harvested-energy endpoints."""
    return _endpoint_check(4, "structure-2 energy endpoints", S2_ENERGY_ENDPOINTS,
                           "energy-struct2", shared, 0.01, " dB")


def criterion_5(shared):
    """Per-antenna-split receiver classical harvested-energy endpoints."""
    return _endpoint_check(5, "structure-1 classical energy endpoints", S1_ENERGY_ENDPOINTS,
                           "energy-struct1", shared, 0.05, " dB")


def criterion_6(shared):
    """Monte-Carlo average-rate anchors for psi = 0.3."""
    lines, ok = [], True
    samples = shared.samples[0.3, "rate-struct1"]
    for ratio, expected in AVG_CURVE_03.items():
        res = montecarlo.McResult.from_samples(samples[RATIO_GRID.index(ratio)])
        band = max(3 * res.stderr, 0.03)
        good = abs(res.mean - expected) <= band
        ok &= good
        lines.append(f"ratio={ratio}: {res.mean:.6f} vs {expected:.6f} "
                     f"(band {band:.4f})")
    return CheckResult(6, "average rate curve anchors", ok, "; ".join(lines))


def criterion_7(shared):
    """Joint-transfer harvested-energy anchors and grid monotonicity."""
    lines, ok = [], True
    samples = shared.samples[0.3, "energy-swipt"]
    curve = [montecarlo.McResult.from_samples(row) for row in samples]
    for ratio, expected in SWIPT_CURVE_03.items():
        got, got_stderr = curve[RATIO_GRID.index(ratio)].db()
        band = max(3 * got_stderr, 0.3)
        good = abs(got - expected) <= band
        ok &= good
        lines.append(f"ratio={ratio}: {got:.3f} dB vs {expected:.3f} dB "
                     f"(band {band:.3f})")
    monotone = bool(np.all(np.diff([res.mean for res in curve]) >= -1e-12))
    ok &= monotone
    lines.append(f"monotone over grid: {monotone}")
    return CheckResult(7, "joint-transfer energy anchors + monotonicity", ok,
                       "; ".join(lines))


def _dominates(high, low):
    """Paired differences high - low are not negative beyond 3 standard errors."""
    diff = montecarlo.McResult.from_samples(high - low)
    return not diff.mean < -max(3 * diff.stderr, 1e-9)


def criterion_8(shared):
    """Ordering properties across the full sweep, paired per trial on one ensemble."""
    samples, sols = shared.samples, shared.solutions
    worst = all(sols[psi, ratio].rate <= avg.mean + max(3 * avg.stderr, 1e-9)
                for psi in RATE_PSIS for ratio, avg in zip(
                    RATIO_GRID, map(montecarlo.McResult.from_samples,
                                    samples[psi, "rate-struct1"])))
    dominance = all(_dominates(r1, r2) for psi in RATE_PSIS for r1, r2 in
                    zip(samples[psi, "rate-struct1"], samples[psi, "rate-struct2"]))
    start = RATIO_GRID.index(1)  # the harvest check starts at ratio 1
    harvest = all(
        _dominates(sw, cl) for psi in ENERGY_PSIS
        for sw, cl in zip(samples[psi, "energy-swipt"][start:],
                          samples[psi, "energy-struct1"][start:]))
    lines = [f"worst-case <= average: {worst}",
             f"structure-2 <= structure-1 rate: {dominance}",
             f"joint-transfer >= classical energy (ratio >= 1): {harvest}"]
    return CheckResult(8, "sweep ordering properties", worst and dominance and harvest,
                       "; ".join(lines))


def _grid_search_objective(inv_gains, total_power):
    """Coarse-to-fine exhaustive maximum of sum log2(1 + p/c) on the simplex
    p1 + p2 + p3 = P: a full 0.1 grid, then 41 x 41 windows, each 10x finer
    down to 1e-7, reaching two coarser steps to each side of the best point.
    The objective is concave (Boyd & Vandenberghe, 5.5.3), so that point lies
    next to the optimum. Clipping to [0, P] and p2 to P - p1 searches the
    boundary, where a switched-off mode puts it, exactly."""
    c = np.asarray(inv_gains, dtype=float)
    centre = (total_power / 2, total_power / 2)
    half = np.ceil(total_power / 2 / 1e-1)  # grid points to each side of the centre
    for step in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
        offsets = step * np.arange(-half, half + 1)
        p1 = np.clip(centre[0] + offsets, 0.0, total_power)[:, None]
        p2 = np.minimum(np.clip(centre[1] + offsets, 0.0, total_power), total_power - p1)
        p3 = np.maximum(total_power - p1 - p2, 0.0)
        obj = (np.log2(1.0 + p1 / c[0]) + np.log2(1.0 + p2 / c[1])
               + np.log2(1.0 + p3 / c[2]))
        i, j = np.unravel_index(np.argmax(obj), obj.shape)
        centre, best = (p1[i, 0], p2[i, j]), obj[i, j]
        half = 20
    return float(best)


def _project_simplex(v, total):
    """Each row of v projected onto x >= 0, sum x = total (Duchi et al., ICML 2008)."""
    u = np.sort(v)[:, ::-1]
    css = u.cumsum(1) - total[:, None]
    hit = u - css / np.arange(1, v.shape[1] + 1) > 0
    rho = v.shape[1] - 1 - hit[:, ::-1].argmax(1)  # the last hit of each row
    tau = css[np.arange(len(v)), rho] / (rho + 1.0)
    return np.maximum(v - tau[:, None], 0.0)


def projected_gradient_worst_allocation(alpha, beta, lam2_bs, pb_budget, iters=20000):
    """Independent convex minimizer of the interferer objective on the simplex, per row
    of (rows, modes) arrays; a mode with alpha 0 starts with no power, so a shorter row
    is padded with modes (alpha 0, beta 1, lam2_bs 1).

    Projected gradient descent with Armijo backtracking; a row stops when its gradient
    mapping is at float resolution or after `iters` steps of its own. The rows run in
    lockstep, one trial projection per live row per pass: a row that passes its Armijo
    test takes its next step, doubled, in the next pass, one that fails halves its step,
    and a stopped row leaves the batch. A row runs the operations it runs alone.
    """
    alpha, beta, lam2_bs = (np.asarray(a, dtype=float) for a in (alpha, beta, lam2_bs))
    total = np.broadcast_to(np.asarray(pb_budget, dtype=float), alpha.shape[:1])
    on = alpha > 0
    x = np.where(on, total[:, None] / np.maximum(on.sum(1, keepdims=True), 1), 0.0)
    out, rows = x.copy(), np.arange(len(x))
    step, taken = np.ones(len(x)), np.zeros(len(x), dtype=int)
    a, b, g, ag = alpha, beta, lam2_bs, alpha * lam2_bs

    def f(x):
        return np.log2(1.0 + a / (g * x + b)).sum(1)

    fx = f(x)
    while rows.size:
        den = g * x + b
        xn = _project_simplex(x - step[:, None] * (-ag / (LN2 * den * (den + a))), total)
        move = xn - x
        fn = f(xn)
        ok = fn <= fx - 1e-4 / step * (move[:, None, :] @ move[:, :, None])[:, 0, 0]
        step = np.where(ok, step, step * 0.5)
        ok |= step <= 1e-18  # backtracking gave up: its last trial stands
        x, fx, taken = np.where(ok[:, None], xn, x), np.where(ok, fn, fx), taken + ok
        done = ok & (np.abs(move).max(1) < 1e-14 * np.maximum(1.0, total))
        step = np.where(ok & ~done, np.minimum(step * 2.0, 1e9), step)
        done |= taken >= iters
        if done.any():
            out[rows[done]] = x[done]
            keep = ~done
            rows, x, fx, step, taken, total, a, b, g, ag = (
                v[keep] for v in (rows, x, fx, step, taken, total, a, b, g, ag))
    return out


def waterfill_instances(rng, count=50):
    """Criterion 9's random three-mode water-filling problems (c, P)."""
    return [(rng.uniform(0.3, 4.0, size=3), rng.uniform(0.5, 2.0)) for _ in range(count)]


def criterion_9(shared):
    """Oracle equivalences for the three optimizing primitives; water-filling
    is checked against the coarse-to-fine simplex search."""
    rng = np.random.default_rng(shared.seed)
    lines, ok = [], True

    c, p_total = (np.array(x) for x in zip(*waterfill_instances(rng)))
    ours = np.sum(np.log2(1.0 + rates.waterfill_batch(c, p_total)[0] / c), axis=-1)
    grid = [_grid_search_objective(*instance) for instance in zip(c, p_total)]
    worst_gap = float(np.max(np.abs(ours - grid)))
    wf_ok = worst_gap <= 1e-3
    ok &= wf_ok
    lines.append(f"waterfill vs grid search: max gap {worst_gap:.2e}")

    # (alpha, beta, lambda2_bs, pb) of 2 or 3 modes, a two-mode row padded with a zero-gain
    # mode: one response batch per mode count, one minimizer batch over all 50
    modes, pb = np.zeros(50, dtype=int), np.zeros(50)
    alpha, beta, lam2_bs = np.zeros((50, 3)), np.ones((50, 3)), np.ones((50, 3))
    for i in range(50):
        k = modes[i] = rng.integers(2, 4)
        alpha[i, :k], beta[i, :k], lam2_bs[i, :k] = (
            rng.uniform(lo, hi, size=k) for lo, hi in ((0.1, 2.0), (0.5, 2.0), (0.05, 1.0)))
        pb[i] = rng.uniform(0.5, 8.0)
    numeric = projected_gradient_worst_allocation(alpha, beta, lam2_bs, pb)
    worst_dev = 0.0
    for k in (2, 3):
        rows = modes == k
        closed, solved = saddle.bs_best_response(alpha[rows, :k], beta[rows, :k],
                                                 lam2_bs[rows, :k], pb[rows])
        dev = np.max(np.abs(closed - numeric[rows, :k]), axis=1)
        worst_dev = max(worst_dev, float(np.max(np.where(solved, dev, np.inf))))
    bs_ok = worst_dev <= 1e-6
    ok &= bs_ok
    lines.append(f"closed-form vs projected-gradient minimizer: "
                 f"max component gap {worst_dev:.2e}")

    cfg = reference_scenario(0.3, trials=1, seed=shared.seed)
    ens = montecarlo.ensemble_for(cfg)
    hhat = equivalent_channel(cfg.psi_vector, ens.h[0])
    hhat_bs = equivalent_channel(cfg.psi_vector, ens.h_bs[0])
    users = ens.user_dirs[0]
    q_bs = (cfg.P / cfg.N) * (users @ users.conj().T)
    s = hhat_bs @ q_bs @ hhat_bs.conj().T + np.diag(cfg.beta)
    t_mat = hhat.conj().T @ np.linalg.solve(s, hhat)
    _, g, p = rates.waterfilled_modes(t_mat, cfg.P)
    q_star = rates.transmit_covariance(g, p)
    best = rates.tin_rate_global(hhat, hhat_bs, q_star, q_bs, cfg.beta)
    margins = []
    for _ in range(10):  # 100 deviations at a time, in the order of one (1000, ...) draw
        z = rng.standard_normal((100, 2, cfg.M, cfg.M))  # real then imaginary part
        a = z[:, 0] + 1j * z[:, 1]
        q_alt = a @ a.conj().swapaxes(-2, -1)
        q_alt *= cfg.P / np.real(np.trace(q_alt, axis1=-2, axis2=-1))[:, None, None]
        alt = rates.tin_rate_global(hhat, hhat_bs, q_alt, q_bs, cfg.beta)
        margins.append(np.min(best - alt))
    margin = float(np.min(margins))
    opt_ok = margin >= -1e-9
    ok &= opt_ok
    lines.append(f"optimal covariance vs 1000 random deviations: "
                 f"min margin {margin:.2e}")

    return CheckResult(9, "oracle equivalences", ok, "; ".join(lines))


def criterion_10(shared):
    """Byte-identical reruns of a sweep with a fixed seed."""
    sweep_cfg = cli.SweepConfig(
        reference_scenario(trials=50, seed=shared.seed), psis=(0.3,),
        ratio_grid=(0.0, 3.0, 7.0), scenarios=("worst-case", "average", "swipt", "structure2"))
    first = cli.run_sweep(sweep_cfg)
    second = cli.run_sweep(sweep_cfg)
    same = first == second
    return CheckResult(10, "deterministic reruns", same,
                       f"CSV byte-identical: {same}")


ALL_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
                criterion_6, criterion_7, criterion_8, criterion_9, criterion_10)


def run_all(trials=2000, seed=42):
    """Every criterion in order, each reading the one `cli.sweep` result of
    `sweep_configs` built here: its samples (criteria 3-8) and saddle points (1, 2 and 8)."""
    shared = cli.sweep(sweep_configs(trials, seed))
    return [check(shared) for check in ALL_CRITERIA]

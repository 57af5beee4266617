"""Acceptance checks: pinned reference values, oracle equivalences, orderings.

Each criterion returns a CheckResult; `run_all` drives the full battery.
Reference curve values are regression anchors for the baseline setup
(K = M = 3, N = 5, unit noise variances, P = 5, seed 42).
"""

from dataclasses import dataclass

import numpy as np

from . import montecarlo, rates, saddle, scenario
from .harvesting import to_db
from .rates import LN2, NoiseProfile, waterfill
from .scenario import PowerSplit, reference_scenario

RATIO_GRID = tuple(range(15))
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


def _spectra(psi):
    cfg = reference_scenario(psi)
    lam2 = psi * np.asarray(cfg.sigma_p2p) ** 2
    lam2_bs = psi * np.asarray(cfg.sigma_bs) ** 2
    noise = NoiseProfile(cfg.sigma2_w, cfg.sigma2_n, cfg.psi_vector)
    return cfg, lam2, lam2_bs, noise


def _wc_solutions(points):
    """Saddle solutions of baseline (psi, ratio) points from one batched solve."""
    spectra = [_spectra(psi) for psi, _ in points]
    batch = saddle.solve_saddle_batch(
        np.stack([lam2 for _, lam2, _, _ in spectra]),
        np.stack([lam2_bs for _, _, lam2_bs, _ in spectra]),
        np.stack([noise.beta for _, _, _, noise in spectra]),
        [cfg.P for cfg, _, _, _ in spectra],
        [ratio * cfg.P for (cfg, _, _, _), (_, ratio) in zip(spectra, points)])
    return [batch.solution(b) for b in range(len(points))]


@dataclass(frozen=True)
class SharedInputs:
    """What criteria 1, 2 and 6-8 read, built once by `run_all`."""

    samples: dict    # (psi, metric) -> per-trial samples over RATIO_GRID (`sample_table`)
    solutions: dict  # (psi, ratio) -> saddle solution (`saddle_table`)


def sample_table(trials, seed):
    """Per-trial samples of every metric criteria 6-8 read, over RATIO_GRID: one
    request per psi, all on one draw, so rows of different metrics are paired."""
    requests = []
    for psi in RATE_PSIS:
        metrics = ("rate-struct1", "rate-struct2") + (
            ("energy-struct1", "energy-swipt") if psi in ENERGY_PSIS else ())
        cfg = reference_scenario(psi, trials=trials, seed=seed)
        requests.append((cfg, metrics, [ratio * cfg.P for ratio in RATIO_GRID]))
    grids = montecarlo.sample_grids(requests)
    return {(psi, metric): rows for psi, (_, metrics, _), grid
            in zip(RATE_PSIS, requests, grids) for metric, rows in zip(metrics, grid)}


def saddle_table():
    """Saddle solutions of every (psi, ratio) in RATE_PSIS x RATIO_GRID, one batch."""
    points = [(psi, ratio) for psi in RATE_PSIS for ratio in RATIO_GRID]
    return dict(zip(points, _wc_solutions(points)))


def criterion_1(trials=2000, seed=42, shared=None):
    """Deterministic worst-case rate endpoints at zero interferer power."""
    tol = 1e-3
    lines, ok = [], True
    sols = shared.solutions if shared else saddle_table()
    for psi, expected in WC_ENDPOINTS.items():
        got = sols[psi, 0].rate
        good = abs(got - expected) <= tol
        ok &= good
        lines.append(f"psi={psi}: {got:.6f} vs {expected:.6f} (tol {tol})")
    return CheckResult(1, "worst-case rate endpoints", ok, "; ".join(lines))


def criterion_2(trials=2000, seed=42, shared=None):
    """Saddle curve anchors plus the unilateral-deviation certificate."""
    tol = 5e-3
    lines, values_ok = [], True
    cert_ok = True
    rng = np.random.default_rng(seed)
    cfg, lam2, lam2_bs, noise = _spectra(0.3)
    sols = shared.solutions if shared else saddle_table()
    for ratio, expected in WC_CURVE_03.items():
        sol = sols[0.3, ratio]
        good = abs(sol.rate - expected) <= tol
        values_ok &= good
        lines.append(f"ratio={ratio}: {sol.rate:.6f} vs {expected:.6f}")
        cert_ok &= saddle_certificate(
            lam2, lam2_bs, noise, cfg.P, ratio * cfg.P, sol, rng)
    lines.append(f"certificate: {'pass' if cert_ok else 'fail'}")
    return CheckResult(2, "saddle-point curve anchors + certificate",
                       values_ok and cert_ok, "; ".join(lines))


def saddle_certificate(lam2, lam2_bs, noise, p_budget, pb_budget, sol, rng,
                       deviations=200, margin=1e-6):
    """No unilateral deviation improves either player's objective."""
    base = sol.rate
    for _ in range(deviations):
        p_dev = p_budget * rng.dirichlet(np.ones(len(lam2)))
        if rates.worst_case_rate(lam2, lam2_bs, p_dev, sol.pb_star, noise) \
                > base + margin:
            return False
    if pb_budget > 0:
        for _ in range(deviations):
            pb_dev = pb_budget * rng.dirichlet(np.ones(len(lam2)))
            if rates.worst_case_rate(lam2, lam2_bs, sol.p_star, pb_dev, noise) \
                    < base - margin:
                return False
    return True


def _endpoint_check(criterion, name, anchors, metric, seed, tol, unit=""):
    """`metric` at Pb = 0 against anchors {psi: value}, on one synthesize_channel draw
    per psi from one generator, run through the sweep's grid kernel as a one-trial
    ensemble. Energies (unit " dB") compare in dB to 4 decimals, rates to 6."""
    rng = np.random.default_rng(seed)
    lines, ok, spec = [], True, ".4f" if unit else ".6f"
    for psi, expected in anchors.items():
        cfg = reference_scenario(psi, trials=1, seed=seed)
        h = scenario.synthesize_channel(cfg.sigma_p2p, cfg.K, cfg.M, rng)
        h_bs = scenario.synthesize_channel(cfg.sigma_bs, cfg.K, cfg.N, rng)
        ens = montecarlo.TrialEnsemble(seed, range(1), h[None], h_bs[None],
                                       np.eye(cfg.N)[None])  # no BS power: any beams
        got = montecarlo.metric_samples_grid(cfg, (metric,), [0.0], ens)[0, 0, 0]
        got = to_db(got) if unit else float(got)
        ok &= abs(got - expected) <= tol
        lines.append(f"psi={psi}: {got:{spec}}{unit} vs {expected:{spec}}{unit}")
    return CheckResult(criterion, name, ok, "; ".join(lines))


def criterion_3(trials=2000, seed=42):
    """Combine-then-split baseline rate endpoints."""
    return _endpoint_check(3, "structure-2 rate endpoints", S2_RATE_ENDPOINTS,
                           "rate-struct2", seed, 1e-3)


def criterion_4(trials=2000, seed=42):
    """Combine-then-split baseline harvested-energy endpoints."""
    return _endpoint_check(4, "structure-2 energy endpoints", S2_ENERGY_ENDPOINTS,
                           "energy-struct2", seed, 0.01, " dB")


def criterion_5(trials=2000, seed=42):
    """Per-antenna-split receiver classical harvested-energy endpoints."""
    return _endpoint_check(5, "structure-1 classical energy endpoints", S1_ENERGY_ENDPOINTS,
                           "energy-struct1", seed, 0.05, " dB")


def criterion_6(trials=2000, seed=42, shared=None):
    """Monte-Carlo average-rate anchors for psi = 0.3."""
    lines, ok = [], True
    samples = (shared.samples if shared else sample_table(trials, seed))[0.3, "rate-struct1"]
    for ratio, expected in AVG_CURVE_03.items():
        res = montecarlo.McResult.from_samples(samples[RATIO_GRID.index(ratio)])
        band = max(3 * res.stderr, 0.03)
        good = abs(res.mean - expected) <= band
        ok &= good
        lines.append(f"ratio={ratio}: {res.mean:.6f} vs {expected:.6f} "
                     f"(band {band:.4f})")
    return CheckResult(6, "average rate curve anchors", ok, "; ".join(lines))


def criterion_7(trials=2000, seed=42, shared=None):
    """Joint-transfer harvested-energy anchors and grid monotonicity."""
    lines, ok = [], True
    samples = (shared.samples if shared else sample_table(trials, seed))[0.3, "energy-swipt"]
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


def criterion_8(trials=2000, seed=42, shared=None):
    """Ordering properties across the full sweep, paired per trial on one ensemble."""
    samples = shared.samples if shared else sample_table(trials, seed)
    sols = shared.solutions if shared else saddle_table()
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
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    idx = np.arange(1, len(v) + 1)
    rho = np.nonzero(u - css / idx > 0)[0][-1]
    tau = css[rho] / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def projected_gradient_worst_allocation(alpha, beta, lam2_bs, pb_budget,
                                        iters=20000):
    """Independent convex minimizer of the interferer objective on the simplex.

    Projected gradient descent with Armijo backtracking; terminates when the
    gradient mapping is at float resolution.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    lam2_bs = np.asarray(lam2_bs, dtype=float)

    def f(x):
        return float(np.sum(np.log2(1.0 + alpha / (lam2_bs * x + beta))))

    def grad(x):
        den = lam2_bs * x + beta
        return -(alpha * lam2_bs) / (LN2 * den * (den + alpha))

    x = np.full(len(alpha), pb_budget / len(alpha))
    fx = f(x)
    step = 1.0
    for _ in range(iters):
        g = grad(x)
        while step > 1e-18:
            xn = _project_simplex(x - step * g, pb_budget)
            move = xn - x
            fn = f(xn)
            if fn <= fx - 1e-4 / step * float(move @ move):
                break
            step *= 0.5
        if np.max(np.abs(xn - x)) < 1e-14 * max(1.0, pb_budget):
            x, fx = xn, fn
            break
        x, fx = xn, fn
        step = min(step * 2.0, 1e9)
    return x


def waterfill_instances(rng, count=50):
    """Criterion 9's random three-mode water-filling problems (c, P)."""
    return [(rng.uniform(0.3, 4.0, size=3), rng.uniform(0.5, 2.0)) for _ in range(count)]


def criterion_9(trials=2000, seed=42):
    """Oracle equivalences for the three optimizing primitives; water-filling
    is checked against the coarse-to-fine simplex search."""
    rng = np.random.default_rng(seed)
    lines, ok = [], True

    worst_gap = 0.0
    for c, p_total in waterfill_instances(rng):
        alloc, _ = waterfill(c, p_total)
        ours = float(np.sum(np.log2(1.0 + alloc.p / c)))
        grid = _grid_search_objective(c, p_total)
        worst_gap = max(worst_gap, abs(ours - grid))
    wf_ok = worst_gap <= 1e-3
    ok &= wf_ok
    lines.append(f"waterfill vs grid search: max gap {worst_gap:.2e}")

    worst_dev = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 4))
        alpha = rng.uniform(0.1, 2.0, size=k)
        beta = rng.uniform(0.5, 2.0, size=k)
        lam2_bs = rng.uniform(0.05, 1.0, size=k)
        pb = float(rng.uniform(0.5, 8.0))
        closed = saddle.bs_best_response(alpha, beta, lam2_bs, pb).p
        numeric = projected_gradient_worst_allocation(alpha, beta, lam2_bs, pb)
        worst_dev = max(worst_dev, float(np.max(np.abs(closed - numeric))))
    bs_ok = worst_dev <= 1e-6
    ok &= bs_ok
    lines.append(f"closed-form vs projected-gradient minimizer: "
                 f"max component gap {worst_dev:.2e}")

    cfg = reference_scenario(0.3)
    split = PowerSplit(cfg.psi_vector)
    h = scenario.synthesize_channel(cfg.sigma_p2p, cfg.K, cfg.M, rng)
    h_bs = scenario.synthesize_channel(cfg.sigma_bs, cfg.K, cfg.N, rng)
    hhat, hhat_bs = scenario.equivalent_channels(h, h_bs, split)
    noise = NoiseProfile(1.0, 1.0, cfg.psi_vector)
    q_bs = montecarlo.random_bs_covariance(cfg.N, cfg.P, rng)
    s = hhat_bs.matrix @ q_bs @ hhat_bs.matrix.conj().T + rates.self_noise(noise, cfg.K)
    _, g, p = rates.waterfilled_modes(hhat.matrix.conj().T @ np.linalg.solve(s, hhat.matrix),
                                      cfg.P)
    q_star = rates.transmit_covariance(g, p)
    best = rates.tin_rate_global(hhat, hhat_bs, q_star, q_bs, noise)
    margin = 0.0
    for _ in range(1000):
        a = rng.standard_normal((cfg.M, cfg.M)) + 1j * rng.standard_normal((cfg.M, cfg.M))
        q_alt = a @ a.conj().T
        q_alt *= cfg.P / np.real(np.trace(q_alt))
        alt = rates.tin_rate_global(hhat, hhat_bs, q_alt, q_bs, noise)
        margin = min(margin, best - alt)
    opt_ok = margin >= -1e-9
    ok &= opt_ok
    lines.append(f"optimal covariance vs 1000 random deviations: "
                 f"min margin {margin:.2e}")

    return CheckResult(9, "oracle equivalences", ok, "; ".join(lines))


def criterion_10(trials=2000, seed=42):
    """Byte-identical reruns of a sweep with a fixed seed."""
    from . import cli

    sweep_cfg = cli.SweepConfig(
        psis=(0.3,), ratio_grid=(0.0, 3.0, 7.0),
        scenarios=("worst-case", "average", "swipt", "structure2"),
        trials=50, seed=seed)
    first = cli.run_sweep(sweep_cfg)
    second = cli.run_sweep(sweep_cfg)
    same = first == second
    return CheckResult(10, "deterministic reruns", same,
                       f"CSV byte-identical: {same}")


ALL_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
                criterion_6, criterion_7, criterion_8, criterion_9, criterion_10)


def run_all(trials=2000, seed=42):
    """Every criterion in order. The Monte-Carlo sample table (criteria 6-8) and
    the saddle batch (criteria 1, 2 and 8) are built once, here, and passed on."""
    shared = SharedInputs(sample_table(trials, seed), saddle_table())
    results = [check(trials, seed, shared) if i in (1, 2, 6, 7, 8) else check(trials, seed)
               for i, check in enumerate(ALL_CRITERIA[:8], start=1)]
    del shared  # criteria 9 and 10 do not read it, so free the sample table first
    return results + [check(trials, seed) for check in ALL_CRITERIA[8:]]

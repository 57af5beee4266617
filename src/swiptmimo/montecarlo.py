"""Monte-Carlo averaging over random channel factors and BS user beams.

Each trial t owns a generator seeded from the pair (seed, t), so trials are
independent and order-free; identical (seed, trials) always reproduce
bit-identical results regardless of how the work is scheduled. Each trial
draws all its Gaussians in one call, while the linear algebra runs batched
over the stacked trial arrays. Nothing is cached: callers draw a config's
ensemble once with `ensemble_for` (it does not depend on psi or the budgets)
and pass it to `metric_samples_grid`, which evaluates a metric over a grid of
BS budgets and does the budget-free work (including its `eigh` calls) once.

Energy metrics are reported in linear power units here; the presentation
layer (CSV / acceptance report) converts a result with `McResult.db`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UnsupportedConfigError
from .harvesting import to_db
from .linalg import complex_gaussian, haar_from_gaussian, pad_diag
from .rates import waterfill_batch

METRICS = ("rate-struct1", "rate-struct2", "energy-struct1",
           "energy-struct2", "energy-swipt")


@dataclass(frozen=True)
class McResult:
    """Sample mean with its standard error over the trials."""

    mean: float
    stderr: float
    trials: int

    @classmethod
    def from_samples(cls, values):
        """Mean and standard error of per-trial samples, reduced in trial order."""
        trials = len(values)
        stderr = float(values.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
        return cls(float(values.mean()), stderr, trials)

    def db(self):
        """The mean in dB with its delta-method standard error
        (10 / ln 10) * stderr / mean; (-inf, inf) unless the mean is positive."""
        if not self.mean > 0:
            return -np.inf, np.inf
        return to_db(self.mean), (10.0 / np.log(10.0)) * self.stderr / self.mean


def trial_rng(seed, trial):
    """The generator owned by one trial; mixing the pair avoids the
    permuted-trial-set collisions a plain XOR of small integers produces."""
    return np.random.default_rng(np.random.SeedSequence((seed, trial)))


def random_bs_covariance(n, pb_budget, rng):
    """BS covariance from n independent unit-sphere user beams at power Pb/n."""
    if n < 1:
        raise InvalidInputError("user count must be at least 1")
    z = complex_gaussian((n, n), rng)
    beams = z / np.linalg.norm(z, axis=0, keepdims=True)
    return (pb_budget / n) * (beams @ beams.conj().T)


@dataclass(frozen=True)
class TrialEnsemble:
    """Stacked per-trial channels and BS user beam directions."""

    h: np.ndarray        # (T, K, M)
    h_bs: np.ndarray     # (T, K, N)
    user_dirs: np.ndarray  # (T, N, N), unit columns


def ensemble_for(cfg):
    """Draw all per-trial randomness of a config, then batch the factor construction.

    Trial t makes one standard_normal call of 2(2k^2 + m^2 + 2n^2) values and
    slices it, real block then imaginary block, into the p2p left/right, BS
    left/right and user-beam Gaussians in that order: the stream that
    synthesize_channel followed by random_bs_covariance reads through five
    complex_gaussian calls, so scalar replays of a single trial agree exactly.
    """
    trials, k, m, n = cfg.trials, cfg.K, cfg.M, cfg.N
    zs = [np.empty((trials, d, d), dtype=complex) for d in (k, m, k, n, n)]
    parts = [part.reshape(trials, -1) for z in zs for part in (z.real, z.imag)]
    stops = np.cumsum([part.shape[1] for part in parts]).tolist()
    bounds = list(zip([0] + stops[:-1], stops))
    for t in range(trials):
        draw = trial_rng(cfg.seed, t).standard_normal(stops[-1])
        for part, (start, stop) in zip(parts, bounds):
            part[t] = draw[start:stop]
    for z in zs:
        z /= np.sqrt(2.0)
    z_left, z_right, z_bs_left, z_bs_right, z_users = zs

    sig = pad_diag(np.asarray(cfg.sigma_p2p), k, m)
    sig_bs = pad_diag(np.asarray(cfg.sigma_bs), k, n)
    h = haar_from_gaussian(z_left) @ sig @ _ch(haar_from_gaussian(z_right))
    h_bs = haar_from_gaussian(z_bs_left) @ sig_bs @ _ch(haar_from_gaussian(z_bs_right))
    user_dirs = z_users / np.linalg.norm(z_users, axis=1, keepdims=True)
    for arr in (h, h_bs, user_dirs):
        arr.flags.writeable = False
    return TrialEnsemble(h, h_bs, user_dirs)


def _ch(a):
    """Batched conjugate transpose."""
    return a.conj().swapaxes(-2, -1)


def _top_eigpair(mats):
    """Largest eigenvalue and eigenvector of stacked Hermitian matrices."""
    w, v = np.linalg.eigh(0.5 * (mats + _ch(mats)))
    return w[..., -1], v[..., :, -1]


def _waterfilled_modes(t_mats, total_power):
    """Eigenmodes of stacked PSD matrices and their water-filled powers, as
    (gains, vectors, powers) with modes descending per trial."""
    w, g = np.linalg.eigh(0.5 * (t_mats + _ch(t_mats)))
    w = w[..., ::-1]
    g = g[..., :, ::-1]
    top = np.maximum(w[..., :1], 0.0)
    usable = w > np.maximum(top, 1.0) * 1e-14
    inv_gains = np.where(usable, 1.0 / np.where(usable, w, 1.0), np.inf)
    powers, _ = waterfill_batch(inv_gains, total_power)
    return w, g, powers


def _covariance(vectors, powers):
    """Batched transmit covariance G diag(p) G^H; only energy metrics read it."""
    return (vectors * powers[..., None, :]) @ _ch(vectors)


def _require_uniform(cfg, metric):
    psi = cfg.psi_vector
    if not np.all(psi == psi[0]):
        raise UnsupportedConfigError(f"{metric} requires a uniform split ratio")
    return float(psi[0])


def metric_samples(cfg, metric, pb_budget):
    """Per-trial metric values at one BS budget (rates in bits/cu, energies in
    linear power) on a fresh, uncached draw of the config's ensemble."""
    return metric_samples_grid(cfg, metric, (pb_budget,), ensemble_for(cfg))[0]


def metric_samples_grid(cfg, metric, pb_budgets, ens):
    """Per-trial metric values at each BS budget, shape (len(pb_budgets), trials).

    `ens` is `ensemble_for(cfg)`; metrics evaluated on one ensemble see the
    same per-trial channels and beams. The work that does not depend on Pb
    (the equivalent channels, the user-beam Gram matrix, the structure-2
    combiner, the SWIPT energy beam and link covariance) is done once; each
    row then runs exactly the operations of a single-budget evaluation.
    """
    if metric not in METRICS:
        raise InvalidInputError(f"unknown metric '{metric}' (choose from {METRICS})")
    budgets = [float(pb) for pb in pb_budgets]
    if not all(0.0 <= pb < np.inf for pb in budgets):
        raise InvalidInputError("BS power budget must be finite and nonnegative")
    t, k, m, n = cfg.trials, cfg.K, cfg.M, cfg.N
    shapes = (ens.h.shape, ens.h_bs.shape, ens.user_dirs.shape)
    if shapes != ((t, k, m), (t, k, n), (t, n, n)):
        raise InvalidInputError(f"ensemble does not match trials={t}, K={k}, M={m}, N={n}")
    psi = cfg.psi_vector
    root_psi = np.sqrt(psi)[:, None]
    noise_diag = psi * cfg.sigma2_w + cfg.sigma2_n

    if metric == "energy-swipt":
        # rank-one energy beam on the strongest delivery direction of Theta H_bs
        theta2 = (1.0 - psi)[:, None]
        _, e_bs = _top_eigpair(_ch(ens.h_bs) @ (theta2 * ens.h_bs))
        beam = e_bs[..., :, None] @ _ch(e_bs[..., :, None])
        hhat = root_psi * ens.h
        _, g, powers = _waterfilled_modes(_ch(hhat) @ (hhat / noise_diag[:, None]), cfg.P)
        q = _covariance(g, powers)
        del e_bs, hhat, g  # keep only what the budget loop reads

        def point(pb):
            return _steered_energy(cfg, ens, q, pb * beam)
    elif metric in ("rate-struct1", "energy-struct1"):
        hhat = root_psi * ens.h
        hhat_bs = root_psi * ens.h_bs
        gram = ens.user_dirs @ _ch(ens.user_dirs)

        def point(pb):
            q_bs = (pb / cfg.N) * gram
            t_mats = _ch(hhat) @ np.linalg.solve(
                hhat_bs @ q_bs @ _ch(hhat_bs) + np.diag(noise_diag), hhat)
            modes, g, powers = _waterfilled_modes(t_mats, cfg.P)
            if metric == "rate-struct1":
                return np.sum(np.log2(1.0 + np.maximum(modes, 0.0) * powers), axis=-1)
            q = _covariance(g, powers)
            del t_mats, modes, g  # only q and q_bs reach the steering step (peak memory)
            return _steered_energy(cfg, ens, q, q_bs)
    else:
        # combine-then-split baseline metrics
        psi_scalar = _require_uniform(cfg, metric)
        gram = ens.user_dirs @ _ch(ens.user_dirs)
        lam1sq, u1 = _top_eigpair(ens.h @ _ch(ens.h))

        def point(pb):
            rx = ens.h_bs @ ((pb / cfg.N) * gram) @ _ch(ens.h_bs)
            interference = np.real(np.einsum("ti,tij,tj->t", u1.conj(), rx, u1))
            if metric == "rate-struct2":
                denom = psi_scalar * (interference + cfg.sigma2_w) + cfg.sigma2_n
                return np.log2(1.0 + psi_scalar * lam1sq * cfg.P / denom)
            return (1.0 - psi_scalar) * (lam1sq * cfg.P + interference + cfg.sigma2_w)

    out = np.empty((len(budgets), cfg.trials))
    for r, pb in enumerate(budgets):
        out[r] = point(pb)
    return out


def _steered_energy(cfg, ens, q, q_bs):
    theta2 = (1.0 - cfg.psi_vector)
    scale = np.sqrt(theta2)[:, None]
    c_sig = (scale * ens.h) @ q @ _ch(scale * ens.h)
    c_bs = (scale * ens.h_bs) @ q_bs @ _ch(scale * ens.h_bs)
    total = c_sig + c_bs + np.diag(cfg.sigma2_w * theta2)
    top, _ = _top_eigpair(total)
    return np.maximum(top, 0.0)


def average_metric(cfg, metric, pb_budget):
    """Seeded Monte-Carlo mean of a metric, reduced in trial order (uncached)."""
    return McResult.from_samples(metric_samples(cfg, metric, pb_budget))

"""Monte-Carlo averaging over random channel factors and BS user beams.

Each trial t owns a generator seeded from the pair (seed, t), so trials are
independent and order-free; identical (seed, trials) always reproduce
bit-identical results regardless of how the work is scheduled. Nothing is
cached. `sample_grids` owns the one loop over trials: it draws each slice of
TRIAL_CHUNK trials once with `ensemble_for` (which, like the kernel, refuses
longer slices) and runs every requested `metric_samples_grid` call on it, into
each request's (metrics, budgets, trials) rows, the only arrays that grow with
the trial count. Every operation acts trial by trial: slicing changes no bit.
The kernel runs one receiver structure at a time: structure 1 shares each
budget's solve, `eigh` and water-filling between its rate and energy,
structure 2 its combiner and interference terms, joint transfer its beam and signal;
the formulas are kernels in `rates`, `harvesting` and `transfer`.

Energy metrics are reported in linear power units here; the presentation
layer (CSV / acceptance report) converts a result with `McResult.db`.
"""

from dataclasses import dataclass

import numpy as np

from . import harvesting, transfer
from .errors import InvalidInputError, UnsupportedConfigError
from .linalg import ch, complex_gaussian, haar_from_gaussian, pad_diag
from .rates import transmit_covariance, waterfilled_modes

METRICS = ("rate-struct1", "rate-struct2", "energy-struct1",
           "energy-struct2", "energy-swipt")
# metrics sharing one receiver structure's work: split per antenna, combine then split, joint
FAMILIES = (("rate-struct1", "energy-struct1"), ("rate-struct2", "energy-struct2"),
            ("energy-swipt",))
TRIAL_CHUNK = 512  # trials per slice drawn and evaluated by sample_grids


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
        return harvesting.to_db(self.mean), (10.0 / np.log(10.0)) * self.stderr / self.mean


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
    """Stacked channels and BS user beam directions of some trials of a seed."""

    seed: int
    trials: range        # the trial indices drawn, T of them
    h: np.ndarray        # (T, K, M)
    h_bs: np.ndarray     # (T, K, N)
    user_dirs: np.ndarray  # (T, N, N), unit columns


def ensemble_for(cfg, start=0, stop=None):
    """Draw trials [start, stop) (by default to the end), at most TRIAL_CHUNK, as one batch.

    Trial t fills a row of one buffer with 2(2k^2 + m^2 + 2n^2) standard normals
    from its generator, read as real block then imaginary block of the p2p
    left/right, BS left/right and user-beam Gaussians in that order: the stream
    that synthesize_channel followed by random_bs_covariance reads through five
    complex_gaussian calls, so a trial's scalar replay and every slice holding it agree.
    """
    stop = cfg.trials if stop is None else stop
    if not 0 <= start < stop <= min(cfg.trials, start + TRIAL_CHUNK):
        raise InvalidInputError(f"trial range [{start}, {stop}) is not a slice of at most "
                                f"{TRIAL_CHUNK} trials in [0, {cfg.trials})")
    k, m, n = cfg.K, cfg.M, cfg.N
    dims = (k, m, k, n, n)
    stops = np.cumsum(np.repeat(np.square(dims), 2)).tolist()  # real, imaginary blocks
    buf = np.empty((stop - start, stops[-1]))
    for t in range(start, stop):
        trial_rng(cfg.seed, t).standard_normal(out=buf[t - start])
    blocks = np.split(buf, stops[:-1], axis=1)
    z_left, z_right, z_bs_left, z_bs_right, z_users = (
        (re + 1j * im).reshape(-1, d, d) / np.sqrt(2.0)
        for re, im, d in zip(blocks[::2], blocks[1::2], dims))
    sig = pad_diag(np.asarray(cfg.sigma_p2p), k, m)
    sig_bs = pad_diag(np.asarray(cfg.sigma_bs), k, n)
    ens = TrialEnsemble(
        cfg.seed, range(start, stop),
        haar_from_gaussian(z_left) @ sig @ ch(haar_from_gaussian(z_right)),
        haar_from_gaussian(z_bs_left) @ sig_bs @ ch(haar_from_gaussian(z_bs_right)),
        z_users / np.linalg.norm(z_users, axis=1, keepdims=True))
    for arr in (ens.h, ens.h_bs, ens.user_dirs):
        arr.flags.writeable = False
    return ens


def sample_grids(requests):
    """`metric_samples_grid` of each (cfg, metrics, pb_budgets) request over all trials
    of its cfg; each TRIAL_CHUNK slice is drawn once for all, so all share one draw."""
    keys = {(c.seed, c.trials, c.K, c.M, c.N, c.sigma_p2p, c.sigma_bs) for c, _, _ in requests}
    if len(keys) > 1:
        raise InvalidInputError("requests must share seed, trials, K, M, N and profiles")
    trials = requests[0][0].trials if requests else 0
    grids = [np.empty((len(names), len(pbs), trials)) for _, names, pbs in requests]
    for t0 in range(0, trials, TRIAL_CHUNK):
        ens = ensemble_for(requests[0][0], t0, min(t0 + TRIAL_CHUNK, trials))
        for (cfg, names, pbs), grid in zip(requests, grids):
            metric_samples_grid(cfg, names, pbs, ens, out=grid[..., t0:t0 + TRIAL_CHUNK])
    return grids


def metric_samples(cfg, metric, pb_budget):
    """Per-trial metric values at one BS budget (rates in bits/cu, energies in
    linear power) on a fresh, uncached draw: a one-request `sample_grids`."""
    return sample_grids([(cfg, (metric,), (pb_budget,))])[0][0, 0]


def metric_samples_grid(cfg, metrics, pb_budgets, ens, out=None):
    """Per-trial values of each metric at each BS budget on `ens`, a slice of cfg's
    trials, shape (len(metrics), len(pb_budgets), len(ens.trials)), into `out` if given.
    The metrics run one family (FAMILIES) after another; a family does its
    budget-free work once and each budget's work once for all its metrics, and
    every row runs exactly the operations of a single-metric, single-budget call."""
    names = tuple(metrics)
    if len(set(names)) != len(names) or not set(names) <= set(METRICS):
        raise InvalidInputError(f"expected distinct metrics from {METRICS}, got {metrics!r}")
    budgets = [float(pb) for pb in pb_budgets]
    if not all(0.0 <= pb < np.inf for pb in budgets):
        raise InvalidInputError("BS power budget must be finite and nonnegative")
    t, k, m, n = len(ens.trials), cfg.K, cfg.M, cfg.N
    shapes = (ens.h.shape, ens.h_bs.shape, ens.user_dirs.shape)
    if (ens.seed != cfg.seed or not 0 <= ens.trials.start < ens.trials.stop <= cfg.trials
            or t > TRIAL_CHUNK or shapes != ((t, k, m), (t, k, n), (t, n, n))):
        raise InvalidInputError(f"ensemble of seed {ens.seed}, {ens.trials} is no slice of "
                                f"seed={cfg.seed}, trials={cfg.trials}, K={k}, M={m}, N={n}")
    if set(names) & set(FAMILIES[1]) and len(set(cfg.psi)) > 1:
        raise UnsupportedConfigError("structure-2 metrics require a uniform split ratio")

    out = np.empty((len(names), len(budgets), t)) if out is None else out
    for family, run in zip(FAMILIES, (_structure1, _structure2, _swipt)):
        rows = {metric: out[names.index(metric)] for metric in family if metric in names}
        if rows:
            run(cfg, ens, budgets, rows)
    return out


def _structure1(cfg, ens, budgets, rows):
    """Split per antenna: each budget's solve, eigh and water-filling feed both metrics."""
    root_psi = np.sqrt(cfg.psi_vector)[:, None]
    noise = np.diag(cfg.psi_vector * cfg.sigma2_w + cfg.sigma2_n)
    hhat, hhat_bs = root_psi * ens.h, root_psi * ens.h_bs
    gram = ens.user_dirs @ ch(ens.user_dirs)

    for r, pb in enumerate(budgets):
        q_bs = (pb / cfg.N) * gram
        t_mats = ch(hhat) @ np.linalg.solve(hhat_bs @ q_bs @ ch(hhat_bs) + noise, hhat)
        modes, g, powers = waterfilled_modes(t_mats, cfg.P)
        if "rate-struct1" in rows:
            rows["rate-struct1"][r] = np.sum(
                np.log2(1.0 + np.maximum(modes, 0.0) * powers), axis=-1)
        if "energy-struct1" in rows:
            c_sig = harvesting.delivered(1.0 - cfg.psi_vector, ens.h,
                                         transmit_covariance(g, powers))
            rows["energy-struct1"][r] = _harvested(cfg, ens, c_sig, q_bs)


def _structure2(cfg, ens, budgets, rows):
    """Combine, then split: one combiner per grid, one interference term per budget."""
    psi = cfg.psi[0]
    gram = ens.user_dirs @ ch(ens.user_dirs)
    lam1sq, u1 = transfer.combiner(ens.h)
    for r, pb in enumerate(budgets):
        rx = ens.h_bs @ ((pb / cfg.N) * gram) @ ch(ens.h_bs)
        interference = transfer.combined_interference(u1, rx)
        if "rate-struct2" in rows:
            rows["rate-struct2"][r] = transfer.combined_rate(
                lam1sq, interference, psi, cfg.sigma2_w, cfg.sigma2_n, cfg.P)
        if "energy-struct2" in rows:
            rows["energy-struct2"][r] = transfer.combined_energy(
                lam1sq, interference, psi, cfg.sigma2_w, cfg.P)


def _swipt(cfg, ens, budgets, rows):
    """Joint transfer: the link ignores the cancelled BS symbols, so it water-fills
    against noise alone and its delivered term is formed once; the BS puts each
    budget on one rank-one energy beam."""
    psi = cfg.psi_vector
    beam = transfer.energy_beam(ens.h_bs, 1.0 - psi)
    hhat = np.sqrt(psi)[:, None] * ens.h
    noise_diag = psi * cfg.sigma2_w + cfg.sigma2_n
    _, g, powers = waterfilled_modes(ch(hhat) @ (hhat / noise_diag[:, None]), cfg.P)
    c_sig = harvesting.delivered(1.0 - psi, ens.h, transmit_covariance(g, powers))
    for r, pb in enumerate(budgets):
        rows["energy-swipt"][r] = _harvested(cfg, ens, c_sig, pb * beam)


def _harvested(cfg, ens, c_sig, q_bs):
    """Power the best energy beam collects from link term c_sig, BS covariance q_bs
    and the split antenna noise."""
    theta2 = 1.0 - cfg.psi_vector
    c_bs = harvesting.delivered(theta2, ens.h_bs, q_bs)
    return harvesting.steering(c_sig, c_bs, np.diag(cfg.sigma2_w * theta2))[0]


def average_metric(cfg, metric, pb_budget):
    """Seeded Monte-Carlo mean of a metric, reduced in trial order (uncached)."""
    return McResult.from_samples(metric_samples(cfg, metric, pb_budget))

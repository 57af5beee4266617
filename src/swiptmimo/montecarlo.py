"""Monte-Carlo averaging over random channel factors and BS user beams.

Trial t draws from np.random.default_rng(SeedSequence((seed, t))), so trials are
independent and order-free, and identical (seed, trials) reproduce bit-identical
results however the work is scheduled; `seed_states` computes those seeds for a
slice in one uint32 array pass, set trial by trial on one reused PCG64. Nothing is
cached. `sample_grids` owns the one loop over trials: it draws each slice of
TRIAL_CHUNK trials once with `ensemble_for` (which, like the kernel, refuses
longer slices) and runs every requested `metric_samples_grid` call on it, into
each request's (metrics, budgets, trials) rows, the only arrays that grow with
the trial count. Every operation acts trial by trial: slicing changes no bit.
The kernel runs one receiver structure at a time and forms each product linear in
the BS budget once per slice, for every budget to scale: structure 1 its whitened
received interference and delivered BS term, structure 2 its one interference term past
the combiner, joint transfer its beam's delivered term lambda u u^H. Structure 1 shares
each budget's scaled product between rate and energy. The formulas are kernels in
`scenario` (the split channel), `rates`, `harvesting` and `transfer`. Eigenvalue reads (the
structure-1 rate, every harvested power) go through `linalg.hermitian_eigvals`, eigenvector
reads (the whitening among them) through `linalg.hermitian_eigh`: both solve 3 x 3 rows in
closed form.

Energy metrics are reported in linear power units here; the presentation
layer (CSV / acceptance report) converts a result with `McResult.db`.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import harvesting, transfer
from .errors import InvalidInputError, UnsupportedConfigError
from .linalg import ch, haar_from_gaussian, hermitian_eigh, hermitian_eigvals
from .rates import MAX_BUDGET, mode_powers, transmit_covariance, waterfilled_modes
from .scenario import equivalent_channel

METRICS = ("rate-struct1", "rate-struct2", "energy-struct1",
           "energy-struct2", "energy-swipt")
# metrics sharing one receiver structure's work: split per antenna, combine then split, joint
FAMILIES = (("rate-struct1", "energy-struct1"), ("rate-struct2", "energy-struct2"),
            ("energy-swipt",))
TRIAL_CHUNK = 512  # trials per slice drawn and evaluated by sample_grids
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


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


def _hasher(const, mult):
    """numpy SeedSequence's hashmix with its running constant, on uint32 arrays (whose
    products wrap silently, where uint32 scalars warn)."""
    def hashmix(value):
        nonlocal const
        value, const = value ^ const, const * mult & 0xFFFFFFFF
        value = value * const
        return value ^ value >> 16
    return hashmix


def seed_states(seed, trials):
    """SeedSequence((seed, t)).generate_state(4, np.uint64) of every t in `trials` (each
    below 2**32, one entropy word) as a (T, 4) array, in one pass over a pool of 4."""
    t, seed = np.asarray(trials, dtype=np.uint32), int(seed)  # seed may be a numpy int
    entropy = [np.full_like(t, seed >> shift & 0xFFFFFFFF)  # little-endian seed words
               for shift in range(0, max(seed.bit_length(), 1), 32)] + [t]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0 * t) for i in range(4)]
    # mix each pool word into the others, then any entropy past the pool into all
    for src, dst in itertools.chain(itertools.permutations(range(4), 2),
                                    itertools.product(range(4, len(entropy)), range(4))):
        word = hashmix(pool[src] if src < 4 else entropy[src])
        out = pool[dst] * 0xCA01F9DD - word * 0x4973F715
        pool[dst] = out ^ out >> 16
    state = _hasher(0x8B51F9DD, 0x58F38DED)
    words = np.stack([state(pool[i % 4]) for i in range(8)], axis=-1)
    return words.astype("<u4").view("<u8").astype(np.uint64)


@dataclass(frozen=True)
class TrialEnsemble:
    """Stacked channels and BS user beam directions of some trials of a seed."""

    seed: int
    trials: range        # the trial indices drawn, T of them
    h: np.ndarray        # (T, K, M)
    h_bs: np.ndarray     # (T, K, N)
    user_dirs: np.ndarray  # (T, N, N), unit columns


def ensemble_for(cfg, start=0, stop=None):
    """Draw trials [start, stop) (by default to the end), at most TRIAL_CHUNK, as one
    batch: the package's one channel sampler.

    Trial t reads 2(2k^2 + m^2 + 2n^2) standard normals from its own generator
    default_rng(SeedSequence((seed, t))) as five complex Gaussians, each laid out as
    `linalg.complex_gaussian` draws it: the link's k x k and m x m Haar factors, the BS
    channel's k x k and n x n ones, and the n x n user beams (unit columns). So a trial's
    draw depends on (seed, t) alone, whatever slice holds it.
    """
    stop = cfg.trials if stop is None else stop
    if not 0 <= start < stop <= min(cfg.trials, start + TRIAL_CHUNK):
        raise InvalidInputError(f"trial range [{start}, {stop}) is not a slice of at most "
                                f"{TRIAL_CHUNK} trials in [0, {cfg.trials})")
    k, m, n = cfg.K, cfg.M, cfg.N
    dims = (k, m, k, n, n)
    stops = np.cumsum(np.repeat(np.square(dims), 2)).tolist()  # real, imaginary blocks
    buf = np.empty((stop - start, stops[-1]))
    gen = np.random.Generator(np.random.PCG64(0))
    for row, (s0, s1, i0, i1) in zip(buf, seed_states(cfg.seed, range(start, stop)).tolist()):
        # PCG64's 128-bit seeding step, so that gen is default_rng(SeedSequence((seed, t)))
        inc = (i0 << 65 | i1 << 1 | 1) & _MASK128
        state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
        gen.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                   "state": {"state": state, "inc": inc}}
        gen.standard_normal(out=row)
    blocks = np.split(buf, stops[:-1], axis=1)
    z_left, z_right, z_bs_left, z_bs_right, z_users = (
        (re + 1j * im).reshape(-1, d, d) / np.sqrt(2.0)
        for re, im, d in zip(blocks[::2], blocks[1::2], dims))
    # only the first K columns of a right factor meet the K x K diagonal: a reduced QR
    ens = TrialEnsemble(
        cfg.seed, range(start, stop),
        haar_from_gaussian(z_left) @ np.diag(cfg.sigma_p2p)
        @ ch(haar_from_gaussian(z_right[..., :k])),
        haar_from_gaussian(z_bs_left) @ np.diag(cfg.sigma_bs)
        @ ch(haar_from_gaussian(z_bs_right[..., :k])),
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
    if not all(0.0 <= pb <= MAX_BUDGET for pb in budgets):
        raise InvalidInputError(f"BS power budget must lie in [0, {MAX_BUDGET:g}]")
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
    """Split per antenna, treating interference as noise: T = Hhat^H ((pb/N) R + B)^-1 Hhat
    with R the received interference and B = diag(beta). The pencil (R, B) is diagonalised
    once (Golub & Van Loan, Matrix Computations, 8.7): B^-1/2 R B^-1/2 = V D V^H, D clipped
    at 0, gives T = G^H diag(1 / (1 + (pb/N) D)) G with G = V^H B^-1/2 Hhat, one scaled
    product per budget and no solve (a singular (pb/N) R + B is no error). Each budget's T
    feeds both metrics; the rate reads `hermitian_eigvals`, so its bits do not depend on the
    energy's `hermitian_eigh`."""
    root = 1.0 / np.sqrt(cfg.beta)[:, None]  # B^-1/2 as a column
    hhat_bs = equivalent_channel(cfg.psi_vector, ens.h_bs)
    gram = ens.user_dirs @ ch(ens.user_dirs)
    d, v = hermitian_eigh(root * (hhat_bs @ gram @ ch(hhat_bs)) * root.T)
    # a null direction of R whitens to a rounding-level d, which a huge budget would scale
    # into a jam of a free mode: d at most 64 K eps (4.3e-14 at K = 3) of its row's largest
    # is 0. Rounding-level ratios were seen up to 2.2e-15, genuine ones down to 1.9e-3
    d = np.where(d > 64 * cfg.K * np.finfo(float).eps * d[..., -1:], d, 0.0)
    white = ch(v) @ (root * equivalent_channel(cfg.psi_vector, ens.h))
    scales = d[..., None] / cfg.N  # each budget scales the budget-free products
    if "energy-struct1" in rows:
        c_gram = harvesting.delivered(1.0 - cfg.psi_vector, ens.h_bs, gram)

    for r, pb in enumerate(budgets):
        scaled = white / np.sqrt(1.0 + pb * scales)
        t_mats = ch(scaled) @ scaled
        if "rate-struct1" in rows:
            modes = hermitian_eigvals(t_mats)[..., ::-1]
            rows["rate-struct1"][r] = np.sum(
                np.log2(1.0 + np.maximum(modes, 0.0) * mode_powers(modes, cfg.P)), axis=-1)
        if "energy-struct1" in rows:
            _, g, powers = waterfilled_modes(t_mats, cfg.P)
            c_sig = harvesting.delivered(1.0 - cfg.psi_vector, ens.h,
                                         transmit_covariance(g, powers))
            rows["energy-struct1"][r] = _harvested(cfg, c_sig, (pb / cfg.N) * c_gram)


def _structure2(cfg, ens, budgets, rows):
    """Combine, then split: one combiner and one interference term per grid, which
    each budget scales."""
    psi = cfg.psi[0]
    gram = ens.user_dirs @ ch(ens.user_dirs)
    lam1sq, u1 = transfer.combiner(ens.h)
    unit = transfer.combined_interference(u1, ens.h_bs @ gram @ ch(ens.h_bs))
    for r, pb in enumerate(budgets):
        interference = (pb / cfg.N) * unit
        if "rate-struct2" in rows:
            rows["rate-struct2"][r] = transfer.combined_rate(
                lam1sq, interference, psi, cfg.sigma2_w, cfg.sigma2_n, cfg.P)
        if "energy-struct2" in rows:
            rows["energy-struct2"][r] = transfer.combined_energy(
                lam1sq, interference, psi, cfg.sigma2_w, cfg.P)


def _swipt(cfg, ens, budgets, rows):
    """Joint transfer: the link ignores the cancelled BS symbols, so it water-fills
    against noise alone and its delivered term is formed once; the BS puts each
    budget on one rank-one energy beam, which delivers lambda u u^H (`energy_mode`)."""
    psi = cfg.psi_vector
    lam, u = transfer.energy_mode(ens.h_bs, 1.0 - psi)
    hhat = equivalent_channel(psi, ens.h)
    _, g, powers = waterfilled_modes(ch(hhat) @ (hhat / cfg.beta[:, None]), cfg.P)
    c_sig = harvesting.delivered(1.0 - psi, ens.h, transmit_covariance(g, powers))
    c_beam = lam[:, None, None] * (u[:, :, None] * u[:, None, :].conj())
    for r, pb in enumerate(budgets):
        rows["energy-swipt"][r] = _harvested(cfg, c_sig, pb * c_beam)


def _harvested(cfg, c_sig, c_bs):
    """Power the best energy beam collects from link term c_sig, BS term c_bs and
    the split antenna noise."""
    theta2 = 1.0 - cfg.psi_vector
    return harvesting.harvested_power(c_sig, c_bs, np.diag(cfg.sigma2_w * theta2))


def average_metric(cfg, metric, pb_budget):
    """Seeded Monte-Carlo mean of a metric, reduced in trial order (uncached)."""
    return McResult.from_samples(metric_samples(cfg, metric, pb_budget))

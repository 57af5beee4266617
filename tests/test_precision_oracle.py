"""Monte-Carlo rows against a 50-digit mpmath recomputation from the same channels."""

import mpmath
import numpy as np
import pytest

from swiptmimo.montecarlo import ensemble_for, sample_grids
from swiptmimo.scenario import ScenarioConfig


def mp_matrix(a):
    return mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in a])


def mp_waterfilled(t, total):
    """Rate and transmit covariance of Hermitian T's eigenpairs water-filled with power
    `total` by the kernel's rule: gains within 1e-14 of the top get none."""
    gains, vectors = mpmath.eighe(t)
    order = sorted(range(len(gains)), key=lambda i: mpmath.re(gains[i]), reverse=True)
    gains = [mpmath.re(gains[i]) for i in order]
    gains = [g for g in gains if g > gains[0] * mpmath.mpf("1e-14")]
    for active in range(len(gains), 0, -1):
        level = (mpmath.mpf(total) + sum(1 / g for g in gains[:active])) / active
        if level > 1 / gains[active - 1]:
            break
    powers = [level - 1 / g for g in gains[:active]]
    q = mpmath.zeros(t.rows, t.rows)
    for i, p in zip(order, powers):
        g = vectors[:, i]
        q += p * g * g.H
    return sum(mpmath.log(1 + g * p, 2) for g, p in zip(gains, powers)), q


def top_eigenvalue(a):
    return max(mpmath.re(x) for x in mpmath.eighe(a, eigvals_only=True))


def mp_rows(cfg, ens, t, pb):
    """Trial t's (rate-struct1, energy-struct1, rate-struct2, energy-struct2, energy-swipt)
    at BS budget pb, in the working precision of mpmath with no numpy arithmetic on the way.
    Structure 1: T = Hhat^H ((pb/N) Hhat_bs U U^H Hhat_bs^H + B)^-1 Hhat by an explicit
    inverse, water-filled, and the energy the top eigenvalue of
    Theta H Q H^H Theta + Theta H_bs Q_bs H_bs^H Theta + W. Structure 2: the top eigenpair
    (lambda_1^2, u_1) of H H^H and the interference u_1^H H_bs Q_bs H_bs^H u_1 past it. Joint
    transfer: the link water-filled on noise alone, and the budget on the top eigenvector u
    of (Theta H_bs)(Theta H_bs)^H, which delivers pb lambda u u^H."""
    psi = [mpmath.mpf(x) for x in cfg.psi]
    root = mpmath.diag([mpmath.sqrt(x) for x in psi])
    theta = mpmath.diag([mpmath.sqrt(1 - x) for x in psi])
    h, h_bs, users = mp_matrix(ens.h[t]), mp_matrix(ens.h_bs[t]), mp_matrix(ens.user_dirs[t])
    hhat, hhat_bs = root * h, root * h_bs
    noise = mpmath.diag([x * mpmath.mpf(cfg.sigma2_w) + mpmath.mpf(cfg.sigma2_n) for x in psi])
    q_bs = (mpmath.mpf(pb) / cfg.N) * users * users.H
    rate1, q = mp_waterfilled(hhat.H * mpmath.inverse(hhat_bs * q_bs * hhat_bs.H + noise) * hhat,
                              cfg.P)
    w = mpmath.diag([mpmath.mpf(cfg.sigma2_w) * (1 - x) for x in psi])
    energy1 = top_eigenvalue(theta * (h * q * h.H + h_bs * q_bs * h_bs.H) * theta + w)

    gains, vectors = mpmath.eighe(h * h.H)
    top = max(range(len(gains)), key=lambda i: mpmath.re(gains[i]))
    lam1sq, u1 = mpmath.re(gains[top]), vectors[:, top]
    interference = mpmath.re((u1.H * h_bs * q_bs * h_bs.H * u1)[0])
    p, s2w, s2n = psi[0], mpmath.mpf(cfg.sigma2_w), mpmath.mpf(cfg.sigma2_n)
    rate2 = mpmath.log(1 + p * lam1sq * cfg.P / (p * (interference + s2w) + s2n), 2)
    energy2 = (1 - p) * (lam1sq * cfg.P + interference + s2w)

    _, q = mp_waterfilled(hhat.H * mpmath.inverse(noise) * hhat, cfg.P)
    gains, vectors = mpmath.eighe(theta * h_bs * h_bs.H * theta)
    top = max(range(len(gains)), key=lambda i: mpmath.re(gains[i]))
    u = vectors[:, top]
    beam = mpmath.mpf(pb) * mpmath.re(gains[top]) * u * u.H
    return rate1, energy1, rate2, energy2, top_eigenvalue(theta * h * q * h.H * theta + beam + w)


# a link gain spread of 1e6 at P = 1e20: the weak mode's gain carries the float rounding of
# the strong one's, about 1e6 eps relative
ILL_CONDITIONED = ScenarioConfig(K=2, M=2, N=6, sigma_p2p=(1.0, 1e-3), sigma_bs=(1.0, 1.0),
                                 psi=0.3, P=1e20, trials=16, seed=3)
BUDGETS = (0.0, 1e6)


@pytest.fixture(scope="module")
def exact():
    """The 32 (budget, trial) rows of the ill-conditioned link, each metric's in mpmath in
    the order of `mp_rows`."""
    ens = ensemble_for(ILL_CONDITIONED)
    with mpmath.workdps(50):
        return np.array([[[float(x) for x in mp_rows(ILL_CONDITIONED, ens, t, pb)]
                          for t in range(ILL_CONDITIONED.trials)] for pb in BUDGETS])


def test_rate_struct1_on_an_ill_conditioned_link(exact):
    # measured worst relative error 2.67e-12 over the 32 rows, for the K x K Gram form and
    # the M x M product T = Gs^H Gs alike; at psi = 1 the two float forms differ by up to
    # 1.2e-11, the conditioning limit
    grid, = sample_grids([(ILL_CONDITIONED, ("rate-struct1",), BUDGETS)])
    assert grid[0] == pytest.approx(exact[..., 0], rel=1e-11, abs=0.0)


def test_energy_struct1_on_an_ill_conditioned_link(exact):
    # the energy reads T's eigenvectors, which the 1e6 gap between its two modes keeps well
    # conditioned: measured worst relative error 8.19e-16 over the 32 rows, so the bound
    # is 4e-15
    grid, = sample_grids([(ILL_CONDITIONED, ("energy-struct1",), BUDGETS)])
    assert grid[0] == pytest.approx(exact[..., 1], rel=4e-15, abs=0.0)


def test_rate_struct2_on_an_ill_conditioned_link(exact):
    # one combined mode past the dominant left singular vector: measured worst relative
    # error 1.45e-16 over the 32 rows, so the bound is 1e-15
    grid, = sample_grids([(ILL_CONDITIONED, ("rate-struct2",), BUDGETS)])
    assert grid[0] == pytest.approx(exact[..., 2], rel=1e-15, abs=0.0)


def test_energy_struct2_on_an_ill_conditioned_link(exact):
    # measured worst relative error 4.68e-16 over the 32 rows, so the bound is 2e-15
    grid, = sample_grids([(ILL_CONDITIONED, ("energy-struct2",), BUDGETS)])
    assert grid[0] == pytest.approx(exact[..., 3], rel=2e-15, abs=0.0)


def test_energy_swipt_on_an_ill_conditioned_link(exact):
    # the link water-fills on noise alone, and the energy sums its delivered term with the
    # beam's: measured worst relative error 9.60e-15 over the 32 rows, so the bound is 4e-14
    grid, = sample_grids([(ILL_CONDITIONED, ("energy-swipt",), BUDGETS)])
    assert grid[0] == pytest.approx(exact[..., 4], rel=4e-14, abs=0.0)

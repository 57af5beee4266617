"""Monte-Carlo rows against a 50-digit mpmath recomputation from the same channels."""

import mpmath
import numpy as np
import pytest

from swiptmimo.montecarlo import ensemble_for, sample_grids
from swiptmimo.scenario import ScenarioConfig


def mp_matrix(a):
    return mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in a])


def mp_rate_struct1(cfg, ens, t, pb):
    """Trial t's structure-1 rate at BS budget pb, in the working precision of mpmath:
    T = Hhat^H ((pb/N) Hhat_bs U U^H Hhat_bs^H + B)^-1 Hhat by an explicit inverse, its
    eigenvalues water-filled with the kernel's rule (gains within 1e-14 of the top get
    none), with no numpy arithmetic on the way."""
    psi = [mpmath.mpf(x) for x in cfg.psi]
    root = mpmath.diag([mpmath.sqrt(x) for x in psi])
    hhat, hhat_bs, users = root * mp_matrix(ens.h[t]), root * mp_matrix(ens.h_bs[t]), \
        mp_matrix(ens.user_dirs[t])
    noise = mpmath.diag([x * mpmath.mpf(cfg.sigma2_w) + mpmath.mpf(cfg.sigma2_n) for x in psi])
    s = (mpmath.mpf(pb) / cfg.N) * hhat_bs * users * users.H * hhat_bs.H + noise
    gains = sorted((mpmath.re(x) for x in
                    mpmath.eighe(hhat.H * mpmath.inverse(s) * hhat, eigvals_only=True)),
                   reverse=True)
    gains = [g for g in gains if g > gains[0] * mpmath.mpf("1e-14")]
    for active in range(len(gains), 0, -1):
        level = (mpmath.mpf(cfg.P) + sum(1 / g for g in gains[:active])) / active
        if level > 1 / gains[active - 1]:
            break
    return sum(mpmath.log(1 + g * (level - 1 / g), 2) for g in gains[:active])


def test_rate_struct1_on_an_ill_conditioned_link():
    # a link gain spread of 1e6 at P = 1e20: the weak mode's gain carries the float
    # rounding of the strong one's, about 1e6 eps relative. Measured worst relative error
    # 2.67e-12 over the 32 rows, for the K x K Gram form and the M x M product T = Gs^H Gs
    # alike; at psi = 1 the two float forms differ by up to 1.2e-11, the conditioning limit
    cfg = ScenarioConfig(K=2, M=2, N=6, sigma_p2p=(1.0, 1e-3), sigma_bs=(1.0, 1.0),
                         psi=0.3, P=1e20, trials=16, seed=3)
    budgets = (0.0, 1e6)
    ens = ensemble_for(cfg)
    grid, = sample_grids([(cfg, ("rate-struct1",), budgets)])
    with mpmath.workdps(50):
        exact = np.array([[float(mp_rate_struct1(cfg, ens, t, pb)) for t in range(cfg.trials)]
                          for pb in budgets])
    assert grid[0] == pytest.approx(exact, rel=1e-11, abs=0.0)

"""Covariance-domain oracle for the worst-case rows.

The worst-case value is the max over the link covariance Q and the min over the
interferer covariance Q_bs of log2 det(I + S^-1 H Q H^H), S = H_bs Q_bs H_bs^H +
diag(beta), with both channels taken after the split. The rate is concave in Q and
convex in Q_bs, so the value is the minimum over Q_bs of the water-filling
capacity W(Q_bs). W is convex, and by the envelope theorem its gradient is
H_bs^H ((S + H Q* H^H)^-1 - S^-1) H_bs / ln 2. Projected gradient over the
trace-Pb spectraplex finds that minimum from an even split, with no use of the
jointly-diagonalized game that `saddle` solves; the Frank-Wolfe gap of the last
iterate bounds its distance from the minimum.
"""

import numpy as np
import pytest

from swiptmimo import cli
from swiptmimo.linalg import complex_gaussian, haar_from_gaussian
from swiptmimo.scenario import ScenarioConfig

LN2 = np.log(2.0)


def waterfill(gains, power):
    """Rate-optimal powers over nonnegative gains: the largest active set whose
    water level clears every active mode's inverse gain."""
    order = np.argsort(-gains)
    p = np.zeros_like(gains)
    for m in range(np.count_nonzero(gains > 0), 0, -1):
        inv = 1 / gains[order[:m]]
        level = (power + inv.sum()) / m
        if level > inv[-1]:
            p[order[:m]] = level - inv
            break
    return p


def capacity(h, h_bs, beta, power, q_bs):
    """W(q_bs) in bits and its gradient in q_bs."""
    s = h_bs @ q_bs @ h_bs.conj().T + np.diag(beta)
    w, u = np.linalg.eigh(s)
    whitened = (u / np.sqrt(w)) @ u.conj().T @ h
    gains, v = np.linalg.eigh(whitened.conj().T @ whitened)
    gains = np.maximum(gains, 0.0)
    p = waterfill(gains, power)
    q = (v * p) @ v.conj().T
    grad = h_bs.conj().T @ (np.linalg.inv(s + h @ q @ h.conj().T) - np.linalg.inv(s)) @ h_bs
    return float(np.sum(np.log2(1 + gains * p))), 0.5 * (grad + grad.conj().T) / LN2


def project(q, budget):
    """The PSD matrix of trace `budget` nearest to Hermitian q: its eigenvalues
    projected onto the simplex."""
    w, u = np.linalg.eigh(0.5 * (q + q.conj().T))
    x = np.sort(w)[::-1]
    excess = np.cumsum(x) - budget
    m = np.nonzero(x > excess / np.arange(1, len(x) + 1))[0][-1]
    return (u * np.maximum(w - excess[m] / (m + 1), 0.0)) @ u.conj().T


def min_capacity(h, h_bs, beta, power, budget, steps=500):
    """(W at the last iterate, its Frank-Wolfe gap): projected gradient with
    Barzilai-Borwein steps and backtracking, from the even split."""
    n = h_bs.shape[1]
    q = np.eye(n) * budget / n
    rate, grad = capacity(h, h_bs, beta, power, q)
    step, fw = 1.0, 0.0
    for _ in range(steps):
        fw = np.real(np.trace(grad @ q)) - budget * np.linalg.eigvalsh(grad)[0]
        if fw <= 1e-11:
            break
        while True:  # accept a decrease, or a rise within rounding
            q_new = project(q - step * grad, budget)
            rate_new, grad_new = capacity(h, h_bs, beta, power, q_new)
            drop = np.real(np.sum(grad.conj() * (q - q_new)))
            if rate_new <= rate - 1e-4 * drop + 1e-15 or step < 1e-14:
                break
            step /= 2
        dq, dg = q_new - q, grad_new - grad
        curvature = np.real(np.sum(dq.conj() * dg))
        step = np.real(np.sum(dq.conj() * dq)) / curvature if curvature > 0 else 2 * step
        q, rate, grad = q_new, rate_new, grad_new
    return rate, fw


def channels(cfg, rng=None):
    """Link and interferer channels after the split, built from the profiles: the
    interferer aligned with the link's left singular basis, or, given `rng`, with
    random unitaries on both sides."""
    k = cfg.K
    h = np.zeros((k, cfg.M), dtype=complex)
    h_bs = np.zeros((k, cfg.N), dtype=complex)
    h[:, :k], h_bs[:, :k] = np.diag(cfg.sigma_p2p), np.diag(cfg.sigma_bs)
    if rng is not None:
        left, right = (haar_from_gaussian(complex_gaussian((n, n), rng)) for n in (k, cfg.N))
        h_bs = left @ h_bs @ right
    split = np.sqrt(cfg.psi_vector)[:, None]
    return split * h, split * h_bs


LINKS = [
    (ScenarioConfig(), (0.3, 0.9), (0.0, 1.0, 5.0, 14.0)),
    (ScenarioConfig(K=2, sigma_p2p=(0.9, 0.6), sigma_bs=(0.8, 0.7)), (0.3, 0.9),
     (0.0, 1.0, 5.0, 14.0)),  # K < M
    (ScenarioConfig(sigma_p2p=(0.7, 0.5, 0.2), sigma_bs=(2.9, 2.0, 1.9), sigma2_n=0.01,
                    P=1.0), (0.6,), (10.0,)),  # once a stalled alternation, gap 1.06e-3
]


@pytest.mark.parametrize("link, psis, ratios", LINKS)
def test_full_covariance_value_matches_the_sweep(link, psis, ratios):
    sweep = cli.SweepConfig(link, psis=psis, ratio_grid=ratios, scenarios=("worst-case",))
    for row in cli.run_sweep(sweep).splitlines()[1:]:
        ratio, _, psi, value, _ = row.split(",")
        cfg = sweep.scenario_for(float(psi))
        h, h_bs = channels(cfg)
        got, fw = min_capacity(h, h_bs, cfg.beta, cfg.P, float(ratio) * cfg.P)
        # the minimum lies in [got - fw, got]
        assert fw <= 1e-9 and abs(got - float(value)) <= 1e-8, row


def test_no_interferer_alignment_beats_the_aligned_one():
    rng = np.random.default_rng(3)
    for psi, ratio in ((0.3, 1.0), (0.6, 5.0), (0.9, 14.0)):
        cfg = ScenarioConfig(psi=psi)
        aligned, _ = min_capacity(*channels(cfg), cfg.beta, cfg.P, ratio * cfg.P)
        for _ in range(4):
            got, fw = min_capacity(*channels(cfg, rng), cfg.beta, cfg.P, ratio * cfg.P)
            assert fw <= 1e-9 and got - fw >= aligned - 1e-12

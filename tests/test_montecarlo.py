import ast
import itertools
import pathlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swiptmimo import cli, harvesting, linalg, montecarlo, rates, saddle, transfer
from swiptmimo.errors import InvalidInputError, UnsupportedConfigError
from swiptmimo.harvesting import to_db
from swiptmimo.linalg import complex_gaussian, haar_from_gaussian
from swiptmimo.montecarlo import (FAMILIES, METRICS, TRIAL_CHUNK, McResult,
                                  average_metric, ensemble_for, metric_samples,
                                  metric_samples_grid, sample_grids)
from swiptmimo.rates import tin_rate_global, transmit_covariance, waterfill, waterfilled_modes
from swiptmimo.scenario import ScenarioConfig, equivalent_channel, reference_scenario
from swiptmimo.transfer import energy_beam


def bs_covariances(ens, pb_budget):
    """Each trial's BS covariance Q_bs = (Pb / N) U U^H from its unit user beams U."""
    users = ens.user_dirs
    return (pb_budget / users.shape[-1]) * (users @ linalg.ch(users))


class TestRandomBsCovariance:
    """The random BS covariance that ensemble_for's user beams give."""

    def test_zero_budget(self):
        q = bs_covariances(ensemble_for(reference_scenario(trials=4, seed=0)), 0.0)
        assert np.allclose(q, 0.0)

    def test_single_user_rank_one(self):
        cfg = ScenarioConfig(K=1, M=1, N=1, sigma_p2p=(0.9,), sigma_bs=(0.8,), trials=3, seed=1)
        q = bs_covariances(ensemble_for(cfg), 3.0)
        assert q.shape == (3, 1, 1)
        assert np.real(q[:, 0, 0]) == pytest.approx([3.0] * 3, abs=1e-12)

    def test_trace_binds(self):
        ens = ensemble_for(reference_scenario(trials=16, seed=2))
        assert np.linalg.norm(ens.user_dirs, axis=-2) == pytest.approx(np.ones((16, 5)), abs=1e-12)
        trace = np.real(np.trace(bs_covariances(ens, 7.0), axis1=-2, axis2=-1))
        assert trace == pytest.approx([7.0] * 16, abs=1e-12)

    def test_isotropy(self):
        # E[Q] = (Pb/N) I; check entrywise at 3 sigma over many draws
        n, pb, draws = 4, 4.0, 10_000
        cfg = ScenarioConfig(N=n, trials=draws, seed=3)
        slices = (ensemble_for(cfg, t0, min(t0 + TRIAL_CHUNK, draws))
                  for t0 in range(0, draws, TRIAL_CHUNK))
        acc = sum(bs_covariances(ens, pb).sum(axis=0) for ens in slices)
        mean = acc / draws
        # each diagonal entry is (pb/n) * mean of Beta(1, n-1)-like masses
        off_tol = 3 * (pb / n) / np.sqrt(draws)
        assert np.allclose(np.diag(mean).real, pb / n, atol=3 * off_tol)
        off = mean - np.diag(np.diag(mean))
        assert np.max(np.abs(off)) < 3 * off_tol


PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def profile(draw, k):
    """k descending singular values, each at most 0.9 of the one before, so the
    top singular direction is unique."""
    top = draw(st.floats(0.1, 2.0))
    steps = draw(st.lists(st.floats(0.0, 0.9), min_size=k - 1, max_size=k - 1))
    return tuple(np.cumprod([top] + steps))


@st.composite
def grid_cases(draw):
    """A small link with a uniform split, a few trials of it and one BS budget."""
    k = draw(st.integers(1, 3))
    m, n = draw(st.integers(k, 4)), draw(st.integers(k, 5))
    cfg = ScenarioConfig(
        K=k, M=m, N=n, sigma_p2p=profile(draw, k), sigma_bs=profile(draw, k),
        psi=(draw(st.sampled_from([0.0, 0.3, 0.77, 1.0])),) * k,
        sigma2_w=draw(st.floats(0.1, 10.0)), sigma2_n=draw(st.floats(0.1, 10.0)),
        P=draw(st.floats(0.0, 20.0)), trials=3, seed=draw(st.integers(0, 10_000)))
    return cfg, draw(st.floats(0.0, 100.0))


def trial_terms(cfg, ens, t, pb):
    """Trial t's split channels, BS covariance and noise, as the oracles take them."""
    root_psi = np.sqrt(cfg.psi_vector)[:, None]
    hhat, hhat_bs = root_psi * ens.h[t], root_psi * ens.h_bs[t]
    q_bs = (pb / cfg.N) * ens.user_dirs[t] @ ens.user_dirs[t].conj().T
    return hhat, hhat_bs, q_bs, cfg.beta


def kernel_q(hhat, s, total_power):
    """The rates kernel's optimal covariance against receive covariance s."""
    t = hhat.conj().T @ np.linalg.solve(s, hhat)
    _, g, p = waterfilled_modes(t, total_power)
    return transmit_covariance(g, p)


def assert_top_rayleigh_quotient(energy, cov, rng):
    """energy is the largest Rayleigh quotient of covariance cov: at least that of
    any unit steering vector, the top eigenvector's included, and at most the trace."""
    scale = max(1.0, np.real(np.trace(cov)))
    vectors = [np.linalg.eigh(cov)[1][:, -1]] + [
        v / np.linalg.norm(v) for v in
        rng.standard_normal((20, len(cov))) + 1j * rng.standard_normal((20, len(cov)))]
    for v in vectors:
        assert energy >= np.real(v.conj() @ cov @ v) - 1e-9 * scale
    assert energy <= np.real(np.trace(cov)) + 1e-9 * scale


class TestKernelOracles:
    """Each metric of the grid kernel against an oracle that does not share its path."""

    @PROPERTY
    @given(grid_cases())
    def test_rate_struct1_is_the_log_det_rate_at_the_kernel_q(self, case):
        cfg, pb = case
        ens = ensemble_for(cfg)
        rates = metric_samples_grid(cfg, ("rate-struct1",), [pb], ens)[0, 0]
        for t, rate in enumerate(rates):
            hhat, hhat_bs, q_bs, beta = trial_terms(cfg, ens, t, pb)
            s = hhat_bs @ q_bs @ hhat_bs.conj().T + np.diag(beta)
            oracle = tin_rate_global(hhat, hhat_bs, kernel_q(hhat, s, cfg.P), q_bs, beta)
            assert rate == pytest.approx(oracle, abs=1e-9 * max(1.0, oracle))

    @PROPERTY
    @given(grid_cases())
    def test_energies_are_top_rayleigh_quotients(self, case):
        # the steering vector is free, so each energy is the top eigenvalue of the
        # energy branch's covariance Theta (H Q H^H + H_bs Q_bs H_bs^H) Theta + W
        cfg, pb = case
        ens = ensemble_for(cfg)
        struct1, swipt = metric_samples_grid(cfg, ("energy-struct1", "energy-swipt"),
                                             [pb], ens)[:, 0]
        theta = np.sqrt(1.0 - cfg.psi_vector)[:, None]
        w = np.diag(cfg.sigma2_w * (1.0 - cfg.psi_vector))
        beams = energy_beam(ens.h_bs, 1.0 - cfg.psi_vector)
        rng = np.random.default_rng(cfg.seed)
        for t in range(cfg.trials):
            hhat, hhat_bs, q_bs, beta = trial_terms(cfg, ens, t, pb)
            s = hhat_bs @ q_bs @ hhat_bs.conj().T + np.diag(beta)
            for energy, q, q_bs_t in (
                    (struct1[t], kernel_q(hhat, s, cfg.P), q_bs),
                    (swipt[t], kernel_q(hhat, np.diag(beta), cfg.P), pb * beams[t])):
                th, th_bs = theta * ens.h[t], theta * ens.h_bs[t]
                cov = th @ q @ th.conj().T + th_bs @ q_bs_t @ th_bs.conj().T + w
                assert_top_rayleigh_quotient(energy, cov, rng)

    @PROPERTY
    @given(grid_cases())
    def test_structure2_closed_form_from_the_svd(self, case):
        # all power on the dominant right singular vector, combined along the left one
        cfg, pb = case
        ens = ensemble_for(cfg)
        rates, energies = metric_samples_grid(cfg, ("rate-struct2", "energy-struct2"),
                                              [pb], ens)[:, 0]
        psi = cfg.psi[0]
        for t in range(cfg.trials):
            left, sigma, _ = np.linalg.svd(ens.h[t])
            u1 = left[:, 0]
            q_bs = trial_terms(cfg, ens, t, pb)[2]
            interference = np.real(u1.conj() @ ens.h_bs[t] @ q_bs @ ens.h_bs[t].conj().T @ u1)
            signal = sigma[0] ** 2 * cfg.P
            rate = np.log2(1 + psi * signal / (psi * (interference + cfg.sigma2_w)
                                               + cfg.sigma2_n))
            energy = (1 - psi) * (signal + interference + cfg.sigma2_w)
            assert rates[t] == pytest.approx(rate, abs=1e-9 * max(1.0, rate))
            assert energies[t] == pytest.approx(energy, abs=1e-9 * max(1.0, energy))

    @PROPERTY
    @given(grid_cases())
    def test_rows_do_not_depend_on_their_batch(self, case):
        # a trial computed alone carries the same bits as inside its slice
        cfg, pb = case
        whole = metric_samples_grid(cfg, METRICS, [pb, 2 * pb], ensemble_for(cfg))
        for t in range(cfg.trials):
            alone = metric_samples_grid(cfg, METRICS, [pb, 2 * pb], ensemble_for(cfg, t, t + 1))
            assert alone[..., 0].tobytes() == whole[..., t].tobytes()


def scalar_trial_metrics(cfg, pb_budget, trial):
    """One trial's metrics on its ensemble_for channels and BS covariance (whose bits the
    replay test pins), in plain per-matrix numpy, none of the batched kernels."""
    ens = ensemble_for(cfg, trial, trial + 1)
    h, h_bs, q_bs = ens.h[0], ens.h_bs[0], bs_covariances(ens, pb_budget)[0]
    hhat = equivalent_channel(cfg.psi_vector, h)
    hhat_bs = equivalent_channel(cfg.psi_vector, h_bs)
    theta = np.diag(np.sqrt(1.0 - cfg.psi_vector))
    w = cfg.sigma2_w * theta @ theta

    def optimal_q(s):
        gains, vectors = np.linalg.eigh(hhat.conj().T @ np.linalg.solve(s, hhat))
        usable = gains > max(gains[-1], 0.0) * 1e-14
        alloc, _ = waterfill(np.where(usable, 1.0 / np.where(usable, gains, 1.0), np.inf), cfg.P)
        return vectors @ np.diag(alloc.p) @ vectors.conj().T

    def harvested(q, q_bs_t):
        cov = theta @ (h @ q @ h.conj().T + h_bs @ q_bs_t @ h_bs.conj().T) @ theta + w
        return max(np.linalg.eigvalsh(cov)[-1], 0.0)

    out = {}
    s = hhat_bs @ q_bs @ hhat_bs.conj().T + np.diag(cfg.beta)
    q_opt = optimal_q(s)
    out["rate-struct1"] = tin_rate_global(hhat, hhat_bs, q_opt, q_bs, cfg.beta)
    out["energy-struct1"] = harvested(q_opt, q_bs)

    psi = cfg.psi[0]
    left, sigma, _ = np.linalg.svd(h)
    u1 = left[:, 0]
    interference = np.real(u1.conj() @ h_bs @ q_bs @ h_bs.conj().T @ u1)
    signal = sigma[0] ** 2 * cfg.P
    out["rate-struct2"] = np.log2(1 + psi * signal / (psi * (interference + cfg.sigma2_w)
                                                      + cfg.sigma2_n))
    out["energy-struct2"] = (1 - psi) * (signal + interference + cfg.sigma2_w)

    # joint transfer: the link water-fills against noise alone, the BS beams its
    # whole budget along the top right singular vector of Theta h_bs
    e = np.linalg.svd(theta @ h_bs)[2][0].conj()
    out["energy-swipt"] = harvested(optimal_q(np.diag(cfg.beta)),
                                    pb_budget * np.outer(e, e.conj()))
    return out


def solved_structure1(cfg, ens, pb):
    """Structure 1's rate and energy samples from T = Hhat^H ((pb / N) R + B)^-1 Hhat,
    solved trial by trial with np.linalg.solve and read with np.linalg.eigvalsh."""
    rate, energy = np.empty(len(ens.trials)), np.empty(len(ens.trials))
    theta = np.sqrt(1.0 - cfg.psi_vector)[:, None]
    w = np.diag(cfg.sigma2_w * (1.0 - cfg.psi_vector))
    for t in range(len(ens.trials)):
        hhat, hhat_bs, q_bs, beta = trial_terms(cfg, ens, t, pb)
        s = hhat_bs @ q_bs @ hhat_bs.conj().T + np.diag(beta)
        modes = np.linalg.eigvalsh(hhat.conj().T @ np.linalg.solve(s, hhat))[::-1]
        rate[t] = np.sum(np.log2(1.0 + np.maximum(modes, 0.0) * rates.mode_powers(modes, cfg.P)))
        th, th_bs = theta * ens.h[t], theta * ens.h_bs[t]
        cov = th @ kernel_q(hhat, s, cfg.P) @ th.conj().T + th_bs @ q_bs @ th_bs.conj().T + w
        energy[t] = np.linalg.eigvalsh(cov)[-1]
    return rate, energy


class TestWhitenedStructure1:
    """Structure 1 whitens the interference once per slice; each budget only rescales."""

    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize("link", [{}, {"psi": (0.2, 0.5, 0.9)}, {"sigma_bs": (0.8, 0.5, 0.0)}],
                             ids=["default", "per-antenna-split", "rank-deficient-bs"])
    def test_samples_match_a_per_trial_solve(self, link, seed):
        cfg = replace(reference_scenario(0.3, trials=64, seed=seed), **link)
        budgets = [0.0, 1e-3, 1.0, 5.0, 70.0, 1e3]
        ens = ensemble_for(cfg)
        grid = metric_samples_grid(cfg, ("rate-struct1", "energy-struct1"), budgets, ens)
        for r, pb in enumerate(budgets):
            rate, energy = solved_structure1(cfg, ens, pb)
            assert grid[0, r] == pytest.approx(rate, rel=1e-12, abs=0.0)
            assert grid[1, r] == pytest.approx(energy, rel=1e-12, abs=0.0)

    def test_no_linear_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        cfg = reference_scenario(0.3, trials=8)
        sample_grids([(cfg, ("rate-struct1", "energy-struct1"), (0.0, 5.0, 70.0))])

    @pytest.mark.parametrize("sigma_bs", [(0.8, 0.5, 0.0), (0.8, 0.0, 0.0)])
    @pytest.mark.parametrize("seed", [42, 7])
    def test_rank_deficient_interferer_at_huge_budgets(self, sigma_bs, seed):
        # (pb / N) R + B is singular in floating point there: no solve may be needed
        cfg = ScenarioConfig(sigma_bs=sigma_bs, trials=64, seed=seed)
        budgets = [1e20, 1e50, 1e100]
        grid, = sample_grids([(cfg, ("rate-struct1", "energy-struct1"), budgets)])
        assert np.all(np.isfinite(grid))

    @pytest.mark.parametrize("sigma_bs", [(0.8, 0.5, 0.0), (0.8, 0.0, 0.0)])
    @pytest.mark.parametrize("seed", [42, 7])
    def test_rank_deficient_rate_at_a_huge_budget_is_its_limit(self, sigma_bs, seed):
        # as pb -> inf, T -> G^H P0 G with G = B^-1/2 Hhat and P0 the projector onto the
        # null space of B^-1/2 R B^-1/2, which the interferer cannot reach: no mode jams
        cfg = ScenarioConfig(sigma_bs=sigma_bs, trials=64, seed=seed)
        ens = ensemble_for(cfg)
        rate = sample_grids([(cfg, ("rate-struct1",), [1e20])])[0][0, 0]
        for t in range(cfg.trials):
            hhat, hhat_bs, r, beta = trial_terms(cfg, ens, t, cfg.N)  # pb / N = 1: Q_bs = U U^H
            root = 1.0 / np.sqrt(beta)[:, None]
            null = np.linalg.eigh(root * (hhat_bs @ r @ hhat_bs.conj().T) * root.T)[1][
                :, :sigma_bs.count(0.0)]
            g = null.conj().T @ (root * hhat)  # P0 = null null^H
            modes = np.linalg.eigvalsh(g.conj().T @ g)[::-1]
            limit = np.sum(np.log2(1.0 + np.maximum(modes, 0.0) * rates.mode_powers(modes, cfg.P)))
            assert rate[t] == pytest.approx(limit, rel=1e-12, abs=0.0), t

    @pytest.mark.parametrize("link", [{}, {"sigma_bs": (0.8, 0.5, 0.0)},
                                      {"sigma_bs": (0.8, 0.0, 0.0)}],
                             ids=["default", "rank-2-bs", "rank-1-bs"])
    def test_rate_does_not_grow_with_the_budget(self, link):
        cfg = replace(reference_scenario(0.3, trials=64, seed=42), **link)
        budgets = [0.0, 1e-3, 1.0, 5.0, 70.0, 1e3, 1e6, 1e12, 1e20, 1e50, 1e100]
        rate = sample_grids([(cfg, ("rate-struct1",), budgets)])[0][0]
        assert np.all(rate[1:] <= rate[:-1] * (1.0 + 1e-12))


class TestBatchedAgainstScalarPath:
    @pytest.mark.parametrize("metric", METRICS)
    def test_first_trials_match(self, metric):
        cfg = reference_scenario(0.3, trials=4, seed=42)
        pb = 10.0
        batched = metric_samples(cfg, metric, pb)
        for t in range(4):
            expected = scalar_trial_metrics(cfg, pb, t)[metric]
            assert batched[t] == pytest.approx(expected, abs=1e-9), \
                f"trial {t} mismatch for {metric}"


class TestEnsembleDraw:
    @pytest.mark.parametrize("cfg, chunk", [
        pytest.param(cfg, TRIAL_CHUNK, id=f"cfg{i}") for i, cfg in enumerate([
            reference_scenario(0.3, trials=6, seed=5),
            ScenarioConfig(K=2, M=3, N=4, sigma_p2p=(0.9, 0.8), sigma_bs=(0.8, 0.7),
                           psi=(0.4, 0.4), trials=3, seed=9),
            reference_scenario(0.3, trials=1, seed=5),
            reference_scenario(0.3, trials=TRIAL_CHUNK + 1, seed=5),
            ScenarioConfig(K=2, M=4, N=3, sigma_p2p=(0.9, 0.8), sigma_bs=(0.8, 0.7),
                           psi=(0.4, 0.4), trials=TRIAL_CHUNK + 1, seed=11),
            # seeds of two and of four entropy words (the latter mixes past the pool)
            reference_scenario(0.3, trials=3, seed=2 ** 63),
            reference_scenario(0.3, trials=3, seed=2 ** 100),
            ScenarioConfig(K=2, M=3, N=5, sigma_p2p=(0.9, 0.8), sigma_bs=(0.8, 0.7),
                           psi=(0.4, 0.4), trials=3, seed=7),
        ])
    ] + [pytest.param(reference_scenario(0.3, trials=9, seed=5), 4, id="T9-chunk4")])
    def test_matches_per_trial_complex_gaussian_replay(self, cfg, chunk):
        k, m, n = cfg.K, cfg.M, cfg.N
        zs = [np.empty((cfg.trials, d, d), dtype=complex) for d in (k, m, k, n, n)]
        for t in range(cfg.trials):
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, t)))
            for z in zs:
                z[t] = complex_gaussian(z.shape[1:], rng)
        z_left, z_right, z_bs_left, z_bs_right, z_users = zs
        ch = linalg.ch
        h = haar_from_gaussian(z_left) @ (np.eye(k, m) * np.array(cfg.sigma_p2p)[:, None]) \
            @ ch(haar_from_gaussian(z_right))
        h_bs = haar_from_gaussian(z_bs_left) @ (np.eye(k, n) * np.array(cfg.sigma_bs)[:, None]) \
            @ ch(haar_from_gaussian(z_bs_right))
        user_dirs = z_users / np.linalg.norm(z_users, axis=1, keepdims=True)

        # drawn in slices of `chunk` trials, as sample_grids draws them
        parts = [montecarlo.ensemble_for(cfg, t0, min(t0 + chunk, cfg.trials))
                 for t0 in range(0, cfg.trials, chunk)]
        for name, want in (("h", h), ("h_bs", h_bs), ("user_dirs", user_dirs)):
            got = np.concatenate([getattr(part, name) for part in parts])
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("start, stop", [
        (0, 1), (1, 512), (511, 513), (512, 1024), (1029, 1030)])
    def test_slice_equals_the_same_trials_of_a_whole_draw(self, start, stop, monkeypatch):
        cfg = reference_scenario(0.3, trials=1030, seed=42)
        with monkeypatch.context() as patch:  # one slice of all the trials
            patch.setattr(montecarlo, "TRIAL_CHUNK", cfg.trials)
            whole = ensemble_for(cfg)
        part = ensemble_for(cfg, start, stop)
        assert (part.seed, part.trials) == (42, range(start, stop))
        for name in ("h", "h_bs", "user_dirs"):
            assert getattr(part, name).tobytes() == getattr(whole, name)[start:stop].tobytes()

    @pytest.mark.parametrize("start, stop", [(3, 3), (4, 2), (-1, 2), (0, 7)])
    def test_empty_or_outside_trial_range_rejected(self, start, stop):
        with pytest.raises(InvalidInputError, match="trial range"):
            ensemble_for(reference_scenario(0.3, trials=6), start, stop)

    def test_longer_than_a_slice_rejected(self, monkeypatch):
        # whole-T work goes through sample_grids, one slice at a time
        cfg = reference_scenario(0.3, trials=TRIAL_CHUNK + 1)
        for start, stop in ((0, None), (0, TRIAL_CHUNK + 1)):
            with pytest.raises(InvalidInputError, match="trial range"):
                ensemble_for(cfg, start, stop)
        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "TRIAL_CHUNK", cfg.trials)
            ens = ensemble_for(cfg)
        with pytest.raises(InvalidInputError, match="ensemble"):
            metric_samples_grid(cfg, ("rate-struct1",), [1.0], ens)


class TestSeedStates:
    @pytest.mark.parametrize("seed", [0, 42, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 100,
                                      np.uint64(2 ** 63 + 5)])
    def test_equal_numpy_seed_sequence(self, seed):
        trials = [0, 1, 511, 512, 2 ** 31, 2 ** 32 - 1]
        want = [np.random.SeedSequence((seed, t)).generate_state(4, np.uint64) for t in trials]
        got = montecarlo.seed_states(seed, trials)
        assert got.dtype == np.uint64 and got.tobytes() == np.array(want).tobytes()


class TestMetricSamplesGrid:
    BUDGETS = (35.0, 0.0, 12.5, 35.0, 5.0)

    @pytest.mark.parametrize("trials", [1, 6])
    @pytest.mark.parametrize("metric", METRICS)
    def test_rows_equal_single_budget_samples(self, metric, trials):
        cfg = reference_scenario(0.6, trials=trials, seed=13)
        grid = metric_samples_grid(cfg, (metric,), self.BUDGETS, ensemble_for(cfg))[0]
        assert grid.shape == (len(self.BUDGETS), trials)
        for row, pb in zip(grid, self.BUDGETS):
            assert row.tobytes() == metric_samples(cfg, metric, pb).tobytes()

    def test_empty_budget_list(self):
        cfg = reference_scenario(0.3, trials=4)
        assert metric_samples_grid(cfg, ("rate-struct1",), [], ensemble_for(cfg))[0].shape \
            == (0, 4)

    # above rates.MAX_BUDGET an energy's standard error overflows; the saddle refuses too
    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, 1e101, 1e300])
    def test_negative_or_non_finite_budget_rejected(self, bad):
        cfg = reference_scenario(0.3, trials=4)
        with pytest.raises(InvalidInputError):
            metric_samples_grid(cfg, ("energy-swipt",), [1.0, bad], ensemble_for(cfg))
        with pytest.raises(InvalidInputError):
            metric_samples(cfg, "rate-struct2", bad)

    def test_rows_are_not_cached(self):
        cfg = reference_scenario(0.3, trials=4)
        ens = ensemble_for(cfg)
        first = metric_samples_grid(cfg, ("rate-struct2",), [1.0], ens)
        assert first.flags.writeable
        assert not np.shares_memory(
            metric_samples_grid(cfg, ("rate-struct2",), [1.0], ens), first)

    @pytest.mark.parametrize("other", [
        reference_scenario(0.3, trials=5),
        ScenarioConfig(K=2, M=3, N=5, sigma_p2p=(0.9, 0.8), sigma_bs=(0.8, 0.7),
                       psi=(0.3, 0.3), trials=4),
        ScenarioConfig(K=3, M=4, N=5, psi=(0.3,) * 3, trials=4),
        ScenarioConfig(K=3, M=3, N=4, psi=(0.3,) * 3, trials=4),
        reference_scenario(0.3, trials=4, seed=7),
    ])
    @pytest.mark.parametrize("metric", ["rate-struct1", "energy-swipt"])
    def test_mismatched_ensemble_rejected(self, other, metric):
        cfg = reference_scenario(0.3, trials=4)
        with pytest.raises(InvalidInputError, match="ensemble"):
            metric_samples_grid(cfg, (metric,), [1.0], ensemble_for(other))

    def test_module_holds_no_lru_cache(self):
        # every result is a pure function of its arguments, and nothing may
        # carry state from one call to the next (functools.lru_cache and
        # functools.cache wrappers carry cache_info)
        cached = [name for name, value in vars(montecarlo).items()
                  if hasattr(value, "cache_info")]
        assert cached == []


def metric_requests():
    """Every order of every non-empty subset of METRICS."""
    return [request for size in range(1, len(METRICS) + 1)
            for request in itertools.permutations(METRICS, size)]


class TestMetricSets:
    BUDGETS = (12.5, 0.0, 35.0)

    @pytest.mark.parametrize("cfg", [
        reference_scenario(0.6, trials=1, seed=13),
        reference_scenario(0.6, trials=6, seed=13),
        reference_scenario(0.0, trials=6, seed=13),
        reference_scenario(1.0, trials=6, seed=13),
    ], ids=["T1", "T6", "psi0", "psi1"])
    def test_rows_do_not_depend_on_the_metric_set(self, cfg):
        ens = ensemble_for(cfg)
        single = {metric: metric_samples_grid(cfg, (metric,), self.BUDGETS, ens)[0]
                  for metric in METRICS}
        for request in metric_requests():
            grid = metric_samples_grid(cfg, request, self.BUDGETS, ens)
            assert grid.shape == (len(request), len(self.BUDGETS), cfg.trials)
            for metric, rows in zip(request, grid):
                assert rows.tobytes() == single[metric].tobytes(), (request, metric)

    def test_per_antenna_split(self, monkeypatch):
        # structure 1 and joint transfer take any split; a request with a
        # structure-2 metric is refused before any solve or eigh runs
        cfg = ScenarioConfig(K=3, M=3, N=5, psi=(0.2, 0.5, 0.8), trials=4, seed=3)
        ens = ensemble_for(cfg)
        supported = [metric for metric in METRICS if metric not in FAMILIES[1]]
        single = {metric: metric_samples_grid(cfg, (metric,), self.BUDGETS, ens)[0]
                  for metric in supported}

        def no_work(*args, **kwargs):
            raise AssertionError("linear algebra ran before the split was checked")

        for request in metric_requests():
            if set(request) <= set(supported):
                grid = metric_samples_grid(cfg, request, self.BUDGETS, ens)
                for metric, rows in zip(request, grid):
                    assert rows.tobytes() == single[metric].tobytes(), (request, metric)
                continue
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "eigh", no_work)
                patch.setattr(np.linalg, "solve", no_work)
                with pytest.raises(UnsupportedConfigError):
                    metric_samples_grid(cfg, request, self.BUDGETS, ens)

    @pytest.mark.parametrize("metrics", [
        ("rate-struct1", "rate-struct1"),
        ("energy-swipt", "rate-struct2", "energy-swipt"), ("bogus",),
        ("rate-struct1", "bogus"), "rate-struct1",
    ])
    def test_duplicate_or_unknown_names_rejected(self, metrics):
        cfg = reference_scenario(0.3, trials=2)
        with pytest.raises(InvalidInputError):
            metric_samples_grid(cfg, metrics, [1.0], ensemble_for(cfg))

    def test_empty_request(self):
        cfg = reference_scenario(0.3, trials=2)
        assert metric_samples_grid(cfg, (), [1.0, 2.0], ensemble_for(cfg)).shape == (0, 2, 2)

    def test_families_partition_the_metrics(self):
        flat = [metric for family in FAMILIES for metric in family]
        assert sorted(flat) == sorted(METRICS)


class TestEigenSolves:
    """Eigen-solves go through `linalg.hermitian_eigh` only where an eigenvector is
    read and through `linalg.hermitian_eigvals` elsewhere; their 3 x 3 closed forms
    leave LAPACK few rows."""

    @staticmethod
    def count_eigh(monkeypatch):
        """Record the rows of each `hermitian_eigh` call, under every name it is bound to."""
        eigh, rows = linalg.hermitian_eigh, []

        def counted(a):
            rows.append(len(a))
            return eigh(a)

        for module in (linalg, harvesting, rates, transfer, montecarlo):
            if getattr(module, "hermitian_eigh", None) is eigh:
                monkeypatch.setattr(module, "hermitian_eigh", counted)
        return rows

    @pytest.mark.parametrize("metrics, per_slice", [
        (("rate-struct1",), 1),       # the whitened interference, once
        (("energy-swipt",), 2),       # the energy beam and the link covariance, once
        (("rate-struct2",), 1),       # the combiner, once
    ])
    @pytest.mark.parametrize("budgets", [(5.0,), (0.0, 5.0, 25.0, 70.0)])
    def test_eigh_calls_per_slice(self, metrics, per_slice, budgets, monkeypatch):
        cfg = reference_scenario(0.3, trials=10, seed=3)
        monkeypatch.setattr(montecarlo, "TRIAL_CHUNK", 4)  # slices of 4, 4 and 2 trials
        rows = self.count_eigh(monkeypatch)
        sample_grids([(cfg, metrics, budgets)])
        assert sorted(rows) == sorted([4, 4, 2] * per_slice)

    @pytest.mark.parametrize("psi", [0.3, 0.6, 0.9])
    def test_few_eigenvector_rows_reach_lapack(self, psi, monkeypatch):
        cfg = ScenarioConfig(psi=psi, trials=2 * TRIAL_CHUNK)
        metrics = ("energy-struct1", "rate-struct2", "energy-swipt")  # every eigenvector read
        budgets = [ratio * cfg.P for ratio in range(15)]
        eigh, kernel, lapack, shares = np.linalg.eigh, montecarlo.metric_samples_grid, [], []
        rows = self.count_eigh(monkeypatch)

        def per_slice(cfg, names, pbs, ens, out=None):
            rows.clear()
            lapack.clear()
            kernel(cfg, names, pbs, ens, out=out)
            assert sum(rows) == (len(pbs) + 4) * len(ens.trials)  # per budget, and 4 once
            shares.append(sum(lapack) / sum(rows))

        monkeypatch.setattr(np.linalg, "eigh", lambda a: lapack.append(len(a)) or eigh(a))
        monkeypatch.setattr(montecarlo, "metric_samples_grid", per_slice)
        sample_grids([(cfg, metrics, budgets)])
        assert len(shares) == 2 and max(shares) < 0.05

    def test_zero_rows_at_psi_zero_reach_no_lapack(self, monkeypatch):
        # at psi = 0 the information branch sees nothing: every whitened interference
        # and every structure-1 T matrix is a zero row, which the kernels answer alone
        cfg = ScenarioConfig(psi=0.0, trials=TRIAL_CHUNK + 3)
        eigh, eigvalsh, lapack = np.linalg.eigh, np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: lapack.append(len(a)) or eigh(a))
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: lapack.append(len(a)) or eigvalsh(a))
        rows = self.count_eigh(monkeypatch)
        # at Pb > 0; at Pb = 0 the energy branch reads sigma2_w I, a triple root
        samples, = sample_grids([(cfg, ("rate-struct1", "energy-struct1", "rate-struct2"),
                                  (5.0, 25.0, 70.0))])
        assert sum(rows) > 0 and lapack == []
        assert np.all(samples[0] == 0.0) and np.all(np.isfinite(samples))

    @pytest.mark.parametrize("psi", [0.3, 0.6, 0.9])
    def test_few_eigenvalue_rows_reach_lapack(self, psi, monkeypatch):
        cfg = ScenarioConfig(psi=psi, trials=2 * TRIAL_CHUNK)
        metrics = ("rate-struct1", "energy-struct1", "energy-swipt")  # one read per budget each
        budgets = [ratio * cfg.P for ratio in range(15)]
        eigvalsh, kernel, rows, shares = np.linalg.eigvalsh, montecarlo.metric_samples_grid, [], []

        def per_slice(cfg, names, pbs, ens, out=None):
            rows.clear()
            kernel(cfg, names, pbs, ens, out=out)
            shares.append(sum(rows) / (len(names) * len(pbs) * len(ens.trials)))

        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: rows.append(len(a)) or eigvalsh(a))
        monkeypatch.setattr(montecarlo, "metric_samples_grid", per_slice)
        sample_grids([(cfg, metrics, budgets)])
        assert len(shares) == 2 and max(shares) < 0.05


class TestTrialChunks:
    """sample_grids draws and evaluates TRIAL_CHUNK trials at a time; every
    operation acts trial by trial, so the slicing changes no bit."""

    BUDGETS = (12.5, 0.0, 35.0)
    TRIALS = 13

    @pytest.mark.parametrize("cfg", [
        reference_scenario(0.6, trials=TRIALS, seed=13),
        reference_scenario(0.0, trials=TRIALS, seed=13),
        reference_scenario(1.0, trials=TRIALS, seed=13),
        ScenarioConfig(K=2, M=3, N=4, sigma_p2p=(0.9, 0.8), sigma_bs=(0.8, 0.7),
                       psi=(0.4, 0.4), trials=TRIALS, seed=9),
        ScenarioConfig(K=3, M=3, N=5, psi=(0.2, 0.5, 0.8), trials=TRIALS, seed=3),
    ], ids=["psi0.6", "psi0", "psi1", "K<M", "per-antenna"])
    @pytest.mark.parametrize("chunk", [1, 7, TRIALS - 1, TRIALS, TRIALS + 1])
    def test_samples_do_not_depend_on_the_chunk(self, cfg, chunk, monkeypatch):
        # structure 2 needs a uniform split, so the per-antenna case runs the rest
        metrics = METRICS if len(set(cfg.psi)) == 1 else \
            tuple(metric for metric in METRICS if metric not in FAMILIES[1])
        whole = metric_samples_grid(cfg, metrics, self.BUDGETS, ensemble_for(cfg))
        monkeypatch.setattr(montecarlo, "TRIAL_CHUNK", chunk)
        grid, = sample_grids([(cfg, metrics, self.BUDGETS)])
        assert grid.tobytes() == whole.tobytes()

    @staticmethod
    def traced(fn, *args):
        """fn(*args) and the peak bytes Python and numpy held while it ran."""
        tracemalloc.start()
        try:
            return fn(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_transient_memory_does_not_grow_with_trials(self):
        # the draw and the kernel take one slice at most (whole-T work goes through
        # sample_grids, below); beyond the slice the draw returns, and the slice and
        # output the kernel reads and writes, their working memory does not depend
        # on how many trials come before the slice
        warm = reference_scenario(0.3, trials=64, seed=42)  # first-call allocations
        metric_samples_grid(warm, METRICS, self.BUDGETS, ensemble_for(warm))
        extra = []
        for trials in (2048, 8192):
            cfg = reference_scenario(0.3, trials=trials, seed=42)
            ens, draw_peak = self.traced(ensemble_for, cfg, trials - TRIAL_CHUNK, trials)
            out, kernel_peak = self.traced(metric_samples_grid, cfg, METRICS,
                                           self.BUDGETS, ens)
            ens_bytes = sum(a.nbytes for a in (ens.h, ens.h_bs, ens.user_dirs))
            extra.append(np.array([draw_peak - ens_bytes, kernel_peak - out.nbytes]))
        assert np.all(extra[1] - extra[0] < 0.5 * 2 ** 20), extra

    @pytest.mark.parametrize("change", [
        dict(seed=7), dict(trials=14), dict(sigma_p2p=(1.0, 0.9, 0.5)),
        dict(sigma_bs=(1.0, 0.9, 0.5)), dict(M=4), dict(N=4),
        dict(K=2, sigma_p2p=(1.0, 0.8), sigma_bs=(1.0, 0.8), psi=(0.3, 0.3)),
    ], ids=["seed", "trials", "sigma_p2p", "sigma_bs", "M", "N", "K"])
    def test_requests_must_share_the_draw(self, change):
        # one slice draw serves every request, so a request whose channel draw
        # differs from the first request's is refused, not run on the wrong draw
        cfg = reference_scenario(0.3, trials=self.TRIALS, seed=42)
        with pytest.raises(InvalidInputError, match="share"):
            sample_grids([(cfg, ("rate-struct1",), [1.0]),
                          (replace(cfg, **change), ("energy-swipt",), [1.0])])

    def test_requests_may_differ_in_split(self):
        cfg = reference_scenario(0.3, trials=self.TRIALS, seed=42)
        other = reference_scenario(0.6, trials=self.TRIALS, seed=42)
        grids = sample_grids([(cfg, ("rate-struct1",), [1.0]), (other, ("rate-struct1",), [1.0])])
        assert grids[1][0, 0].tobytes() == metric_samples(other, "rate-struct1", 1.0).tobytes()

    MC_SCENARIOS = ("average", "structure2", "swipt", "energy-struct1", "energy-struct2")

    def test_sweep_memory_does_not_grow_with_trials(self):
        # a sweep holds its (points, metrics, trials) rows and, beyond them, a
        # few slices of working memory whatever the trial count
        def sweep(trials):
            return cli.SweepConfig(ScenarioConfig(trials=trials, seed=42),
                                   scenarios=self.MC_SCENARIOS, psis=(0.3,),
                                   ratio_grid=(0.0, 7.0, 14.0))

        cli.run_sweep(sweep(64))  # first-call allocations
        extra = []
        for trials in (2048, 8192):
            _, peak = self.traced(cli.run_sweep, sweep(trials))
            extra.append(peak - 3 * len(self.MC_SCENARIOS) * trials * 8)
        assert extra[1] - extra[0] < 0.5 * 2 ** 20, extra

    def test_mc_scale_sweep_draws_one_slice_at_a_time(self, monkeypatch):
        # the mc-scale benchmark's sweep, at a trial count of three slices
        draws, draw = [], montecarlo.ensemble_for

        def recording(cfg, start=0, stop=None):
            ens = draw(cfg, start, stop)
            draws.append(ens.trials)
            return ens

        monkeypatch.setattr(montecarlo, "ensemble_for", recording)
        trials = 2 * TRIAL_CHUNK + 3
        cli.run_sweep(cli.SweepConfig(ScenarioConfig(trials=trials),
                                      scenarios=self.MC_SCENARIOS, psis=(0.3, 0.6),
                                      ratio_grid=(1.0, 7.0, 14.0)))
        assert all(len(drawn) <= TRIAL_CHUNK for drawn in draws)
        assert [t for drawn in draws for t in drawn] == list(range(trials))


class TestMcResult:
    def test_from_samples_matches_average_metric(self):
        cfg = reference_scenario(0.3, trials=50, seed=2)
        assert McResult.from_samples(metric_samples(cfg, "energy-swipt", 20.0)) == \
            average_metric(cfg, "energy-swipt", 20.0)

    def test_db_uses_delta_method(self):
        res = McResult(4.0, 0.2, 10)
        value, stderr = res.db()
        assert value == to_db(4.0)
        assert stderr == pytest.approx(10.0 / np.log(10.0) * 0.05, rel=1e-15)

    @pytest.mark.parametrize("mean", [0.0, -1.0, np.nan])
    def test_db_of_non_positive_mean(self, mean):
        assert McResult(mean, 0.1, 10).db() == (-np.inf, np.inf)


class TestAverageMetric:
    def test_no_interference_is_deterministic(self):
        cfg = reference_scenario(0.3, trials=100)
        res = average_metric(cfg, "rate-struct1", 0.0)
        assert res.mean == pytest.approx(1.016511, abs=1e-4)
        assert res.stderr < 1e-12

    def test_deterministic_reruns(self):
        cfg = reference_scenario(0.3, trials=64, seed=7)
        first = average_metric(cfg, "rate-struct1", 10.0)
        second = average_metric(cfg, "rate-struct1", 10.0)
        assert first == second

    def test_matched_trials_share_draws(self):
        cfg = reference_scenario(0.3, trials=32, seed=11)
        r1 = metric_samples(cfg, "rate-struct1", 15.0)
        r2 = metric_samples(cfg, "rate-struct2", 15.0)
        # structure 1 dominates structure 2 per trial on matched channels
        assert np.all(r1 - r2 > -1e-9)

    def test_average_rate_nonincreasing_in_interferer_power(self):
        # scaling the same user beams up only grows the interference
        # covariance, so the optimized rate drops per matched trial
        cfg = reference_scenario(0.3, trials=200, seed=3)
        prev = None
        for ratio in range(0, 15, 2):
            samples = metric_samples(cfg, "rate-struct1", ratio * cfg.P)
            if prev is not None:
                assert np.all(samples <= prev + 1e-12)
            prev = samples

    def test_stderr_scales_with_trials(self):
        small = average_metric(reference_scenario(0.3, trials=500),
                               "rate-struct1", 35.0)
        large = average_metric(reference_scenario(0.3, trials=2000),
                               "rate-struct1", 35.0)
        ratio = small.stderr / large.stderr
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_strong_interference_keeps_usable_modes(self):
        # at the largest budgets the interference-whitened gains are ~1e-100; they
        # still carry rate, at least the worst-case saddle value per trial
        cfg = replace(reference_scenario(0.3, trials=64), P=cli.MAX_BUDGET)
        lam2 = 0.3 * np.square(cfg.sigma_p2p)
        lam2_bs = 0.3 * np.square(cfg.sigma_bs)
        worst = saddle.solve_saddle_batch(lam2[None], lam2_bs[None], np.full((1, 3), 1.3),
                                          cfg.P, cfg.P).rate[0]
        assert worst == pytest.approx(3.95098, abs=1e-5)
        assert np.all(metric_samples(cfg, "rate-struct1", cfg.P) >= worst)

    def test_unknown_metric_rejected(self):
        cfg = reference_scenario(0.3, trials=4)
        with pytest.raises(InvalidInputError):
            metric_samples(cfg, "bogus", 1.0)

    def test_trial_count_respected(self):
        cfg = reference_scenario(0.3, trials=17)
        res = average_metric(cfg, "rate-struct1", 5.0)
        assert res.trials == 17
        assert len(metric_samples(cfg, "rate-struct1", 5.0)) == 17


def test_trial_ensembles_are_built_only_by_ensemble_for():
    # one draw path into the grid kernel: every TrialEnsemble the package builds
    # holds trials of its seed as ensemble_for draws them
    package = pathlib.Path(montecarlo.__file__).parent
    builders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # ast.walk goes outside in, so the innermost enclosing function names a node
        scope = {id(node): fn.name for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(fn)}
        builders += [(path.name, scope.get(id(node))) for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and "TrialEnsemble" in (
                         getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert builders == [("montecarlo.py", "ensemble_for")]

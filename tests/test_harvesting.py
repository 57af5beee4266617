import numpy as np
import pytest

from swiptmimo.errors import InvalidInputError
from swiptmimo.harvesting import (RfCovariance, build_rf_covariance,
                                  optimal_steering)
from swiptmimo.rates import NoiseProfile, waterfill
from swiptmimo.scenario import (PowerSplit, equivalent_channels,
                                reference_scenario, synthesize_channel)


def baseline_parts(psi, seed=0):
    cfg = reference_scenario(psi)
    rng = np.random.default_rng(seed)
    h = synthesize_channel(cfg.sigma_p2p, cfg.K, cfg.M, rng)
    h_bs = synthesize_channel(cfg.sigma_bs, cfg.K, cfg.N, rng)
    split = PowerSplit(cfg.psi_vector)
    hhat, _ = equivalent_channels(h, h_bs, split)
    noise = NoiseProfile(1.0, 1.0, cfg.psi_vector)
    alloc, _ = waterfill(noise.beta / hhat.lambda2, cfg.P)
    return cfg, h, h_bs, split, hhat, alloc


class TestBuildRfCovariance:
    def test_full_id_split_gives_zero(self):
        cfg, h, h_bs, _, hhat, alloc = baseline_parts(0.3)
        split = PowerSplit(np.full(3, 1.0))
        cov = build_rf_covariance(h, hhat.right[:, :3], alloc.p, h_bs,
                                  np.zeros((5, 1)), np.zeros(1), split, 1.0)
        assert np.allclose(cov.total, 0.0)

    def test_no_signal_leaves_split_noise(self):
        cfg, h, h_bs, split, hhat, _ = baseline_parts(0.3)
        cov = build_rf_covariance(h, hhat.right[:, :3], np.zeros(3), h_bs,
                                  np.zeros((5, 1)), np.zeros(1), split, 1.0)
        assert np.allclose(cov.total, np.diag(split.theta2))

    def test_aligned_signal_eigenvalues(self):
        # scalar oracle: eig(C) = (1-psi) * lambda_k^2 * p_k
        cfg, h, h_bs, split, hhat, alloc = baseline_parts(0.3)
        cov = build_rf_covariance(h, hhat.right[:, :3], alloc.p, h_bs,
                                  np.zeros((5, 1)), np.zeros(1), split, 1.0)
        expected = 0.7 * np.array([0.81 * alloc.p[0], 0.64 * alloc.p[1], 0.0])
        got = np.sort(np.linalg.eigvalsh(cov.C))[::-1]
        assert np.allclose(got, expected, atol=1e-9)

    def test_total_is_sum_of_parts(self):
        cfg, h, h_bs, split, hhat, alloc = baseline_parts(0.3, seed=5)
        rng = np.random.default_rng(6)
        v_bs = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        cov = build_rf_covariance(h, hhat.right[:, :3], alloc.p, h_bs,
                                  v_bs, np.array([1.0, 2.0]), split, 1.0)
        assert np.allclose(cov.total, cov.C + cov.C_bs + cov.W, atol=1e-12)
        assert np.allclose(cov.total, cov.total.conj().T, atol=1e-12)

    def test_weyl_lower_bound(self):
        cfg, h, h_bs, split, hhat, alloc = baseline_parts(0.3, seed=7)
        rng = np.random.default_rng(8)
        v_bs = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        cov = build_rf_covariance(h, hhat.right[:, :3], alloc.p, h_bs,
                                  v_bs, np.array([2.0, 1.0, 0.5]), split, 1.0)
        top = np.linalg.eigvalsh(cov.total)[-1]
        for part in (cov.C, cov.C_bs, cov.W):
            assert top >= np.linalg.eigvalsh(part)[-1] - 1e-10

    def test_dimension_mismatch(self):
        split = PowerSplit(np.full(3, 0.3))
        with pytest.raises(InvalidInputError):
            build_rf_covariance(np.zeros((2, 3)), np.zeros((3, 1)), np.ones(1),
                                np.zeros((2, 5)), np.zeros((5, 1)), np.ones(1),
                                split, 1.0)


class TestOptimalSteering:
    def test_diagonal_dominant_mode(self):
        cov = RfCovariance(np.diag([2.0, 1.0]), np.zeros((2, 2)), np.zeros((2, 2)))
        res = optimal_steering(cov)
        assert res.linear == pytest.approx(2.0, abs=1e-12)
        assert res.dB == pytest.approx(3.0103, abs=1e-4)
        assert np.allclose(np.abs(res.q), [1.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("psi,linear_expected,db_anchor,db_tol", [
        (0.3, None, 4.015909, 0.05),
        (0.6, None, 1.027521, 0.05),
    ])
    def test_baseline_endpoints(self, psi, linear_expected, db_anchor, db_tol):
        cfg, h, h_bs, split, hhat, alloc = baseline_parts(psi)
        cov = build_rf_covariance(h, hhat.right[:, :3], alloc.p, h_bs,
                                  np.zeros((5, 1)), np.zeros(1), split, 1.0)
        res = optimal_steering(cov)
        scalar_oracle = (1 - psi) * (0.81 * alloc.p[0]) + (1 - psi)
        assert res.linear == pytest.approx(scalar_oracle, abs=1e-9)
        assert res.dB == pytest.approx(db_anchor, abs=db_tol)

    def test_q_is_unit_norm_and_attains_value(self):
        cfg, h, h_bs, split, hhat, alloc = baseline_parts(0.3, seed=9)
        rng = np.random.default_rng(10)
        v_bs = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        cov = build_rf_covariance(h, hhat.right[:, :3], alloc.p, h_bs,
                                  v_bs, np.array([3.0, 1.0]), split, 1.0)
        res = optimal_steering(cov)
        assert np.linalg.norm(res.q) == pytest.approx(1.0, abs=1e-12)
        quad = np.real(res.q.conj() @ cov.total @ res.q)
        assert res.linear == pytest.approx(quad, abs=1e-10)

    def test_beats_random_steering(self):
        cfg, h, h_bs, split, hhat, alloc = baseline_parts(0.3, seed=11)
        rng = np.random.default_rng(12)
        v_bs = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        cov = build_rf_covariance(h, hhat.right[:, :3], alloc.p, h_bs,
                                  v_bs, np.array([3.0, 1.0]), split, 1.0)
        res = optimal_steering(cov)
        for _ in range(1000):
            q = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            q /= np.linalg.norm(q)
            assert res.linear >= np.real(q.conj() @ cov.total @ q) - 1e-9

    def test_more_harvest_share_gives_more_energy(self):
        # same channels and allocation, smaller psi -> larger harvested power
        cfg, h, h_bs, _, hhat, alloc = baseline_parts(0.3)
        values = {}
        for psi in (0.3, 0.6):
            split = PowerSplit(np.full(3, psi))
            cov = build_rf_covariance(h, hhat.right[:, :3], alloc.p, h_bs,
                                      np.zeros((5, 1)), np.zeros(1), split, 1.0)
            values[psi] = optimal_steering(cov).linear
        assert values[0.3] >= values[0.6]

    def test_db_round_trip(self):
        cfg, h, h_bs, split, hhat, alloc = baseline_parts(0.6, seed=13)
        cov = build_rf_covariance(h, hhat.right[:, :3], alloc.p, h_bs,
                                  np.zeros((5, 1)), np.zeros(1), split, 1.0)
        res = optimal_steering(cov)
        assert 10 ** (res.dB / 10) == pytest.approx(res.linear, rel=1e-12)

    def test_zero_covariance(self):
        cov = RfCovariance(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3)))
        res = optimal_steering(cov)
        assert res.linear == 0.0
        assert np.isneginf(res.dB)
        assert np.linalg.norm(res.q) == pytest.approx(1.0)

from dataclasses import replace

import numpy as np
import pytest

from swiptmimo.errors import InvalidInputError
from swiptmimo.harvesting import build_rf_covariance, optimal_steering
from swiptmimo.montecarlo import random_bs_covariance
from swiptmimo.rates import NoiseProfile, waterfill
from swiptmimo.scenario import (PowerSplit, equivalent_channels,
                                reference_scenario, synthesize_channel)
from swiptmimo.transfer import structure2_energy, structure2_rate, swipt_design


def setup_link(psi, seed=0, pb=5.0):
    cfg = reference_scenario(psi, pb=pb)
    rng = np.random.default_rng(seed)
    h = synthesize_channel(cfg.sigma_p2p, cfg.K, cfg.M, rng)
    h_bs = synthesize_channel(cfg.sigma_bs, cfg.K, cfg.N, rng)
    split = PowerSplit(cfg.psi_vector)
    hhat, hhat_bs = equivalent_channels(h, h_bs, split)
    noise = NoiseProfile(1.0, 1.0, cfg.psi_vector)
    return cfg, h, h_bs, split, hhat, hhat_bs, noise


class TestSwiptDesign:
    def test_zero_bs_budget(self):
        cfg, h, h_bs, split, hhat, _, noise = setup_link(0.3, pb=0.0)
        design = swipt_design(cfg, hhat, h_bs, split)
        assert np.allclose(design.Q_bs, 0.0)
        # the information covariance matches the interference-free optimum
        alloc, _ = waterfill(noise.beta / hhat.lambda2, cfg.P)
        eigs = np.sort(np.linalg.eigvalsh(design.Q))[::-1]
        assert np.allclose(eigs, np.sort(alloc.p)[::-1], atol=1e-9)

    def test_energy_beam_is_rank_one_full_power(self):
        cfg, h, h_bs, split, hhat, _, _ = setup_link(0.3, pb=25.0)
        design = swipt_design(cfg, hhat, h_bs, split)
        w = np.linalg.eigvalsh(design.Q_bs)
        assert np.real(np.trace(design.Q_bs)) == pytest.approx(25.0, abs=1e-9)
        assert w[-1] == pytest.approx(25.0, abs=1e-9)
        assert np.all(np.abs(w[:-1]) < 1e-9)

    def test_information_beams_ride_right_singular_basis(self):
        cfg, h, h_bs, split, hhat, _, noise = setup_link(0.3, pb=5.0)
        design = swipt_design(cfg, hhat, h_bs, split)
        alloc, _ = waterfill(noise.beta / hhat.lambda2, cfg.P)
        expected = (hhat.right[:, :3] * alloc.p) @ hhat.right[:, :3].conj().T
        assert np.allclose(design.Q, expected, atol=1e-9)

    def test_energy_beam_maximizes_delivered_power(self):
        cfg, h, h_bs, split, hhat, _, _ = setup_link(0.3, seed=3, pb=10.0)
        design = swipt_design(cfg, hhat, h_bs, split)
        theta_h = np.sqrt(split.theta2)[:, None] * h_bs
        delivered = np.real(np.trace(theta_h @ design.Q_bs @ theta_h.conj().T))
        rng = np.random.default_rng(4)
        for _ in range(300):
            v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            v /= np.linalg.norm(v)
            alt = 10.0 * np.real(v.conj() @ theta_h.conj().T @ theta_h @ v)
            assert delivered >= alt - 1e-9


class TestStructure2:
    @pytest.mark.parametrize("psi,expected", [
        (0.3, 0.952047), (0.6, 1.332708), (0.9, 1.545188)])
    def test_rate_endpoints(self, psi, expected):
        cfg, h, h_bs, _, _, _, noise = setup_link(psi)
        rate = structure2_rate(h, h_bs, np.zeros((5, 5)), psi, noise, 5.0)
        assert rate == pytest.approx(expected, abs=1e-3)
        # closed-form scalar oracle
        oracle = np.log2(1 + psi * 0.81 * 5.0 / (psi + 1.0))
        assert rate == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("psi,expected", [(0.3, 5.483894), (0.6, 3.053514)])
    def test_energy_endpoints(self, psi, expected):
        cfg, h, h_bs, _, _, _, noise = setup_link(psi)
        res = structure2_energy(h, h_bs, np.zeros((5, 5)), psi, noise, 5.0)
        assert res.dB == pytest.approx(expected, abs=0.01)
        assert res.linear == pytest.approx((1 - psi) * (0.81 * 5.0 + 1.0), abs=1e-9)

    def test_noise_only_harvest(self):
        cfg, h, h_bs, _, _, _, noise = setup_link(0.3)
        res = structure2_energy(h, h_bs, np.zeros((5, 5)), 0.3, noise, 0.0)
        assert res.linear == pytest.approx(0.7 * 1.0, abs=1e-12)

    def test_zero_power_gives_zero_rate(self):
        cfg, h, h_bs, _, _, _, noise = setup_link(0.3)
        assert structure2_rate(h, h_bs, np.zeros((5, 5)), 0.3, noise, 0.0) == 0.0

    def test_split_conservation(self):
        # EH share plus ID share reconstruct the combined branch power exactly
        cfg, h, h_bs, _, _, _, noise = setup_link(0.3, seed=5)
        rng = np.random.default_rng(6)
        q_bs = random_bs_covariance(5, 10.0, rng)
        psi = 0.3
        res = structure2_energy(h, h_bs, q_bs, psi, noise, 5.0)
        u1 = res.q
        combined = np.real(
            0.81 * 5.0 + u1.conj() @ h_bs @ q_bs @ h_bs.conj().T @ u1 + 1.0)
        id_share = psi * combined
        assert res.linear + id_share == pytest.approx(combined, abs=1e-12)

    def test_scalar_split_required(self):
        cfg, h, h_bs, _, _, _, noise = setup_link(0.3)
        with pytest.raises(InvalidInputError):
            structure2_rate(h, h_bs, np.zeros((5, 5)), np.array([0.3, 0.3, 0.3]),
                            noise, 5.0)

    def test_interference_lowers_rate_raises_energy(self):
        cfg, h, h_bs, _, _, _, noise = setup_link(0.3, seed=7)
        rng = np.random.default_rng(8)
        q_bs = random_bs_covariance(5, 20.0, rng)
        zero = np.zeros((5, 5))
        assert structure2_rate(h, h_bs, q_bs, 0.3, noise, 5.0) \
            <= structure2_rate(h, h_bs, zero, 0.3, noise, 5.0)
        assert structure2_energy(h, h_bs, q_bs, 0.3, noise, 5.0).linear \
            >= structure2_energy(h, h_bs, zero, 0.3, noise, 5.0).linear


class TestSwiptEnergyMonotone:
    def test_rank_one_beam_adds_psd_mass(self):
        cfg, h, h_bs, split, hhat, _, noise = setup_link(0.3, seed=9)
        alloc, _ = waterfill(noise.beta / hhat.lambda2, cfg.P)
        prev = -np.inf
        for pb in (0.0, 5.0, 25.0, 70.0):
            design = swipt_design(replace(cfg, Pb=pb), hhat, h_bs, split)
            w, v = np.linalg.eigh(design.Q_bs)
            cov = build_rf_covariance(
                h, hhat.right[:, :3], alloc.p, h_bs,
                v, np.maximum(w, 0.0), split, 1.0)
            energy = optimal_steering(cov).linear
            assert energy >= prev - 1e-12
            prev = energy

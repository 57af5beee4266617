"""The transfer kernels on one-row batches: the joint-transfer energy beam and
noise-only link covariance, and the combine-then-split receiver."""

import numpy as np
import pytest

from swiptmimo.errors import UnsupportedConfigError
from swiptmimo.harvesting import delivered, harvested_power, to_db
from swiptmimo.montecarlo import ensemble_for, sample_grids
from swiptmimo.rates import transmit_covariance, waterfill, waterfilled_modes
from swiptmimo.scenario import ScenarioConfig, equivalent_channel, reference_scenario
from swiptmimo.transfer import (combined_energy, combined_interference, combined_rate,
                                combiner, energy_beam, energy_mode)


def setup_link(psi, seed=0):
    cfg = reference_scenario(psi, trials=1, seed=seed)
    ens = ensemble_for(cfg)
    h, h_bs = ens.h[0], ens.h_bs[0]
    theta2 = 1.0 - cfg.psi_vector
    hhat = equivalent_channel(cfg.psi_vector, h)
    return cfg, h, h_bs, theta2, hhat, cfg.beta


def bs_covariance(pb_budget, seed):
    """(Pb / N) U U^H of trial 0's unit user beams U at `seed`."""
    users = ensemble_for(reference_scenario(trials=1, seed=seed)).user_dirs[0]
    return (pb_budget / len(users)) * (users @ users.conj().T)


def noise_only_covariance(hhat, beta, total_power):
    """The joint-transfer link covariance: water-filled against noise alone."""
    _, g, p = waterfilled_modes(hhat.conj().T @ (hhat / beta[:, None]), total_power)
    return transmit_covariance(g, p)


def structure2(h, h_bs, q_bs, psi, total_power):
    """(rate, linear energy) of the combine-then-split receiver with unit noise."""
    lam1sq, u1 = combiner(h[None])
    interference = combined_interference(u1, (h_bs @ q_bs @ h_bs.conj().T)[None])
    return (combined_rate(lam1sq, interference, psi, 1.0, 1.0, total_power)[0],
            combined_energy(lam1sq, interference, psi, 1.0, total_power)[0])


class TestSwiptDesign:
    def test_zero_bs_budget(self):
        cfg, h, h_bs, theta2, hhat, beta = setup_link(0.3)
        # the beam carries unit power, so the BS sends budget * beam: nothing at Pb = 0
        beam = energy_beam(h_bs[None], theta2)[0]
        assert np.real(np.trace(beam)) == pytest.approx(1.0, abs=1e-12)
        # the information covariance matches the interference-free optimum
        q = noise_only_covariance(hhat, beta, cfg.P)
        powers, _ = waterfill(beta / np.linalg.svd(hhat, compute_uv=False) ** 2, cfg.P)
        eigs = np.sort(np.linalg.eigvalsh(q))[::-1]
        assert np.allclose(eigs, np.sort(powers)[::-1], atol=1e-9)

    def test_energy_beam_is_rank_one_full_power(self):
        _, _, h_bs, theta2, _, _ = setup_link(0.3)
        q_bs = 25.0 * energy_beam(h_bs[None], theta2)[0]
        w = np.linalg.eigvalsh(q_bs)
        assert np.real(np.trace(q_bs)) == pytest.approx(25.0, abs=1e-9)
        assert w[-1] == pytest.approx(25.0, abs=1e-9)
        assert np.all(np.abs(w[:-1]) < 1e-9)

    def test_information_beams_ride_right_singular_basis(self):
        cfg, _, _, _, hhat, beta = setup_link(0.3)
        q = noise_only_covariance(hhat, beta, cfg.P)
        _, sigma, right_h = np.linalg.svd(hhat)
        powers, _ = waterfill(beta / sigma ** 2, cfg.P)
        right = right_h.conj().T
        expected = (right[:, :3] * powers) @ right[:, :3].conj().T
        assert np.allclose(q, expected, atol=1e-9)

    @pytest.mark.parametrize("psi", [0.3, 0.9, 1.0, (0.0, 0.5, 1.0)])
    def test_beam_delivers_its_energy_mode(self, psi):
        # the joint-transfer kernel takes lambda u u^H as the beam's delivered term
        cfg = ScenarioConfig(psi=psi, trials=16)
        h_bs, theta2 = ensemble_for(cfg).h_bs, 1.0 - cfg.psi_vector
        lam, u = energy_mode(h_bs, theta2)
        beam = energy_beam(h_bs, theta2)
        mode_term = lam[:, None, None] * (u[:, :, None] * u[:, None, :].conj())
        assert np.allclose(delivered(theta2, h_bs, beam), mode_term, rtol=0.0, atol=1e-14)
        # a unit-power rank-one beam on every row, psi = 1 (lambda = 0) included
        assert np.allclose(np.trace(beam, axis1=-2, axis2=-1), 1.0, rtol=0.0, atol=1e-14)
        assert np.allclose(beam @ beam, beam, rtol=0.0, atol=1e-14)

    def test_energy_beam_maximizes_delivered_power(self):
        _, _, h_bs, theta2, _, _ = setup_link(0.3, seed=3)
        q_bs = 10.0 * energy_beam(h_bs[None], theta2)[0]
        theta_h = np.sqrt(theta2)[:, None] * h_bs
        delivered_power = np.real(np.trace(theta_h @ q_bs @ theta_h.conj().T))
        rng = np.random.default_rng(4)
        for _ in range(300):
            v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            v /= np.linalg.norm(v)
            alt = 10.0 * np.real(v.conj() @ theta_h.conj().T @ theta_h @ v)
            assert delivered_power >= alt - 1e-9


class TestStructure2:
    @pytest.mark.parametrize("psi,expected", [
        (0.3, 0.952047), (0.6, 1.332708), (0.9, 1.545188)])
    def test_rate_endpoints(self, psi, expected):
        _, h, h_bs, _, _, _ = setup_link(psi)
        rate, _ = structure2(h, h_bs, np.zeros((5, 5)), psi, 5.0)
        assert rate == pytest.approx(expected, abs=1e-3)
        # closed-form scalar oracle
        oracle = np.log2(1 + psi * 0.81 * 5.0 / (psi + 1.0))
        assert rate == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("psi,expected", [(0.3, 5.483894), (0.6, 3.053514)])
    def test_energy_endpoints(self, psi, expected):
        _, h, h_bs, _, _, _ = setup_link(psi)
        _, linear = structure2(h, h_bs, np.zeros((5, 5)), psi, 5.0)
        assert to_db(linear) == pytest.approx(expected, abs=0.01)
        assert linear == pytest.approx((1 - psi) * (0.81 * 5.0 + 1.0), abs=1e-9)

    def test_noise_only_harvest(self):
        _, h, h_bs, _, _, _ = setup_link(0.3)
        _, linear = structure2(h, h_bs, np.zeros((5, 5)), 0.3, 0.0)
        assert linear == pytest.approx(0.7 * 1.0, abs=1e-12)

    def test_zero_power_gives_zero_rate(self):
        _, h, h_bs, _, _, _ = setup_link(0.3)
        assert structure2(h, h_bs, np.zeros((5, 5)), 0.3, 0.0)[0] == 0.0

    def test_split_conservation(self):
        # EH share plus ID share reconstruct the combined branch power exactly
        _, h, h_bs, _, _, _ = setup_link(0.3, seed=5)
        q_bs = bs_covariance(10.0, 6)
        psi = 0.3
        _, linear = structure2(h, h_bs, q_bs, psi, 5.0)
        u1 = combiner(h[None])[1][0]
        combined = np.real(
            0.81 * 5.0 + u1.conj() @ h_bs @ q_bs @ h_bs.conj().T @ u1 + 1.0)
        assert linear + psi * combined == pytest.approx(combined, abs=1e-12)

    def test_scalar_split_required(self):
        # one analog chain has one splitter: per-antenna splits are refused
        cfg = ScenarioConfig(psi=(0.3, 0.3, 0.4), trials=2)
        with pytest.raises(UnsupportedConfigError):
            sample_grids([(cfg, ("rate-struct2",), [5.0])])

    def test_interference_lowers_rate_raises_energy(self):
        _, h, h_bs, _, _, _ = setup_link(0.3, seed=7)
        q_bs = bs_covariance(20.0, 8)
        loud = structure2(h, h_bs, q_bs, 0.3, 5.0)
        quiet = structure2(h, h_bs, np.zeros((5, 5)), 0.3, 5.0)
        assert loud[0] <= quiet[0]
        assert loud[1] >= quiet[1]


class TestSwiptEnergyMonotone:
    def test_rank_one_beam_adds_psd_mass(self):
        cfg, h, h_bs, theta2, hhat, beta = setup_link(0.3, seed=9)
        c_sig = delivered(theta2, h, noise_only_covariance(hhat, beta, cfg.P))
        beam = energy_beam(h_bs, theta2)
        prev = -np.inf
        for pb in (0.0, 5.0, 25.0, 70.0):
            energy = harvested_power(c_sig, delivered(theta2, h_bs, pb * beam),
                                     np.diag(theta2))
            assert energy >= prev - 1e-12
            prev = energy

"""The energy-steering kernels on one-row batches: the delivered covariance
terms C, C_bs and W, the harvested power as the top eigenvalue of their sum,
and steering along its eigenvector."""

import numpy as np
import pytest

from swiptmimo.harvesting import delivered, harvested_power, steering, to_db, top_eigpair
from swiptmimo.montecarlo import ensemble_for
from swiptmimo.rates import transmit_covariance, waterfilled_modes
from swiptmimo.scenario import reference_scenario


def baseline_parts(psi, seed=0):
    """A baseline link (one-row batches) and its interference-free optimal covariance."""
    cfg = reference_scenario(psi, trials=1, seed=seed)
    ens = ensemble_for(cfg)
    h, h_bs = ens.h, ens.h_bs
    hhat = np.sqrt(cfg.psi_vector)[:, None] * h
    beta = cfg.psi_vector * cfg.sigma2_w + cfg.sigma2_n
    _, g, p = waterfilled_modes(hhat.conj().swapaxes(-2, -1) @ (hhat / beta[:, None]), cfg.P)
    return cfg, h, h_bs, 1.0 - cfg.psi_vector, transmit_covariance(g, p), p[0]


def random_q_bs(rng, rank, powers):
    v = rng.standard_normal((5, rank)) + 1j * rng.standard_normal((5, rank))
    return ((v * np.asarray(powers)) @ v.conj().T)[None]


def noise_term(theta2, sigma2_w=1.0):
    return np.diag(sigma2_w * theta2)


class TestDeliveredCovariance:
    def test_full_id_split_gives_zero(self):
        _, h, h_bs, _, q, _ = baseline_parts(0.3)
        theta2 = np.zeros(3)
        total = delivered(theta2, h, q) + delivered(theta2, h_bs, np.zeros((1, 5, 5))) \
            + noise_term(theta2)
        assert np.allclose(total, 0.0)

    def test_no_signal_leaves_split_noise(self):
        _, h, h_bs, theta2, _, _ = baseline_parts(0.3)
        total = delivered(theta2, h, np.zeros((1, 3, 3))) \
            + delivered(theta2, h_bs, np.zeros((1, 5, 5))) + noise_term(theta2)
        assert np.allclose(total, np.diag(theta2))

    def test_aligned_signal_eigenvalues(self):
        # scalar oracle: eig(C) = (1-psi) * lambda_k^2 * p_k
        _, h, _, theta2, q, p = baseline_parts(0.3)
        expected = 0.7 * np.array([0.81 * p[0], 0.64 * p[1], 0.0])
        got = np.sort(np.linalg.eigvalsh(delivered(theta2, h, q)[0]))[::-1]
        assert np.allclose(got, expected, atol=1e-9)

    def test_total_is_sum_of_parts(self):
        _, h, h_bs, theta2, q, _ = baseline_parts(0.3, seed=5)
        c_sig = delivered(theta2, h, q)
        c_bs = delivered(theta2, h_bs, random_q_bs(np.random.default_rng(6), 2, [1.0, 2.0]))
        w = noise_term(theta2)
        for part in (c_sig, c_bs):
            assert np.allclose(part, part.conj().swapaxes(-2, -1), atol=1e-12)
        linear = harvested_power(c_sig, c_bs, w)
        assert linear[0] == pytest.approx(np.linalg.eigvalsh((c_sig + c_bs + w)[0])[-1],
                                          abs=1e-12)

    def test_weyl_lower_bound(self):
        _, h, h_bs, theta2, q, _ = baseline_parts(0.3, seed=7)
        c_sig = delivered(theta2, h, q)
        c_bs = delivered(theta2, h_bs, random_q_bs(np.random.default_rng(8), 3,
                                                   [2.0, 1.0, 0.5]))
        w = noise_term(theta2)
        top = harvested_power(c_sig, c_bs, w)
        for part in (c_sig[0], c_bs[0], w):
            assert top[0] >= np.linalg.eigvalsh(part)[-1] - 1e-10


class TestOptimalSteering:
    def test_diagonal_dominant_mode(self):
        linear, q = harvested_power(np.diag([2.0, 1.0])[None], 0.0, 0.0), \
            steering(np.diag([2.0, 1.0])[None], 0.0, 0.0)
        assert linear[0] == pytest.approx(2.0, abs=1e-12)
        assert to_db(linear[0]) == pytest.approx(3.0103, abs=1e-4)
        assert np.allclose(np.abs(q[0]), [1.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("psi,linear_expected,db_anchor,db_tol", [
        (0.3, None, 4.015909, 0.05),
        (0.6, None, 1.027521, 0.05),
    ])
    def test_baseline_endpoints(self, psi, linear_expected, db_anchor, db_tol):
        _, h, _, theta2, q, p = baseline_parts(psi)
        linear = harvested_power(delivered(theta2, h, q), 0.0, noise_term(theta2))
        scalar_oracle = (1 - psi) * (0.81 * p[0]) + (1 - psi)
        assert linear[0] == pytest.approx(scalar_oracle, abs=1e-9)
        assert to_db(linear[0]) == pytest.approx(db_anchor, abs=db_tol)

    def test_q_is_unit_norm_and_attains_value(self):
        _, h, h_bs, theta2, q, _ = baseline_parts(0.3, seed=9)
        total = delivered(theta2, h, q) + noise_term(theta2) + delivered(
            theta2, h_bs, random_q_bs(np.random.default_rng(10), 2, [3.0, 1.0]))
        linear, steer = harvested_power(total, 0.0, 0.0), steering(total, 0.0, 0.0)
        assert np.linalg.norm(steer[0]) == pytest.approx(1.0, abs=1e-12)
        quad = np.real(steer[0].conj() @ total[0] @ steer[0])
        assert linear[0] == pytest.approx(quad, abs=1e-10)

    def test_beats_random_steering(self):
        _, h, h_bs, theta2, q, _ = baseline_parts(0.3, seed=11)
        rng = np.random.default_rng(12)
        total = (delivered(theta2, h, q) + noise_term(theta2)
                 + delivered(theta2, h_bs, random_q_bs(rng, 2, [3.0, 1.0])))[0]
        linear = harvested_power(total, 0.0, 0.0)
        for _ in range(1000):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            v /= np.linalg.norm(v)
            assert linear >= np.real(v.conj() @ total @ v) - 1e-9

    def test_more_harvest_share_gives_more_energy(self):
        # same channels and covariance, smaller psi -> larger harvested power
        _, h, _, _, q, _ = baseline_parts(0.3)
        values = {}
        for psi in (0.3, 0.6):
            theta2 = np.full(3, 1.0 - psi)
            values[psi] = harvested_power(delivered(theta2, h, q), 0.0, noise_term(theta2))[0]
        assert values[0.3] >= values[0.6]

    def test_db_round_trip(self):
        _, h, _, theta2, q, _ = baseline_parts(0.6, seed=13)
        linear = harvested_power(delivered(theta2, h, q), 0.0, noise_term(theta2))
        assert 10 ** (to_db(linear[0]) / 10) == pytest.approx(linear[0], rel=1e-12)

    def test_zero_covariance(self):
        linear, q = harvested_power(np.zeros((1, 3, 3)), 0.0, 0.0), \
            steering(np.zeros((1, 3, 3)), 0.0, 0.0)
        assert linear[0] == 0.0
        assert np.isneginf(to_db(linear[0]))
        assert np.linalg.norm(q[0]) == pytest.approx(1.0)


class TestTopEigpair:
    def test_rows_are_solved_alone(self):
        rng = np.random.default_rng(14)
        b = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
        mats = b @ b.conj().swapaxes(-2, -1)
        w, v = top_eigpair(mats)
        for i in range(6):
            w_i, v_i = top_eigpair(mats[i:i + 1])
            assert w_i.tobytes() == w[i:i + 1].tobytes()
            assert v_i.tobytes() == v[i:i + 1].tobytes()


class TestHarvestedPower:
    def test_is_the_clipped_top_eigenvalue_of_top_eigpair(self):
        rng = np.random.default_rng(15)
        b = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
        mats = b @ b.conj().swapaxes(-2, -1) - np.eye(3)  # some tops are negative
        top, _ = top_eigpair(mats)
        assert np.allclose(harvested_power(mats, 0.0, 0.0), np.maximum(top, 0.0),
                           rtol=0.0, atol=1e-12)

    def test_rows_are_solved_alone(self):
        rng = np.random.default_rng(16)
        b = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
        mats = b @ b.conj().swapaxes(-2, -1)
        whole = harvested_power(mats, 0.0, 0.0)
        for i in range(6):
            assert harvested_power(mats[i:i + 1], 0.0, 0.0).tobytes() == whole[i:i + 1].tobytes()

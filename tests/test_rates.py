import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swiptmimo.errors import InvalidInputError
from swiptmimo.linalg import complex_gaussian, haar_from_gaussian
from swiptmimo.montecarlo import ensemble_for
from swiptmimo.saddle import p2p_best_response
from swiptmimo.rates import (PowerAllocation, mode_powers, tin_rate_global,
                             transmit_covariance, waterfill, waterfilled_modes,
                             worst_case_rate)
from swiptmimo.scenario import ScenarioConfig, equivalent_channel, reference_scenario

# inverse gains beta/lambda2 of the psi=0.3 baseline
BASE_INV_GAINS = 1.3 / np.array([0.243, 0.192, 0.147])


def uniform_noise(psi, k=3):
    """Per-mode noise beta = psi * sigma2_w + sigma2_n at unit noise variances."""
    return np.full(k, psi) * 1.0 + 1.0


class TestWaterfill:
    def test_symmetric_modes_split_evenly(self):
        alloc, _ = waterfill([2.0, 2.0], 3.0)
        assert np.allclose(alloc.p, [1.5, 1.5])

    def test_single_mode(self):
        alloc, eta = waterfill([1.0], 5.0)
        assert np.allclose(alloc.p, [5.0])
        assert eta == pytest.approx(6.0)

    def test_baseline_active_set(self):
        # analytic active-set oracle: modes 1-2 active, eta = (P + c1 + c2)/2
        c = BASE_INV_GAINS
        eta_expected = (5.0 + c[0] + c[1]) / 2
        alloc, eta = waterfill(c, 5.0)
        assert eta == pytest.approx(eta_expected, abs=1e-12)
        assert np.allclose(alloc.p, [eta_expected - c[0], eta_expected - c[1], 0.0],
                           atol=1e-12)
        assert alloc.p == pytest.approx([3.21052, 1.78948, 0.0], abs=1e-5)
        assert eta == pytest.approx(8.56031, abs=1e-5)

    def test_budget_binds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            c = rng.uniform(0.2, 6.0, size=4)
            p_total = float(rng.uniform(0.0, 10.0))
            alloc, _ = waterfill(c, p_total)
            assert abs(alloc.total - p_total) <= 1e-9

    def test_kkt_conditions(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            c = rng.uniform(0.2, 6.0, size=5)
            alloc, eta = waterfill(c, float(rng.uniform(0.1, 8.0)))
            active = alloc.p > 0
            assert np.allclose(alloc.p[active], eta - c[active])
            assert np.all(eta <= c[~active] + 1e-12)

    def test_zero_gain_modes_get_nothing(self):
        alloc, _ = waterfill([1.0, np.inf, 2.0], 4.0)
        assert alloc.p[1] == 0.0
        assert abs(alloc.total - 4.0) <= 1e-9

    def test_negative_power_rejected(self):
        with pytest.raises(InvalidInputError):
            waterfill([1.0], -1.0)

    def test_all_disabled_rejected(self):
        with pytest.raises(InvalidInputError):
            waterfill([np.inf, np.inf], 1.0)

    def test_grid_search_oracle_small(self):
        rng = np.random.default_rng(2)
        step = 1e-3
        for _ in range(5):
            c = rng.uniform(0.3, 4.0, size=3)
            p_total = float(rng.uniform(0.5, 1.5))
            alloc, _ = waterfill(c, p_total)
            ours = np.sum(np.log2(1 + alloc.p / c))
            grid = np.arange(0.0, p_total + step / 2, step)
            p1, p2 = np.meshgrid(grid, grid, indexing="ij", sparse=True)
            p3 = p_total - p1 - p2
            obj = (np.log2(1 + p1 / c[0]) + np.log2(1 + p2 / c[1])
                   + np.log2(1 + np.maximum(p3, 0.0) / c[2]))
            best = np.max(np.where(p3 >= -1e-12, obj, -np.inf))
            assert abs(ours - best) <= 1e-3
            assert ours >= best - 1e-12


class TestNoiseProfile:
    """The link's noise profile (sigma2_w, sigma2_n, psi), whose beta the rates read,
    is checked where it is set: in ScenarioConfig."""

    @pytest.mark.parametrize("field", ["sigma2_w", "sigma2_n", "psi"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_fields_rejected(self, field, value):
        fields = {"sigma2_w": 1.0, "sigma2_n": 1.0, "psi": np.full(3, 0.3)}
        fields[field] = np.full(3, value) if field == "psi" else value
        with pytest.raises(InvalidInputError):
            ScenarioConfig(**fields)

    @pytest.mark.parametrize("beta", [[1.3, 0.0, 1.3], [1.3, np.nan, 1.3], [-1.0, 1.3, 1.3]],
                             ids=["zero", "nan", "negative"])
    def test_rates_refuse_a_non_positive_beta(self, beta):
        # a raw beta array reaches the rates without a ScenarioConfig to check it
        lam2 = np.array([0.243, 0.192, 0.147])
        with pytest.raises(InvalidInputError):
            worst_case_rate(lam2, lam2, np.ones(3), np.ones(3), beta)
        with pytest.raises(InvalidInputError):
            p2p_best_response(lam2, lam2, np.ones(3), beta, 5.0)
        hhat = np.diag(np.sqrt(lam2))
        with pytest.raises(InvalidInputError):
            tin_rate_global(hhat, hhat, np.eye(3), np.eye(3), beta)


class TestPowerAllocation:
    def test_over_budget_rejected(self):
        with pytest.raises(InvalidInputError):
            PowerAllocation(np.array([2.0, 2.0]), 3.0)

    def test_negative_power_rejected(self):
        with pytest.raises(InvalidInputError):
            PowerAllocation(np.array([-0.5, 1.0]), 3.0)

    @pytest.mark.parametrize("budget", [1.0, 1e8, 1e100])
    def test_budget_tolerance_scales_with_budget(self, budget):
        # a sum one rounding above a large budget passes; a relative excess of 1e-6 does not
        PowerAllocation(np.array([0.5, 0.5]) * np.nextafter(budget, np.inf), budget)
        with pytest.raises(InvalidInputError):
            PowerAllocation(np.array([0.5, 0.5]) * budget * (1 + 1e-6), budget)


def random_link(seed, pb_budget, n=5):
    """Trial 0 of the psi = 0.3 reference link with n BS antennas at `seed`: the channels
    after the split and the BS covariance (Pb / n) U U^H of its unit user beams U."""
    cfg = ScenarioConfig(N=n, psi=0.3, trials=1, seed=seed)
    ens = ensemble_for(cfg)
    users = ens.user_dirs[0]
    return (equivalent_channel(cfg.psi_vector, ens.h[0]),
            equivalent_channel(cfg.psi_vector, ens.h_bs[0]),
            (pb_budget / n) * (users @ users.conj().T))


class TestTinRateGlobal:
    def setup_method(self):
        self.hhat, self.hhat_bs, self.q_bs = random_link(10, 5.0)
        self.noise = uniform_noise(0.3)

    def test_zero_covariance_gives_zero_rate(self):
        rate = tin_rate_global(self.hhat, self.hhat_bs, np.zeros((3, 3)),
                               self.q_bs, self.noise)
        assert rate == 0.0

    def test_diagonal_reduction(self):
        lam = np.array([0.9, 0.6, 0.2])
        hhat = np.diag(lam).astype(complex)
        p = np.array([2.0, 1.5, 0.5])
        rate = tin_rate_global(hhat, self.hhat_bs, np.diag(p), np.zeros((5, 5)),
                               self.noise)
        expected = np.sum(np.log2(1 + lam ** 2 * p / self.noise))
        assert rate == pytest.approx(expected, abs=1e-12)

    def test_monotone_nonincreasing_in_interference(self):
        q = random_link(11, 5.0, n=3)[2]  # a random trace-5 link covariance
        base = tin_rate_global(self.hhat, self.hhat_bs, q, self.q_bs, self.noise)
        for delta in (0.1, 1.0):
            worse = tin_rate_global(self.hhat, self.hhat_bs, q,
                                    self.q_bs + delta * np.eye(5), self.noise)
            assert worse <= base + 1e-12

    def test_matches_worst_case_rate_on_aligned_channels(self):
        # both channels share one left singular basis, so they diagonalize jointly
        cfg = reference_scenario(0.3)
        rng = np.random.default_rng(12)
        left, right, right_bs = (haar_from_gaussian(complex_gaussian((d, d), rng))
                                 for d in (cfg.K, cfg.M, cfg.N))
        hhat, hhat_bs = (
            left @ (np.eye(cfg.K, len(r)) * sigma[:, None]) @ r.conj().T
            for sigma, r in ((np.sqrt(0.3) * np.asarray(cfg.sigma_p2p), right),
                             (np.sqrt(0.3) * np.asarray(cfg.sigma_bs), right_bs)))
        # the oracle reads each channel's own SVD: squared gains and right vectors
        _, sigma, right_h = np.linalg.svd(hhat)
        _, sigma_bs, right_bs_h = np.linalg.svd(hhat_bs)
        right, right_bs = right_h.conj().T, right_bs_h.conj().T
        p = np.array([3.0, 1.5, 0.5])
        p_bs = np.array([2.0, 2.0, 1.0])
        q = (right[:, :3] * p) @ right[:, :3].conj().T
        q_bs = (right_bs[:, :3] * p_bs) @ right_bs[:, :3].conj().T
        expected = worst_case_rate(sigma ** 2, sigma_bs ** 2, p, p_bs, self.noise)
        got = tin_rate_global(hhat, hhat_bs, q, q_bs, self.noise)
        assert got == pytest.approx(expected, abs=1e-9)


def optimal_q(hhat, s, total_power):
    """The rates kernel's optimal covariance against receive covariance s, one row."""
    t = hhat.conj().T @ np.linalg.solve(s, hhat)
    _, g, p = waterfilled_modes(t[None], total_power)
    return transmit_covariance(g, p)[0]


class TestOptimalQGlobal:
    def test_identity_noise_diagonal_channel(self):
        lam = np.array([0.9, 0.6, 0.2])
        hhat = np.diag(lam).astype(complex)
        q = optimal_q(hhat, np.eye(3), 5.0)
        expected, _ = waterfill(1.0 / lam ** 2, 5.0)
        assert np.allclose(np.sort(np.diag(q).real)[::-1],
                           np.sort(expected.p)[::-1], atol=1e-9)
        assert np.allclose(q - np.diag(np.diag(q)), 0.0, atol=1e-9)

    def test_zero_budget(self):
        hhat = np.eye(3).astype(complex)
        assert np.all(optimal_q(hhat, np.eye(3), 0.0) == 0.0)

    def test_trace_equals_budget(self):
        hhat = random_link(13, 0.0)[0]
        s = np.eye(3) * 1.3
        q = optimal_q(hhat, s, 5.0)
        assert np.real(np.trace(q)) == pytest.approx(5.0, abs=1e-9)

    def test_beats_random_equal_trace_alternatives(self):
        rng = np.random.default_rng(14)
        hhat, hhat_bs, q_bs = random_link(14, 10.0)
        noise = uniform_noise(0.3)
        s = hhat_bs @ q_bs @ hhat_bs.conj().T \
            + np.diag(noise)
        q_star = optimal_q(hhat, s, 5.0)
        best = tin_rate_global(hhat, hhat_bs, q_star, q_bs, noise)
        for _ in range(200):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            q_alt = a @ a.conj().T
            q_alt *= 5.0 / np.real(np.trace(q_alt))
            alt = tin_rate_global(hhat, hhat_bs, q_alt, q_bs, noise)
            assert best >= alt - 1e-9


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def psd_stacks(draw):
    """A stack of 1-4 PSD matrices B B^H of size 1-4 and rank up to their size,
    with a power budget."""
    rows, size = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rank = draw(st.integers(0, size))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    b = scale * (rng.standard_normal((rows, size, rank))
                 + 1j * rng.standard_normal((rows, size, rank)))
    return b @ b.conj().swapaxes(-2, -1), draw(st.floats(0.0, 1e3))


class TestWaterfilledModes:
    """Properties of the optimal-covariance kernel on random PSD stacks."""

    @PROPERTY
    @given(psd_stacks())
    def test_covariance_is_psd_with_trace_budget(self, case):
        t_mats, total_power = case
        _, g, p = waterfilled_modes(t_mats, total_power)
        q = transmit_covariance(g, p)
        scale = max(total_power, 1.0)
        assert np.allclose(q, q.conj().swapaxes(-2, -1), atol=1e-12 * scale)
        assert np.all(np.linalg.eigvalsh(q) >= -1e-12 * scale)
        usable = np.linalg.eigvalsh(t_mats)[..., -1] > 0
        # a row with no usable mode sends nothing; every other row spends it all
        traces = np.real(np.trace(q, axis1=-2, axis2=-1))
        assert np.allclose(traces, np.where(usable, total_power, 0.0),
                           rtol=1e-12, atol=1e-12)

    @PROPERTY
    @given(psd_stacks())
    def test_kkt_conditions(self, case):
        # p_k = eta - 1/w_k on the active modes and eta <= 1/w_k off them, one
        # water level per row
        t_mats, total_power = case
        w, g, p = waterfilled_modes(t_mats, total_power)
        for w_row, p_row in zip(w, p):
            assert np.all(p_row >= 0.0)
            active = p_row > 0
            if not active.any():
                continue
            eta = p_row[active][0] + 1.0 / w_row[active][0]
            assert np.allclose(p_row[active] + 1.0 / w_row[active], eta,
                               rtol=1e-9, atol=0.0)
            idle = ~active & (w_row > 0)
            assert np.all(eta <= 1.0 / w_row[idle] * (1 + 1e-9))

    @PROPERTY
    @given(psd_stacks())
    def test_eigenvalues_alone_give_the_same_rate(self, case):
        # the powers are mode_powers of the eigh gains, and eigvalsh's gains give
        # the same water-filled rate to rounding
        t_mats, total_power = case
        w, _, p = waterfilled_modes(t_mats, total_power)
        assert mode_powers(w, total_power).tobytes() == p.tobytes()
        values = np.linalg.eigvalsh(t_mats)[..., ::-1]

        def rate(gains, powers):
            return np.sum(np.log2(1.0 + np.maximum(gains, 0.0) * powers), axis=-1)

        assert np.allclose(rate(values, mode_powers(values, total_power)), rate(w, p),
                           rtol=1e-9, atol=1e-12)

    @PROPERTY
    @given(psd_stacks(), st.randoms(use_true_random=False))
    def test_rows_do_not_depend_on_their_batch(self, case, random):
        t_mats, total_power = case
        order = list(range(len(t_mats)))
        random.shuffle(order)
        whole = waterfilled_modes(t_mats, total_power)
        shuffled = waterfilled_modes(t_mats[order], total_power)
        for i, j in enumerate(order):
            alone = waterfilled_modes(t_mats[j:j + 1], total_power)
            for got, row, want in zip(shuffled, alone, whole):
                assert got[i].tobytes() == row[0].tobytes() == want[j].tobytes()


class TestWorstCaseRate:
    @pytest.mark.parametrize("psi,expected", [
        (0.3, 1.016649), (0.6, 1.509088), (0.9, 1.816096)])
    def test_reference_endpoints(self, psi, expected):
        lam2 = psi * np.array([0.81, 0.64, 0.49])
        alloc, _ = waterfill((1.0 + psi) / lam2, 5.0)
        rate = worst_case_rate(lam2, psi * np.array([0.64, 0.49, 0.25]),
                               alloc.p, np.zeros(3), uniform_noise(psi))
        assert rate == pytest.approx(expected, abs=1e-3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            worst_case_rate([1.0, 2.0], [1.0], [1.0, 1.0], [0.0, 0.0],
                            uniform_noise(0.3, k=2))

    def test_endpoint_anchor_sensitive_to_budget(self):
        # a perturbed link budget must break the endpoint anchor
        lam2 = 0.3 * np.array([0.81, 0.64, 0.49])
        alloc, _ = waterfill(1.3 / lam2, 4.9)
        rate = worst_case_rate(lam2, 0.3 * np.array([0.64, 0.49, 0.25]),
                               alloc.p, np.zeros(3), uniform_noise(0.3))
        assert abs(rate - 1.016649) > 1e-3

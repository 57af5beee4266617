import dataclasses
import numbers
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swiptmimo import saddle
from swiptmimo.acceptance import (projected_gradient_worst_allocation,
                                  saddle_certificate)
from swiptmimo.errors import ConvergenceError, InvalidInputError
from swiptmimo.rates import MAX_BUDGET, worst_case_rate
from swiptmimo.saddle import (MU_TOL, bs_best_response, p2p_best_response, solve_links,
                              solve_saddle, solve_saddle_batch)
from swiptmimo.scenario import ScenarioConfig

LAM2 = 0.3 * np.array([0.81, 0.64, 0.49])
LAM2_BS = 0.3 * np.array([0.64, 0.49, 0.25])


def unit_beta(psi=0.3, k=3):
    """Per-mode noise psi * sigma2_w + sigma2_n at unit noise variances."""
    return np.full(k, psi) * 1.0 + 1.0


class TestP2pBestResponse:
    def test_no_interference_is_plain_waterfilling(self):
        p = p2p_best_response(LAM2, LAM2_BS, np.zeros(3), unit_beta(), 5.0)
        assert p == pytest.approx([3.21052, 1.78948, 0.0], abs=1e-5)

    def test_identical_modes_split_evenly(self):
        lam2 = np.full(3, 0.5)
        p = p2p_best_response(lam2, lam2, np.full(3, 2.0), unit_beta(), 6.0)
        assert np.allclose(p, 2.0)

    def test_heavily_jammed_mode_abandoned(self):
        p_bs = np.array([1000.0, 0.0, 0.0])
        p = p2p_best_response(LAM2, LAM2_BS, p_bs, unit_beta(), 5.0)
        assert p[0] == 0.0
        assert p.sum() == pytest.approx(5.0, abs=1e-9)

    @pytest.mark.parametrize("power", [-1.0, np.nan, np.inf, [5.0, -1.0]],
                             ids=["negative", "nan", "inf", "one-row-negative"])
    def test_negative_or_non_finite_power_rejected(self, power):
        with pytest.raises(InvalidInputError, match="total power"):
            p2p_best_response(np.stack([LAM2, LAM2]), LAM2_BS, np.zeros(3), unit_beta(), power)


    @pytest.mark.parametrize("value", [np.nan, np.inf, -0.1], ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("field", [0, 1], ids=["lambda2", "lambda2_bs"])
    def test_non_finite_or_negative_gain_rejected(self, field, value):
        args = [np.array([0.5, 0.5, 0.4]), np.full(3, 0.3), np.zeros(3), 1.0, 5.0]
        args[field][0] = value
        with pytest.raises(InvalidInputError, match="gains"):
            p2p_best_response(*args)


class TestBsBestResponse:
    def test_single_mode_takes_all(self):
        pb, _ = bs_best_response([0.7], [1.3], [0.2], 5.0)
        assert pb == pytest.approx([5.0], abs=1e-8)

    def test_nothing_to_jam(self):
        pb, _ = bs_best_response(np.zeros(3), np.full(3, 1.3), LAM2_BS, 5.0)
        assert np.allclose(pb, 0.0)

    def test_zero_budget(self):
        pb, _ = bs_best_response([0.7, 0.3], [1.3, 1.3], [0.2, 0.1], 0.0)
        assert np.allclose(pb, 0.0)

    @pytest.mark.parametrize("field, value", [(1, np.nan), (2, np.nan), (2, np.inf),
                                              (2, -0.1), (3, np.nan), (3, np.inf)],
                             ids=["nan-beta", "nan-gain", "inf-gain", "negative-gain",
                                  "nan-budget", "inf-budget"])
    def test_non_finite_or_negative_input_rejected(self, field, value):
        args = [np.array([0.7, 0.3]), np.full(2, 1.3), np.array([0.2, 0.1]), np.array(5.0)]
        args[field].flat[0] = value
        with pytest.raises(InvalidInputError, match="bs_best_response requires"):
            bs_best_response(*args)

    def test_non_finite_allocation_is_not_solved(self):
        pb, solved = bs_best_response([[0.7, 0.3], [np.inf, 0.3]], np.full((2, 2), 1.3),
                                      [0.2, 0.1], 5.0)
        assert list(solved) == [True, False]
        assert np.all(np.isfinite(pb[0])) and not np.all(np.isfinite(pb[1]))

    @pytest.mark.parametrize("value", [np.nan, -0.1], ids=["nan", "negative"])
    def test_bad_alpha_row_is_not_solved(self, value):
        # alpha may be a solver's iterate: a bad row is flagged, not raised, so that
        # its saddle row fails its certificate (exit 3) and the other rows stand
        alpha = np.array([[0.7, 0.3], [value, 0.3]])
        pb, solved = bs_best_response(alpha, np.full((2, 2), 1.3), [0.2, 0.1], 5.0)
        assert list(solved) == [True, False]
        assert np.array_equal(pb[0], bs_best_response(alpha[0], np.full(2, 1.3),
                                                      [0.2, 0.1], 5.0)[0])
        gap = saddle.duality_gap(np.full((2, 2), 0.5), np.full((2, 2), 0.3), np.full((2, 2), 1.3),
                                 5.0, 5.0, alpha / 0.5, np.full((2, 2), 2.5))
        assert np.isfinite(gap[0]) and gap[1] == np.inf

    def test_matches_projected_gradient_minimizer(self):
        alpha = np.array([0.78, 0.34])
        beta = np.array([1.3, 1.3])
        lam2_bs = np.array([0.192, 0.147])
        closed, _ = bs_best_response(alpha, beta, lam2_bs, 5.0)
        numeric = projected_gradient_worst_allocation([alpha], [beta], [lam2_bs], 5.0)[0]
        assert np.max(np.abs(closed - numeric)) <= 1e-6

    def test_budget_binds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            alpha = rng.uniform(0.05, 2.0, size=3)
            pb = float(rng.uniform(0.1, 30.0))
            p_bs, _ = bs_best_response(alpha, np.full(3, 1.3), LAM2_BS, pb)
            assert abs(p_bs.sum() - pb) <= 1e-9

    def test_stationarity_equalized_on_active_modes(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            alpha = rng.uniform(0.05, 2.0, size=3)
            beta = rng.uniform(0.5, 2.0, size=3)
            g = rng.uniform(0.05, 1.0, size=3)
            pb = float(rng.uniform(0.5, 20.0))
            p_bs, _ = bs_best_response(alpha, beta, g, pb)
            den = g * p_bs + beta
            marginal = alpha * g / (den * (den + alpha))
            active = p_bs > 1e-12
            assert active.any()
            mu = marginal[active].mean()
            # stationarity residual on active modes, slack direction on the rest
            assert np.max(np.abs(marginal[active] - mu)) <= 1e-8 * max(mu, 1.0)
            assert np.all(marginal[~active] <= mu + 1e-8)


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def interferer_rows(draw):
    """1-4 rows of K = 1-4 link mode powers alpha, noises beta and interference
    gains, about one mode in seven harmless (alpha = 0 or gain = 0), and a budget
    per row, one in ten of them zero."""
    rows, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    alpha = 10.0 ** rng.uniform(-3, 1, (rows, k)) * (rng.random((rows, k)) > 0.15)
    beta = 10.0 ** rng.uniform(-1, 1, (rows, k))
    gain = 10.0 ** rng.uniform(-3, 1, (rows, k)) * (rng.random((rows, k)) > 0.15)
    budget = 10.0 ** rng.uniform(-3, 4, rows) * (rng.random(rows) > 0.1)
    return alpha, beta, gain, budget


def log_mu_bisection(alpha, beta, gain, budget, steps=200):
    """Reference allocation of one row: bisect log(mu) between a multiplier that
    switches every mode off and one that overspends, ending on the feasible side."""
    harmful = (alpha > 0) & (gain > 0)
    out = np.zeros_like(alpha)
    if budget == 0 or not harmful.any():
        return out
    a, b, g = alpha[harmful], beta[harmful], gain[harmful]

    def allocation(log_mu):
        return np.maximum(0.0, np.sqrt(a * a / 4 + a * g * np.exp(-log_mu)) - b - a / 2) / g

    hi = np.log(np.max(a * g / (b * (b + a))))
    lo = hi - 1.0
    while allocation(lo).sum() < budget:
        lo -= 1.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if allocation(mid).sum() > budget else (lo, mid)
    out[harmful] = allocation(hi)
    return out


class TestMultiplierSolve:
    """Properties of the interferer's safeguarded Newton solve for its multiplier."""

    @PROPERTY
    @given(interferer_rows())
    def test_allocation_is_feasible_and_spends_the_budget(self, case):
        alpha, beta, gain, budget = case
        pb, converged = bs_best_response(alpha, beta, gain, budget)
        assert converged.all() and np.all(pb >= 0.0)
        live = ((alpha > 0) & (gain > 0)).any(axis=-1) & (budget > 0)
        tol = np.minimum(MU_TOL * budget, 5e-10)
        total = pb.sum(axis=-1)
        assert np.all(total[live] <= budget[live])
        assert np.all(total[live] >= budget[live] - tol[live])
        assert np.all(pb[~live] == 0.0)

    @PROPERTY
    @given(interferer_rows())
    def test_stationarity_equalized_on_active_modes(self, case):
        alpha, beta, gain, budget = case
        pb, _ = bs_best_response(alpha, beta, gain, budget)
        den = gain * pb + beta
        marginal = alpha * gain / (den * (den + alpha))
        for row, m in zip(pb, marginal):
            active = row > 0
            if not active.any():
                continue
            mu = m[active].mean()
            assert np.max(np.abs(m[active] - mu)) <= 1e-8 * mu
            assert np.all(m[~active] <= mu * (1 + 1e-8))

    @PROPERTY
    @given(interferer_rows())
    def test_matches_log_mu_bisection(self, case):
        alpha, beta, gain, budget = case
        pb, _ = bs_best_response(alpha, beta, gain, budget)
        for i, row in enumerate(pb):
            oracle = log_mu_bisection(alpha[i], beta[i], gain[i], budget[i])
            assert np.max(np.abs(row - oracle)) <= 1e-9

    @PROPERTY
    @given(interferer_rows())
    def test_rows_carry_the_same_bits_alone(self, case):
        # the link's response and the rate too, with alpha as the link's gains
        # and the budget as its power
        alpha, beta, gain, budget = case
        pb, converged = bs_best_response(alpha, beta, gain, budget)
        p = p2p_best_response(alpha, gain, pb, beta, budget)
        rate = worst_case_rate(alpha, gain, p, pb, beta)
        for i in range(len(pb)):
            one = np.s_[i:i + 1]
            row, flag = bs_best_response(alpha[one], beta[one], gain[one], budget[one])
            assert row.tobytes() == pb[one].tobytes()
            assert flag.tobytes() == converged[one].tobytes()
            p_row = p2p_best_response(alpha[one], gain[one], row, beta[one], budget[one])
            assert p_row.tobytes() == p[one].tobytes()
            assert (worst_case_rate(alpha[one], gain[one], p_row, row, beta[one]).tobytes()
                    == rate[one].tobytes())

    @PROPERTY
    @given(interferer_rows(), st.integers(0, 3))
    def test_a_capped_row_is_flagged_or_exact(self, case, max_steps):
        # a row that stops within the cap runs the same steps as without it
        alpha, beta, gain, budget = case
        with mock.patch.object(saddle, "MU_STEPS", max_steps):
            capped, converged = bs_best_response(alpha, beta, gain, budget)
        free, _ = bs_best_response(alpha, beta, gain, budget)
        assert capped[converged].tobytes() == free[converged].tobytes()

    @pytest.mark.parametrize("max_steps", [0, 1])
    def test_step_cap_reports_unconverged(self, max_steps, monkeypatch):
        alpha = np.array([[0.78, 0.34, 0.2], [0.0, 0.0, 0.0]])
        gain = np.array([[0.192, 0.147, 0.1], [0.192, 0.147, 0.1]])
        monkeypatch.setattr(saddle, "MU_STEPS", max_steps)
        pb, converged = bs_best_response(alpha, np.full((2, 3), 1.3), gain, 5.0)
        assert list(converged) == [False, True]
        assert np.all(pb >= 0.0) and pb[0].sum() <= 5.0

    def test_capped_response_fails_the_saddle_row(self, monkeypatch):
        monkeypatch.setattr(saddle, "MU_STEPS", 1)
        batch = solve_saddle_batch(*_grid((0.3,), (0, 5)))
        assert list(batch.converged) == [True, False]
        with pytest.raises(ConvergenceError):
            batch.row(1)
        _, solved = bs_best_response([0.78, 0.34], [1.3, 1.3], [0.192, 0.147], 5.0)
        assert not solved


class TestSolveSaddle:
    def test_zero_interferer_budget_endpoint(self):
        sol = solve_saddle(LAM2, LAM2_BS, unit_beta(), 5.0, 0.0)
        assert sol.rate == pytest.approx(1.016649, abs=1e-3)
        assert sol.pb.sum() == 0.0

    def test_budget_conservation(self):
        sol = solve_saddle(LAM2, LAM2_BS, unit_beta(), 5.0, 25.0)
        assert sol.p.sum() == pytest.approx(5.0, abs=1e-9)
        assert sol.pb.sum() == pytest.approx(25.0, abs=1e-9)

    @pytest.mark.parametrize("ratio", [1, 5, 14])
    def test_deviation_certificate(self, ratio):
        sol = solve_saddle(LAM2, LAM2_BS, unit_beta(), 5.0, 5.0 * ratio)
        assert saddle_certificate(LAM2, LAM2_BS, unit_beta(), 5.0, 5.0 * ratio,
                                  sol, np.random.default_rng(ratio))

    def test_best_responses_cannot_improve_value(self):
        sol = solve_saddle(LAM2, LAM2_BS, unit_beta(), 5.0, 10.0)
        p_again = p2p_best_response(LAM2, LAM2_BS, sol.pb, unit_beta(), 5.0)
        pb_again, _ = bs_best_response(LAM2 * sol.p, unit_beta(),
                                       LAM2_BS, 10.0)
        gain = worst_case_rate(LAM2, LAM2_BS, p_again, sol.pb, unit_beta()) \
            - sol.rate
        drop = sol.rate - worst_case_rate(LAM2, LAM2_BS, sol.p, pb_again,
                                          unit_beta())
        assert -1e-12 <= gain <= 1e-8
        assert -1e-12 <= drop <= 1e-8

    def test_monotone_nonincreasing_in_interferer_power(self):
        for psi in (0.3, 0.6, 0.9):
            lam2 = psi * np.array([0.81, 0.64, 0.49])
            lam2_bs = psi * np.array([0.64, 0.49, 0.25])
            prev = np.inf
            for ratio in range(15):
                sol = solve_saddle(lam2, lam2_bs, unit_beta(psi), 5.0, 5.0 * ratio)
                assert sol.rate <= prev + 1e-9
                prev = sol.rate

    def test_value_between_jammed_and_free_bounds(self):
        free = solve_saddle(LAM2, LAM2_BS, unit_beta(), 5.0, 0.0).rate
        sol = solve_saddle(LAM2, LAM2_BS, unit_beta(), 5.0, 5.0)
        naive = p2p_best_response(LAM2, LAM2_BS, np.zeros(3), unit_beta(), 5.0)
        worst_vs_naive = worst_case_rate(
            LAM2, LAM2_BS,
            naive,
            bs_best_response(LAM2 * naive, unit_beta(), LAM2_BS, 5.0)[0],
            unit_beta())
        # adapting to the worst interference can only help over staying naive
        assert worst_vs_naive - 1e-9 <= sol.rate <= free + 1e-9

    def test_degenerate_interference_gains(self):
        sol = solve_saddle(LAM2, np.zeros(3), unit_beta(), 5.0, 9.0)
        assert sol.rate == pytest.approx(1.016511, abs=1e-4)
        assert sol.pb.sum() == pytest.approx(9.0, abs=1e-9)

    def test_solution_metadata(self):
        sol = solve_saddle(LAM2, LAM2_BS, unit_beta(), 5.0, 5.0)
        assert sol.iterations >= 1
        assert abs(sol.gap) <= 1e-10


def _grid(psis, ratios):
    """Stacked spectra of the baseline link over a (psi, ratio) grid."""
    psi, ratio = (np.array(v, dtype=float)
                  for v in zip(*[(psi, r) for psi in psis for r in ratios]))
    psi = psi[:, None]
    return (psi * np.array([0.81, 0.64, 0.49]), psi * np.array([0.64, 0.49, 0.25]),
            np.repeat(psi + 1.0, 3, axis=1), 5.0, 5.0 * ratio)


class TestSolveSaddleBatch:
    def test_rows_match_single_point_solves_bitwise(self):
        # Pb = 0, a dead link mode (alpha = 0 there), a jammed-away mode,
        # lambda2_bs = 0 on one and on all modes, P = 0, and ordinary points
        lam2 = np.array([LAM2, LAM2, [0.3, 0.2, 0.0], [1.0, 0.01, 0.005],
                         LAM2, LAM2, LAM2, 0.9 * LAM2])
        lam2_bs = np.array([LAM2_BS, np.zeros(3), LAM2_BS, [0.6, 0.5, 0.4],
                            [0.2, 0.0, 0.1], LAM2_BS, LAM2_BS, LAM2_BS])
        beta = np.full((len(lam2), 3), 1.3)
        power = np.array([5.0, 5.0, 5.0, 0.5, 5.0, 0.0, 5.0, 5.0])
        budget = np.array([0.0, 9.0, 7.0, 3.0, 9.0, 4.0, 25.0, 70.0])
        batch = solve_saddle_batch(lam2, lam2_bs, beta, power, budget)
        assert batch.converged.all()
        for b in range(len(lam2)):
            prof = unit_beta()
            alone = solve_saddle(lam2[b], lam2_bs[b], prof, power[b], budget[b])
            assert alone.rate == batch.rate[b]
            assert alone.iterations == batch.iterations[b]
            assert np.array_equal(alone.pb, batch.pb[b])

    def test_row_holds_the_values_of_its_row(self):
        batch = solve_saddle_batch(*_grid((0.3, 0.9), (0, 1, 5)))
        for b in range(len(batch.rate)):
            row = batch.row(b)
            for field in dataclasses.fields(batch):
                assert np.array_equal(getattr(row, field.name), getattr(batch, field.name)[b])

    def test_iterations_is_an_int(self):
        # a row's fields are numpy scalars: the benchmark tracer reads int(iterations)
        sol = solve_saddle(LAM2, LAM2_BS, unit_beta(), 5.0, 5.0)
        assert isinstance(sol.iterations, numbers.Integral) and isinstance(sol.rate, float)
        assert sol.p.shape == sol.pb.shape == (3,) and sol.converged

    @pytest.mark.parametrize("psis, ratios", [
        ((0.3, 0.6, 0.9), range(15)),
        (tuple(i / 10 for i in range(1, 10)), range(0, 15, 2)),
    ])
    def test_duality_gap_certifies_every_grid_point(self, psis, ratios):
        # the pinned sweeps' grids: every row is certified, nonnegative, and spends
        # both budgets to within 1e-9
        lam2, lam2_bs, beta, power, budget = _grid(psis, ratios)
        batch = solve_saddle_batch(lam2, lam2_bs, beta, power, budget)
        assert batch.converged.all()
        assert np.all(batch.gap >= -1e-11) and np.all(batch.gap <= 5e-9)
        assert np.all(batch.p >= 0.0) and np.all(batch.pb >= 0.0)
        assert np.all(np.abs(batch.p.sum(axis=-1) - power) <= 1e-9)
        assert np.all(np.abs(batch.pb.sum(axis=-1) - budget) <= 1e-9)

    def test_gap_is_zero_without_interference(self):
        sol = solve_saddle(LAM2, LAM2_BS, unit_beta(), 5.0, 0.0)
        assert sol.gap == 0.0

    def test_unconverged_row_raises_only_for_itself(self, monkeypatch):
        # ratio 1 takes 7 root steps, so a cap of 3 stops it short
        monkeypatch.setattr(saddle, "ROOT_STEPS", 3)
        batch = solve_saddle_batch(*_grid((0.3,), (0, 1)))
        assert list(batch.converged) == [True, False]
        assert batch.row(0).iterations == 1
        with pytest.raises(ConvergenceError) as err:
            batch.row(1)
        assert err.value.iterations == 3

    def test_no_usable_link_mode_gives_zero_rate(self):
        sol = solve_saddle(np.zeros(3), np.zeros(3), unit_beta(0.0), 5.0, 10.0)
        assert sol.rate == 0.0
        assert np.all(sol.p == 0.0)

    @pytest.mark.parametrize("field", [0, 1, 2, 3, 4])
    def test_non_finite_input_rejected(self, field):
        args = list(_grid((0.3,), (1,)))
        args[field] = np.full(np.shape(args[field]), np.nan)
        with pytest.raises(InvalidInputError):
            solve_saddle_batch(*args)

    @pytest.mark.parametrize("power, budget", [(1e120, 1e120), (1e120, 5.0), (5.0, 1e120),
                                               (MAX_BUDGET, np.nextafter(MAX_BUDGET, np.inf))])
    def test_budget_above_bound_rejected(self, power, budget):
        # past MAX_BUDGET the value drifts (to 3.99505 at 1e120) yet would still
        # converge, so the library refuses it as the config parser does
        with pytest.raises(InvalidInputError, match="budgets in"):
            solve_saddle_batch(LAM2[None], LAM2_BS[None], np.full((1, 3), 1.3), power, budget)

    @pytest.mark.parametrize("beta", [1.3e-30, 1.3e-40])
    def test_tiny_noise_at_the_budget_bound(self, beta):
        # equal gains split both budgets evenly, so every mode's SINR is 1 and the
        # value is 3 bits; a linear bisection of mu from its upper end never
        # reached the root here (84.45 at 1.3e-30, no convergence at 1.3e-40)
        gains = np.full((1, 3), 0.3)
        batch = solve_saddle_batch(gains, gains, np.full((1, 3), beta), MAX_BUDGET,
                                   MAX_BUDGET)
        assert batch.converged[0]
        assert batch.rate[0] == pytest.approx(3.0, abs=1e-9)
        assert abs(batch.gap[0]) <= 1e-9

    @pytest.mark.parametrize("budget", [1e20, MAX_BUDGET])
    def test_budget_at_bound_keeps_the_large_budget_value(self, budget):
        batch = solve_saddle_batch(LAM2[None], LAM2_BS[None], np.full((1, 3), 1.3),
                                   budget, budget)
        assert batch.converged[0]
        assert batch.rate[0] == pytest.approx(3.95098, abs=1e-5)

    def test_former_gap_failure_link_is_a_certified_saddle(self):
        # damped best responses stalled on this link with a duality gap of 1.06e-3;
        # a refined simplex search over the interferer's split gives 0.01780202562075
        link = ScenarioConfig(sigma_p2p=(0.7, 0.5, 0.2), sigma_bs=(2.9, 2.0, 1.9),
                              sigma2_n=0.01, P=1.0, psi=0.6)
        batch = solve_links([link], [10.0])
        assert batch.converged[0] and abs(batch.gap[0]) <= 1e-10
        assert batch.rate[0] == pytest.approx(0.01780202562075, abs=1e-9)

    def test_failed_row_names_its_steps_and_gap(self, monkeypatch):
        monkeypatch.setattr(saddle, "ROOT_STEPS", 3)
        batch = solve_saddle_batch(*_grid((0.3,), (1,)))
        assert not batch.converged[0]
        with pytest.raises(ConvergenceError,
                           match=f"after 3 steps \\(duality gap {batch.gap[0]:.3e}\\)"):
            batch.row(0)

    def test_links_solve_as_their_worst_case_modes(self):
        links = [ScenarioConfig(psi=psi, sigma2_w=2.0) for psi in (0.3, 0.6)]
        batch = solve_links(links, [0.0, 5.0])
        lam2, lam2_bs, beta = (np.stack(rows) for rows in zip(*(link.modes() for link in links)))
        assert np.array_equal(lam2[1], 0.6 * np.square([0.9, 0.8, 0.7]))
        assert np.array_equal(beta[1], np.full(3, 0.6 * 2.0 + 1.0))
        alone = solve_saddle(lam2[1], lam2_bs[1], beta[1], 5.0, 5.0)
        assert alone.rate == batch.rate[1] and np.array_equal(alone.pb, batch.pb[1])


def random_links(count, k=3, seed=1):
    """Seeded in-range links: K = k, M = 3, N = 5, profiles sorted from U(0, 3),
    noises log-uniform in [1e-2, 10], P log-uniform in [0.1, 10], psi from
    U(0.05, 1) and an interferer budget of 1 to 14 times P. Every 7th link has a
    zero link singular value, every 5th one or two zero interferer ones (modes
    the interferer cannot reach), every 9th psi 0 or 1, and every 11th ratio 0."""
    rng = np.random.default_rng(seed)
    links, budgets = [], []
    for i in range(count):
        sigma_p2p, sigma_bs = (np.sort(rng.uniform(0, 3, k))[::-1] for _ in range(2))
        sigma2_w, sigma2_n = 10.0 ** rng.uniform(-2, 1, 2)
        p, psi, ratio = 10.0 ** rng.uniform(-1, 1), rng.uniform(0.05, 1), rng.integers(1, 15)
        sigma_p2p[-1] *= i % 7 != 0
        sigma_bs[-1 - i % 2:] *= i % 5 != 0
        psi = float(i // 9 % 2) if i % 9 == 0 else psi
        links.append(ScenarioConfig(K=k, sigma_p2p=tuple(sigma_p2p), sigma_bs=tuple(sigma_bs),
                                    sigma2_w=sigma2_w, sigma2_n=sigma2_n, P=p, psi=psi))
        budgets.append(0.0 if i % 11 == 0 else ratio * p)
    # both budgets at the bound, and each alone at it against an ordinary other
    for p, ratio in ((MAX_BUDGET, 1.0), (MAX_BUDGET, 1e-100), (1.0, MAX_BUDGET)):
        links.append(ScenarioConfig(K=k, sigma_p2p=(0.9,) * k, sigma_bs=(0.8,) * k, P=p))
        budgets.append(ratio * p)
    return links, budgets


class TestRandomLinks:
    """Seeded in-range links, edge regimes among them: every row is a certified
    saddle point and carries the bits it gets alone."""

    @pytest.mark.parametrize("k, count", [(3, 400), (2, 60)])  # K < M = 3 too
    def test_every_row_is_a_certified_saddle_point(self, k, count):
        links, budgets = random_links(count, k)
        batch = solve_links(links, budgets)
        assert batch.converged.all()
        assert np.max(np.abs(batch.gap)) <= 1e-10
        # both budgets are spent, except by a link with no usable mode (psi = 0)
        usable = np.array([link.modes()[0].any() for link in links])
        assert np.allclose(batch.p.sum(axis=-1), usable * [link.P for link in links],
                           rtol=1e-12, atol=0.0)
        assert np.allclose(batch.pb.sum(axis=-1), budgets, rtol=1e-12, atol=0.0)

    def test_rows_carry_the_same_bits_alone(self):
        links, budgets = random_links(400)
        batch = solve_links(links, budgets)
        for b, (link, budget) in enumerate(zip(links, budgets)):
            alone = solve_links([link], [budget])
            for field in ("p", "pb", "rate", "iterations", "gap"):
                assert getattr(alone, field).tobytes() == getattr(batch, field)[b:b + 1].tobytes()

import numpy as np
import pytest

from swiptmimo.acceptance import (projected_gradient_worst_allocation,
                                  saddle_certificate)
from swiptmimo.errors import ConvergenceError, InvalidInputError
from swiptmimo.rates import MAX_BUDGET, NoiseProfile, worst_case_rate
from swiptmimo.saddle import (bs_best_response, p2p_best_response, solve_saddle,
                              solve_saddle_batch)

LAM2 = 0.3 * np.array([0.81, 0.64, 0.49])
LAM2_BS = 0.3 * np.array([0.64, 0.49, 0.25])


def noise(psi=0.3, k=3):
    return NoiseProfile(1.0, 1.0, np.full(k, psi))


class TestP2pBestResponse:
    def test_no_interference_is_plain_waterfilling(self):
        alloc = p2p_best_response(LAM2, LAM2_BS, np.zeros(3), noise(), 5.0)
        assert alloc.p == pytest.approx([3.21052, 1.78948, 0.0], abs=1e-5)

    def test_identical_modes_split_evenly(self):
        lam2 = np.full(3, 0.5)
        alloc = p2p_best_response(lam2, lam2, np.full(3, 2.0), noise(), 6.0)
        assert np.allclose(alloc.p, 2.0)

    def test_heavily_jammed_mode_abandoned(self):
        p_bs = np.array([1000.0, 0.0, 0.0])
        alloc = p2p_best_response(LAM2, LAM2_BS, p_bs, noise(), 5.0)
        assert alloc.p[0] == 0.0
        assert alloc.total == pytest.approx(5.0, abs=1e-9)


class TestBsBestResponse:
    def test_single_mode_takes_all(self):
        alloc = bs_best_response([0.7], [1.3], [0.2], 5.0)
        assert alloc.p == pytest.approx([5.0], abs=1e-8)

    def test_nothing_to_jam(self):
        alloc = bs_best_response(np.zeros(3), np.full(3, 1.3), LAM2_BS, 5.0)
        assert np.allclose(alloc.p, 0.0)

    def test_zero_budget(self):
        alloc = bs_best_response([0.7, 0.3], [1.3, 1.3], [0.2, 0.1], 0.0)
        assert np.allclose(alloc.p, 0.0)

    def test_matches_projected_gradient_minimizer(self):
        alpha = np.array([0.78, 0.34])
        beta = np.array([1.3, 1.3])
        lam2_bs = np.array([0.192, 0.147])
        closed = bs_best_response(alpha, beta, lam2_bs, 5.0).p
        numeric = projected_gradient_worst_allocation(alpha, beta, lam2_bs, 5.0)
        assert np.max(np.abs(closed - numeric)) <= 1e-6

    def test_budget_binds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            alpha = rng.uniform(0.05, 2.0, size=3)
            pb = float(rng.uniform(0.1, 30.0))
            alloc = bs_best_response(alpha, np.full(3, 1.3), LAM2_BS, pb)
            assert abs(alloc.total - pb) <= 1e-9

    def test_stationarity_equalized_on_active_modes(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            alpha = rng.uniform(0.05, 2.0, size=3)
            beta = rng.uniform(0.5, 2.0, size=3)
            g = rng.uniform(0.05, 1.0, size=3)
            pb = float(rng.uniform(0.5, 20.0))
            p_bs = bs_best_response(alpha, beta, g, pb).p
            den = g * p_bs + beta
            marginal = alpha * g / (den * (den + alpha))
            active = p_bs > 1e-12
            assert active.any()
            mu = marginal[active].mean()
            # stationarity residual on active modes, slack direction on the rest
            assert np.max(np.abs(marginal[active] - mu)) <= 1e-8 * max(mu, 1.0)
            assert np.all(marginal[~active] <= mu + 1e-8)


class TestSolveSaddle:
    def test_zero_interferer_budget_endpoint(self):
        sol = solve_saddle(LAM2, LAM2_BS, noise(), 5.0, 0.0)
        assert sol.rate == pytest.approx(1.016649, abs=1e-3)
        assert sol.pb_star.total == 0.0

    def test_budget_conservation(self):
        sol = solve_saddle(LAM2, LAM2_BS, noise(), 5.0, 25.0)
        assert sol.p_star.total == pytest.approx(5.0, abs=1e-9)
        assert sol.pb_star.total == pytest.approx(25.0, abs=1e-9)

    @pytest.mark.parametrize("ratio", [1, 5, 14])
    def test_deviation_certificate(self, ratio):
        sol = solve_saddle(LAM2, LAM2_BS, noise(), 5.0, 5.0 * ratio)
        assert saddle_certificate(LAM2, LAM2_BS, noise(), 5.0, 5.0 * ratio,
                                  sol, np.random.default_rng(ratio))

    def test_best_responses_cannot_improve_value(self):
        sol = solve_saddle(LAM2, LAM2_BS, noise(), 5.0, 10.0)
        p_again = p2p_best_response(LAM2, LAM2_BS, sol.pb_star, noise(), 5.0)
        pb_again = bs_best_response(LAM2 * sol.p_star.p, noise().beta,
                                    LAM2_BS, 10.0)
        gain = worst_case_rate(LAM2, LAM2_BS, p_again, sol.pb_star, noise()) \
            - sol.rate
        drop = sol.rate - worst_case_rate(LAM2, LAM2_BS, sol.p_star, pb_again,
                                          noise())
        assert -1e-12 <= gain <= 1e-8
        assert -1e-12 <= drop <= 1e-8

    def test_monotone_nonincreasing_in_interferer_power(self):
        for psi in (0.3, 0.6, 0.9):
            lam2 = psi * np.array([0.81, 0.64, 0.49])
            lam2_bs = psi * np.array([0.64, 0.49, 0.25])
            prev = np.inf
            for ratio in range(15):
                sol = solve_saddle(lam2, lam2_bs, noise(psi), 5.0, 5.0 * ratio)
                assert sol.rate <= prev + 1e-9
                prev = sol.rate

    def test_value_between_jammed_and_free_bounds(self):
        free = solve_saddle(LAM2, LAM2_BS, noise(), 5.0, 0.0).rate
        sol = solve_saddle(LAM2, LAM2_BS, noise(), 5.0, 5.0)
        naive = p2p_best_response(LAM2, LAM2_BS, np.zeros(3), noise(), 5.0)
        worst_vs_naive = worst_case_rate(
            LAM2, LAM2_BS,
            naive,
            bs_best_response(LAM2 * naive.p, noise().beta, LAM2_BS, 5.0),
            noise())
        # adapting to the worst interference can only help over staying naive
        assert worst_vs_naive - 1e-9 <= sol.rate <= free + 1e-9

    def test_degenerate_interference_gains(self):
        sol = solve_saddle(LAM2, np.zeros(3), noise(), 5.0, 9.0)
        assert sol.rate == pytest.approx(1.016511, abs=1e-4)
        assert sol.pb_star.total == pytest.approx(9.0, abs=1e-9)

    def test_solution_metadata(self):
        sol = solve_saddle(LAM2, LAM2_BS, noise(), 5.0, 5.0)
        assert sol.iterations >= 1
        assert sol.residual < 1e-10


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
            prof = NoiseProfile(1.0, 1.0, np.full(3, 0.3))
            alone = solve_saddle(lam2[b], lam2_bs[b], prof, power[b], budget[b])
            assert alone.rate == batch.rate[b]
            assert alone.iterations == batch.iterations[b]
            assert np.array_equal(alone.pb_star.p, batch.pb[b])

    def test_iterations_is_an_int(self):
        sol = solve_saddle(LAM2, LAM2_BS, noise(), 5.0, 5.0)
        assert type(sol.iterations) is int and type(sol.rate) is float

    @pytest.mark.parametrize("psis, ratios", [
        ((0.3, 0.6, 0.9), range(15)),
        (tuple(i / 10 for i in range(1, 10)), range(0, 15, 2)),
    ])
    def test_duality_gap_certifies_every_grid_point(self, psis, ratios):
        batch = solve_saddle_batch(*_grid(psis, ratios))
        assert batch.converged.all()
        assert np.all(batch.gap >= -1e-11) and np.all(batch.gap <= 5e-9)

    def test_gap_is_zero_without_interference(self):
        sol = solve_saddle(LAM2, LAM2_BS, noise(), 5.0, 0.0)
        assert sol.gap == 0.0

    def test_unconverged_row_raises_only_for_itself(self):
        batch = solve_saddle_batch(*_grid((0.3,), (0, 5)), max_iter=3)
        assert list(batch.converged) == [True, False]
        assert batch.solution(0).iterations == 1
        with pytest.raises(ConvergenceError) as err:
            batch.solution(1)
        assert err.value.iterations == 3

    def test_no_usable_link_mode_gives_zero_rate(self):
        sol = solve_saddle(np.zeros(3), np.zeros(3), noise(0.0), 5.0, 10.0)
        assert sol.rate == 0.0
        assert np.all(sol.p_star.p == 0.0)

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

    @pytest.mark.parametrize("budget", [1e20, MAX_BUDGET])
    def test_budget_at_bound_keeps_the_large_budget_value(self, budget):
        batch = solve_saddle_batch(LAM2[None], LAM2_BS[None], np.full((1, 3), 1.3),
                                   budget, budget)
        assert batch.converged[0]
        assert batch.rate[0] == pytest.approx(3.95098, abs=1e-5)

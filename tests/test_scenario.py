import numpy as np
import pytest

from swiptmimo.errors import InvalidInputError
from swiptmimo.scenario import (ScenarioConfig, equivalent_channel, reference_scenario,
                                synthesize_channel)


class TestScenarioConfig:
    def test_reference_defaults(self):
        cfg = reference_scenario(0.3)
        assert cfg.K == 3 and cfg.M == 3 and cfg.N == 5
        assert cfg.sigma_p2p == (0.9, 0.8, 0.7)
        assert cfg.sigma_bs == (0.8, 0.7, 0.5)
        assert cfg.P == 5.0

    def test_dof_assumption_enforced(self):
        with pytest.raises(InvalidInputError):
            ScenarioConfig(K=4, M=3, N=5, sigma_p2p=(1, 1, 1),
                           sigma_bs=(1, 1, 1, 1), psi=(0.5,) * 4)

    def test_split_range_enforced(self):
        with pytest.raises(InvalidInputError):
            reference_scenario(1.2)

    def test_profile_order_enforced(self):
        with pytest.raises(InvalidInputError):
            ScenarioConfig(sigma_p2p=(0.7, 0.8, 0.9))

    @pytest.mark.parametrize("field", ["P", "sigma2_w", "sigma2_n"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_scalars_rejected(self, field, value):
        with pytest.raises(InvalidInputError):
            ScenarioConfig(**{field: value})

    def test_non_finite_split_rejected(self):
        with pytest.raises(InvalidInputError):
            ScenarioConfig(psi=(0.3, np.nan, 0.3))

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 1.5), ("trials", 0), ("trials", 2.5)])
    def test_seed_and_trials_must_be_counts(self, field, value):
        with pytest.raises(InvalidInputError):
            ScenarioConfig(**{field: value})

    def test_trials_bounded_at_two_to_the_32(self):
        # every trial index is then one SeedSequence entropy word
        assert ScenarioConfig(trials=2 ** 32).trials == 2 ** 32
        with pytest.raises(InvalidInputError, match="exceeds") as err:
            ScenarioConfig(trials=2 ** 32 + 1)
        assert err.value.keys == ("trials",)


    @pytest.mark.parametrize("fields, key", [
        (dict(P=1e200), "p"),
        (dict(sigma2_w=1e-300, sigma2_n=1e-300), "sigma2_w"),
        (dict(sigma_p2p=(1e200, 1, 1)), "sigma_p2p"),
    ], ids=["huge-budget", "tiny-noise", "huge-profile"])
    def test_library_path_meets_the_config_file_bounds(self, fields, key):
        # a config file has always been refused these; built in code, they
        # overflowed in the solvers or ran them without end
        with pytest.raises(InvalidInputError) as err:
            ScenarioConfig(**fields)
        assert err.value.keys == (key,)

    @pytest.mark.parametrize("fields, keys", [
        (dict(K=2), ("sigma_p2p", "k", "m")),
        (dict(N=2), ("sigma_bs", "k", "n")),
        (dict(K=4, sigma_bs=(1, 1, 1, 1)), ("k", "m", "n")),
        (dict(psi=(0.3, 0.3)), ("psi", "k")),
    ])
    def test_cross_field_errors_name_every_key_they_read(self, fields, keys):
        with pytest.raises(InvalidInputError) as err:
            ScenarioConfig(**fields)
        assert err.value.keys == keys

    def test_one_split_ratio_splits_every_antenna(self):
        cfg = ScenarioConfig(K=2, sigma_p2p=(0.9, 0.8), sigma_bs=(0.8, 0.7), psi=0.6)
        assert cfg.psi == (0.6, 0.6)

    def test_beta_and_worst_case_modes(self):
        cfg = ScenarioConfig(psi=(0.2, 0.5, 0.8), sigma2_w=2.0, sigma2_n=0.5)
        lam2, lam2_bs, beta = cfg.modes()
        assert np.array_equal(beta, cfg.beta)
        assert np.allclose(beta, [0.9, 1.5, 2.1], rtol=0, atol=1e-15)
        assert np.allclose(lam2, [0.2 * 0.81, 0.5 * 0.64, 0.8 * 0.49], rtol=0, atol=1e-15)
        assert np.allclose(lam2_bs, [0.2 * 0.64, 0.5 * 0.49, 0.8 * 0.25], rtol=0, atol=1e-15)


class TestSynthesizeChannel:
    def test_scalar_channel(self):
        h = synthesize_channel([1.0], 1, 1, np.random.default_rng(0))
        assert h.shape == (1, 1)
        assert abs(abs(h[0, 0]) - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", [0, 5, 99])
    def test_square_profile_recovered(self, seed):
        h = synthesize_channel([0.9, 0.8, 0.7], 3, 3, np.random.default_rng(seed))
        sigma = np.linalg.svd(h, compute_uv=False)
        assert np.allclose(sigma, [0.9, 0.8, 0.7], atol=1e-10)

    def test_wide_profile_recovered_rank(self):
        h = synthesize_channel([0.8, 0.7, 0.5], 3, 5, np.random.default_rng(1))
        sigma = np.linalg.svd(h, compute_uv=False)
        assert np.allclose(sigma, [0.8, 0.7, 0.5], atol=1e-10)
        assert np.linalg.matrix_rank(h, tol=1e-8) == 3

    def test_seed_determinism(self):
        h1 = synthesize_channel([1.0, 0.5], 2, 4, np.random.default_rng(21))
        h2 = synthesize_channel([1.0, 0.5], 2, 4, np.random.default_rng(21))
        assert np.array_equal(h1, h2)

    def test_profile_too_long(self):
        with pytest.raises(InvalidInputError):
            synthesize_channel([1.0, 0.9, 0.8], 2, 3, np.random.default_rng(0))


class TestEquivalentChannels:
    def test_full_id_split_is_identity(self):
        rng = np.random.default_rng(2)
        h = synthesize_channel([0.9, 0.8, 0.7], 3, 3, rng)
        h_bs = synthesize_channel([0.8, 0.7, 0.5], 3, 5, rng)
        assert np.allclose(equivalent_channel(np.full(3, 1.0), h), h)
        assert np.allclose(equivalent_channel(np.full(3, 1.0), h_bs), h_bs)

    def test_full_eh_split_is_zero(self):
        rng = np.random.default_rng(3)
        h = synthesize_channel([0.9, 0.8, 0.7], 3, 3, rng)
        hhat = equivalent_channel(np.full(3, 0.0), h)
        assert np.allclose(hhat, 0.0)
        assert np.allclose(np.linalg.svd(hhat, compute_uv=False), 0.0)

    def test_uniform_split_scales_gains(self):
        # hand oracle: squared gains scale by psi
        rng = np.random.default_rng(4)
        h = synthesize_channel([0.9, 0.8, 0.7], 3, 3, rng)
        sigma = np.linalg.svd(equivalent_channel(np.full(3, 0.3), h), compute_uv=False)
        assert np.allclose(sigma ** 2, [0.243, 0.192, 0.147], atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_singular_values_scale_for_random_channels(self, seed):
        rng = np.random.default_rng(seed)
        h = (rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)))
        psi = float(rng.uniform(0.05, 1.0))
        sigma_hat = np.linalg.svd(equivalent_channel(np.full(3, psi), h), compute_uv=False)
        sigma = np.linalg.svd(h, compute_uv=False)
        assert np.allclose(sigma_hat, np.sqrt(psi) * sigma, atol=1e-10)

    def test_stack_matches_each_row_bit_for_bit(self):
        rng = np.random.default_rng(6)
        psi = np.array([0.2, 0.5, 0.9])
        stack = rng.standard_normal((4, 3, 5)) + 1j * rng.standard_normal((4, 3, 5))
        whole = equivalent_channel(psi, stack)
        assert whole.shape == stack.shape
        for t, h in enumerate(stack):
            assert whole[t].tobytes() == equivalent_channel(psi, h).tobytes()

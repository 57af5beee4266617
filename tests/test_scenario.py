import numpy as np
import pytest

from swiptmimo.errors import InvalidInputError
from swiptmimo.montecarlo import ensemble_for
from swiptmimo.scenario import ScenarioConfig, equivalent_channel, reference_scenario


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
        (dict(sigma_p2p=((0.9,), (0.8,), (0.7,))), "sigma_p2p"),
        (dict(sigma_bs=((0.8, 0.7), 0.5)), "sigma_bs"),
        (dict(psi=np.array([[0.3] * 3])), "psi"),
        (dict(psi=((0.3,), 0.3, 0.3)), "psi"),
        (dict(sigma_p2p=np.array([[0.9, 0.8, 0.7]])), "sigma_p2p"),
        (dict(trials=[4]), "trials"),
        (dict(P=[5.0]), "p"),
        (dict(seed=[42]), "seed"),
        (dict(K=(3,)), "k"),
        (dict(sigma2_w=np.array([1.0])), "sigma2_w"),
        (dict(sigma2_n=np.array(1.0)), "sigma2_n"),
        (dict(P="5"), "p"),
    ], ids=["nested-profile", "ragged-profile", "2d-psi", "nested-psi", "2d-profile",
            "trials-list", "p-list", "seed-list", "k-tuple", "noise-array", "noise-0d",
            "p-string"])
    def test_wrong_shapes_are_refused_naming_the_field(self, fields, key):
        # each scalar field is one number, each profile and psi flat: a wrong shape is an
        # InvalidInputError naming its key, never a raw numpy or Python error
        with pytest.raises(InvalidInputError) as err:
            ScenarioConfig(**fields)
        assert err.value.keys == (key,)

    def test_flat_arrays_and_one_number_psi_are_accepted(self):
        cfg = ScenarioConfig(sigma_p2p=np.array([0.9, 0.8, 0.7]), psi=np.array(0.4))
        assert cfg.sigma_p2p == (0.9, 0.8, 0.7) and cfg.psi == (0.4, 0.4, 0.4)
        assert ScenarioConfig(psi=np.array([0.2, 0.5, 0.8])).psi == (0.2, 0.5, 0.8)

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


def link(seed):
    """Trial 0's link and BS channels of the reference scenario at `seed`."""
    ens = ensemble_for(reference_scenario(trials=1, seed=seed))
    return ens.h[0], ens.h_bs[0]


class TestSynthesizeChannel:
    """ensemble_for's channels U diag(sigma) V^H carry the profiles' singular values."""

    def test_scalar_channel(self):
        cfg = ScenarioConfig(K=1, M=1, N=1, sigma_p2p=(1.0,), sigma_bs=(1.0,), trials=1, seed=0)
        h = ensemble_for(cfg).h[0]
        assert h.shape == (1, 1)
        assert abs(abs(h[0, 0]) - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", [0, 5, 99])
    def test_square_profile_recovered(self, seed):
        sigma = np.linalg.svd(link(seed)[0], compute_uv=False)
        assert np.allclose(sigma, [0.9, 0.8, 0.7], atol=1e-10)

    def test_wide_profile_recovered_rank(self):
        h_bs = link(1)[1]
        assert h_bs.shape == (3, 5)
        sigma = np.linalg.svd(h_bs, compute_uv=False)
        assert np.allclose(sigma, [0.8, 0.7, 0.5], atol=1e-10)
        assert np.linalg.matrix_rank(h_bs, tol=1e-8) == 3

    def test_seed_determinism(self):
        cfg = ScenarioConfig(K=2, M=2, N=4, sigma_p2p=(1.0, 0.5), sigma_bs=(1.0, 0.5),
                             trials=2, seed=21)
        first, second = ensemble_for(cfg), ensemble_for(cfg)
        for name in ("h", "h_bs", "user_dirs"):
            assert np.array_equal(getattr(first, name), getattr(second, name))

    def test_profile_too_long(self):
        # a profile longer than min(K, M) fits no channel: the config refuses it
        with pytest.raises(InvalidInputError, match="sigma_p2p has length 3"):
            ScenarioConfig(K=2, M=3, N=3, sigma_p2p=(1.0, 0.9, 0.8), sigma_bs=(0.8, 0.7))


class TestEquivalentChannels:
    def test_full_id_split_is_identity(self):
        h, h_bs = link(2)
        assert np.allclose(equivalent_channel(np.full(3, 1.0), h), h)
        assert np.allclose(equivalent_channel(np.full(3, 1.0), h_bs), h_bs)

    def test_full_eh_split_is_zero(self):
        h = link(3)[0]
        hhat = equivalent_channel(np.full(3, 0.0), h)
        assert np.allclose(hhat, 0.0)
        assert np.allclose(np.linalg.svd(hhat, compute_uv=False), 0.0)

    def test_uniform_split_scales_gains(self):
        # hand oracle: squared gains scale by psi
        h = link(4)[0]
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

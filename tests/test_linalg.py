import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swiptmimo import linalg
from swiptmimo.errors import InvalidInputError
from swiptmimo.harvesting import top_eigpair
from swiptmimo.linalg import hermitian_eigvals, hermitize

ORACLE = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def with_spectrum(spectrum, seed):
    """U diag(spectrum) U^H for a Haar unitary U drawn from `seed`."""
    u = linalg.haar_unitary(len(spectrum), np.random.default_rng(seed))
    return (u * np.asarray(spectrum, dtype=float)) @ u.conj().T


def lapack(a):
    return np.linalg.eigvalsh(hermitize(a))


def assert_matches_lapack(a):
    """hermitian_eigvals agrees with LAPACK within 1e-13 of each row's largest |eigenvalue|."""
    got, want = hermitian_eigvals(a), lapack(a)
    assert got.shape == want.shape
    scale = np.max(np.abs(want), axis=-1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


class TestHermEig:
    """The top eigenpair kernel that energy steering and the combiner read."""

    def test_diagonal(self):
        w, v = top_eigpair(np.diag([2.0, 1.0])[None])
        assert np.allclose(w, [2.0])
        assert np.allclose(np.abs(v), [[1.0, 0.0]])

    def test_identity(self):
        w, _ = top_eigpair(np.eye(3)[None])
        assert np.allclose(w, 1.0)

    def test_gram_matrix_is_psd(self):
        rng = np.random.default_rng(3)
        b = random_complex(rng, (3, 3))
        w, v = top_eigpair((b.conj().T @ b)[None])
        assert np.all(w >= -1e-10)
        assert np.linalg.norm(v[0]) == pytest.approx(1.0, abs=1e-12)

    def test_eigen_residual(self):
        rng = np.random.default_rng(4)
        b = random_complex(rng, (4, 4))
        a = b.conj().T @ b
        w, v = top_eigpair(a[None])
        scale = np.linalg.norm(a)
        assert np.linalg.norm(a @ v[0] - w[0] * v[0]) <= 1e-10 * scale
        assert w[0] == pytest.approx(np.linalg.eigvalsh(a)[-1], abs=1e-12 * scale)

    def test_eigvals_invariant_under_unitary_conjugation(self):
        rng = np.random.default_rng(5)
        b = random_complex(rng, (3, 3))
        a = b.conj().T @ b
        u = linalg.haar_unitary(3, rng)
        w_orig, _ = top_eigpair(a[None])
        w_conj, _ = top_eigpair((u @ a @ u.conj().T)[None])
        assert np.allclose(w_orig, w_conj, atol=1e-10 * max(np.linalg.norm(a), 1))


class TestHaarUnitary:
    def test_dimension_one_is_unit_modulus(self):
        u = linalg.haar_unitary(1, np.random.default_rng(0))
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", [0, 11, 42])
    def test_unitarity(self, seed):
        u = linalg.haar_unitary(3, np.random.default_rng(seed))
        assert np.linalg.norm(u.conj().T @ u - np.eye(3)) < 1e-12

    def test_same_seed_bit_identical(self):
        u1 = linalg.haar_unitary(4, np.random.default_rng(9))
        u2 = linalg.haar_unitary(4, np.random.default_rng(9))
        assert np.array_equal(u1, u2)

    def test_isotropy_of_first_entry(self):
        # |U_11|^2 ~ Beta(1, 2) for 3x3 Haar: mean 1/3, var 1/18
        draws = 10_000
        rng = np.random.default_rng(123)
        z = linalg.complex_gaussian((draws, 3, 3), rng)
        u = linalg.haar_from_gaussian(z)
        mean = np.mean(np.abs(u[:, 0, 0]) ** 2)
        three_sigma = 3 * np.sqrt((1 / 18) / draws)
        assert abs(mean - 1 / 3) < three_sigma

    def test_invalid_dimension(self):
        with pytest.raises(InvalidInputError):
            linalg.haar_unitary(0, np.random.default_rng(0))


SPECTRA = {
    "positive": (0.3, 1.7, 4.2),
    "indefinite": (-2.5, 0.4, 3.1),
    "double-top": (0.5, 2.0, 2.0),
    "double-bottom": (-1.0, -1.0, 3.0),
    "triple": (1.5, 1.5, 1.5),
    "near-double-1e-7": (0.5, 2.0, 2.0 + 1e-7),
    "near-double-1e-9": (0.5, 2.0 - 1e-9, 2.0),
    "rank-1": (0.0, 0.0, 3.0),
    "rank-2": (0.0, 1.0, 3.0),
    "zero": (0.0, 0.0, 0.0),
    "spread-1e10": (1e-10, 1.0, 1e10),
}


class TestHermitianEigvals:
    """The eigenvalue-only kernel: the 3 x 3 closed form against LAPACK, and its routing."""

    @pytest.mark.parametrize("spectrum", SPECTRA.values(), ids=SPECTRA)
    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e102])
    def test_matches_lapack_on_spectrum(self, spectrum, scale):
        a = np.stack([with_spectrum(np.multiply(spectrum, scale), seed) for seed in range(8)])
        assert_matches_lapack(a)

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e102])
    def test_matches_lapack_on_random_matrices(self, scale):
        rng = np.random.default_rng(17)
        z = scale * random_complex(rng, (2000, 3, 3))
        assert_matches_lapack(z)  # indefinite, and not Hermitian: its Hermitian part
        assert_matches_lapack(z @ linalg.ch(z / scale))  # positive semidefinite
        assert_matches_lapack(z.real)

    def test_ascending(self):
        w = hermitian_eigvals(random_complex(np.random.default_rng(2), (500, 3, 3)))
        assert np.all(np.diff(w, axis=-1) >= 0)

    @given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
           st.integers(0, 2 ** 32 - 1), st.integers(-150, 100))
    @ORACLE
    def test_unitary_times_diagonal(self, spectrum, seed, exponent):
        assert_matches_lapack(with_spectrum(np.multiply(spectrum, 10.0 ** exponent), seed)[None])

    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_other_sizes_are_lapack_bit_for_bit(self, n):
        a = random_complex(np.random.default_rng(n), (50, n, n))
        assert np.array_equal(hermitian_eigvals(a), lapack(a))

    def test_near_degenerate_rows_go_to_lapack_bit_for_bit(self, monkeypatch):
        a = np.stack([with_spectrum((-1.0, 0.5, 2.0), seed) for seed in range(12)])
        routed = [1, 4, 6, 7, 10]
        for row, name in zip(routed[1:], ["double-top", "near-double-1e-9", "zero", "rank-1"]):
            a[row] = with_spectrum(SPECTRA[name], row)
        a[routed[0]] = 1.5 * np.eye(3)  # an exact triple: zero spread
        want = lapack(a)
        eigvalsh, calls = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda m: calls.append(m) or eigvalsh(m))
        got = hermitian_eigvals(a)
        assert len(calls) == 1 and np.array_equal(calls[0], hermitize(a[routed]))
        assert np.array_equal(got[routed], want[routed])

    def test_nan_row_fails_as_lapack_does(self):
        a = random_complex(np.random.default_rng(6), (4, 3, 3))
        a[2, 0, 1] = np.nan
        try:
            want = lapack(a)
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                hermitian_eigvals(a)
        else:
            assert np.array_equal(hermitian_eigvals(a), want, equal_nan=True)

    def test_separated_batch_makes_no_lapack_call(self, monkeypatch):
        a = np.stack([with_spectrum((-1.0, 0.5, 2.0), seed) for seed in range(64)])

        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert hermitian_eigvals(a).shape == (64, 3)

    def test_row_alone_gives_the_same_bits(self):
        rng = np.random.default_rng(8)
        a = random_complex(rng, (40, 3, 3))
        a[[3, 17]] = with_spectrum(SPECTRA["double-bottom"], 3), np.zeros((3, 3))
        batch = hermitian_eigvals(a)
        for row in range(len(a)):
            assert np.array_equal(hermitian_eigvals(a[row:row + 1])[0], batch[row])
            assert np.array_equal(hermitian_eigvals(a[row]), batch[row])
        assert np.array_equal(hermitian_eigvals(a.reshape(4, 10, 3, 3)).reshape(40, 3), batch)

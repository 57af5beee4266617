import numpy as np
import pytest

from swiptmimo import linalg
from swiptmimo.errors import InvalidInputError
from swiptmimo.harvesting import top_eigpair


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


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

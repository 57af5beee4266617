import numpy as np
import pytest

from swiptmimo import linalg
from swiptmimo.errors import InvalidInputError


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestSvd:
    def test_identity(self):
        _, sigma, _ = linalg.svd(np.eye(2))
        assert np.allclose(sigma, [1.0, 1.0])

    def test_diagonal_reordered_descending(self):
        _, sigma, _ = linalg.svd(np.diag([1.0, 3.0]))
        assert np.allclose(sigma, [3.0, 1.0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        a = random_complex(rng, (3, 3))
        left, sigma, right = linalg.svd(a)
        recon = left @ linalg.pad_diag(sigma, 3, 3) @ right.conj().T
        assert np.linalg.norm(recon - a) <= 1e-10 * np.linalg.norm(a)
        assert np.allclose(left.conj().T @ left, np.eye(3), atol=1e-12)
        assert np.allclose(right.conj().T @ right, np.eye(3), atol=1e-12)

    def test_rectangular_reconstruction(self):
        rng = np.random.default_rng(7)
        a = random_complex(rng, (3, 5))
        left, sigma, right = linalg.svd(a)
        assert left.shape == (3, 3) and right.shape == (5, 5)
        recon = left @ linalg.pad_diag(sigma, 3, 5) @ right.conj().T
        assert np.linalg.norm(recon - a) <= 1e-10 * np.linalg.norm(a)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            linalg.svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestHermEig:
    def test_diagonal(self):
        w, v = linalg.herm_eig(np.diag([2.0, 1.0]))
        assert np.allclose(w, [2.0, 1.0])
        assert np.allclose(np.abs(v), np.eye(2))

    def test_identity(self):
        w, _ = linalg.herm_eig(np.eye(3))
        assert np.allclose(w, 1.0)

    def test_gram_matrix_is_psd(self):
        rng = np.random.default_rng(3)
        b = random_complex(rng, (3, 3))
        w, v = linalg.herm_eig(b.conj().T @ b)
        assert np.all(w >= -1e-10)
        assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-12)

    def test_eigen_residual(self):
        rng = np.random.default_rng(4)
        b = random_complex(rng, (4, 4))
        a = b.conj().T @ b
        w, v = linalg.herm_eig(a)
        scale = np.linalg.norm(a)
        for k in range(4):
            assert np.linalg.norm(a @ v[:, k] - w[k] * v[:, k]) <= 1e-10 * scale

    def test_eigvals_invariant_under_unitary_conjugation(self):
        rng = np.random.default_rng(5)
        b = random_complex(rng, (3, 3))
        a = b.conj().T @ b
        u = linalg.haar_unitary(3, rng)
        w_orig, _ = linalg.herm_eig(a)
        w_conj, _ = linalg.herm_eig(u @ a @ u.conj().T)
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

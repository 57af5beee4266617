"""Complex dense-matrix primitives: batched conjugate transpose and Hermitian part,
SVD (descending), Haar sampling. The eigen-solves live with the formulas that read
them, as batched kernels in `rates` and `harvesting`.
"""

import numpy as np

from .errors import InvalidInputError


def check_finite(a, name="matrix"):
    """Raise InvalidInputError if `a` contains NaN or Inf."""
    a = np.asarray(a)
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def ch(a):
    """Batched conjugate transpose."""
    return a.conj().swapaxes(-2, -1)


def hermitize(a):
    """Return the Hermitian part (A + A^H)/2."""
    return 0.5 * (a + ch(a))


def complex_gaussian(shape, rng):
    """Standard circular complex Gaussian entries, unit variance per entry.

    Draw order (real block then imaginary block) is part of the seeding
    contract: the Monte-Carlo ensemble builder draws a trial's five matrices
    in one standard_normal call and slices it in this layout, so a replay
    through complex_gaussian calls reads the same stream.
    """
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


def haar_from_gaussian(z):
    """Map (stacked) complex Gaussian matrices to Haar-distributed unitaries.

    QR with the R-diagonal phase correction; without the correction the QR
    factorization is not uniform over the unitary group.
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    phase = np.where(np.abs(d) > 0, d / np.where(np.abs(d) > 0, np.abs(d), 1.0), 1.0)
    return q * phase[..., None, :]


def haar_unitary(n, rng):
    """Draw an n x n unitary matrix from the Haar measure."""
    if n < 1:
        raise InvalidInputError("haar_unitary requires n >= 1")
    return haar_from_gaussian(complex_gaussian((n, n), rng))


def svd(a):
    """Full SVD with descending singular values.

    Returns (L, sigma, R) such that a = L @ diag_pad(sigma) @ R^H, with L and
    R square unitary and sigma of length min(rows, cols).
    """
    a = check_finite(np.asarray(a, dtype=complex), "svd input")
    left, sigma, right_h = np.linalg.svd(a, full_matrices=True)
    return left, sigma, right_h.conj().T


def pad_diag(sigma, rows, cols):
    """Embed a singular-value vector into a rows x cols rectangular diagonal."""
    out = np.zeros((rows, cols))
    k = len(sigma)
    out[:k, :k] = np.diag(sigma)
    return out

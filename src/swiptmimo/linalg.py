"""Complex dense-matrix primitives: batched conjugate transpose and Hermitian part,
Haar sampling, and `hermitian_eigvals`, the eigenvalue-only kernel. The eigen-solves
that read eigenvectors live with their formulas in `rates` and `harvesting`.
"""

import numpy as np

from .errors import InvalidInputError

DEGENERACY_FLOOR = 1e-3  # closed-form accuracy falls as 1 / sqrt(1 - r^2) near r = ±1


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


def hermitian_eigvals(a):
    """Ascending eigenvalues of the Hermitian parts of stacked matrices, as
    `np.linalg.eigvalsh(hermitize(a))`. A 3 x 3 row is scaled by its largest entry,
    shifted by trace / 3 to B of spread p and solved from r = det(B) / (2 p^3) (Smith,
    CACM 1961); rows with not 1 - |r| >= DEGENERACY_FLOOR and other sizes go to LAPACK.
    """
    a = np.asarray(a)
    if a.shape[-2:] != (3, 3):
        return np.linalg.eigvalsh(hermitize(a))
    # the Hermitian part: its diagonal and the lower triangle d, e, f, as real numbers
    off = 0.5 * (a[..., (1, 2, 2), (0, 0, 1)] + a[..., (0, 0, 1), (1, 2, 2)].conj())
    x = np.concatenate([a[..., (0, 1, 2), (0, 1, 2)].real, off.real, off.imag], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):  # such rows go to LAPACK
        s = np.abs(x).max(axis=-1, keepdims=True)
        x = np.moveaxis(x / s, -1, 0)
        q = (x[0] + x[1] + x[2]) / 3.0
        b0, b1, b2 = x[0] - q, x[1] - q, x[2] - q
        dr, er, fr, di, ei, fi = x[3:]
        dd, ee, ff = dr * dr + di * di, er * er + ei * ei, fr * fr + fi * fi
        p = np.sqrt((b0 * b0 + b1 * b1 + b2 * b2 + 2.0 * (dd + ee + ff)) / 6.0)
        det = (b0 * b1 * b2 - b0 * ff - b1 * ee - b2 * dd  # + 2 Re(d f conj(e))
               + 2.0 * ((dr * fr - di * fi) * er + (dr * fi + di * fr) * ei))
        r = det / (2.0 * p * p * p)
        phi = np.arccos(r) / 3.0
        top = q + 2.0 * p * np.cos(phi)
        bottom = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
        w = s * np.stack([bottom, 3.0 * q - top - bottom, top], axis=-1)
    near = ~(1.0 - np.abs(r) >= DEGENERACY_FLOOR)
    if near.any():
        w[near] = np.linalg.eigvalsh(hermitize(a[near]))
    return w


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


def pad_diag(sigma, rows, cols):
    """Embed a singular-value vector into a rows x cols rectangular diagonal."""
    out = np.zeros((rows, cols))
    k = len(sigma)
    out[:k, :k] = np.diag(sigma)
    return out

"""Complex dense-matrix primitives: batched conjugate transpose and Hermitian part,
Haar sampling, and the package's only eigen-solves: `hermitian_eigvals` (eigenvalues)
and `hermitian_eigh` (eigenvectors), closed form on 3 x 3 rows and LAPACK elsewhere.
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


def _smith(a):
    """Smith's closed form (CACM 1961) for stacked 3 x 3 Hermitian parts: a row scaled by
    its largest entry s, shifted by trace / 3 to B of spread p, has eigenvalues p mu with
    mu^3 - 3 mu = 2 r = det(B) / p^3. Returns the ascending eigenvalues (+0 on a row of
    s = 0, as LAPACK gives), the other rows with not 1 - |r| >= DEGENERACY_FLOOR (non-finite
    ones too), the rows of s = 0, mu, p, and B's diagonal and lower triangle d, e, f as real
    and imaginary parts, the last three on axis 0."""
    off = 0.5 * (a[..., (1, 2, 2), (0, 0, 1)] + a[..., (0, 0, 1), (1, 2, 2)].conj())
    x = np.concatenate([a[..., (0, 1, 2), (0, 1, 2)].real, off.real, off.imag], axis=-1)
    s = np.abs(x).max(axis=-1, keepdims=True)
    x = np.moveaxis(x / s, -1, 0)
    q = (x[0] + x[1] + x[2]) / 3.0
    x[:3] -= q
    b0, b1, b2, dr, er, fr, di, ei, fi = x
    dd, ee, ff = dr * dr + di * di, er * er + ei * ei, fr * fr + fi * fi
    p = np.sqrt((b0 * b0 + b1 * b1 + b2 * b2 + 2.0 * (dd + ee + ff)) / 6.0)
    det = (b0 * b1 * b2 - b0 * ff - b1 * ee - b2 * dd  # + 2 Re(d f conj(e))
           + 2.0 * ((dr * fr - di * fi) * er + (dr * fi + di * fr) * ei))
    r = det / (2.0 * p * p * p)
    phi = np.arccos(r) / 3.0
    bottom, top = 2.0 * np.cos(phi + 2.0 * np.pi / 3.0), 2.0 * np.cos(phi)
    mu = np.stack([bottom, -bottom - top, top])
    bottom, top = q + p * bottom, q + p * top
    w = s * np.stack([bottom, 3.0 * q - top - bottom, top], axis=-1)
    zero = s[..., 0] == 0
    w[zero] = 0.0
    return w, ~(1.0 - np.abs(r) >= DEGENERACY_FLOOR) & ~zero, zero, mu, p, x


def hermitian_eigvals(a):
    """Ascending eigenvalues of the Hermitian parts of stacked matrices, as
    `np.linalg.eigvalsh(hermitize(a))`: a 3 x 3 row in closed form (`_smith`), a zero row
    as 0; rows with not 1 - |r| >= DEGENERACY_FLOOR and other sizes by LAPACK, after a
    finiteness check."""
    a = np.asarray(a)
    if a.shape[-2:] != (3, 3):
        return np.linalg.eigvalsh(hermitize(check_finite(a)))
    with np.errstate(divide="ignore", invalid="ignore"):  # such rows go to LAPACK
        w, near = _smith(a)[:2]
    if near.any():
        w[near] = np.linalg.eigvalsh(hermitize(check_finite(a[near])))
    return w


def hermitian_eigh(a):
    """Ascending eigenvalues and unit eigenvector columns of the Hermitian parts of stacked
    matrices, as `np.linalg.eigh(hermitize(a))` up to phase: a 3 x 3 row takes the column
    of adj(B / p - mu I) with the largest diagonal entry for each root mu of `_smith`
    (Kopp, IJMPC 2008), a zero row takes the identity, and other rows and sizes go to
    LAPACK as in `hermitian_eigvals`."""
    a = np.asarray(a)
    if a.shape[-2:] != (3, 3):
        return np.linalg.eigh(hermitize(check_finite(a)))
    with np.errstate(divide="ignore", invalid="ignore"):  # such rows go to LAPACK
        w, near, zero, mu, p, x = _smith(a)
        m0, m1, m2 = x[:3, None] / p - mu  # B / p - mu I, whose roots lie apart on an O(1) scale
        # d, e, f stay arrays for a lone matrix too: numpy scalars round complex products
        d, e, f = (x[3:6] + 1j * x[6:] if np.iscomplexobj(a) else x[3:6])[:, None] / p
        # adj(B / p - mu I) is Hermitian: its diagonal and lower triangle
        a00, a11, a22 = m1 * m2 - (f * f.conj()).real, m0 * m2 - (e * e.conj()).real, \
            m0 * m1 - (d * d.conj()).real
        a10, a20, a21 = f.conj() * e - d * m2, d * f - m1 * e, d.conj() * e - m0 * f
        g0, g1, g2 = np.abs(a00), np.abs(a11), np.abs(a22)
        col0, col1 = (g0 >= g1) & (g0 >= g2), g1 >= g2
        v = np.stack([np.where(col0, a00, np.where(col1, a10.conj(), a20.conj())),
                      np.where(col0, a10, np.where(col1, a11, a21.conj())),
                      np.where(col0, a20, np.where(col1, a21, a22))])
        # the middle root's nearer neighbour: the others' cross product keeps that pair orthogonal
        pair_top = mu[1] > 0
        iso = np.where(pair_top, v[:, 0], v[:, 2])
        near_root = np.cross(iso, v[:, 1], axis=0).conj()
        v = np.stack([np.where(pair_top, iso, near_root), v[:, 1],
                      np.where(pair_top, near_root, iso)], axis=1)
        v = np.moveaxis(v / np.sqrt(np.sum((v * v.conj()).real, axis=0)), (0, 1), (-2, -1))
        v[zero] = np.eye(3)
    if near.any():
        w[near], v[near] = np.linalg.eigh(hermitize(check_finite(a[near])))
    return w, v


def complex_gaussian(shape, rng):
    """Standard circular complex Gaussian entries, unit variance per entry, from two
    `rng.standard_normal(shape)` blocks: the real block, then the imaginary block.

    `montecarlo.ensemble_for` reads each trial's (seed, t) stream in this layout without
    calling it. It stays for `perfbench/tracer.py`, which counts its calls by name.
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

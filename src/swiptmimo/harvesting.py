"""RF energy harvesting: the post-split covariance and analog steering.

The energy branch sees C + C_bs + W, where C carries the desired signal, C_bs
the interference, and W = sigma2_w * Theta^2 the split-scaled antenna noise.
The optimal unit-norm steering vector is the top eigenvector of that sum, and
the harvested power its eigenvalue. Every kernel broadcasts over leading
batch axes; products go through `linalg.matmul`, the power reads `hermitian_eigvals`, the
eigenpair `hermitian_eigh`.
"""

import numpy as np

from .linalg import ch, hermitian_eigh, hermitian_eigvals, matmul
from .scenario import equivalent_channel


def to_db(linear):
    """10*log10, with -inf for zero power."""
    with np.errstate(divide="ignore"):
        return float(10.0 * np.log10(linear))


def top_eigpair(mats):
    """Largest eigenvalue and its unit eigenvector of stacked Hermitian matrices."""
    w, v = hermitian_eigh(mats)
    return w[..., -1], v[..., :, -1]


def delivered(theta2, h, q):
    """(Theta h) q (Theta h)^H: what transmit covariance q delivers through channel h
    to the energy branches, whose squared split gains are theta2 = 1 - psi."""
    th = equivalent_channel(theta2, h)
    return matmul(matmul(th, q), ch(th))


def harvested_power(c_sig, c_bs, w):
    """Top eigenvalue of C + C_bs + W, clipped at zero: what the best steering collects."""
    total = c_sig + c_bs
    total += w  # in place: one temporary the size of the stack
    return np.maximum(hermitian_eigvals(total)[..., -1], 0.0)


def steering(c_sig, c_bs, w):
    """The unit steering vector that collects `harvested_power`: the top eigenvector."""
    return top_eigpair(c_sig + c_bs + w)[1]

"""RF energy harvesting: the post-split covariance and analog steering.

The energy branch sees C + C_bs + W, where C carries the desired signal, C_bs
the interference, and W = sigma2_w * Theta^2 the split-scaled antenna noise.
The optimal unit-norm steering vector is the top eigenvector of that sum, and
the harvested power its eigenvalue. Every kernel broadcasts over leading
batch axes.
"""

import numpy as np

from .linalg import ch, hermitize


def to_db(linear):
    """10*log10, with -inf for zero power."""
    with np.errstate(divide="ignore"):
        return float(10.0 * np.log10(linear))


def top_eigpair(mats):
    """Largest eigenvalue and its unit eigenvector of stacked Hermitian matrices."""
    w, v = np.linalg.eigh(hermitize(mats))
    return w[..., -1], v[..., :, -1]


def delivered(theta2, h, q):
    """(Theta h) q (Theta h)^H: what transmit covariance q delivers through channel h
    to the energy branches, whose squared split gains are theta2 = 1 - psi."""
    th = np.sqrt(theta2)[:, None] * h
    return th @ q @ ch(th)


def steering(c_sig, c_bs, w):
    """Harvested power and the steering vector that collects it from C + C_bs + W:
    the top eigenpair, its eigenvalue clipped at zero."""
    top, q = top_eigpair(c_sig + c_bs + w)
    return np.maximum(top, 0.0), q

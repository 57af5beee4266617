"""Transmit designs: joint information-and-power transfer, and the
combine-then-split baseline receiver.

Under joint transfer the receiver knows the energy symbols, cancels them
before decoding, and the base station devotes its whole budget to a rank-one
energy beam. The baseline receiver (structure 2) combines all antennas into
one analog chain along the link's dominant left singular vector and splits
the combined signal once. Every kernel broadcasts over leading batch axes.
"""

import numpy as np

from .harvesting import top_eigpair
from .linalg import ch
from .scenario import equivalent_channel


def energy_mode(h_bs, theta2):
    """Top eigenpair (lambda, u) of (Theta h_bs)(Theta h_bs)^H, K x K, theta2 = 1 - psi: the
    beam e of `energy_beam` delivers Theta h_bs e = sqrt(lambda) u, so lambda u u^H."""
    th = equivalent_channel(theta2, h_bs)
    return top_eigpair(th @ ch(th))


def energy_beam(h_bs, theta2):
    """Unit-power rank-one BS energy beam e e^H, e = (Theta h_bs)^H u / sqrt(lambda) from
    `energy_mode`, the direction that delivers most; the last basis vector if lambda = 0."""
    lam, u = energy_mode(h_bs, theta2)
    e = ch(equivalent_channel(theta2, h_bs)) @ u[..., :, None]
    e = e / np.sqrt(np.where(lam > 0, lam, 1.0))[..., None, None]
    e[..., -1, 0] += lam == 0  # Theta h_bs = 0 there, so e = 0 before this
    return e @ ch(e)


def combiner(h):
    """Dominant eigenpair (lambda_1^2, u_1) of h h^H: all transmit power rides the
    dominant mode, and u_1 is the analog combiner."""
    return top_eigpair(h @ ch(h))


def combined_interference(u1, rx):
    """Interference u_1^H Rx u_1 that passes the combiner, from the received
    interference covariance Rx = h_bs Q_bs h_bs^H. einsum sums each row of a batch
    i-major but a lone 2 x 2 row in another order, so it always sees two copies:
    a row's bits do not depend on its batch."""
    u1, rx = np.stack([u1, u1]), np.stack([rx, rx])
    return np.real(np.einsum("...i,...ij,...j->...", u1.conj(), rx, u1))[0]


def combined_rate(lam1sq, interference, psi, sigma2_w, sigma2_n, total_power):
    """Rate of the combine-then-split receiver with split psi: antenna noise and
    interference pass the combiner and the splitter, processing noise adds after it."""
    denom = psi * (interference + sigma2_w) + sigma2_n
    return np.log2(1.0 + psi * lam1sq * total_power / denom)


def combined_energy(lam1sq, interference, psi, sigma2_w, total_power):
    """Harvested power of the combine-then-split receiver: the (1 - psi) share of
    the combined signal, interference and antenna noise."""
    return (1.0 - psi) * (lam1sq * total_power + interference + sigma2_w)

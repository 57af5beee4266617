"""Transmit designs: joint information-and-power transfer, and the
combine-then-split baseline receiver.

Under joint transfer the receiver knows the energy symbols, cancels them
before decoding, and the base station devotes its whole budget to a rank-one
energy beam. The baseline receiver (structure 2) combines all antennas into
one analog chain along the link's dominant left singular vector and splits
the combined signal once.
"""

from dataclasses import dataclass

import numpy as np

from . import rates
from .errors import InvalidInputError
from .harvesting import HarvestResult, to_db
from .linalg import herm_eig, hermitize, svd


@dataclass(frozen=True)
class TransmitDesign:
    """Transmit covariances of both nodes."""

    Q: np.ndarray
    Q_bs: np.ndarray


def swipt_design(cfg, hhat, h_bs, split):
    """Joint-transfer design: noise-only water-filling and a rank-one energy beam.

    The energy signal is cancelled at the information branch, so Q is
    water-filled against the pure-noise covariance. The base station aligns
    its whole budget with the strongest energy-delivery direction of the
    split-scaled channel (top right singular direction of Theta H_bs).
    """
    h_bs = np.asarray(h_bs, dtype=complex)
    noise_only = np.diag(split.psi * cfg.sigma2_w + cfg.sigma2_n)
    q = rates.optimal_q_global(hhat, noise_only, cfg.P)
    gram = hermitize(h_bs.conj().T @ (split.theta2[:, None] * h_bs))
    _, vecs = herm_eig(gram)
    e_bs = vecs[:, 0]
    q_bs = cfg.Pb * np.outer(e_bs, e_bs.conj())
    return TransmitDesign(q, hermitize(q_bs))


def _dominant_mode(h):
    left, sigma, _ = svd(h)
    return left[:, 0], float(sigma[0] ** 2)


def _combined_interference(u1, h_bs, q_bs):
    h_bs = np.asarray(h_bs, dtype=complex)
    q_bs = np.asarray(q_bs, dtype=complex)
    return float(np.real(u1.conj() @ h_bs @ q_bs @ h_bs.conj().T @ u1))


def structure2_rate(h, h_bs, q_bs, psi, noise, total_power):
    """Rate of the combine-then-split receiver with a single splitter.

    All transmit power rides the dominant eigenmode; the combiner is the
    matching left singular vector. Antenna noise and interference pass the
    combiner and then the splitter; processing noise adds after the split.
    """
    if not np.isscalar(psi) or psi < 0 or psi > 1:
        raise InvalidInputError("structure 2 uses a single scalar split in [0, 1]")
    u1, lam1sq = _dominant_mode(h)
    interference = _combined_interference(u1, h_bs, q_bs)
    denom = psi * (interference + noise.sigma2_w) + noise.sigma2_n
    return float(np.log2(1.0 + psi * lam1sq * total_power / denom))


def structure2_energy(h, h_bs, q_bs, psi, noise, total_power):
    """Harvested power of the combine-then-split receiver.

    The energy branch receives the (1 - psi) share of the combined signal,
    interference included; the combiner is shared with the information branch.
    """
    if not np.isscalar(psi) or psi < 0 or psi > 1:
        raise InvalidInputError("structure 2 uses a single scalar split in [0, 1]")
    u1, lam1sq = _dominant_mode(h)
    interference = _combined_interference(u1, h_bs, q_bs)
    linear = (1.0 - psi) * (lam1sq * total_power + interference + noise.sigma2_w)
    return HarvestResult(float(linear), to_db(linear), u1)

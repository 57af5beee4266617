"""Joint information and power transfer: interference that only feeds you.

When the receiver knows the base station's energy symbols it cancels them
before decoding, so the information rate reverts to the interference-free
water-filling value no matter how hard the BS transmits. The BS then pours
its whole budget into a rank-one beam aimed at the strongest energy-delivery
direction of the split channel, and the harvested power climbs with budget
while the rate stays put.
"""

import numpy as np

from swiptmimo import (delivered, energy_beam, ensemble_for, equivalent_channel,
                       reference_scenario, sample_grids, transmit_covariance, waterfilled_modes)

TRIALS = 800


def noise_only_design(cfg, h):
    """The link's covariance with the BS symbols cancelled: water-filled against
    the information-branch noise alone."""
    hhat = equivalent_channel(cfg.psi_vector, h)
    _, g, p = waterfilled_modes(hhat.conj().T @ (hhat / cfg.beta[:, None]), cfg.P)
    return hhat, transmit_covariance(g, p)


def main():
    psi = 0.3
    print(f"psi = {psi}, {TRIALS} trials")
    print("ratio  rate(bits/cu)  swipt energy(dB)  classical energy(dB)")
    ratios = (0, 1, 2, 5, 8, 11, 14)
    cfg = reference_scenario(psi, trials=TRIALS)
    budgets = [ratio * cfg.P for ratio in ratios]
    grid, = sample_grids([(cfg, ("energy-swipt", "energy-struct1"), budgets)])
    sw, cl = grid.mean(axis=2)
    # the rate is deterministic: interference cancelled, noise-only design; trial 0's
    # channels serve it and the check below, which read only the singular values
    ens = ensemble_for(cfg, 0, 1)
    h, h_bs = ens.h[0], ens.h_bs[0]
    hhat, q = noise_only_design(cfg, h)
    signal = hhat @ q @ hhat.conj().T
    _, logdet = np.linalg.slogdet(np.eye(cfg.K) + np.linalg.solve(np.diag(cfg.beta), signal))
    rate = max(logdet / np.log(2.0), 0.0)
    for ratio, sw_mean, cl_mean in zip(ratios, sw, cl):
        print(f"{ratio:5d}  {rate:13.6f}  {10*np.log10(sw_mean):16.3f}  "
              f"{10*np.log10(cl_mean):19.3f}")

    # the premise behind sending energy only: the interferer's eigenvalue
    # profile weakly majorizes the link's (every prefix sum is at least the
    # link's), so its beam carries more power
    theta2 = 1.0 - cfg.psi_vector
    print("\nweak-majorization check of the delivered eigenvalue profiles "
          "(interferer at full budget vs link):")
    c_sig = delivered(theta2, h, q)
    c_bs = delivered(theta2, h_bs, 25.0 * energy_beam(h_bs, theta2))
    # modes that get no power read a rounding-level eigenvalue, possibly negative
    eig_sig = np.maximum(np.sort(np.linalg.eigvalsh(c_sig))[::-1], 0.0)
    eig_bs = np.maximum(np.sort(np.linalg.eigvalsh(c_bs))[::-1], 0.0)
    print(f"  interferer {np.round(eig_bs, 3)}  vs  link {np.round(eig_sig, 3)}"
          f"  ->  {bool(np.all(np.cumsum(eig_bs) >= np.cumsum(eig_sig)))}")


if __name__ == "__main__":
    main()

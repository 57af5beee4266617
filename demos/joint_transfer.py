"""Joint information and power transfer: interference that only feeds you.

When the receiver knows the base station's energy symbols it cancels them
before decoding, so the information rate reverts to the interference-free
water-filling value no matter how hard the BS transmits. The BS then pours
its whole budget into a rank-one beam aimed at the strongest energy-delivery
direction of the split channel, and the harvested power climbs with budget
while the rate stays put.
"""

from dataclasses import replace

import numpy as np

from swiptmimo import (NoiseProfile, PowerSplit, equivalent_channels,
                       reference_scenario, sample_grids, swipt_design,
                       synthesize_channel)

TRIALS = 800


def main():
    psi = 0.3
    print(f"psi = {psi}, {TRIALS} trials")
    print("ratio  rate(bits/cu)  swipt energy(dB)  classical energy(dB)")
    ratios = (0, 1, 2, 5, 8, 11, 14)
    cfg = reference_scenario(psi, trials=TRIALS)
    budgets = [ratio * cfg.P for ratio in ratios]
    grid, = sample_grids([(cfg, ("energy-swipt", "energy-struct1"), budgets)])
    sw, cl = grid.mean(axis=2)
    for ratio, sw_mean, cl_mean in zip(ratios, sw, cl):
        # the rate is deterministic: interference cancelled, noise-only design
        rng = np.random.default_rng(0)
        h = synthesize_channel(cfg.sigma_p2p, cfg.K, cfg.M, rng)
        h_bs = synthesize_channel(cfg.sigma_bs, cfg.K, cfg.N, rng)
        split = PowerSplit(cfg.psi_vector)
        hhat, _ = equivalent_channels(h, h_bs, split)
        design = swipt_design(replace(cfg, Pb=ratio * cfg.P), hhat, h_bs, split)
        beta = NoiseProfile(1.0, 1.0, cfg.psi_vector).beta
        signal = hhat.matrix @ design.Q @ hhat.matrix.conj().T
        _, logdet = np.linalg.slogdet(np.eye(cfg.K) + np.linalg.solve(np.diag(beta), signal))
        rate = max(logdet / np.log(2.0), 0.0)
        print(f"{ratio:5d}  {rate:13.6f}  {10*np.log10(sw_mean):16.3f}  "
              f"{10*np.log10(cl_mean):19.3f}")

    # the premise behind sending energy only: the interferer's eigenvalue
    # profile weakly majorizes the link's (every prefix sum is at least the
    # link's), so its beam carries more power
    cfg = reference_scenario(psi)
    rng = np.random.default_rng(1)
    h = synthesize_channel(cfg.sigma_p2p, cfg.K, cfg.M, rng)
    h_bs = synthesize_channel(cfg.sigma_bs, cfg.K, cfg.N, rng)
    split = PowerSplit(cfg.psi_vector)
    hhat, _ = equivalent_channels(h, h_bs, split)
    theta = np.sqrt(split.theta2)[:, None]
    print("\nweak-majorization check of the delivered eigenvalue profiles "
          "(interferer at full budget vs link):")
    design = swipt_design(replace(cfg, Pb=25.0), hhat, h_bs, split)
    c_sig = (theta * h) @ design.Q @ (theta * h).conj().T
    c_bs = (theta * h_bs) @ design.Q_bs @ (theta * h_bs).conj().T
    eig_sig = np.sort(np.linalg.eigvalsh(c_sig))[::-1]
    eig_bs = np.sort(np.linalg.eigvalsh(c_bs))[::-1]
    print(f"  interferer {np.round(eig_bs, 3)}  vs  link {np.round(eig_sig, 3)}"
          f"  ->  {bool(np.all(np.cumsum(eig_bs) >= np.cumsum(eig_sig)))}")


if __name__ == "__main__":
    main()

"""Steering the energy branch: where does the harvested power come from?

The energy branch sees the complement of the information split. Its covariance
is C_rf = C + C_bs + W (signal + interference + split-scaled antenna noise),
and the best analog steering vector is simply the top eigenvector of that sum.
When one interference eigenvalue towers over everything, steering locks onto
the interferer and the harvested power is that eigenvalue plus whatever the
signal and noise contribute along the same direction.
"""

import numpy as np

from swiptmimo import (NoiseProfile, PowerSplit, build_rf_covariance,
                       optimal_steering, random_bs_covariance,
                       reference_scenario, synthesize_channel, waterfill,
                       equivalent_channels)


def main():
    psi = 0.3
    cfg = reference_scenario(psi)
    rng = np.random.default_rng(7)
    h = synthesize_channel(cfg.sigma_p2p, cfg.K, cfg.M, rng)
    h_bs = synthesize_channel(cfg.sigma_bs, cfg.K, cfg.N, rng)
    split = PowerSplit(cfg.psi_vector)
    hhat, _ = equivalent_channels(h, h_bs, split)
    noise = NoiseProfile(1.0, 1.0, cfg.psi_vector)
    alloc, _ = waterfill(noise.beta / hhat.lambda2, cfg.P)
    print(f"link water-filling at psi={psi}: powers {np.round(alloc.p, 4)}")

    # no interference: energy comes from our own signal plus antenna noise
    quiet = build_rf_covariance(h, hhat.right[:, :3], alloc.p, h_bs,
                                np.zeros((cfg.N, 1)), np.zeros(1), split, 1.0)
    res = optimal_steering(quiet)
    print(f"no interferer: harvested {res.linear:.4f} ({res.dB:.3f} dB)")

    # sweep the interferer power and watch the steering flip over
    print("\nPb    harvested(dB)  aligned-with-interferer?")
    for pb in (0.0, 5.0, 20.0, 70.0):
        q_bs = random_bs_covariance(cfg.N, pb, np.random.default_rng(1))
        w, v = np.linalg.eigh(q_bs)
        cov = build_rf_covariance(h, hhat.right[:, :3], alloc.p, h_bs,
                                  v, np.maximum(w, 0.0), split, 1.0)
        res = optimal_steering(cov)
        top_bs = np.linalg.eigh(cov.C_bs)[1][:, -1]
        overlap = abs(np.vdot(res.q, top_bs)) if pb > 0 else 0.0
        print(f"{pb:5.1f}  {res.dB:12.3f}  |<q, q_bs>| = {overlap:.3f}")

    # the dominant-interference shortcut agrees with the exact maximizer: steer
    # along the top interference eigenvector, then add the signal and noise
    # seen along it
    q_bs = random_bs_covariance(cfg.N, 200.0, np.random.default_rng(2))
    w, v = np.linalg.eigh(q_bs)
    loud = build_rf_covariance(h, hhat.right[:, :3], alloc.p, h_bs,
                               v, np.maximum(w, 0.0), split, 1.0)
    exact = optimal_steering(loud)
    w_bs, v_bs = np.linalg.eigh(loud.C_bs)
    q = v_bs[:, -1]
    shortcut = max(w_bs[-1], 0.0) + np.real(q.conj() @ (loud.C + loud.W) @ q)
    print(f"\ndominant-interference regime (Pb = 200):")
    print(f"  exact maximizer   {exact.linear:.4f}")
    print(f"  shortcut formula  {shortcut:.4f}")


if __name__ == "__main__":
    main()

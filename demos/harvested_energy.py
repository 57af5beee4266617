"""Steering the energy branch: where does the harvested power come from?

The energy branch sees the complement of the information split. Its covariance
is C_rf = C + C_bs + W (signal + interference + split-scaled antenna noise),
and the best analog steering vector is simply the top eigenvector of that sum.
When one interference eigenvalue towers over everything, steering locks onto
the interferer and the harvested power is that eigenvalue plus whatever the
signal and noise contribute along the same direction.
"""

import numpy as np

from swiptmimo import (delivered, ensemble_for, equivalent_channel, harvested_power,
                       reference_scenario, steering, top_eigpair, transmit_covariance,
                       waterfilled_modes)


def main():
    psi = 0.3
    cfg = reference_scenario(psi, trials=1, seed=7)
    ens = ensemble_for(cfg)  # one random channel pair and BS user beams
    h, h_bs, users = ens.h[0], ens.h_bs[0], ens.user_dirs[0]
    gram = users @ users.conj().T  # Q_bs = (Pb / N) * gram
    hhat = equivalent_channel(cfg.psi_vector, h)
    _, g, p = waterfilled_modes(hhat.conj().T @ (hhat / cfg.beta[:, None]), cfg.P)
    print(f"link water-filling at psi={psi}: powers {np.round(p, 4)}")

    # the energy branch's signal and noise terms; the interferer adds c_bs
    theta2 = 1.0 - cfg.psi_vector
    c_sig = delivered(theta2, h, transmit_covariance(g, p))
    w = np.diag(cfg.sigma2_w * theta2)

    # no interference: energy comes from our own signal plus antenna noise
    linear = harvested_power(c_sig, 0.0, w)
    print(f"no interferer: harvested {linear:.4f} ({10 * np.log10(linear):.3f} dB)")

    # sweep the interferer power and watch the steering flip over
    print("\nPb    harvested(dB)  aligned-with-interferer?")
    for pb in (0.0, 5.0, 20.0, 70.0):
        c_bs = delivered(theta2, h_bs, (pb / cfg.N) * gram)
        linear, q = harvested_power(c_sig, c_bs, w), steering(c_sig, c_bs, w)
        overlap = abs(np.vdot(q, top_eigpair(c_bs)[1])) if pb > 0 else 0.0
        print(f"{pb:5.1f}  {10 * np.log10(linear):12.3f}  |<q, q_bs>| = {overlap:.3f}")

    # the dominant-interference shortcut agrees with the exact maximizer: steer
    # along the top interference eigenvector, then add the signal and noise
    # seen along it
    c_bs = delivered(theta2, h_bs, (200.0 / cfg.N) * gram)
    exact = harvested_power(c_sig, c_bs, w)
    top, q = top_eigpair(c_bs)
    shortcut = max(top, 0.0) + np.real(q.conj() @ (c_sig + w) @ q)
    print(f"\ndominant-interference regime (Pb = 200):")
    print(f"  exact maximizer   {exact:.4f}")
    print(f"  shortcut formula  {shortcut:.4f}")


if __name__ == "__main__":
    main()

"""Worst-case interference: the max-min power-allocation game.

A 3x3 link (singular values [0.9, 0.8, 0.7]) shares the air with a 5-antenna
base station (singular values [0.8, 0.7, 0.5] toward our receiver). The
receiver splits each antenna's signal, keeping a fraction psi for decoding.
In the worst case the interference aligns with the link's left singular basis,
everything diagonalizes, and the remaining fight is over per-mode powers:
the link water-fills, the interferer counters with its KKT allocation.
"""

import numpy as np

from swiptmimo import (NoiseProfile, reference_scenario, solve_saddle,
                       solve_saddle_batch)
from swiptmimo.acceptance import saddle_certificate

PSIS = (0.3, 0.6, 0.9)
RATIOS = range(15)


def spectra(psi):
    cfg = reference_scenario(psi)
    lam2 = psi * np.asarray(cfg.sigma_p2p) ** 2
    lam2_bs = psi * np.asarray(cfg.sigma_bs) ** 2
    return cfg, lam2, lam2_bs, NoiseProfile(1.0, 1.0, cfg.psi_vector)


def main():
    print("Worst-case achievable rate (bits/cu) vs interferer-to-link power ratio")
    header = "ratio " + "  ".join(f"psi={psi:<4}" for psi in PSIS)
    print(header)
    # one batched solve per psi: a row per interferer budget
    curves = {}
    for psi in PSIS:
        cfg, lam2, lam2_bs, noise = spectra(psi)
        rows = len(RATIOS)
        batch = solve_saddle_batch(np.tile(lam2, (rows, 1)), np.tile(lam2_bs, (rows, 1)),
                                   np.tile(noise.beta, (rows, 1)), cfg.P,
                                   [r * cfg.P for r in RATIOS])
        curves[psi] = list(batch.rate)
    for i, r in enumerate(RATIOS):
        print(f"{r:5d} " + "  ".join(f"{curves[psi][i]:7.4f}" for psi in PSIS))

    # inspect one saddle point in detail
    cfg, lam2, lam2_bs, noise = spectra(0.3)
    sol = solve_saddle(lam2, lam2_bs, noise, cfg.P, 5.0)
    print("\nsaddle at psi=0.3, equal budgets:")
    print(f"  link powers       {np.round(sol.p_star.p, 4)}")
    print(f"  interferer powers {np.round(sol.pb_star.p, 4)}")
    print(f"  rate {sol.rate:.6f} bits/cu after {sol.iterations} iterations, "
          f"duality gap {sol.gap:.1e}")
    ok = saddle_certificate(lam2, lam2_bs, noise, cfg.P, 5.0, sol,
                            np.random.default_rng(0))
    print(f"  unilateral-deviation certificate (200 + 200 trials): "
          f"{'pass' if ok else 'fail'}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
        for psi in PSIS:
            plt.plot(list(RATIOS), curves[psi], marker="o", label=f"psi={psi}")
        plt.xlabel("interferer power / link power")
        plt.ylabel("worst-case rate (bits/cu)")
        plt.grid(True, alpha=0.4)
        plt.legend()
        plt.savefig("worst_case_rates.png", dpi=120, bbox_inches="tight")
        print("\nsaved worst_case_rates.png")
    except ImportError:
        pass


if __name__ == "__main__":
    main()

"""Worst-case interference: the max-min power-allocation game.

A 3x3 link (singular values [0.9, 0.8, 0.7]) shares the air with a 5-antenna
base station (singular values [0.8, 0.7, 0.5] toward our receiver). The
receiver splits each antenna's signal, keeping a fraction psi for decoding.
In the worst case the interference aligns with the link's left singular basis,
everything diagonalizes, and the remaining fight is over per-mode powers:
the link water-fills, the interferer counters with its KKT allocation.
"""

import numpy as np

from swiptmimo import reference_scenario, solve_links, solve_saddle
from swiptmimo.acceptance import saddle_certificate

PSIS = (0.3, 0.6, 0.9)
RATIOS = range(15)


def main():
    print("Worst-case achievable rate (bits/cu) vs interferer-to-link power ratio")
    header = "ratio " + "  ".join(f"psi={psi:<4}" for psi in PSIS)
    print(header)
    # one batched solve per psi: a row per interferer budget
    curves = {}
    for psi in PSIS:
        cfg = reference_scenario(psi)
        curves[psi] = list(solve_links([cfg] * len(RATIOS), [r * cfg.P for r in RATIOS]).rate)
    for i, r in enumerate(RATIOS):
        print(f"{r:5d} " + "  ".join(f"{curves[psi][i]:7.4f}" for psi in PSIS))

    # inspect one saddle point in detail
    cfg = reference_scenario(0.3)
    lam2, lam2_bs, beta = cfg.modes()
    sol = solve_saddle(lam2, lam2_bs, beta, cfg.P, 5.0)
    print("\nsaddle at psi=0.3, equal budgets:")
    print(f"  link powers       {np.round(sol.p, 4)}")
    print(f"  interferer powers {np.round(sol.pb, 4)}")
    print(f"  rate {sol.rate:.6f} bits/cu after {sol.iterations} root steps, "
          f"duality gap {sol.gap:.1e}")
    ok = saddle_certificate(lam2, lam2_bs, beta, cfg.P, 5.0, sol,
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

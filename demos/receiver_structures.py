"""Per-antenna splitting vs combine-then-split: the rate cost of one analog chain.

Structure 1 splits at every antenna and keeps the full digital receive array,
so it can multiplex over all eigenmodes. Structure 2 first combines the
antennas into a single analog chain (pointed at the dominant eigenmode) and
splits once; only one stream survives. Averaged over random channel factors
and random base-station user beams, the multiplexing gap is what this script
shows.
"""

from swiptmimo import reference_scenario, sample_grids

TRIALS = 800
RATIOS = (0, 1, 2, 4, 6, 8, 10, 12, 14)


def main():
    print(f"average rate (bits/cu) over {TRIALS} trials, psi = 0.3 / 0.6")
    print("ratio   s1@0.3   s2@0.3   s1@0.6   s2@0.6")
    requests = []
    for psi in (0.3, 0.6):  # every psi sees the same trials
        cfg = reference_scenario(psi, trials=TRIALS)
        requests.append((cfg, ("rate-struct1", "rate-struct2"),
                         [ratio * cfg.P for ratio in RATIOS]))
    columns = [means for grid in sample_grids(requests) for means in grid.mean(axis=2)]
    rows = [[ratio, *means] for ratio, means in zip(RATIOS, zip(*columns))]
    for row in rows:
        print(f"{row[0]:5d}  {row[1]:7.4f}  {row[2]:7.4f}  {row[3]:7.4f}  {row[4]:7.4f}")

    gap03 = [r[1] - r[2] for r in rows]
    print(f"\nstructure-1 advantage at psi=0.3: {gap03[0]:.3f} bits at ratio 0, "
          f"{gap03[-1]:.3f} bits at ratio 14")
    print("the one-chain receiver loses the spatial multiplexing, and the gap "
          "persists across the whole interference range")


if __name__ == "__main__":
    main()

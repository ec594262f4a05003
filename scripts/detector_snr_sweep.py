#!/usr/bin/env python3
"""Detector error distribution across SNR levels.

Runs seeded synthetic detection trials (matched bursts, +/-25% width
mismatch) at each amplitude/noise ratio and prints the error table.

    python scripts/detector_snr_sweep.py --trials 250 --seed 20000
"""

import argparse

from rtkit.trials import snr_sweep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--snrs", default="1,2,5,10")
    ap.add_argument("--trials", type=int, default=250)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()

    snrs = [float(s) for s in args.snrs.split(",")]
    table = snr_sweep(snrs=snrs, n_trials=args.trials, base_seed=args.seed)

    cols = ("snr", "n", "fails", "within_1fr", "within_2fr", "median_ms", "p95_ms")
    print(("{:>12}" * len(cols)).format(*cols))
    for snr, row in table.items():
        print(
            "{:>12.1f}{:>12d}{:>12d}{:>12.3f}{:>12.3f}{:>12.1f}{:>12.1f}".format(
                snr,
                row["n"],
                row["detect_failures"],
                row["within_1_frame"],
                row["within_2_frames"],
                row["median_abs_error_ms"],
                row["p95_abs_error_ms"],
            )
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

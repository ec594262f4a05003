#!/usr/bin/env python3
"""Regenerate the reference-style report tables from synthetic data.

Draws one SRT dataset from the bundled reference cell parameters, prints
the per-cell summary, both significance grids and the paired vision-vs-SRT
comparison, and (optionally) writes the CSV reports.

    python scripts/reproduce_reference_tables.py --seed 42 --out out/tables
"""

import argparse
from pathlib import Path

from rtkit.stats import (
    SRT_SETTINGS,
    significance_grid,
    summary_table,
    vision_vs_srt,
    write_modalities_grid_csv,
    write_records_csv,
    write_settings_grid_csv,
    write_summary_csv,
)
from rtkit.synth import REFERENCE_SRT_CELLS, REFERENCE_VISION_CELLS, gen_srt_dataset
from rtkit.woz import MODALITIES


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rho", type=float, default=0.5)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    records = gen_srt_dataset(REFERENCE_SRT_CELLS, seed=args.seed, rho=args.rho)
    summaries = summary_table(records)
    grid = significance_grid(records)

    print("per-cell mean (sd), ms")
    print("{:>6}".format("") + "".join(f"{s.value:>16}" for s in SRT_SETTINGS))
    for m in MODALITIES:
        row = [f"{summaries[(m, s)].mean_ms:.0f} ({summaries[(m, s)].sd_ms:.0f})" for s in SRT_SETTINGS]
        print(f"{m:>6}" + "".join(f"{c:>16}" for c in row))

    print("\ncross-setting Welch p-values (per modality)")
    for m in MODALITIES:
        for i, s1 in enumerate(SRT_SETTINGS):
            for s2 in SRT_SETTINGS[i + 1 :]:
                res = grid.settings_grid[(m, s1, s2)]
                print(f"  {m:>4} {s1.value:>9} vs {s2.value:<9} p={res.p:.3f}")

    print("\ncross-modality Welch p-values (per setting)")
    for s in SRT_SETTINGS:
        for i, m1 in enumerate(MODALITIES):
            for m2 in MODALITIES[i + 1 :]:
                res = grid.modalities_grid[(s, m1, m2)]
                print(f"  {s.value:>9} {m1:>4} vs {m2:<4} p={res.p:.3f}")

    print("\npaired vision-vs-SRT comparison")
    for warning, cells in REFERENCE_VISION_CELLS.items():
        n, res = vision_vs_srt(gen_srt_dataset(cells, seed=args.seed + warning, rho=args.rho))
        print(f"  warning {warning}: n={n} t={res.t:.3f} p={res.p:.3f}")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_records_csv(records, out / "records.csv")
        write_summary_csv(summaries, out / "summary.csv")
        write_settings_grid_csv(grid, out / "grid_settings.csv")
        write_modalities_grid_csv(grid, out / "grid_modalities.csv")
        print(f"\nCSV reports written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Reaction-time summaries and hypothesis tests.

Cross-setting and cross-modality comparisons use Welch's unequal-variance
t-test (sample sizes differ between settings); the vision-vs-SRT check uses
the Student paired t-test on per-participant differences. Two-sided p
values come from the regularized incomplete beta function.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateSample, MissingCell, PairingError, ParseError
from .woz import MODALITIES


class Setting(Enum):
    BASELINE = "Baseline"
    AR = "AR"
    VR_WOT = "VR-WOT"
    VR_WT = "VR-WT"
    VISION_E = "VisionE"


class Method(Enum):
    SRT = "SRT"
    VISION = "Vision"


SRT_SETTINGS = (Setting.BASELINE, Setting.AR, Setting.VR_WOT, Setting.VR_WT)


def check_cell(setting: Setting, modality: str) -> None:
    """ValueError unless (setting, modality) is a cell of the study: a known modality, HAV for VisionE."""
    if modality not in MODALITIES:
        raise ValueError(f"unknown modality {modality!r}; expected one of {'|'.join(MODALITIES)}")
    if setting is Setting.VISION_E and modality != "HAV":
        raise ValueError(f"VisionE cells are HAV by definition, got modality {modality!r}")


@dataclass(frozen=True, slots=True)
class ReactionRecord:
    participant: str
    setting: Setting
    modality: str
    rt_ms: float
    method: Method = Method.SRT

    def __post_init__(self):
        if not 0 < self.rt_ms < math.inf:
            raise ValueError(f"rt_ms must be positive and finite, got {self.rt_ms}")
        check_cell(self.setting, self.modality)
        if self.setting is Setting.VISION_E and self.method is not Method.VISION:
            raise ValueError("VisionE records are vision-method HAV by definition")


@dataclass(frozen=True, slots=True)
class SampleSummary:
    n: int
    mean_ms: float
    sd_ms: float | None  # sample SD (n-1); undefined for n < 2


@dataclass(frozen=True, slots=True)
class TTestResult:
    t: float
    df: float
    p: float
    paired: bool
    variant: str  # welch | student_paired


def two_sided_p(t: float, df: float) -> float:
    """P(|T_df| >= |t|) via the regularized incomplete beta function.

    This is scipy's ``betainc`` at I_x(df/2, 1/2), x = df/(df + t^2). It is
    imported here, on the first p-value, so that importing rtkit loads no
    scipy. Against 50-digit mpmath, for df in [1, 1e4] and |t| <= 300, the
    relative error is at most 3e-11 where p < 1 - 1e-6. Nearer 1 the error
    comes from rounding x itself and reaches 4e-7 at df = 1e4, t = 1e-6.
    An infinite t gives 0; a NaN t (a NaN or infinite sample value) gives
    NaN, as scipy's t-tests do.
    """
    if math.isinf(t):
        return 0.0
    if df <= 0 or math.isnan(t):
        return float("nan")
    from scipy.special import betainc

    return float(betainc(df / 2.0, 0.5, df / (df + t * t)))


def summarize(values: Iterable[float]) -> SampleSummary:
    """Mean and sample standard deviation of a cell."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size < 1:
        raise ValueError("empty sample")
    sd = float(arr.std(ddof=1)) if arr.size >= 2 else None
    return SampleSummary(n=int(arr.size), mean_ms=float(arr.mean()), sd_ms=sd)


def welch_ttest(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Two-sided Welch (unequal-variance) unpaired t-test.

    Raises DegenerateSample when both samples have zero variance and equal
    means.
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    n1, n2 = len(x), len(y)
    if n1 < 2 or n2 < 2:
        raise ValueError("both samples need n >= 2")
    # shifted data (Chan, Golub & LeVeque 1983): taking one sample value off
    # both samples keeps a large common offset out of the sums
    x, y = x - x[0], y - x[0]
    m1, m2 = x.mean(), y.mean()
    v1, v2 = x.var(ddof=1), y.var(ddof=1)
    se2 = v1 / n1 + v2 / n2
    if se2 == 0.0:
        if m1 == m2:
            raise DegenerateSample("zero variance in both samples with equal means")
        t = math.copysign(math.inf, m1 - m2)
        return TTestResult(t=t, df=float(n1 + n2 - 2), p=0.0, paired=False, variant="welch")
    df = se2**2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
    t = float((m1 - m2) / math.sqrt(se2))
    return TTestResult(t=t, df=float(df), p=two_sided_p(t, df), paired=False, variant="welch")


def paired_ttest(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Two-sided Student paired t-test on per-pair differences; a[i] pairs with b[i]."""
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if len(x) != len(y):
        raise PairingError(f"sample lengths differ: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 2:
        raise ValueError("need at least 2 pairs")
    d = x - y
    mean_d = d.mean()
    sd_d = d.std(ddof=1)
    df = float(n - 1)
    if sd_d == 0.0:
        if mean_d == 0.0:
            return TTestResult(t=0.0, df=df, p=1.0, paired=True, variant="student_paired")
        t = math.copysign(math.inf, mean_d)
        return TTestResult(t=t, df=df, p=0.0, paired=True, variant="student_paired")
    t = float(mean_d / (sd_d / math.sqrt(n)))
    return TTestResult(t=t, df=df, p=two_sided_p(t, df), paired=True, variant="student_paired")


# ---------------------------------------------------------------------------
# record-level helpers and grids
# ---------------------------------------------------------------------------


def cell_records(records: Iterable[ReactionRecord], setting: Setting, modality: str) -> list[ReactionRecord]:
    return [r for r in records if r.setting is setting and r.modality == modality]


def vision_vs_srt(records: Sequence[ReactionRecord]) -> tuple[int, TTestResult] | None:
    """Paired t-test of VisionE against VR-WT/HAV reaction times, one pair per shared participant.

    Returns (number of pairs, result), or None when there are no VisionE
    records or no participant is in both cells. Raises PairingError when a
    participant has two records in either cell, or when the cells share
    exactly one participant.
    """

    def by_participant(setting: Setting) -> dict[str, float]:
        out: dict[str, float] = {}
        for r in cell_records(records, setting, "HAV"):
            if r.participant in out:
                raise PairingError(
                    f"participant {r.participant!r} has more than one record in cell {setting.value}/HAV"
                )
            out[r.participant] = r.rt_ms
        return out

    vision = by_participant(Setting.VISION_E)
    if not vision:
        return None
    ref = by_participant(Setting.VR_WT)
    shared = sorted(vision.keys() & ref.keys())
    if len(shared) == 1:
        raise PairingError(
            f"cells VisionE/HAV and VR-WT/HAV share only participant {shared[0]!r}; a paired test needs two"
        )
    if not shared:
        return None
    return len(shared), paired_ttest([vision[p] for p in shared], [ref[p] for p in shared])


@dataclass
class SignificanceGrid:
    """Welch tests across settings (per modality) and across modalities
    (per setting), mirroring the two reference comparison tables."""

    settings_grid: dict[tuple[str, Setting, Setting], TTestResult]
    modalities_grid: dict[tuple[Setting, str, str], TTestResult]


def significance_grid(records: Sequence[ReactionRecord]) -> SignificanceGrid:
    """All pairwise Welch comparisons over the SRT settings x modalities cells.

    Raises MissingCell (listing the absent combinations) when any required
    cell has fewer than two records.
    """
    cells = {(s, m): [r.rt_ms for r in cell_records(records, s, m)] for s in SRT_SETTINGS for m in MODALITIES}
    missing = [(s.value, m) for (s, m), vals in cells.items() if len(vals) < 2]
    if missing:
        raise MissingCell(f"missing cells: {missing}", cells=missing)

    sg: dict[tuple[str, Setting, Setting], TTestResult] = {}
    for m in MODALITIES:
        for i, s1 in enumerate(SRT_SETTINGS):
            for s2 in SRT_SETTINGS[i + 1 :]:
                sg[(m, s1, s2)] = welch_ttest(cells[(s1, m)], cells[(s2, m)])
    mg: dict[tuple[Setting, str, str], TTestResult] = {}
    for s in SRT_SETTINGS:
        for i, m1 in enumerate(MODALITIES):
            for m2 in MODALITIES[i + 1 :]:
                mg[(s, m1, m2)] = welch_ttest(cells[(s, m1)], cells[(s, m2)])
    return SignificanceGrid(settings_grid=sg, modalities_grid=mg)


def summary_table(records: Sequence[ReactionRecord]) -> dict[tuple[str, Setting], SampleSummary]:
    cells = {(m, s): [r.rt_ms for r in cell_records(records, s, m)] for m in MODALITIES for s in SRT_SETTINGS}
    return {key: summarize(vals) for key, vals in cells.items() if vals}


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------


def write_records_csv(records: Sequence[ReactionRecord], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["participant", "setting", "modality", "method", "rt_ms"])
        for r in records:
            w.writerow([r.participant, r.setting.value, r.modality, r.method.value, repr(float(r.rt_ms))])


def read_records_csv(path: str | Path) -> list[ReactionRecord]:
    """Records of a records CSV; ParseError names the file and line of a bad row."""
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                records.append(
                    ReactionRecord(
                        participant=row["participant"],
                        setting=Setting(row["setting"]),
                        modality=row["modality"],
                        rt_ms=float(row["rt_ms"]),
                        method=Method(row["method"]),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"{path}: bad record: {exc}", line=reader.line_num) from exc
    return records


def write_summary_csv(summaries: dict[tuple[str, Setting], SampleSummary], path: str | Path) -> None:
    settings = [s for s in SRT_SETTINGS if any(k[1] is s for k in summaries)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["modality", "stat"] + [s.value for s in settings])
        for m in MODALITIES:
            if not any(k[0] == m for k in summaries):
                continue
            means, sds, ns = [], [], []
            for s in settings:
                cell = summaries.get((m, s))
                means.append("" if cell is None else f"{cell.mean_ms:.1f}")
                sds.append("" if cell is None or cell.sd_ms is None else f"{cell.sd_ms:.1f}")
                ns.append("" if cell is None else str(cell.n))
            w.writerow([m, "mean_ms"] + means)
            w.writerow([m, "sd_ms"] + sds)
            w.writerow([m, "n"] + ns)


def write_settings_grid_csv(grid: SignificanceGrid, path: str | Path) -> None:
    """Lower-triangle p-value grid of setting pairs, one block per modality."""
    _write_lower_triangle(path, ["modality", "setting"], MODALITIES, SRT_SETTINGS, grid.settings_grid)


def write_modalities_grid_csv(grid: SignificanceGrid, path: str | Path) -> None:
    """Lower-triangle p-value grid of modality pairs, one block per setting."""
    _write_lower_triangle(path, ["setting", "modality"], SRT_SETTINGS, MODALITIES, grid.modalities_grid)


def _write_lower_triangle(path, head: list[str], blocks, items, results: dict) -> None:
    """One block per entry of ``blocks``: row item i against column items 0..i-1.

    ``results`` is keyed (block, earlier item, later item), as significance_grid keys its grids.
    """

    def label(x) -> str:
        return x.value if isinstance(x, Setting) else x

    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(head + [label(x) for x in items[:-1]])
        for b in blocks:
            for ri, row in enumerate(items[1:], start=1):
                cells = [f"{results[(b, col, row)].p:.3f}" for col in items[:ri]]
                w.writerow([label(b), label(row)] + cells + [""] * (len(items) - 1 - ri))

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from rtkit.errors import DegenerateSample, MissingCell, PairingError, ParseError
from rtkit.stats import (
    Method,
    ReactionRecord,
    Setting,
    paired_ttest,
    read_records_csv,
    significance_grid,
    summarize,
    summary_table,
    two_sided_p,
    vision_vs_srt,
    welch_ttest,
    write_records_csv,
)
from rtkit.synth import REFERENCE_SRT_CELLS, REFERENCE_VISION_CELLS, SrtCell, gen_srt_dataset

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def welch_oracle(a, b):
    """Textbook Welch formula, written out independently of the module."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    n1, n2 = len(a), len(b)
    v1, v2 = a.var(ddof=1), b.var(ddof=1)
    se2 = v1 / n1 + v2 / n2
    t = (a.mean() - b.mean()) / math.sqrt(se2)
    df = se2**2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
    return t, df


def paired_oracle(a, b):
    d = np.asarray(a, float) - np.asarray(b, float)
    t = d.mean() / (d.std(ddof=1) / math.sqrt(len(d)))
    return t, len(d) - 1


# --- summaries ----------------------------------------------------------------


def test_summarize_basic():
    s = summarize([400.0, 500.0, 600.0])
    assert s.n == 3
    assert s.mean_ms == 500.0
    assert s.sd_ms == pytest.approx(100.0)


def test_summarize_single_record():
    s = summarize([412.0])
    assert s.mean_ms == 412.0
    assert s.sd_ms is None


def test_summarize_recovers_generator_cell_params():
    # draws from the flagship cell parameters land inside the 2-se band in
    # nearly all seeds; fixed seed list keeps the suite deterministic
    cell = SrtCell(Setting.VR_WT, "HAV", 438.0, 154.0, 32)
    hits = 0
    for seed in range(100):
        vals = [r.rt_ms for r in gen_srt_dataset([cell], seed=seed)]
        hits += abs(np.mean(vals) - 438.0) <= 2 * 154.0 / math.sqrt(32)
    assert hits >= 95


# --- Welch ---------------------------------------------------------------------


def test_welch_identical_samples():
    r = welch_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert r.t == 0.0
    assert r.p == 1.0
    assert r.variant == "welch"


def test_welch_fixed_vectors_match_oracle():
    a, b = [1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 3.0, 4.0, 5.0, 6.0]
    r = welch_ttest(a, b)
    t, df = welch_oracle(a, b)
    assert r.t == pytest.approx(t, rel=1e-12)
    assert r.df == pytest.approx(df, rel=1e-12)
    # frozen from an independent implementation of the same textbook formula
    assert r.t == pytest.approx(-1.0, rel=1e-9)
    assert r.df == pytest.approx(8.0, rel=1e-9)
    assert r.p == pytest.approx(0.346593507087334, rel=1e-9)


def test_welch_degenerate_sample():
    with pytest.raises(DegenerateSample):
        welch_ttest([5.0, 5.0, 5.0], [5.0, 5.0])
    r = welch_ttest([5.0, 5.0, 5.0], [7.0, 7.0])
    assert r.t == -math.inf and r.p == 0.0


def test_welch_symmetry():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=12), rng.normal(1.0, 2.0, size=9)
    r_ab, r_ba = welch_ttest(a, b), welch_ttest(b, a)
    assert r_ab.t == pytest.approx(-r_ba.t, rel=1e-12)
    assert r_ab.p == pytest.approx(r_ba.p, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    shift=finite_floats,
    scale=st.floats(min_value=0.001, max_value=1000.0),
)
@example(seed=870, shift=149797.0, scale=0.001)
def test_welch_shift_scale_invariance(seed, shift, scale):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=10), rng.normal(0.5, 1.5, size=14)
    a1, b1 = a * scale + shift, b * scale + shift
    # compare with the values a1 and b1 hold, mapped back: rounding a * scale + shift
    # to floats moves t itself by up to 2e-5 relative when t is near 0
    r0 = welch_ttest((a1 - shift) / scale, (b1 - shift) / scale)
    r1 = welch_ttest(a1, b1)
    assert r1.t == pytest.approx(r0.t, rel=1e-6, abs=1e-9)
    assert r1.p == pytest.approx(r0.p, rel=1e-6, abs=1e-12)


def test_welch_distributional_reference_cells():
    # Baseline vs field-AR visual cells are overwhelmingly significant
    base = SrtCell(Setting.BASELINE, "V", 410.0, 105.0, 32)
    field = SrtCell(Setting.AR, "V", 597.0, 232.0, 34)
    sig = 0
    for seed in range(100):
        records = gen_srt_dataset([base, field], seed=seed)
        a = [r.rt_ms for r in records if r.setting is Setting.BASELINE]
        b = [r.rt_ms for r in records if r.setting is Setting.AR]
        sig += welch_ttest(a, b).p < 0.05
    assert sig >= 95


# --- paired ---------------------------------------------------------------------


def test_paired_identical_vectors():
    r = paired_ttest([3.0, 4.0, 5.0], [3.0, 4.0, 5.0])
    assert r.t == 0.0 and r.p == 1.0
    assert r.variant == "student_paired"
    assert r.df == 2.0


def test_paired_fixed_differences_match_oracle():
    a = [110.0, 190.0, 320.0, 400.0]
    b = [100.0, 200.0, 300.0, 400.0]  # diffs 10, -10, 20, 0
    r = paired_ttest(a, b)
    t, df = paired_oracle(a, b)
    assert r.t == pytest.approx(t, rel=1e-12)
    assert r.df == df == 3
    assert r.t == pytest.approx(0.774596669241483, rel=1e-9)
    assert r.p == pytest.approx(0.495025346059711, rel=1e-9)


def test_paired_mismatched_lengths():
    with pytest.raises(PairingError):
        paired_ttest([1.0, 2.0], [1.0, 2.0, 3.0])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_paired_depends_only_on_differences(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=8)
    b = rng.normal(size=8)
    offsets = rng.normal(scale=50.0, size=8)
    r0 = paired_ttest(a, b)
    r1 = paired_ttest(a + offsets, b + offsets)
    assert r1.t == pytest.approx(r0.t, rel=1e-6, abs=1e-9)
    assert r1.p == pytest.approx(r0.p, rel=1e-6, abs=1e-12)


@pytest.mark.parametrize(
    "a, b",
    [([1.0, 2.0, math.nan], [3.0, 4.0, 5.0]), ([1.0, 2.0, math.inf], [3.0, 4.0, 5.0]),
     ([math.inf, 2.0, 3.0], [3.0, 4.0, 5.0]), ([1.0, 2.0, 3.0], [3.0, 4.0, -math.inf])],
)
def test_non_finite_sample_gives_nan_like_scipy(a, b):
    # a NaN t is no evidence: p is NaN, not the 0.0 of an infinite t
    with np.errstate(invalid="ignore"):
        cases = [(welch_ttest(a, b), sstats.ttest_ind(a, b, equal_var=False)), (paired_ttest(a, b), sstats.ttest_rel(a, b))]
    for ours, ref in cases:
        assert math.isnan(ref.statistic) and math.isnan(ref.pvalue)
        assert math.isnan(ours.t) and math.isnan(ours.p)


def test_p_of_infinite_and_nan_t():
    assert two_sided_p(math.inf, 5.0) == two_sided_p(-math.inf, 5.0) == 0.0
    assert math.isnan(two_sided_p(math.nan, 5.0))


def test_p_monotone_in_t():
    ps = [two_sided_p(t, 10.0) for t in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)]
    assert ps[0] == 1.0
    assert all(x > y for x, y in zip(ps, ps[1:]))


# --- grids ----------------------------------------------------------------------


def test_significance_grid_shape():
    records = gen_srt_dataset(REFERENCE_SRT_CELLS, seed=3)
    grid = significance_grid(records)
    assert len(grid.settings_grid) == 4 * 6  # 4 modalities x C(4,2) setting pairs
    assert len(grid.modalities_grid) == 4 * 6
    summaries = summary_table(records)
    assert len(summaries) == 16


def test_significance_grid_missing_cell():
    cells = [c for c in REFERENCE_SRT_CELLS if not (c.setting is Setting.AR and c.modality == "HV")]
    records = gen_srt_dataset(cells, seed=3)
    with pytest.raises(MissingCell) as exc:
        significance_grid(records)
    assert ("AR", "HV") in exc.value.cells


def test_grid_reproduces_reference_modality_pattern():
    # haptic-visual draws are faster than visual-only in nearly every seed,
    # while HV vs HAV stays statistically indistinguishable
    hv_faster = 0
    hv_hav_ns = 0
    total = 0
    for seed in range(40):
        records = gen_srt_dataset(REFERENCE_SRT_CELLS, seed=1000 + seed)
        grid = significance_grid(records)
        summaries = summary_table(records)
        for s in (Setting.BASELINE, Setting.AR, Setting.VR_WOT, Setting.VR_WT):
            total += 1
            hv_faster += summaries[("HV", s)].mean_ms < summaries[("V", s)].mean_ms
            hv_hav_ns += grid.modalities_grid[(s, "HV", "HAV")].p >= 0.05
    assert hv_faster / total > 0.5
    assert hv_hav_ns / total >= 0.8


# --- records ---------------------------------------------------------------------


def test_record_invariants():
    with pytest.raises(ValueError):
        ReactionRecord("p", Setting.BASELINE, "V", rt_ms=-5.0)
    with pytest.raises(ValueError):
        ReactionRecord("p", Setting.VISION_E, "HAV", rt_ms=400.0, method=Method.SRT)
    with pytest.raises(ValueError):
        ReactionRecord("p", Setting.VISION_E, "V", rt_ms=400.0, method=Method.VISION)


@pytest.mark.parametrize("modality", ["hav", "XX", ""])
def test_record_unknown_modality(modality):
    with pytest.raises(ValueError, match=f"unknown modality {modality!r}"):
        ReactionRecord("p", Setting.BASELINE, modality, rt_ms=400.0)


def test_records_csv_unknown_modality_names_line(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("participant,setting,modality,method,rt_ms\nP1,AR,V,SRT,400.0\nP1,AR,hav,SRT,400.0\n")
    with pytest.raises(ParseError, match="line 3: .*unknown modality 'hav'"):
        read_records_csv(path)


def test_vision_vs_srt_pairs_by_participant():
    records = gen_srt_dataset(REFERENCE_VISION_CELLS[1], seed=4)
    vis = {r.participant: r.rt_ms for r in records if r.setting is Setting.VISION_E}
    ref = {r.participant: r.rt_ms for r in records if r.setting is Setting.VR_WT}
    ps = sorted(vis)
    # record order does not matter, and records outside the two cells are ignored
    others = gen_srt_dataset(REFERENCE_SRT_CELLS, seed=4)
    assert vision_vs_srt(others + records[::-1]) == (21, paired_ttest([vis[p] for p in ps], [ref[p] for p in ps]))


def test_vision_vs_srt_without_pairs_is_none():
    vision_only = gen_srt_dataset(REFERENCE_VISION_CELLS[1][:1], seed=4)
    assert vision_vs_srt(gen_srt_dataset(REFERENCE_SRT_CELLS, seed=4)) is None
    assert vision_vs_srt(vision_only + gen_srt_dataset(REFERENCE_SRT_CELLS, seed=4)) is None


@pytest.mark.parametrize(
    "extra, match",
    [
        ([("V1", Setting.VR_WT)], "share only participant 'V1'"),
        ([("V1", Setting.VISION_E), ("V1", Setting.VR_WT)], "'V1' has more than one record in cell VisionE/HAV"),
        ([("V2", Setting.VR_WT), ("V2", Setting.VR_WT)], "'V2' has more than one record in cell VR-WT/HAV"),
    ],
)
def test_vision_vs_srt_pairing_errors(extra, match):
    def rec(p, setting):
        method = Method.VISION if setting is Setting.VISION_E else Method.SRT
        return ReactionRecord(p, setting, "HAV", rt_ms=400.0, method=method)

    records = [rec("V1", Setting.VISION_E), rec("V2", Setting.VISION_E)] + [rec(p, s) for p, s in extra]
    with pytest.raises(PairingError, match=match):
        vision_vs_srt(records)


def test_records_csv_roundtrip(tmp_path):
    records = gen_srt_dataset(REFERENCE_SRT_CELLS[:4], seed=5)
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    assert read_records_csv(path) == records


def test_value_classes_are_slotted_and_copy_round_trip():
    record = ReactionRecord("P07", Setting.VR_WT, "HAV", 438.5)
    values = [record, summarize([410.0, 455.5, 438.0]), welch_ttest([1.0, 2.0, 4.0], [2.0, 3.5, 6.0])]
    assert [type(v).__name__ for v in values] == ["ReactionRecord", "SampleSummary", "TTestResult"]
    for value in values:
        assert not hasattr(value, "__dict__"), type(value).__name__
        for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), dataclasses.replace(value)):
            assert type(back) is type(value) and back == value and repr(back) == repr(value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.rt_ms = 1.0
    # replace runs the field checks again
    assert dataclasses.replace(record, rt_ms=500.0).rt_ms == 500.0
    with pytest.raises(ValueError, match="rt_ms must be positive"):
        dataclasses.replace(record, rt_ms=0.0)

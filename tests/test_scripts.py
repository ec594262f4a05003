import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout.splitlines()


def test_snr_sweep_header_splits_into_column_names():
    header, *rows = run_script("detector_snr_sweep.py", "--seed", "1", "--trials", "2", "--snrs", "5")
    assert header.split() == ["snr", "n", "fails", "within_1fr", "within_2fr", "median_ms", "p95_ms"]
    assert len(rows) == 1 and len(rows[0].split()) == 7


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--seed", "1", "--trials", "0"], "--trials must be at least 1"),
        (["--seed", "1", "--trials", "2", "--snrs", "5,5"], "--snrs must be distinct"),
        (["--seed", "1", "--trials", "2", "--snrs", "5,nan"], "--snrs must be finite and above 0"),
        (["--seed", "-1", "--trials", "2"], "--seed must be at least 0"),
    ],
    ids=["no-trials", "repeated-snr", "nan-snr", "negative-seed"],
)
def test_snr_sweep_refuses_bad_arguments_before_any_trial(argv, message):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "detector_snr_sweep.py"), *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("usage:") and message in proc.stderr


def load_bench_ab():
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "scripts" / "bench_ab.py")
    bench_ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_ab)
    return bench_ab


def test_bench_ab_summary_counts_wins_by_direction():
    import random

    bench_ab = load_bench_ab()

    def side(ops, ms):
        return {"metrics": {"ops_per_s": {"value": ops}, "op_ms_p50": {"value": ms}}}

    pairs = [{"base": side(50.0, 20.0), "change": side(100.0, 10.0)},
             {"base": side(50.0, 20.0), "change": side(75.0, 40.0)},
             {"base": side(50.0, 20.0), "change": side(25.0, 10.0)}]
    got = bench_ab.summarize(pairs, {"ops_per_s": "higher", "op_ms_p50": "lower"}, random.Random(0))
    assert got["ops_per_s"]["ratios"] == [2.0, 1.5, 0.5]
    assert got["ops_per_s"]["median_ratio"] == 1.5 and got["ops_per_s"]["change_wins"] == 2
    assert got["op_ms_p50"]["ratios"] == [0.5, 2.0, 0.5] and got["op_ms_p50"]["change_wins"] == 2
    lo, hi = got["ops_per_s"]["ci95"]
    assert 0.5 <= lo <= 1.5 <= hi <= 2.0
    assert got["ops_per_s"]["base_quartiles"] == [50.0, 50.0, 50.0]


def test_bench_ab_verdicts_on_canned_pairs():
    import random

    bench_ab = load_bench_ab()

    def pairs(base, change):
        return [{"base": {"metrics": {"m": {"value": b}}}, "change": {"metrics": {"m": {"value": c}}}}
                for b, c in zip(base, change)]

    def verdict(base, change, better, bound=0.1):
        got = bench_ab.summarize(pairs(base, change), {"m": better}, random.Random(0), {"m": bound})["m"]
        return got["gain_resolved"], got["regressed"]

    base = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 101.5, 98.5, 100.0]  # quartiles 99.125, 100, 100.875
    # 10/10 wins, median 94: a resolved gain for "lower"; for "higher" the same runs are 6% worse, within 10%
    assert verdict(base, [b - 6.0 for b in base], "lower") == (True, False)
    assert verdict(base, [b - 6.0 for b in base], "higher") == (False, False)
    # 9/10 wins still resolve; 8/10 do not
    nine = [b - 6.0 for b in base[:9]] + [base[9] + 1.0]
    assert verdict(base, nine, "lower") == (True, False)
    assert verdict(base, nine[:8] + [base[8] + 1.0, base[9] + 1.0], "lower") == (False, False)
    # every pair won, but the medians differ by 0.5, less than the base's IQR of 1.75
    assert verdict(base, [b - 0.5 for b in base], "lower") == (False, False)
    # worse by 12% of the base median: past a 10% bound, not past a 25% one
    assert verdict(base, [b * 1.12 for b in base], "lower") == (False, True)
    assert verdict(base, [b * 1.12 for b in base], "lower", bound=0.25) == (False, False)
    assert verdict(base, [b * 0.88 for b in base], "higher") == (False, True)
    # fewer than 10 pairs resolve no gain, however one-sided
    assert verdict(base[:9], [b - 6.0 for b in base[:9]], "lower") == (False, False)
    # a metric without a bound (import_s) gets no regression verdict
    got = bench_ab.summarize(pairs(base, base), {"m": "lower"}, random.Random(0))["m"]
    assert got["gain_resolved"] is False and got["regressed"] is None and got["unresolved"] is None

    def unresolved(base, change, better):
        return bench_ab.summarize(pairs(base, change), {"m": better}, random.Random(0), {"m": 0.1})["m"]["unresolved"]

    # a spread of 1.75% of the median is inside a 10% bound
    assert unresolved(base, base, "lower") is False
    # a spread of 27.5% of the median is wider than the bound
    wide = [70.0, 130.0, 85.0, 115.0, 100.0, 90.0, 110.0, 80.0, 120.0, 100.0]
    assert bench_ab.quartiles(wide) == [86.25, 100.0, 113.75]
    assert unresolved(wide, wide, "lower") is True
    # the same spread, but every change run beats every base run
    assert unresolved(wide, [65.0 - i for i in range(10)], "lower") is False
    assert unresolved(wide, [65.0 - i for i in range(10)], "higher") is True


def test_bench_ab_gain_needs_both_sides_spread_on_committed_records():
    import json
    import random

    bench_ab = load_bench_ab()

    def summary(record, workload, metric, direction):
        runs = json.loads((ROOT / record).read_text(encoding="utf-8"))["workloads"][workload]["runs"]
        pairs = [{s: {"metrics": {metric: {"value": run[s][metric]}}} for s in ("base", "change")} for run in runs]
        return bench_ab.summarize(pairs, {metric: direction}, random.Random(0))[metric]

    def iqr(quartiles):
        return quartiles[2] - quartiles[0]

    # vision_session memory: gains of 3.2 and 3.6 MB, wider than either side's spread
    for record in ("BENCH_19.json", "BENCH_20.json"):
        got = summary(record, "vision_session", "peak_rss_mb", "lower")
        assert got["change_wins"] == 10 and got["gain_resolved"] is True
    # detector_trials time in BENCH_21 (no detector code changed): 9/10 pairs won and a gain wider than the
    # base's spread, but not than the change's, so no longer a resolved gain
    for metric, direction in (("ops_per_s", "higher"), ("op_ms_p50", "lower")):
        got = summary("BENCH_21.json", "detector_trials", metric, direction)
        gain = abs(got["change_quartiles"][1] - got["base_quartiles"][1])
        assert got["change_wins"] == 9 and iqr(got["base_quartiles"]) < gain < iqr(got["change_quartiles"])
        assert got["gain_resolved"] is False


def test_bench_ab_code_digest_covers_src_and_bench_only(tmp_path):
    bench_ab = load_bench_ab()
    a, b = tmp_path / "a", tmp_path / "b"
    for tree in (a, b):
        (tree / "src" / "pkg").mkdir(parents=True)
        (tree / "bench").mkdir()
        (tree / "src" / "pkg" / "m.py").write_text("x = 1\n")
        (tree / "bench" / "run.py").write_text("pass\n")
    (b / "README.md").write_text("notes\n")
    assert bench_ab.code_digest(a) == bench_ab.code_digest(b)
    (b / "src" / "pkg" / "m.py").write_text("x = 2\n")
    assert bench_ab.code_digest(a) != bench_ab.code_digest(b)
    (b / "src" / "pkg" / "m.py").write_text("x = 1\n")
    (b / "bench" / "run.py").rename(b / "bench" / "main.py")
    assert bench_ab.code_digest(a) != bench_ab.code_digest(b)


def test_bench_ab_reads_import_time_from_the_words_line():
    import random

    bench_ab = load_bench_ab()

    def stdout(import_s, setup_s):
        return (
            f"srt_study seed 1: 40 op(s) in 40 round(s); op_ms_p50 212.500 ms over 40 samples; "
            f"ops_per_s 4.6512; setup_s {setup_s:.4f} (imports {import_s:.4f} + median of 3 set-ups "
            f"0.0101, 0.0098, 0.0100)\n"
            f'{{"correct": true, "attempted": 40, "failed": 0, "metrics": '
            f'{{"setup_s": {{"value": {setup_s}, "unit": "s"}}}}}}\n'
        )

    base, change = bench_ab.parse_stdout(stdout(0.5, 0.51)), bench_ab.parse_stdout(stdout(0.2, 0.21))
    assert base["metrics"]["import_s"] == {"value": 0.5, "unit": "s"}
    assert base["metrics"]["setup_s"]["value"] == 0.51 and base["attempted"] == 40
    got = bench_ab.summarize([{"base": base, "change": change}], {"import_s": "lower"}, random.Random(0))
    assert got["import_s"]["ratios"] == [0.4] and got["import_s"]["change_wins"] == 1
    # a traced run prints no import figure
    traced = bench_ab.parse_stdout('srt_study seed 1: traced 4 op(s), 90 spans -> x\n{"correct": true, "metrics": {}}\n')
    assert traced["metrics"] == {}

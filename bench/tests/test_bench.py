"""Tests of the benchmark itself: tiny runs of each workload, the tracer,
and that every correctness check rejects a wrong answer.

    python3 -m pytest -q bench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import layers
import run
import workloads
from rtkit import cli, detector, stats, synth, trials, woz
from tracing import Tracer

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _run(workload, tracer=None):
    return run.run(workload, seconds=0.0, tracer=tracer)


# ---------------------------------------------------------------------------
# workloads at a tiny size
# ---------------------------------------------------------------------------


def test_vision_session_tiny(tmp_path):
    w = workloads.VisionSession(3, tmp_path, schedules=("HAV", "ExpE"))
    res = _run(w)
    assert res["problems"] == []
    assert (res["attempted"], res["failed"], len(res["durations"])) == (2, 0, 2)
    assert sorted(r.fmt for r in w.recordings) == ["csv", "jsonl"]


def test_detector_trials_tiny():
    w = workloads.DetectorTrials(3)
    res = _run(w)
    assert res["problems"] == []
    assert (res["attempted"], res["failed"]) == (2, 0)
    assert w.hits["high"][1] == w.hits["low"][1] == 1


def _tiny_srt(tmp_path, seed=3):
    cells = [dataclasses.replace(c, n=6) for c in synth.REFERENCE_SRT_CELLS]
    return workloads.SrtStudy(seed, tmp_path, cells=cells, studies=1)


def test_srt_study_tiny(tmp_path):
    w = _tiny_srt(tmp_path)
    res = _run(w)
    assert res["problems"] == []
    assert (res["attempted"], res["failed"]) == (1, 0)
    status = np.array(w.plans[0].status)
    late, withheld = int((status == workloads.LATE).sum()), int((status == workloads.WITHHELD).sum())
    assert (late, withheld) == (workloads.LATE_PER_STUDY, workloads.WITHHELD_PER_STUDY)


def test_same_seed_same_inputs(tmp_path):
    a = workloads.VisionSession(8, tmp_path / "a")
    b = workloads.VisionSession(8, tmp_path / "b")
    assert [(r.fmt, r.baseline_ms, r.onsets_ms, r.gen_seed) for r in a.recordings] == [
        (r.fmt, r.baseline_ms, r.onsets_ms, r.gen_seed) for r in b.recordings
    ]
    ops_a = [key for key, _ in workloads.DetectorTrials(8).round_ops(5)]
    ops_b = [key for key, _ in workloads.DetectorTrials(8).round_ops(5)]
    assert ops_a == ops_b


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def test_tracer_nesting_and_self_time():
    ns = types.SimpleNamespace()
    ns.inner = lambda: time.sleep(0.01)

    def outer():
        ns.inner()
        ns.inner()
        time.sleep(0.005)

    ns.outer = outer
    tracer = Tracer()
    tracer.wrap(ns, "inner", "inner", ("inner.units", lambda a, k, r: 2))
    tracer.wrap(ns, "outer", "outer")
    tracer.op_id = 1
    tracer.span("op", ns.outer)
    tracer.unwrap_all()
    assert ns.outer is outer

    names = [s[0] for s in tracer.spans]
    assert names == ["op", "outer", "inner", "inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1]
    self_ns = tracer.self_times_ns()
    outer_span = tracer.spans[1]
    inner_total = sum(s[2] - s[1] for s in tracer.spans[2:])
    assert self_ns[("outer", "op")] == outer_span[2] - outer_span[1] - inner_total
    assert 0.004e9 < self_ns[("outer", "op")] < inner_total
    assert tracer.counts[("op", "inner.calls")] == 2
    assert tracer.counts[("op", "inner.units")] == 4


def test_tracer_counts_calls_that_raise():
    ns = types.SimpleNamespace(boom=lambda: 1 / 0)
    tracer = Tracer()
    tracer.wrap(ns, "boom", "boom")
    with pytest.raises(ZeroDivisionError):
        ns.boom()
    tracer.unwrap_all()
    assert tracer.counts[("op", "boom.calls")] == 1
    assert tracer.spans[0][2] >= tracer.spans[0][1]


def test_traced_run_reports_every_layer_metric(tmp_path):
    originals = [getattr(owner, attr) for owner, attr, _, _ in layers.WRAP_POINTS]
    w = _tiny_srt(tmp_path)
    tracer = Tracer()
    layers.install(tracer)
    try:
        res = _run(w, tracer)
    finally:
        tracer.unwrap_all()
    assert [getattr(owner, attr) for owner, attr, _, _ in layers.WRAP_POINTS] == originals
    assert res["problems"] == []
    metrics = layers.layer_metrics(tracer, ops=1, setup_inputs=3, streams_per_op=0, traced_ops_per_s=1.0)
    assert list(metrics) == list(layers.PER_LAYER)
    assert metrics["stats.ttests"]["value"] == 50.0  # 48 grid tests + 2 paired
    assert metrics["woz.log_parse_s"]["value"] > 0.0
    assert metrics["pose.parse_calls"]["value"] == 0.0
    tracer.dump(tmp_path / "spans.csv")
    assert len((tmp_path / "spans.csv").read_text().splitlines()) == len(tracer.spans) + 1


def test_wrap_points_are_where_callers_look():
    # detect reaches its pipeline through module globals; trials and cli
    # through the bindings wrapped in layers.WRAP_POINTS
    wrapped = {(owner.__name__, attr) for owner, attr, _, _ in layers.WRAP_POINTS}
    for fn in ("select_upper_body", "velocity_series", "build_kernel", "convolve"):
        assert fn in detector.detect.__code__.co_names and ("rtkit.detector", fn) in wrapped
    for fn in ("gen_pose_stream", "detect"):
        assert fn in trials.run_detection_trial.__code__.co_names and ("rtkit.trials", fn) in wrapped
    assert ("rtkit.stats", "welch_ttest") in wrapped
    assert "welch_ttest" in stats.significance_grid.__code__.co_names
    assert ("rtkit.cli", "main") in wrapped and cli.main.__module__ == "rtkit.cli"


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "ops_per_s", "op_ms_p50", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["per_layer"] == [
        {"name": k, "unit": unit, "better": better} for k, (unit, better, _, _) in layers.PER_LAYER.items()
    ]


# ---------------------------------------------------------------------------
# every check rejects a wrong answer
# ---------------------------------------------------------------------------


def test_detection_check_rejects_rt_three_frames_off(tmp_path):
    frame = workloads.FRAME_MS
    onsets = {10000.0: 250.0, 20000.0: 300.0}
    path = tmp_path / "detection_summary.csv"

    def write(shift):
        rows = ["participant,warning_t_ms,rt_ms,t_max_ms,peak_value"]
        rows += [f"P,{w!r},{o + shift!r},0.0,1.0" for w, o in onsets.items()]
        path.write_text("\n".join(rows) + "\n")

    write(frame)
    assert checks.check_detection_summary(path, onsets, frame) == []
    write(3 * frame)
    assert len(checks.check_detection_summary(path, onsets, frame)) == 2


def test_ttest_check_rejects_t_off_by_1e6_relative():
    rng = np.random.default_rng(1)
    a, b = rng.normal(400, 100, 30), rng.normal(450, 120, 34)
    mine = stats.welch_ttest(a, b)
    assert checks.check_ttest("w", mine, a, b) == []
    assert checks.check_ttest("w", dataclasses.replace(mine, t=mine.t * (1 + 1e-6)), a, b)
    pmine = stats.paired_ttest(a[:20], b[:20])
    assert checks.check_ttest("p", pmine, a[:20], b[:20]) == []
    assert checks.check_ttest("p", dataclasses.replace(pmine, t=pmine.t * (1 - 1e-6)), a[:20], b[:20])


def test_canonical_check_rejects_one_changed_coordinate(tmp_path):
    stream, _ = synth.gen_pose_stream(2000.0, 30.0, [], [], synth.NoiseSpec(0.004), seed=4)
    path = tmp_path / "s.jsonl"
    from rtkit import pose

    pose.write_pose_stream(stream, path)
    assert checks.check_canonical(path, stream) == []
    lines = path.read_text().splitlines()
    obj = json.loads(lines[7])
    obj["landmarks"][12]["y"] = float(np.nextafter(obj["landmarks"][12]["y"], 1.0))
    lines[7] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    assert checks.check_canonical(path, stream) == ["s.jsonl: coords differs from the generated stream"]


def _one_log(tmp_path, offsets):
    script = woz.script_by_name("V")
    triggers = woz.run_scenario(script, woz.SimClock(), woz.ListTransport())
    acks = woz.simulate_acks(triggers, seed=1)
    resp = [woz.ResponseEvent(t.seq, t.dispatched_ms + o) for t, o in zip(triggers, offsets) if o is not None]
    path = tmp_path / "v.log"
    woz.write_event_log(sorted([*triggers, *acks, *resp], key=workloads._event_time), path)
    log = woz.parse_event_log(path, max_rt_ms=workloads.MAX_RT_MS)
    return log, woz.latency_budget_check(log.triggers, log.acks)


def test_srt_check_rejects_parsed_rt_off_by_one_ms(tmp_path):
    offsets = [412, None, 5400, 377, 519]
    log, lat = _one_log(tmp_path, offsets)
    assert checks.check_srt_log("v", log, lat, offsets, workloads.MAX_RT_MS) == []
    e = log.srt_events[0]
    log.srt_events[0] = dataclasses.replace(e, rt_ms=e.rt_ms + 1)
    assert checks.check_srt_log("v", log, lat, offsets, workloads.MAX_RT_MS)


def test_srt_check_rejects_wrong_misses_and_orphans(tmp_path):
    offsets = [412, None, 5400, 377, 519]
    log, lat = _one_log(tmp_path, offsets)
    assert checks.check_srt_log("v", log, lat, [412, 300, 5400, 377, 519], workloads.MAX_RT_MS)
    log.orphan_responses.append(woz.ResponseEvent(9, 1))
    assert checks.check_srt_log("v", log, lat, offsets, workloads.MAX_RT_MS)


def test_summary_check_rejects_a_wrong_mean():
    values = [401.0, 377.5, 512.25, 433.0]
    good = stats.summarize(values)
    assert checks.check_summary("c", good, values) == []
    assert checks.check_summary("c", dataclasses.replace(good, mean_ms=good.mean_ms * (1 + 1e-9)), values)


def test_spectrum_check_rejects_wrong_energy(tmp_path):
    from rtkit import spectral
    from rtkit.kinematics import VelocitySeries

    v = np.abs(np.random.default_rng(2).normal(size=101))
    n = len(v)
    series = VelocitySeries("s", 30.0, np.arange(1, n + 1), np.arange(1, n + 1) * (1000.0 / 30.0), v)
    path = tmp_path / "spec.csv"
    spectral.write_spectrum_csv(spectral.fft_magnitude(series), path)
    assert checks.check_spectrum(path, v) == []
    assert checks.check_spectrum(path, v * (1 + 1e-8))


def test_share_test_rejects_a_clearly_worse_detector():
    assert checks.share_holds(962, 1000, 0.95)
    assert not checks.share_holds(900, 1000, 0.95)
    assert checks.share_holds(1000, 1000, 0.99)
    assert not checks.share_holds(960, 1000, 0.99)


def test_injected_onset_matches_the_trial_harness():
    for seed in (0, 17, 123456789):
        assert checks.injected_onset(seed) == trials.run_detection_trial(seed, 8.0).onset_ms


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    p = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "srt_study", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert p.returncode != 0
    assert p.stdout.strip() == ""

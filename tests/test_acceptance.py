"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. The distributional
criteria use fixed master seeds, so the whole module is deterministic.
"""

import contextlib
import hashlib
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import signal as ssignal
from scipy import stats as sstats

from conftest import make_series, peak_time, two_sided_energy
from rtkit.cli import main as cli_main
from rtkit.detector import build_kernel, convolve, default_window
from rtkit.spectral import cwt_gaus2, fft_magnitude
from rtkit.stats import Setting, paired_ttest, welch_ttest
from rtkit.synth import REFERENCE_SRT_CELLS, REFERENCE_VISION_CELLS, gen_srt_dataset
from rtkit.trials import run_detection_trial
from rtkit.woz import ListTransport, SimClock, builtin_scripts, format_event_log, latency_budget_check, run_scenario, simulate_acks

FRAME_MS = 1000.0 / 30.0
# scale maximizing |W| for a Gaussian pulse of width sigma is sqrt(5)*sigma
PULSE_SIGMA_TO_SCALE = np.sqrt(5.0)


@contextlib.contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:02d} {name}: FAIL")
        raise
    print(f"[acceptance] criterion {num:02d} {name}: PASS")


def test_c01_window_rule():
    with criterion(1, "window rule reproduction"):
        w = default_window(438.0, 154.0, 33.33)
        assert w.length_ms == 1000.0
        assert w.length_frames == 30
        best = min(
            _timed(lambda: default_window(438.0, 154.0, 33.33)) for _ in range(200)
        )
        assert best < 1e-3, f"single call took {best * 1e3:.3f} ms"


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_c02_schedule_reproduction():
    expected = {
        "V": [10, 20, 28, 33, 36],
        "HV": [15, 25, 28, 33, 36],
        "AV": [17, 21, 28, 35, 38],
        "HAV": [12, 17, 22, 24, 27],
        "ExpE": [25, 45],
    }
    with criterion(2, "schedule reproduction"):
        t0 = time.perf_counter()
        logs = []
        for _ in range(2):
            chunk = {}
            for script in builtin_scripts():
                events = run_scenario(script, SimClock(), ListTransport())
                assert [e.dispatched_ms for e in events] == [s * 1000 for s in expected[script.name]]
                assert all(e.dispatched_ms == e.scheduled_ms for e in events)
                chunk[script.name] = format_event_log(events)
            logs.append(chunk)
        assert logs[0] == logs[1]  # byte-stable
        assert time.perf_counter() - t0 < 1.0


def test_c03_detector_oracle_accuracy():
    with criterion(3, "detector oracle accuracy"):
        t0 = time.perf_counter()
        base = 100_000
        hi = []
        for i in range(1000):
            snr = float(np.random.default_rng(777_000 + i).uniform(5.0, 10.0))
            hi.append(run_detection_trial(base + i, snr))
        ok1 = sum(1 for r in hi if r.ok and abs(r.error_ms) <= FRAME_MS + 1e-9)
        lo = [run_detection_trial(base + i, 2.0) for i in range(1000)]
        ok2 = sum(1 for r in lo if r.ok and abs(r.error_ms) <= 2 * FRAME_MS + 1e-9)
        elapsed = time.perf_counter() - t0
        assert ok1 >= 990, f"SNR>=5: {ok1}/1000 within 1 frame"
        assert ok2 >= 950, f"SNR 2: {ok2}/1000 within 2 frames"
        assert elapsed < 60.0, f"harness took {elapsed:.1f} s"


def test_c04_convolution_method_equivalence():
    with criterion(4, "direct vs scipy fft convolution"):
        rng = np.random.default_rng(4040)
        for _ in range(100):
            n = int(rng.integers(64, 4097))
            x = rng.normal(size=n)
            kernel = build_kernel(float(rng.uniform(120.0, 900.0)), FRAME_MS)
            if n < len(kernel):
                n += len(kernel)
                x = rng.normal(size=n)
            series = make_series(x)
            d = convolve(series, kernel).values
            f = ssignal.fftconvolve(x, kernel.samples, mode="same")
            assert np.abs(d - f).max() <= 1e-9 * np.abs(d).max()


def _bumpy_series(rng, n=600, dt=40.0):
    v = np.abs(rng.normal(size=n)) + 0.05
    peak = int(rng.integers(260, 330))
    v[peak : peak + 8] += rng.uniform(3.0, 6.0)
    t = np.arange(1, n + 1) * dt
    series = make_series(v, fps=1000.0 / dt)
    series.t_ms = t
    return series


def test_c05_argmax_invariances():
    # dt = 40 ms grid keeps every timestamp difference exact in binary
    # floating point, so shift/scale identities can be asserted exactly
    dt = 40.0
    kernel = build_kernel(438.0, dt)
    window = default_window(438.0, 154.0, dt)
    with criterion(5, "argmax scale/shift invariances"):
        for case in range(100):
            rng = np.random.default_rng(5050 + case)
            series = _bumpy_series(rng, dt=dt)
            conv = convolve(series, kernel)
            j0 = 150  # window anchor index on the conv grid
            start0 = float(conv.t_ms[j0])
            t_max0 = peak_time(conv, window.at(start0))
            for c in (0.1, 1.0, 10.0):
                scaled = make_series(c * series.v, fps=series.fps)
                scaled.t_ms = series.t_ms
                t_max_c = peak_time(convolve(scaled, kernel), window.at(start0))
                assert t_max_c == t_max0  # exact
            for k in (1, 5, 17):
                shifted = make_series(
                    np.concatenate([np.zeros(k), series.v[:-k]]), fps=series.fps
                )
                shifted.t_ms = series.t_ms
                conv_k = convolve(shifted, kernel)
                start_k = float(conv_k.t_ms[j0 + k])
                t_max_k = peak_time(conv_k, window.at(start_k))
                assert t_max_k == t_max0  # rt unchanged, peak moved exactly k frames
                assert start_k - start0 == k * dt


def test_c06_spectral_identities():
    with criterion(6, "spectral identities"):
        rng = np.random.default_rng(6060)
        for _ in range(100):
            n = int(rng.integers(16, 1024))
            x = rng.normal(size=n)
            spec = fft_magnitude(make_series(x))
            energy = float((x**2).sum())
            assert abs(two_sided_energy(spec) - energy) <= 1e-9 * energy

        n = 600
        scales = np.geomspace(2.0, 30.0, 16)
        for values in (np.full(n, 3.7), 0.25 * np.arange(n)):
            res = cwt_gaus2(make_series(values), scales)
            interior = np.where(res.boundary_mask, np.nan, res.coefficients)
            ref = max(np.abs(values).max(), 1.0)
            assert np.nanmax(np.abs(interior)) <= 1e-8 * ref * 10.0

        for sigma_p in (2.0, 4.0, 8.0, 16.0):
            i = np.arange(1024)
            series = make_series(np.exp(-((i - 512.0) ** 2) / (2 * sigma_p**2)))
            res = cwt_gaus2(series, np.geomspace(1.0, 64.0, 200))
            a_star = float(res.scales[int(np.argmax(np.abs(res.coefficients[:, 512])))])
            assert abs(a_star - PULSE_SIGMA_TO_SCALE * sigma_p) <= 0.10 * PULSE_SIGMA_TO_SCALE * sigma_p


def _fixed_vector_pairs():
    rng = np.random.default_rng(7070)
    pairs = []
    for i in range(20):
        n1 = int(rng.integers(3, 10))
        n2 = n1 if i >= 10 else int(rng.integers(3, 10))
        a = np.round(rng.normal(400.0, 80.0, size=n1), 3)
        b = np.round(rng.normal(430.0, 120.0, size=n2), 3)
        pairs.append((a, b))
    return pairs


def test_c07_statistics_oracle():
    with criterion(7, "t-test oracle equivalence"):
        pairs = _fixed_vector_pairs()
        for i, (a, b) in enumerate(pairs):
            if i < 10:
                mine = welch_ttest(a, b)
                ref = sstats.ttest_ind(a, b, equal_var=False)
            else:
                mine = paired_ttest(a, b)
                ref = sstats.ttest_rel(a, b)
            assert mine.t == pytest.approx(float(ref.statistic), rel=1e-9)
            assert mine.p == pytest.approx(float(ref.pvalue), rel=1e-9)
        same = [401.5, 377.25, 404.0, 391.0]
        r = welch_ttest(same, list(same))
        assert r.t == 0.0 and r.p == 1.0
        rp = paired_ttest(same, list(same))
        assert rp.t == 0.0 and rp.p == 1.0


def test_c08_distributional_reproduction():
    with criterion(8, "distributional reproduction"):
        t0 = time.perf_counter()
        n_seeds = 100
        base_ar = []
        wot_wt = []
        hv_hav = []
        for seed in range(n_seeds):
            records = gen_srt_dataset(REFERENCE_SRT_CELLS, seed=8000 + seed)
            cells = {}
            for r in records:
                cells.setdefault((r.setting, r.modality), []).append(r.rt_ms)
            for m in ("V", "AV", "HV", "HAV"):
                base_ar.append(
                    welch_ttest(cells[(Setting.BASELINE, m)], cells[(Setting.AR, m)]).p < 0.05
                )
                wot_wt.append(
                    welch_ttest(cells[(Setting.VR_WOT, m)], cells[(Setting.VR_WT, m)]).p >= 0.05
                )
            for s in (Setting.BASELINE, Setting.AR, Setting.VR_WOT, Setting.VR_WT):
                hv_hav.append(
                    welch_ttest(cells[(s, "HV")], cells[(s, "HAV")]).p >= 0.05
                )
        assert np.mean(base_ar) >= 0.95, f"Baseline vs AR significant in {np.mean(base_ar):.2%}"
        assert np.mean(wot_wt) >= 0.80, f"VR-WOT vs VR-WT non-significant in {np.mean(wot_wt):.2%}"
        assert np.mean(hv_hav) >= 0.80, f"HV vs HAV non-significant in {np.mean(hv_hav):.2%}"

        for warning in (1, 2):
            ps = []
            for seed in range(n_seeds):
                records = gen_srt_dataset(REFERENCE_VISION_CELLS[warning], seed=8800 + seed)
                vis = {r.participant: r.rt_ms for r in records if r.setting is Setting.VISION_E}
                ref = {r.participant: r.rt_ms for r in records if r.setting is Setting.VR_WT}
                ordered = sorted(vis)
                ps.append(paired_ttest([vis[p] for p in ordered], [ref[p] for p in ordered]).p)
            assert float(np.median(ps)) > 0.05, f"warning {warning}: median p {np.median(ps):.3f}"
        assert time.perf_counter() - t0 < 120.0


def _run_pipeline(tmp: Path) -> dict[str, bytes]:
    pose_dir, det_dir = tmp / "pose", tmp / "det"
    srt_dir, stats_dir = tmp / "srt", tmp / "stats"
    baselines = tmp / "baselines.csv"
    assert cli_main([
        "synth", "pose", "--seed", "21", "--out", str(pose_dir), "--source-id", "P001",
        "--warnings", "25000,45000", "--onset", "380", "--amplitude", "4.0",
    ]) == 0
    baselines.write_text("participant,baseline_rt_ms\nP001,438\n")
    assert cli_main([
        "detect", "--input", str(pose_dir / "P001.csv"), "--baselines", str(baselines),
        "--warnings", "25000,45000", "--out", str(det_dir), "--emit-trace",
    ]) == 0
    assert cli_main(["synth", "srt", "--seed", "22", "--out", str(srt_dir)]) == 0
    assert cli_main([
        "stats", "--records", str(srt_dir / "records.csv"), "--out", str(stats_dir),
    ]) == 0
    digests = {}
    for path in sorted(tmp.rglob("*")):
        if path.is_file():
            digests[str(path.relative_to(tmp))] = hashlib.sha256(path.read_bytes()).digest()
    return digests


def test_c09_end_to_end_determinism(tmp_path):
    with criterion(9, "end-to-end determinism"):
        first = _run_pipeline(tmp_path)
        second = _run_pipeline(tmp_path)  # identical config into the same tree
        assert first == second
        assert len(first) >= 10


def test_c10_latency_budget_harness():
    with criterion(10, "latency budget harness"):
        from rtkit.woz import ScenarioScript

        script = ScenarioScript(
            "bulk", 1000 * 1001, tuple((1000 * (i + 1), "HAV") for i in range(1000))
        )
        triggers = run_scenario(script, SimClock(), ListTransport())
        acks = simulate_acks(triggers, seed=10, delay_low_ms=0, delay_high_ms=9)
        report = latency_budget_check(triggers, acks, budget_ms=10.0)
        assert report.all_pass
        assert report.p99_ms < 10.0
        slow = list(acks)
        slow[500] = type(slow[500])(slow[500].seq, triggers[500].dispatched_ms + 15)
        report2 = latency_budget_check(triggers, slow, budget_ms=10.0)
        assert not report2.all_pass
        assert report2.failures == [triggers[500].seq]

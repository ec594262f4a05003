import math

import numpy as np
import pytest
from scipy.special import erf

from rtkit.detector import detect
from rtkit.errors import BadParams, SpecError
from rtkit.kinematics import velocity_series
from rtkit.pose import select_upper_body, validate_stream, write_pose_stream
from rtkit.spectral import cwt_gaus2, fft_magnitude
from rtkit.stats import Method, Setting
from rtkit.synth import (
    AFFECTED_LANDMARKS,
    REFERENCE_SRT_CELLS,
    REFERENCE_VISION_CELLS,
    BurstSpec,
    NoiseSpec,
    SrtCell,
    _base_pose,
    _compensate_steps,
    gen_pose_stream,
    gen_srt_dataset,
    velocity_noise_std,
)
from rtkit.trials import error_summary, run_detection_trial

FRAME_MS = 1000.0 / 30.0


# --- pose stream generator ------------------------------------------------------


def test_gen_pose_stream_deterministic():
    burst = BurstSpec(400.0, 54.75, 2.0)
    args = dict(duration_ms=20000, fps=30.0, warning_times=[8000.0], bursts=[burst], noise=NoiseSpec(0.003))
    s1, t1 = gen_pose_stream(**args, seed=77)
    s2, t2 = gen_pose_stream(**args, seed=77)
    assert s1 == s2 and t1 == t2
    s3, _ = gen_pose_stream(**args, seed=78)
    assert s1 != s3


def test_gen_pose_stream_static_without_bursts_or_noise():
    stream, truths = gen_pose_stream(5000, 30.0, [], [], NoiseSpec(0.0), seed=0)
    assert truths == []
    assert np.all(velocity_series(stream).v == 0.0)


def _first_formulation_coords(duration_ms, fps, warning_times, bursts, sigma, seed):
    """The generator's coordinates as first written: a tiled base pose, each
    burst added to the wrist columns, then a zero row and the summed noise
    steps concatenated and added to the whole array."""
    n = int(round(duration_ms * fps / 1000.0))
    rng = np.random.default_rng(seed)
    t_ms = np.arange(n) * (1000.0 / fps)
    coords = np.tile(_base_pose(), (n, 1, 1))
    for w_t, spec in zip(warning_times, bursts):
        center = w_t + spec.center_ms
        dirs = rng.normal(size=(len(AFFECTED_LANDMARKS), 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        z = (t_ms - center) / (math.sqrt(2.0) * spec.burst_sigma_ms)
        scale = spec.burst_amplitude / len(AFFECTED_LANDMARKS) * spec.burst_sigma_ms / 1000.0
        profile = scale * math.sqrt(math.pi / 2.0) * (1.0 + erf(z))
        walk = np.concatenate([[0.0], np.cumsum(_compensate_steps(np.diff(profile), sigma))])
        for gi, lid in enumerate(AFFECTED_LANDMARKS):
            coords[:, lid] += walk[:, None] * dirs[gi]
    if sigma > 0:
        steps = rng.normal(0.0, sigma, size=(n - 1, coords.shape[1], 3))
        coords += np.concatenate([np.zeros((1, coords.shape[1], 3)), np.cumsum(steps, axis=0)], axis=0)
    return coords


@pytest.mark.parametrize(
    "warning_times, sigma",
    [([8000.0], 0.004), ([8000.0, 20000.0], 0.003), ([8000.0, 20000.0], 0.0)],
    ids=["one-warning", "two-warnings", "sigma-0"],
)
@pytest.mark.parametrize("seed", [0, 7, 123456])
def test_gen_pose_stream_bitwise_equals_first_formulation(warning_times, sigma, seed):
    bursts = [BurstSpec(300.0 + 50.0 * i, 50.0 + 5.0 * i, 2.0 + i) for i in range(len(warning_times))]
    stream, _ = gen_pose_stream(30000, 30.0, warning_times, bursts, NoiseSpec(sigma), seed)
    expected = _first_formulation_coords(30000, 30.0, warning_times, bursts, sigma, seed)
    assert np.array_equal(stream.coords, expected)
    assert np.array_equal(stream.visibility, np.ones((stream.n_frames, 33)))


def test_read_only_stream_runs_through_every_reader(tmp_path):
    # nothing in rtkit writes into a stream's arrays, so read-only views are safe
    burst = BurstSpec(400.0, 54.75, 10.0 * velocity_noise_std(0.004, 33, 30.0))
    stream, _ = gen_pose_stream(30000, 30.0, [8000.0], [burst], NoiseSpec(0.004), seed=3)
    stream.coords.flags.writeable = False
    assert not stream.visibility.flags.writeable
    assert validate_stream(stream).ok
    write_pose_stream(stream, tmp_path / "s.csv")
    write_pose_stream(stream, tmp_path / "s.jsonl")
    series = velocity_series(select_upper_body(stream))
    (est,) = detect(stream, [8000.0], 438.0, (438.0, 154.0))
    assert abs(est.rt_ms - 400.0) <= 2 * FRAME_MS
    fft_magnitude(series)
    cwt_gaus2(series, np.linspace(2.0, 30.0, 8))


def test_clean_burst_velocity_pulse_shape():
    # noise-free: velocity argmax sits one frame-ish after onset + 4*sigma
    onset, sigma, amp = 400.0, 50.0, 2.0
    burst = BurstSpec(onset, sigma, amp)
    stream, truths = gen_pose_stream(20000, 30.0, [8000.0], [burst], NoiseSpec(0.0), seed=1)
    series = velocity_series(select_upper_body(stream))
    t_peak = float(series.t_ms[int(np.argmax(series.v))])
    assert truths[0].center_abs_ms == 8000.0 + onset + 4 * sigma
    assert abs(t_peak - truths[0].center_abs_ms) <= FRAME_MS
    # sampled peak: frame-averaged, up to half a frame off the true maximum
    offset_att = np.exp(-((FRAME_MS / 2) ** 2) / (2 * sigma**2))
    avg_att = np.sqrt(2 * np.pi) * sigma / FRAME_MS * math.erf(FRAME_MS / (2 * np.sqrt(2) * sigma))
    assert amp * offset_att * avg_att <= series.v.max() <= amp * 1.001


def test_clean_burst_detector_recovery():
    amp = 10.0 * velocity_noise_std(0.004, 33, 30.0)
    burst = BurstSpec(400.0, 438.0 / 8.0, amp, center_offset_ms=219.0 - FRAME_MS / 2.0)
    stream, _ = gen_pose_stream(60000, 30.0, [25000.0], [burst], NoiseSpec(0.0), seed=2)
    (est,) = detect(stream, [25000.0], 438.0, (438.0, 154.0))
    assert abs(est.rt_ms - 400.0) <= FRAME_MS + 1e-9


def test_burst_spec_validation():
    with pytest.raises(SpecError):
        BurstSpec(-1.0, 50.0, 1.0)
    with pytest.raises(SpecError):
        BurstSpec(100.0, 0.0, 1.0)


def test_overlapping_bursts_rejected():
    b = BurstSpec(100.0, 50.0, 1.0)
    # supports [8100, 8500] and [8300, 8700] overlap
    with pytest.raises(SpecError, match="overlap"):
        gen_pose_stream(20000, 30.0, [8000.0, 8200.0], [b, b], NoiseSpec(0.0), seed=0)


def test_burst_outside_recording_rejected():
    with pytest.raises(SpecError, match="outside"):
        gen_pose_stream(5000, 30.0, [4800.0], [BurstSpec(400.0, 50.0, 1.0)], NoiseSpec(0.0), seed=0)


def test_burst_count_mismatch():
    with pytest.raises(SpecError):
        gen_pose_stream(20000, 30.0, [5000.0, 9000.0], [BurstSpec(1.0, 5.0, 1.0)], NoiseSpec(0.0), seed=0)


def noise_mean(sigma, n_landmarks, fps):
    """Mean of the noise-only 3-D velocity: n landmarks times the mean norm of a walk step, 2 sqrt(2/pi) sigma, per frame."""
    return n_landmarks * sigma * 2.0 * math.sqrt(2.0 / math.pi) * fps


def test_velocity_noise_moments_match_empirical():
    sigma, fps = 0.004, 30.0
    stream, _ = gen_pose_stream(120000, fps, [], [], NoiseSpec(sigma), seed=5)
    v = velocity_series(select_upper_body(stream)).v
    assert np.std(v) == pytest.approx(velocity_noise_std(sigma, 25, fps), rel=0.05)
    assert np.mean(v) == pytest.approx(noise_mean(sigma, 25, fps), rel=0.02)


def test_noisy_burst_amplitude_delivered():
    # fold compensation keeps the expected pulse height on target
    sigma, fps = 0.004, 30.0
    amp = 3.0 * velocity_noise_std(sigma, 33, fps)
    peaks = []
    for seed in range(25):
        burst = BurstSpec(400.0, 60.0, amp)
        stream, truths = gen_pose_stream(20000, fps, [8000.0], [burst], NoiseSpec(sigma), seed=seed)
        series = velocity_series(select_upper_body(stream))
        sel = np.abs(series.t_ms - truths[0].center_abs_ms) <= FRAME_MS
        peaks.append(series.v[sel].max())
    pedestal = noise_mean(sigma, 25, fps)
    assert np.mean(peaks) - pedestal == pytest.approx(amp, rel=0.15)


# --- SRT generator ----------------------------------------------------------------


def test_reference_cell_draws():
    cell = SrtCell(Setting.VR_WT, "HAV", 438.0, 154.0, 32)
    records = gen_srt_dataset([cell], seed=0)
    assert len(records) == 32
    assert all(r.rt_ms >= 50.0 for r in records)
    assert all(r.method is Method.SRT for r in records)


def test_zero_sd_draws_equal_mean():
    records = gen_srt_dataset([SrtCell(Setting.BASELINE, "V", 400.0, 0.0, 5)], seed=1)
    assert [r.rt_ms for r in records] == [400.0] * 5


def test_srt_determinism():
    a = gen_srt_dataset(REFERENCE_SRT_CELLS, seed=9)
    b = gen_srt_dataset(REFERENCE_SRT_CELLS, seed=9)
    assert a == b


def test_srt_mean_convergence():
    records = gen_srt_dataset([SrtCell(Setting.VR_WT, "HAV", 438.0, 154.0, 10_000)], seed=2)
    mean = np.mean([r.rt_ms for r in records])
    assert abs(mean - 438.0) / 438.0 < 0.02


def test_paired_cells_share_participants_and_correlate():
    cells = REFERENCE_VISION_CELLS[1]
    rho = 0.5
    cors = []
    for seed in range(30):
        records = gen_srt_dataset(cells, seed=seed, rho=rho)
        vis = {r.participant: r.rt_ms for r in records if r.setting is Setting.VISION_E}
        ref = {r.participant: r.rt_ms for r in records if r.setting is Setting.VR_WT}
        assert vis.keys() == ref.keys()
        ps = sorted(vis)
        cors.append(np.corrcoef([vis[p] for p in ps], [ref[p] for p in ps])[0, 1])
    assert np.mean(cors) == pytest.approx(rho, abs=0.1)


def test_visione_records_flagged_vision_method():
    records = gen_srt_dataset(REFERENCE_VISION_CELLS[1], seed=4)
    assert all(r.method is Method.VISION for r in records if r.setting is Setting.VISION_E)


@pytest.mark.parametrize(
    "setting, modality, match",
    [(Setting.AR, "hav", "unknown modality 'hav'"), (Setting.VISION_E, "V", "VisionE cells are HAV")],
)
def test_cell_outside_the_study_is_value_error(setting, modality, match):
    with pytest.raises(ValueError, match=match):
        SrtCell(setting, modality, 400.0, 10.0, 5)


def test_bad_params():
    with pytest.raises(BadParams):
        gen_srt_dataset([SrtCell(Setting.BASELINE, "V", 400.0, -1.0, 5)], seed=0)
    with pytest.raises(BadParams):
        gen_srt_dataset([SrtCell(Setting.BASELINE, "V", 400.0, 10.0, 0)], seed=0)
    with pytest.raises(BadParams):
        gen_srt_dataset([SrtCell(Setting.BASELINE, "V", 400.0, 10.0, 5)], seed=0, rho=1.0)


# --- trials harness ---------------------------------------------------------------


def test_detection_trial_smoke():
    results = [run_detection_trial(seed, snr=8.0) for seed in range(20)]
    summary = error_summary(results)
    assert summary["n"] == 20
    assert summary["within_1_frame"] >= 0.9


def test_nan_center_offset_is_outside_the_recording():
    burst = BurstSpec(100.0, 50.0, 1.0, center_offset_ms=float("nan"))
    with pytest.raises(SpecError, match="outside"):
        gen_pose_stream(20000, 30.0, [8000.0], [burst], NoiseSpec(0.0), seed=0)

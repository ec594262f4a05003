import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from conftest import make_series, make_stream, peak_time
from rtkit.detector import (
    ConvolutionSeries,
    build_kernel,
    convolve,
    default_window,
    detect,
    estimate_in_window,
    reaction_time,
)
from rtkit.errors import (
    FlatSignal,
    GapInWindow,
    KernelTooShort,
    LengthError,
    NegativeOnset,
    NonFiniteSignal,
)
from rtkit.kinematics import velocity_series
from rtkit.synth import BurstSpec, NoiseSpec, gen_pose_stream, velocity_noise_std

FRAME_MS = 1000.0 / 30.0


# --- kernel ---------------------------------------------------------------


def test_kernel_reference_baseline():
    # 438 ms baseline at ~30 fps spacing: sigma one eighth, 14 samples
    k = build_kernel(438.0, 33.33)
    assert k.duration_ms == 438.0
    assert k.mu_ms == 219.0
    assert k.sigma_ms == pytest.approx(54.75, abs=0)
    assert k.amplitude == 1.0
    assert len(k) == round(438.0 / 33.33) + 1 == 14


def test_kernel_peak_and_inflection_values():
    for k in (build_kernel(438.0, 33.33), build_kernel(480.0, 30.0)):
        t = k.mu_ms + (np.arange(len(k)) - (len(k) - 1) / 2.0) * k.frame_ms
        expected = k.amplitude * np.exp(-((t - k.mu_ms) ** 2) / (2.0 * k.sigma_ms**2))
        assert np.allclose(k.samples, expected, rtol=1e-12, atol=0.0)
    # 480 ms at 30 ms frames: 17 samples, the middle one at mu, sigma 60 ms = two frames
    k = build_kernel(480.0, 30.0)
    assert len(k) == 17 and k.samples[8] == 1.0
    assert k.samples[6] == k.samples[10] == pytest.approx(math.exp(-0.5), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    baseline=st.floats(min_value=150.0, max_value=2000.0),
    frame=st.floats(min_value=10.0, max_value=50.0),
)
def test_kernel_symmetry(baseline, frame):
    if baseline < 3 * frame:
        return
    k = build_kernel(baseline, frame)
    assert len(k) >= 3
    assert np.allclose(k.samples, k.samples[::-1], rtol=1e-12, atol=0)
    assert k.sigma_ms == k.duration_ms / 8.0


def test_kernel_too_short():
    with pytest.raises(KernelTooShort):
        build_kernel(60.0, 33.33)


# --- window ---------------------------------------------------------------


def test_default_window_reference_rule():
    w = default_window(438.0, 154.0, 33.33)
    assert w.length_ms == 1000.0
    assert w.length_frames == 30


def test_default_window_whole_second_already():
    w = default_window(400.0, 200.0, 33.33)
    assert w.length_ms == 1000.0
    assert w.length_frames == 30


def test_default_window_rounds_up():
    w = default_window(600.0, 300.0, 33.33)
    assert w.length_ms == 2000.0
    assert w.length_frames == 60


# --- convolution ----------------------------------------------------------


def test_convolve_zero_series():
    k = build_kernel(438.0, FRAME_MS)
    conv = convolve(make_series(np.zeros(100)), k)
    assert np.all(conv.values == 0.0)
    assert len(conv) == 100


def same_convolution(x, kernel):
    """Multiply-accumulate reference: output i sums x[i + (m-1)//2 - j] * kernel[j] over the samples inside x."""
    n, m = len(x), len(kernel)
    out = np.zeros(n)
    for i in range(n):
        for j in range(m):
            src = i + (m - 1) // 2 - j
            if 0 <= src < n:
                out[i] += x[src] * kernel[j]
    return out


def test_convolve_impulse_reproduces_kernel():
    k = build_kernel(500.0, FRAME_MS)
    x = np.zeros(120)
    x[60] = 1.0
    conv = convolve(make_series(x), k)
    expected = same_convolution(x, k.samples)
    assert np.allclose(conv.values, expected, rtol=0, atol=0)
    lo = 60 - (len(k) - 1) // 2
    assert np.allclose(conv.values[lo : lo + len(k)], k.samples)


@pytest.mark.parametrize("baseline", [438.0, 500.0])
def test_convolve_matches_numpy_same(baseline):
    rng = np.random.default_rng(0)
    x = rng.normal(size=200)
    k = build_kernel(baseline, FRAME_MS)
    conv = convolve(make_series(x), k)
    assert np.allclose(conv.values, same_convolution(x, k.samples), rtol=1e-12, atol=1e-12)


def test_convolve_center_times():
    x = np.random.default_rng(1).normal(size=50)
    odd = build_kernel(438.0 + FRAME_MS, FRAME_MS)  # 15 samples
    even = build_kernel(438.0, FRAME_MS)  # 14 samples
    s = make_series(x)
    assert len(odd) % 2 == 1 and len(even) % 2 == 0
    assert np.array_equal(convolve(s, odd).t_ms, s.t_ms)
    assert np.allclose(convolve(s, even).t_ms, s.t_ms - FRAME_MS / 2.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), n=st.integers(min_value=64, max_value=512))
def test_direct_vs_fft(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    k = build_kernel(float(rng.uniform(150, 900)), FRAME_MS)
    series = make_series(x)
    d = convolve(series, k).values
    f = signal.fftconvolve(x, k.samples, mode="same")
    scale = np.abs(d).max()
    assert np.abs(d - f).max() <= 1e-9 * scale


def test_convolution_equals_correlation():
    # symmetric kernel: convolution == cross-correlation, to 1e-12
    rng = np.random.default_rng(2)
    x = rng.normal(size=256)
    k = build_kernel(438.0, FRAME_MS)
    conv = np.convolve(x, k.samples, mode="same")
    corr = np.correlate(x, k.samples, mode="same")
    assert np.allclose(conv, corr, rtol=1e-12, atol=1e-12 * np.abs(conv).max())


def test_constant_offset_shifts_interior_by_sum():
    rng = np.random.default_rng(3)
    x = rng.normal(size=300)
    k = build_kernel(438.0, FRAME_MS)
    c = 2.5
    base = convolve(make_series(x), k).values
    lifted = convolve(make_series(x + c), k).values
    m = len(k)
    interior = slice(m, 300 - m)
    assert np.allclose(lifted[interior] - base[interior], c * k.samples.sum(), rtol=1e-9)


@pytest.mark.parametrize("baseline", [438.0 + FRAME_MS, 438.0])  # 15 and 14 samples
def test_nan_reaches_only_the_kernel_span(baseline):
    k = build_kernel(baseline, FRAME_MS)
    m, j = len(k), 150
    x = np.random.default_rng(6).normal(size=300)
    x[j] = np.nan
    lo = j - (m - 1) // 2
    nan_at = np.flatnonzero(np.isnan(convolve(make_series(x), k).values))
    assert np.array_equal(nan_at, np.arange(lo, lo + m))


def test_series_shorter_than_kernel():
    k = build_kernel(438.0, FRAME_MS)
    with pytest.raises(LengthError):
        convolve(make_series(np.zeros(5)), k)


# --- peak / reaction time ---------------------------------------------------


def window_at(start_ms, length_ms=1000.0, frame_ms=FRAME_MS):
    w = default_window(438.0, 154.0, frame_ms)
    return w.at(start_ms)


def conv_from(values, frame_ms=FRAME_MS, t0=None):
    values = np.asarray(values, dtype=float)
    t = np.arange(1, len(values) + 1) * frame_ms if t0 is None else t0
    return ConvolutionSeries(t_ms=t, values=values, frame_ms=frame_ms, frame_index=np.arange(1, len(values) + 1))


WINDOW_KERNEL = build_kernel(438.0, FRAME_MS)  # onset = t_max - 219 ms


def test_locate_peak_single_maximum():
    start = 2000.0
    t = np.arange(1, 200) * FRAME_MS
    vals = np.exp(-((t - (start + 400.0)) ** 2) / (2 * 50.0**2))
    conv = conv_from(vals, t0=t)
    t_max, rt, peak = estimate_in_window(conv, WINDOW_KERNEL, window_at(start))
    assert abs(t_max - 400.0) <= FRAME_MS / 2
    assert rt == t_max - 219.0
    assert peak == vals.max()


def test_locate_peak_flat_signal():
    conv = conv_from(np.zeros(200))
    with pytest.raises(FlatSignal):
        estimate_in_window(conv, WINDOW_KERNEL, window_at(2000.0))


def test_locate_peak_tie_breaks_earliest():
    t = np.arange(1, 200) * FRAME_MS
    vals = np.zeros(199)
    i300 = np.argmin(np.abs(t - 2300.0))
    i500 = np.argmin(np.abs(t - 2500.0))
    vals[i300] = vals[i500] = 7.0
    t_max, _, _ = estimate_in_window(conv_from(vals, t0=t), WINDOW_KERNEL, window_at(2000.0))
    assert t_max == pytest.approx(t[i300] - 2000.0)


def test_locate_peak_window_outside_series():
    conv = conv_from(np.ones(30) + np.arange(30))
    with pytest.raises(GapInWindow):
        estimate_in_window(conv, WINDOW_KERNEL, window_at(500.0))  # window end beyond series


def test_locate_peak_gap_inside_window():
    t = np.arange(1, 200) * FRAME_MS
    t[70:] += 3 * FRAME_MS
    conv = conv_from(np.arange(199, dtype=float), t0=t)
    with pytest.raises(GapInWindow):
        estimate_in_window(conv, WINDOW_KERNEL, window_at(2000.0))


def test_reaction_time_formula():
    k = build_kernel(438.0, FRAME_MS)
    assert reaction_time(619.0, k) == pytest.approx(400.0)
    assert reaction_time(k.duration_ms / 2.0, k) == 0.0
    with pytest.raises(NegativeOnset):
        reaction_time(100.0, k)


# --- end-to-end detect ------------------------------------------------------


def synth_stream(onset, baseline=438.0, snr=10.0, seed=0, warning=25000.0):
    amp = snr * velocity_noise_std(0.004, 33, 30.0)
    burst = BurstSpec(onset, baseline / 8.0, amp, center_offset_ms=baseline / 2.0 - FRAME_MS / 2.0)
    stream, _ = gen_pose_stream(60000, 30.0, [warning], [burst], NoiseSpec(0.004), seed=seed)
    return stream


def synth_detect(onset, baseline=438.0, snr=10.0, seed=0, warning=25000.0):
    (est,) = detect(synth_stream(onset, baseline, snr, seed, warning), [warning], baseline, (438.0, 154.0))
    return est


def test_detect_recovers_injected_onset():
    est = synth_detect(400.0, snr=10.0, seed=5)
    assert abs(est.rt_ms - 400.0) <= FRAME_MS + 1e-9
    assert est.window.length_frames == 30
    assert est.kernel.duration_ms == 438.0
    assert 0.0 <= est.rt_ms <= est.window.length_ms
    assert len(est.convolution) == len(est.velocity)


def test_detect_static_subject_flat():
    stream, _ = gen_pose_stream(10000, 30.0, [], [], NoiseSpec(0.0), seed=1)
    with pytest.raises(FlatSignal):
        detect(stream, [3000.0], 438.0, (438.0, 154.0))


def test_detect_two_warnings_like_session():
    # two-trigger session shape: warnings at 25 s and 45 s
    amp = 10.0 * velocity_noise_std(0.004, 33, 30.0)
    burst = BurstSpec(350.0, 54.75, amp, center_offset_ms=219.0 - FRAME_MS / 2.0)
    stream, truths = gen_pose_stream(
        60000, 30.0, [25000.0, 45000.0], [burst, burst], NoiseSpec(0.004), seed=9
    )
    assert len(truths) == 2
    ests = detect(stream, [25000.0, 45000.0], 438.0, (438.0, 154.0))
    assert [est.warning_t_ms for est in ests] == [25000.0, 45000.0]
    for est in ests:
        assert abs(est.rt_ms - 350.0) <= FRAME_MS + 1e-9
    # one pass per stream: both estimates hold the same pipeline objects
    assert ests[0].convolution is ests[1].convolution
    assert ests[0].velocity is ests[1].velocity and ests[0].kernel is ests[1].kernel


def test_detect_window_too_small_for_kernel():
    stream, _ = gen_pose_stream(10000, 30.0, [], [], NoiseSpec(0.004), seed=2)
    with pytest.raises(LengthError):
        detect(stream, [3000.0], 2000.0, (100.0, 50.0))  # 2 s kernel vs 0.5 s window


def test_dims_default_follows_has_z():
    coords = np.random.default_rng(3).normal(size=(4, 33, 3))
    coords[:, :, 2] = 0.0
    flat = make_stream(coords)
    flat.has_z = False
    assert velocity_series(flat).dims == "xy"
    assert velocity_series(make_stream(coords)).dims == "xyz"
    stream = synth_stream(400.0, seed=5)
    stream.has_z = False
    assert [est.dims for est in detect(stream, [25000.0], 438.0, (438.0, 154.0))] == ["xy"]


def test_nan_outside_window_leaves_estimate_unchanged():
    clean = synth_detect(400.0, seed=5)
    stream = synth_stream(400.0, seed=5)
    stream.coords[100, 0, 0] = np.nan  # 21 s before the warning
    (est,) = detect(stream, [25000.0], 438.0, (438.0, 154.0))
    assert est.rt_ms == clean.rt_ms
    assert est.peak_value == clean.peak_value


def test_nan_inside_window_raises_non_finite():
    stream = synth_stream(400.0, seed=5)
    stream.coords[780, 0, 0] = np.nan  # 1 s after the warning, inside the window
    with pytest.raises(NonFiniteSignal) as info:
        detect(stream, [25000.0], 438.0, (438.0, 154.0))
    frames = info.value.frame_indices
    assert frames and 780 in frames
    assert all(25000.0 <= f * FRAME_MS <= 26000.0 + FRAME_MS for f in frames)


def test_detect_report_shape():
    est = synth_detect(400.0, seed=12)
    rep = est.report()
    assert rep["kernel"]["sigma_ms"] == pytest.approx(54.75)
    assert "convolution" not in rep
    rep_t = est.report(include_trace=True)
    assert len(rep_t["convolution"]["values"]) == len(est.convolution)


# --- invariances ------------------------------------------------------------


def shifted_series(series, k):
    v = np.concatenate([np.zeros(k), series.v[:-k]]) if k > 0 else series.v
    return make_series(v, fps=series.fps)


@pytest.mark.parametrize("k", [1, 5, 17])
def test_shift_equivariance(k):
    rng = np.random.default_rng(100 + k)
    v = np.abs(rng.normal(size=600)) + 0.1
    v[300:310] += 5.0  # a clear bump
    series = make_series(v)
    kern = build_kernel(438.0, FRAME_MS)
    w = default_window(438.0, 154.0, FRAME_MS)
    conv0 = convolve(series, kern)
    conv1 = convolve(shifted_series(series, k), kern)
    start0 = 9000.0
    t0 = peak_time(conv0, w.at(start0))
    t1 = peak_time(conv1, w.at(start0 + k * FRAME_MS))
    # same relative time in the shifted window; absolute peak moved k frames
    assert t1 == pytest.approx(t0, abs=1e-9)


@pytest.mark.parametrize("c", [0.1, 1.0, 10.0])
def test_amplitude_invariance(c):
    rng = np.random.default_rng(42)
    v = np.abs(rng.normal(size=600)) + 0.1
    v[320:330] += 4.0
    kern = build_kernel(438.0, FRAME_MS)
    w = default_window(438.0, 154.0, FRAME_MS).at(9000.0)
    base = convolve(make_series(v), kern)
    scaled = convolve(make_series(c * v), kern)
    assert peak_time(base, w) == peak_time(scaled, w)
    assert np.allclose(scaled.values, c * base.values, rtol=1e-9)

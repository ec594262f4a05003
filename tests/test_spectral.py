import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_series, two_sided_energy
from rtkit.errors import BadScales, NonFiniteSignal, NonUniformSampling
from rtkit.spectral import (
    cwt_gaus2,
    DEFAULT_SCALES,
    fft_magnitude,
    gaus2_wavelet,
    write_cwt,
    write_spectrum_csv,
)

# scale maximizing |W| for a Gaussian pulse of width sigma is sqrt(5)*sigma
PULSE_SIGMA_TO_SCALE = np.sqrt(5.0)


# --- FFT magnitude ----------------------------------------------------------


def test_constant_series_all_energy_in_dc():
    spec = fft_magnitude(make_series(np.full(128, 3.0)))
    assert spec.magnitude[0] == pytest.approx(128 * 3.0)
    assert np.allclose(spec.magnitude[1:], 0.0, atol=1e-9)


def test_pure_sinusoid_dominant_bin():
    # 3 Hz at 30 fps over 300 samples: bin spacing 0.1 Hz, peak at bin 30
    n, fps, f0 = 300, 30.0, 3.0
    t = np.arange(n) / fps
    spec = fft_magnitude(make_series(np.sin(2 * np.pi * f0 * t), fps=fps))
    assert spec.freq_hz[1 + np.argmax(spec.magnitude[1:])] == pytest.approx(3.0)
    assert spec.freq_hz[1] - spec.freq_hz[0] == pytest.approx(fps / n)
    assert spec.freq_hz[-1] == pytest.approx(fps / 2)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), n=st.integers(min_value=8, max_value=513))
def test_parseval_identity(seed, n):
    x = np.random.default_rng(seed).normal(size=n)
    spec = fft_magnitude(make_series(x))
    assert two_sided_energy(spec) == pytest.approx(float((x**2).sum()), rel=1e-9)


def test_fft_remove_mean_flag():
    x = np.random.default_rng(1).normal(size=64) + 10.0
    spec = fft_magnitude(make_series(x), remove_mean=True)
    assert spec.magnitude[0] == pytest.approx(0.0, abs=1e-9)


def test_fft_linearity():
    rng = np.random.default_rng(2)
    x, y = rng.normal(size=100), rng.normal(size=100)
    a, b = 2.5, -1.25
    fx = np.fft.rfft(x)
    combined = fft_magnitude(make_series(a * x + b * y))
    assert np.allclose(
        combined.magnitude, np.abs(a * fx + b * np.fft.rfft(y)), rtol=1e-9, atol=1e-9
    )


@pytest.mark.parametrize("shift_ms, uneven", [(20.0, True), (10.0, False)])
def test_fft_nonuniform_sampling(shift_ms, uneven):
    # one stamp moved by 60% of a 33.3 ms frame is a gap; by 30% it is within the pose gap rule's 50%
    series = make_series(np.ones(50))
    series.t_ms[20] += shift_ms
    if uneven:
        with pytest.raises(NonUniformSampling):
            fft_magnitude(series)
    else:
        assert fft_magnitude(series).n == 50


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("transform", [fft_magnitude, lambda s: cwt_gaus2(s, DEFAULT_SCALES)])
def test_non_finite_series_is_refused(transform, bad):
    # a NaN would spread into every spectrum bin and every CWT column its wavelet reaches
    v = np.ones(60)
    v[[0, 17, 18, 59]] = bad
    with pytest.raises(NonFiniteSignal) as info:
        transform(make_series(v, source_id="P"))
    assert info.value.frame_indices == [1, 18, 19, 60]
    assert str(info.value) == "P: 4 non-finite velocity sample(s), first at frame 1"


# --- CWT ---------------------------------------------------------------------


def dense_peak_scale_oracle(sigma_p: float) -> float:
    """Independent quadrature sweep: scale maximizing |W| for a Gaussian
    pulse of width sigma_p (in samples)."""
    t = np.linspace(-40 * sigma_p, 40 * sigma_p, 80001)
    dt = t[1] - t[0]
    pulse = np.exp(-(t**2) / (2 * sigma_p**2))
    scales = np.linspace(0.8 * sigma_p, 5 * sigma_p, 800)
    responses = [
        abs((pulse * gaus2_wavelet(t / a)).sum() * dt / np.sqrt(a)) for a in scales
    ]
    return float(scales[int(np.argmax(responses))])


def test_pulse_sigma_to_scale_constant_matches_oracle():
    # frozen constant sqrt(5); re-derived here by dense quadrature
    assert dense_peak_scale_oracle(3.0) / 3.0 == pytest.approx(PULSE_SIGMA_TO_SCALE, rel=5e-3)


def gaussian_pulse_series(n, center, sigma, fps=30.0):
    i = np.arange(n)
    return make_series(np.exp(-((i - center) ** 2) / (2 * sigma**2)), fps=fps)


def test_cwt_zero_series():
    res = cwt_gaus2(make_series(np.zeros(64)), [2.0, 4.0, 8.0])
    assert res.coefficients.shape == (3, 64)
    assert np.all(res.coefficients == 0.0)
    assert res.wavelet == "gaussian-2nd-order"


@pytest.mark.parametrize("sigma_p", [2.0, 4.0, 8.0])
def test_cwt_peak_scale_tracks_pulse_width(sigma_p):
    series = gaussian_pulse_series(512, 256, sigma_p)
    scales = np.geomspace(1.0, 64.0, 160)
    res = cwt_gaus2(series, scales)
    i_t = 256
    a_star = float(res.scales[int(np.argmax(np.abs(res.coefficients[:, i_t])))])
    assert a_star == pytest.approx(PULSE_SIGMA_TO_SCALE * sigma_p, rel=0.10)


def test_cwt_translation_covariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=400)
    shift = 37
    scales = np.geomspace(2.0, 16.0, 12)
    a = cwt_gaus2(make_series(x), scales)
    b = cwt_gaus2(make_series(np.roll(x, shift)), scales)
    margin = int(5 * scales[-1]) + shift
    inner = slice(margin, 400 - margin)
    assert np.allclose(a.coefficients[:, inner], b.coefficients[:, inner.start + shift : inner.stop + shift], rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("make_input", [lambda n: np.full(n, 4.2), lambda n: 0.3 * np.arange(n)])
def test_cwt_vanishes_on_constant_and_linear(make_input):
    n = 600
    series = make_series(make_input(n))
    scales = np.geomspace(2.0, 30.0, 16)
    res = cwt_gaus2(series, scales)
    interior = np.where(res.boundary_mask, np.nan, res.coefficients)
    # scale-relative bound: wavelet row absolute mass per unit coefficient
    bound = 1e-8 * max(np.abs(series.v).max(), 1.0) * 10.0
    assert np.nanmax(np.abs(interior)) <= bound


def test_cwt_linearity():
    rng = np.random.default_rng(4)
    x, y = rng.normal(size=128), rng.normal(size=128)
    scales = [2.0, 5.0, 11.0]
    wx = cwt_gaus2(make_series(x), scales).coefficients
    wy = cwt_gaus2(make_series(y), scales).coefficients
    wz = cwt_gaus2(make_series(2.0 * x - 0.5 * y), scales).coefficients
    assert np.allclose(wz, 2.0 * wx - 0.5 * wy, rtol=1e-9, atol=1e-12)


def test_cwt_bad_scales():
    series = make_series(np.ones(32))
    for bad in ([], [3.0, 2.0], [-1.0, 2.0], [2.0, 2.0]):
        with pytest.raises(BadScales):
            cwt_gaus2(series, bad)


def test_default_scales_grid():
    scales = DEFAULT_SCALES
    assert len(scales) == 32
    assert scales[0] == pytest.approx(2.0)
    assert scales[-1] == pytest.approx(30.0)
    assert np.all(np.diff(scales) > 0)


# --- peak scale map -----------------------------------------------------------


def active_runs(res, threshold=0.5):
    """Contiguous translation blocks whose best response clears the bar."""
    strength = np.abs(res.coefficients).max(axis=0)
    hot = strength > threshold * strength.max()
    edges = np.diff(hot.astype(int))
    return 1 * hot[0] + int((edges == 1).sum())


def peak_scale_map(res):
    """Scale of the largest |W| per translation; NaN where the column is all zero."""
    mags = np.abs(res.coefficients)
    return np.where(mags.max(axis=0) == 0.0, np.nan, res.scales[np.argmax(mags, axis=0)])


def test_peak_scale_map_single_pulse():
    series = gaussian_pulse_series(512, 256, 4.0)
    res = cwt_gaus2(series, np.geomspace(2.0, 32.0, 24))
    trace = peak_scale_map(res)
    # one contiguous strong region; matched scale right at the pulse center
    assert active_runs(res) == 1
    assert trace[256] == pytest.approx(PULSE_SIGMA_TO_SCALE * 4.0, rel=0.15)


def test_peak_scale_map_zero_input_undefined():
    res = cwt_gaus2(make_series(np.zeros(64)), [2.0, 4.0])
    trace = peak_scale_map(res)
    assert np.all(np.isnan(trace))


def test_peak_scale_map_two_pulses():
    i = np.arange(1024)
    v = np.exp(-((i - 300) ** 2) / (2 * 4.0**2)) + np.exp(-((i - 700) ** 2) / (2 * 12.0**2))
    res = cwt_gaus2(make_series(v), np.geomspace(2.0, 48.0, 32))
    trace = peak_scale_map(res)
    assert active_runs(res) == 2
    assert trace[300] == pytest.approx(PULSE_SIGMA_TO_SCALE * 4.0, rel=0.15)
    assert trace[700] == pytest.approx(PULSE_SIGMA_TO_SCALE * 12.0, rel=0.15)


# --- exports -------------------------------------------------------------------


def test_spectrum_csv(tmp_path):
    spec = fft_magnitude(make_series(np.random.default_rng(5).normal(size=64)))
    path = tmp_path / "spec.csv"
    write_spectrum_csv(spec, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "freq_hz,magnitude"
    assert len(lines) == len(spec.freq_hz) + 1


def test_cwt_export_sidecar(tmp_path):
    res = cwt_gaus2(make_series(np.random.default_rng(6).normal(size=64)), [2.0, 4.0])
    write_cwt(res, tmp_path / "c.npy", tmp_path / "c.json")
    mat = np.load(tmp_path / "c.npy")
    side = json.loads((tmp_path / "c.json").read_text())
    assert mat.shape == tuple(side["matrix_shape"]) == (2, 64)
    assert side["wavelet"] == "gaussian-2nd-order"
    assert side["scales_frames"] == [2.0, 4.0]
    assert "norm_constant" in side

"""Frequency-domain diagnostics for velocity series.

Two transforms: a one-sided DFT magnitude spectrum (unnormalized forward
transform, 1/n on the inverse, so Parseval reads sum|x|^2 = (1/n) sum|X|^2
over the full two-sided transform) and a continuous wavelet transform with
the real second-derivative-of-Gaussian mother wavelet.

The mother wavelet is L2-normalized:

    psi(u) = C * (1 - u^2) * exp(-u^2 / 2),  C = 2 / (sqrt(3) * pi**(1/4))

and the transform uses 1/sqrt(a) scale normalization. Scales are in frames
(sample spacing), translations in milliseconds. The sampled wavelet row is
truncated at +/-5a and recentred to zero mean, which (with its odd-moment
symmetry) makes the discrete transform annihilate constant and linear
trends exactly away from the boundaries. Boundary-affected coefficients
are flagged, never extended.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BadScales, LengthError, NonFiniteSignal, NonUniformSampling
from .kinematics import VelocitySeries
from .pose import off_nominal

GAUS2_NORM = 2.0 / (np.sqrt(3.0) * np.pi**0.25)
WAVELET_TAG = "gaussian-2nd-order"
SUPPORT_RADIUS = 5.0  # wavelet support truncated at +/- 5 scales
# log-spaced scale grid (frames) from 2 frames up to the 30-frame search window
DEFAULT_SCALES = np.geomspace(2.0, 30.0, 32)
DEFAULT_SCALES.flags.writeable = False


def _check_series(series: VelocitySeries) -> None:
    """NonUniformSampling for a gap (``off_nominal``); NonFiniteSignal naming the frames of NaN or infinite samples."""
    if off_nominal(np.diff(series.t_ms), series.frame_ms).any():
        raise NonUniformSampling("series timestamps are not uniformly spaced")
    bad = np.flatnonzero(~np.isfinite(series.v))
    if bad.size:
        frames = series.frame_index[bad].tolist()
        raise NonFiniteSignal(
            f"{series.source_id}: {len(frames)} non-finite velocity sample(s), first at frame {frames[0]}",
            frame_indices=frames,
        )


@dataclass
class MagnitudeSpectrum:
    """One-sided DFT magnitudes; frequencies cover 0..fps/2 at fps/n spacing."""

    freq_hz: np.ndarray
    magnitude: np.ndarray
    fps: float
    n: int


def fft_magnitude(series: VelocitySeries, remove_mean: bool = False) -> MagnitudeSpectrum:
    """Magnitude of the one-sided discrete Fourier transform of the series.

    LengthError under 2 samples; ``_check_series``'s errors for uneven or
    non-finite samples, which would spread NaN into every bin.
    """
    if len(series) < 2:
        raise LengthError(f"{series.source_id}: {len(series)} velocity sample(s); a spectrum needs at least 2")
    _check_series(series)
    x = np.asarray(series.v, dtype=float)
    if remove_mean:
        x = x - x.mean()
    n = len(x)
    mags = np.abs(np.fft.rfft(x))
    freqs = np.fft.rfftfreq(n, d=1.0 / series.fps)
    return MagnitudeSpectrum(freq_hz=freqs, magnitude=mags, fps=series.fps, n=n)


def gaus2_wavelet(u) -> np.ndarray:
    """L2-normalized second-derivative-of-Gaussian mother wavelet."""
    u = np.asarray(u, dtype=float)
    return GAUS2_NORM * (1.0 - u**2) * np.exp(-(u**2) / 2.0)


@dataclass
class CwtResult:
    """CWT coefficients W(a, b): rows are scales, columns translations."""

    scales: np.ndarray  # in frames
    translations_ms: np.ndarray
    coefficients: np.ndarray
    boundary_mask: np.ndarray  # True where the support crosses a series edge
    wavelet: str = WAVELET_TAG
    norm_constant: float = GAUS2_NORM


def cwt_gaus2(series: VelocitySeries, scales) -> CwtResult:
    """Continuous wavelet transform of the series over the given scales.

    Direct inner-product evaluation: for each scale the sampled, zero-mean
    wavelet row is correlated with the signal (zero padding at the edges;
    those columns are flagged in ``boundary_mask``). Raises BadScales, and
    ``_check_series``'s errors for uneven or non-finite samples.
    """
    scales = np.asarray(scales, dtype=float)
    if scales.ndim != 1 or scales.size == 0 or np.any(scales <= 0) or np.any(np.diff(scales) <= 0):
        raise BadScales("scales must be a positive, strictly ascending 1-D sequence")
    _check_series(series)
    x = np.asarray(series.v, dtype=float)
    n = len(x)
    coeffs = np.empty((len(scales), n), dtype=float)
    boundary = np.zeros((len(scales), n), dtype=bool)
    for i, a in enumerate(scales):
        half = int(np.floor(SUPPORT_RADIUS * a))
        offsets = np.arange(-half, half + 1)
        row = gaus2_wavelet(offsets / a)
        row -= row.mean()  # exact discrete zero mean; odd moment is zero by symmetry
        # symmetric row: convolution == correlation
        full = np.convolve(x, row, mode="full")
        coeffs[i] = full[half : half + n] / np.sqrt(a)
        edge = min(half, n)
        boundary[i, :edge] = True
        boundary[i, n - edge :] = True
    return CwtResult(
        scales=scales.copy(),
        translations_ms=series.t_ms.copy(),
        coefficients=coeffs,
        boundary_mask=boundary,
    )


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def write_spectrum_csv(spectrum: MagnitudeSpectrum, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("freq_hz,magnitude\n")
        for f, m in zip(spectrum.freq_hz, spectrum.magnitude):
            fh.write(f"{float(f)!r},{float(m)!r}\n")


def write_cwt(cwt: CwtResult, matrix_path: str | Path, sidecar_path: str | Path) -> None:
    """Binary coefficient matrix plus a JSON sidecar with the grid metadata."""
    np.save(matrix_path, cwt.coefficients)
    sidecar = {
        "wavelet": cwt.wavelet,
        "norm_constant": cwt.norm_constant,
        "support_radius_scales": SUPPORT_RADIUS,
        "scales_frames": [float(a) for a in cwt.scales],
        "translations_ms": [float(b) for b in cwt.translations_ms],
        "matrix_file": Path(matrix_path).name,
        "matrix_shape": list(cwt.coefficients.shape),
    }
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")

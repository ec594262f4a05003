"""Per-participant Gaussian matched-filter reaction detection.

A reaction pattern in the velocity series is modeled as a Gaussian pulse
whose duration equals the participant's previously recorded baseline
reaction time D, with center mu = D/2, width sigma = D/8 and unit
amplitude. Convolving the series with this kernel and taking the argmax
inside a post-warning search window gives the pattern's peak time t_max;
the reaction time is t_max - D/2 (the pattern's onset).

Convolution alignment: the output is "same"-sized against the input, one
sample per velocity sample, and each output sample is stamped with the
time at which the kernel's center actually sits for that placement. For
odd-length kernels that is the velocity sample's own timestamp; for
even-length kernels the center falls half a frame earlier (the kernel's
middle lies between two samples). Stamping the true center time keeps
Eq.-style onset arithmetic (t_max minus half the duration) free of a
parity-dependent half-frame bias. Boundaries are zero-padded; windows
overlapping the series edge are rejected instead of returning a padded
artifact peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    FlatSignal,
    GapInWindow,
    KernelTooShort,
    LengthError,
    NegativeOnset,
    NonFiniteSignal,
)
from .kinematics import VelocitySeries, velocity_series
from .pose import PoseStream, off_nominal, select_upper_body

SIGMA_DIVISOR = 8.0  # kernel width is one eighth of its duration


@dataclass(frozen=True)
class GaussianKernel:
    """Matched-filter template for one participant.

    ``samples`` are the kernel evaluated at the series' frame spacing on a
    grid symmetric about ``mu_ms`` (so the discrete kernel is exactly
    palindromic), covering the support [0, duration_ms] up to half a frame.
    """

    duration_ms: float
    mu_ms: float
    sigma_ms: float
    amplitude: float
    frame_ms: float
    samples: np.ndarray

    def __len__(self) -> int:
        return len(self.samples)


def build_kernel(baseline_rt_ms: float, frame_ms: float) -> GaussianKernel:
    """Kernel with D = the participant's baseline reaction time.

    Raises KernelTooShort when the baseline spans fewer than 3 frames.
    """
    if baseline_rt_ms <= 0 or frame_ms <= 0:
        raise ValueError("baseline_rt_ms and frame_ms must be positive")
    if baseline_rt_ms < 3.0 * frame_ms:
        raise KernelTooShort(
            f"baseline {baseline_rt_ms} ms spans fewer than 3 frames of {frame_ms} ms"
        )
    d = float(baseline_rt_ms)
    mu = d / 2.0
    sigma = d / SIGMA_DIVISOR
    n = int(round(d / frame_ms)) + 1
    # symmetric grid about mu at exact frame spacing; palindromic by construction
    offsets = (np.arange(n) - (n - 1) / 2.0) * frame_ms
    samples = np.exp(-(offsets**2) / (2.0 * sigma**2))
    return GaussianKernel(
        duration_ms=d,
        mu_ms=mu,
        sigma_ms=sigma,
        amplitude=1.0,
        frame_ms=float(frame_ms),
        samples=samples,
    )


@dataclass(frozen=True)
class SearchWindow:
    """Post-warning interval inside which the reaction peak is sought."""

    length_frames: int
    length_ms: float
    start_ms: float = 0.0

    def at(self, start_ms: float) -> "SearchWindow":
        return replace(self, start_ms=float(start_ms))

    @property
    def end_ms(self) -> float:
        return self.start_ms + self.length_ms


def default_window(baseline_mean_ms: float, baseline_sd_ms: float, frame_ms: float) -> SearchWindow:
    """Window covering mean + 3*sd, rounded up to the next whole second."""
    if baseline_mean_ms <= 0 or baseline_sd_ms <= 0 or frame_ms <= 0:
        raise ValueError("window parameters must be positive")
    span = baseline_mean_ms + 3.0 * baseline_sd_ms
    # guard against float dust just above a whole second
    length_ms = 1000.0 * math.ceil(span / 1000.0 - 1e-9)
    length_frames = int(round(length_ms / frame_ms))
    return SearchWindow(length_frames=length_frames, length_ms=length_ms)


@dataclass
class ConvolutionSeries:
    """Same-aligned convolution; timestamps are true kernel-center times."""

    t_ms: np.ndarray
    values: np.ndarray
    frame_ms: float
    frame_index: np.ndarray  # the velocity frame each output sample pairs with

    def __len__(self) -> int:
        return len(self.values)


def convolve(series: VelocitySeries, kernel: GaussianKernel) -> ConvolutionSeries:
    """Direct (multiply-accumulate) convolution of the series with the kernel.

    Output sample i pairs with velocity sample i; its timestamp is the
    kernel-center time of that placement (half a frame before the sample for
    even kernels). A non-finite velocity sample makes non-finite only the
    outputs the kernel reaches from it.
    """
    n, m = len(series.v), len(kernel.samples)
    if n < m:
        raise LengthError(f"series length {n} shorter than kernel length {m}")
    # center-of-kernel time for output i: t_i - dt/2 when m is even
    center_shift = 0.0 if m % 2 else -0.5 * series.frame_ms
    return ConvolutionSeries(
        t_ms=series.t_ms + center_shift,
        values=np.convolve(series.v, kernel.samples, mode="same"),
        frame_ms=series.frame_ms,
        frame_index=series.frame_index,
    )


def _windowed_argmax(conv: ConvolutionSeries, window: SearchWindow) -> int:
    """Index of the windowed maximum (earliest on ties); validates the window."""
    t = conv.t_ms
    lo, hi = window.start_ms, window.end_ms
    if lo < t[0] or hi > t[-1]:
        raise GapInWindow(
            f"window [{lo}, {hi}] ms not fully inside series [{t[0]}, {t[-1]}] ms"
        )
    mask = (t >= lo) & (t <= hi)
    idx = np.nonzero(mask)[0]
    if off_nominal(np.diff(t[idx]), conv.frame_ms).any():
        raise GapInWindow(f"sampling gap inside window [{lo}, {hi}] ms")
    vals = conv.values[idx]
    bad = idx[~np.isfinite(vals)]
    if bad.size:
        frames = conv.frame_index[bad].tolist()
        raise NonFiniteSignal(
            f"{len(frames)} non-finite convolution value(s) in window [{lo}, {hi}] ms, first at frame {frames[0]}",
            frame_indices=frames,
        )
    if np.ptp(vals) == 0.0:
        raise FlatSignal(f"windowed convolution constant over [{lo}, {hi}] ms")
    return int(idx[int(np.argmax(vals))])


def reaction_time(t_max_ms: float, kernel: GaussianKernel) -> float:
    """Pattern onset: peak time minus half the kernel duration.

    Raises NegativeOnset when the peak precedes half the kernel duration
    (reported, never clamped).
    """
    half = kernel.duration_ms / 2.0
    if t_max_ms < half:
        raise NegativeOnset(f"t_max {t_max_ms} ms earlier than half kernel duration {half} ms")
    return float(t_max_ms - half)


def estimate_in_window(
    conv: ConvolutionSeries, kernel: GaussianKernel, window: SearchWindow
) -> tuple[float, float, float]:
    """One warning's estimate: (t_max_ms from the window start, rt_ms, peak value).

    Ties break toward the earliest time. Raises NonFiniteSignal when the
    windowed convolution holds NaN or infinity, FlatSignal when it is
    constant, GapInWindow when the window covers a sampling gap or falls
    outside the series, and NegativeOnset as ``reaction_time`` does.
    """
    best = _windowed_argmax(conv, window)
    t_max = float(conv.t_ms[best] - window.start_ms)
    return t_max, reaction_time(t_max, kernel), float(conv.values[best])


@dataclass
class ReactionEstimate:
    """One detected reaction; the estimates of one ``detect`` call share their kernel, convolution and series."""

    source_id: str
    warning_t_ms: float
    t_max_ms: float  # relative to warning delivery
    rt_ms: float
    peak_value: float
    kernel: GaussianKernel
    window: SearchWindow
    convolution: ConvolutionSeries
    velocity: VelocitySeries

    @property
    def dims(self) -> str:
        return self.velocity.dims

    def report(self, include_trace: bool = False) -> dict:
        """JSON-serializable detection report."""
        rep = {
            "source_id": self.source_id,
            "warning_t_ms": self.warning_t_ms,
            "t_max_ms": self.t_max_ms,
            "rt_ms": self.rt_ms,
            "peak_value": self.peak_value,
            "dims": self.dims,
            "rt_formula": "t_max - duration/2",
            "kernel": {
                "duration_ms": self.kernel.duration_ms,
                "mu_ms": self.kernel.mu_ms,
                "sigma_ms": self.kernel.sigma_ms,
                "amplitude": self.kernel.amplitude,
                "frame_ms": self.kernel.frame_ms,
                "n_samples": len(self.kernel),
            },
            "window": {
                "start_ms": self.window.start_ms,
                "length_ms": self.window.length_ms,
                "length_frames": self.window.length_frames,
            },
        }
        if include_trace:
            rep["convolution"] = {
                "t_ms": [float(v) for v in self.convolution.t_ms],
                "values": [float(v) for v in self.convolution.values],
            }
        return rep


def detect(
    stream: PoseStream,
    warnings_ms,
    baseline_rt_ms: float,
    baseline_stats: tuple[float, float],
    dims: str | None = None,
) -> list[ReactionEstimate]:
    """End-to-end vision-based reaction times, one estimate per warning.

    Pipeline: upper-body filter -> velocity series -> participant kernel ->
    one direct convolution -> ``estimate_in_window`` per warning time in
    ``warnings_ms``. ``baseline_stats`` is the (mean, sd) pair that sets
    the search-window length; ``dims`` defaults as in ``velocity_series``.
    """
    series = velocity_series(select_upper_body(stream), dims=dims)
    kernel = build_kernel(baseline_rt_ms, series.frame_ms)
    window = default_window(baseline_stats[0], baseline_stats[1], series.frame_ms)
    if window.length_frames < len(kernel):
        raise LengthError(
            f"window of {window.length_frames} frames cannot fit kernel of {len(kernel)} samples"
        )
    conv = convolve(series, kernel)
    estimates = []
    for warning_t_ms in warnings_ms:
        at = window.at(warning_t_ms)
        t_max, rt, peak = estimate_in_window(conv, kernel, at)
        estimates.append(
            ReactionEstimate(
                source_id=stream.source_id,
                warning_t_ms=float(warning_t_ms),
                t_max_ms=t_max,
                rt_ms=rt,
                peak_value=peak,
                kernel=kernel,
                window=at,
                convolution=conv,
                velocity=series,
            )
        )
    return estimates

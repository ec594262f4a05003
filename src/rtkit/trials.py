"""Seeded end-to-end detector trials on synthetic streams.

One trial draws a participant baseline, builds a matched burst (width
within +/-25% of the kernel width, peak placed half a kernel duration
after the onset so the generator and detector share one pattern-duration
convention), injects it into a noisy 27 s stream and runs the full
detection pipeline. The stream ends 2 s after its one warning because
nothing a trial returns reads a later frame: the draw fills frames in
order, so the stream is a prefix of any longer one drawn from the same
seed, and only the median frame spacing can move (by ulps).

SNR is the burst's peak velocity amplitude over the analytic velocity-noise
floor of the generated full-body stream; the detector's upper-body
filtering then sees a correspondingly cleaner series. Used by the
acceptance suite and the SNR sweep script.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector import detect
from .errors import ToolkitError
from .pose import N_LANDMARKS
from .synth import DEFAULT_WINDOW_STATS, BurstSpec, NoiseSpec, gen_pose_stream, velocity_noise_std

FPS = 30.0
WARNING_T_MS = 25000.0
# The stream must cover (a) the detector's reach: the 1 s default window, half
# the longest kernel (19 samples at a 600 ms baseline) and one frame, which
# ends by 26.4 s (at 26.3 s the longest kernel raises GapInWindow); and (b)
# the burst's support, which ends at most at 25000 + 450 + 300 + 4 * 93.75
# = 26125 ms. 27 s (810 frames) covers both.
DURATION_MS = WARNING_T_MS + 2000.0
NOISE_SIGMA = 0.004
SIGMA_MISMATCH = 0.25
FRAME_MS = 1000.0 / FPS


@dataclass(frozen=True)
class TrialResult:
    seed: int
    snr: float
    onset_ms: float
    baseline_rt_ms: float
    burst_sigma_ms: float
    rt_ms: float | None
    error_ms: float | None  # None when detection raised

    @property
    def ok(self) -> bool:
        return self.error_ms is not None


def run_detection_trial(seed: int, snr: float) -> TrialResult:
    """Generate one synthetic reaction and measure the detector's error."""
    rng = np.random.default_rng(seed)
    baseline = float(rng.uniform(400.0, 600.0))
    kernel_sigma = baseline / 8.0
    burst_sigma = kernel_sigma * float(rng.uniform(1.0 - SIGMA_MISMATCH, 1.0 + SIGMA_MISMATCH))
    onset = float(rng.uniform(50.0, 450.0))
    amplitude = snr * velocity_noise_std(NOISE_SIGMA, N_LANDMARKS, FPS)
    burst = BurstSpec(
        onset_ms=onset,
        burst_sigma_ms=burst_sigma,
        burst_amplitude=amplitude,
        center_offset_ms=baseline / 2.0,
    )
    stream, _ = gen_pose_stream(
        duration_ms=DURATION_MS,
        fps=FPS,
        warning_times=[WARNING_T_MS],
        bursts=[burst],
        noise=NoiseSpec(sigma=NOISE_SIGMA),
        seed=int(rng.integers(0, 2**63 - 1)),
        source_id=f"trial-{seed}",
    )
    try:
        (est,) = detect(stream, [WARNING_T_MS], baseline, DEFAULT_WINDOW_STATS)
    except ToolkitError:
        return TrialResult(seed, snr, onset, baseline, burst_sigma, None, None)
    return TrialResult(seed, snr, onset, baseline, burst_sigma, est.rt_ms, est.rt_ms - onset)


def error_summary(results: list[TrialResult]) -> dict:
    """Share of trials within 1 and 2 frames, plus error quantiles.

    Raises ValueError when there are no trials, whose shares are undefined.
    """
    if not results:
        raise ValueError("no trials to summarize")
    errors = np.array([abs(r.error_ms) for r in results if r.ok])
    n = len(results)
    failed = n - len(errors)
    tol = 1e-9
    return {
        "n": n,
        "detect_failures": failed,
        "within_1_frame": float(np.sum(errors <= FRAME_MS + tol)) / n,
        "within_2_frames": float(np.sum(errors <= 2.0 * FRAME_MS + tol)) / n,
        "median_abs_error_ms": float(np.median(errors)) if len(errors) else float("nan"),
        "p95_abs_error_ms": float(np.percentile(errors, 95.0)) if len(errors) else float("nan"),
    }


def snr_sweep(
    snrs=(1.0, 2.0, 5.0, 10.0),
    n_trials: int = 250,
    base_seed: int = 20_000,
) -> dict[float, dict]:
    """Detector error distribution per SNR level (the sweep table)."""
    return {
        snr: error_summary([run_detection_trial(base_seed + i, snr) for i in range(n_trials)])
        for snr in snrs
    }

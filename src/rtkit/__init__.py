"""rtkit: reaction-time measurement toolkit.

Measures human reaction times to multimodal safety warnings two ways:
classic trigger/response (SRT) event logs, and a vision-based detector
that finds reaction onsets in pose-landmark motion via per-participant
Gaussian matched filtering. Includes a scripted warning-scenario engine,
frequency-domain diagnostics, a statistics layer, and seeded synthetic
generators that serve as ground-truth oracles.
"""

__version__ = "0.1.0"

from .detector import build_kernel, convolve, default_window, detect, reaction_time
from .kinematics import velocity_series
from .pose import parse_pose_stream, select_upper_body, validate_stream, write_pose_stream
from .spectral import cwt_gaus2, fft_magnitude
from .stats import paired_ttest, significance_grid, summarize, welch_ttest
from .synth import gen_pose_stream, gen_srt_dataset
from .woz import builtin_scripts, latency_budget_check, parse_event_log, randomize_session, run_scenario

__all__ = [
    "build_kernel",
    "builtin_scripts",
    "convolve",
    "cwt_gaus2",
    "default_window",
    "detect",
    "fft_magnitude",
    "gen_pose_stream",
    "gen_srt_dataset",
    "latency_budget_check",
    "paired_ttest",
    "parse_event_log",
    "parse_pose_stream",
    "randomize_session",
    "reaction_time",
    "run_scenario",
    "select_upper_body",
    "significance_grid",
    "summarize",
    "validate_stream",
    "velocity_series",
    "welch_ttest",
    "write_pose_stream",
]

"""Where the traced run wraps rtkit, and how spans become per-layer metrics.

Each wrap point is the module attribute a caller reads at call time:
``cli`` reaches ``pose.parse_pose_stream`` through the ``rtkit.pose``
module, ``detect`` reaches ``velocity_series`` through its own module
globals, and ``trials`` holds its own bindings of ``detect`` and
``gen_pose_stream``. A function bound under two names is wrapped under
both, with one span name.
"""

from __future__ import annotations

import os

from rtkit import cli, detector, kinematics, pose, spectral, stats, synth, trials, woz

from tracing import Tracer


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _series_samples(args, kwargs, result):
    return len(args[0].v)


def _cwt_coefficients(args, kwargs, result):
    return result.coefficients.size


def _records(args, kwargs, result):
    return len(result)


def _log_lines(args, kwargs, result):
    # header line plus one line per event
    return 1 + len(result.triggers) + len(result.acks) + len(result.responses)


# (owner, attribute, span name, extra counter)
WRAP_POINTS = (
    (cli, "main", "cli", None),
    (pose, "parse_pose_stream", "pose.parse", ("pose.parse.bytes", _file_bytes)),
    (pose, "write_pose_stream", "pose.write", None),
    (pose, "validate_stream", "pose.validate", None),
    (pose, "select_upper_body", "pose.upper_body", None),
    (detector, "select_upper_body", "pose.upper_body", None),
    (kinematics, "velocity_series", "kinematics.velocity", None),
    (detector, "velocity_series", "kinematics.velocity", None),
    (detector, "detect", "detector.detect", None),
    (trials, "detect", "detector.detect", None),
    (detector, "build_kernel", "detector.kernel", None),
    (detector, "convolve", "detector.convolve", ("detector.convolve.samples", _series_samples)),
    (spectral, "fft_magnitude", "spectral.fft", None),
    (spectral, "cwt_gaus2", "spectral.cwt", ("spectral.cwt.coefficients", _cwt_coefficients)),
    (spectral, "write_spectrum_csv", "spectral.export", None),
    (spectral, "write_cwt", "spectral.export", None),
    (synth, "gen_pose_stream", "synth.gen_pose", None),
    (trials, "gen_pose_stream", "synth.gen_pose", None),
    (synth, "gen_srt_dataset", "synth.gen_srt", ("synth.gen_srt.records", _records)),
    (trials, "run_detection_trial", "trials.trial", None),
    (woz, "randomize_session", "woz.scenario", None),
    (woz, "run_scenario", "woz.scenario", None),
    (woz, "simulate_acks", "woz.scenario", None),
    (woz, "write_event_log", "woz.log_write", None),
    (woz, "parse_event_log", "woz.log_parse", ("woz.log_parse.lines", _log_lines)),
    (woz, "latency_budget_check", "woz.latency_check", None),
    (stats, "summary_table", "stats.summary", None),
    (stats, "significance_grid", "stats.grid", None),
    (stats, "welch_ttest", "stats.ttest", None),
    (stats, "paired_ttest", "stats.ttest", None),
    (stats, "write_records_csv", "stats.records_io", None),
    (stats, "read_records_csv", "stats.records_io", None),
    (stats, "write_summary_csv", "stats.report_write", None),
    (stats, "write_settings_grid_csv", "stats.report_write", None),
    (stats, "write_modalities_grid_csv", "stats.report_write", None),
)


def install(tracer: Tracer) -> None:
    for owner, attr, name, extra in WRAP_POINTS:
        tracer.wrap(owner, attr, name, extra)


# per-layer metric -> (unit, better, kind, source). Kinds: "self" is self
# time of the named span, "count" a counter, and the rest are derived.
PER_LAYER = {
    "pose.parse_s": ("s", "lower", "self", "pose.parse"),
    "pose.parse_calls": ("count", "lower", "count", "pose.parse.calls"),
    "pose.parse_mb_per_s": ("MB/s", "higher", "rate", "pose.parse"),
    "pose.write_s": ("s", "lower", "self", "pose.write"),
    "pose.validate_s": ("s", "lower", "self", "pose.validate"),
    "pose.upper_body_s": ("s", "lower", "self", "pose.upper_body"),
    "pose.upper_body_calls": ("count", "lower", "count", "pose.upper_body.calls"),
    "kinematics.velocity_s": ("s", "lower", "self", "kinematics.velocity"),
    "kinematics.velocity_calls": ("count", "lower", "count", "kinematics.velocity.calls"),
    "kinematics.velocity_calls_per_stream": ("ratio", "lower", "per_stream", "kinematics.velocity.calls"),
    "detector.detect_s": ("s", "lower", "self", "detector.detect"),
    "detector.kernel_s": ("s", "lower", "self", "detector.kernel"),
    "detector.convolve_s": ("s", "lower", "self", "detector.convolve"),
    "detector.detect_calls": ("count", "lower", "count", "detector.detect.calls"),
    "detector.convolve_calls": ("count", "lower", "count", "detector.convolve.calls"),
    "detector.convolved_samples": ("count", "lower", "count", "detector.convolve.samples"),
    "spectral.fft_s": ("s", "lower", "self", "spectral.fft"),
    "spectral.cwt_s": ("s", "lower", "self", "spectral.cwt"),
    "spectral.export_s": ("s", "lower", "self", "spectral.export"),
    "spectral.cwt_coefficients": ("count", "lower", "count", "spectral.cwt.coefficients"),
    "synth.gen_pose_s": ("s", "lower", "self", "synth.gen_pose"),
    "synth.gen_pose_calls": ("count", "lower", "count", "synth.gen_pose.calls"),
    "synth.gen_srt_s": ("s", "lower", "self", "synth.gen_srt"),
    "synth.srt_records": ("count", "lower", "count", "synth.gen_srt.records"),
    "trials.trial_self_s": ("s", "lower", "self", "trials.trial"),
    "woz.scenario_s": ("s", "lower", "self", "woz.scenario"),
    "woz.log_write_s": ("s", "lower", "self", "woz.log_write"),
    "woz.log_parse_s": ("s", "lower", "self", "woz.log_parse"),
    "woz.latency_check_s": ("s", "lower", "self", "woz.latency_check"),
    "woz.log_lines": ("count", "lower", "count", "woz.log_parse.lines"),
    "stats.summary_s": ("s", "lower", "self", "stats.summary"),
    "stats.grid_s": ("s", "lower", "self", "stats.grid"),
    "stats.ttest_s": ("s", "lower", "self", "stats.ttest"),
    "stats.records_io_s": ("s", "lower", "self", "stats.records_io"),
    "stats.report_write_s": ("s", "lower", "self", "stats.report_write"),
    "stats.ttests": ("count", "lower", "count", "stats.ttest.calls"),
    "cli.self_s": ("s", "lower", "self", "cli"),
    "bench.self_s": ("s", "lower", "self", "op"),
    "trace.ops_per_s": ("op/s", "higher", "traced", None),
}


def layer_metrics(
    tracer: Tracer,
    ops: int,
    setup_inputs: int,
    streams_per_op: int,
    traced_ops_per_s: float,
) -> dict[str, dict]:
    """Per-layer metrics, each per operation.

    Spans recorded inside timed operations are divided by the operations
    completed; spans recorded during set-up are divided by the operation
    inputs the set-ups prepared (``setup_inputs``), so generating and
    writing one recording counts once per operation that processes it.
    """
    self_ns = tracer.self_times_ns()

    def per_op(op_total: float, setup_total: float) -> float:
        return op_total / ops + (setup_total / setup_inputs if setup_inputs else 0.0)

    def self_s(span: str) -> float:
        return per_op(self_ns.get((span, "op"), 0), self_ns.get((span, "setup"), 0)) / 1e9

    def count(key: str) -> float:
        return per_op(tracer.counts[("op", key)], tracer.counts[("setup", key)])

    out = {}
    for name, (unit, _better, kind, source) in PER_LAYER.items():
        if kind == "self":
            value = self_s(source)
        elif kind == "count":
            value = count(source)
        elif kind == "per_stream":
            value = count(source) / streams_per_op if streams_per_op else 0.0
        elif kind == "rate":
            busy_ns = self_ns.get((source, "op"), 0) + self_ns.get((source, "setup"), 0)
            total_bytes = tracer.counts[("op", "pose.parse.bytes")] + tracer.counts[("setup", "pose.parse.bytes")]
            value = total_bytes / 1e6 / (busy_ns / 1e9) if busy_ns else 0.0
        else:
            value = traced_ops_per_s
        out[name] = {"value": value, "unit": unit}
    return out

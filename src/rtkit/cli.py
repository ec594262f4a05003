"""Command-line entry point wiring the toolkit into workflows.

Subcommands: ingest, detect, spectral, scenario, srt, stats, synth.
Flag precedence is flags > config file (JSON) > defaults, and the
effective configuration is echoed into the output directory. Each
subcommand takes only the options it reads; only the synth commands draw
random numbers, and they require --seed. The files this module writes
itself (run_config.json, the JSON reports, the summary CSVs and scenario
logs) are written atomically (temp file + rename); the pose, record,
spectrum, CWT and grid files come from the library writers and are not.
Inputs are never modified. A subcommand that fails writes nothing, not even
--out: it checks and computes before it writes. Only detect, which writes a
report per stream, keeps those of the streams before one that fails to parse
or detect (every input's baseline is checked first).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import detector, kinematics, pose, spectral, stats, synth, woz
from .errors import EmptyStream, PairingError, ParseError, ToolkitError


def _atomic_write(path: Path, data: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_json(path: Path, payload) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _echo_config(out_dir: Path, args: argparse.Namespace) -> None:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func" and not k.startswith("_")}
    _atomic_json(out_dir / "run_config.json", cfg)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(args) -> int:
    out = Path(args.out)
    stream = pose.parse_pose_stream(args.input, format=args.format, nominal_fps=args.fps)
    report = pose.validate_stream(stream)
    _echo_config(out, args)
    payload = {
        "source_id": stream.source_id,
        "n_frames": stream.n_frames,
        "n_landmarks": stream.n_landmarks,
        "frame_ms": None if math.isnan(stream.frame_ms) else stream.frame_ms,  # JSON has no NaN
        "has_z": stream.has_z,
        "timestamps_synthesized": stream.timestamps_synthesized,
        "findings": [
            {"kind": f.kind, "frame_index": f.frame_index, "landmark_id": f.landmark_id, "detail": f.detail}
            for f in report.findings
        ],
    }
    _atomic_json(out / f"{stream.source_id}_validation.json", payload)
    if args.canonical:
        pose.write_pose_stream(stream, out / f"{stream.source_id}_canonical.jsonl", format="jsonl")
    print(f"{stream.source_id}: {stream.n_frames} frames, {len(report.findings)} finding(s)")
    return 0


def _read_baselines(path) -> dict[str, float]:
    """participant -> baseline reaction time (ms); ParseError names the line and participant of a bad row."""
    table = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if not {"participant", "baseline_rt_ms"} <= set(reader.fieldnames or ()):
            raise ParseError(f"{path}: the header needs participant and baseline_rt_ms columns", line=1)
        for row in reader:
            p, raw = row["participant"], row["baseline_rt_ms"]
            try:
                table[p] = _positive_float(raw)
            except argparse.ArgumentTypeError:
                raise ParseError(
                    f"{path}: participant {p!r}: baseline_rt_ms {raw!r} is not a positive number", line=reader.line_num
                ) from None
    return table


def cmd_detect(args) -> int:
    out = Path(args.out)
    src = Path(args.input)
    inputs = [p for suffix in pose.POSE_SUFFIXES for p in sorted(src.glob("*" + suffix))] if src.is_dir() else [src]
    if not inputs:
        raise EmptyStream(f"no pose files under {args.input}")
    # a stream's participant is its file stem: two files of one stem would write one report
    stems: dict[str, Path] = {}
    for path in inputs:
        if path.stem in stems:
            raise PairingError(f"{stems[path.stem]} and {path} are both participant {path.stem!r}")
        stems[path.stem] = path
    baselines = _read_baselines(args.baselines)
    if missing := [path.stem for path in inputs if path.stem not in baselines]:
        raise PairingError(f"{args.baselines}: no baseline reaction time for participant {missing[0]!r}")
    warnings = [float(w) for w in args.warnings.split(",")]
    _echo_config(out, args)

    rows = []
    for path in inputs:
        stream = pose.parse_pose_stream(path, nominal_fps=args.fps)
        estimates = detector.detect(
            stream,
            warnings,
            baselines[stream.source_id],
            (args.window_mean, args.window_sd),
            dims=None if args.dims == "auto" else args.dims,
        )
        payload = {
            "participant": stream.source_id,
            "timestamps_synthesized": stream.timestamps_synthesized,
            "estimates": [est.report(include_trace=args.emit_trace) for est in estimates],
        }
        rows += [(stream.source_id, est.warning_t_ms, est.rt_ms, est.t_max_ms, est.peak_value) for est in estimates]
        _atomic_json(out / f"{stream.source_id}_detection.json", payload)

    lines = ["participant,warning_t_ms,rt_ms,t_max_ms,peak_value"]
    lines += [f"{p},{w!r},{rt!r},{tm!r},{pv!r}" for p, w, rt, tm, pv in rows]
    _atomic_write(out / "detection_summary.csv", "\n".join(lines) + "\n")
    print(f"detected {len(rows)} reaction(s) across {len(inputs)} stream(s)")
    return 0


def cmd_spectral(args) -> int:
    out = Path(args.out)
    stream = pose.parse_pose_stream(args.input, nominal_fps=args.fps)
    series = kinematics.velocity_series(pose.select_upper_body(stream), dims=None if args.dims == "auto" else args.dims)
    spec = spectral.fft_magnitude(series, remove_mean=args.remove_mean)
    if args.scales:
        lo, hi, count = args.scales.split(":")
        scales = np.geomspace(float(lo), float(hi), int(count))
    else:
        scales = spectral.DEFAULT_SCALES
    cwt = spectral.cwt_gaus2(series, scales)
    _echo_config(out, args)
    spectral.write_spectrum_csv(spec, out / f"{stream.source_id}_spectrum.csv")
    spectral.write_cwt(cwt, out / f"{stream.source_id}_cwt.npy", out / f"{stream.source_id}_cwt.json")
    print(f"{stream.source_id}: spectrum ({spec.n} samples) and CWT ({len(scales)} scales) written")
    return 0


def cmd_scenario(args) -> int:
    out = Path(args.out)
    try:
        script = woz.script_by_name(args.script)
    except KeyError:
        path = Path(args.script)
        if not path.exists():
            names = [s.name for s in woz.builtin_scripts()]
            raise ParseError(f"unknown script {args.script!r}: no such file, and not a builtin script {names}")
        script = _load_script(path)
    clock = woz.SimClock() if args.clock == "sim" else woz.WallClock()
    sink = woz.ListTransport()
    events = woz.run_scenario(script, clock, sink)
    _atomic_write(out, woz.format_event_log(events))
    print(f"{script.name}: {len(events)} trigger(s) -> {out}")
    return 0


def _load_script(path: Path) -> woz.ScenarioScript:
    """A scenario from a JSON file; ParseError names the file and the missing key or bad value."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        name, duration_ms, triggers = obj["name"], _whole_ms(obj["duration_ms"], "duration_ms"), []
        for i, entry in enumerate(obj["triggers"]):
            try:
                t, m = entry
                triggers.append((_whole_ms(t, "time"), str(m)))
            except (TypeError, ValueError) as exc:
                raise ParseError(f"{path}: trigger {i} {json.dumps(entry)}: {exc}") from None
        return woz.ScenarioScript(name=name, duration_ms=duration_ms, triggers=tuple(triggers))
    except KeyError as exc:
        raise ParseError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def _whole_ms(value, what: str) -> int:
    """A JSON number without a fraction, as an int; ValueError for any other value (true, a string, 1000.7)."""
    if type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise ValueError(f"{what} {value!r} is not a whole number of ms")
    return value


def cmd_srt(args) -> int:
    out = Path(args.out)
    log = woz.parse_event_log(args.log, max_rt_ms=args.max_rt)
    _echo_config(out, args)

    lines = ["trigger_seq,trigger_ms,response_ms,rt_ms,is_miss"]
    lines += [
        f"{e.trigger_seq},{e.trigger_ms},{e.response_ms},{e.rt_ms},{int(e.is_miss)}"
        for e in log.srt_events
    ]
    _atomic_write(out / "srt_events.csv", "\n".join(lines) + "\n")

    report = {
        "n_triggers": len(log.triggers),
        "n_responses": len(log.responses),
        "n_paired": len(log.srt_events),
        "orphan_responses": [e.seq for e in log.orphan_responses],
        "missed_triggers": log.missed_triggers,
    }
    if log.acks:
        lat = woz.latency_budget_check(log.triggers, log.acks, budget_ms=args.latency_budget)
        report["latency"] = {
            "budget_ms": lat.budget_ms,
            "p99_ms": lat.p99_ms,
            "all_pass": lat.all_pass,
            "failures": lat.failures,
            "orphan_acks": [e.seq for e in lat.orphan_acks],
            "repeated_acks": [e.seq for e in lat.repeated_acks],
        }
    _atomic_json(out / "srt_report.json", report)
    if args.records:
        records = [
            stats.ReactionRecord(
                participant=args.participant,
                setting=stats.Setting(args.setting),
                modality=next(t.modality for t in log.triggers if t.seq == e.trigger_seq),
                rt_ms=float(e.rt_ms),
            )
            for e in log.srt_events
            if not e.is_miss
        ]
        stats.write_records_csv(records, out / "records.csv")
    print(f"paired {len(log.srt_events)} SRT event(s); {len(log.missed_triggers)} miss(es)")
    return 0


def cmd_stats(args) -> int:
    out = Path(args.out)
    records = stats.read_records_csv(args.records)
    if not records:
        raise EmptyStream(f"{args.records}: no records")
    summaries = stats.summary_table(records)
    grid = stats.significance_grid(records)
    paired_lines = ["comparison,n,t,df,p"]
    if paired := stats.vision_vs_srt(records):
        n, res = paired
        paired_lines.append(f"VisionE-vs-VR-WT-HAV,{n},{res.t!r},{res.df!r},{res.p!r}")

    _echo_config(out, args)
    stats.write_summary_csv(summaries, out / "summary.csv")
    stats.write_settings_grid_csv(grid, out / "grid_settings.csv")
    stats.write_modalities_grid_csv(grid, out / "grid_modalities.csv")
    _atomic_write(out / "paired.csv", "\n".join(paired_lines) + "\n")
    print(f"stats over {len(records)} record(s): summary, two grids, paired report")
    return 0


def cmd_synth_pose(args) -> int:
    out = Path(args.out)
    warnings = [float(w) for w in args.warnings.split(",")]
    burst = synth.BurstSpec(
        onset_ms=args.onset,
        burst_sigma_ms=args.burst_sigma,
        burst_amplitude=args.amplitude,
    )
    stream, truths = synth.gen_pose_stream(
        duration_ms=args.duration,
        fps=args.fps,
        warning_times=warnings,
        bursts=[burst] * len(warnings),
        noise=synth.NoiseSpec(sigma=args.noise_sigma),
        seed=args.seed,
        source_id=args.source_id,
    )
    _echo_config(out, args)
    path = out / f"{args.source_id}.{args.format}"
    pose.write_pose_stream(stream, path, format=args.format)
    synth.write_truth_sidecar(truths, args.seed, out / f"{args.source_id}_truth.json")
    print(f"wrote {stream.n_frames}-frame stream with {len(truths)} burst(s) -> {path}")
    return 0


def cmd_synth_srt(args) -> int:
    out = Path(args.out)
    if args.cells:
        cells, rho = synth.read_cells_json(args.cells)
        rho = args.rho if rho is None else rho
    else:
        cells = list(synth.REFERENCE_SRT_CELLS)
        rho = args.rho
    records = synth.gen_srt_dataset(cells, seed=args.seed, rho=rho)
    _echo_config(out, args)
    stats.write_records_csv(records, out / "records.csv")
    synth.write_cells_sidecar(cells, args.seed, rho, out / "cells.json")
    print(f"wrote {len(records)} record(s) across {len(cells)} cell(s)")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _warning_times(text: str) -> str:
    """argparse type: comma-separated finite times in ms, returned as written (run_config.json echoes the text)."""
    try:
        if all(math.isfinite(float(w)) for w in text.split(",")):
            return text
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected comma-separated times in ms, got {text!r}")


def _scale_grid(text: str) -> str:
    """argparse type: lo:hi:count with 0 < lo < hi and a whole count >= 1, returned as written."""
    try:
        lo, hi, count = text.split(":")
        if 0 < float(lo) < float(hi) < math.inf and int(count) >= 1:
            return text
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected lo:hi:count with 0 < lo < hi and a whole count >= 1, got {text!r}")


def _positive_float(text: str) -> float:
    """argparse type: a finite number above zero."""
    try:
        value = float(text)
        if math.isfinite(value) and value > 0:
            return value
    except (TypeError, ValueError):
        pass
    raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")


def _positive_int(text: str) -> int:
    """argparse type: a whole number above zero."""
    try:
        value = int(text)
        if value > 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a whole number above zero, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    config_help = "JSON file of option defaults; flags override them"
    fps_help = "rate of the timestamps synthesized for a file without them; a stamped file is spaced by its stamps"
    p = argparse.ArgumentParser(prog="rtkit", description=__doc__.splitlines()[0])
    p.add_argument("--config", help=config_help)
    # also accepted after the subcommand; SUPPRESS keeps a subparser from resetting it
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", default=argparse.SUPPRESS, help=config_help)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ingest", parents=[config], help="parse and validate a pose file")
    sp.add_argument("--out", required=True)
    sp.add_argument("--fps", type=_positive_float, default=30.0, help=fps_help)
    sp.add_argument("--input", required=True)
    sp.add_argument("--format", choices=["csv", "jsonl"], default=None)
    sp.add_argument("--canonical", action="store_true", help="also write a canonical JSONL copy")
    sp.set_defaults(func=cmd_ingest)

    sp = sub.add_parser("detect", parents=[config], help="vision-based reaction times for pose streams")
    sp.add_argument("--out", required=True)
    sp.add_argument("--fps", type=_positive_float, default=30.0, help=fps_help)
    sp.add_argument("--input", required=True, help="pose file or directory of pose files")
    sp.add_argument("--baselines", required=True, help="CSV: participant,baseline_rt_ms")
    sp.add_argument("--warnings", type=_warning_times, required=True, help="comma-separated warning times (ms)")
    sp.add_argument("--dims", choices=["auto", "xy", "xyz"], default="auto")
    window_mean, window_sd = synth.DEFAULT_WINDOW_STATS
    sp.add_argument("--window-mean", type=_positive_float, default=window_mean)
    sp.add_argument("--window-sd", type=_positive_float, default=window_sd)
    sp.add_argument("--emit-trace", action="store_true")
    sp.set_defaults(func=cmd_detect)

    sp = sub.add_parser("spectral", parents=[config], help="FFT magnitude spectrum and CWT of the velocity series")
    sp.add_argument("--out", required=True)
    sp.add_argument("--fps", type=_positive_float, default=30.0, help=fps_help)
    sp.add_argument("--input", required=True)
    sp.add_argument("--dims", choices=["auto", "xy", "xyz"], default="auto")
    sp.add_argument("--remove-mean", action="store_true")
    sp.add_argument("--scales", type=_scale_grid, default=None, help="lo:hi:count (frames, log-spaced)")
    sp.set_defaults(func=cmd_spectral)

    sp = sub.add_parser("scenario", parents=[config], help="run a warning schedule and write the event log")
    sp.add_argument("--script", required=True, help="builtin name (V, HV, AV, HAV, ExpE) or JSON path")
    sp.add_argument("--clock", choices=["sim", "wall"], default="sim")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_scenario)

    sp = sub.add_parser("srt", parents=[config], help="parse an event log into SRT measurements")
    sp.add_argument("--out", required=True)
    sp.add_argument("--log", required=True)
    sp.add_argument("--max-rt", type=_positive_int, default=woz.DEFAULT_MISS_MS)
    sp.add_argument("--latency-budget", type=_positive_float, default=10.0)
    sp.add_argument("--records", action="store_true", help="also write a records.csv for the stats command")
    sp.add_argument("--participant", default="P000")
    sp.add_argument("--setting", choices=[s.value for s in stats.SRT_SETTINGS], default="Baseline")
    sp.set_defaults(func=cmd_srt)

    sp = sub.add_parser("stats", parents=[config], help="summary, significance grids, paired report")
    sp.add_argument("--out", required=True)
    sp.add_argument("--records", required=True)
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("synth", parents=[config], help="generate synthetic data")
    synth_sub = sp.add_subparsers(dest="kind", required=True)

    sq = synth_sub.add_parser("pose", parents=[config], help="pose stream with injected reactions")
    sq.add_argument("--seed", type=int, required=True)
    sq.add_argument("--out", required=True)
    sq.add_argument("--fps", type=_positive_float, default=30.0)
    sq.add_argument("--duration", type=float, default=60000.0)
    sq.add_argument("--warnings", type=_warning_times, default="25000,45000")
    sq.add_argument("--onset", type=float, default=400.0)
    sq.add_argument("--burst-sigma", type=float, default=54.75)
    sq.add_argument("--amplitude", type=float, default=3.0)
    sq.add_argument("--noise-sigma", type=float, default=0.004)
    sq.add_argument("--source-id", default="synth")
    sq.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    sq.set_defaults(func=cmd_synth_pose)

    sq = synth_sub.add_parser("srt", parents=[config], help="reaction-time records from cell parameters")
    sq.add_argument("--seed", type=int, required=True)
    sq.add_argument("--out", required=True)
    sq.add_argument("--cells", default=None, help="JSON cell parameters; defaults to the reference cells")
    sq.add_argument("--rho", type=float, default=0.5)
    sq.set_defaults(func=cmd_synth_srt)

    return p


def _subcommand(parser: argparse.ArgumentParser, tokens: list[str]) -> argparse.ArgumentParser | None:
    """The parser of the innermost subcommand that ``tokens`` name (``detect``, ``synth srt``, ...), or None."""
    names = (t for t in tokens if not t.startswith("-"))
    while subs := next((a for a in parser._actions if isinstance(a, argparse._SubParsersAction)), None):
        parser = subs.choices.get(next(names, None))
        if parser is None:
            return None
    return parser


def _config_value(parser: argparse.ArgumentParser, key: str, action: argparse.Action, value):
    """``value`` checked as its flag's would be: a JSON boolean for a switch, else through type and choices."""
    if action.nargs == 0 and isinstance(value, bool):
        return value
    if action.nargs != 0 and isinstance(value, (str, int, float)) and not isinstance(value, bool):
        try:
            converted = (action.type or str)(str(value))
            if action.choices is None or converted in action.choices:
                return converted
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            pass
    parser.error(f"config key {key!r}: {json.dumps(value)} is not a valid {action.option_strings[0]} value")


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Make the --config file's values defaults of the chosen subcommand, so its flags still win.

    A key that is not one of its options is a usage error; a required option may come from the file.
    """
    pre = argparse.ArgumentParser(prog=parser.prog, add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv)
    sub = _subcommand(parser, rest)
    if known.config is None or sub is None:
        return  # the real parse reports a missing or unknown subcommand
    try:
        with open(known.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"argument --config: {exc}")
    if not isinstance(cfg, dict):
        parser.error(f"argument --config: {known.config} does not hold a JSON object")
    options = {a.dest: a for a in sub._actions if a.option_strings and a.dest not in ("help", "config")}
    for key, value in cfg.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            sub.error(f"config key {key!r} is not an option of {sub.prog!r}")
        sub.set_defaults(**{action.dest: _config_value(sub, key, action, value)})
        action.required = False


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except ToolkitError as exc:
        error = exc
    except FileNotFoundError as exc:  # an input file that is not there, named as the pose reader names it
        error = ParseError(f"no such file: {exc.filename}")
    except IsADirectoryError as exc:
        error = ParseError(f"is a directory: {exc.filename}")
    print(f"error [{type(error).__name__}]: {error}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())

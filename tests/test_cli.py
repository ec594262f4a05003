import json
import re
import warnings

import numpy as np
import pytest
from conftest import make_stream

from rtkit.cli import _subcommand, build_parser, main
from rtkit.pose import write_pose_stream


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_scenario_builtin_exact_lines(tmp_path):
    out = tmp_path / "v.log"
    assert run_cli("scenario", "--script", "V", "--clock", "sim", "--out", out) == 0
    assert out.read_text() == (
        "# woz-log v1\n"
        "TRIG 1 V 10000 10000\n"
        "TRIG 2 V 20000 20000\n"
        "TRIG 3 V 28000 28000\n"
        "TRIG 4 V 33000 33000\n"
        "TRIG 5 V 36000 36000\n"
    )


def test_scenario_expe_two_triggers(tmp_path):
    out = tmp_path / "e.log"
    assert run_cli("scenario", "--script", "ExpE", "--clock", "sim", "--out", out) == 0
    lines = out.read_text().strip().splitlines()[1:]
    assert lines == ["TRIG 1 HAV 25000 25000", "TRIG 2 HAV 45000 45000"]


def test_scenario_unknown_script(tmp_path, capsys):
    assert run_cli("scenario", "--script", "Nope", "--out", tmp_path / "x.log") == 1
    err = capsys.readouterr().err
    assert err.startswith("error [ParseError]: ")
    assert "'Nope'" in err and "'ExpE'" in err
    assert not (tmp_path / "x.log").exists()


def test_scenario_script_from_json(tmp_path):
    script = {"name": "custom", "duration_ms": 5000, "triggers": [[1000, "V"], [2000, "HAV"]]}
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    out = tmp_path / "c.log"
    assert run_cli("scenario", "--script", path, "--out", out) == 0
    assert "TRIG 2 HAV 2000 2000" in out.read_text()


def test_synth_srt_requires_seed(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("synth", "srt", "--out", tmp_path / "d")
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_synth_srt_then_stats(tmp_path):
    srt_dir = tmp_path / "srt"
    assert run_cli("synth", "srt", "--seed", 3, "--out", srt_dir) == 0
    assert (srt_dir / "records.csv").exists()
    assert (srt_dir / "cells.json").exists()
    assert (srt_dir / "run_config.json").exists()

    stats_dir = tmp_path / "stats"
    assert run_cli("stats", "--records", srt_dir / "records.csv", "--out", stats_dir) == 0
    summary = (stats_dir / "summary.csv").read_text().splitlines()
    assert summary[0] == "modality,stat,Baseline,AR,VR-WOT,VR-WT"
    assert len(summary) == 1 + 4 * 3
    grid = (stats_dir / "grid_settings.csv").read_text().splitlines()
    assert len(grid) == 1 + 4 * 3
    assert (stats_dir / "grid_modalities.csv").exists()
    assert (stats_dir / "paired.csv").exists()


def test_stats_empty_records(tmp_path, capsys):
    records = tmp_path / "records.csv"
    records.write_text("participant,setting,modality,method,rt_ms\n")
    assert run_cli("stats", "--records", records, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error [EmptyStream]: ") and str(records) in err
    assert not (tmp_path / "out").exists()


def test_synth_pose_detect_chain(tmp_path):
    pose_dir = tmp_path / "pose"
    assert (
        run_cli(
            "synth", "pose",
            "--seed", 5,
            "--out", pose_dir,
            "--source-id", "P007",
            "--warnings", "25000,45000",
            "--onset", 400,
            "--amplitude", 4.0,
        )
        == 0
    )
    truth = json.loads((pose_dir / "P007_truth.json").read_text())
    assert len(truth["bursts"]) == 2

    baselines = tmp_path / "baselines.csv"
    baselines.write_text("participant,baseline_rt_ms\nP007,438\n")
    det_dir = tmp_path / "det"
    assert (
        run_cli(
            "detect",
            "--input", pose_dir / "P007.csv",
            "--baselines", baselines,
            "--warnings", "25000,45000",
            "--out", det_dir,
        )
        == 0
    )
    summary = (det_dir / "detection_summary.csv").read_text().splitlines()
    assert summary[0] == "participant,warning_t_ms,rt_ms,t_max_ms,peak_value"
    assert len(summary) == 3
    report = json.loads((det_dir / "P007_detection.json").read_text())
    assert len(report["estimates"]) == 2
    assert "convolution" not in report["estimates"][0]


def test_detect_missing_baseline_names_participant(tmp_path, capsys):
    pose_dir = tmp_path / "pose"
    run_cli("synth", "pose", "--seed", 6, "--out", pose_dir, "--source-id", "P009",
            "--warnings", "25000", "--amplitude", "4.0")
    baselines = tmp_path / "baselines.csv"
    baselines.write_text("participant,baseline_rt_ms\nOTHER,438\n")
    assert run_cli("detect", "--input", pose_dir / "P009.csv", "--baselines", baselines,
                   "--warnings", "25000", "--out", tmp_path / "det") == 1
    err = capsys.readouterr().err
    assert err.startswith("error [PairingError]: ") and "'P009'" in err


def test_detect_emit_trace(tmp_path):
    pose_dir = tmp_path / "pose"
    run_cli("synth", "pose", "--seed", 7, "--out", pose_dir, "--source-id", "T1",
            "--warnings", "25000", "--amplitude", "4.0")
    baselines = tmp_path / "baselines.csv"
    baselines.write_text("participant,baseline_rt_ms\nT1,438\n")
    det_dir = tmp_path / "det"
    run_cli("detect", "--input", pose_dir / "T1.csv", "--baselines", baselines,
            "--warnings", "25000", "--out", det_dir, "--emit-trace")
    report = json.loads((det_dir / "T1_detection.json").read_text())
    assert "convolution" in report["estimates"][0]


def test_ingest_reports_findings(tmp_path):
    pose_dir = tmp_path / "pose"
    run_cli("synth", "pose", "--seed", 8, "--out", pose_dir, "--source-id", "V1",
            "--warnings", "25000", "--amplitude", "4.0")
    out = tmp_path / "ingest"
    assert run_cli("ingest", "--input", pose_dir / "V1.csv", "--out", out, "--canonical") == 0
    payload = json.loads((out / "V1_validation.json").read_text())
    assert payload["n_frames"] == 1800
    assert payload["findings"] == []
    assert (out / "V1_canonical.jsonl").exists()


def test_canonical_copy_of_an_xy_stream_detects_the_same(tmp_path):
    pose_dir = tmp_path / "pose"
    run_cli("synth", "pose", "--seed", 8, "--out", pose_dir, "--source-id", "XY1",
            "--warnings", "25000", "--amplitude", "4.0")
    # drop the z column: an x/y recording
    xy = pose_dir / "XY1.csv"
    xy.write_text("".join(",".join(row.split(",")[:5] + row.split(",")[6:]) for row in xy.read_text().splitlines(True)))
    ingest = tmp_path / "ingest"
    assert run_cli("ingest", "--input", xy, "--out", ingest, "--canonical") == 0
    assert json.loads((ingest / "XY1_validation.json").read_text())["has_z"] is False
    baselines = tmp_path / "baselines.csv"
    baselines.write_text("participant,baseline_rt_ms\nXY1,438\nXY1_canonical,438\n")
    estimates = []
    for path in (xy, ingest / "XY1_canonical.jsonl"):
        det = tmp_path / path.stem
        assert run_cli("detect", "--input", path, "--baselines", baselines, "--warnings", "25000", "--out", det) == 0
        estimates.append(json.loads((det / f"{path.stem}_detection.json").read_text())["estimates"][0])
    assert estimates[0]["dims"] == estimates[1]["dims"] == "xy"
    assert estimates[0]["rt_ms"] == estimates[1]["rt_ms"]


def test_synthesized_timestamps_reach_the_canonical_copy_and_the_detection_report(tmp_path):
    pose_dir = tmp_path / "pose"
    run_cli("synth", "pose", "--seed", 8, "--out", pose_dir, "--source-id", "NT1",
            "--warnings", "25000", "--amplitude", "4.0")
    # drop the timestamp_ms column: a recording without timestamps
    stamped, bare = pose_dir / "NT1.csv", tmp_path / "bare" / "NT1.csv"
    bare.parent.mkdir()
    rows = stamped.read_text().splitlines(True)
    bare.write_text("".join(",".join(row.split(",")[:1] + row.split(",")[2:]) for row in rows))
    ingest = tmp_path / "ingest"
    assert run_cli("ingest", "--input", bare, "--out", ingest, "--canonical") == 0
    copy = ingest / "NT1_canonical.jsonl"
    assert '"timestamp_ms"' not in copy.read_text()
    assert run_cli("ingest", "--input", copy, "--out", tmp_path / "again") == 0
    payload = json.loads((tmp_path / "again" / "NT1_canonical_validation.json").read_text())
    assert payload["timestamps_synthesized"] is True
    assert [f["kind"] for f in payload["findings"]] == ["synthesized_timestamps"]
    baselines = tmp_path / "baselines.csv"
    baselines.write_text("participant,baseline_rt_ms\nNT1,438\nNT1_canonical,438\n")
    reports = []
    for path in (stamped, bare, copy):
        det = tmp_path / f"det-{path.parent.name}"
        assert run_cli("detect", "--input", path, "--baselines", baselines, "--warnings", "25000", "--out", det) == 0
        assert [len(row.split(",")) for row in (det / "detection_summary.csv").read_text().splitlines()] == [5, 5]
        reports.append(json.loads((det / f"{path.stem}_detection.json").read_text()))
    assert [r["timestamps_synthesized"] for r in reports] == [False, True, True]
    assert len({r["estimates"][0]["rt_ms"] for r in reports}) == 1


@pytest.mark.parametrize(
    "strip, message",
    [
        (-1, "frame 749: timestamp_ms missing on line 750, unlike the first frame"),
        (0, "frame 1: timestamp_ms present on line 2, unlike the first frame"),
    ],
)
def test_detect_jsonl_with_one_frame_unlike_the_first_in_timestamps_fails(tmp_path, capsys, strip, message):
    # 25 fps, 30 s, a burst 300 ms after the warning at 20 s; with the last or the first frame's stamp gone,
    # timestamps synthesized at the default 30 fps for the whole file would put the reaction about 300 ms late
    pose_dir = tmp_path / "pose"
    run_cli("synth", "pose", "--seed", 1, "--fps", 25, "--duration", 30000, "--warnings", 20000, "--onset", 300,
            "--amplitude", "4.0", "--format", "jsonl", "--source-id", "F25", "--out", pose_dir)
    path = pose_dir / "F25.jsonl"
    baselines = tmp_path / "baselines.csv"
    baselines.write_text("participant,baseline_rt_ms\nF25,438\n")
    detect = ["detect", "--input", path, "--baselines", baselines, "--warnings", 20000, "--out"]
    assert run_cli(*detect, tmp_path / "ok") == 0
    lines = path.read_text().splitlines(True)
    lines[strip] = re.sub(r'"timestamp_ms": [^,]*, ', "", lines[strip])
    path.write_text("".join(lines))
    capsys.readouterr()
    out = tmp_path / "det"
    assert run_cli(*detect, out) == 1
    assert capsys.readouterr().err == f"error [SchemaError]: {message}\n"
    assert not (out / "detection_summary.csv").exists()


def test_srt_command(tmp_path):
    log = tmp_path / "log.txt"
    log.write_text(
        "# woz-log v1\n"
        "TRIG 1 HAV 10000 10000\n"
        "ACK 1 10004\n"
        "RESP 1 10500\n"
        "TRIG 2 HAV 20000 20000\n"
        "ACK 2 20015\n"
    )
    out = tmp_path / "srt"
    assert run_cli("srt", "--log", log, "--out", out, "--records",
                   "--participant", "P001", "--setting", "VR-WT") == 0
    events = (out / "srt_events.csv").read_text().splitlines()
    assert events[1] == "1,10000,10500,500,0"
    report = json.loads((out / "srt_report.json").read_text())
    assert report["missed_triggers"] == [2]
    assert report["latency"]["failures"] == [2]
    records = (out / "records.csv").read_text().splitlines()
    assert records[1].startswith("P001,VR-WT,HAV,SRT,500")


def test_spectral_command(tmp_path):
    pose_dir = tmp_path / "pose"
    run_cli("synth", "pose", "--seed", 9, "--out", pose_dir, "--source-id", "S1",
            "--warnings", "8000", "--amplitude", "4.0", "--duration", "20000")
    out = tmp_path / "spec"
    assert run_cli("spectral", "--input", pose_dir / "S1.csv", "--out", out,
                   "--scales", "2:40:16") == 0
    side = json.loads((out / "S1_cwt.json").read_text())
    assert len(side["scales_frames"]) == 16
    assert (out / "S1_spectrum.csv").exists()


def test_spectral_non_finite_coordinate_fails(tmp_path, capsys):
    # a NaN x at frame 900, landmark 3 spoils the velocity samples of frames 900 and 901: nothing is exported
    run_cli("synth", "pose", "--seed", 7, "--out", tmp_path / "pose", "--source-id", "P7")
    path = tmp_path / "pose" / "P7.csv"
    lines = path.read_text().splitlines()
    fields = lines[1 + 900 * 33 + 3].split(",")
    assert (fields[0], fields[2]) == ("900", "3")
    fields[3] = "nan"
    lines[1 + 900 * 33 + 3] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "spec"
    assert run_cli("spectral", "--input", path, "--out", out) == 1
    err = capsys.readouterr().err
    assert err == "error [NonFiniteSignal]: P7: 2 non-finite velocity sample(s), first at frame 900\n"
    assert not list(out.glob("P7_*"))


def _run_that_fails_after_reading(tmp_path, command):
    """The argv (without --out) of a ``command`` run that fails on a fault found after its inputs are read, and
    the error line it prints."""
    if command == "spectral":
        # the file of test_spectral_non_finite_coordinate_fails: frame 900, landmark 3 has a NaN x
        run_cli("synth", "pose", "--seed", 7, "--out", tmp_path / "pose", "--source-id", "P7")
        path = tmp_path / "pose" / "P7.csv"
        lines = path.read_text().splitlines()
        fields = lines[1 + 900 * 33 + 3].split(",")
        fields[3] = "nan"
        lines[1 + 900 * 33 + 3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        error = "error [NonFiniteSignal]: P7: 2 non-finite velocity sample(s), first at frame 900"
        return ["spectral", "--input", path], error
    if command == "stats":
        # the summary can be computed; the significance grid needs the AR/HAV cell
        run_cli("synth", "srt", "--seed", 1, "--out", tmp_path / "srt")
        records = tmp_path / "srt" / "records.csv"
        rows = records.read_text().splitlines()
        records.write_text("\n".join(row for row in rows if row.split(",")[1:3] != ["AR", "HAV"]) + "\n")
        return ["stats", "--records", records], "error [MissingCell]: missing cells: [('AR', 'HAV')]"
    # A.csv has a baseline and comes first; B.csv has none
    for sid in ("A", "B"):
        run_cli("synth", "pose", "--seed", 5, "--out", tmp_path / "pose", "--source-id", sid,
                "--duration", 20000, "--warnings", 8000)
    baselines = tmp_path / "baselines.csv"
    baselines.write_text("participant,baseline_rt_ms\nA,438\n")
    argv = ["detect", "--input", tmp_path / "pose", "--baselines", baselines, "--warnings", 8000]
    return argv, f"error [PairingError]: {baselines}: no baseline reaction time for participant 'B'"


@pytest.mark.parametrize("command", ["spectral", "stats", "detect"])
def test_a_command_that_fails_writes_nothing(tmp_path, capsys, command):
    argv, error = _run_that_fails_after_reading(tmp_path, command)
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", out) == 1
    assert capsys.readouterr().err == error + "\n"
    assert not out.exists()


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 11, "rho": 0.25}))
    out1 = tmp_path / "a"
    assert run_cli("--config", cfg, "synth", "srt", "--out", out1) == 0
    echoed = json.loads((out1 / "run_config.json").read_text())
    assert echoed["seed"] == 11 and echoed["rho"] == 0.25
    out2 = tmp_path / "b"
    assert run_cli("--config", cfg, "synth", "srt", "--out", out2, "--rho", "0.75") == 0
    echoed2 = json.loads((out2 / "run_config.json").read_text())
    assert echoed2["seed"] == 11 and echoed2["rho"] == 0.75


def test_config_as_last_argument_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("synth", "srt", "--seed", 3, "--out", tmp_path / "d", "--config")
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_outputs_do_not_mutate_inputs(tmp_path):
    srt_dir = tmp_path / "srt"
    run_cli("synth", "srt", "--seed", 3, "--out", srt_dir)
    before = (srt_dir / "records.csv").read_bytes()
    run_cli("stats", "--records", srt_dir / "records.csv", "--out", tmp_path / "st")
    assert (srt_dir / "records.csv").read_bytes() == before


def test_config_yields_to_flag_in_equals_form(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 11, "rho": 0.25}))
    out = tmp_path / "a"
    assert run_cli("--config", cfg, "synth", "srt", "--out", out, "--rho=0.75") == 0
    echoed = json.loads((out / "run_config.json").read_text())
    assert echoed["seed"] == 11 and echoed["rho"] == 0.75


@pytest.mark.parametrize("before_subcommand", [True, False])
def test_config_equals_form_is_read(tmp_path, before_subcommand):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 11, "rho": 0.25}))
    out = tmp_path / "a"
    argv = ["synth", "srt", "--out", out]
    argv = [f"--config={cfg}", *argv] if before_subcommand else [*argv, f"--config={cfg}"]
    assert run_cli(*argv) == 0
    echoed = json.loads((out / "run_config.json").read_text())
    assert echoed["seed"] == 11 and echoed["rho"] == 0.25


@pytest.mark.parametrize(
    "cfg, key",
    [
        ({"seed": 5, "warnings": [25000, 45000]}, "warnings"),
        ({"seed": 5, "warnings": "25000,abc"}, "warnings"),
        ({"seed": 5, "format": "xml"}, "format"),
        ({"seed": 5.5}, "seed"),
        ({"seed": 5, "bogus": 1}, "bogus"),
        ({"seed": 5, "rho": 0.5}, "rho"),  # an option of synth srt, not of synth pose
    ],
)
def test_config_bad_value_or_key_is_usage_error(tmp_path, capsys, cfg, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as exc:
        run_cli("--config", path, "synth", "pose", "--out", tmp_path / "p")
    assert exc.value.code == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_config_supplies_required_out(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "from_config"
    cfg.write_text(json.dumps({"seed": 4, "out": str(out)}))
    assert run_cli("--config", cfg, "synth", "srt") == 0
    assert (out / "records.csv").exists()


def test_config_switch_takes_only_a_boolean(tmp_path, capsys):
    log = tmp_path / "log.txt"
    log.write_text("# woz-log v1\nTRIG 1 HAV 10000 10000\nRESP 1 10500\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"records": "yes"}))
    with pytest.raises(SystemExit) as exc:
        run_cli("--config", cfg, "srt", "--log", log, "--out", tmp_path / "a")
    assert exc.value.code == 2 and "'records'" in capsys.readouterr().err
    cfg.write_text(json.dumps({"records": True}))
    assert run_cli("--config", cfg, "srt", "--log", log, "--out", tmp_path / "b") == 0
    assert (tmp_path / "b" / "records.csv").exists()


@pytest.mark.parametrize(
    "body, match",
    [
        ("participant,baseline_rt_ms\nP1,438\nP2,0\n", r"line 3: .*participant 'P2': baseline_rt_ms '0'"),
        ("participant,baseline_rt_ms\nP1,fast\n", r"line 2: .*participant 'P1': baseline_rt_ms 'fast'"),
        ("participant,baseline_rt_ms\nP1\n", r"line 2: .*participant 'P1': baseline_rt_ms None"),
        ("participant,rt\nP1,438\n", r"line 1: .*baseline_rt_ms"),
    ],
)
def test_detect_bad_baselines_are_named_errors(tmp_path, capsys, body, match):
    baselines = tmp_path / "baselines.csv"
    baselines.write_text(body)
    code = run_cli("detect", "--input", tmp_path / "P1.csv", "--baselines", baselines,
                   "--warnings", "25000", "--out", tmp_path / "det")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error [ParseError]: ")
    assert re.search(match, err)


@pytest.mark.parametrize(
    "flag, value",
    [("--window-sd", "0"), ("--window-mean", "-438"), ("--window-sd", "nan"), ("--warnings", "25000,abc"),
     ("--fps", "0"), ("--fps", "nan")],
)
def test_detect_bad_numeric_flags_are_usage_errors(tmp_path, capsys, flag, value):
    baselines = tmp_path / "baselines.csv"
    baselines.write_text("participant,baseline_rt_ms\nP1,438\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("detect", "--input", tmp_path / "P1.csv", "--baselines", baselines,
                "--out", tmp_path / "det", "--warnings", "25000", flag, value)
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


def test_stats_two_records_in_a_paired_cell(tmp_path, capsys):
    srt_dir = tmp_path / "srt"
    run_cli("synth", "srt", "--seed", 3, "--out", srt_dir)
    records = srt_dir / "records.csv"
    with open(records, "a") as fh:
        fh.write("V1,VisionE,HAV,Vision,400.0\nV1,VisionE,HAV,Vision,410.0\nV1,VR-WT,HAV,SRT,420.0\n")
    assert run_cli("stats", "--records", records, "--out", tmp_path / "st") == 1
    err = capsys.readouterr().err
    assert "PairingError" in err and "'V1'" in err and "VisionE/HAV" in err


# every option of every subcommand is read by that subcommand
OPTION_DESTS = {
    "ingest": {"out", "fps", "input", "format", "canonical"},
    "detect": {"out", "fps", "input", "baselines", "warnings", "dims", "window_mean", "window_sd", "emit_trace"},
    "spectral": {"out", "fps", "input", "dims", "remove_mean", "scales"},
    "scenario": {"script", "clock", "out"},
    "srt": {"out", "log", "max_rt", "latency_budget", "records", "participant", "setting"},
    "stats": {"out", "records"},
    "synth pose": {
        "seed", "out", "fps", "duration", "warnings", "onset", "burst_sigma", "amplitude", "noise_sigma",
        "source_id", "format",
    },
    "synth srt": {"seed", "out", "cells", "rho"},
}


@pytest.mark.parametrize("command", sorted(OPTION_DESTS))
def test_subcommand_option_set(command):
    sub = _subcommand(build_parser(), command.split())
    assert {a.dest for a in sub._actions if a.option_strings} - {"help", "config"} == OPTION_DESTS[command]


# each subcommand's required options, less --out
REQUIRED_ARGV = {
    "ingest": ["--input", "p.csv"],
    "detect": ["--input", "p.csv", "--baselines", "b.csv", "--warnings", "25000"],
    "spectral": ["--input", "p.csv"],
    "scenario": ["--script", "V"],
    "srt": ["--log", "l.txt"],
    "stats": ["--records", "r.csv"],
    "synth srt": ["--seed", "1"],
}


@pytest.mark.parametrize(
    "command, flag",
    [pytest.param(c, f, id=f"{c} {f}") for c, f in [
        *((c, "--seed") for c in ("ingest", "detect", "spectral", "scenario", "srt", "stats")),
        *((c, "--fps") for c in ("srt", "stats", "synth srt")),
    ]],
)
def test_unread_flags_are_usage_errors(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli(*command.split(), *REQUIRED_ARGV[command], "--out", tmp_path / "o", flag, "4")
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 4" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["pose", "srt"])
def test_synth_seed_missing_from_flag_and_config(tmp_path, capsys, kind):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": str(tmp_path / "o")}))
    with pytest.raises(SystemExit) as exc:
        run_cli("--config", cfg, "synth", kind)
    assert exc.value.code == 2
    assert "required: --seed" in capsys.readouterr().err


def test_stats_bad_record_row_is_parse_error(tmp_path, capsys):
    srt_dir = tmp_path / "srt"
    run_cli("synth", "srt", "--seed", 3, "--out", srt_dir)
    records = srt_dir / "records.csv"
    n_lines = len(records.read_text().splitlines())
    with open(records, "a") as fh:
        fh.write("V1,VR-WT,HAV,SRT,-5.0\n")
    assert run_cli("stats", "--records", records, "--out", tmp_path / "st") == 1
    err = capsys.readouterr().err
    assert err.startswith("error [ParseError]: ")
    assert f"line {n_lines + 1}: {records}: bad record: rt_ms must be positive" in err


def test_stats_one_shared_participant_is_pairing_error(tmp_path, capsys):
    srt_dir = tmp_path / "srt"
    run_cli("synth", "srt", "--seed", 3, "--out", srt_dir)
    records = srt_dir / "records.csv"
    with open(records, "a") as fh:
        fh.write("V1,VisionE,HAV,Vision,400.0\nV1,VR-WT,HAV,SRT,420.0\n")
    assert run_cli("stats", "--records", records, "--out", tmp_path / "st") == 1
    err = capsys.readouterr().err
    assert err.startswith("error [PairingError]: ")
    assert "VisionE/HAV" in err and "VR-WT/HAV" in err and "'V1'" in err


@pytest.mark.parametrize("value", ["2:40", "2:40:16:1", "0:40:16", "40:2:16", "2:2:16", "2:40:0", "2:40:1.5",
                                   "2:nan:16", "2:inf:16", "a:b:c", ""])
@pytest.mark.parametrize("from_config", [False, True])
def test_spectral_bad_scales_are_usage_errors(tmp_path, capsys, value, from_config):
    argv = ["spectral", "--input", tmp_path / "p.csv", "--out", tmp_path / "o"]
    if from_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scales": value}))
        argv = ["--config", cfg, *argv]
    else:
        argv += ["--scales", value]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert "--scales" in capsys.readouterr().err


def test_spectral_scales_kept_as_written():
    args = build_parser().parse_args(["spectral", "--input", "p.csv", "--out", "o", "--scales", "2.0:30.0:32"])
    assert args.scales == "2.0:30.0:32"


@pytest.mark.parametrize(
    "script, match",
    [
        ({"name": "s", "triggers": [[1000, "V"]]}, "missing key 'duration_ms'"),
        ({"name": "s", "duration_ms": 5000, "triggers": [[1000, "Q"]]}, "unknown modality 'Q'"),
        ({"name": "s", "duration_ms": "long", "triggers": []}, "'long'"),
        ({"name": "s", "duration_ms": 5000, "triggers": [[500, "V"], [1000]]}, "trigger 1 [1000]: "),
    ],
)
def test_scenario_bad_script_is_parse_error(tmp_path, capsys, script, match):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(script))
    assert run_cli("scenario", "--script", path, "--out", tmp_path / "s.log") == 1
    err = capsys.readouterr().err
    assert err.startswith("error [ParseError]: ")
    assert str(path) in err and match in err
    assert not (tmp_path / "s.log").exists()


@pytest.mark.parametrize(
    "script, message",
    [
        ({"name": "s", "duration_ms": 5000, "triggers": [[-1000, "V"]]}, "s: trigger at -1000 ms is before the start"),
        ({"name": "s", "duration_ms": -5, "triggers": []}, "s: duration -5 ms is not above 0"),
    ],
)
def test_scenario_negative_trigger_or_duration_is_parse_error(tmp_path, capsys, script, message):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(script))
    assert run_cli("scenario", "--script", path, "--out", tmp_path / "s.log") == 1
    assert capsys.readouterr().err == f"error [ParseError]: {path}: {message}\n"
    assert not (tmp_path / "s.log").exists()


@pytest.mark.parametrize("value", [True, 1000.7, "5000", None, float("nan")])
@pytest.mark.parametrize("where", ["duration_ms", "trigger 1"])
def test_scenario_times_are_whole_json_numbers(tmp_path, capsys, where, value):
    # int() took true as 1 ms, cut 1000.7 to 1000 and read "5000"; each is a bad value, named where it is
    script = {"name": "s", "duration_ms": 50000, "triggers": [[1000, "V"], [2000.0, "AV"]]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(script))
    assert run_cli("scenario", "--script", path, "--out", tmp_path / "ok.log") == 0
    if where == "duration_ms":
        script["duration_ms"] = value
    else:
        script["triggers"][1][0] = value
    path.write_text(json.dumps(script))
    assert run_cli("scenario", "--script", path, "--out", tmp_path / "s.log") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [ParseError]: {path}: ")
    assert f"{where} " in err and f"{value!r} is not a whole number of ms" in err
    assert not (tmp_path / "s.log").exists()


@pytest.mark.parametrize("rt", ["nan", "inf", "-inf"])
def test_stats_non_finite_rt_is_parse_error(tmp_path, capsys, rt):
    srt_dir = tmp_path / "srt"
    run_cli("synth", "srt", "--seed", 3, "--out", srt_dir)
    records = srt_dir / "records.csv"
    n_lines = len(records.read_text().splitlines())
    with open(records, "a") as fh:
        fh.write(f"V1,VR-WT,HAV,SRT,{rt}\n")
    assert run_cli("stats", "--records", records, "--out", tmp_path / "st") == 1
    err = capsys.readouterr().err
    assert f"error [ParseError]: line {n_lines + 1}: {records}: bad record: rt_ms must be positive" in err
    assert not (tmp_path / "st").exists()


@pytest.mark.parametrize("flag", ["--amplitude", "--noise-sigma", "--onset", "--duration", "--burst-sigma"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_synth_pose_non_finite_parameter_is_spec_error(tmp_path, capsys, flag, value):
    assert run_cli("synth", "pose", "--seed", 1, "--out", tmp_path / "p", flag, value) == 1
    assert capsys.readouterr().err.startswith("error [SpecError]: ")
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("key", ["mean_ms", "sd_ms"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_synth_srt_non_finite_cell_is_bad_params(tmp_path, capsys, key, value):
    cell = {"setting": "VR-WT", "modality": "HAV", "mean_ms": 438.0, "sd_ms": 154.0, "n": 4, key: value}
    cells = tmp_path / "cells.json"
    cells.write_text(json.dumps({"cells": [cell]}))
    assert run_cli("synth", "srt", "--seed", 1, "--cells", cells, "--out", tmp_path / "d") == 1
    assert capsys.readouterr().err.startswith("error [BadParams]: bad cell parameters")
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("setting", ["Foo", "VisionE"])
def test_srt_setting_outside_srt_settings_is_usage_error(tmp_path, capsys, setting):
    with pytest.raises(SystemExit) as exc:
        run_cli("srt", "--log", tmp_path / "l.txt", "--out", tmp_path / "o", "--records", "--setting", setting)
    assert exc.value.code == 2
    assert "argument --setting: invalid choice" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_detect_directory_reads_every_pose_suffix(tmp_path):
    pose_dir, det_dir = tmp_path / "pose", tmp_path / "det"
    for sid, fmt in (("P3", "jsonl"), ("P2", "jsonl"), ("P1", "csv")):
        argv = ["--duration", 20000, "--warnings", 8000, "--amplitude", 4.0, "--format", fmt]
        assert run_cli("synth", "pose", "--seed", 5, "--out", pose_dir, "--source-id", sid, *argv) == 0
    (pose_dir / "P3.jsonl").rename(pose_dir / "P3.ndjson")
    baselines = tmp_path / "baselines.csv"
    baselines.write_text("participant,baseline_rt_ms\nP1,438\nP2,438\nP3,438\n")
    argv = ["--input", pose_dir, "--baselines", baselines, "--warnings", 8000, "--out", det_dir]
    assert run_cli("detect", *argv) == 0
    rows = (det_dir / "detection_summary.csv").read_text().splitlines()[1:]
    # .csv files first, then .jsonl, then .ndjson; each group sorted by name
    assert [row.split(",")[0] for row in rows] == ["P1", "P2", "P3"]
    assert rows[1].split(",")[1:] == rows[2].split(",")[1:]


def test_detect_directory_with_two_files_of_one_participant_fails(tmp_path, capsys):
    # S.csv and S.jsonl are both participant S: one report would overwrite the other
    pose_dir, det_dir = tmp_path / "pose", tmp_path / "det"
    for fmt in ("csv", "jsonl"):
        argv = ["--duration", 20000, "--warnings", 8000, "--format", fmt]
        assert run_cli("synth", "pose", "--seed", 5, "--out", pose_dir, "--source-id", "S", *argv) == 0
    baselines = tmp_path / "baselines.csv"
    baselines.write_text("participant,baseline_rt_ms\nS,438\n")
    argv = ["--input", pose_dir, "--baselines", baselines, "--warnings", 8000, "--out", det_dir]
    assert run_cli("detect", *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [PairingError]: {pose_dir / 'S.csv'} and {pose_dir / 'S.jsonl'} are both participant 'S'")
    assert not det_dir.exists()


def test_stats_unknown_modality_is_parse_error(tmp_path, capsys):
    srt_dir = tmp_path / "srt"
    run_cli("synth", "srt", "--seed", 3, "--out", srt_dir)
    records = srt_dir / "records.csv"
    n_lines = len(records.read_text().splitlines())
    with open(records, "a") as fh:
        fh.write("V1,VR-WT,hav,SRT,420.0\n")
    assert run_cli("stats", "--records", records, "--out", tmp_path / "st") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [ParseError]: line {n_lines + 1}: {records}: bad record: unknown modality 'hav'")
    assert not (tmp_path / "st").exists()


def test_srt_unknown_trigger_modality_is_parse_error(tmp_path, capsys):
    log = tmp_path / "log.txt"
    log.write_text("# woz-log v1\nTRIG 1 XX 10000 10000\nRESP 1 10500\n")
    assert run_cli("srt", "--log", log, "--out", tmp_path / "o", "--records") == 1
    assert capsys.readouterr().err.startswith("error [ParseError]: line 2: unknown modality 'XX'")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--latency-budget", "nan"), ("--latency-budget", "inf"), ("--latency-budget", "-5"),
     ("--latency-budget", "0"), ("--max-rt", "-1"), ("--max-rt", "0"), ("--max-rt", "400.5")],
)
@pytest.mark.parametrize("from_config", [False, True])
def test_srt_bad_numeric_flags_are_usage_errors(tmp_path, capsys, flag, value, from_config):
    log = tmp_path / "log.txt"
    log.write_text("# woz-log v1\nTRIG 1 V 10000 10000\nACK 1 10004\nRESP 1 10400\n")
    argv = ["srt", "--log", log, "--out", tmp_path / "o"]
    if from_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag[2:]: value}))
        argv = ["--config", cfg, *argv]
    else:
        argv += [flag, value]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


CELL = {"setting": "VR-WT", "modality": "HAV", "mean_ms": 438.0, "sd_ms": 154.0, "n": 4}


@pytest.mark.parametrize(
    "text, match",
    [
        ("{not json", "not a JSON file"),
        (json.dumps({"rho": 0.5}), "a list of cells"),
        (json.dumps({"cells": [CELL, {k: v for k, v in CELL.items() if k != "modality"}]}),
         "cell 1: missing key 'modality'"),
        (json.dumps({"cells": [{**CELL, "mean_ms": "abc"}]}), 'cell 0: mean_ms "abc" is not a number'),
        (json.dumps({"cells": [{**CELL, "n": 4.5}]}), "cell 0: n 4.5 is not a whole number"),
        (json.dumps({"cells": [{**CELL, "setting": "Lab"}]}), "cell 0: 'Lab' is not a valid Setting"),
        (json.dumps({"cells": [CELL, {**CELL, "modality": "XX"}]}), "cell 1: unknown modality 'XX'"),
        (json.dumps({"cells": [{**CELL, "setting": "VisionE", "modality": "V"}]}), "cell 0: VisionE cells are HAV"),
        (json.dumps({"rho": "abc", "cells": [CELL]}), 'rho "abc" is not a number'),
    ],
)
def test_synth_srt_bad_cells_file_is_parse_error(tmp_path, capsys, text, match):
    cells = tmp_path / "cells.json"
    cells.write_text(text)
    assert run_cli("synth", "srt", "--seed", 1, "--cells", cells, "--out", tmp_path / "d") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [ParseError]: {cells}: ") and match in err
    assert not (tmp_path / "d").exists()


def _short_pose_file(tmp_path, n_frames):
    coords = np.tile(np.linspace(0.1, 0.9, 33 * 3).reshape(33, 3), (n_frames, 1, 1))
    path = tmp_path / "P1.csv"
    write_pose_stream(make_stream(coords, source_id="P1"), path)
    return path


@pytest.mark.parametrize(
    "command, n_frames, match",
    [
        ("detect", 1, "P1: 1 frame(s); a velocity series needs at least 2"),
        ("spectral", 1, "P1: 1 frame(s); a velocity series needs at least 2"),
        ("spectral", 2, "P1: 1 velocity sample(s); a spectrum needs at least 2"),
    ],
)
def test_short_pose_stream_is_length_error(tmp_path, capsys, command, n_frames, match):
    argv = [command, "--input", _short_pose_file(tmp_path, n_frames), "--out", tmp_path / "o"]
    if command == "detect":
        baselines = tmp_path / "baselines.csv"
        baselines.write_text("participant,baseline_rt_ms\nP1,438\n")
        argv += ["--baselines", baselines, "--warnings", "25000"]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == f"error [LengthError]: {match}\n"


def test_ingest_of_one_frame_reports_no_spacing_and_warns_of_nothing(tmp_path):
    out = tmp_path / "ingest"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("ingest", "--input", _short_pose_file(tmp_path, 1), "--out", out) == 0
    assert '"frame_ms": null' in (out / "P1_validation.json").read_text()


@pytest.mark.parametrize("whole_ms", [False, True])
def test_ingest_reports_the_median_stamp_delta_and_spectral_spaces_by_it(tmp_path, whole_ms):
    run_cli("synth", "pose", "--seed", 1, "--out", tmp_path / "pose")
    path = tmp_path / "pose" / "synth.csv"
    if whole_ms:
        # stamps rounded to whole ms, as recorders often write them: deltas of 33 and 34 ms at 30 fps
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        rows = [[r[0], "%d" % round(float(r[1])), *r[2:]] for r in rows]
        path.write_text("".join(",".join(r) + "\n" for r in [header, *rows]))
    stamps = np.unique(np.loadtxt(path, delimiter=",", skiprows=1, usecols=1))
    assert run_cli("ingest", "--input", path, "--out", tmp_path / "ingest") == 0
    report = json.loads((tmp_path / "ingest" / "synth_validation.json").read_text())
    assert report["frame_ms"] == float(np.median(np.diff(stamps)))
    assert report["frame_ms"] == 33.0 or not whole_ms
    assert report["findings"] == []
    assert run_cli("spectral", "--input", path, "--out", tmp_path / "spec") == 0


@pytest.mark.parametrize("fps", [60, 15])
def test_detect_and_spectral_space_a_stamped_file_by_its_stamps_not_by_fps(tmp_path, fps):
    # --fps spaces synthesized timestamps only: without it, a stamped file's outputs equal those with its rate
    run_cli("synth", "pose", "--seed", 1, "--fps", fps, "--out", tmp_path / "pose")
    path = tmp_path / "pose" / "synth.csv"
    baselines = tmp_path / "baselines.csv"
    baselines.write_text("participant,baseline_rt_ms\nsynth,438\n")
    detect = ["--baselines", baselines, "--warnings", "25000,45000"]
    for command, argv in (("detect", detect), ("spectral", [])):
        outputs = []
        for flags in ([], ["--fps", fps]):
            out = tmp_path / f"{command}-{len(flags)}"
            assert run_cli(command, "--input", path, *argv, *flags, "--out", out) == 0
            # run_config.json echoes the flags
            outputs.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "run_config.json"})
        assert len(outputs[0]) == (2 if command == "detect" else 3)
        assert outputs[0] == outputs[1]


def test_detect_no_pose_files_is_empty_stream(tmp_path, capsys):
    baselines = tmp_path / "baselines.csv"
    baselines.write_text("participant,baseline_rt_ms\nP1,438\n")
    (tmp_path / "empty").mkdir()
    argv = ["--input", tmp_path / "empty", "--baselines", baselines, "--warnings", "25000", "--out", tmp_path / "o"]
    assert run_cli("detect", *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [EmptyStream]: no pose files under ") and str(tmp_path / "empty") in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["stats", "--records", "{d}/nope.csv"], "nope.csv"),
        (["srt", "--log", "{d}/nope.log"], "nope.log"),
        (["detect", "--input", "{d}/P1.csv", "--baselines", "{d}/nope.csv", "--warnings", "25000"], "nope.csv"),
        (["synth", "srt", "--seed", "1", "--cells", "{d}/nope.json"], "nope.json"),
    ],
    ids=["stats-records", "srt-log", "detect-baselines", "synth-srt-cells"],
)
def test_missing_input_file_is_parse_error(tmp_path, capsys, argv, missing):
    (tmp_path / "P1.csv").write_text("frame,id,x,y\n")
    argv = [a.format(d=tmp_path) for a in argv] + ["--out", tmp_path / "o"]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == f"error [ParseError]: no such file: {tmp_path / missing}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["stats", "--records", "{d}/adir"],
        ["srt", "--log", "{d}/adir"],
        ["spectral", "--input", "{d}/adir"],
        ["ingest", "--input", "{d}/adir"],
        ["detect", "--input", "{d}/P1.csv", "--baselines", "{d}/adir", "--warnings", "25000"],
        ["synth", "srt", "--seed", "1", "--cells", "{d}/adir"],
    ],
    ids=["stats-records", "srt-log", "spectral-input", "ingest-input", "detect-baselines", "synth-srt-cells"],
)
def test_directory_as_input_file_is_parse_error(tmp_path, capsys, argv):
    (tmp_path / "adir").mkdir()
    (tmp_path / "P1.csv").write_text("frame,id,x,y\n")
    argv = [a.format(d=tmp_path) for a in argv] + ["--out", tmp_path / "o"]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == f"error [ParseError]: is a directory: {tmp_path / 'adir'}\n"

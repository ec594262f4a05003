import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_stream
from rtkit.errors import EmptyStream, ParseError, SchemaError
from rtkit.pose import (
    _READ_BLOCK,
    _WRITE_BLOCK,
    parse_pose_stream,
    select_upper_body,
    validate_stream,
    write_pose_stream,
)
from rtkit.synth import NoiseSpec, gen_pose_stream


def write_csv(path, frames, header="frame,timestamp_ms,id,x,y,z,visibility"):
    lines = [header]
    for fno, ts, landmarks in frames:
        for lid, x, y, z, v in landmarks:
            lines.append(f"{fno},{ts},{lid},{x},{y},{z},{v}")
    path.write_text("\n".join(lines) + "\n")


def simple_frames(n_frames, n_landmarks=33):
    return [
        (i, i * 33.25, [(j, 0.1 * j, 0.2, 0.0, 1.0) for j in range(n_landmarks)])
        for i in range(n_frames)
    ]


def test_parse_minimal_csv(tmp_path):
    path = tmp_path / "p.csv"
    write_csv(path, simple_frames(3))
    stream = parse_pose_stream(path)
    assert stream.n_frames == 3
    assert stream.n_landmarks == 33
    assert stream.source_id == "p"
    assert not stream.timestamps_synthesized


def test_parse_wrong_landmark_count(tmp_path):
    path = tmp_path / "bad.csv"
    frames = simple_frames(2)
    frames[1] = (1, 33.25, frames[1][2][:32])
    write_csv(path, frames)
    with pytest.raises(SchemaError, match="frame 1"):
        parse_pose_stream(path)


def test_parse_bad_row_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    write_csv(path, simple_frames(1))
    with open(path, "a") as fh:
        fh.write("1,33.25,zero,0.1,0.2,0.0,1.0\n")
    with pytest.raises(ParseError, match="line 35"):
        parse_pose_stream(path)


def test_parse_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    for body in ("", "\n", "\n  \n,,,\n", "\r\n\r\n", "\r\r", "\n \r\n,,,\r\t"):
        path.write_bytes(("frame,timestamp_ms,id,x,y,z,visibility" + body).encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyStream, match="no frames"):
                parse_pose_stream(path)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_parse_zero_byte_file_is_empty_stream(tmp_path, fmt):
    # a CSV without even a header line sized its arrays for -1 frames: numpy's ValueError escaped
    path = tmp_path / f"empty.{fmt}"
    path.write_bytes(b"")
    with pytest.raises(EmptyStream) as info:
        parse_pose_stream(path)
    assert str(info.value) == f"{path}: no frames"


def test_parse_rows_in_any_id_order(tmp_path):
    path = tmp_path / "rev.csv"
    frames = [(fno, ts, lms[::-1]) for fno, ts, lms in simple_frames(2)]
    write_csv(path, frames)
    stream = parse_pose_stream(path)
    assert list(stream.landmark_ids) == list(range(33))
    assert np.allclose(stream.coords[:, :, 0], 0.1 * np.arange(33))


def test_parse_duplicate_landmark_ids(tmp_path):
    path = tmp_path / "dup.csv"
    frames = simple_frames(2)
    frames[0][2][32] = (31, 0.0, 0.0, 0.0, 1.0)
    write_csv(path, frames)
    with pytest.raises(SchemaError, match="frame 0: duplicate landmark ids"):
        parse_pose_stream(path)


def test_parse_landmark_ids_differ_between_frames(tmp_path):
    path = tmp_path / "ids.csv"
    frames = simple_frames(2)
    frames[1] = (1, 33.25, [(j + 1, 0.0, 0.0, 0.0, 1.0) for j in range(33)])
    write_csv(path, frames)
    with pytest.raises(SchemaError, match=r"^frame 1: landmark id 33 is outside 0\.\.32 \(frame starts on line 35\)$"):
        parse_pose_stream(path)


@pytest.mark.parametrize("fmt, line", [("csv", 2), ("jsonl", 1)])
def test_parse_landmark_ids_outside_full_body(tmp_path, fmt, line):
    # 33 distinct ids, the same set in every frame, none of them a body landmark
    path = tmp_path / f"ids.{fmt}"
    if fmt == "csv":
        write_csv(path, [(fno, ts, [(j + 100, *rest) for j, *rest in lms]) for fno, ts, lms in simple_frames(3)])
    else:
        frames = [jsonl_frame(i) for i in range(3)]
        for lm in (lm for f in frames for lm in f["landmarks"]):
            lm["id"] += 100
        path.write_text("".join(json.dumps(f) + "\n" for f in frames))
    match = rf"frame 0: landmark id 100 is outside 0\.\.32 \(frame starts on line {line}\)"
    with pytest.raises(SchemaError, match=match):
        parse_pose_stream(path)


def write_jsonl(path, frames):
    objs = [
        {"frame": f, "timestamp_ms": t, "landmarks": [dict(zip(("id", "x", "y", "z", "v"), r)) for r in lms]}
        for f, t, lms in frames
    ]
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
# frame k in the first read block, at its end, in the second
@pytest.mark.parametrize("k", [1, _READ_BLOCK - 1, _READ_BLOCK + 3])
@pytest.mark.parametrize("shift, outside", [(1, 33), (-1, -1)])
def test_parse_ids_outside_full_body_after_the_first_frame(tmp_path, fmt, k, shift, outside):
    # frame k holds 33 distinct ids, 32 of them body landmarks: the one outside 0..32 is named with the frame's line
    frames = simple_frames(2 * _READ_BLOCK)
    fno, ts, rows = frames[k]
    frames[k] = (fno, ts, [(j + shift, *rest) for j, *rest in rows])
    path = tmp_path / f"ids.{fmt}"
    (write_csv if fmt == "csv" else write_jsonl)(path, frames)
    line = 2 + 33 * k if fmt == "csv" else k + 1
    with pytest.raises(SchemaError) as info:
        parse_pose_stream(path)
    assert str(info.value) == f"frame {k}: landmark id {outside} is outside 0..32 (frame starts on line {line})"


def test_parse_frame_number_returns(tmp_path):
    path = tmp_path / "back.csv"
    frames = simple_frames(3)
    frames[2] = (0, 66.5, frames[2][2])
    write_csv(path, frames)
    with pytest.raises(SchemaError, match="not strictly increasing at frame 0"):
        parse_pose_stream(path)


def test_parse_error_line_counts_blank_lines(tmp_path):
    path = tmp_path / "blank.csv"
    rows = [f"0,0.0,{j},0.1,0.2,0.0,1.0" for j in range(33)]
    lines = ["frame,timestamp_ms,id,x,y,z,visibility", ""] + rows + ["", "   ", "1,33.25,zero,0.1,0.2,0.0,1.0"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="line 38"):
        parse_pose_stream(path)
    # one blank line of each kind before the bad row, with each line end
    for end in ("\n", "\r\n", "\r"):
        for blank in ("", "   ", ",,,,,,"):
            path.write_bytes(end.join(lines[:1] + rows + [blank, lines[-1]]).encode())
            with pytest.raises(ParseError) as info:
                parse_pose_stream(path)
            assert type(info.value) is ParseError and info.value.line == 36
            assert str(info.value) == "line 36: bad row: invalid literal for int() with base 10: 'zero'"


def edge_case_body(frames):
    """CSV rows of ``frames`` frames with known values: x = frame + id/100, y = -id, z = 0.5, visibility = 0.25."""
    return [f"{i},{i * 33.25!r},{j},{i + j / 100!r},{-j},0.5,0.25" for i in range(frames) for j in range(33)]


def edge_case_arrays(frames):
    ids = np.arange(33)
    x = np.arange(frames)[:, None] + ids / 100
    return np.arange(frames) * 33.25, np.stack([x, np.broadcast_to(-ids, x.shape), np.full(x.shape, 0.5)], axis=2)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("trailing", [True, False])
@pytest.mark.parametrize("blank", [None, "", "   ", ",,,,,,", " \t, ,"])
def test_parse_csv_line_ends_and_blank_lines(tmp_path, end, trailing, blank):
    # blank lines before, inside and after the body; every line end style; with and without a final line end
    body = edge_case_body(3)
    lines = ["frame,timestamp_ms,id,x,y,z,visibility", *body]
    if blank is not None:
        lines = lines[:1] + [blank] + lines[1:40] + [blank, blank] + lines[40:] + [blank]
    path = tmp_path / "edge.csv"
    path.write_bytes((end.join(lines) + (end if trailing else "")).encode())
    stream = parse_pose_stream(path)
    ts, coords = edge_case_arrays(3)
    assert stream.frame_index.tolist() == [0, 1, 2]
    assert np.array_equal(stream.timestamps_ms, ts)
    assert np.array_equal(stream.coords, coords)
    assert np.array_equal(stream.visibility, np.full((3, 33), 0.25))


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("blank", [None, ""])
def test_parse_csv_names_the_line_of_a_frame(tmp_path, end, blank):
    # frame 1 has 32 landmarks; with a blank line in front of it, it starts one line later
    body = edge_case_body(2)
    del body[40]
    lines = ["frame,timestamp_ms,id,x,y,z,visibility", *body[:33], *([] if blank is None else [blank]), *body[33:]]
    path = tmp_path / "short.csv"
    path.write_bytes(end.join(lines).encode())
    line = 35 if blank is None else 36
    with pytest.raises(SchemaError) as info:
        parse_pose_stream(path)
    assert type(info.value) is SchemaError
    assert str(info.value) == f"frame 1: expected 33 landmarks, got 32 (frame starts on line {line})"


@pytest.mark.parametrize("bad_row", ["1.5,33.25,0,0.1,0.2,0.0,1.0", "1,33.25,0,0.1"])
def test_parse_bad_frame_or_short_row(tmp_path, bad_row):
    path = tmp_path / "bad.csv"
    write_csv(path, simple_frames(1))
    with open(path, "a") as fh:
        fh.write(bad_row + "\n")
    with pytest.raises(ParseError, match="line 35"):
        parse_pose_stream(path)


@pytest.mark.parametrize("row, fields", [("1", 1), ("1,33.25,0,0.1", 4), ("1,33.25,0,0.1,0.2,0.0", 6)])
def test_parse_short_row_names_its_fields_and_the_headers(tmp_path, row, fields):
    path = tmp_path / "short.csv"
    write_csv(path, simple_frames(1))
    with open(path, "a") as fh:
        fh.write(row + "\n")
    with pytest.raises(ParseError) as info:
        parse_pose_stream(path)
    assert str(info.value) == f"line 35: bad row: {fields} field(s), the header has 7"


def test_parse_row_with_more_fields_than_the_header_is_a_bad_row(tmp_path):
    # line 6 of a CRLF file, with ",9,9" before its line end
    lines = block_edge_lines(2)
    lines[5] += ",9,9"
    path = tmp_path / "long.csv"
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    with pytest.raises(ParseError) as info:
        parse_pose_stream(path)
    assert str(info.value) == "line 6: bad row: 9 field(s), the header has 7"


def test_parse_row_without_an_unread_column_is_a_bad_row(tmp_path):
    # the header's extra "presence" column is not read, but every row must have it
    lines = [block_edge_lines(2)[0] + ",presence", *(line + ",yes" for line in edge_case_body(2))]
    path = tmp_path / "presence.csv"
    path.write_text("\n".join(lines) + "\n")
    ts, coords = edge_case_arrays(2)
    stream = parse_pose_stream(path)
    assert np.array_equal(stream.timestamps_ms, ts) and np.array_equal(stream.coords, coords)
    lines[40] = lines[40].rsplit(",", 1)[0]
    assert parse_error(path, lines, ParseError) == "line 41: bad row: 7 field(s), the header has 8"


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_parse_bad_last_field_is_quoted_without_the_line_end(tmp_path, end):
    lines = block_edge_lines(2)
    lines[1] = lines[1].rsplit(",", 1)[0] + ",x"  # line 2's visibility
    path = tmp_path / "bad.csv"
    path.write_bytes((end.join(lines) + end).encode())
    with pytest.raises(ParseError) as info:
        parse_pose_stream(path)
    assert str(info.value) == "line 2: bad row: could not convert string to float: 'x'"


@pytest.mark.parametrize("column", [2, 3])  # id and x
def test_parse_names_the_line_of_a_value_only_loadtxt_rejects(tmp_path, column):
    # int() and float() accept digits grouped with "_"; np.loadtxt does not
    body = edge_case_body(2)
    fields = body[39].split(",")
    fields[column] = "1_0"
    body[39] = ",".join(fields)
    path = tmp_path / "underscore.csv"
    path.write_text("\n".join(["frame,timestamp_ms,id,x,y,z,visibility", *body]) + "\n")
    with pytest.raises(ParseError) as info:
        parse_pose_stream(path)
    assert info.value.line == 41
    assert str(info.value).startswith("line 41: bad row: could not convert string '1_0'")


def test_parse_skips_comma_only_lines(tmp_path):
    path = tmp_path / "commas.csv"
    write_csv(path, simple_frames(2))
    lines = path.read_text().splitlines()
    lines.insert(34, ",,,,,,")
    path.write_text("\n".join(lines) + "\n")
    assert parse_pose_stream(path).n_frames == 2


def test_parse_csv_without_z_and_visibility(tmp_path):
    path = tmp_path / "xy.csv"
    lines = ["frame,timestamp_ms,id,x,y"]
    for i in range(2):
        lines += [f"{i},{i * 33.25},{j},0.5,0.25" for j in range(33)]
    path.write_text("\n".join(lines) + "\n")
    stream = parse_pose_stream(path)
    assert not stream.has_z
    assert np.all(stream.coords[:, :, 2] == 0.0)
    assert np.all(stream.visibility == 1.0)


def jsonl_frame(fno, n_landmarks=33):
    return {
        "frame": fno,
        "timestamp_ms": fno * 33.25,
        "landmarks": [{"id": j, "x": 0.1 * j, "y": 0.2, "z": 0.0, "v": 1.0} for j in range(n_landmarks)],
    }


def test_parse_jsonl_bad_json_and_missing_x(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps(jsonl_frame(0))
    path.write_text(good + "\n\n{not json\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_pose_stream(path)
    obj = jsonl_frame(1)
    del obj["landmarks"][5]["x"]
    path.write_text(good + "\n" + json.dumps(obj) + "\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_pose_stream(path)


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("frame", 1.7, "frame 1.7 is not an integer"),
        ("frame", float("nan"), "frame nan is not an integer"),
        ("id", 4.5, "landmark id 4.5 is not an integer"),
        ("id", float("inf"), "landmark id inf is not an integer"),
    ],
)
def test_parse_jsonl_non_integral_frame_or_id(tmp_path, field, value, match):
    path = tmp_path / "frac.jsonl"
    frames = [jsonl_frame(i) for i in range(3)]
    if field == "frame":
        frames[1]["frame"] = value
    else:
        frames[1]["landmarks"][4]["id"] = value
    path.write_text("".join(json.dumps(f) + "\n" for f in frames))
    with pytest.raises(ParseError, match=f"line 2: {match}"):
        parse_pose_stream(path)


@pytest.mark.parametrize("value", ["1", "nan", True, False, None])
@pytest.mark.parametrize("key", ["frame", "timestamp_ms", "id", "x", "y", "z", "v"])
def test_parse_jsonl_values_must_be_numbers(tmp_path, key, value):
    # float() would take "1", "nan" and true; a JSON string, true, false or null is named instead
    frames = [jsonl_frame(i) for i in range(3)]
    if key in ("frame", "timestamp_ms"):
        frames[1][key] = value
    else:
        frames[1]["landmarks"][6][key] = value
    path = tmp_path / "strings.jsonl"
    path.write_text("".join(json.dumps(f) + "\n" for f in frames))
    with pytest.raises(ParseError) as info:
        parse_pose_stream(path)
    assert info.value.line == 2
    assert str(info.value) == f'line 2: "{key}": {json.dumps(value)} is not a number'


def test_parse_jsonl_reports_the_earliest_timestamp_fault(tmp_path):
    # every frame has a timestamp or none has: frame 40 without one is a fault, reported after frame 2's NaN
    frames = [jsonl_frame(i) for i in range(2 * _READ_BLOCK)]
    frames[2]["timestamp_ms"] = float("nan")
    del frames[40]["timestamp_ms"]
    path = tmp_path / "stamps.jsonl"
    path.write_text("".join(json.dumps(f) + "\n" for f in frames))
    with pytest.raises(SchemaError, match="^frame 2: timestamp_ms nan on line 3 is not finite$"):
        parse_pose_stream(path)
    frames[2]["timestamp_ms"] = 2 * 33.25
    path.write_text("".join(json.dumps(f) + "\n" for f in frames))
    with pytest.raises(SchemaError, match="^frame 40: timestamp_ms missing on line 41, unlike the first frame$"):
        parse_pose_stream(path)


def test_parse_jsonl_integral_float_frame(tmp_path):
    path = tmp_path / "whole.jsonl"
    frames = [jsonl_frame(i) for i in range(2)]
    frames[1]["frame"] = 1.0
    path.write_text("".join(json.dumps(f) + "\n" for f in frames))
    stream = parse_pose_stream(path)
    assert stream.frame_index.tolist() == [0, 1]
    assert stream.frame_index.dtype == np.int64


def test_parse_csv_frame_rows_with_different_timestamps(tmp_path):
    path = tmp_path / "ts_rows.csv"
    write_csv(path, simple_frames(3))
    lines = path.read_text().splitlines()
    # frame 1 spans lines 35-67; stamp its rows after the first 500 ms later
    lines[35:67] = [line.replace(",33.25,", ",533.25,", 1) for line in lines[35:67]]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match=r"frame 1: timestamp_ms 533\.25 on line 36"):
        parse_pose_stream(path)


@pytest.mark.parametrize("fmt, line", [("csv", 68), ("jsonl", 3)])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_parse_non_finite_timestamp(tmp_path, fmt, line, value):
    # frame 2 of 5 starts on line 68 of the CSV (after the header and 2 x 33 rows)
    path = tmp_path / f"nan_ts.{fmt}"
    if fmt == "csv":
        frames = simple_frames(5)
        frames[2] = (2, value, frames[2][2])
        write_csv(path, frames)
    else:
        frames = [jsonl_frame(i) for i in range(5)]
        frames[2]["timestamp_ms"] = value
        path.write_text("".join(json.dumps(f) + "\n" for f in frames))
    with pytest.raises(SchemaError, match=f"frame 2: timestamp_ms {value!r} on line {line} is not finite"):
        parse_pose_stream(path)


def test_parse_jsonl_landmark_without_z(tmp_path):
    path = tmp_path / "noz.jsonl"
    frames = [jsonl_frame(0), jsonl_frame(1)]
    del frames[1]["landmarks"][7]["z"]
    path.write_text("".join(json.dumps(f) + "\n" for f in frames))
    stream = parse_pose_stream(path)
    assert not stream.has_z
    assert stream.n_frames == 2


def test_parse_missing_file():
    with pytest.raises(ParseError):
        parse_pose_stream("/nonexistent/nowhere.csv")


def test_parse_synthesizes_missing_timestamps(tmp_path):
    path = tmp_path / "nots.csv"
    lines = ["frame,id,x,y,z,visibility"]
    for i in range(4):
        lines += [f"{i},{j},0.0,0.0,0.0,1.0" for j in range(33)]
    path.write_text("\n".join(lines) + "\n")
    stream = parse_pose_stream(path, nominal_fps=30.0)
    assert stream.timestamps_synthesized
    assert np.allclose(stream.timestamps_ms, np.arange(4) * 1000.0 / 30.0)
    kinds = {f.kind for f in validate_stream(stream).findings}
    assert "synthesized_timestamps" in kinds


def test_synthesized_and_recorded_timestamps_are_not_equal(tmp_path):
    path = tmp_path / "nots.csv"
    lines = ["frame,id,x,y,z,visibility"] + [f"{i},{j},0.5,0.2,0.0,1.0" for i in range(4) for j in range(33)]
    path.write_text("\n".join(lines) + "\n")
    synthesized = parse_pose_stream(path, nominal_fps=30.0)
    recorded = dataclasses.replace(synthesized, timestamps_synthesized=False)
    assert synthesized.timestamps_synthesized
    assert np.array_equal(recorded.timestamps_ms, synthesized.timestamps_ms)
    assert recorded != synthesized and synthesized != recorded
    assert recorded == dataclasses.replace(recorded)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_written_copy_of_synthesized_timestamps_reads_back_synthesized(tmp_path, fmt):
    # the writer leaves the synthesized stamps out, so the copy is read at the nominal fps as the original was
    path = tmp_path / "nots.csv"
    lines = ["frame,id,x,y,z,visibility"] + [f"{i},{j},{i + j / 100},0.2,0.0,1.0" for i in range(60) for j in range(33)]
    path.write_text("\n".join(lines) + "\n")
    stream = parse_pose_stream(path, nominal_fps=25.0)
    copy = tmp_path / "copy" / f"nots.{fmt}"
    copy.parent.mkdir()
    write_pose_stream(stream, copy)
    assert "timestamp_ms" not in copy.read_text()
    back = parse_pose_stream(copy, nominal_fps=25.0)
    assert back.timestamps_synthesized and back == stream
    assert [f.kind for f in validate_stream(back).findings] == ["synthesized_timestamps"]


def test_parse_nonmonotonic_timestamps(tmp_path):
    path = tmp_path / "ts.csv"
    frames = simple_frames(3)
    frames[2] = (2, 10.0, frames[2][2])
    write_csv(path, frames)
    with pytest.raises(SchemaError, match="timestamps"):
        parse_pose_stream(path)


def test_sixty_second_recording_roundtrip(tmp_path):
    # 60 s at 30 fps: 1800 frames, last timestamp ~59966.7 ms
    stream, _ = gen_pose_stream(60000, 30.0, [], [], NoiseSpec(0.001), seed=11, source_id="s60")
    assert stream.n_frames == 1800
    assert stream.timestamps_ms[0] == 0.0
    assert abs(stream.timestamps_ms[-1] - 59966.7) < 0.05
    for fmt in ("csv", "jsonl"):
        path = tmp_path / f"s60.{fmt}"
        write_pose_stream(stream, path, format=fmt)
        back = parse_pose_stream(path, format=fmt)
        assert back == stream


@settings(max_examples=20, deadline=None)
@given(
    n_frames=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
    fmt=st.sampled_from(["csv", "jsonl"]),
)
def test_roundtrip_property(tmp_path_factory, n_frames, seed, fmt):
    rng = np.random.default_rng(seed)
    stream = make_stream(rng.normal(size=(n_frames, 33, 3)))
    path = tmp_path_factory.mktemp("rt") / f"test.{fmt}"
    write_pose_stream(stream, path, format=fmt)
    assert parse_pose_stream(path, format=fmt) == stream


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_roundtrip_non_finite_values(tmp_path, fmt):
    coords = np.zeros((2, 33, 3))
    coords[1, 3] = (np.nan, np.inf, -np.inf)
    stream = make_stream(coords)
    path = tmp_path / f"s.{fmt}"
    write_pose_stream(stream, path, format=fmt)
    back = parse_pose_stream(path, format=fmt)
    assert np.array_equal(back.coords, stream.coords, equal_nan=True)


def reference_csv(stream):
    """The CSV writer's output, one ``%`` per landmark row."""
    axes = 3 if stream.has_z else 2
    names = ["frame", "timestamp_ms", "id", "x", "y", "z", "visibility"]
    out = [",".join(names if stream.has_z else names[:5] + names[6:]) + "\r\n"]
    row = "%d,%r,%d" + ",%r" * (axes + 1) + "\r\n"
    coords, visibility = stream.coords.astype(float).tolist(), stream.visibility.astype(float).tolist()
    for f, t, frame_xyz, frame_v in zip(stream.frame_index.tolist(), stream.timestamps_ms.tolist(), coords, visibility):
        for j, (xyz, v) in enumerate(zip(frame_xyz, frame_v)):
            out.append(row % (f, t, j, *xyz[:axes], v))
    return "".join(out).encode()


def reference_jsonl(stream):
    """The JSONL writer's output, one ``json.dumps`` per frame object."""
    axes = "xyz" if stream.has_z else "xy"
    coords, visibility = stream.coords.astype(float).tolist(), stream.visibility.astype(float).tolist()
    out = []
    for f, t, frame_xyz, frame_v in zip(stream.frame_index.tolist(), stream.timestamps_ms.tolist(), coords, visibility):
        landmarks = [{"id": j, **dict(zip(axes, xyz)), "v": v} for j, (xyz, v) in enumerate(zip(frame_xyz, frame_v))]
        out.append(json.dumps({"frame": f, "timestamp_ms": t, "landmarks": landmarks}) + "\n")
    return "".join(out).encode()


def odd_value_streams():
    """Streams whose spelling the writers must get right, each 300 frames (not a whole number of blocks)."""
    rng = np.random.default_rng(4)
    coords = rng.normal(size=(300, 33, 3)) * 10.0 ** rng.integers(-12, 12, size=(300, 33, 3))
    coords[5, :4] = [[np.nan, np.inf, -np.inf], [-0.0, 0.0, 1e-310], [1e300, -1e-5, 0.1], [123456789.0, 2.0**60, -3.0]]
    ts = np.arange(300) * (1000.0 / 30.0)
    ts[7] = -0.0
    ts[8:] += 1e9
    visibility = rng.uniform(size=(300, 33))
    visibility[9, :3] = (np.nan, -np.inf, -0.0)
    base = make_stream(coords, timestamps=ts, visibility=visibility)
    yield "odd floats", base
    yield "broadcast visibility", dataclasses.replace(base, visibility=np.broadcast_to(np.float32(0.75), (300, 33)))
    yield "integer coords", dataclasses.replace(base, coords=rng.integers(-(2**40), 2**40, size=(300, 33, 3)))
    yield "upper body view", select_upper_body(base)
    yield "no z", dataclasses.replace(base, coords=np.where(np.arange(3) == 2, 0.0, coords), has_z=False)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_writer_matches_per_row_reference(tmp_path, fmt):
    reference = reference_csv if fmt == "csv" else reference_jsonl
    for name, stream in odd_value_streams():
        path = tmp_path / f"{name}.{fmt}"
        write_pose_stream(stream, path)
        assert path.read_bytes() == reference(stream), name
        for n in (1, _WRITE_BLOCK, _WRITE_BLOCK + 1):
            head = dataclasses.replace(
                stream,
                frame_index=stream.frame_index[:n],
                timestamps_ms=stream.timestamps_ms[:n],
                coords=stream.coords[:n],
                visibility=stream.visibility[:n],
            )
            write_pose_stream(head, path)
            assert path.read_bytes() == reference(head), (name, n)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_write_memory_does_not_grow_with_the_stream(tmp_path, fmt):
    # a 60 s, 30 fps write peaks under half the arrays it writes, and a 120 s write within 5% of that
    peaks, nbytes = {}, {}
    for seconds in (60, 120):
        stream, _ = gen_pose_stream(seconds * 1000.0, 30.0, [], [], NoiseSpec(0.004), seed=11, source_id="s")
        nbytes[seconds] = sum(a.nbytes for a in (stream.frame_index, stream.timestamps_ms, stream.coords, stream.visibility))
        tracemalloc.start()
        try:
            write_pose_stream(stream, tmp_path / f"s{seconds}.{fmt}")
            peaks[seconds] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[60] < nbytes[60] / 2, f"peak {peaks[60] / 1e6:.2f} MB for {nbytes[60] / 1e6:.2f} MB of arrays"
    assert peaks[120] <= 1.05 * peaks[60], f"peaks {peaks[60] / 1e6:.2f} MB (60 s), {peaks[120] / 1e6:.2f} MB (120 s)"


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_two_dimensional_stream_roundtrips(tmp_path, fmt):
    coords = np.random.default_rng(6).normal(size=(4, 33, 3))
    coords[:, :, 2] = 0.0
    stream = dataclasses.replace(make_stream(coords), has_z=False)
    path = tmp_path / f"test.{fmt}"
    write_pose_stream(stream, path)
    assert '"z"' not in path.read_text() and ",z," not in path.read_text()
    back = parse_pose_stream(path)
    assert not back.has_z
    assert back == stream


@pytest.mark.parametrize("kind", ["csv", "jsonl", "blank lines"])
def test_parse_memory_is_bounded_by_the_arrays(tmp_path, kind):
    # the parser's peak allocation is the arrays it returns plus under 0.5 MB, at 60 s and at 120 s
    for seconds in (60, 120):
        stream, _ = gen_pose_stream(seconds * 1000.0, 30.0, [], [], NoiseSpec(0.004), seed=11, source_id="s")
        path = tmp_path / f"s.{'jsonl' if kind == 'jsonl' else 'csv'}"
        write_pose_stream(stream, path)
        if kind == "blank lines":
            lines = path.read_bytes().split(b"\r\n")
            for at in (5000, 1000, _READ_BLOCK * 33 + 1, 5):
                lines.insert(at, b"")
            path.write_bytes(b"\r\n".join(lines))
        tracemalloc.start()
        try:
            back = parse_pose_stream(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back == stream
        nbytes = sum(a.nbytes for a in (back.frame_index, back.timestamps_ms, back.coords, back.visibility))
        assert peak - nbytes < 0.5e6, f"{seconds} s: peak {peak / 1e6:.2f} MB for {nbytes / 1e6:.2f} MB of arrays"


def block_edge_lines(frames):
    """The header and body lines of a CSV of ``frames`` frames (edge_case_body values); line i + 1 is lines[i]."""
    return ["frame,timestamp_ms,id,x,y,z,visibility", *edge_case_body(frames)]


def parse_error(path, lines, kind):
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(kind) as info:
        parse_pose_stream(path)
    assert type(info.value) is kind
    return str(info.value)


def test_parse_errors_at_block_edges(tmp_path):
    # each file has one fault, placed by the read block: the messages name the lines and frames
    path, edge = tmp_path / "edge.csv", _READ_BLOCK * 33 + 1  # the last line of the first block
    n = 2 * _READ_BLOCK + 2
    lines = block_edge_lines(n)
    # a bad value on the first line of the second block
    bad = lines[:edge] + ["32,1064.0,zero,0.1,0.2,0.0,1.0"] + lines[edge + 1 :]
    assert parse_error(path, bad, ParseError) == f"line {edge + 1}: bad row: invalid literal for int() with base 10: 'zero'"
    # a frame one row short whose last row is the first line of the second block (two blank lines in front)
    k = _READ_BLOCK - 1
    i = 1 + 33 * k  # frame k's first row is lines[i], on line i + 1
    short = lines[:1] + ["", ""] + lines[1 : i + 10] + lines[i + 11 :]
    assert short[edge].startswith(f"{k},") and short[edge + 1].startswith(f"{k + 1},")
    message = f"frame {k}: expected 33 landmarks, got 32 (frame starts on line {i + 3})"
    assert parse_error(path, short, SchemaError) == message
    # frame k + 1 numbered k: one frame of 66 rows across the edge
    relabel = [row.replace(f"{k + 1},{(k + 1) * 33.25!r},", f"{k},{k * 33.25!r},", 1) for row in lines[i + 33 : i + 66]]
    message = f"frame {k}: expected 33 landmarks, got 66 (frame starts on line {i + 1})"
    assert parse_error(path, lines[: i + 33] + relabel + lines[i + 66 :], SchemaError) == message
    # a blank line ends the first block and one ended by a lone \r starts the second: both count as lines,
    # and the stream reads as without them
    def with_blanks(body):
        path.write_bytes(("\n".join(body[: edge - 1]) + "\n\n\r" + "\n".join(body[edge - 1 :]) + "\n").encode())

    with_blanks(lines)
    ts, coords = edge_case_arrays(n)
    stream = parse_pose_stream(path)
    assert np.array_equal(stream.timestamps_ms, ts) and np.array_equal(stream.coords, coords)
    with_blanks(lines[: edge + 3] + [lines[edge + 3].replace(",0.5,", ",zero,")] + lines[edge + 4 :])
    with pytest.raises(ParseError) as info:
        parse_pose_stream(path)
    assert info.value.line == edge + 6  # lines[edge + 3], two lines down


@pytest.mark.parametrize("at", [40, _READ_BLOCK * 33 + 2])  # inside the first block; the second block's first line
def test_parse_csv_quoted_value_is_a_bad_row(tmp_path, at):
    # CSV has no quoting: a quoted number is a bad row, named by its line
    lines = block_edge_lines(2 * _READ_BLOCK + 2)
    fields = lines[at - 1].split(",")
    fields[3] = f'"{fields[3]}"'
    lines[at - 1] = ",".join(fields)
    message = parse_error(tmp_path / "quoted.csv", lines, ParseError)
    assert message.startswith(f"line {at}: bad row: could not convert string to float: '\"")


# inside the first read block, its last line, the second block's first line
BLANK_AT = [40, _READ_BLOCK * 33 + 1, _READ_BLOCK * 33 + 2]


@pytest.mark.parametrize("at", BLANK_AT)
@pytest.mark.parametrize("blank", [",,,", "\u00a0", "\u001f", "\u3000", " ,\u3000,\u00a0\u001f,"])
def test_parse_csv_lines_of_commas_and_any_whitespace_are_blank(tmp_path, at, blank):
    # U+00A0, U+001F and U+3000 are whitespace to str.isspace (U+3000 is the last such character)
    n = 2 * _READ_BLOCK + 2
    lines = block_edge_lines(n)
    path = tmp_path / "blank.csv"
    path.write_text("\n".join(lines[: at - 1] + [blank] + lines[at - 1 :]) + "\n", encoding="utf-8")
    stream = parse_pose_stream(path)
    ts, coords = edge_case_arrays(n)
    assert stream.frame_index.tolist() == list(range(n))
    assert np.array_equal(stream.timestamps_ms, ts) and np.array_equal(stream.coords, coords)


@pytest.mark.parametrize("at", BLANK_AT)
def test_parse_csv_line_of_a_character_past_u3000_is_a_bad_row(tmp_path, at):
    # U+3001 (ideographic comma) is not whitespace: its line is a bad row, named by its line
    lines = block_edge_lines(2 * _READ_BLOCK + 2)
    message = parse_error(tmp_path / "bad.csv", lines[: at - 1] + ["\u3001"] + lines[at - 1 :], ParseError)
    assert message == f"line {at}: bad row: invalid literal for int() with base 10: '\u3001'"


def gather_case(n, shuffled):
    """``n`` frames (frame, timestamp, rows of id, x, y, z, v) whose frame ``shuffled`` has its rows out of id
    order, and the frame numbers, timestamps, coordinates and visibility they parse to."""
    ts, coords = edge_case_arrays(n)
    rows = [[(j, *xyz, 0.25) for j, xyz in enumerate(frame)] for frame in coords.tolist()]
    rows[shuffled] = [rows[shuffled][j] for j in np.random.default_rng(5).permutation(33)]
    frames = list(zip(range(n), ts.tolist(), rows))
    return frames, (np.arange(n, dtype=np.int64), ts, coords, np.full((n, 33), 0.25))


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_parse_gathers_a_shuffled_frame_in_a_later_block(tmp_path, fmt):
    # three read blocks and a bit; the first frame is in id order, frame 70 (third block) is not
    frames, expected = gather_case(3 * _READ_BLOCK + 5, 70)
    path = tmp_path / f"gather.{fmt}"
    if fmt == "csv":
        write_csv(path, frames)
    else:
        objs = [
            {"frame": i, "timestamp_ms": t, "landmarks": [dict(zip(("id", "x", "y", "z", "v"), r)) for r in rows]}
            for i, t, rows in frames
        ]
        path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
    stream = parse_pose_stream(path)
    got = (stream.frame_index, stream.timestamps_ms, stream.coords, stream.visibility)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape and a.flags.c_contiguous
        assert a.tobytes() == b.tobytes()


def test_parse_reports_the_earliest_of_several_faults(tmp_path):
    # frame 1 is one row short, and a later line holds a bad value: the frame comes first in the file
    lines = block_edge_lines(2 * _READ_BLOCK)
    del lines[40]
    lines[-5] = lines[-5].replace(",0.5,", ",zero,")
    message = "frame 1: expected 33 landmarks, got 32 (frame starts on line 35)"
    assert parse_error(tmp_path / "two.csv", lines, SchemaError) == message
    # in JSONL, a duplicate id in frame 3 comes before a fractional frame number on line 40
    frames = [jsonl_frame(i) for i in range(2 * _READ_BLOCK)]
    frames[3]["landmarks"][4]["id"] = 5
    frames[39]["frame"] = 39.5
    path = tmp_path / "two.jsonl"
    path.write_text("".join(json.dumps(f) + "\n" for f in frames))
    with pytest.raises(SchemaError, match="^frame 3: duplicate landmark ids$"):
        parse_pose_stream(path)


# a frame's checks in their documented order; each test case puts two adjacent kinds into one frame
FRAME_FAULTS = ["count", "duplicate", "frame order", "non-finite timestamp", "timestamp order", "foreign id"]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("k", [1, _READ_BLOCK - 1, _READ_BLOCK])  # inside the first block, on its edge
@pytest.mark.parametrize("first, second", zip(FRAME_FAULTS, FRAME_FAULTS[1:]))
def test_parse_reports_a_frames_faults_in_check_order(tmp_path, fmt, k, first, second):
    frames = simple_frames(2 * _READ_BLOCK + 2)
    fno, ts, rows = frames[k]
    rows = list(rows)
    for kind in (first, second):
        if kind == "count":
            del rows[32]
        elif kind == "duplicate":
            rows[5] = (6, *rows[5][1:])
        elif kind == "frame order":
            fno = k - 2
        elif kind == "non-finite timestamp":
            ts = float("-inf")  # also not above the frame before
        elif kind == "timestamp order":
            ts = min(ts, frames[k - 1][1])
        else:
            rows[32] = (40, *rows[32][1:])
    frames[k] = (fno, ts, rows)
    line = 2 + 33 * k if fmt == "csv" else k + 1
    message = {
        "count": f"frame {fno}: expected 33 landmarks, got 32 (frame starts on line {line})",
        "duplicate": f"frame {fno}: duplicate landmark ids",
        "frame order": f"frame index not strictly increasing at frame {fno}",
        "non-finite timestamp": f"frame {fno}: timestamp_ms {ts!r} on line {line} is not finite",
        "timestamp order": f"timestamps not strictly increasing at frame {fno}",
        "foreign id": f"frame {fno}: landmark id 40 is outside 0..32 (frame starts on line {line})",
    }[first]
    path = tmp_path / f"two.{fmt}"
    if fmt == "csv":
        write_csv(path, frames)
    else:
        objs = [
            {"frame": f, "timestamp_ms": t, "landmarks": [dict(zip(("id", "x", "y", "z", "v"), r)) for r in lms]}
            for f, t, lms in frames
        ]
        path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
    with pytest.raises(SchemaError) as info:
        parse_pose_stream(path)
    assert str(info.value) == message


def test_select_upper_body_keeps_25():
    stream = make_stream(np.random.default_rng(0).normal(size=(5, 33, 3)))
    upper = select_upper_body(stream)
    assert upper.n_landmarks == 25
    assert list(upper.landmark_ids) == list(range(25))
    assert np.array_equal(upper.timestamps_ms, stream.timestamps_ms)
    assert np.array_equal(upper.coords, stream.coords[:, :25])


def test_select_upper_body_shares_the_stream_arrays():
    stream = make_stream(np.random.default_rng(2).normal(size=(4, 33, 3)))
    upper = select_upper_body(stream)
    assert np.shares_memory(upper.coords, stream.coords)
    assert np.shares_memory(upper.visibility, stream.visibility)
    assert upper.frame_index is stream.frame_index and upper.timestamps_ms is stream.timestamps_ms


def test_select_upper_body_idempotent():
    stream = make_stream(np.random.default_rng(1).normal(size=(4, 33, 3)))
    once = select_upper_body(stream)
    assert select_upper_body(once) == once


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_lower_body_perturbation_invariance(seed):
    rng = np.random.default_rng(seed)
    coords = rng.normal(size=(6, 33, 3))
    stream = make_stream(coords)
    fuzzed = coords.copy()
    fuzzed[:, 25:, :] = rng.normal(size=(6, 8, 3)) * 100.0
    assert select_upper_body(make_stream(fuzzed)) == select_upper_body(stream)


def test_validate_clean_stream(static_stream):
    assert validate_stream(static_stream).ok


def test_validate_reports_gap():
    ts = np.arange(10) * (1000.0 / 30.0)
    ts[5:] += 1000.0 / 30.0  # one dropped frame before index 5
    stream = make_stream(np.zeros((10, 33, 3)), timestamps=ts)
    findings = [f for f in validate_stream(stream).findings if f.kind == "gap"]
    assert len(findings) == 1
    assert findings[0].frame_index == 5


def test_validate_reports_nan_timestamp():
    ts = np.arange(5) * (1000.0 / 30.0)
    ts[2] = np.nan
    stream = make_stream(np.zeros((5, 33, 3)), timestamps=ts)
    findings = validate_stream(stream).findings
    assert [(f.kind, f.frame_index) for f in findings] == [("timestamp", 2), ("timestamp", 3)]


def test_validate_reports_visibility_range():
    vis = np.ones((3, 33))
    vis[1, 7] = 1.2
    stream = make_stream(np.zeros((3, 33, 3)), visibility=vis)
    findings = [f for f in validate_stream(stream).findings if f.kind == "range"]
    assert len(findings) == 1
    assert findings[0].frame_index == 1
    assert findings[0].landmark_id == 7


def test_validate_reports_non_finite_visibility():
    # NaN compares false with both bounds; a value is spelled as a float, not as numpy's repr
    vis = np.ones((3, 33))
    vis[1, 7], vis[2, 3] = np.nan, np.inf
    stream = make_stream(np.zeros((3, 33, 3)), visibility=vis)
    findings = [(f.frame_index, f.landmark_id, f.detail) for f in validate_stream(stream).findings if f.kind == "range"]
    assert findings == [(1, 7, "visibility nan outside [0, 1]"), (2, 3, "visibility inf outside [0, 1]")]


def test_ndjson_suffix_is_jsonl(tmp_path):
    stream, _ = gen_pose_stream(1000, 30.0, [], [], NoiseSpec(0.01), seed=3, source_id="s")
    write_pose_stream(stream, tmp_path / "s.ndjson")
    write_pose_stream(stream, tmp_path / "s.jsonl")
    assert (tmp_path / "s.ndjson").read_bytes() == (tmp_path / "s.jsonl").read_bytes()
    assert parse_pose_stream(tmp_path / "s.ndjson") == stream

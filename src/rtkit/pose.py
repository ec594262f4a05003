"""Pose-landmark stream ingestion: parsing, writing, validation, upper-body filtering.

A stream is held column-wise in numpy arrays, from the parsed file to the
detector. Each file format is read into one table of landmark rows, split
into frames and checked as whole arrays; there is no per-frame or
per-landmark object.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import warnings
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyStream, ParseError, SchemaError

# the BlazePose/MediaPipe skeleton: column j of a stream is landmark id j
N_LANDMARKS = 33
UPPER_BODY = 25  # ids 0..24, the first columns

# pose-file suffix -> format; any other suffix is read and written as CSV
POSE_SUFFIXES = {".csv": "csv", ".jsonl": "jsonl", ".ndjson": "jsonl"}

# a frame-to-frame delta further than 50% from nominal is a gap/anomaly
GAP_TOLERANCE = 0.5


def off_nominal(deltas_ms: np.ndarray, nominal_ms: float) -> np.ndarray:
    """True where a frame-to-frame delta is more than GAP_TOLERANCE off nominal, or not a number."""
    return ~(np.abs(deltas_ms - nominal_ms) <= GAP_TOLERANCE * nominal_ms)


@dataclass
class PoseStream:
    """Ordered pose frames for one participant/session.

    ``coords`` has shape (n_frames, n_landmarks, 3); ``visibility``
    (n_frames, n_landmarks). Column j holds landmark id j. The arrays may
    be read-only views (the upper-body filter slices them, the generator
    broadcasts one visibility value); nothing in rtkit writes into them.
    """

    source_id: str
    nominal_fps: float
    frame_index: np.ndarray
    timestamps_ms: np.ndarray
    coords: np.ndarray
    visibility: np.ndarray
    has_z: bool = True
    timestamps_synthesized: bool = False

    def __post_init__(self):
        if len(self.frame_index) == 0:
            raise EmptyStream(f"{self.source_id}: stream has no frames")
        n, L = self.coords.shape[:2]
        if self.visibility.shape != (n, L):
            raise SchemaError(f"{self.source_id}: inconsistent array shapes")

    @property
    def n_frames(self) -> int:
        return len(self.frame_index)

    @property
    def n_landmarks(self) -> int:
        return self.coords.shape[1]

    @property
    def landmark_ids(self) -> np.ndarray:
        return np.arange(self.n_landmarks)

    @property
    def frame_ms(self) -> float:
        return 1000.0 / self.nominal_fps

    def __eq__(self, other) -> bool:
        if not isinstance(other, PoseStream):
            return NotImplemented
        return (
            self.source_id == other.source_id
            and self.nominal_fps == other.nominal_fps
            and self.has_z == other.has_z
            and np.array_equal(self.frame_index, other.frame_index)
            and np.array_equal(self.timestamps_ms, other.timestamps_ms)
            and np.array_equal(self.coords, other.coords)
            and np.array_equal(self.visibility, other.visibility)
        )


# ---------------------------------------------------------------------------
# parsing / writing
# ---------------------------------------------------------------------------

_CSV_REQUIRED = ("frame", "id", "x", "y")
# every CSV column the parser reads, in row order, with its type
_CSV_TYPES = {"frame": int, "timestamp_ms": float, "id": int, "x": float, "y": float, "z": float, "visibility": float}
# a CSV line of only commas and whitespace (what str.strip removes; U+3000 is the last) is blank
_BLANK = "," + "".join(filter(str.isspace, map(chr, range(0x3001))))
# frames formatted per write call: the writer's temporaries stay near 0.6 MB for any stream length
_WRITE_BLOCK = 32


def parse_pose_stream(
    path: str | Path,
    format: str | None = None,
    nominal_fps: float = 30.0,
) -> PoseStream:
    """Parse a pose file into a validated PoseStream named after the file's stem.

    ``format`` is "csv" or "jsonl"; inferred from the suffix when omitted.
    Each frame must hold exactly 33 distinct landmark ids from 0..32, in any
    order (they are sorted by id), and every frame the same id set; frame
    numbers and timestamps must be finite and increase strictly. Raises
    ParseError (bad row, with line number), SchemaError (landmark count /
    ids / order / timestamps), EmptyStream.
    Missing timestamps are synthesized from ``nominal_fps`` and flagged on
    the stream.
    """
    path = Path(path)
    if not path.exists():
        raise ParseError(f"no such file: {path}")
    read = _read_csv if _format(path, format) == "csv" else _read_jsonl
    frame_no, ts, starts, frame_line, rows, has_z = read(path)
    n, L = len(frame_no), N_LANDMARKS
    counts = np.diff(starts, append=len(rows))
    _reject(
        counts != L,
        lambda k: f"frame {frame_no[k]}: expected {L} landmarks, got {counts[k]} (frame starts on line {frame_line[k]})",
    )
    rows = rows.reshape(n, L, 5)
    order = np.argsort(rows[:, :, 0], axis=1)
    ids = np.take_along_axis(rows[:, :, 0], order, axis=1)
    _reject((np.diff(ids, axis=1) == 0).any(axis=1), lambda k: f"frame {frame_no[k]}: duplicate landmark ids")
    _reject(np.diff(frame_no) <= 0, lambda k: f"frame index not strictly increasing at frame {frame_no[k + 1]}")
    if ts is not None:
        _reject(
            ~np.isfinite(ts),
            lambda k: f"frame {frame_no[k]}: timestamp_ms {float(ts[k])!r} on line {frame_line[k]} is not finite",
        )
        _reject(np.diff(ts) <= 0, lambda k: f"timestamps not strictly increasing at frame {frame_no[k + 1]}")
    _reject((ids != ids[0]).any(axis=1), lambda k: f"frame {frame_no[k]}: landmark ids differ from first frame")
    # every frame now holds the first frame's ids
    _reject(
        (ids[0] < 0) | (ids[0] >= L),
        lambda j: f"frame {frame_no[0]}: landmark id {int(ids[0, j])} is outside 0..{L - 1}"
        f" (frame starts on line {frame_line[0]})",
    )

    return PoseStream(
        source_id=path.stem,
        nominal_fps=nominal_fps,
        frame_index=frame_no,
        timestamps_ms=frame_no * (1000.0 / nominal_fps) if ts is None else ts,
        coords=np.take_along_axis(rows[:, :, 1:4], order[:, :, None], axis=1),
        visibility=np.take_along_axis(rows[:, :, 4], order, axis=1),
        has_z=has_z,
        timestamps_synthesized=ts is None,
    )


def _format(path: Path, format: str | None) -> str:
    """``format``, or the one POSE_SUFFIXES gives ``path``'s suffix; ValueError for an unknown format."""
    format = POSE_SUFFIXES.get(path.suffix, "csv") if format is None else format
    if format not in ("csv", "jsonl"):
        raise ValueError(f"unknown format {format!r}")
    return format


def _reject(bad: np.ndarray, message) -> None:
    """Raise SchemaError with ``message(k)`` for the first index k where ``bad`` holds."""
    hits = np.flatnonzero(bad)
    if hits.size:
        raise SchemaError(message(int(hits[0])))


# Both readers return: frame numbers, timestamps (None when absent), first
# row and first line of each frame, rows of id/x/y/z/visibility, has_z.
# Neither keeps a Python object per line or row: the CSV body goes from the
# open file into one structured array, the JSONL values into one float
# buffer. Only a CSV with blank lines or a bad row is read as a list of
# lines, to number them as the file does.


def _read_csv(path: Path):
    n_lines = _count_lines(path)
    with open(path, encoding="utf-8") as fh:
        names, usecols = _csv_columns(path, fh.readline())
        table = None
        if n_lines > 1:
            try:
                with warnings.catch_warnings():
                    # a body of empty lines only: the line-list read below raises EmptyStream
                    warnings.simplefilter("ignore", UserWarning)
                    table = _loadtxt(fh, names, usecols)
            except ValueError:
                pass
    if table is None or len(table) != n_lines - 1:
        # skipped lines, a bad row or a quoted line end: the line-list read names the lines
        return _read_csv_lines(path, names, usecols)
    # each body line holds one row: row r sits on line r + 2
    return _csv_arrays(table, names, lambda r: r + 2)


def _count_lines(path: Path) -> int:
    """Lines in ``path`` as text mode reads them: ends are ``\\n``, ``\\r\\n`` or a lone ``\\r``."""
    n, last = 0, None
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            byte = np.frombuffer(chunk, np.uint8)
            lf, cr = byte == 10, byte == 13
            n += np.count_nonzero(lf) + np.count_nonzero(cr) - np.count_nonzero(cr[:-1] & lf[1:])
            n -= last == 13 and lf[0]  # a \r\n split between chunks
            last = byte[-1]
    return int(n) + (last not in (None, 10, 13))  # a last line without a line end


def _csv_columns(path: Path, header_line: str) -> tuple[list[str], list[int]]:
    """The parsed column names, in row order, and their indices in ``header_line``."""
    if not header_line:
        raise EmptyStream(f"{path}: no frames")
    header = [h.strip() for h in next(csv.reader([header_line]))]
    for name in _CSV_REQUIRED:
        if name not in header:
            raise ParseError(f"missing column {name!r} in header", line=1)
    names = [name for name in _CSV_TYPES if name in header]
    return names, [header.index(name) for name in names]


def _loadtxt(lines, names: list[str], usecols: list[int]) -> np.ndarray:
    dtype = [(name, _CSV_TYPES[name]) for name in names]
    return np.loadtxt(lines, dtype, delimiter=",", quotechar='"', comments=None, usecols=usecols, ndmin=1)


def _read_csv_lines(path: Path, names: list[str], usecols: list[int]):
    """The CSV body as a list of lines, less the blank ones; a bad row is named by its line."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    kept = np.array([i for i in range(1, len(lines)) if lines[i].strip(_BLANK)], dtype=np.int64)
    if not kept.size:
        raise EmptyStream(f"{path}: no frames")
    try:
        table = _loadtxt([lines[i] for i in kept], names, usecols)
    except ValueError as exc:
        # the bulk read failed: find the first line int()/float() reject to name it
        for i in kept.tolist():
            raw = next(csv.reader(lines[i : i + 1]))
            try:
                for name, j in zip(names, usecols):
                    _CSV_TYPES[name](raw[j])
            except (ValueError, IndexError) as bad:
                raise ParseError(f"bad row: {bad}", line=i + 1) from bad
        # a value int()/float() accept but loadtxt does not, such as 1_0: the first line loadtxt rejects alone
        for i in kept.tolist():
            try:
                _loadtxt(lines[i : i + 1], names, usecols)
            except ValueError as bad:
                raise ParseError(f"bad row: {bad}", line=i + 1) from bad
        raise ParseError(f"bad row: {exc}") from exc
    return _csv_arrays(table, names, lambda r: kept[r] + 1)


def _csv_arrays(table: np.ndarray, names: list[str], line):
    """The reader's arrays from the parsed CSV ``table``; ``line(r)`` is the line of row r (r may be an array)."""
    frame = table["frame"]
    starts = np.flatnonzero(np.r_[True, frame[1:] != frame[:-1]])
    rows = np.empty((len(table), 5))
    rows[:, 0] = table["id"]
    rows[:, 1] = table["x"]
    rows[:, 2] = table["y"]
    rows[:, 3] = table["z"] if "z" in names else 0.0
    rows[:, 4] = table["visibility"] if "visibility" in names else 1.0
    ts = None
    if "timestamp_ms" in names:
        row_ts = table["timestamp_ms"]
        ts = row_ts[starts]
        first = np.repeat(ts, np.diff(starts, append=len(table)))
        _reject(
            (row_ts != first) & ~(np.isnan(row_ts) & np.isnan(first)),
            lambda r: f"frame {frame[r]}: timestamp_ms {float(row_ts[r])!r} on line {line(r)}"
            f" differs from the frame's first row ({float(first[r])!r})",
        )
    return frame[starts], ts, starts, line(starts), rows, "z" in names


def _read_jsonl(path: Path):
    frame_no, ts, starts, frame_lines, values = array("d"), array("d"), array("q"), array("q"), array("d")
    has_z = True
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"bad JSON: {exc.msg}", line=line_no) from exc
            try:
                frame_no.append(float(obj["frame"]))
                if "timestamp_ms" in obj:
                    ts.append(float(obj["timestamp_ms"]))
                landmarks = obj["landmarks"]
                has_z = has_z and all("z" in lm for lm in landmarks)
                starts.append(len(values) // 5)
                values.fromlist(
                    [
                        value
                        for lm in landmarks
                        for value in (float(lm["id"]), float(lm["x"]), float(lm["y"]),
                                      float(lm.get("z", 0.0)), float(lm.get("v", 1.0)))
                    ]
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"bad frame object: {exc}", line=line_no) from exc
            frame_lines.append(line_no)
    if not frame_no:
        raise EmptyStream(f"{path}: no frames")
    # a timestamp is kept only when every frame has one
    ts = np.frombuffer(ts) if len(ts) == len(frame_no) else None
    starts, frame_lines = np.frombuffer(starts, np.int64), np.frombuffer(frame_lines, np.int64)
    rows = np.frombuffer(values).reshape(-1, 5)
    # JSON numbers were read as floats: a frame or id with a fraction is rejected, not truncated
    frame_no = _integers(np.frombuffer(frame_no), "frame", lambda k: frame_lines[k])
    _integers(rows[:, 0], "landmark id", lambda r: frame_lines[np.searchsorted(starts, r, "right") - 1])
    return frame_no, ts, starts, frame_lines, rows, has_z


def _integers(values: np.ndarray, what: str, line) -> np.ndarray:
    """``values`` as int64; ParseError at ``line(k)`` for the first k that is not a whole number."""
    hits = np.flatnonzero(~(np.isfinite(values) & (values == np.floor(values))))
    if hits.size:
        k = int(hits[0])
        raise ParseError(f"{what} {float(values[k])!r} is not an integer", line=int(line(k)))
    return values.astype(np.int64)


def write_pose_stream(stream: PoseStream, path: str | Path, format: str | None = None) -> None:
    """Write a stream back out; round-trips exactly through parse_pose_stream.

    Floats are written as ``repr`` (CSV, with ``\\r\\n`` line ends) or as
    ``json.dumps`` spells them (JSONL), so every value reads back unchanged.
    A stream without z (``has_z`` false) is written without the z column
    or key. Frames are formatted _WRITE_BLOCK at a time: each block's
    floats are spelled by one ``repr``/``json.dumps`` of a list.
    """
    path = Path(path)
    format = _format(path, format)
    L = stream.n_landmarks
    axes = "xyz" if stream.has_z else "xy"
    with open(path, "w", newline="" if format == "csv" else None, encoding="utf-8") as fh:
        if format == "csv":
            fh.write(",".join(name for name in _CSV_TYPES if name != "z" or stream.has_z) + "\r\n")
            # one frame's rows: its "frame,timestamp_ms," head, the id, then x, y[, z] and visibility
            template = "".join(f"%s{j}" + ",%s" * (len(axes) + 1) + "\r\n" for j in range(L))
        else:
            landmark = '{"id": %d' + "".join(f', "{a}": %%s' for a in axes) + ', "v": %%s}'
            template = '{"frame": %%d, "timestamp_ms": %%s, "landmarks": [%s]}\n' % ", ".join(
                landmark % j for j in range(L)
            )
        block = _csv_block if format == "csv" else _jsonl_block
        for lo in range(0, stream.n_frames, _WRITE_BLOCK):
            fh.write(block(stream, slice(lo, lo + _WRITE_BLOCK), template))


def _block_values(stream: PoseStream, frames: slice, lead: int = 0) -> np.ndarray:
    """One row of floats per frame: ``lead`` free columns, then each landmark's x, y[, z] and visibility."""
    d = 3 if stream.has_z else 2
    coords = stream.coords[frames]
    n, L = coords.shape[:2]
    values = np.empty((n, lead + L * (d + 1)))
    landmarks = values[:, lead:].reshape(n, L, d + 1)
    landmarks[:, :, :d] = coords[:, :, :d]
    landmarks[:, :, d] = stream.visibility[frames]
    return values


def _csv_block(stream: PoseStream, frames: slice, template: str) -> str:
    values = _block_values(stream, frames)
    cells = repr(values.ravel().tolist())[1:-1].split(", ")
    ts = np.asarray(stream.timestamps_ms[frames], dtype=float)
    heads = ["%d,%r," % ft for ft in zip(stream.frame_index[frames].tolist(), ts.tolist())]
    L = stream.n_landmarks
    k = values.shape[1] // L  # cells per row
    args = [None] * (len(cells) + len(heads) * L)
    args[:: k + 1] = [head for head in heads for _ in range(L)]
    for c in range(k):
        args[c + 1 :: k + 1] = cells[c::k]
    return (template * len(heads)) % tuple(args)


def _jsonl_block(stream: PoseStream, frames: slice, template: str) -> str:
    values = _block_values(stream, frames, lead=1)
    values[:, 0] = stream.timestamps_ms[frames]
    spelled = json.dumps(values.ravel().tolist())[1:-1].split(", ")
    w = values.shape[1]
    return "".join(
        template % (f, *spelled[i * w : (i + 1) * w]) for i, f in enumerate(stream.frame_index[frames].tolist())
    )


# ---------------------------------------------------------------------------
# filtering / validation
# ---------------------------------------------------------------------------


def select_upper_body(stream: PoseStream) -> PoseStream:
    """The first UPPER_BODY columns (landmarks 0..24); idempotent.

    The result shares the caller's arrays (its coords and visibility are
    views); nothing in the toolkit writes into a stream's arrays.
    """
    return dataclasses.replace(
        stream, coords=stream.coords[:, :UPPER_BODY], visibility=stream.visibility[:, :UPPER_BODY]
    )


@dataclass(frozen=True)
class Finding:
    kind: str  # gap | timestamp | range | synthesized_timestamps
    frame_index: int
    detail: str
    landmark_id: int | None = None


@dataclass
class ValidationReport:
    source_id: str
    findings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


def validate_stream(stream: PoseStream) -> ValidationReport:
    """Report frame gaps, timestamp anomalies and out-of-range values.

    The stream is never modified; gaps are reported, not interpolated.
    """
    nominal = stream.frame_ms
    deltas = np.diff(stream.timestamps_ms)
    frame, vis = stream.frame_index, stream.visibility
    findings = [
        Finding(
            "gap" if deltas[i] > nominal else "timestamp",
            int(frame[i + 1]),
            f"delta {deltas[i]:.3f} ms vs nominal {nominal:.3f} ms before frame {int(frame[i + 1])}",
        )
        for i in np.flatnonzero(off_nominal(deltas, nominal))
    ]
    findings += [
        Finding("range", int(frame[i]), f"visibility {vis[i, j]!r} outside [0, 1]", landmark_id=int(j))
        for i, j in np.argwhere((vis < 0.0) | (vis > 1.0))
    ]
    findings += [
        Finding("range", int(frame[i]), "non-finite coordinate", landmark_id=int(j))
        for i, j in np.argwhere(~np.isfinite(stream.coords).all(axis=2))
    ]
    if stream.timestamps_synthesized:
        findings.append(Finding("synthesized_timestamps", int(frame[0]), "timestamps synthesized from nominal fps"))
    return ValidationReport(stream.source_id, findings)

"""Pose-landmark stream ingestion: parsing, writing, validation, upper-body filtering.

A stream is held column-wise in numpy arrays, from the parsed file to the
detector. A file is read a block of frames at a time straight into the
stream's arrays, its frames checked in file order; there is no per-frame
or per-landmark object.
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from array import array
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import EmptyStream, ParseError, SchemaError

# the BlazePose/MediaPipe skeleton: column j of a stream is landmark id j
N_LANDMARKS = 33
UPPER_BODY = 25  # ids 0..24, the first columns

# pose-file suffix -> format; any other suffix is read and written as CSV
POSE_SUFFIXES = {".csv": "csv", ".jsonl": "jsonl", ".ndjson": "jsonl"}

# a frame-to-frame delta further than 50% from the stream's frame spacing is a gap/anomaly
GAP_TOLERANCE = 0.5


def off_nominal(deltas_ms: np.ndarray, nominal_ms: float) -> np.ndarray:
    """True where a frame-to-frame delta is more than GAP_TOLERANCE off ``nominal_ms``, or not a number."""
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
        """The median timestamp delta, NaN deltas left out; NaN, with no warning, when none is left (one frame)."""
        deltas = np.diff(self.timestamps_ms)
        deltas = deltas[~np.isnan(deltas)]
        return float(np.median(deltas)) if deltas.size else math.nan

    def __eq__(self, other) -> bool:
        if not isinstance(other, PoseStream):
            return NotImplemented
        return (
            self.source_id == other.source_id
            and self.has_z == other.has_z
            and self.timestamps_synthesized == other.timestamps_synthesized
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
# frames parsed per read block and formatted per write call: the reader's temporaries stay
# near 0.3 MB and the writer's near 0.6 MB for any stream length
_READ_BLOCK = 32
_WRITE_BLOCK = 32
# a frame's ids, sorted
_IDS = np.arange(N_LANDMARKS)
# the types of a JSON number (a JSON true or false is a bool, which is not one)
_NUMBER = (int, float)


def parse_pose_stream(
    path: str | Path,
    format: str | None = None,
    nominal_fps: float = 30.0,
) -> PoseStream:
    """Parse a pose file into a validated PoseStream named after the file's stem.

    ``format`` is "csv" or "jsonl"; inferred from the suffix when omitted.
    Each frame must hold the 33 landmark ids 0..32, each once, in any order
    (they are sorted by id); frame numbers and timestamps must be finite and
    increase strictly. CSV fields are split on commas, with no quoting; a
    line of only commas and whitespace is blank. Raises ParseError (bad row,
    with line number), SchemaError (landmark count / ids / order /
    timestamps), EmptyStream. The file is read _READ_BLOCK frames at a time
    and its frames are checked in file order, so a file with several faults
    reports the earliest. Every frame has a timestamp or none has, as the
    CSV header or the first JSONL frame sets; without them, timestamps are
    synthesized from ``nominal_fps``, which sets nothing else, and flagged.
    """
    path = Path(path)
    if not path.exists():
        raise ParseError(f"no such file: {path}")
    csv, n_lines = _format(path, format) == "csv", _count_lines(path)
    frames = _Frames(max(n_lines - 1, 0) // N_LANDMARKS if csv else n_lines)
    with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
        # numpy warns of a CSV block that reads as no rows: one of blank lines only
        warnings.simplefilter("ignore", UserWarning)
        for has_z, *block in _csv_blocks(fh, path) if csv else _jsonl_blocks(fh):
            frames.add(*block)
    frame_no, ts, coords, visibility = frames.arrays(path)
    return PoseStream(
        source_id=path.stem,
        frame_index=frame_no,
        timestamps_ms=frame_no * (1000.0 / nominal_fps) if ts is None else ts,
        coords=coords,
        visibility=visibility,
        has_z=has_z,
        timestamps_synthesized=ts is None,
    )


def _format(path: Path, format: str | None) -> str:
    """``format``, or the one POSE_SUFFIXES gives ``path``'s suffix; ValueError for an unknown format."""
    format = POSE_SUFFIXES.get(path.suffix, "csv") if format is None else format
    if format not in ("csv", "jsonl"):
        raise ValueError(f"unknown format {format!r}")
    return format


class _Frames:
    """A stream's arrays, allocated for ``capacity`` frames and filled with whole frames, a block at a time.

    ``add`` checks each frame of a block in file order, against the frame
    before it, and raises at the first fault: in order, the landmark count,
    duplicate ids, the frame number's order, a non-finite timestamp, the
    timestamps' order and an id outside 0..32. A block without a fault is
    stored, each frame's rows in id order. Timestamps are stored if the
    first frames added have them.
    """

    def __init__(self, capacity: int):
        L = N_LANDMARKS
        self.frame_index = np.empty(capacity, np.int64)
        self.timestamps_ms = None
        self.coords = np.empty((capacity, L, 3))
        self.visibility = np.empty((capacity, L))
        self.n = 0

    def add(self, frame_no, ts, line, counts, ids, values) -> None:
        """Check and store whole frames.

        Per frame: its number (int64), timestamp (``ts`` is None without them),
        first line and row count; per row: the id, then x, y, z and visibility
        (an array, or one value for every row).
        """
        L, n, m = N_LANDMARKS, self.n, len(frame_no)
        if not m:
            return
        # the frames before a short one fill whole rows of L ids; the loop stops at the short one
        ids = np.asarray(ids[: len(ids) // L * L], dtype=float).reshape(-1, L)
        order = np.argsort(ids, axis=1)
        ids = np.take_along_axis(ids, order, axis=1)
        duplicate = (np.diff(ids, axis=1) == 0).any(axis=1).tolist()
        # 33 distinct whole-number ids are 0..32 unless one lies outside that range
        foreign = (ids != _IDS).any(axis=1).tolist()
        last_no = self.frame_index[n - 1] if n else -math.inf
        last_ts = self.timestamps_ms[n - 1] if n and ts is not None else -math.inf
        stamps = None if ts is None else ts.tolist()
        for k, (f, count, at) in enumerate(zip(frame_no.tolist(), counts.tolist(), line.tolist())):
            if count != L:
                raise SchemaError(f"frame {f}: expected {L} landmarks, got {count} (frame starts on line {at})")
            if duplicate[k]:
                raise SchemaError(f"frame {f}: duplicate landmark ids")
            if f <= last_no:
                raise SchemaError(f"frame index not strictly increasing at frame {f}")
            if stamps is not None:
                if not math.isfinite(t := stamps[k]):
                    raise SchemaError(f"frame {f}: timestamp_ms {t!r} on line {at} is not finite")
                if t <= last_ts:
                    raise SchemaError(f"timestamps not strictly increasing at frame {f}")
                last_ts = t
            if foreign[k]:
                outside = ids[k][(ids[k] < 0) | (ids[k] >= L)]
                raise SchemaError(
                    f"frame {f}: landmark id {int(outside[0])} is outside 0..{L - 1} (frame starts on line {at})"
                )
            last_no = f
        self.frame_index[n : n + m] = frame_no
        if ts is not None:
            if self.timestamps_ms is None:
                self.timestamps_ms = np.empty(len(self.frame_index))
            self.timestamps_ms[n : n + m] = ts
        dest = [self.coords[n : n + m, :, c] for c in range(3)] + [self.visibility[n : n + m]]
        for d, v in zip(dest, values):
            d[...] = v if np.ndim(v) == 0 else np.take_along_axis(v.reshape(m, L), order, axis=1)
        self.n += m

    def arrays(self, path: Path):
        """Frame numbers, timestamps (None without them), coordinates and visibility of the stored frames."""
        if not self.n:
            raise EmptyStream(f"{path}: no frames")
        arrays = (self.frame_index, self.timestamps_ms, self.coords, self.visibility)
        for a in arrays:
            if a is not None and len(a) > self.n:
                a.resize((self.n, *a.shape[1:]), refcheck=False)  # in place: nothing else holds the array
        return arrays


# Each reader yields blocks of whole frames, _READ_BLOCK at a time, each
# with whether the file has z so far and the arguments of _Frames.add.
# A reader that finds a fault yields the frames before it, then raises it.
# Neither keeps a Python object per line or row beyond one block.


def _csv_blocks(fh, path: Path):
    dtype = _csv_columns(path, fh.readline())
    names = dtype.names
    # the rows of the frame the last block ended in, with their lines: the next block may go on with it
    carry = np.empty(0, dtype), np.empty(0, np.int64)
    line_no, n_read = 2, 1
    while n_read:
        block = islice(fh, _READ_BLOCK * N_LANDMARKS)
        table, row_line, fault, n_read = _csv_rows(block, line_no, dtype)
        line_no += n_read
        # the tables as bytes: numpy joins structured arrays field by field, several times slower
        table = np.concatenate([carry[0].view(np.uint8), table.view(np.uint8)]).view(dtype)
        row_line = np.concatenate([carry[1], row_line])
        # a frame is whole once the next one starts, or at the end of the file; a bad row (``fault``)
        # may belong to the frame before it, so that frame is not yielded
        frame = table["frame"]
        starts = np.flatnonzero(np.concatenate([[len(table) > 0], frame[1:] != frame[:-1]]))
        counts = np.diff(np.concatenate([starts, [len(table)]]))
        whole = max(len(starts) - 1, 0) if n_read else len(starts)
        stop = starts[whole] if whole < len(starts) else len(table)
        carry = table[stop:].copy(), row_line[stop:].copy()
        rows, starts, counts, ts = table[:stop], starts[:whole], counts[:whole], None
        if "timestamp_ms" in names:
            row_ts = rows["timestamp_ms"]
            ts = row_ts[starts]
            first = np.repeat(ts, counts)
            differs = row_ts != first
            if differs.any() and (differs := np.flatnonzero(differs & ~(np.isnan(row_ts) & np.isnan(first)))).size:
                r = differs[0]
                fault = SchemaError(
                    f"frame {frame[r]}: timestamp_ms {float(row_ts[r])!r} on line {row_line[r]}"
                    f" differs from the frame's first row ({float(first[r])!r})"
                )
                whole = np.searchsorted(starts, r, "right") - 1
                rows, starts, counts, ts = rows[: starts[whole]], starts[:whole], counts[:whole], ts[:whole]
        z = rows["z"] if "z" in names else 0.0
        values = [rows["x"], rows["y"], z, rows["visibility"] if "visibility" in names else 1.0]
        yield "z" in names, rows["frame"][starts], ts, row_line[starts], counts, rows["id"], values
        if fault is not None:
            raise fault


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


def _csv_columns(path: Path, header_line: str) -> np.dtype:
    """The row dtype: a field per header column, in order; a column not read is a one-character string ``_j``."""
    if not header_line:
        raise EmptyStream(f"{path}: no frames")
    header = [h.strip() for h in header_line.split(",")]
    for name in _CSV_REQUIRED:
        if name not in header:
            raise ParseError(f"missing column {name!r} in header", line=1)
    read = [h in _CSV_TYPES and h not in header[:j] for j, h in enumerate(header)]
    return np.dtype([(h, _CSV_TYPES[h]) if r else (f"_{j}", "U1") for j, (h, r) in enumerate(zip(header, read))])


def _loadtxt(lines, dtype: np.dtype) -> np.ndarray:
    # one field per column: a row of any other field count is refused
    return np.loadtxt(lines, dtype, delimiter=",", comments=None, ndmin=1)


def _csv_rows(block, first_line: int, dtype: np.dtype):
    """The rows of a block of CSV lines, the line of each row, the block's first bad row and the lines read.

    With a bad row, a ParseError, the rows are those of the lines before it;
    without one, the fault is None.
    """
    lines = list(block)
    try:
        table = _loadtxt(lines, dtype)
        if len(table) == len(lines):
            return table, np.arange(first_line, first_line + len(lines)), None, len(lines)
    except ValueError:
        pass
    # blank lines (only commas and whitespace) or a bad row: read the other lines, and name each row's line
    kept = [i for i, line in enumerate(lines) if line.replace(",", "").strip()]
    try:
        table = _loadtxt([lines[i] for i in kept], dtype)
    except ValueError as exc:
        bad, fault = _bad_row(lines, kept, dtype, first_line, exc)
        return *_csv_rows(lines[:bad], first_line, dtype)[:2], fault, len(lines)
    return table, first_line + np.array(kept[: len(table)], dtype=np.int64), None, len(lines)


def _bad_row(lines, kept, dtype, first_line, exc) -> tuple[int, ParseError]:
    """The first kept line that int()/float(), the field count or, alone, loadtxt rejects; (0, unnamed) if none."""
    width = len(dtype.names)
    for i in kept:
        raw = lines[i].rstrip("\n").split(",")  # a bad last field is quoted without the line end
        try:
            for name, text in zip(dtype.names, raw):
                _CSV_TYPES.get(name, str)(text)  # a column not read takes any text
            if len(raw) != width:
                return i, ParseError(f"bad row: {len(raw)} field(s), the header has {width}", line=first_line + i)
            # a value int()/float() accept but loadtxt does not, such as 1_0
            _loadtxt(lines[i : i + 1], dtype)
        except ValueError as bad:
            return i, ParseError(f"bad row: {bad}", line=first_line + i)
    return 0, ParseError(f"bad row: {exc}")


def _jsonl_blocks(fh):
    # the first frame sets whether every frame has a timestamp or none has
    has_z, stamped, line_no, end = True, None, 0, False
    while not end:
        frame_no, ts, lines, counts, values = [], [], [], [], array("d")
        fault, first = None, line_no
        for line_no, line in enumerate(islice(fh, _READ_BLOCK), line_no + 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                # array('d') takes a bool as 0 or 1: a line that may hold one is checked value by value
                if _may_hold_bool(line) and _frame_fault(obj, has_z):
                    raise ValueError
                f, t, landmarks = obj["frame"], obj.get("timestamp_ms", 0.0), obj["landmarks"]
                z = has_z and all("z" in lm for lm in landmarks)
                row = [v for lm in landmarks for v in (lm["id"], lm["x"], lm["y"], lm.get("z", 0.0), lm.get("v", 1.0))]
                if type(f) not in _NUMBER or type(t) not in _NUMBER:
                    raise TypeError
                f, t = float(f), float(t)
                values.fromlist(row)  # TypeError for a string or null, and nothing appended
            except json.JSONDecodeError as exc:
                fault = ParseError(f"bad JSON: {exc.msg}", line=line_no)
                break
            except (KeyError, TypeError, ValueError, OverflowError):
                fault = ParseError(_frame_fault(obj, has_z), line=line_no)
                break
            if stamped is None:
                stamped = "timestamp_ms" in obj
            elif ("timestamp_ms" in obj) != stamped:
                fault = SchemaError(
                    f"frame {json.dumps(obj['frame'])}: timestamp_ms {'missing' if stamped else 'present'}"
                    f" on line {line_no}, unlike the first frame"
                )
                break
            has_z = z
            frame_no.append(f)
            ts.append(t)
            lines.append(line_no)
            counts.append(len(landmarks))
        end = line_no == first
        frame_no, line, counts = np.array(frame_no), np.array(lines, np.int64), np.array(counts, np.int64)
        rows = np.frombuffer(values).reshape(-1, 5)
        # JSON numbers were read as floats: a frame or id with a fraction is rejected, not truncated
        m = len(frame_no)
        bad = np.flatnonzero(~_whole(rows[:, 0]))
        if bad.size:
            m = np.searchsorted(np.cumsum(counts), bad[0], "right")
            fault = ParseError(f"landmark id {float(rows[bad[0], 0])!r} is not an integer", line=int(line[m]))
        bad = np.flatnonzero(~_whole(frame_no[: m + 1]))
        if bad.size:
            m = bad[0]
            fault = ParseError(f"frame {float(frame_no[m])!r} is not an integer", line=int(line[m]))
        r = counts[:m].sum()
        yield (
            has_z, frame_no[:m].astype(np.int64), np.array(ts[:m], float) if stamped else None, line[:m], counts[:m],
            rows[:r, 0], [rows[:r, c] for c in range(1, 5)],
        )
        if fault is not None:
            raise fault


def _may_hold_bool(line: str) -> bool:
    """Whether a JSONL line may hold a true or a false.

    Of the letters in a frame object's keys and numbers, only a true has a
    "u", and a false adds an "l" to the one in "landmarks". A search for one
    letter costs about 1% of a json.loads and one for "true" and "false" 6%,
    so only a line with such a letter is searched for the words.
    """
    return ("u" in line or line.find("l", line.find("l") + 1) >= 0) and ("true" in line or "false" in line)


def _whole(values: np.ndarray) -> np.ndarray:
    return np.isfinite(values) & (values == np.floor(values))


def _frame_fault(obj, has_z: bool) -> str | None:
    """The first fault of a JSONL frame object, in reading order, as ParseError text; None if it has none."""
    try:
        for key, value in _frame_fields(obj, has_z):
            if type(value) not in _NUMBER:
                return f'"{key}": {json.dumps(value)} is not a number'
            float(value)  # OverflowError for an integer beyond the float range
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        return f"bad frame object: {exc}"
    return None


def _frame_fields(obj, has_z: bool):
    """(key, value) of each number a JSONL frame object holds, in reading order."""
    yield "frame", obj["frame"]
    if "timestamp_ms" in obj:
        yield "timestamp_ms", obj["timestamp_ms"]
    landmarks = obj["landmarks"]
    if has_z:
        all("z" in lm for lm in landmarks)  # as the reader tests them: a landmark that is no object fails here
    for lm in landmarks:
        yield "id", lm["id"]
        yield "x", lm["x"]
        yield "y", lm["y"]
        yield "z", lm.get("z", 0.0)
        yield "v", lm.get("v", 1.0)


def write_pose_stream(stream: PoseStream, path: str | Path, format: str | None = None) -> None:
    """Write a stream back out; round-trips exactly through parse_pose_stream.

    Floats are written as ``repr`` (CSV, with ``\\r\\n`` line ends) or as
    ``json.dumps`` spells them (JSONL), so every value reads back unchanged.
    A stream without z (``has_z`` false) is written without the z column
    or key, and one with synthesized timestamps without timestamp_ms, so it
    reads back as it was read. Frames are formatted _WRITE_BLOCK at a time:
    each block's floats are spelled by one ``repr``/``json.dumps`` of a list.
    """
    path = Path(path)
    format = _format(path, format)
    L = stream.n_landmarks
    axes = "xyz" if stream.has_z else "xy"
    stamped = not stream.timestamps_synthesized
    with open(path, "w", newline="" if format == "csv" else None, encoding="utf-8") as fh:
        if format == "csv":
            names = [n for n in _CSV_TYPES if (n != "z" or stream.has_z) and (n != "timestamp_ms" or stamped)]
            fh.write(",".join(names) + "\r\n")
            # one frame's rows: its "frame,[timestamp_ms,]" head, the id, then x, y[, z] and visibility
            template = "".join(f"%s{j}" + ",%s" * (len(axes) + 1) + "\r\n" for j in range(L))
        else:
            landmark = '{"id": %d' + "".join(f', "{a}": %%s' for a in axes) + ', "v": %%s}'
            head = '{"frame": %d, "timestamp_ms": %s, ' if stamped else '{"frame": %d, '
            template = head + '"landmarks": [%s]}\n' % ", ".join(landmark % j for j in range(L))
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
    heads = ["%d," % f for f in stream.frame_index[frames].tolist()]
    if not stream.timestamps_synthesized:
        heads = ["%s%r," % ht for ht in zip(heads, np.asarray(stream.timestamps_ms[frames], dtype=float).tolist())]
    L = stream.n_landmarks
    k = values.shape[1] // L  # cells per row
    args = [None] * (len(cells) + len(heads) * L)
    args[:: k + 1] = [head for head in heads for _ in range(L)]
    for c in range(k):
        args[c + 1 :: k + 1] = cells[c::k]
    return (template * len(heads)) % tuple(args)


def _jsonl_block(stream: PoseStream, frames: slice, template: str) -> str:
    lead = 0 if stream.timestamps_synthesized else 1
    values = _block_values(stream, frames, lead)
    if lead:
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
        Finding("range", int(frame[i]), f"visibility {float(vis[i, j])!r} outside [0, 1]", landmark_id=int(j))
        for i, j in np.argwhere(~((vis >= 0.0) & (vis <= 1.0)))  # NaN too
    ]
    findings += [
        Finding("range", int(frame[i]), "non-finite coordinate", landmark_id=int(j))
        for i, j in np.argwhere(~np.isfinite(stream.coords).all(axis=2))
    ]
    if stream.timestamps_synthesized:
        findings.append(Finding("synthesized_timestamps", int(frame[0]), "timestamps synthesized from nominal fps"))
    return ValidationReport(stream.source_id, findings)

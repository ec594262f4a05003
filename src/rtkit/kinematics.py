"""Cumulative upper-body movement velocity from pose streams.

The velocity series is the signal every detector in this package operates
on: per frame pair, the summed Euclidean landmark displacement divided by
the frame duration. Units are input-units per second (per-frame values are
``v / fps``). No smoothing is applied here; the matched filter does that.
The series is computed in blocks of ``_BLOCK`` frame pairs, so its working
memory does not grow with the stream; every sample has the same bits as
the whole-array formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GapError, LengthError
from .pose import PoseStream, off_nominal

# frame pairs per block of the velocity working set
_BLOCK = 64


@dataclass
class VelocitySeries:
    """Movement speed per frame pair; sample i is stamped at the later frame.

    Length is one less than the source stream. ``fps`` is the reciprocal
    of the stream's frame spacing (``PoseStream.frame_ms``).
    """

    source_id: str
    fps: float
    frame_index: np.ndarray
    t_ms: np.ndarray
    v: np.ndarray
    dims: str = "xyz"

    def __post_init__(self):
        if len(self.t_ms) != len(self.v) or len(self.frame_index) != len(self.v):
            raise ValueError("inconsistent series arrays")

    def __len__(self) -> int:
        return len(self.v)

    @property
    def frame_ms(self) -> float:
        return 1000.0 / self.fps


def velocity_series(stream: PoseStream, dims: str | None = None) -> VelocitySeries:
    """Per-frame-pair movement speed for the whole stream.

    ``dims`` is "xy" or "xyz"; by default "xyz" when the stream carries z.
    Raises LengthError for a stream of fewer than 2 frames, and GapError
    when any timestamp delta is outside +/-50% of ``stream.frame_ms`` or is
    NaN; callers may subdivide the stream and retry. The stream's
    arrays are only read, so they may be read-only views.

    The squared steps of ``_BLOCK`` frame pairs at a time go through two
    (block, landmarks) buffers allocated once, and each block's row sums go
    into its slice of the displacement array. Each sample's arithmetic and
    row sum are those of the whole-array formula, so no bit depends on the
    block size.
    """
    if dims is None:
        dims = "xyz" if stream.has_z else "xy"
    if dims not in ("xy", "xyz"):
        raise ValueError(f"dims must be 'xy' or 'xyz', got {dims!r}")
    if stream.n_frames < 2:
        raise LengthError(f"{stream.source_id}: {stream.n_frames} frame(s); a velocity series needs at least 2")
    frame_ms = stream.frame_ms
    deltas = np.diff(stream.timestamps_ms)
    bad = np.flatnonzero(off_nominal(deltas, frame_ms))
    if bad.size:
        frames = [int(stream.frame_index[i + 1]) for i in bad]
        raise GapError(
            f"{stream.source_id}: {len(frames)} frame gap(s), first before frame {frames[0]}",
            frame_indices=frames,
        )
    # squared steps summed axis by axis into a (block, landmarks) buffer:
    # x + y, then + z, the order numpy sums a short last axis in
    coords = stream.coords
    n = stream.n_frames - 1
    rows = min(_BLOCK, n)
    acc = np.empty((rows, coords.shape[1]))
    work = np.empty_like(acc)
    disp = np.empty(n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        sq, step = acc[: hi - lo], work[: hi - lo]
        np.subtract(coords[lo + 1 : hi + 1, :, 0], coords[lo:hi, :, 0], out=sq)
        sq *= sq
        for d in range(1, len(dims)):
            np.subtract(coords[lo + 1 : hi + 1, :, d], coords[lo:hi, :, d], out=step)
            step *= step
            sq += step
        np.sqrt(sq, out=sq)
        sq.sum(axis=1, out=disp[lo:hi])
    v = disp / (deltas / 1000.0)
    return VelocitySeries(
        source_id=stream.source_id,
        fps=1000.0 / frame_ms,
        frame_index=stream.frame_index[1:].copy(),
        t_ms=stream.timestamps_ms[1:].copy(),
        v=v,
        dims=dims,
    )


import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_stream
from rtkit.errors import GapError
from rtkit.kinematics import _BLOCK, velocity_series
from rtkit.pose import select_upper_body
from rtkit.synth import BurstSpec, NoiseSpec, gen_pose_stream


def test_single_landmark_345_triangle():
    # a 0.5-unit step in one frame at 30 fps is 15 units/s
    coords = np.zeros((2, 33, 3))
    coords[1, 4] = (0.3, 0.4, 0.0)
    series = velocity_series(make_stream(coords), dims="xy")
    assert series.v[0] == pytest.approx(15.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), dims=st.sampled_from(["xy", "xyz"]))
def test_displacement_matches_bruteforce(seed, dims):
    rng = np.random.default_rng(seed)
    coords = rng.normal(size=(2, 25, 3))
    stream = make_stream(coords)
    expected = 0.0
    for prev, curr in zip(coords[0].tolist(), coords[1].tolist()):
        expected += math.sqrt(sum((b - a) ** 2 for a, b in zip(prev[: len(dims)], curr[: len(dims)])))
    # one sample is the summed displacement over the frame duration
    v = velocity_series(stream, dims=dims).v[0]
    assert v == pytest.approx(expected * (1000.0 / stream.frame_ms), rel=1e-12)


@pytest.mark.parametrize("dims", ["xy", "xyz"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_velocity_bitwise_equals_diff_formula(seed, dims):
    # the per-axis accumulation adds the squared steps in the order of a
    # sum over the last axis, so the bits match, not just the value, at
    # every block edge; the streams are read-only, their visibility broadcast
    burst = BurstSpec(400.0, 54.75, 2.0)
    stream, _ = gen_pose_stream(20000, 30.0, [8000.0], [burst], NoiseSpec(0.004), seed)
    stream.coords.flags.writeable = False
    for pairs in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, stream.n_frames - 1):
        head = _head(stream, pairs + 1)
        for s in (head, select_upper_body(head)):
            c = s.coords[:, :, : len(dims)]
            dt = np.diff(s.timestamps_ms)
            expected = np.sqrt((np.diff(c, axis=0) ** 2).sum(axis=2)).sum(axis=1) / (dt / 1000)
            assert np.array_equal(velocity_series(s, dims=dims).v, expected), (pairs, s.n_landmarks)


def _head(stream, frames):
    """The first ``frames`` frames of ``stream``, as views."""
    return dataclasses.replace(
        stream,
        frame_index=stream.frame_index[:frames],
        timestamps_ms=stream.timestamps_ms[:frames],
        coords=stream.coords[:frames],
        visibility=stream.visibility[:frames],
    )


@pytest.mark.parametrize("frame", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK])
def test_nan_coordinate_at_a_block_edge_spoils_only_its_two_samples(frame):
    # frame f is in the pairs (f - 1, f) and (f, f + 1), samples f - 1 and f
    coords = np.random.default_rng(7).normal(size=(3 * _BLOCK + 1, 33, 3))
    coords[frame, 20, 1] = np.nan
    v = velocity_series(make_stream(coords)).v
    assert np.flatnonzero(np.isnan(v)).tolist() == [frame - 1, frame]


@pytest.mark.parametrize("body", ["full", "upper"])
def test_velocity_memory_does_not_grow_with_the_stream(body):
    # beyond the arrays it returns, a series takes under 0.25 MB at 60 s and at 120 s
    for seconds in (60, 120):
        stream, _ = gen_pose_stream(seconds * 1000.0, 30.0, [], [], NoiseSpec(0.004), seed=11)
        if body == "upper":
            stream = select_upper_body(stream)
        tracemalloc.start()
        try:
            series = velocity_series(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = series.v.nbytes + series.t_ms.nbytes + series.frame_index.nbytes
        assert peak - outputs < 250_000, f"{seconds} s: {(peak - outputs) / 1e6:.2f} MB beyond the outputs"


def test_static_subject_all_zero(static_stream):
    series = velocity_series(static_stream)
    assert len(series) == static_stream.n_frames - 1
    assert np.all(series.v == 0.0)


def test_constant_motion_velocity():
    # one landmark moving 0.1 units per frame at 30 fps -> 3.0 units/s
    coords = np.zeros((10, 33, 3))
    coords[:, 12, 0] = 0.1 * np.arange(10)
    series = velocity_series(make_stream(coords))
    assert np.allclose(series.v, 3.0)
    assert np.all(np.diff(series.t_ms) > 0)


def test_dropped_frame_raises_gap_error():
    ts = np.arange(10) * (1000.0 / 30.0)
    ts[6:] += 1000.0 / 30.0
    stream = make_stream(np.zeros((10, 33, 3)), timestamps=ts)
    with pytest.raises(GapError) as exc:
        velocity_series(stream)
    assert exc.value.frame_indices == [6]


def test_nan_timestamp_is_a_gap():
    # a NaN delta is outside every tolerance; the series must not come out NaN
    ts = np.arange(5) * (1000.0 / 30.0)
    ts[2] = np.nan
    stream = make_stream(np.zeros((5, 33, 3)), timestamps=ts)
    with pytest.raises(GapError) as exc:
        velocity_series(stream)
    assert exc.value.frame_indices == [2, 3]


def test_velocity_sample_times_are_later_frame():
    coords = np.random.default_rng(3).normal(size=(5, 33, 3))
    stream = make_stream(coords)
    series = velocity_series(stream)
    assert np.array_equal(series.t_ms, stream.timestamps_ms[1:])
    assert np.array_equal(series.frame_index, stream.frame_index[1:])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_translation_invariance(seed):
    rng = np.random.default_rng(seed)
    coords = rng.normal(size=(8, 25, 3))
    shifted = coords + rng.normal(size=3)
    v0 = velocity_series(make_stream(coords)).v
    v1 = velocity_series(make_stream(shifted)).v
    assert np.allclose(v0, v1, rtol=1e-9, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), c=st.floats(min_value=0.01, max_value=100))
def test_positive_scaling(seed, c):
    coords = np.random.default_rng(seed).normal(size=(8, 25, 3))
    v0 = velocity_series(make_stream(coords)).v
    v1 = velocity_series(make_stream(coords * c)).v
    assert np.allclose(v1, c * v0, rtol=1e-9)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_time_reversal(seed):
    coords = np.random.default_rng(seed).normal(size=(9, 25, 3))
    fwd = velocity_series(make_stream(coords)).v
    rev = velocity_series(make_stream(coords[::-1])).v
    assert np.allclose(rev, fwd[::-1], rtol=1e-9)


def test_zero_velocity_iff_identical_frames():
    coords = np.random.default_rng(5).normal(size=(4, 25, 3))
    coords[2] = coords[1]
    v = velocity_series(make_stream(coords)).v
    assert v[1] == 0.0
    assert v[0] > 0.0 and v[2] > 0.0


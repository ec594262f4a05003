import numpy as np
import pytest

from rtkit.detector import _windowed_argmax
from rtkit.kinematics import VelocitySeries
from rtkit.pose import PoseStream


def make_stream(coords, fps=30.0, source_id="test", visibility=None, timestamps=None):
    """PoseStream from a (n_frames, n_landmarks, 3) array."""
    coords = np.asarray(coords, dtype=float)
    n, L = coords.shape[:2]
    return PoseStream(
        source_id=source_id,
        frame_index=np.arange(n),
        timestamps_ms=np.asarray(timestamps, dtype=float) if timestamps is not None else np.arange(n) * (1000.0 / fps),
        coords=coords,
        visibility=np.asarray(visibility, dtype=float) if visibility is not None else np.ones((n, L)),
        has_z=True,
    )


def make_series(values, fps=30.0, source_id="test"):
    """Uniformly sampled VelocitySeries from raw values."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    dt = 1000.0 / fps
    return VelocitySeries(
        source_id=source_id,
        fps=fps,
        frame_index=np.arange(1, n + 1),
        t_ms=np.arange(1, n + 1) * dt,
        v=values,
    )


def two_sided_energy(spec):
    """(1/n) sum |X_k|^2 over the full two-sided transform of a one-sided ``MagnitudeSpectrum``."""
    m2 = spec.magnitude**2
    two_sided = 2.0 * m2.sum() - m2[0]
    if spec.n % 2 == 0:
        two_sided -= m2[-1]  # Nyquist bin appears once
    return float(two_sided / spec.n)


def peak_time(conv, window):
    """Time of the windowed argmax from the window start: the ``t_max`` of ``estimate_in_window``, with no onset check."""
    return float(conv.t_ms[_windowed_argmax(conv, window)] - window.start_ms)


@pytest.fixture
def static_stream():
    coords = np.tile(np.linspace(0.1, 0.9, 33 * 3).reshape(33, 3), (10, 1, 1))
    return make_stream(coords)

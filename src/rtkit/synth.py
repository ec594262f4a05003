"""Seeded synthetic data: pose streams with known reaction onsets, and SRT
record sets drawn from cell parameters.

Pose streams are the ground-truth oracle for the detector: each burst moves
the two wrist landmarks along fixed directions with an erf-shaped displacement
profile, so the induced velocity pulse is an exact Gaussian bump of chosen
onset, width and amplitude on top of baseline micro-motion (a per-landmark
random walk, the usual postural-sway stand-in).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import BadParams, ParseError, SpecError
from .pose import N_LANDMARKS, PoseStream
from .stats import Method, ReactionRecord, Setting, check_cell

# std of the norm of a standard normal 3-vector (streams move in x, y and z)
_NORM_STD = math.sqrt(3.0 - 8.0 / math.pi)

SRT_FLOOR_MS = 50.0  # physiological floor for generated reaction times
AFFECTED_LANDMARKS = (15, 16)  # the wrists: every burst moves these two landmarks


@dataclass(frozen=True)
class BurstSpec:
    """One injected reaction: a Gaussian velocity pulse of the wrists after a warning.

    ``onset_ms`` is the pattern start relative to the warning. By default
    the pulse peaks ``4 * burst_sigma_ms`` after the onset (the pulse spans
    eight sigmas, mirroring the detector's kernel family); pass
    ``center_offset_ms`` to pin the peak elsewhere, e.g. at half the
    kernel duration when testing width-mismatch robustness.
    """

    onset_ms: float
    burst_sigma_ms: float
    burst_amplitude: float  # peak velocity, input units / second
    center_offset_ms: float | None = None

    def __post_init__(self):
        if not 0 <= self.onset_ms < math.inf:
            raise SpecError(f"onset_ms must be finite and >= 0, got {self.onset_ms}")
        if not (0 < self.burst_amplitude < math.inf and 0 < self.burst_sigma_ms < math.inf):
            raise SpecError("burst amplitude and sigma must be positive and finite")

    @property
    def center_ms(self) -> float:
        off = self.center_offset_ms if self.center_offset_ms is not None else 4.0 * self.burst_sigma_ms
        return self.onset_ms + off


@dataclass(frozen=True)
class NoiseSpec:
    """Baseline micro-motion of every landmark: a random walk with per-frame
    step sigma in input units (postural sway), giving a white velocity-noise
    floor."""

    sigma: float

    def __post_init__(self):
        if not 0 <= self.sigma < math.inf:
            raise SpecError(f"noise sigma must be finite and >= 0, got {self.sigma}")


@dataclass(frozen=True)
class BurstTruth:
    """Ground truth for one injected burst."""

    warning_t_ms: float
    onset_ms: float
    center_abs_ms: float
    sigma_ms: float
    amplitude: float


def _base_pose() -> np.ndarray:
    # fixed resting layout: a 6-wide grid in normalized image coordinates
    ids = np.arange(N_LANDMARKS)
    x = 0.3 + 0.4 * (ids % 6) / 5.0
    y = 0.2 + 0.6 * (ids // 6) / 5.0
    return np.stack([x, y, np.zeros(N_LANDMARKS)], axis=1)


def velocity_noise_std(noise_sigma: float, n_landmarks: int, fps: float) -> float:
    """Analytic std of the noise-only 3-D velocity series.

    Each frame-pair displacement per landmark is the norm of one i.i.d.
    walk step with per-axis std ``noise_sigma``; the cumulative velocity is
    their sum over landmarks divided by the frame duration.
    """
    return math.sqrt(n_landmarks) * noise_sigma * _NORM_STD * fps


def _erf(z: np.ndarray) -> np.ndarray:
    """scipy's erf ufunc, imported here so that only burst synthesis loads scipy."""
    from scipy.special import erf

    return erf(z)


def _noncentral_norm_mean(u: np.ndarray, s: float) -> np.ndarray:
    """E||N(u*e, s^2*I_3)||."""
    u = np.asarray(u, dtype=float)
    safe = np.maximum(u, 1e-300)
    return s * math.sqrt(2.0 / math.pi) * np.exp(-(u**2) / (2 * s**2)) + (
        safe + s**2 / safe
    ) * _erf(safe / (math.sqrt(2.0) * s))


def _compensate_steps(steps: np.ndarray, step_sigma: float) -> np.ndarray:
    """Per-frame step sizes whose expected norm under jitter adds exactly
    ``steps`` on top of the jitter-only pedestal.

    Landmark speed is the norm of (intended step + jitter step): the norm
    folds part of the intended motion into the pedestal, so raw steps
    would under-deliver the pulse amplitude. Inverts the noncentral-norm
    mean on a dense monotone grid. ``step_sigma`` is the per-axis std of
    one jitter step.
    """
    if step_sigma == 0.0 or not steps.size or steps.max() <= 0:
        return steps
    pedestal = float(_noncentral_norm_mean(np.zeros(1), step_sigma)[0])
    hi = float(steps.max()) + 8.0 * step_sigma
    grid_u = np.linspace(0.0, hi, 4096)
    grid_gain = _noncentral_norm_mean(grid_u, step_sigma) - pedestal
    return np.interp(steps, grid_gain, grid_u)


def gen_pose_stream(
    duration_ms: float,
    fps: float,
    warning_times: Sequence[float],
    bursts: Sequence[BurstSpec],
    noise: NoiseSpec,
    seed: int,
    source_id: str = "synth",
) -> tuple[PoseStream, list[BurstTruth]]:
    """Synthesize a 3-D pose stream with known injected reactions.

    ``bursts`` holds one BurstSpec per warning. Returns the stream together
    with the ground-truth burst list. Deterministic for a given seed.
    Raises SpecError for bursts that overlap or spill outside the recording.
    """
    if not (0 < duration_ms < math.inf and 0 < fps < math.inf):
        raise SpecError("duration and fps must be positive and finite")
    frame_ms = 1000.0 / fps
    n = int(round(duration_ms / frame_ms))
    if n < 2:
        raise SpecError("duration too short")
    if len(bursts) != len(warning_times):
        raise SpecError(f"{len(bursts)} bursts for {len(warning_times)} warnings")

    rng = np.random.default_rng(seed)

    t_ms = np.arange(n) * frame_ms
    base = _base_pose()
    group = list(AFFECTED_LANDMARKS)
    # the wrists' resting pose plus every burst's displacement, summed in
    # burst order; the noise walk is added to it last
    wrists = np.tile(base[group], (n, 1, 1))

    truths: list[BurstTruth] = []
    spans: list[tuple[float, float]] = []
    for w_t, spec in zip(warning_times, bursts):
        center = w_t + spec.center_ms
        lo, hi = center - 4.0 * spec.burst_sigma_ms, center + 4.0 * spec.burst_sigma_ms
        if not 0 <= lo <= hi <= duration_ms:
            raise SpecError(f"burst support [{lo:.1f}, {hi:.1f}] ms outside recording of {duration_ms} ms")
        for plo, phi in spans:
            if lo < phi and plo < hi:
                raise SpecError("overlapping bursts")
        spans.append((lo, hi))

        # unit directions, one per affected landmark, fixed for the burst
        dirs = rng.normal(size=(len(group), 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        # displacement profile whose time derivative is the target
        # Gaussian speed (amplitude split evenly across the group)
        sigma_s = spec.burst_sigma_ms / 1000.0
        z = (t_ms - center) / (math.sqrt(2.0) * spec.burst_sigma_ms)
        profile = (spec.burst_amplitude / len(group)) * sigma_s * math.sqrt(math.pi / 2.0) * (1.0 + _erf(z))
        steps = _compensate_steps(np.diff(profile), noise.sigma)
        walk = np.concatenate([[0.0], np.cumsum(steps)])
        for gi in range(len(group)):
            wrists[:, gi] += walk[:, None] * dirs[gi]
        truths.append(BurstTruth(float(w_t), spec.onset_ms, center, spec.burst_sigma_ms, spec.burst_amplitude))

    # the noise walk is built in place: one draw, scaled, summed along time.
    # Addition commutes in IEEE arithmetic, so walk + pose has the bits of
    # pose + walk.
    coords = np.empty((n, N_LANDMARKS, 3))
    if noise.sigma > 0:
        coords[0] = 0.0
        sway = coords[1:]
        rng.standard_normal(out=sway)
        sway *= noise.sigma
        np.cumsum(sway, axis=0, out=sway)
        wrists += coords[:, group]
        coords += base
    else:
        coords[:] = base
    coords[:, group] = wrists

    stream = PoseStream(
        source_id=source_id,
        frame_index=np.arange(n),
        timestamps_ms=t_ms,
        coords=coords,
        visibility=np.broadcast_to(1.0, (n, N_LANDMARKS)),
    )
    return stream, truths


def write_truth_sidecar(truths: Sequence[BurstTruth], seed: int, path: str | Path) -> None:
    payload = {
        "seed": seed,
        "bursts": [
            {
                "warning_t_ms": t.warning_t_ms,
                "onset_ms": t.onset_ms,
                "center_abs_ms": t.center_abs_ms,
                "sigma_ms": t.sigma_ms,
                "amplitude": t.amplitude,
                "affected_landmarks": list(AFFECTED_LANDMARKS),
            }
            for t in truths
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# SRT record generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SrtCell:
    """One (setting, modality) cell of the generator.

    Cells sharing a nonempty ``group`` (and the same n) draw correlated
    per-participant effects and share participant labels, which is what
    makes paired tests between them meaningful. An unknown modality, or a
    VisionE cell that is not HAV, is a ValueError.
    """

    setting: Setting
    modality: str
    mean_ms: float
    sd_ms: float
    n: int
    group: str = ""

    def __post_init__(self):
        check_cell(self.setting, self.modality)


def gen_srt_dataset(
    cells: Sequence[SrtCell],
    seed: int,
    rho: float = 0.5,
) -> list[ReactionRecord]:
    """Truncated-normal reaction-time draws for every cell.

    Values below the 50 ms floor are redrawn (idiosyncratic part only, so
    shared participant effects survive truncation). Deterministic per seed.
    """
    if not 0.0 <= rho < 1.0:
        raise BadParams(f"rho must be in [0, 1), got {rho}")
    for c in cells:
        if not (0 <= c.sd_ms < math.inf and c.n >= 1 and 0 < c.mean_ms < math.inf):
            raise BadParams(f"bad cell parameters: {c}")
    rng = np.random.default_rng(seed)
    group_effects: dict[tuple[str, int], np.ndarray] = {}
    records: list[ReactionRecord] = []
    for c in cells:
        if c.group:
            key = (c.group, c.n)
            if key not in group_effects:
                group_effects[key] = rng.normal(size=c.n)
            z = group_effects[key]
            shared, idio = math.sqrt(rho), math.sqrt(1.0 - rho)
        else:
            z = np.zeros(c.n)
            shared, idio = 0.0, 1.0
        label = c.group if c.group else f"{c.setting.value}-{c.modality}"
        method = Method.VISION if c.setting is Setting.VISION_E else Method.SRT
        for j in range(c.n):
            rt = c.mean_ms + c.sd_ms * (shared * z[j] + idio * rng.normal())
            while rt < SRT_FLOOR_MS:
                rt = c.mean_ms + c.sd_ms * (shared * z[j] + idio * rng.normal())
            records.append(
                ReactionRecord(
                    participant=f"{label}-P{j + 1:03d}",
                    setting=c.setting,
                    modality=c.modality,
                    rt_ms=float(rt),
                    method=method,
                )
            )
    return records


def write_cells_sidecar(cells: Sequence[SrtCell], seed: int, rho: float, path: str | Path) -> None:
    payload = {
        "seed": seed,
        "rho": rho,
        "cells": [
            {
                "setting": c.setting.value,
                "modality": c.modality,
                "mean_ms": c.mean_ms,
                "sd_ms": c.sd_ms,
                "n": c.n,
                "group": c.group,
            }
            for c in cells
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_cells_json(path: str | Path) -> tuple[list[SrtCell], float | None]:
    """Read a cell parameter file: {"rho": ..., "cells": [{...}, ...]}.

    ParseError names the file, and the cell's index or ``rho``, for a file
    that is not JSON, a missing key, a value that is not a number (a whole
    number for ``n``), an unknown setting or modality, or a VisionE cell
    that is not HAV.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError as exc:
        raise ParseError(f"{path}: not a JSON file: {exc}") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("cells"), list):
        raise ParseError(f"{path}: expected an object with a list of cells")
    try:
        rho = None if payload.get("rho") is None else _json_number(payload, "rho")
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    cells = []
    for i, c in enumerate(payload["cells"]):
        try:
            n = _json_number(c, "n")
            if not float(n).is_integer():
                raise ValueError(f"n {n!r} is not a whole number")
            cells.append(
                SrtCell(
                    setting=Setting(c["setting"]),
                    modality=c["modality"],
                    mean_ms=float(_json_number(c, "mean_ms")),
                    sd_ms=float(_json_number(c, "sd_ms")),
                    n=int(n),
                    group=c.get("group", ""),
                )
            )
        except KeyError as exc:
            raise ParseError(f"{path}: cell {i}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: cell {i}: {exc}") from None
    return cells, rho


def _json_number(obj: dict, key: str) -> int | float:
    """obj[key], which must be a JSON number; ValueError names the key."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} {json.dumps(value)} is not a number")
    return value


# ---------------------------------------------------------------------------
# reference parameterizations for the bundled reproduction harness
# ---------------------------------------------------------------------------

# benchmark SRT cells: (setting, modality) -> mean, sd; the three lab
# settings share one participant pool, the field setting has its own
REFERENCE_SRT_CELLS: tuple[SrtCell, ...] = (
    SrtCell(Setting.BASELINE, "V", 410, 105, 32, group="lab"),
    SrtCell(Setting.BASELINE, "AV", 422, 122, 32, group="lab"),
    SrtCell(Setting.BASELINE, "HV", 359, 145, 32, group="lab"),
    SrtCell(Setting.BASELINE, "HAV", 365, 149, 32, group="lab"),
    SrtCell(Setting.AR, "V", 597, 232, 34, group="field"),
    SrtCell(Setting.AR, "AV", 627, 249, 34, group="field"),
    SrtCell(Setting.AR, "HV", 530, 245, 34, group="field"),
    SrtCell(Setting.AR, "HAV", 574, 273, 34, group="field"),
    SrtCell(Setting.VR_WOT, "V", 489, 159, 32, group="lab"),
    SrtCell(Setting.VR_WOT, "AV", 483, 162, 32, group="lab"),
    SrtCell(Setting.VR_WOT, "HV", 410, 184, 32, group="lab"),
    SrtCell(Setting.VR_WOT, "HAV", 411, 127, 32, group="lab"),
    SrtCell(Setting.VR_WT, "V", 493, 177, 32, group="lab"),
    SrtCell(Setting.VR_WT, "AV", 477, 108, 32, group="lab"),
    SrtCell(Setting.VR_WT, "HV", 411, 149, 32, group="lab"),
    SrtCell(Setting.VR_WT, "HAV", 438, 154, 32, group="lab"),
)

# vision-metric warning cells (21 completers), paired against the HAV
# baseline recorded in the with-traffic VR setting
REFERENCE_VISION_CELLS: dict[int, tuple[SrtCell, SrtCell]] = {
    1: (
        SrtCell(Setting.VISION_E, "HAV", 490, 330, 21, group="vision1"),
        SrtCell(Setting.VR_WT, "HAV", 438, 154, 21, group="vision1"),
    ),
    2: (
        SrtCell(Setting.VISION_E, "HAV", 370, 220, 21, group="vision2"),
        SrtCell(Setting.VR_WT, "HAV", 438, 154, 21, group="vision2"),
    ),
}

# population stats backing the default search window (HAV, with-traffic VR)
DEFAULT_WINDOW_STATS = (438.0, 154.0)

"""Correctness checks against references computed apart from rtkit.

Every check returns a list of problems; an empty list means it passed.
References are the inputs the benchmark generated itself (pose arrays,
injected onsets, response offsets), numpy arithmetic on those inputs, and
scipy's t-tests. No check compares against stored program output.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy import stats as sstats

UPPER_BODY = 25  # landmark ids 0..24
TTEST_REL = 1e-9
SUMMARY_REL = 1e-12
PARSEVAL_REL = 1e-9
# a share test rejects only what a binomial sample this size cannot explain
SHARE_ALPHA = 1e-3


def rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# vision_session
# ---------------------------------------------------------------------------


def check_validation(path: Path, n_frames: int) -> list[str]:
    """The validation report of a clean stream has no findings."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    if payload["n_frames"] != n_frames:
        problems.append(f"{path.name}: n_frames {payload['n_frames']} != {n_frames}")
    if payload["findings"]:
        problems.append(f"{path.name}: {len(payload['findings'])} finding(s) on a clean stream")
    return problems


def read_jsonl_stream(path: Path) -> dict[str, np.ndarray]:
    """Parse a pose JSONL file with the json module alone."""
    frames, ts, ids, coords, vis = [], [], None, [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            lms = obj["landmarks"]
            frames.append(obj["frame"])
            ts.append(obj["timestamp_ms"])
            if ids is None:
                ids = [lm["id"] for lm in lms]
            coords.append([(lm["x"], lm["y"], lm["z"]) for lm in lms])
            vis.append([lm["v"] for lm in lms])
    return {
        "landmark_ids": np.array(ids),
        "frame_index": np.array(frames),
        "timestamps_ms": np.array(ts, dtype=float),
        "coords": np.array(coords, dtype=float),
        "visibility": np.array(vis, dtype=float),
    }


def check_canonical(path: Path, stream) -> list[str]:
    """The canonical copy holds the generated arrays bit for bit."""
    got = read_jsonl_stream(path)
    return [
        f"{path.name}: {key} differs from the generated stream"
        for key, arr in got.items()
        if arr.shape != getattr(stream, key).shape or not np.array_equal(arr, getattr(stream, key))
    ]


def check_detection_summary(path: Path, onsets: dict[float, float], frame_ms: float) -> list[str]:
    """Every reported RT lies within two frames of the injected onset."""
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    got = {}
    for row in rows:
        _participant, w, rt, _t_max, _peak = row.split(",")
        got[float(w)] = float(rt)
    problems = []
    if sorted(got) != sorted(onsets):
        problems.append(f"{path}: warnings {sorted(got)} != {sorted(onsets)}")
    for w, onset in onsets.items():
        if w in got and abs(got[w] - onset) > 2.0 * frame_ms + 1e-9:
            problems.append(f"{path}: warning {w}: rt {got[w]:.1f} ms vs injected onset {onset:.1f} ms")
    return problems


def upper_body_velocity(stream) -> np.ndarray:
    """Cumulative upper-body landmark speed per frame pair (units/s)."""
    step = np.diff(stream.coords[:, :UPPER_BODY, :], axis=0)
    return np.sqrt((step**2).sum(axis=2)).sum(axis=1) / (np.diff(stream.timestamps_ms) / 1000.0)


def check_spectrum(path: Path, v: np.ndarray) -> list[str]:
    """Parseval: (1/n) sum over the two-sided transform equals sum v^2."""
    mags = np.loadtxt(path, delimiter=",", skiprows=1, usecols=1, ndmin=1)
    n = len(v)
    if len(mags) != n // 2 + 1:
        return [f"{path.name}: {len(mags)} bins for {n} samples"]
    m2 = mags**2
    two_sided = 2.0 * m2.sum() - m2[0] - (m2[-1] if n % 2 == 0 else 0.0)
    energy = float((v**2).sum())
    if not rel_close(two_sided / n, energy, PARSEVAL_REL):
        return [f"{path.name}: spectrum energy {two_sided / n!r} vs series energy {energy!r}"]
    return []


def check_cwt(sidecar: Path, matrix: Path, scales: np.ndarray, t_ms: np.ndarray) -> list[str]:
    """The CWT export has the requested scale grid and one column per sample."""
    meta = json.loads(sidecar.read_text(encoding="utf-8"))
    shape = [len(scales), len(t_ms)]
    problems = []
    got_scales = np.array(meta["scales_frames"])
    if got_scales.shape != scales.shape or not np.allclose(got_scales, scales, rtol=1e-12, atol=0.0):
        problems.append(f"{sidecar.name}: scale grid differs from the request")
    if meta["matrix_shape"] != shape or list(np.load(matrix).shape) != shape:
        problems.append(f"{sidecar.name}: matrix shape {meta['matrix_shape']} != {shape}")
    if not np.array_equal(np.array(meta["translations_ms"]), t_ms):
        problems.append(f"{sidecar.name}: translations differ from the series timestamps")
    return problems


# ---------------------------------------------------------------------------
# detector_trials
# ---------------------------------------------------------------------------


def injected_onset(seed: int) -> float:
    """The onset ``run_detection_trial`` injects for ``seed``.

    Redraws the trial's first three values: baseline, width mismatch,
    onset, in that order.
    """
    rng = np.random.default_rng(seed)
    rng.uniform(400.0, 600.0)
    rng.uniform(0.75, 1.25)
    return float(rng.uniform(50.0, 450.0))


def share_holds(hits: int, n: int, bound: float) -> bool:
    """Whether ``hits`` of ``n`` is consistent with a share of at least ``bound``.

    One-sided exact binomial test: the share fails when a detector whose
    true share is exactly ``bound`` would score this low with probability
    under SHARE_ALPHA.
    """
    return n > 0 and float(sstats.binom.cdf(hits, n, bound)) >= SHARE_ALPHA


# ---------------------------------------------------------------------------
# srt_study
# ---------------------------------------------------------------------------


def check_srt_log(label: str, log, latency, offsets: list[int | None], max_rt_ms: int) -> list[str]:
    """Pairs, misses, orphans and latency of one parsed event log.

    ``offsets[k]`` is the response offset written for trigger seq k + 1,
    None when the response was withheld.
    """
    problems = []
    written = {seq: off for seq, off in enumerate(offsets, start=1) if off is not None}
    paired = {e.trigger_seq: e for e in log.srt_events}
    if len(log.srt_events) != len(written) or sorted(paired) != sorted(written):
        problems.append(f"{label}: paired seqs {sorted(paired)} != responded seqs {sorted(written)}")
    for seq, e in paired.items():
        if seq in written and (e.rt_ms != written[seq] or e.is_miss != (written[seq] > max_rt_ms)):
            problems.append(f"{label}: seq {seq}: rt {e.rt_ms} ms (miss {e.is_miss}) != written {written[seq]} ms")
    misses = sorted(seq for seq, off in enumerate(offsets, start=1) if off is None or off > max_rt_ms)
    if log.missed_triggers != misses:
        problems.append(f"{label}: misses {log.missed_triggers} != late or withheld {misses}")
    if log.orphan_responses:
        problems.append(f"{label}: {len(log.orphan_responses)} orphan response(s)")
    if not latency.all_pass or not latency.p99_ms < 10.0:
        problems.append(f"{label}: latency p99 {latency.p99_ms} ms, failures {latency.failures}")
    return problems


def check_summary(label: str, summary, values: list[float]) -> list[str]:
    arr = np.asarray(values, dtype=float)
    mean, sd = float(arr.mean()), float(arr.std(ddof=1))
    if summary.n != arr.size or not rel_close(summary.mean_ms, mean, SUMMARY_REL) or not rel_close(
        summary.sd_ms, sd, SUMMARY_REL
    ):
        return [f"{label}: summary n={summary.n} mean={summary.mean_ms!r} sd={summary.sd_ms!r} != {arr.size}, {mean!r}, {sd!r}"]
    return []


def check_ttest(label: str, result, a, b) -> list[str]:
    """t and p agree within TTEST_REL with scipy's test of the same samples:
    ``ttest_rel`` for a paired result, Welch's ``ttest_ind`` otherwise."""
    ref = sstats.ttest_rel(a, b) if result.paired else sstats.ttest_ind(a, b, equal_var=False)
    t, p = float(ref.statistic), float(ref.pvalue)
    if not rel_close(result.t, t, TTEST_REL) or not rel_close(result.p, p, TTEST_REL):
        return [f"{label}: t={result.t!r} p={result.p!r} vs scipy t={t!r} p={p!r}"]
    return []

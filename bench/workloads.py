"""The three workloads: set-up, operations in rounds, and their checks.

Each workload runs as a closed loop in one thread: the next operation
starts when the previous one ends. Operations come in rounds, and every
round holds the same kinds of operation, so a run of any length attempts
whole rounds. Before each operation, outside its timing, the workload
clears that operation's output directory, so every operation writes new
files the way a user processing new data does, rather than replacing the
last round's files. rtkit is always called through module attributes
(``cli.main``, ``trials.run_detection_trial``, ...), which is where the
traced run puts its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rtkit import cli, pose, stats, synth, trials, woz

import checks

FPS = 30.0
FRAME_MS = 1000.0 / FPS
NOISE_SIGMA = 0.004
N_LANDMARKS = 33


# ---------------------------------------------------------------------------
# vision_session
# ---------------------------------------------------------------------------

VISION_SCHEDULES = ("V", "HV", "AV", "HAV", "ExpE")
# peak burst velocity over the analytic velocity-noise floor of the stream
VISION_SNR = 10.0
SCALES = (2.0, 30.0, 32)


@dataclass
class Recording:
    sid: str
    script: woz.ScenarioScript
    fmt: str
    baseline_ms: float
    onsets_ms: list[float]
    gen_seed: int
    path: Path
    stream: object = None  # the generated PoseStream, the reference arrays

    @property
    def warnings_ms(self) -> list[float]:
        return [float(t) for t, _ in self.script.triggers]


class VisionSession:
    """One operation processes one recording the way a user does: ``rtkit
    ingest --canonical``, ``rtkit detect`` with the schedule's warning
    times, and ``rtkit spectral``, each through ``cli.main``."""

    name = "vision_session"
    streams_per_op = 1

    def __init__(self, seed: int, work: Path, schedules=VISION_SCHEDULES):
        rng = np.random.default_rng([seed, 1])
        short = [i for i, s in enumerate(schedules) if s != "ExpE"]
        jsonl_at = short[int(rng.integers(len(short)))] if short else -1
        self.work = work
        self.inputs = work / "inputs"
        self.baselines = self.inputs / "baselines.csv"
        self.recordings = []
        for i, name in enumerate(schedules):
            script = woz.script_by_name(name)
            fmt = "jsonl" if i == jsonl_at else "csv"
            sid = f"R{i + 1}-{name}"
            self.recordings.append(
                Recording(
                    sid=sid,
                    script=script,
                    fmt=fmt,
                    baseline_ms=float(rng.uniform(400.0, 600.0)),
                    onsets_ms=[float(o) for o in rng.uniform(150.0, 450.0, size=len(script.triggers))],
                    gen_seed=int(rng.integers(2**31)),
                    path=self.inputs / f"{sid}.{fmt}",
                )
            )
        self.inputs_per_setup = len(self.recordings)
        self.ok_last: dict[str, bool] = {}

    def setup(self) -> None:
        """Generate and write every recording of a round, plus the baselines.

        The previous set-up's files are deleted first: replacing a file by
        truncating it makes ext4 flush the new data at once.
        """
        shutil.rmtree(self.inputs, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        amplitude = VISION_SNR * synth.velocity_noise_std(NOISE_SIGMA, N_LANDMARKS, FPS)
        lines = ["participant,baseline_rt_ms"]
        for r in self.recordings:
            bursts = [
                synth.BurstSpec(
                    onset_ms=onset,
                    burst_sigma_ms=r.baseline_ms / 8.0,
                    burst_amplitude=amplitude,
                    # the detector's pattern peak sits half a kernel after the
                    # onset, less half a frame for the later-frame stamping
                    center_offset_ms=r.baseline_ms / 2.0 - 500.0 / FPS,
                )
                for onset in r.onsets_ms
            ]
            r.stream, _ = synth.gen_pose_stream(
                duration_ms=float(r.script.duration_ms),
                fps=FPS,
                warning_times=r.warnings_ms,
                bursts=bursts,
                noise=synth.NoiseSpec(sigma=NOISE_SIGMA),
                seed=r.gen_seed,
                source_id=r.sid,
            )
            pose.write_pose_stream(r.stream, r.path, format=r.fmt)
            lines.append(f"{r.sid},{r.baseline_ms!r}")
        self.baselines.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def round_ops(self, _round: int):
        return [(r.sid, self._op(r)) for r in self.recordings]

    def _op(self, r: Recording):
        out = self.work / "out" / r.sid
        warnings = ",".join(repr(w) for w in r.warnings_ms)
        argvs = (
            ["ingest", "--input", str(r.path), "--out", str(out / "ingest"), "--canonical"],
            ["detect", "--input", str(r.path), "--baselines", str(self.baselines),
             "--warnings", warnings, "--out", str(out / "detect")],
            ["spectral", "--input", str(r.path), "--out", str(out / "spectral"),
             "--scales", ":".join(str(x) for x in SCALES)],
        )

        def op():
            with contextlib.redirect_stdout(io.StringIO()):
                for argv in argvs:
                    code = cli.main(argv)
                    if code != 0:
                        raise RuntimeError(f"rtkit {argv[0]} on {r.sid} exited with {code}")

        return op

    def before_op(self, key: str) -> None:
        shutil.rmtree(self.work / "out" / key, ignore_errors=True)

    def op_done(self, key: str, result, ok: bool) -> list[str]:
        self.ok_last[key] = ok
        return []

    def finish(self) -> list[str]:
        """Check the outputs each recording's last successful operation left."""
        problems = []
        scales = np.geomspace(SCALES[0], SCALES[1], SCALES[2])
        for r in self.recordings:
            if not self.ok_last.get(r.sid):
                continue
            out = self.work / "out" / r.sid
            v = checks.upper_body_velocity(r.stream)
            problems += checks.check_validation(out / "ingest" / f"{r.sid}_validation.json", r.stream.n_frames)
            problems += checks.check_canonical(out / "ingest" / f"{r.sid}_canonical.jsonl", r.stream)
            problems += checks.check_detection_summary(
                out / "detect" / "detection_summary.csv", dict(zip(r.warnings_ms, r.onsets_ms)), FRAME_MS
            )
            problems += checks.check_spectrum(out / "spectral" / f"{r.sid}_spectrum.csv", v)
            problems += checks.check_cwt(
                out / "spectral" / f"{r.sid}_cwt.json",
                out / "spectral" / f"{r.sid}_cwt.npy",
                scales,
                r.stream.timestamps_ms[1:],
            )
        return problems


# ---------------------------------------------------------------------------
# detector_trials
# ---------------------------------------------------------------------------

LOW_SNR = 2.0
HIGH_SNR = (5.0, 10.0)
# acceptance criterion c03: share within one frame at SNR >= 5, within
# two frames at SNR 2
HIGH_BOUND = 0.99
LOW_BOUND = 0.95


class DetectorTrials:
    """One operation is one ``trials.run_detection_trial``. Each round is
    one trial at an SNR drawn from [5, 10] and one at SNR 2, both on a
    fresh trial seed, so the accuracy check samples distinct streams."""

    name = "detector_trials"
    streams_per_op = 1
    inputs_per_setup = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.hits = {"high": [0, 0], "low": [0, 0]}  # within tolerance, trials

    def setup(self) -> None:
        pass

    def before_op(self, key) -> None:
        pass

    def round_ops(self, k: int):
        trial_seed = self.seed * 1_000_003 + k
        snr = float(np.random.default_rng([self.seed, 2, k]).uniform(*HIGH_SNR))
        return [
            (("high", trial_seed, snr), lambda: trials.run_detection_trial(trial_seed, snr)),
            (("low", trial_seed, LOW_SNR), lambda: trials.run_detection_trial(trial_seed, LOW_SNR)),
        ]

    def op_done(self, key, result, ok: bool) -> list[str]:
        if not ok:
            return []
        band, trial_seed, snr = key
        onset = checks.injected_onset(trial_seed)
        if result.seed != trial_seed or result.snr != snr or result.onset_ms != onset:
            return [f"trial {trial_seed}: seed/snr/onset {result.seed}/{result.snr}/{result.onset_ms} != {trial_seed}/{snr}/{onset}"]
        tol = (FRAME_MS if band == "high" else 2.0 * FRAME_MS) + 1e-9
        hit = result.rt_ms is not None and abs(result.rt_ms - onset) <= tol
        self.hits[band][0] += hit
        self.hits[band][1] += 1
        return []

    def finish(self) -> list[str]:
        problems = []
        for band, bound in (("high", HIGH_BOUND), ("low", LOW_BOUND)):
            hits, n = self.hits[band]
            if not checks.share_holds(hits, n, bound):
                problems.append(f"{band}-SNR trials: {hits}/{n} within tolerance, below the {bound:.0%} bound")
        return problems


# ---------------------------------------------------------------------------
# srt_study
# ---------------------------------------------------------------------------

SRT_SCRIPTS = ("V", "HV", "AV", "HAV")
MAX_RT_MS = woz.DEFAULT_MISS_MS
LATENCY_BUDGET_MS = 10.0
JITTER_SD_MS = 40.0  # trial-to-trial spread around a participant's cell RT
MIN_RT_MS = 50
LATE_PER_STUDY = 13
WITHHELD_PER_STUDY = 13
STUDIES_PER_ROUND = 4
WITHHELD, LATE = -1, -2


@dataclass
class StudyPlan:
    """Per-trigger response plan for one study, drawn at set-up.

    ``jitter[u][m][k]`` moves the response to trigger k of modality m for
    participant-setting unit u; ``status`` marks late and withheld ones.
    Nested lists, so the operation's own indexing stays cheap.
    """

    seed: int
    jitter: list
    status: list
    late_ms: list


@dataclass
class StudyResult:
    logs: list = field(default_factory=list)  # (label, offsets, parsed log, latency report)
    cells: dict = field(default_factory=dict)  # (setting, modality) -> expected per-participant RTs
    records: list = field(default_factory=list)  # as read back from records.csv
    summaries: dict = field(default_factory=dict)
    grid: object = None
    paired: list = field(default_factory=list)  # (warning, a, b, result)


def _event_time(e) -> tuple[int, int]:
    if isinstance(e, woz.TriggerEvent):
        return e.dispatched_ms, 0
    if isinstance(e, woz.AckEvent):
        return e.recv_ms, 1
    return e.response_ms, 2


class SrtStudy:
    """One operation is one replicated SRT study, from generated reaction
    times through event logs and records to the report tables."""

    name = "srt_study"
    streams_per_op = 0

    def __init__(self, seed: int, work: Path, cells=synth.REFERENCE_SRT_CELLS, studies=STUDIES_PER_ROUND):
        self.seed = seed
        self.work = work
        self.cells = tuple(cells)
        self.studies = studies
        self.inputs_per_setup = studies
        n_per_setting: dict = {}
        for c in self.cells:
            n_per_setting[c.setting] = max(n_per_setting.get(c.setting, 0), c.n)
        self.units = sum(n_per_setting.values())
        self.plans: list[StudyPlan] = []

    def setup(self) -> None:
        """Draw each study's seed and response plan."""
        self.scripts = [woz.script_by_name(m) for m in SRT_SCRIPTS]
        n_trig = len(self.scripts[0].triggers)
        shape = (self.units, len(SRT_SCRIPTS), n_trig)
        self.plans = []
        for j in range(self.studies):
            rng = np.random.default_rng([self.seed, 3, j])
            status = np.zeros(shape, dtype=int)
            picks = rng.choice(status.size, LATE_PER_STUDY + WITHHELD_PER_STUDY, replace=False)
            status.flat[picks[:LATE_PER_STUDY]] = LATE
            status.flat[picks[LATE_PER_STUDY:]] = WITHHELD
            self.plans.append(
                StudyPlan(
                    seed=int(rng.integers(2**31)),
                    jitter=rng.normal(0.0, JITTER_SD_MS, size=shape).tolist(),
                    status=status.tolist(),
                    late_ms=(MAX_RT_MS + rng.integers(1, 1001, size=shape)).tolist(),
                )
            )

    def round_ops(self, _round: int):
        return [(j, (lambda plan=plan, j=j: self._study(j, plan))) for j, plan in enumerate(self.plans)]

    def _study(self, j: int, plan: StudyPlan) -> StudyResult:
        out = self.work / f"study{j}"
        logs_dir = out / "logs"
        logs_dir.mkdir(parents=True, exist_ok=True)
        res = StudyResult()
        written = []
        units: dict[tuple, dict[str, float]] = {}
        for r in synth.gen_srt_dataset(self.cells, seed=plan.seed):
            units.setdefault((r.participant, r.setting), {})[r.modality] = r.rt_ms
        for u, ((participant, setting), rts) in enumerate(units.items()):
            order = woz.randomize_session(self.scripts, seed=plan.seed + u)
            for script in order:
                m = SRT_SCRIPTS.index(script.name)
                triggers = woz.run_scenario(script, woz.SimClock(), woz.ListTransport())
                acks = woz.simulate_acks(triggers, seed=plan.seed + 8 * u + m)
                offsets: list[int | None] = []
                responses = []
                for k, t in enumerate(triggers):
                    status = plan.status[u][m][k]
                    if status == WITHHELD:
                        offsets.append(None)
                        continue
                    if status == LATE:
                        off = plan.late_ms[u][m][k]
                    else:
                        off = max(MIN_RT_MS, round(rts[script.name] + plan.jitter[u][m][k]))
                    offsets.append(off)
                    responses.append(woz.ResponseEvent(t.seq, t.dispatched_ms + off))
                path = logs_dir / f"{participant}_{setting.value}_{script.name}.log"
                woz.write_event_log(sorted([*triggers, *acks, *responses], key=_event_time), path)
                log = woz.parse_event_log(path, max_rt_ms=MAX_RT_MS)
                latency = woz.latency_budget_check(log.triggers, log.acks, budget_ms=LATENCY_BUDGET_MS)
                res.logs.append((path.name, offsets, log, latency))
                timely = [e.rt_ms for e in log.srt_events if not e.is_miss]
                if timely:
                    written.append(stats.ReactionRecord(participant, setting, script.name, sum(timely) / len(timely)))
                expected = [o for o in offsets if o is not None and o <= MAX_RT_MS]
                if expected:
                    res.cells.setdefault((setting, script.name), []).append(sum(expected) / len(expected))
        stats.write_records_csv(written, out / "records.csv")
        res.records = stats.read_records_csv(out / "records.csv")
        res.summaries = stats.summary_table(res.records)
        res.grid = stats.significance_grid(res.records)
        for w, vcells in synth.REFERENCE_VISION_CELLS.items():
            vrecs = synth.gen_srt_dataset(vcells, seed=plan.seed + w)
            vis = {r.participant: r.rt_ms for r in vrecs if r.setting is stats.Setting.VISION_E}
            ref = {r.participant: r.rt_ms for r in vrecs if r.setting is stats.Setting.VR_WT}
            shared = sorted(vis)
            a, b = [vis[p] for p in shared], [ref[p] for p in shared]
            res.paired.append((w, a, b, stats.paired_ttest(a, b)))
        stats.write_summary_csv(res.summaries, out / "summary.csv")
        stats.write_settings_grid_csv(res.grid, out / "grid_settings.csv")
        stats.write_modalities_grid_csv(res.grid, out / "grid_modalities.csv")
        return res

    def before_op(self, j: int) -> None:
        shutil.rmtree(self.work / f"study{j}", ignore_errors=True)

    def op_done(self, j: int, res: StudyResult, ok: bool) -> list[str]:
        if not ok:
            return []
        problems = []
        for label, offsets, log, latency in res.logs:
            problems += checks.check_srt_log(f"study {j} {label}", log, latency, offsets, MAX_RT_MS)
        if len(res.records) != sum(len(v) for v in res.cells.values()):
            problems.append(f"study {j}: {len(res.records)} records read back")
        for (m, s), summary in res.summaries.items():
            problems += checks.check_summary(f"study {j} {s.value}/{m}", summary, res.cells[(s, m)])
        tests = [
            *(((m, s1.value, s2.value), r, res.cells[(s1, m)], res.cells[(s2, m)])
              for (m, s1, s2), r in res.grid.settings_grid.items()),
            *(((s.value, m1, m2), r, res.cells[(s, m1)], res.cells[(s, m2)])
              for (s, m1, m2), r in res.grid.modalities_grid.items()),
        ]
        n_set, n_mod = len({s for s, _ in res.cells}), len({m for _, m in res.cells})
        expected = n_mod * n_set * (n_set - 1) // 2 + n_set * n_mod * (n_mod - 1) // 2
        if len(tests) != expected:
            problems.append(f"study {j}: {len(tests)} grid tests, expected {expected}")
        for key, r, a, b in tests:
            problems += checks.check_ttest(f"study {j} welch {key}", r, a, b)
        for w, a, b, r in res.paired:
            problems += checks.check_ttest(f"study {j} paired warning {w}", r, a, b)
        return problems

    def finish(self) -> list[str]:
        return []  # each operation was checked when it ended


def make(name: str, seed: int, work: Path):
    """A fresh workload by name, working under ``work`` (emptied first)."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if name == "vision_session":
        return VisionSession(seed, work)
    if name == "detector_trials":
        return DetectorTrials(seed)
    if name == "srt_study":
        return SrtStudy(seed, work)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("vision_session", "detector_trials", "srt_study")

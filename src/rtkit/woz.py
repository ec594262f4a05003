"""Scripted warning scenarios: scheduling, dispatch, and event-log parsing.

A scenario is a fixed list of (time, modality) triggers executed against an
abstract monotonic clock. All cues of a multimodal trigger fire as one
message, with no intentional stagger. The wire format is line-delimited
UTF-8 over any ordered reliable transport:

    TRIG <seq> <modality> <scheduled_ms> <dispatched_ms>
    ACK  <seq> <recv_ms>
    RESP <seq> <response_ms>

Event-log files carry the same lines, one per event in dispatch order,
behind a version header line (``# woz-log v1``). Millisecond fields are
integers; wall-clock readings are rounded.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

from .errors import ParseError, TransportError

LOG_HEADER = "# woz-log v1"
DEFAULT_MISS_MS = 5000
MODALITIES = ("V", "AV", "HV", "HAV")
_MODALITY = {m: m for m in MODALITIES}  # a parsed TRIG keeps the shared string, not its own copy


@dataclass(frozen=True)
class ScenarioScript:
    """A named warning schedule: a duration above 0 and strictly increasing trigger times inside it."""

    name: str
    duration_ms: int
    triggers: tuple[tuple[int, str], ...]  # (t_ms, modality)

    def __post_init__(self):
        if self.duration_ms <= 0:
            raise ValueError(f"{self.name}: duration {self.duration_ms} ms is not above 0")
        last = -1
        for t_ms, modality in self.triggers:
            if modality not in MODALITIES:
                raise ValueError(f"{self.name}: unknown modality {modality!r}")
            if t_ms < 0:
                raise ValueError(f"{self.name}: trigger at {t_ms} ms is before the start")
            if t_ms <= last:
                raise ValueError(f"{self.name}: trigger times must be strictly increasing")
            if t_ms >= self.duration_ms:
                raise ValueError(f"{self.name}: trigger at {t_ms} ms not inside {self.duration_ms} ms")
            last = t_ms


def _script(name: str, duration_s: int, modality: str, seconds: Sequence[int]) -> ScenarioScript:
    return ScenarioScript(
        name=name,
        duration_ms=duration_s * 1000,
        triggers=tuple((s * 1000, modality) for s in seconds),
    )


def builtin_scripts() -> list[ScenarioScript]:
    """The five stock schedules (four 45 s single-modality runs plus the
    60 s two-trigger HAV run used for the vision-based sessions)."""
    return [
        _script("V", 45, "V", (10, 20, 28, 33, 36)),
        _script("HV", 45, "HV", (15, 25, 28, 33, 36)),
        _script("AV", 45, "AV", (17, 21, 28, 35, 38)),
        _script("HAV", 45, "HAV", (12, 17, 22, 24, 27)),
        _script("ExpE", 60, "HAV", (25, 45)),
    ]


def script_by_name(name: str) -> ScenarioScript:
    for s in builtin_scripts():
        if s.name == name:
            return s
    raise KeyError(f"unknown script {name!r}; builtin: {[s.name for s in builtin_scripts()]}")


def randomize_session(scripts: Sequence[ScenarioScript], seed: int) -> list[ScenarioScript]:
    """Deterministic uniform permutation of the scripts for one session."""
    if not scripts:
        raise ValueError("no scripts to order")
    order = list(scripts)
    random.Random(seed).shuffle(order)
    return order


# ---------------------------------------------------------------------------
# clocks & transports
# ---------------------------------------------------------------------------


class Clock(Protocol):
    def now_ms(self) -> float: ...

    def sleep_until(self, t_ms: float) -> None: ...


class SimClock:
    """Deterministic clock: sleeping jumps straight to the target time."""

    def __init__(self):
        self._now = 0.0

    def now_ms(self) -> float:
        return self._now

    def sleep_until(self, t_ms: float) -> None:
        if t_ms > self._now:
            self._now = float(t_ms)


class WallClock:
    """Monotonic wall clock, origin at construction."""

    def __init__(self):
        self._t0 = time.monotonic()

    def now_ms(self) -> float:
        return (time.monotonic() - self._t0) * 1000.0

    def sleep_until(self, t_ms: float) -> None:
        delta = (t_ms - self.now_ms()) / 1000.0
        if delta > 0:
            time.sleep(delta)


class Transport(Protocol):
    def send(self, line: str) -> None: ...


class ListTransport:
    """Collects dispatched lines in memory."""

    def __init__(self):
        self.lines: list[str] = []

    def send(self, line: str) -> None:
        self.lines.append(line)


# ---------------------------------------------------------------------------
# events & execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TriggerEvent:
    seq: int
    scheduled_ms: int
    dispatched_ms: int
    modality: str

    def line(self) -> str:
        return f"TRIG {self.seq} {self.modality} {self.scheduled_ms} {self.dispatched_ms}"


@dataclass(frozen=True, slots=True)
class AckEvent:
    seq: int
    recv_ms: int

    def line(self) -> str:
        return f"ACK {self.seq} {self.recv_ms}"


@dataclass(frozen=True, slots=True)
class ResponseEvent:
    seq: int
    response_ms: int

    def line(self) -> str:
        return f"RESP {self.seq} {self.response_ms}"


@dataclass(frozen=True, slots=True)
class SrtEvent:
    """One paired trigger/response measurement."""

    trigger_seq: int
    trigger_ms: int
    response_ms: int
    rt_ms: int
    is_miss: bool = False


def run_scenario(script: ScenarioScript, clock: Clock, sink: Transport) -> list[TriggerEvent]:
    """Dispatch every trigger at its scheduled time on the given clock.

    A sink failure aborts the run with TransportError; events dispatched so
    far are preserved on the exception's ``events`` attribute.
    """
    events: list[TriggerEvent] = []
    for seq, (t_ms, modality) in enumerate(script.triggers, start=1):
        clock.sleep_until(t_ms)
        dispatched = int(round(clock.now_ms()))
        event = TriggerEvent(seq=seq, scheduled_ms=t_ms, dispatched_ms=dispatched, modality=modality)
        try:
            sink.send(event.line() + "\n")
        except Exception as exc:
            raise TransportError(f"dispatch of trigger {seq} failed: {exc}", events=events) from exc
        events.append(event)
    return events


def format_event_log(events: Sequence[TriggerEvent | AckEvent | ResponseEvent]) -> str:
    lines = [LOG_HEADER]
    lines.extend(e.line() for e in events)
    return "\n".join(lines) + "\n"


def write_event_log(events, path: str | Path) -> None:
    Path(path).write_text(format_event_log(events), encoding="utf-8")


@dataclass(slots=True)
class ParsedLog:
    """Event-log contents: triggers, acks and paired SRT measurements."""

    triggers: list[TriggerEvent]
    acks: list[AckEvent]
    responses: list[ResponseEvent]
    srt_events: list[SrtEvent]
    orphan_responses: list[ResponseEvent]
    missed_triggers: list[int]  # seqs with no (timely) response


def parse_event_log(path: str | Path, max_rt_ms: int = DEFAULT_MISS_MS) -> ParsedLog:
    """Parse a wire-format log and pair triggers with responses.

    Each trigger seq may appear once; a repeated TRIG seq (as in two script
    runs written into one log) raises ParseError at the repeated line. A
    trigger is paired with its first response, in log order, after its
    dispatch. Responses with no such trigger, and later responses to an
    already paired trigger, are flagged as orphans; triggers whose response
    exceeds ``max_rt_ms`` (or never arrives) are flagged as misses. A
    comment on line 1 must be ``LOG_HEADER`` exactly, and a TRIG modality
    must be one of ``MODALITIES``. Raises ParseError with the offending line
    number.
    """
    triggers: list[TriggerEvent] = []
    acks: list[AckEvent] = []
    responses: list[ResponseEvent] = []
    by_seq: dict[int, TriggerEvent] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line_no == 1 and line != LOG_HEADER:
                    raise ParseError(f"unrecognized log header {line!r}; expected {LOG_HEADER!r}", line=line_no)
                continue
            parts = line.split()
            try:
                if parts[0] == "TRIG" and len(parts) == 5:
                    modality = _MODALITY.get(parts[2])
                    if modality is None:
                        raise ParseError(f"unknown modality {parts[2]!r} in {line!r}", line=line_no)
                    trig = TriggerEvent(int(parts[1]), int(parts[3]), int(parts[4]), modality)
                    if trig.seq in by_seq:
                        raise ParseError(f"repeated trigger seq {trig.seq}", line=line_no)
                    by_seq[trig.seq] = trig
                    triggers.append(trig)
                elif parts[0] == "ACK" and len(parts) == 3:
                    acks.append(AckEvent(int(parts[1]), int(parts[2])))
                elif parts[0] == "RESP" and len(parts) == 3:
                    responses.append(ResponseEvent(int(parts[1]), int(parts[2])))
                else:
                    raise ParseError(f"unrecognized event line {line!r}", line=line_no)
            except (ValueError, IndexError) as exc:
                raise ParseError(f"bad event line {line!r}: {exc}", line=line_no) from exc

    srt_events: list[SrtEvent] = []
    orphans: list[ResponseEvent] = []
    responded: set[int] = set()
    for resp in responses:
        trig = by_seq.get(resp.seq)
        if trig is None or resp.response_ms <= trig.dispatched_ms or trig.seq in responded:
            orphans.append(resp)
            continue
        rt = resp.response_ms - trig.dispatched_ms
        srt_events.append(
            SrtEvent(
                trigger_seq=trig.seq,
                trigger_ms=trig.dispatched_ms,
                response_ms=resp.response_ms,
                rt_ms=rt,
                is_miss=rt > max_rt_ms,
            )
        )
        responded.add(trig.seq)
    missed = sorted(
        {t.seq for t in triggers if t.seq not in responded}
        | {e.trigger_seq for e in srt_events if e.is_miss}
    )
    return ParsedLog(
        triggers=triggers,
        acks=acks,
        responses=responses,
        srt_events=srt_events,
        orphan_responses=orphans,
        missed_triggers=missed,
    )


# ---------------------------------------------------------------------------
# transport latency budget
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class LatencyReport:
    budget_ms: float
    latencies_ms: dict[int, int]  # seq -> ack latency
    failures: list[int]  # seqs over budget
    p99_ms: float
    orphan_acks: list[AckEvent]  # acks for a seq no trigger has
    repeated_acks: list[AckEvent]  # acks after the first for a seq

    @property
    def all_pass(self) -> bool:
        return not self.failures


def latency_budget_check(
    triggers: Sequence[TriggerEvent],
    acks: Sequence[AckEvent],
    budget_ms: float = 10.0,
) -> LatencyReport:
    """Per-event transport latency (first ack minus dispatch) against a budget.

    ``p99_ms`` is the 99th percentile interpolated as ``np.percentile``
    does by default (Hyndman & Fan 1996 type 7), bit for bit.
    """
    sent = {t.seq: t.dispatched_ms for t in triggers}
    latencies: dict[int, int] = {}
    orphans, repeated = [], []
    for ack in acks:
        if ack.seq not in sent:
            orphans.append(ack)
        elif ack.seq in latencies:
            repeated.append(ack)
        else:
            latencies[ack.seq] = ack.recv_ms - sent[ack.seq]
    failures = sorted([seq for seq, lat in latencies.items() if lat >= budget_ms])
    p99 = _p99(sorted(latencies.values())) if latencies else 0.0
    return LatencyReport(budget_ms, latencies, failures, p99, orphans, repeated)


def _p99(v: list) -> float:
    # numpy's lerp, which interpolates from the nearer of the two order statistics
    h = (len(v) - 1) * 0.99
    j = int(h)
    g = h - j
    a, b = v[j], v[min(j + 1, len(v) - 1)]
    return float(a + (b - a) * g) if g < 0.5 else float(b - (b - a) * (1 - g))


def simulate_acks(
    triggers: Sequence[TriggerEvent],
    seed: int,
    delay_low_ms: int = 0,
    delay_high_ms: int = 9,
) -> list[AckEvent]:
    """Endpoint acknowledgements with seeded uniform integer delays."""
    rng = random.Random(seed)
    return [
        AckEvent(t.seq, t.dispatched_ms + rng.randint(delay_low_ms, delay_high_ms))
        for t in triggers
    ]

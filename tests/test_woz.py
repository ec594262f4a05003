import copy
import dataclasses
import gc
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtkit.errors import ParseError, TransportError
from rtkit.woz import (
    MODALITIES,
    AckEvent,
    ListTransport,
    ResponseEvent,
    ScenarioScript,
    SimClock,
    TriggerEvent,
    WallClock,
    builtin_scripts,
    format_event_log,
    latency_budget_check,
    parse_event_log,
    randomize_session,
    run_scenario,
    script_by_name,
    simulate_acks,
    write_event_log,
)


class FailingTransport:
    """Raises after ``fail_after`` successful sends."""

    def __init__(self, fail_after: int):
        self.fail_after = fail_after
        self.lines: list[str] = []

    def send(self, line: str) -> None:
        if len(self.lines) >= self.fail_after:
            raise OSError("transport down")
        self.lines.append(line)


EXPECTED_SCHEDULES = {
    "V": [10, 20, 28, 33, 36],
    "HV": [15, 25, 28, 33, 36],
    "AV": [17, 21, 28, 35, 38],
    "HAV": [12, 17, 22, 24, 27],
    "ExpE": [25, 45],
}


def test_builtin_scripts_exact_schedules():
    scripts = {s.name: s for s in builtin_scripts()}
    assert set(scripts) == set(EXPECTED_SCHEDULES)
    for name, seconds in EXPECTED_SCHEDULES.items():
        assert [t for t, _ in scripts[name].triggers] == [s * 1000 for s in seconds]
    for name in ("V", "HV", "AV", "HAV"):
        assert scripts[name].duration_ms == 45000
        assert len(scripts[name].triggers) == 5
        assert all(m == name for _, m in scripts[name].triggers)
    assert scripts["ExpE"].duration_ms == 60000
    assert all(m == "HAV" for _, m in scripts["ExpE"].triggers)


def test_script_validation():
    with pytest.raises(ValueError):
        ScenarioScript("bad", 45000, ((10000, "V"), (10000, "V")))
    with pytest.raises(ValueError):
        ScenarioScript("bad", 45000, ((50000, "V"),))
    with pytest.raises(ValueError):
        ScenarioScript("bad", 45000, ((1000, "X"),))


def test_script_times_start_at_zero_and_duration_is_above_zero():
    assert ScenarioScript("start", 1000, ((0, "V"),)).triggers == ((0, "V"),)
    # a single negative trigger is named for itself, not as a fault of the trigger order
    with pytest.raises(ValueError, match=r"^bad: trigger at -1000 ms is before the start$"):
        ScenarioScript("bad", 45000, ((-1000, "V"),))
    for duration in (0, -5):
        with pytest.raises(ValueError, match=rf"^bad: duration {duration} ms is not above 0$"):
            ScenarioScript("bad", duration, ())


def test_unknown_script_name():
    with pytest.raises(KeyError):
        script_by_name("Z")


def test_randomize_session_deterministic():
    scripts = builtin_scripts()[:4]
    a = randomize_session(scripts, seed=99)
    b = randomize_session(scripts, seed=99)
    assert [s.name for s in a] == [s.name for s in b]
    assert sorted(s.name for s in a) == sorted(s.name for s in scripts)


def test_randomize_session_varies_across_seeds():
    scripts = builtin_scripts()[:4]
    orders = {tuple(s.name for s in randomize_session(scripts, seed)) for seed in range(100)}
    assert len(orders) >= 2


def test_randomize_single_script_identity():
    scripts = [script_by_name("V")]
    assert [s.name for s in randomize_session(scripts, 0)] == ["V"]


def test_run_scenario_sim_clock_zero_jitter():
    events = run_scenario(script_by_name("V"), SimClock(), ListTransport())
    assert [e.scheduled_ms for e in events] == [10000, 20000, 28000, 33000, 36000]
    assert all(e.dispatched_ms == e.scheduled_ms for e in events)
    assert [e.seq for e in events] == [1, 2, 3, 4, 5]


def test_run_scenario_byte_stable():
    logs = []
    for _ in range(2):
        events = run_scenario(script_by_name("HAV"), SimClock(), ListTransport())
        logs.append(format_event_log(events))
    assert logs[0] == logs[1]
    assert logs[0].startswith("# woz-log v1\n")


def test_run_scenario_transport_failure_preserves_partial_log():
    sink = FailingTransport(fail_after=2)
    with pytest.raises(TransportError) as exc:
        run_scenario(script_by_name("V"), SimClock(), sink)
    assert [e.seq for e in exc.value.events] == [1, 2]


def test_run_scenario_wall_clock_smoke():
    script = ScenarioScript("quick", 100, ((10, "V"), (30, "V")))
    events = run_scenario(script, WallClock(), ListTransport())
    assert all(e.dispatched_ms >= e.scheduled_ms for e in events)


def test_parse_event_log_pairs_and_rt(tmp_path):
    path = tmp_path / "log.txt"
    path.write_text(
        "# woz-log v1\n"
        "TRIG 1 V 10000 10000\n"
        "RESP 1 10500\n"
    )
    log = parse_event_log(path)
    assert len(log.srt_events) == 1
    e = log.srt_events[0]
    assert e.rt_ms == 500
    assert not e.is_miss
    assert log.missed_triggers == []


def test_parse_event_log_orphan_response(tmp_path):
    path = tmp_path / "log.txt"
    path.write_text("# woz-log v1\nTRIG 1 V 10000 10000\nRESP 7 10500\n")
    log = parse_event_log(path)
    assert [r.seq for r in log.orphan_responses] == [7]
    assert log.missed_triggers == [1]


def test_parse_event_log_miss_rules(tmp_path):
    path = tmp_path / "log.txt"
    path.write_text(
        "# woz-log v1\n"
        "TRIG 1 V 10000 10000\n"
        "TRIG 2 V 20000 20000\n"
        "RESP 2 26000\n"  # rt 6000 > 5000 default
    )
    log = parse_event_log(path)
    assert log.missed_triggers == [1, 2]
    assert log.srt_events[0].is_miss


def test_parse_event_log_repeated_trigger_seq(tmp_path):
    # two script runs written into one log restart their seqs at 1
    path = tmp_path / "log.txt"
    path.write_text(
        "# woz-log v1\n"
        "TRIG 1 V 10000 10000\n"
        "TRIG 2 V 20000 20000\n"
        "TRIG 1 HV 10000 10000\n"
    )
    with pytest.raises(ParseError, match="line 4: repeated trigger seq 1"):
        parse_event_log(path)


def test_parse_event_log_first_response_wins(tmp_path):
    path = tmp_path / "log.txt"
    path.write_text(
        "# woz-log v1\n"
        "TRIG 1 V 10000 10000\n"
        "RESP 1 9900\n"  # before dispatch: orphan, does not pair
        "RESP 1 10400\n"
        "RESP 1 10900\n"
    )
    log = parse_event_log(path)
    assert [e.rt_ms for e in log.srt_events] == [400]
    assert [r.response_ms for r in log.orphan_responses] == [9900, 10900]
    assert log.missed_triggers == []


def test_parse_event_log_bad_line_number(tmp_path):
    path = tmp_path / "log.txt"
    path.write_text("# woz-log v1\nTRIG 1 V 10000 10000\nTRIG x V 1 1\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_event_log(path)


@pytest.mark.parametrize("modality", ["XX", "hav"])
def test_parse_event_log_unknown_modality(tmp_path, modality):
    path = tmp_path / "log.txt"
    path.write_text(f"# woz-log v1\nTRIG 1 V 10000 10000\nTRIG 2 {modality} 20000 20000\n")
    with pytest.raises(ParseError, match="line 3: unknown modality"):
        parse_event_log(path)


@pytest.mark.parametrize("header", ["# woz-log v7", "# woz-log v1.0", "# woz-log", "# a note"])
def test_parse_event_log_header_is_exact(tmp_path, header):
    path = tmp_path / "log.txt"
    path.write_text(f"{header}\nTRIG 1 V 10000 10000\n")
    with pytest.raises(ParseError, match="line 1: unrecognized log header"):
        parse_event_log(path)


def test_event_log_roundtrip(tmp_path):
    events = run_scenario(script_by_name("AV"), SimClock(), ListTransport())
    path = tmp_path / "log.txt"
    write_event_log(events, path)
    log = parse_event_log(path)
    assert log.triggers == events


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_sim_determinism_property(seed):
    order = randomize_session(builtin_scripts(), seed)
    runs = []
    for _ in range(2):
        lines = []
        for script in order:
            lines.append(format_event_log(run_scenario(script, SimClock(), ListTransport())))
        runs.append("".join(lines))
    assert runs[0] == runs[1]


# --- latency budget -----------------------------------------------------------


def test_latency_fixed_delay_passes():
    triggers = run_scenario(script_by_name("V"), SimClock(), ListTransport())
    acks = [type(a)(a.seq, a.recv_ms) for a in simulate_acks(triggers, seed=0, delay_low_ms=2, delay_high_ms=2)]
    report = latency_budget_check(triggers, acks)
    assert report.all_pass
    assert all(v == 2 for v in report.latencies_ms.values())


def test_latency_injected_delay_fails_budget():
    triggers = run_scenario(script_by_name("V"), SimClock(), ListTransport())
    acks = simulate_acks(triggers, seed=0, delay_low_ms=2, delay_high_ms=2)
    acks[2] = type(acks[2])(acks[2].seq, triggers[2].dispatched_ms + 15)
    report = latency_budget_check(triggers, acks)
    assert not report.all_pass
    assert report.failures == [acks[2].seq]


def test_latency_uniform_thousand_events():
    script = ScenarioScript(
        "bulk", 1000 * 1001, tuple((1000 * (i + 1), "HAV") for i in range(1000))
    )
    triggers = run_scenario(script, SimClock(), ListTransport())
    acks = simulate_acks(triggers, seed=7, delay_low_ms=0, delay_high_ms=9)
    report = latency_budget_check(triggers, acks)
    assert report.all_pass
    assert report.p99_ms < 10.0


@settings(max_examples=200, deadline=None)
@given(latencies=st.lists(st.integers(min_value=-10**9, max_value=10**9), min_size=1, max_size=60))
def test_latency_p99_equals_numpy_percentile(latencies):
    triggers = [TriggerEvent(seq, 0, 0, "V") for seq in range(1, len(latencies) + 1)]
    acks = [AckEvent(seq, lat) for seq, lat in enumerate(latencies, start=1)]
    assert latency_budget_check(triggers, acks).p99_ms == float(np.percentile(latencies, 99))


def test_latency_reports_orphan_and_repeated_acks():
    triggers = run_scenario(script_by_name("V"), SimClock(), ListTransport())
    first, second = triggers[0], triggers[1]
    acks = [
        AckEvent(first.seq, first.dispatched_ms + 3),
        AckEvent(99, 5),
        AckEvent(first.seq, first.dispatched_ms + 40),
        AckEvent(second.seq, second.dispatched_ms + 4),
    ]
    report = latency_budget_check(triggers, acks)
    assert report.latencies_ms == {first.seq: 3, second.seq: 4}
    assert report.orphan_acks == [acks[1]]
    assert report.repeated_acks == [acks[2]]
    assert report.all_pass


# --- slotted value classes ------------------------------------------------------


def write_study_log(path, script_name, seed):
    """One session log as a study writes it: the script's triggers, their acks and a response to each, in time order."""
    triggers = run_scenario(script_by_name(script_name), SimClock(), ListTransport())
    acks = simulate_acks(triggers, seed=seed)
    responses = [ResponseEvent(t.seq, t.dispatched_ms + 350 + 7 * seed + t.seq) for t in triggers]
    timed = [(t.dispatched_ms, 0, t) for t in triggers] + [(a.recv_ms, 1, a) for a in acks]
    timed += [(r.response_ms, 2, r) for r in responses]
    write_event_log([e for *_, e in sorted(timed, key=lambda x: x[:2])], path)
    return path


def test_event_objects_are_slotted_and_copy_round_trip(tmp_path):
    log = parse_event_log(write_study_log(tmp_path / "hav.log", "HAV", 3))
    report = latency_budget_check(log.triggers, log.acks)
    values = [log.triggers[0], log.acks[0], log.responses[0], log.srt_events[0], log, report]
    assert [type(v).__name__ for v in values] == [
        "TriggerEvent", "AckEvent", "ResponseEvent", "SrtEvent", "ParsedLog", "LatencyReport"
    ]
    for value in values:
        assert not hasattr(value, "__dict__"), type(value).__name__
        for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), dataclasses.replace(value)):
            assert type(back) is type(value) and back == value and repr(back) == repr(value)
    trig = values[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        trig.seq = 9
    assert dataclasses.replace(trig, seq=9) == TriggerEvent(9, trig.scheduled_ms, trig.dispatched_ms, "HAV")


def test_parsed_trigger_modality_is_the_shared_string(tmp_path):
    for i, name in enumerate(MODALITIES):
        log = parse_event_log(write_study_log(tmp_path / f"{name}.log", name, 1))
        assert len(log.triggers) == 5 and all(t.modality is MODALITIES[i] for t in log.triggers)


def test_parsed_logs_hold_little_memory(tmp_path):
    # 5 TRIG, 5 ACK and 5 RESP lines per log: slotted events and shared modality strings hold about 3.3 kB per
    # parsed log and its latency report; with a __dict__ per object and a string per trigger it was 4.5 kB
    paths = [write_study_log(tmp_path / f"{i}_{name}.log", name, i) for i in range(10) for name in MODALITIES]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = []
        for path in paths:
            log = parse_event_log(path)
            held.append((log, latency_budget_check(log.triggers, log.acks)))
        gc.collect()
        per_log = (tracemalloc.get_traced_memory()[0] - before) / len(paths)
    finally:
        tracemalloc.stop()
    assert all(len(log.triggers) == len(log.acks) == len(log.srt_events) == 5 for log, _ in held)
    assert per_log < 3800, f"{per_log:.0f} B held per parsed log"

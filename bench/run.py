#!/usr/bin/env python3
"""rtkit benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload vision_session --seed 1 --seconds 20 --trace 0

Runs from a checkout of the repository and imports rtkit from its
``src/``. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics (setup_s, ops_per_s, op_ms_p50,
peak_rss_mb); with ``--trace 1`` it holds the per-layer metrics of a
traced run, and the spans are written to ``bench/out/<workload>.spans.csv``.
Inputs and outputs live under ``bench/out/<workload>/``, which is removed
at the end of a run whose checks all pass.
"""

import time

_T0 = time.perf_counter()  # set-up time counts the imports of rtkit

import argparse
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPS = 3
MAX_TRACEBACKS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _call(tracer, op_id, span: str, fn):
    """``fn()``, inside a span tagged with ``op_id`` when tracing."""
    if tracer is None:
        return fn()
    tracer.op_id = op_id
    return tracer.span(span, fn)


def run(workload, seconds: float, tracer=None) -> dict:
    """Set up SETUP_REPS times, warm up, then run whole rounds until
    ``seconds`` pass."""
    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        _call(tracer, "setup", "setup", workload.setup)
        setups.append(time.perf_counter() - t0)

    # one untimed operation first, so first-call costs (lazy imports, code
    # paths never run before) stay out of the timed run
    key, op = workload.round_ops(0)[0]
    workload.before_op(key)
    _call(tracer, "warmup", "op", op)

    durations, problems = [], []
    attempted = failed = rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() < deadline:
        for key, op in workload.round_ops(rounds):
            attempted += 1
            workload.before_op(key)
            t0 = time.perf_counter()
            try:
                result = _call(tracer, attempted, "op", op)
            except (Exception, SystemExit):
                failed += 1
                if failed <= MAX_TRACEBACKS:
                    traceback.print_exc(file=sys.stderr)
                problems += workload.op_done(key, None, False)
                continue
            durations.append(time.perf_counter() - t0)
            problems += workload.op_done(key, result, True)
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += workload.finish()
    return {
        "peak_rss_mb": peak_rss_mb,
        "setups": setups,
        "durations": durations,
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "problems": problems,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "rtkit" / "__init__.py").is_file():
        print(f"error: no rtkit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import rtkit.cli  # noqa: F401  (imports every rtkit module)

    import_s = time.perf_counter() - _T0
    # the benchmark's own modules (scipy.stats among them) load after the
    # clock stops, so set-up time is the program's
    import layers
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    out = BENCH / "out"
    work = out / args.workload
    workload = workloads.make(args.workload, args.seed, work)
    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
    try:
        res = run(workload, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.unwrap_all()

    durations = res["durations"]
    ops = len(durations)
    busy = sum(durations)
    ops_per_s = ops / busy if busy else 0.0
    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not res["problems"] and ops > 0
    if correct:
        # inputs and outputs stay only where a check failed
        shutil.rmtree(work)

    if tracer is None:
        setup_s = import_s + statistics.median(res["setups"])
        p50_ms = statistics.median(durations) * 1000.0 if durations else 0.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "op/s"},
            "op_ms_p50": {"value": p50_ms, "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        print(
            f"{args.workload} seed {args.seed}: {ops} op(s) in {res['rounds']} round(s); "
            f"op_ms_p50 {p50_ms:.3f} ms over {ops} samples; ops_per_s {ops_per_s:.4f}; "
            f"setup_s {setup_s:.4f} (imports {import_s:.4f} + median of {SETUP_REPS} set-ups "
            f"{', '.join(f'{s:.4f}' for s in res['setups'])})"
        )
    else:
        metrics = layers.layer_metrics(
            tracer,
            ops=ops or 1,
            setup_inputs=SETUP_REPS * workload.inputs_per_setup,
            streams_per_op=workload.streams_per_op,
            traced_ops_per_s=ops_per_s,
        )
        spans = out / f"{args.workload}.spans.csv"
        tracer.dump(spans)
        print(f"{args.workload} seed {args.seed}: traced {ops} op(s), {len(tracer.spans)} spans -> {spans}")

    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

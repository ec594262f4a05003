#!/usr/bin/env python3
"""Interleaved A/B runs of the benchmark: a base revision against the working tree.

    python scripts/bench_ab.py --base HEAD~1 --workloads detector_trials srt_study \\
        --pairs 10 --seconds 10 --out BENCH.json

Each side is a fresh copy: the base is ``git archive <rev> | tar -x`` into a
temporary directory, the change is the working tree's files (tracked and
untracked, less what .gitignore excludes). Each pair runs ``bench/run.py
--workload W --seed S --seconds T`` once per side, as a fresh process with
that side's own benchmark, on the same seed; pair i (from 0) uses seed
1 + i, and the side that runs first alternates from pair to pair.

For each end-to-end metric the output JSON holds the per-pair ratios
change/base, their median with a bootstrap 95% interval, the number of pairs
the change won (by the metric's direction in BENCHMARK.json), and each
side's median and quartiles, with three verdicts: ``gain_resolved`` (over
at least 10 pairs, the change won at least 9/10 of them and the medians
differ, its way, by more than the wider of the two sides' interquartile
ranges), ``regressed`` (the change's median is worse than the base's by more
than the metric's ``bound`` in BENCHMARK.json, a fraction of the base median)
and ``unresolved`` (the base's interquartile range is wider than that bound
of its median, so a regression within the bound cannot be told from its
spread, unless every change run beats every base run). The same summary is
kept for ``import_s``, the seconds a run spent importing rtkit (the ``imports`` figure of the line
bench/run.py prints before its JSON), so a move in ``setup_s`` splits into
imports and set-ups. It also holds each run's operations attempted and failed,
with their totals per side; the machine, both revisions and the seeds. Each
side is named by the sha256 of the code a run executes, the files under
``src/`` and ``bench/`` (``code_digest``), so a record made from a working
tree can be tied to the commit that holds the same code. This is the
interleaved design of Kalibera & Jones, "Rigorous benchmarking in reasonable
time", ISMM 2013. Exits 1 when any run fails or reports a failed check.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BOOTSTRAP = 2000
MIN_PAIRS = 10  # fewer pairs resolve no gain: with one, the base's interquartile range is 0
CODE = ("src", "bench")  # what bench/run.py executes
IMPORTS = re.compile(r"\(imports ([0-9.]+) ")  # in the words line of an untraced bench/run.py


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def code_digest(tree: Path) -> str:
    """sha256 over the sorted relative paths and bytes of the files under CODE."""
    h = hashlib.sha256()
    files = sorted(f for top in CODE for f in (tree / top).rglob("*") if f.is_file())
    for f in files:
        data = f.read_bytes()
        h.update(f"{f.relative_to(tree).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def extract(rev: str, dest: Path) -> dict:
    """``git archive rev | tar -x`` into dest."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"error: git archive {rev} failed")
    return {"rev": rev, "commit": git("rev-parse", rev + "^{commit}"), "code_digest": code_digest(dest)}


def copy_worktree(dest: Path) -> dict:
    """The working tree's files as git would see them, copied into dest."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        src = ROOT / name
        if name and src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)
    return {"rev": "working tree", "head": git("rev-parse", "HEAD"),
            "code_dirty": bool(git("status", "--porcelain", "--", *CODE)), "code_digest": code_digest(dest)}


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` process; its last stdout line is the result JSON."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        return {"returncode": proc.returncode, "correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result = parse_stdout(proc.stdout)
    result["returncode"] = proc.returncode
    return result


def parse_stdout(stdout: str) -> dict:
    """The result JSON on the last line, plus the line before's import time as metric ``import_s``."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    words = IMPORTS.search(lines[-2]) if len(lines) > 1 else None
    if words:
        result["metrics"]["import_s"] = {"value": float(words.group(1)), "unit": "s"}
    return result


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def bootstrap_median_ci(ratios: list[float], rng: random.Random) -> list[float]:
    """2.5th and 97.5th percentiles of the median of resampled pairs."""
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(BOOTSTRAP))
    return [medians[int(0.025 * BOOTSTRAP)], medians[int(0.975 * BOOTSTRAP) - 1]]


def verdict(summary: dict, bound: float | None, base_runs: list[float], change_runs: list[float]) -> dict:
    """``gain_resolved``: over at least MIN_PAIRS pairs, the change won at least 9/10 of them and its median beats
    the base median by more than the wider of the two sides' interquartile ranges; ``regressed``: its median is
    worse than the base median by more than ``bound`` (a fraction of the base median; None when the metric has no
    bound); ``unresolved``: the base's interquartile range is wider than ``bound`` of its median and some change
    run does not beat every base run (None without a bound)."""
    (q1, base, q3), (c1, change, c3) = summary["base_quartiles"], summary["change_quartiles"]
    higher = summary["better"] == "higher"
    gain = change - base if higher else base - change
    sweep = min(change_runs) > max(base_runs) if higher else max(change_runs) < min(base_runs)
    return {
        "gain_resolved": summary["pairs"] >= MIN_PAIRS and 10 * summary["change_wins"] >= 9 * summary["pairs"]
        and gain > max(q3 - q1, c3 - c1),
        "regressed": None if bound is None else -gain > bound * abs(base),
        "unresolved": None if bound is None else q3 - q1 > bound * abs(base) and not sweep,
    }


def summarize(
    pairs: list[dict], better: dict[str, str], rng: random.Random, bounds: dict[str, float] | None = None
) -> dict:
    out = {}
    for name, direction in better.items():
        got = [(p["base"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"]) for p in pairs
               if name in p["base"]["metrics"] and name in p["change"]["metrics"]]
        if not got:
            continue
        base, change = [b for b, _ in got], [c for _, c in got]
        ratios = [c / b for b, c in got]
        wins = sum(c > b if direction == "higher" else c < b for b, c in got)
        out[name] = {
            "better": direction,
            "ratios": ratios,
            "median_ratio": statistics.median(ratios),
            "ci95": bootstrap_median_ci(ratios, rng),
            "change_wins": wins,
            "pairs": len(got),
            "base_quartiles": quartiles(base),
            "change_quartiles": quartiles(change),
        }
        out[name] |= verdict(out[name], (bounds or {}).get(name), base, change)
    return out


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(), "numpy": numpy,
            "platform": platform.platform()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision of the base side")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--out", required=True, help="path of the JSON record")
    args = ap.parse_args()
    if args.pairs < 1 or not args.seconds > 0:
        ap.error("--pairs and --seconds must be positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]} | {"import_s": "lower"}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(1, args.pairs + 1))
    record = {"machine": machine(), "pairs": args.pairs, "seconds": args.seconds, "seeds": seeds, "workloads": {}}
    ok = True
    with tempfile.TemporaryDirectory(prefix="bench_ab_") as tmp:
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        record["base"] = extract(args.base, trees["base"])
        record["change"] = copy_worktree(trees["change"])
        rng = random.Random(0)
        for workload in args.workloads:
            pairs = []
            for i, seed in enumerate(seeds):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_bench(trees[side], workload, seed, args.seconds)
                    ok = ok and pair[side]["returncode"] == 0 and pair[side]["correct"]
                pairs.append(pair)
                ops = {s: pair[s]["metrics"].get("ops_per_s", {}).get("value") for s in ("base", "change")}
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: ops_per_s {ops['base']} -> {ops['change']}",
                      flush=True)
            record["workloads"][workload] = {
                "runs": [
                    {"seed": p["seed"], "first": p["first"]}
                    | {s: {"attempted": p[s]["attempted"], "failed": p[s]["failed"]}
                       | {k: m["value"] for k, m in p[s]["metrics"].items()} for s in ("base", "change")}
                    for p in pairs
                ],
                "correct": all(p[s]["correct"] for p in pairs for s in ("base", "change")),
                "totals": {s: {k: sum(p[s][k] for p in pairs) for k in ("attempted", "failed")}
                           for s in ("base", "change")},
                "metrics": summarize(pairs, better, rng, bounds),
            }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for workload, res in record["workloads"].items():
        t = res["totals"]
        print(f"{workload:16s} failed/attempted base {t['base']['failed']}/{t['base']['attempted']}, "
              f"change {t['change']['failed']}/{t['change']['attempted']}")
        for name, m in res["metrics"].items():
            lo, hi = m["ci95"]
            flags = [word for word, on in (("gain resolved", m["gain_resolved"]), ("REGRESSED", m["regressed"]),
                                           ("unresolved", m["unresolved"])) if on]
            print(f"{workload:16s} {name:12s} median ratio {m['median_ratio']:.3f} [{lo:.3f}, {hi:.3f}] "
                  f"change won {m['change_wins']}/{m['pairs']}" + "".join(f"; {f}" for f in flags))
    if not ok:
        print("error: a benchmark run failed or reported a failed check", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

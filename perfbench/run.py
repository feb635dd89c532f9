"""Paper-scale benchmark of the waferscale reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fault-mc --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all    # every workload, untraced + traced;
                                      # then rewrites BENCHMARK.json

One run measures one workload in a closed loop: one client issues one op
at a time and the next only after the previous returned.  Set-up is
timed as fresh interpreters that import the program and run one warm-up
op (median of three); the measured loop runs in the last of them.  Every
end-to-end time is scaled to a reference host speed by a fixed kernel
timed around it (:func:`at_reference`).  The run prints every metric by name with its unit, the paper-accuracy line,
the environment fingerprint, and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  A full record
(every sample, the fingerprint, check failures) goes to
``.perfbench_out/``; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from catalog import (
    CAL_REF_S,
    END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    WORK_NAMES,
    WORKLOADS,
    benchmark_json,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0        # a run must end well within 180 s


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of n={n} (fewer than 11 samples)"
    k = n - 11
    return ordered[k], f"p{100.0 * (k + 1) / n:.0f} of n={n}, 10 samples beyond"


def at_reference(wall_s: float, cal_s: float) -> float:
    """``wall_s`` scaled to the reference host speed.

    ``cal_s`` is what the host-speed kernel took around that interval;
    at the reference speed it takes ``CAL_REF_S``.
    """
    return wall_s * CAL_REF_S / cal_s


def _spawn(args: list[str], deadline: float) -> tuple[float, str]:
    """Run measure.py; return (seconds to its READY line, rest of stdout)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a measurement process")
    env = dict(os.environ, REPRO_CACHE_DIR=str(OUT / "repro-cache"))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "measure.py"), *args],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
    )
    timer = threading.Timer(remaining, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"measure.py {' '.join(args)} exited {proc.returncode}")
    return ready_s, rest


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over the program's sources: identifies the code when git cannot."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One full run: set-up samples, the measured loop, derived metrics."""
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", str(OUT)]
    setup_wall, setup_cal = [], []
    for _ in range(SETUP_SAMPLES - 1):
        ready_s, rest = _spawn([*base, "--probe"], deadline)
        setup_wall.append(ready_s)
        setup_cal.append(json.loads(rest.strip().splitlines()[-1])["setup_cal_s"])
    ready_s, rest = _spawn(base, deadline)
    raw = json.loads(rest.strip().splitlines()[-1])
    setup_wall.append(ready_s)
    setup_cal.append(raw["setup_cal_s"])

    labels: dict[str, str] = {}
    if trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        values = raw["layers"]
    else:
        units = {name: unit for name, unit, _, _ in END_TO_END}
        setup = [at_reference(s, c) for s, c in zip(setup_wall, setup_cal)]
        op_s = [at_reference(s, c) for s, c in zip(raw["op_s"], raw["cal_s"])]
        busy_s = sum(op_s)
        op_tail, labels["op_tail_s"] = tail(op_s)
        values = {
            "setup_s": statistics.median(setup),
            "op_p50_s": statistics.median(op_s),
            "op_tail_s": op_tail,
            "ops_per_s": len(op_s) / busy_s,
            "work_per_s": raw["work"] / busy_s,
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        name, unit = WORK_NAMES[workload]
        labels["work_per_s"] = f"{name}, {unit}"
        for extra, total in raw["extra_work"].items():
            labels[f"{extra}_per_s"] = f"{total / busy_s:.6g} {extra}/s"
        labels["setup_s"] = "median of " + ", ".join(f"{s:.3f}" for s in setup)
        labels["host_speed"] = (
            f"{CAL_REF_S / statistics.median(raw['cal_s']):.3f} x reference "
            f"(median); wall op p50 {statistics.median(raw['op_s']):.4f} s, "
            f"wall set-up " + ", ".join(f"{s:.3f}" for s in setup_wall)
        )
        if raw["warm_s"]:
            labels["warm_op_p50_s"] = (
                f"{statistics.median(raw['warm_s']):.6g} s, median of "
                f"n={len(raw['warm_s'])} ops re-issued on the warm result cache"
            )
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return {
        "schema": "perfbench/1",
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "loop": "closed, 1 client, 1 op in flight",
        "env": {
            **raw["env"],
            "seed": seed,
            "git_commit": _git_commit(),
            "source_sha256": _source_digest(),
        },
        "metrics": metrics,
        "labels": labels,
        "op_seeds": raw["op_seeds"],
        "setup_wall_s": setup_wall,
        "setup_cal_s": setup_cal,
        "op_s": raw["op_s"],
        "cal_s": raw.get("cal_s", []),
        "warm_s": raw.get("warm_s", []),
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "failures": raw["failures"],
        "paper": raw.get("paper", ""),
        "spans_file": raw.get("spans_file"),
    }


def report(record: dict) -> None:
    """Print one run's metrics and context for a human."""
    print(f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"({record['loop']}, {record['env']['workers']} engine worker(s))")
    for name, metric in record["metrics"].items():
        note = record["labels"].get(name, "")
        print(f"  {name:30s} = {metric['value']:.6g} {metric['unit']}"
              + (f"  ({note})" if note else ""))
    for name, note in record["labels"].items():
        if name not in record["metrics"]:
            print(f"  {name:30s} = {note}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"  checks: {attempted} ops attempted, {failed} failed, "
          f"fail_ratio {failed / attempted:.4g}")
    for failure in record["failures"]:
        print(f"    FAIL {failure}")
    if record["paper"]:
        print(f"  paper: {record['paper']}")
    env = record["env"]
    print("  env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    if record["spans_file"]:
        print(f"  spans: {record['spans_file']}")


def overhead_table(records: list[dict]) -> None:
    """Tracing overhead per workload: untraced vs traced ``op_p50_s``."""
    print("tracing overhead (op_p50_s; traced run pairs each op with an untraced one;")
    print("  the untraced run's is at the reference host speed, the pairs' are wall-clock)")
    print(f"  {'workload':12s} {'untraced run':>13s} {'paired plain':>13s} "
          f"{'paired traced':>14s} {'ratio':>7s}")
    by_key = {(r["workload"], r["trace"]): r["metrics"] for r in records}
    for workload in WORKLOADS:
        plain, traced = by_key[workload, 0], by_key[workload, 1]
        print(f"  {workload:12s} {plain['op_p50_s']['value']:13.4f} "
              f"{traced['trace.untraced_op_p50_s']['value']:13.4f} "
              f"{traced['trace.traced_op_p50_s']['value']:14.4f} "
              f"{traced['trace.overhead_ratio']['value']:7.3f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced, then write BENCHMARK.json")
    args = parser.parse_args()
    # A terminated run still stops its measuring process (_spawn's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.all and args.workload is None:
        parser.error("--workload is required (or pass --all)")

    runs = (
        [(w, t) for w in WORKLOADS for t in (0, 1)] if args.all
        else [(args.workload, args.trace)]
    )
    records = []
    try:
        for workload, trace in runs:
            record = measure(workload, args.seed, args.seconds, trace)
            path = OUT / f"{workload}-seed{args.seed}-trace{trace}.json"
            path.write_text(json.dumps(record, indent=2) + "\n")
            report(record)
            records.append(record)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    if args.all:
        overhead_table(records)
        config = ROOT / "BENCHMARK.json"
        config.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        print(f"wrote {config}")
    correct = all(r["failed"] == 0 for r in records)
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {} if args.all else records[0]["metrics"],
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

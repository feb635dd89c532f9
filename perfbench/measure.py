"""One measured run of one workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  It imports the
program, runs one untimed warm-up op and prints ``READY`` — the parent
times process start to that line as one set-up sample — then times the
host-speed kernel (:func:`calibrate`) for that sample.  With ``--probe``
it prints that time and stops.  Otherwise it runs the closed loop (one
client, one op at a time) for ``--seconds`` and prints one JSON line of
raw results:

* ``--trace 0``: per-op wall times, each with the host-speed kernel
  time around it (:func:`_host_kernel_s`), work done, output checks
  (invariants and committed expected outputs on every op, an exact
  oracle on the first), warm re-issues;
* ``--trace 1``: each op twice, alternately first, as the plain entry
  point call and as the traced re-issue; the two outputs must be equal,
  and spans give the per-layer metrics.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from catalog import PER_LAYER  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _call(fn, *args):
    """``(output, None)`` or ``(None, error text)``."""
    try:
        return fn(*args), None
    except Exception as err:            # a failed op is counted, not fatal
        traceback.print_exc()
        return None, f"{type(err).__name__}: {err}"


def _differs(got: dict, want: dict, what: str) -> list[str]:
    return [] if got == want else [f"{what} differs from the entry point's output"]


CPUS = sorted(os.sched_getaffinity(0))


def _pin(w, index: int) -> None:
    """Run op ``index`` of a single-process workload on CPU ``index`` mod n.

    On a shared VM each virtual CPU has slow phases of its own, seconds
    long and uncorrelated with the other CPU's; a process the scheduler
    leaves on one CPU sees that CPU's phases only, which spreads run
    medians.  Alternating ops across the CPUs samples all of them.
    Workloads with engine workers use every CPU already and are not
    pinned (their workers would inherit the pin).
    """
    if w.workers == 1 and len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[index % len(CPUS)]})


@functools.cache
def _calibration_array() -> np.ndarray:
    return np.random.default_rng(0).random(1_000_000)


def calibrate() -> float:
    """Seconds a fixed kernel takes now: the host's current speed.

    The host's speed drifts by tens of percent over seconds to minutes
    (perfbench/README.md, Steadiness).  The kernel mixes what the ops
    spend their time on, interpreter work on dicts and strings and numpy
    passes over an 8 MB array, so that an op timed between two of its
    runs can be scaled to a reference host speed.  Callers take the
    fastest of several runs: a burst of contention that slows one run
    says nothing about the interval being scaled.  It calls nothing in
    the program, so no change to the program moves it.
    """
    data = _calibration_array()
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(30_000):
        table[i % 997] = table.get(i % 997, 0) + len(str(i))
    for _ in range(6):
        np.sort(data[:200_000])
        float((data * 2.0 + 1.0).sum())
    return time.perf_counter() - t0


def _kernel_per_cpu(w) -> list[float]:
    """The host-speed kernel on each CPU the next op of ``w`` runs on.

    A single-process op is pinned (:func:`_pin`), so that is one CPU.
    Engine workers run on every CPU, and one CPU can be slowed while the
    other is not, so the kernel runs on each in turn.
    """
    if w.workers == 1 or len(CPUS) == 1:
        return [calibrate()]
    times = []
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        times.append(calibrate())
    os.sched_setaffinity(0, set(CPUS))
    return times


def _host_kernel_s(before: list[float], after: list[float]) -> float:
    """Kernel time for an interval: per CPU the faster run, mean over CPUs."""
    return statistics.mean(min(b, a) for b, a in zip(before, after))


def untraced(w, seconds: float) -> dict:
    ops = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        inp = w.inputs(len(ops))
        _pin(w, len(ops))
        before = _kernel_per_cpu(w)
        t0 = time.perf_counter()
        out, error = _call(w.run, inp)
        dt = time.perf_counter() - t0
        ops.append((inp, out, error, dt, _host_kernel_s(before, _kernel_per_cpu(w))))
        if time.perf_counter() >= deadline:
            break

    failures = [
        [error] if error else w.check(inp, out) + w.expected(inp, out)
        for inp, out, error, *_ in ops
    ]
    if not failures[0]:
        failures[0] += w.oracle(ops[0][0], ops[0][1])

    warm_s = []
    for _ in range(w.warm_passes):
        for inp, out, error, *_ in ops:
            if error:
                continue
            t0 = time.perf_counter()
            again, warm_error = _call(w.run, inp)
            warm_s.append(time.perf_counter() - t0)
            failures.append(
                [warm_error] if warm_error else _differs(again, out, "warm re-issue")
            )

    good = [out for (_, out, *_), f in zip(ops, failures) if not f]
    done = [out for _, out, error, *_ in ops if not error]
    return {
        "op_seeds": [inp["seed"] for inp, *_ in ops],
        "op_s": [dt for *_, dt, _ in ops],
        "cal_s": [cal for *_, cal in ops],
        "work": sum(w.work(out) for out in done),
        "extra_work": w.extra_work(done),
        "warm_s": warm_s,
        "attempted": len(failures),
        "failed": sum(1 for f in failures if f),
        "failures": sorted({m for f in failures for m in f})[:10],
        "paper": w.paper_line(good) if good else "no correct op to compare",
    }


def traced(w, seconds: float, spans_path: Path) -> dict:
    rec = SpanRecorder()
    plain_s, traced_s, failures, op_seeds = [], [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while True:
        inp = w.inputs(index)
        op_seeds.append(inp["seed"])
        _pin(w, index)
        outs, errors = {}, []
        for is_traced in ((False, True) if index % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            if is_traced:
                with rec.op(index):
                    outs[True], error = _call(w.traced, inp, rec)
                traced_s.append(time.perf_counter() - t0)
            else:
                outs[False], error = _call(w.run, inp)
                plain_s.append(time.perf_counter() - t0)
            if error:
                errors.append(error)
        if not errors:
            errors += w.check(inp, outs[False]) + w.expected(inp, outs[False])
            errors += _differs(outs[True], outs[False], "traced re-issue")
            with rec.op(index, "probe"):
                errors += w.probe(inp, outs[True], rec)
            if w.warm_passes:
                with rec.op(index, "warm") as warm:
                    again, error = _call(w.run, inp)
                rec.count("engine.warm_op_p50_s", warm["dur"])
                errors += [error] if error else _differs(again, outs[False], "warm re-issue")
        failures.append(errors)
        index += 1
        if time.perf_counter() >= deadline:
            break
    rec.write(spans_path)
    return {
        "layers": layer_metrics(rec, plain_s, traced_s),
        "attempted": len(failures),
        "failed": sum(1 for f in failures if f),
        "failures": sorted({m for f in failures for m in f})[:10],
        "op_seeds": op_seeds,
        "op_s": plain_s,
        "traced_op_s": traced_s,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: SpanRecorder, plain_s: list, traced_s: list) -> dict:
    """Per-op medians of span and counter totals, plus run-level ratios."""
    per_op = list(rec.per_op().values())
    run: dict[str, float] = defaultdict(float)
    for op in per_op:
        for key, value in op.items():
            run[key] += value
    busy = run.get("noc.busy_cycles", 0.0)
    idle = run.get("noc.idle_cycles", 0.0)
    untraced_p50 = statistics.median(plain_s)
    traced_p50 = statistics.median(traced_s)
    derived = {
        "noc.busy_cycle_ratio": _ratio(busy, busy + idle),
        "noc.step_s_per_idle_cycle": _ratio(run.get("noc.idle_step_s", 0.0), idle),
        "noc.step_s_per_busy_cycle": _ratio(run.get("noc.busy_step_s", 0.0), busy),
        "trace.untraced_op_p50_s": untraced_p50,
        "trace.traced_op_p50_s": traced_p50,
        "trace.overhead_ratio": _ratio(traced_p50, untraced_p50),
    }
    values = {}
    for name, _, _ in PER_LAYER:
        if name in derived:
            values[name] = derived[name]
            continue
        key = name
        if not any(name in op for op in per_op):
            key = name.removesuffix("_s")       # a span, not a counter
        values[name] = statistics.median(op.get(key, 0.0) for op in per_op)
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    scratch = args.out / f"work-{os.getpid()}"
    w = WORKLOADS[args.workload](args.seed, scratch)
    try:
        # Set-up stays on one CPU, so the host-speed kernel run around the
        # warm-up op measures the CPU it ran on.
        _pin(w, os.getpid())
        before = [min(t) for t in zip(*(_kernel_per_cpu(w) for _ in range(3)))]
        w.run(w.inputs(-1))             # untimed warm-up op
        print("READY", flush=True)
        after = [min(t) for t in zip(*(_kernel_per_cpu(w) for _ in range(3)))]
        setup_cal_s = _host_kernel_s(before, after)
        if args.probe:
            print(json.dumps({"setup_cal_s": setup_cal_s}))
            return 0
        if args.trace:
            spans = args.out / f"{args.workload}-seed{args.seed}-spans.jsonl"
            result = traced(w, args.seconds, spans)
            result["spans_file"] = str(spans.relative_to(ROOT))
        else:
            result = untraced(w, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    maxrss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    result["peak_rss_mb"] = maxrss_kb / 1024.0
    result["setup_cal_s"] = setup_cal_s
    result["env"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "workers": w.workers,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

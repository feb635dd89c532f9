"""One record for the CI benchmarks: ``repro.bench/1``.

Each ``benchmarks/bench_<x>.py`` script keeps its workload, its
engine-equivalence assertions and a ``measure()`` that declares its
cases; this module times, records and judges them.  A record holds
``bench``, ``config``, a :class:`~repro.obs.manifest.RunManifest` (with
the Python and numpy versions and the CPU count in ``extra``) and
``cases``, keyed by label.  Each case has:

* ``exact`` — deterministic outputs, compared exactly with the
  committed record;
* ``timings`` — median, quartiles and sample count per side;
* ``phases`` — sub-timings (construction, table builds, barriers,
  compiles);
* ``gates`` — each gate's field, kind, bound, measured value and
  verdict.

:func:`main` runs a script: it measures, judges the record against the
committed ``benchmarks/BENCH_<name>.json`` and writes the record only
when given ``--out PATH``.  The run exits 1, naming the case and field,
when a gate is outside its bound, an ``exact`` field differs from the
committed record, or the committed record is missing or malformed.
Regenerate a baseline with ``--out benchmarks/BENCH_<name>.json``: that
run still judges the record it replaces.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from .manifest import build_manifest
from .schema import BENCH_SCHEMA, GATE_TESTS, validate_bench_document

_SYMBOL = {"min": ">=", "max": "<=", "max_vs_committed": "<="}


@dataclass(frozen=True)
class Paired:
    """Seconds per side from :func:`paired`, its median pair ratio (None
    with a single side) and each side's last result."""

    samples: dict[str, list[float]]
    ratio: float | None
    results: dict[str, Any]


def paired(
    sides: dict[str, Callable[[], Callable[[], Any]]],
    pairs: int,
    timer: Callable[[], float] = time.perf_counter,
) -> Paired:
    """Time every side ``pairs`` times, the first two back to back.

    A side is a callable that does its untimed setup and returns the
    thunk to time.  Each pair runs the first two sides in alternating
    order, so a host that changes speed between pairs moves both runs of
    a pair alike; further sides run after the pair, for information.
    The ratio is the median over pairs of the second side's seconds over
    the first's; ``results`` keeps what each side's last thunk returned.
    """
    names = list(sides)
    samples: dict[str, list[float]] = {name: [] for name in names}
    results: dict[str, Any] = {}
    ratios = []
    for pair in range(pairs):
        order = names[:2] if pair % 2 == 0 else names[1::-1]
        for name in order + names[2:]:
            thunk = sides[name]()
            start = timer()
            results[name] = thunk()
            samples[name].append(timer() - start)
        if len(names) > 1:
            ratios.append(samples[names[1]][-1] / samples[names[0]][-1])
    return Paired(samples, statistics.median(ratios) if ratios else None, results)


def timing(samples: list[float]) -> dict:
    """Median, quartiles and sample count of one side's seconds."""
    if len(samples) == 1:
        q1 = q3 = samples[0]
    else:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"median": statistics.median(samples), "q1": q1, "q3": q3, "n": len(samples)}


def case(
    exact: dict | None = None,
    samples: dict[str, list[float]] | None = None,
    phases: dict | None = None,
    gates: tuple | list = (),
) -> dict:
    """One case of a record; ``samples`` maps each side to its seconds."""
    return {
        "exact": dict(exact or {}),
        "timings": {side: timing(s) for side, s in (samples or {}).items()},
        "phases": dict(phases or {}),
        "gates": list(gates),
    }


def at_least(field: str, value: float, bound: float) -> dict:
    """Gate: ``value >= bound``."""
    return {"field": field, "kind": "min", "bound": bound, "value": value}


def at_most(field: str, value: float, bound: float) -> dict:
    """Gate: ``value <= bound``."""
    return {"field": field, "kind": "max", "bound": bound, "value": value}


def within(field: str, value: float, factor: float) -> dict:
    """Gate: ``value`` at most ``factor`` times the committed record's
    value of the same gate."""
    return {"field": field, "kind": "max_vs_committed", "factor": factor, "value": value}


def overhead(field: str, result: Paired, budget: float, floor_s: float) -> dict:
    """Gate a paired ratio at ``1 + budget`` plus ``floor_s`` over the
    first side's median seconds (slack for sub-ms jitter on tiny runs).

    ``within_budget_without_floor`` records whether the budget alone
    holds, so a record shows a gate that passes only through the floor.
    """
    first = next(iter(result.samples))
    return {
        "field": field,
        "kind": "max",
        "bound": 1 + budget + floor_s / statistics.median(result.samples[first]),
        "value": result.ratio,
        "budget": budget,
        "floor_s": floor_s,
        "within_budget_without_floor": result.ratio <= 1 + budget,
    }


def _committed_gate(committed: dict | None, label: str, field: str) -> dict | None:
    entry = (committed or {}).get("cases", {}).get(label, {})
    return next((g for g in entry.get("gates", []) if g["field"] == field), None)


def build_record(
    name: str, config: dict, cases: dict, committed: dict | None, wall_s: float
) -> dict:
    """The ``repro.bench/1`` record of ``cases``, every verdict set.

    A ``within`` gate's bound is its factor times the committed value,
    or times its own value when there is none (the run then fails on
    the missing committed record or gate, not on the bound).
    """
    import numpy

    for label, entry in cases.items():
        for gate in entry["gates"]:
            if gate["kind"] == "max_vs_committed":
                base = _committed_gate(committed, label, gate["field"]) or gate
                gate["bound"] = gate["factor"] * base["value"]
            gate["verdict"] = GATE_TESTS[gate["kind"]](gate["value"], gate["bound"])
    manifest = build_manifest(
        f"bench.{name}",
        config=config,
        seed=config.get("seed"),
        wall_s=wall_s,
        extra={
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpus": os.cpu_count(),
        },
    )
    return {
        "schema": BENCH_SCHEMA,
        "bench": name,
        "config": config,
        "manifest": manifest.to_dict(),
        "cases": cases,
    }


def _compare(section: str, new: dict, old: dict) -> list[str]:
    problems = []
    for key in sorted(new.keys() | old.keys()):
        if key not in old:
            problems.append(f"{section}.{key} missing from committed record")
        elif key not in new:
            problems.append(f"{section}.{key} committed but not measured")
        elif new[key] != old[key]:
            problems.append(f"{section}.{key} = {new[key]!r}, committed {old[key]!r}")
    return problems


def judge(record: dict, committed: dict | None) -> list[str]:
    """Every reason ``record`` fails against a valid ``committed`` one
    (or None), each naming its case and field."""
    problems = [f"this run's record: {p}" for p in validate_bench_document(record)]
    if problems:
        return problems
    for label, entry in record["cases"].items():
        for gate in entry["gates"]:
            if not gate["verdict"]:
                problems.append(
                    f"{label}: gate {gate['field']} = {gate['value']:.4g} is not "
                    f"{_SYMBOL[gate['kind']]} {gate['bound']:.4g}"
                )
    if committed is None:
        return problems
    problems += _compare("config", record["config"], committed["config"])
    for label in sorted(committed["cases"].keys() - record["cases"].keys()):
        problems.append(f"{label}: committed case not measured")
    for label, entry in record["cases"].items():
        old = committed["cases"].get(label)
        if old is None:
            problems.append(f"{label}: case missing from committed record")
            continue
        problems += [f"{label}: {p}" for p in _compare("exact", entry["exact"], old["exact"])]
        for gate in entry["gates"]:
            if gate["kind"] == "max_vs_committed" and not _committed_gate(
                committed, label, gate["field"]
            ):
                problems.append(f"{label}: gate {gate['field']} missing from committed record")
    return problems


def _load(path: Path) -> tuple[dict | None, list[str]]:
    """The committed record, or None and why it cannot be judged against."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        return None, [f"{path}: committed record missing"]
    except (OSError, json.JSONDecodeError) as exc:
        return None, [f"{path}: committed record unreadable: {exc}"]
    problems = validate_bench_document(doc)
    if problems:
        return None, [f"{path}: committed record malformed: {p}" for p in problems]
    return doc, []


def _num(value: float) -> str:
    return str(value) if isinstance(value, int) else f"{value:.4g}"


def render(record: dict) -> str:
    """The record as text: per case its timings, phases, exact fields
    and gates."""
    lines = [f"{record['bench']} ({record.get('schema')})"]
    for label, entry in record["cases"].items():
        lines.append(f"  {label}")
        timings = ", ".join(
            f"{side} {_num(t['median'])}s [{_num(t['q1'])}, {_num(t['q3'])}] n={t['n']}"
            for side, t in entry["timings"].items()
        )
        if timings:
            lines.append(f"    timings: {timings}")
        for section in ("phases", "exact"):
            if entry[section]:
                values = ", ".join(f"{k} {_num(v)}" for k, v in entry[section].items())
                lines.append(f"    {section}: {values}")
        for gate in entry["gates"]:
            floor = (
                " (only through the floor)"
                if gate["verdict"] and gate.get("within_budget_without_floor") is False
                else ""
            )
            lines.append(
                f"    gate {gate['field']} {_num(gate['value'])} "
                f"{_SYMBOL[gate['kind']]} {_num(gate['bound'])}: "
                f"{'ok' if gate['verdict'] else 'FAIL'}{floor}"
            )
    return "\n".join(lines)


def main(
    committed: str | Path,
    measure: Callable[[], dict[str, dict]],
    config: dict,
    argv: list[str] | None = None,
) -> int:
    """Run one bench script and return its exit status.

    Measures the cases, judges the record against ``committed`` (the
    script's ``BENCH_<name>.json``), prints both, and writes the record
    only to ``--out PATH``.
    """
    committed = Path(committed)
    name = committed.stem.removeprefix("BENCH_")
    parser = argparse.ArgumentParser(
        description=f"{name} benchmark: a {BENCH_SCHEMA} record judged "
        f"against {committed.name}"
    )
    parser.add_argument(
        "--out", metavar="PATH", help="write the record to PATH (nothing is written without it)"
    )
    args = parser.parse_args(argv)
    baseline, problems = _load(committed)
    start = time.perf_counter()
    cases = measure()
    # The JSON round trip makes the record compare like the committed one.
    record = json.loads(json.dumps(
        build_record(name, config, cases, baseline, time.perf_counter() - start)
    ))
    problems += judge(record, baseline)
    print(render(record))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"{name}: {'FAILED' if problems else 'OK'} against {committed}")
    return 1 if problems else 0

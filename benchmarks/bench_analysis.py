"""Analytic-kernel benchmark: PDN and Fig. 6 connectivity.

Times the two fast analytic kernels against their retained reference
paths, verifies the results are identical, and records the speedups in
``BENCH_analysis.json`` — the perf trajectory of the analysis layer,
mirroring ``bench_noc_sim.py`` for the simulator:

* **PDN** — constant-power fixed point over a batch of activity maps:
  per-map fresh-``spsolve`` solves vs one cached LU factorization shared
  by the whole :meth:`PdnSolver.solve_many` batch (floor: >=5x);
* **connectivity** — the same drawn 32x32 Fig. 6 fault maps through
  the per-fault broadcast oracle (``_pair_blockage_reference``) and the
  factorized sparse kernel behind :func:`disconnected_fraction`
  (floor: >=5x).

The emulator's kernel-vs-oracle floor lives in ``bench_emulator.py``.

Runnable two ways::

    python benchmarks/bench_analysis.py                # writes BENCH_analysis.json
    python benchmarks/bench_analysis.py --out path.json --scale 0.5
    pytest benchmarks/bench_analysis.py -s             # under the bench harness
"""

import argparse
import json
import time

import numpy as np

from repro.config import SystemConfig
from repro.noc.connectivity import (
    _pair_blockage_reference,
    disconnected_fraction,
)
from repro.noc.faults import random_fault_map
from repro.obs.telemetry import Telemetry, use_telemetry
from repro.pdn.solver import PdnSolver

from conftest import print_series

SEED = 1
MIN_SPEEDUP_PDN = 5.0           # constant-power fixed point, 32x32
MIN_SPEEDUP_CONNECTIVITY = 5.0  # Fig. 6 fault maps, 32x32


def _activity_maps(cfg: SystemConfig, count: int) -> list[np.ndarray]:
    """Deterministic non-uniform power maps (centre-weighted hot spots)."""
    rng = np.random.default_rng(SEED)
    maps = []
    for _ in range(count):
        activity = rng.uniform(0.4, 1.0, size=(cfg.rows, cfg.cols))
        maps.append(activity * cfg.tile_peak_power_w)
    return maps


def _bench_pdn(scale: float) -> dict:
    cfg = SystemConfig()
    n_maps = max(2, int(8 * scale))
    maps = _activity_maps(cfg, n_maps)

    start = time.perf_counter()
    reference = [
        PdnSolver(cfg, engine="reference").solve(m, load_model="constant_power")
        for m in maps
    ]
    ref_s = time.perf_counter() - start

    tel = Telemetry()
    start = time.perf_counter()
    with use_telemetry(tel):
        fast = PdnSolver(cfg).solve_many(maps, load_model="constant_power")
    fast_s = time.perf_counter() - start

    for ref_sol, fast_sol in zip(reference, fast):
        if not np.allclose(ref_sol.voltages, fast_sol.voltages, atol=1e-12):
            raise AssertionError("PDN fast/reference voltages diverged")
        if ref_sol.iterations != fast_sol.iterations:
            raise AssertionError("PDN fast/reference iteration counts diverged")
    return {
        "label": "pdn constant_power",
        "maps": n_maps,
        "iterations": [s.iterations for s in fast],
        "reference_s": ref_s,
        "fast_s": fast_s,
        "speedup": ref_s / fast_s,
        "telemetry": {
            "pdn.factorizations": tel.metrics.counter("pdn.factorizations").value,
            "pdn.factorization_reuses": tel.metrics.counter(
                "pdn.factorization_reuses"
            ).value,
        },
    }


def _bench_connectivity(scale: float) -> dict:
    cfg = SystemConfig()
    fault_counts = [2, 5, 10]
    per_count = max(4, int(20 * scale))
    rng = np.random.default_rng(SEED)
    maps = [
        random_fault_map(cfg, count, rng)
        for count in fault_counts
        for _ in range(per_count)
    ]

    start = time.perf_counter()
    reference = [_pair_blockage_reference(fmap) for fmap in maps]
    ref_s = time.perf_counter() - start

    start = time.perf_counter()
    fast = [disconnected_fraction(fmap) for fmap in maps]
    fast_s = time.perf_counter() - start

    for fmap, ref_pair, fast_pair in zip(maps, reference, fast):
        if ref_pair != fast_pair:
            raise AssertionError(
                f"connectivity kernel diverged from the oracle at fault "
                f"count {fmap.fault_count}"
            )
    return {
        "label": "fig6 32x32 fault maps",
        "fault_counts": fault_counts,
        "maps": len(maps),
        "reference_s": ref_s,
        "fast_s": fast_s,
        "speedup": ref_s / fast_s,
    }


def measure(scale: float = 1.0) -> dict:
    """Benchmark every kernel; verify fast/reference equivalence."""
    pdn = _bench_pdn(scale)
    connectivity = _bench_connectivity(scale)
    points = [pdn, connectivity]
    ok = (
        pdn["speedup"] >= MIN_SPEEDUP_PDN
        and connectivity["speedup"] >= MIN_SPEEDUP_CONNECTIVITY
    )
    return {
        "bench": "analysis_kernels",
        "config": {"seed": SEED},
        "thresholds": {
            "pdn_speedup": MIN_SPEEDUP_PDN,
            "connectivity_speedup": MIN_SPEEDUP_CONNECTIVITY,
        },
        "results_identical": True,
        "points": points,
        "ok": ok,
    }


def _rows(result: dict) -> list[tuple]:
    return [
        (
            f"{p['label']:<30}",
            f"ref {p['reference_s']:7.3f}s",
            f"fast {p['fast_s']:7.3f}s",
            f"{p['speedup']:5.2f}x",
        )
        for p in result["points"]
    ]


def test_analysis_kernel_speedups(benchmark):
    result = benchmark.pedantic(measure, args=(0.5,), rounds=1, iterations=1)
    print_series("Analytic kernels, fast vs reference", _rows(result))
    benchmark.extra_info["measured"] = {
        p["label"]: p["speedup"] for p in result["points"]
    }
    assert result["results_identical"]
    assert result["ok"], (
        f"speedups {[p['speedup'] for p in result['points']]} below floors "
        f"{result['thresholds']}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_analysis.json", help="result file path"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="scale PDN and fault-map counts (CI uses < 1 for speed)",
    )
    args = parser.parse_args()
    result = measure(args.scale)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(f"Analytic kernels, fast vs reference -> {args.out}")
    for row in _rows(result):
        print("   ", *row)
    print(
        f"  floors: {MIN_SPEEDUP_PDN}x PDN, "
        f"{MIN_SPEEDUP_CONNECTIVITY}x connectivity -> "
        f"{'OK' if result['ok'] else 'REGRESSED'}"
    )
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Analytic-kernel benchmark: PDN and Fig. 6 connectivity.

Times the two fast analytic kernels against their retained reference
paths, one run each, and verifies the results are identical:

* **PDN** — constant-power fixed point over a series of activity maps:
  per-map fresh-``spsolve`` solves vs sequential :meth:`PdnSolver.solve`
  calls on one solver, which factorizes the mesh once and reuses the LU
  for every map (floor: >=5x);
* **connectivity** — the same drawn 32x32 Fig. 6 fault maps through
  the per-fault broadcast oracle (``_pair_blockage_reference``) and the
  factorized sparse kernel behind :func:`disconnected_fraction`
  (floor: >=5x).

The emulator's kernel-vs-oracle floor lives in ``bench_emulator.py``.

    python benchmarks/bench_analysis.py [--out PATH]    # see repro.obs.bench
"""

from pathlib import Path

import numpy as np

from repro.config import SystemConfig
from repro.noc.connectivity import (
    _pair_blockage_reference,
    disconnected_fraction,
)
from repro.noc.faults import random_fault_map
from repro.obs import bench
from repro.obs.telemetry import Telemetry, use_telemetry
from repro.pdn.solver import PdnSolver

SEED = 1
MIN_SPEEDUP_PDN = 5.0           # constant-power fixed point, 32x32
MIN_SPEEDUP_CONNECTIVITY = 5.0  # Fig. 6 fault maps, 32x32
PDN_MAPS = 8
FAULT_COUNTS = (2, 5, 10)
MAPS_PER_COUNT = 20

CONFIG = {"seed": SEED, "fault_counts": list(FAULT_COUNTS)}


def _activity_maps(cfg: SystemConfig, count: int) -> list[np.ndarray]:
    """Deterministic non-uniform power maps (centre-weighted hot spots)."""
    rng = np.random.default_rng(SEED)
    maps = []
    for _ in range(count):
        activity = rng.uniform(0.4, 1.0, size=(cfg.rows, cfg.cols))
        maps.append(activity * cfg.tile_peak_power_w)
    return maps


def _paired(reference, fast) -> bench.Paired:
    """One timed run each of ``reference()`` and ``fast()``."""
    return bench.paired({"reference": lambda: reference, "fast": lambda: fast}, pairs=1)


def _bench_pdn() -> dict:
    cfg = SystemConfig()
    maps = _activity_maps(cfg, PDN_MAPS)
    tel = Telemetry()

    def fast():
        with use_telemetry(tel):
            solver = PdnSolver(cfg)
            return [solver.solve(m, load_model="constant_power") for m in maps]

    result = _paired(
        lambda: [
            PdnSolver(cfg, engine="reference").solve(m, load_model="constant_power")
            for m in maps
        ],
        fast,
    )
    solutions = result.results["fast"]
    for ref_sol, fast_sol in zip(result.results["reference"], solutions):
        if not np.allclose(ref_sol.voltages, fast_sol.voltages, atol=1e-12):
            raise AssertionError("PDN fast/reference voltages diverged")
        if ref_sol.iterations != fast_sol.iterations:
            raise AssertionError("PDN fast/reference iteration counts diverged")
    counter = tel.metrics.counter
    return bench.case(
        exact={
            "maps": len(maps),
            "iterations": sum(s.iterations for s in solutions),
            "pdn.factorizations": counter("pdn.factorizations").value,
            "pdn.factorization_reuses": counter("pdn.factorization_reuses").value,
        },
        samples=result.samples,
        gates=[bench.at_least("speedup", 1 / result.ratio, MIN_SPEEDUP_PDN)],
    )


def _bench_connectivity() -> dict:
    cfg = SystemConfig()
    rng = np.random.default_rng(SEED)
    maps = [
        random_fault_map(cfg, count, rng)
        for count in FAULT_COUNTS
        for _ in range(MAPS_PER_COUNT)
    ]
    result = _paired(
        lambda: [_pair_blockage_reference(fmap) for fmap in maps],
        lambda: [disconnected_fraction(fmap) for fmap in maps],
    )
    pairs = result.results["fast"]
    for fmap, ref_pair, fast_pair in zip(maps, result.results["reference"], pairs):
        if ref_pair != fast_pair:
            raise AssertionError(
                f"connectivity kernel diverged from the oracle at fault "
                f"count {fmap.fault_count}"
            )
    return bench.case(
        exact={
            "maps": len(maps),
            "healthy_pairs": sum(p.healthy_pairs for p in pairs),
            "single_blocked_pairs": sum(round(p.single * p.healthy_pairs) for p in pairs),
            "dual_blocked_pairs": sum(round(p.dual * p.healthy_pairs) for p in pairs),
        },
        samples=result.samples,
        gates=[bench.at_least("speedup", 1 / result.ratio, MIN_SPEEDUP_CONNECTIVITY)],
    )


def measure() -> dict:
    """Every kernel against its reference; results must be identical."""
    return {
        "pdn constant_power": _bench_pdn(),
        "fig6 32x32 fault maps": _bench_connectivity(),
    }


if __name__ == "__main__":
    raise SystemExit(
        bench.main(Path(__file__).with_name("BENCH_analysis.json"), measure, CONFIG)
    )

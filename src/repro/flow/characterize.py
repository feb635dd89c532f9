"""Prototype characterization: frequency/voltage shmoo and binning.

The paper's closing line: "Our ongoing work aims at characterizing the
waferscale prototype..."  Characterization of a fabricated wafer means
shmoo-ing: sweep frequency (and supply) per tile, find where each tile
still passes its test routine, and bin the wafer.

The silicon substitute here is an alpha-power-law delay model

    f_max(V) = k * (V - V_th)^alpha / V

calibrated so the nominal corner (1.1V) yields the 300MHz nominal
frequency with margin, and the fast-fast corner (1.21V) supports the
PLL-limited 400MHz ceiling.  Per-tile regulated voltage comes from the
LDO over the PDN solve, with a per-tile process-corner spread, so the
shmoo shows realistic wafer-position and process structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import params
from ..config import SystemConfig
from ..errors import ReproError
from ..obs.telemetry import Telemetry, resolve_telemetry
from ..pdn.ldo import LdoModel
from ..pdn.solver import PdnSolver

ALPHA = 1.3                 # alpha-power-law exponent for 40nm-class
V_THRESHOLD = 0.45          # effective threshold voltage


def _fmax_hz(v: float, k: float) -> float:
    if v <= V_THRESHOLD:
        return 0.0
    return k * (v - V_THRESHOLD) ** ALPHA / v


def _calibrate_k() -> float:
    """Pick k so the FF corner (1.21V) lands on the 400MHz PLL ceiling."""
    v = params.FF_CORNER_VOLTAGE
    return params.PLL_OUT_MAX_HZ * v / (v - V_THRESHOLD) ** ALPHA


@dataclass
class ShmooResult:
    """Per-tile maximum frequency and wafer-level binning."""

    config: SystemConfig
    fmax_hz: np.ndarray             # (rows, cols)
    regulated_v: np.ndarray

    @property
    def system_fmax_hz(self) -> float:
        """Lock-step system frequency: the slowest tile sets it."""
        return float(self.fmax_hz.min())

    @property
    def mean_fmax_hz(self) -> float:
        """Average per-tile maximum frequency."""
        return float(self.fmax_hz.mean())

    def passing_fraction(self, freq_hz: float) -> float:
        """Fraction of tiles passing at a target frequency."""
        if freq_hz <= 0:
            raise ReproError("frequency must be positive")
        return float((self.fmax_hz >= freq_hz).mean())

    def shmoo_row(self, freqs_hz: list[float]) -> list[tuple[float, float]]:
        """The classic shmoo table: (frequency, passing fraction)."""
        return [(f, self.passing_fraction(f)) for f in freqs_hz]

    def bin_counts(self, bin_edges_hz: list[float]) -> dict[str, int]:
        """Speed-bin the tiles by their fmax."""
        edges = sorted(bin_edges_hz)
        counts: dict[str, int] = {}
        flat = self.fmax_hz.reshape(-1)
        previous = 0.0
        for edge in edges:
            label = f"<{edge / 1e6:.0f}MHz"
            counts[label] = int(((flat >= previous) & (flat < edge)).sum())
            previous = edge
        counts[f">={edges[-1] / 1e6:.0f}MHz"] = int((flat >= edges[-1]).sum())
        return counts


def _shmoo_row_trial(ctx) -> tuple[list[float], list[float]]:
    """Characterize one wafer row: regulated voltage and fmax per tile.

    Deterministic given its inputs (the PDN solve and process spread are
    drawn once in the parent), so row trials can run on any number of
    engine workers and still produce the exact serial result.
    """
    ldo = LdoModel()
    k = ctx.params["k"]
    row = ctx.index
    regulated: list[float] = []
    fmax: list[float] = []
    for v_in, spread in zip(ctx.params["v_in"][row], ctx.params["spread"][row]):
        v_reg = ldo.regulate(v_in)
        regulated.append(v_reg)
        fmax.append(_fmax_hz(v_reg, k) * spread)
    return regulated, fmax


def characterize(
    config: SystemConfig | None = None,
    process_sigma: float = 0.02,
    seed: int = 0,
    *,
    workers: int = 1,
    cache=None,
    engine=None,
    telemetry: Telemetry | None = None,
) -> ShmooResult:
    """Shmoo the (simulated) prototype.

    Per-tile max frequency from the alpha-power law at the tile's
    regulated voltage, with a lognormal-ish process spread of
    ``process_sigma`` (relative) across the wafer.  Rows are
    characterized as independent trials on the experiment engine;
    results are bit-identical at any ``workers`` count.
    """
    from ..engine import engine_scope

    cfg = config or SystemConfig()
    if process_sigma < 0:
        raise ReproError("process sigma must be non-negative")
    tel = resolve_telemetry(telemetry)
    solution = PdnSolver(cfg).solve()
    k = _calibrate_k()
    rng = np.random.default_rng(seed)
    spread = rng.normal(1.0, process_sigma, size=(cfg.rows, cfg.cols))
    v_in = [
        [float(solution.voltage_at((r, c))) for c in range(cfg.cols)]
        for r in range(cfg.rows)
    ]

    with (
        engine_scope(engine, workers=workers, cache=cache, telemetry=tel) as eng,
        tel.tracer.span("flow.characterize", cat="flow", rows=cfg.rows),
    ):
        run = eng.run(
            _shmoo_row_trial,
            experiment="flow.shmoo_rows",
            trials=cfg.rows,
            seed=seed,
            config=cfg,
            params={
                "k": k,
                "v_in": v_in,
                "spread": spread.tolist(),
                "process_sigma": float(process_sigma),
            },
        )

    regulated = np.array([reg_row for reg_row, _ in run.values])
    fmax = np.array([fmax_row for _, fmax_row in run.values])
    if tel.enabled:
        tel.metrics.counter("flow.rows_characterized").inc(cfg.rows)
        fmax_hist = tel.metrics.histogram(
            "flow.tile_fmax_mhz",
            buckets=tuple(float(b) for b in range(0, 440, 20)),
        )
        for value in fmax.reshape(-1):
            fmax_hist.observe(value / 1e6)
    return ShmooResult(config=cfg, fmax_hz=fmax, regulated_v=regulated)


def characterization_report(result: ShmooResult) -> str:
    """Human-readable characterization summary."""
    lines = [
        f"tiles: {result.config.tiles}",
        f"regulated voltage: {result.regulated_v.min():.3f}"
        f"-{result.regulated_v.max():.3f} V",
        f"per-tile fmax: {result.fmax_hz.min() / 1e6:.0f}"
        f"-{result.fmax_hz.max() / 1e6:.0f} MHz "
        f"(mean {result.mean_fmax_hz / 1e6:.0f})",
        f"system lock-step fmax: {result.system_fmax_hz / 1e6:.0f} MHz",
        f"pass rate at 300MHz nominal: {result.passing_fraction(300e6):.1%}",
        f"pass rate at 350MHz: {result.passing_fraction(350e6):.1%}",
    ]
    return "\n".join(lines)

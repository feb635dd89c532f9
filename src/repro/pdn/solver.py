"""Sparse nodal-analysis IR-droop solver (paper Section III, Fig. 2).

The PDN is modelled as a resistor mesh with one node per tile.  Power is
delivered from the wafer edge: every boundary node is tied to the 2.5V edge
supply through a small connector/escape resistance.

Two load models are supported:

* ``"ldo"`` (default, and what the paper's numbers imply): a linear LDO
  passes its *logic* load current straight through, so each tile draws a
  constant current ``I = P_tile / V_ff`` regardless of the delivered
  voltage.  This is how the paper arrives at ~290A total (1024 tiles x
  350mW / 1.21V) and makes the solve a single sparse linear system.
* ``"constant_power"``: each tile draws ``I = P_tile / V_tile``, the model
  appropriate for a switching down-converter.  This is mildly nonlinear;
  the solver alternates sparse linear solves with load-current updates
  until the node voltages converge.

The headline result reproduced here is Fig. 2: 2.5V at the wafer edge
drooping to roughly 1.4V at the array centre during peak draw.

The Laplacian depends only on the mesh geometry, never on the load, so
the solver caches one sparse LU factorization (:func:`splu`) and every
subsequent solve — each fixed-point iteration, every new power map, all
columns of a :meth:`PdnSolver.solve_many` batch — costs a pair of
triangular solves instead of a fresh factorization.  Pass
``engine="reference"`` to keep the historical fresh-``spsolve``-per-call
path (the reference the differential tests compare against; see
:mod:`repro.fastpath`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.linalg import splu, spsolve

from ..config import Coord, SystemConfig
from ..errors import ConvergenceError, PdnError
from ..fastpath import resolve_engine_kind
from ..obs.telemetry import resolve_telemetry
from .plane import PlaneStack, extract_plane_stack

# Lumped resistance from the bench supply through the edge connector into a
# boundary node of the plane mesh.  Edge connectors are massively parallel
# (hundreds of power pins per side), so this is small compared with the
# plane resistance.
DEFAULT_EDGE_CONNECTOR_OHM = 2.0e-3


@dataclass
class PdnSolution:
    """Result of a PDN solve."""

    config: SystemConfig
    voltages: np.ndarray            # (rows, cols) node voltages
    currents: np.ndarray            # (rows, cols) per-tile load currents
    edge_voltage: float
    iterations: int
    converged: bool
    power_loads_w: np.ndarray | None = field(repr=False, default=None)

    def voltage_at(self, coord: Coord) -> float:
        """Delivered (unregulated) voltage at one tile."""
        self.config.validate_coord(coord)
        return float(self.voltages[coord])

    @property
    def min_voltage(self) -> float:
        """Worst-case delivered voltage (the array centre under peak draw)."""
        return float(self.voltages.min())

    @property
    def max_voltage(self) -> float:
        """Best-case delivered voltage (tiles adjacent to the edge supply)."""
        return float(self.voltages.max())

    @property
    def total_current_a(self) -> float:
        """Total current sourced by the edge supply."""
        return float(self.currents.sum())

    @property
    def supply_power_w(self) -> float:
        """Power drawn from the bench supply (at the edge voltage)."""
        return self.total_current_a * self.edge_voltage

    @property
    def load_power_w(self) -> float:
        """Power consumed by the tile loads (post-droop, pre-LDO)."""
        return float((self.voltages * self.currents).sum())

    @property
    def plane_loss_w(self) -> float:
        """Resistive loss dissipated in the power planes."""
        return self.supply_power_w - self.load_power_w

    @property
    def specified_power_w(self) -> float | None:
        """Total tile power the solve was asked to deliver.

        ``None`` when the solution was constructed without recording its
        power map (``power_loads_w=None``).
        """
        if self.power_loads_w is None:
            return None
        return float(self.power_loads_w.sum())

    @property
    def delivery_efficiency(self) -> float | None:
        """Specified load power over supply power (plane-loss efficiency).

        ``None`` when the power map was not recorded or no power is drawn.
        """
        specified = self.specified_power_w
        if specified is None or self.supply_power_w <= 0.0:
            return None
        return specified / self.supply_power_w

    def droop_profile(self) -> list[tuple[float, float]]:
        """``(distance_to_edge_mm, voltage)`` pairs for a droop-vs-distance plot.

        This is the data behind Fig. 2's edge-to-centre voltage gradient.
        """
        from ..geometry.wafer import WaferLayout

        layout = WaferLayout(self.config)
        return [
            (layout.distance_to_edge_mm(c), float(self.voltages[c]))
            for c in self.config.tile_coords()
        ]

    def center_cross_section(self) -> np.ndarray:
        """Voltages along the middle row — the classic Fig. 2 cut."""
        return self.voltages[self.config.rows // 2, :].copy()


class PdnSolver:
    """Builds and solves the waferscale PDN mesh.

    Parameters
    ----------
    config:
        System instance (grid size, pitches, supply voltage, tile power).
    stack:
        Power-plane stack; default is the paper's two slotted 2um planes.
    edge_connector_ohm:
        Lumped supply-to-boundary-node resistance.
    engine:
        ``"fast"`` (default) LU-factorizes the mesh Laplacian once
        (:func:`splu`) and reuses it for every linear solve this
        instance performs; ``"reference"`` keeps the historical
        fresh-``spsolve``-per-call path used by the differential tests
        and benchmarks.
    checkers:
        Optional :class:`~repro.verify.invariants.InvariantChecker`
        instances (e.g. ``KclResidualChecker``, ``DroopBoundChecker``);
        each is run against every solution this solver produces —
        including every :meth:`solve_many` column — and raises
        :class:`~repro.verify.invariants.InvariantViolation` on failure.
    """

    def __init__(
        self,
        config: SystemConfig | None = None,
        stack: PlaneStack | None = None,
        edge_connector_ohm: float = DEFAULT_EDGE_CONNECTOR_OHM,
        engine: str | None = None,
        checkers=None,
    ):
        self.config = config or SystemConfig()
        self.stack = stack or extract_plane_stack(self.config)
        if edge_connector_ohm <= 0:
            raise PdnError("edge connector resistance must be positive")
        self.edge_connector_ohm = edge_connector_ohm
        self.engine = resolve_engine_kind(engine, entry_point="PdnSolver")
        self.checkers = list(checkers or ())
        self._laplacian: csr_matrix | None = None
        self._edge_conductance: np.ndarray | None = None
        self._lu = None                 # cached splu factorization

    def _checked(self, solution: PdnSolution) -> PdnSolution:
        """Run every attached checker against one solution."""
        for checker in self.checkers:
            checker.check_solution(self, solution)
        return solution

    # ------------------------------------------------------------------
    # mesh construction
    # ------------------------------------------------------------------

    def _node_index(self, coord: Coord) -> int:
        r, c = coord
        return r * self.config.cols + c

    def _build_system(self) -> tuple[csr_matrix, np.ndarray]:
        """Assemble the conductance Laplacian and edge-injection vector."""
        cfg = self.config
        n = cfg.tiles
        r_h, r_v = self.stack.mesh_resistances(cfg)
        g_h, g_v = 1.0 / r_h, 1.0 / r_v

        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        diag = np.zeros(n)

        def stamp(a: int, b: int, g: float) -> None:
            rows.extend((a, b))
            cols.extend((b, a))
            vals.extend((-g, -g))
            diag[a] += g
            diag[b] += g

        for coord in cfg.tile_coords():
            r, c = coord
            i = self._node_index(coord)
            if c + 1 < cfg.cols:
                stamp(i, self._node_index((r, c + 1)), g_h)
            if r + 1 < cfg.rows:
                stamp(i, self._node_index((r + 1, c)), g_v)

        # Boundary nodes tie to the edge supply.  Corner tiles touch two
        # edges and get two connector conductances.
        g_edge = 1.0 / self.edge_connector_ohm
        edge_g = np.zeros(n)
        for coord in cfg.tile_coords():
            r, c = coord
            touches = sum(
                (r == 0, r == cfg.rows - 1, c == 0, c == cfg.cols - 1)
            )
            if touches:
                i = self._node_index(coord)
                edge_g[i] = touches * g_edge
                diag[i] += touches * g_edge

        rows.extend(range(n))
        cols.extend(range(n))
        vals.extend(diag)
        laplacian = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        return laplacian, edge_g

    # ------------------------------------------------------------------
    # linear kernel
    # ------------------------------------------------------------------

    def _ensure_system(self) -> tuple[csr_matrix, np.ndarray]:
        if self._laplacian is None:
            self._laplacian, self._edge_conductance = self._build_system()
        assert self._edge_conductance is not None
        return self._laplacian, self._edge_conductance

    def _linear_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``laplacian @ x = rhs`` (``rhs`` may be a matrix of columns).

        On the fast engine the first call LU-factorizes the
        Laplacian and every call afterwards is a pair of triangular
        solves; telemetry counts the factorizations and their reuses.
        """
        laplacian, _ = self._ensure_system()
        if self.engine != "fast":
            if rhs.ndim == 1:
                return spsolve(laplacian, rhs)
            return np.column_stack(
                [spsolve(laplacian, rhs[:, i]) for i in range(rhs.shape[1])]
            )
        tel = resolve_telemetry(None)
        if self._lu is None:
            self._lu = splu(laplacian.tocsc())
            if tel.enabled:
                tel.metrics.counter("pdn.factorizations").inc()
        elif tel.enabled:
            tel.metrics.counter("pdn.factorization_reuses").inc()
        return self._lu.solve(rhs)

    def _validate_power(self, tile_power_w: float | np.ndarray | None) -> np.ndarray:
        cfg = self.config
        if tile_power_w is None:
            tile_power_w = cfg.tile_peak_power_w
        power = np.asarray(tile_power_w, dtype=float)
        if power.ndim == 0:
            power = np.full((cfg.rows, cfg.cols), float(power))
        if power.shape != (cfg.rows, cfg.cols):
            raise PdnError(
                f"power map shape {power.shape} != array {(cfg.rows, cfg.cols)}"
            )
        if (power < 0).any():
            raise PdnError("tile power must be non-negative")
        return power

    # ------------------------------------------------------------------
    # solve
    # ------------------------------------------------------------------

    def solve(
        self,
        tile_power_w: float | np.ndarray | None = None,
        load_model: str = "ldo",
        max_iterations: int = 100,
        tolerance_v: float = 1e-6,
        min_load_voltage: float = 0.2,
    ) -> PdnSolution:
        """Solve the mesh.

        Parameters
        ----------
        tile_power_w:
            Scalar peak power per tile, or a ``(rows, cols)`` array for
            non-uniform activity maps.  Defaults to the config's peak.
        load_model:
            ``"ldo"`` — constant-current loads ``P_tile / V_ff`` (linear
            regulator pass-through; one linear solve).
            ``"constant_power"`` — ``P_tile / V_tile`` loads solved by a
            fixed point (switching-converter model).
        min_load_voltage:
            Floor used when converting power to current in the
            constant-power fixed point, preventing divergence if a load
            pulls its node far down.
        """
        cfg = self.config
        if load_model not in ("ldo", "constant_power"):
            raise PdnError(f"unknown load model {load_model!r}")
        power = self._validate_power(tile_power_w)
        _, edge_g = self._ensure_system()

        v_edge = cfg.edge_supply_voltage
        injection = edge_g * v_edge
        flat_power = power.reshape(-1)

        if load_model == "ldo":
            load_current = flat_power / cfg.ff_corner_voltage
            voltages = self._linear_solve(injection - load_current)
            currents = load_current.reshape(cfg.rows, cfg.cols)
            return self._checked(
                PdnSolution(
                    config=cfg,
                    voltages=voltages.reshape(cfg.rows, cfg.cols),
                    currents=currents,
                    edge_voltage=v_edge,
                    iterations=1,
                    converged=True,
                    power_loads_w=power,
                )
            )

        voltages = np.full(cfg.tiles, v_edge)
        converged = False
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            load_v = np.maximum(voltages, min_load_voltage)
            load_current = flat_power / load_v
            rhs = injection - load_current
            new_voltages = self._linear_solve(rhs)
            delta = float(np.abs(new_voltages - voltages).max())
            voltages = new_voltages
            if delta < tolerance_v:
                converged = True
                break

        if not converged:
            raise ConvergenceError(
                f"PDN fixed point did not converge in {max_iterations} "
                f"iterations (last delta > {tolerance_v}V)"
            )

        load_v = np.maximum(voltages, min_load_voltage)
        currents = (flat_power / load_v).reshape(cfg.rows, cfg.cols)
        return self._checked(
            PdnSolution(
                config=cfg,
                voltages=voltages.reshape(cfg.rows, cfg.cols),
                currents=currents,
                edge_voltage=v_edge,
                iterations=iterations,
                converged=converged,
                power_loads_w=power,
            )
        )

    def solve_many(
        self,
        power_maps: "list[float | np.ndarray]",
        load_model: str = "ldo",
        max_iterations: int = 100,
        tolerance_v: float = 1e-6,
        min_load_voltage: float = 0.2,
    ) -> list[PdnSolution]:
        """Solve the mesh for a batch of power maps.

        The factorization is shared across the whole batch.  The linear
        ``"ldo"`` model solves every map in a single multi-RHS triangular
        solve; ``"constant_power"`` iterates all maps jointly, retiring
        each map's column from the right-hand-side block as soon as it
        converges, so per-map iteration counts (and voltages) match a
        sequence of individual :meth:`solve` calls exactly.
        """
        cfg = self.config
        if load_model not in ("ldo", "constant_power"):
            raise PdnError(f"unknown load model {load_model!r}")
        if not power_maps:
            return []
        powers = [self._validate_power(p) for p in power_maps]
        _, edge_g = self._ensure_system()
        v_edge = cfg.edge_supply_voltage
        injection = edge_g * v_edge
        flat = np.stack([p.reshape(-1) for p in powers], axis=1)  # (n, m)
        m = flat.shape[1]

        if load_model == "ldo":
            load_current = flat / cfg.ff_corner_voltage
            voltages = self._linear_solve(injection[:, None] - load_current)
            return [
                self._checked(
                    PdnSolution(
                        config=cfg,
                        voltages=voltages[:, i].reshape(cfg.rows, cfg.cols),
                        currents=load_current[:, i].reshape(cfg.rows, cfg.cols),
                        edge_voltage=v_edge,
                        iterations=1,
                        converged=True,
                        power_loads_w=powers[i],
                    )
                )
                for i in range(m)
            ]

        voltages = np.full((cfg.tiles, m), v_edge)
        iterations = np.zeros(m, dtype=int)
        active = np.ones(m, dtype=bool)
        for iteration in range(1, max_iterations + 1):
            idx = np.nonzero(active)[0]
            load_v = np.maximum(voltages[:, idx], min_load_voltage)
            rhs = injection[:, None] - flat[:, idx] / load_v
            new_voltages = self._linear_solve(rhs)
            if new_voltages.ndim == 1:
                new_voltages = new_voltages[:, None]
            delta = np.abs(new_voltages - voltages[:, idx]).max(axis=0)
            voltages[:, idx] = new_voltages
            iterations[idx] = iteration
            active[idx[delta < tolerance_v]] = False
            if not active.any():
                break
        if active.any():
            raise ConvergenceError(
                f"PDN fixed point did not converge for {int(active.sum())} "
                f"of {m} power maps in {max_iterations} iterations"
            )

        out: list[PdnSolution] = []
        for i in range(m):
            load_v = np.maximum(voltages[:, i], min_load_voltage)
            out.append(
                self._checked(
                    PdnSolution(
                        config=cfg,
                        voltages=voltages[:, i].reshape(cfg.rows, cfg.cols),
                        currents=(flat[:, i] / load_v).reshape(cfg.rows, cfg.cols),
                        edge_voltage=v_edge,
                        iterations=int(iterations[i]),
                        converged=True,
                        power_loads_w=powers[i],
                    )
                )
            )
        return out


def solve_pdn(
    config: SystemConfig | None = None,
    tile_power_w: float | np.ndarray | None = None,
    **solver_kwargs,
) -> PdnSolution:
    """One-call PDN solve with the default plane stack."""
    return PdnSolver(config, **solver_kwargs).solve(tile_power_w)

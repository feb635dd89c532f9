"""Runtime invariant checking and golden-model verification.

Every fast engine in this codebase (the struct-of-arrays NoC simulator,
the cached-LU PDN solver, the vector emulator, the factorized
connectivity kernel) is a performance rewrite of a reference model, and
its correctness claim rests on differential evidence.  This package
turns that evidence from one-shot tests into standing infrastructure:

* :mod:`.invariants` — checkers that attach to *live* runs
  (``NocSimulator(..., checkers=[...])``, ``PdnSolver(...,
  checkers=[...])``, ``Emulator(..., checkers=[...])``) and raise a
  structured :class:`InvariantViolation` the moment a run breaks flit
  conservation, DoR legality, FIFO bounds, KCL, droop bounds, chain
  permutation integrity or vector-emulator route coherence;
* :mod:`.golden` — deliberately naive reference oracles (a loop-based
  mini-NoC, a dense ``numpy.linalg.solve`` PDN, pure-Python BFS/SSSP,
  per-collective reduction models) used as ground truth in randomized
  differential campaigns;
* :mod:`.strategies` — the shared Hypothesis strategy library the test
  suite draws configs, fault maps, traffic and power maps from;
* :mod:`.campaign` — seeded randomized fast-vs-reference-vs-oracle
  campaigns behind the ``repro verify`` CLI command.

See ``docs/verification.md`` for the checker catalog and how to add a
checker for a new subsystem.
"""

from .invariants import (
    ChainIntegrityChecker,
    DeliveryChecker,
    DorLegalityChecker,
    DroopBoundChecker,
    FifoBoundChecker,
    FlitConservationChecker,
    InvariantChecker,
    InvariantViolation,
    KclResidualChecker,
    RoundRobinChecker,
    RouteCoherenceChecker,
    default_noc_checkers,
    full_noc_checkers,
)
from .campaign import SUITES, run_verify
from .golden import (
    golden_all_reduce,
    golden_all_to_all,
    golden_broadcast,
    golden_collective_finals,
    golden_dataflow,
    golden_pipeline,
    golden_reduce,
)

__all__ = [
    "ChainIntegrityChecker",
    "DeliveryChecker",
    "DorLegalityChecker",
    "DroopBoundChecker",
    "FifoBoundChecker",
    "FlitConservationChecker",
    "InvariantChecker",
    "InvariantViolation",
    "KclResidualChecker",
    "RoundRobinChecker",
    "RouteCoherenceChecker",
    "SUITES",
    "default_noc_checkers",
    "full_noc_checkers",
    "run_verify",
    "golden_all_reduce",
    "golden_all_to_all",
    "golden_broadcast",
    "golden_collective_finals",
    "golden_dataflow",
    "golden_pipeline",
    "golden_reduce",
]

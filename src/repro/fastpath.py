"""The unified engine-name selector.

Every dual-implementation entry point in the library keeps a
*reference* path (simple, explicit, the oracle differential tests
compare against) and one optimised kernel with committed speedup
floors.  They share one selection vocabulary:

* :data:`ENGINE_KINDS` — ``"fast" | "reference"`` for the PDN solver,
  whose ``"fast"`` cached-LU kernel is its default;
* :data:`VECTOR_ENGINE_KINDS` — ``"reference" | "fast" | "vector"`` for
  the cycle-level NoC simulator and the task-level emulator, whose
  kernel is ``"vector"``.  There ``"fast"`` is an accepted alias of
  ``"reference"`` and runs the scalar oracle.  The NoC default is
  ``"reference"``; the emulator's default name is ``"fast"``, i.e. the
  oracle too.

:func:`resolve_engine_kind` checks a caller's choice against the kinds
an entry point implements.
"""

from __future__ import annotations

from .errors import ReproError

#: The two implementation kinds every dual-path entry point accepts.
ENGINE_KINDS = ("fast", "reference")

#: The vocabulary for entry points whose kernel is a batched whole-array
#: numpy engine (``"fast"`` aliases ``"reference"`` there).
#: ``noc.simulator.ENGINES`` and ``arch.emulator.ENGINES`` re-export
#: this tuple.
VECTOR_ENGINE_KINDS = ("reference", "fast", "vector")

FAST = "fast"
REFERENCE = "reference"
VECTOR = "vector"


def resolve_engine_kind(
    engine: str | None,
    *,
    default: str = FAST,
    entry_point: str = "",
    kinds: tuple[str, ...] = ENGINE_KINDS,
) -> str:
    """The engine kind to run: ``engine``, or ``default`` when ``None``.

    ``kinds`` lists the kinds the entry point implements —
    :data:`ENGINE_KINDS` for the common dual-path case,
    :data:`VECTOR_ENGINE_KINDS` for entry points with a batched-numpy
    kernel.  An unknown kind raises
    :class:`~repro.errors.ReproError` naming ``entry_point``.
    """
    if engine is None:
        return default
    if engine not in kinds:
        raise ReproError(
            f"{entry_point}: unknown engine {engine!r}; pick one of {kinds}"
        )
    return engine

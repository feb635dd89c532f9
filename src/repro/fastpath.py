"""The unified fast-path selector: ``engine="fast" | "reference"``.

Every dual-implementation entry point in the library — the cycle-level
NoC simulator, the task-level emulator and the PDN solver — keeps two
interchangeable implementations: a *reference* path (simple, explicit,
the golden model differential tests compare against) and a *fast* path
(the optimised kernel with committed speedup floors).  They all share
one selection vocabulary:

* ``engine="fast"`` — the optimised kernel (the default everywhere);
* ``engine="reference"`` — the retained reference implementation.

:func:`resolve_engine_kind` checks a caller's choice against the kinds
an entry point implements.
"""

from __future__ import annotations

from .errors import ReproError

#: The two implementation kinds every dual-path entry point accepts.
ENGINE_KINDS = ("fast", "reference")

#: The three-tier vocabulary for entry points that also ship a batched
#: whole-array numpy kernel.  ``noc.simulator.ENGINES`` and
#: ``arch.emulator.ENGINES`` re-export this tuple.
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
    :data:`VECTOR_ENGINE_KINDS` for entry points with a third
    batched-numpy tier.  An unknown kind raises
    :class:`~repro.errors.ReproError` naming ``entry_point``.
    """
    if engine is None:
        return default
    if engine not in kinds:
        raise ReproError(
            f"{entry_point}: unknown engine {engine!r}; pick one of {kinds}"
        )
    return engine

"""The unified fast-path selector: ``engine="fast" | "reference"``.

Every dual-implementation entry point in the library — the cycle-level
NoC simulator, the Fig. 6 connectivity kernels, the task-level emulator
and the PDN solver — keeps two interchangeable implementations: a
*reference* path (simple, explicit, the golden model differential tests
compare against) and a *fast* path (the optimised kernel with committed
speedup floors).  Historically each entry point grew its own selection
knob (``NocSimulator(engine=)``, connectivity ``method=``, emulator
``route_cache=``, ``PdnSolver(factorize=)``); this module is the one
vocabulary they all share now:

* ``engine="fast"`` — the optimised kernel (the default everywhere);
* ``engine="reference"`` — the retained reference implementation.

The old per-entry-point keywords keep working but emit
:class:`DeprecationWarning`; :func:`resolve_engine_kind` implements that
shim uniformly so each entry point deprecates the same way.
"""

from __future__ import annotations

import warnings
from typing import Any, Mapping

from .errors import ReproError

#: The two implementation kinds every dual-path entry point accepts.
ENGINE_KINDS = ("fast", "reference")

#: The three-tier vocabulary for entry points that also ship a batched
#: whole-array numpy kernel (the NoC simulator and the emulator).
VECTOR_ENGINE_KINDS = ("fast", "reference", "vector")

FAST = "fast"
REFERENCE = "reference"
VECTOR = "vector"


def resolve_engine_kind(
    engine: str | None,
    *,
    default: str = FAST,
    entry_point: str = "",
    kinds: tuple[str, ...] = ENGINE_KINDS,
    deprecated_name: str | None = None,
    deprecated_value: Any = None,
    deprecated_map: Mapping[Any, str] | None = None,
) -> str:
    """Resolve the unified ``engine=`` keyword, honouring a legacy knob.

    Parameters
    ----------
    engine:
        The caller's ``engine`` argument; ``None`` means "not given".
    default:
        Kind selected when neither keyword is supplied.
    entry_point:
        Name used in warnings/errors (e.g. ``"PdnSolver"``).
    kinds:
        The kinds this entry point implements — :data:`ENGINE_KINDS`
        for the common dual-path case, :data:`VECTOR_ENGINE_KINDS` for
        entry points with a third batched-numpy tier.
    deprecated_name / deprecated_value / deprecated_map:
        The legacy keyword's name, the value the caller passed (``None``
        = not given), and the mapping from legacy values to kinds (e.g.
        ``{True: "fast", False: "reference"}``).  A supplied legacy value
        emits :class:`DeprecationWarning`; supplying both keywords with
        conflicting meanings raises :class:`~repro.errors.ReproError`.
    """
    legacy_kind: str | None = None
    if deprecated_value is not None:
        assert deprecated_name and deprecated_map is not None
        try:
            legacy_kind = deprecated_map[deprecated_value]
        except (KeyError, TypeError):
            raise ReproError(
                f"{entry_point}: unknown {deprecated_name}={deprecated_value!r}; "
                f"expected one of {sorted(map(repr, deprecated_map))}"
            ) from None
        warnings.warn(
            f"{entry_point}: {deprecated_name}={deprecated_value!r} is deprecated; "
            f"use engine={legacy_kind!r}",
            DeprecationWarning,
            stacklevel=3,
        )
    if engine is not None:
        if engine not in kinds:
            raise ReproError(
                f"{entry_point}: unknown engine {engine!r}; pick one of {kinds}"
            )
        if legacy_kind is not None and legacy_kind != engine:
            raise ReproError(
                f"{entry_point}: engine={engine!r} conflicts with "
                f"{deprecated_name}={deprecated_value!r} (= engine {legacy_kind!r})"
            )
        return engine
    if legacy_kind is not None:
        return legacy_kind
    return default

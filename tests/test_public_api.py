"""Every public top-level name in ``src/repro`` has a non-test caller.

A function or class that only tests call is code the reproduction
carries for nothing: no paper artifact, CLI command, verify suite or
benchmark needs it.  This test parses the tree with :mod:`ast` and
fails when a public top-level ``def``/``class`` in ``src/repro`` is
named nowhere outside ``tests/``.  A name counts as used when it
appears as an identifier (a name or an attribute) in a module of
``src/repro`` other than a package ``__init__`` (re-exports do not
count), or anywhere in ``benchmarks/``, ``examples/`` or ``perfbench/``.

Names kept on purpose sit in :data:`ALLOWED`, each with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CALLER_DIRS = ("benchmarks", "examples", "perfbench")

_STRATEGY = "shared Hypothesis strategy library (verify/strategies.py)"

#: ``"module/path.py:name"`` -> why the name stays with no non-test caller.
ALLOWED = {
    "clock/placement.py:greedy_generator_set": (
        "EXPERIMENTS.md clock-generator placement row (47 -> 31 hops)"
    ),
    "config.py:paper_config": "package-level constructor exported by repro",
    "config.py:reduced_config": "package-level constructor exported by repro",
    "engine/adaptive.py:CIStop": "run by CI's adaptive-sampling smoke step",
    "obs/manifest.py:read_manifest": "reader for the manifests repro writes",
    "verify/golden.py:golden_dataflow": "oracle of the dataflow collectives",
    "workloads/stencil.py:reference_jacobi": "oracle of the stencil kernel",
    "verify/strategies.py:hop_counts": _STRATEGY,
    "verify/strategies.py:word_offsets": _STRATEGY,
    "verify/strategies.py:bit_positions": _STRATEGY,
    "verify/strategies.py:mbist_fault_kinds": _STRATEGY,
    "verify/strategies.py:pillar_yields": _STRATEGY,
    "verify/strategies.py:io_counts": _STRATEGY,
    "verify/strategies.py:injection_rates": _STRATEGY,
    "verify/strategies.py:system_configs": _STRATEGY,
    "verify/strategies.py:fault_maps": _STRATEGY,
    "verify/strategies.py:power_maps": _STRATEGY,
    "verify/strategies.py:traffic_pairs": _STRATEGY,
    "verify/strategies.py:collective_specs": _STRATEGY,
}


def _identifiers(paths) -> set[str]:
    names: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _public_defs() -> dict[str, str]:
    """``"module/path.py:name"`` -> name, for every public top-level def."""
    defs = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        module = path.relative_to(SRC).as_posix()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defs[f"{module}:{node.name}"] = node.name
    return defs


def _used_outside_tests() -> set[str]:
    modules = [p for p in SRC.rglob("*.py") if p.name != "__init__.py"]
    callers = [p for d in CALLER_DIRS for p in (ROOT / d).rglob("*.py")]
    return _identifiers(modules) | _identifiers(callers)


def test_no_public_name_is_test_only():
    used = _used_outside_tests()
    unused = sorted(
        key for key, name in _public_defs().items()
        if name not in used and key not in ALLOWED
    )
    assert not unused, (
        "public names with no caller outside tests/ (delete them with "
        f"their tests, or add them to ALLOWED with a reason): {unused}"
    )


def test_allowlist_names_existing_unused_defs():
    # A stale entry would let a later test-only name of the same key in.
    defs = _public_defs()
    used = _used_outside_tests()
    stale = sorted(
        key for key in ALLOWED if key not in defs or defs[key] in used
    )
    assert not stale, f"ALLOWED entries that are gone or now used: {stale}"

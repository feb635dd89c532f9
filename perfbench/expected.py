"""Write ``perfbench/expected.json``: the outputs of every pool entry.

Usage (from the repository root)::

    python3 perfbench/expected.py

The pooled workloads (noc-dense, sparse-comm, design-flow) draw every
op's inputs from ``POOL`` fixed entries, and the benchmark compares each
op's output with the entry's output committed here.  Each output is
produced by the benchmark's own op and, before it is written, checked
against a second computation of it:

* noc-dense, sparse-comm: the same op on ``engine="fast"``, which the
  program keeps bit-identical to the vector engine;
* design-flow (one engine only): the traced re-issue of the op, stage by
  stage through the flow's public calls.

Rewrite the file only for a change that is meant to alter simulated
results, and say so in that change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import SpanRecorder  # noqa: E402
from workloads import EXPECTED_PATH, POOL, WORKLOADS, plain  # noqa: E402


def second_opinion(w, inp: dict) -> dict:
    if w.name == "design-flow":
        rec = SpanRecorder()
        with rec.op(inp["entry"]):
            return w.traced(inp, rec)
    return w.run(inp, engine="fast")


def main() -> int:
    doc: dict = {"pool": POOL}
    with tempfile.TemporaryDirectory() as scratch:
        for name, cls in WORKLOADS.items():
            w = cls(0, Path(scratch))
            if not w.pooled:
                continue
            w.order = range(POOL)           # op index i is pool entry i
            entries = []
            for entry in range(POOL):
                inp = w.inputs(entry)
                out = w.run(inp)
                failures = w.check(inp, out)
                if plain(out) != plain(second_opinion(w, inp)):
                    failures.append("second computation differs")
                if failures:
                    print(f"{name} entry {entry}: {failures}", file=sys.stderr)
                    return 1
                entries.append({"seed": inp["seed"], "output": plain(out)})
                print(f"{name} entry {entry}: ok", flush=True)
            doc[name] = entries
    EXPECTED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

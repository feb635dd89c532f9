"""Design-report generation: the flow's results as a reviewable document.

Turns a :class:`~repro.flow.designer.DesignFlowResult` (plus the Table-I
report and optional characterization) into a Markdown design-review
document — the artefact a design team would circulate after running the
flow on a candidate configuration.
"""

from __future__ import annotations

import io

from ..config import SystemConfig
from .designer import DesignFlowResult, run_design_flow
from .report import table1_report


def write_design_report(
    flow: DesignFlowResult,
    stream: io.TextIOBase,
    include_characterization: bool = False,
) -> None:
    """Write the Markdown design report for one flow run."""
    cfg = flow.config
    stream.write(f"# Waferscale design review — {cfg.rows}x{cfg.cols} tile array\n\n")
    verdict = "**ALL STAGES PASS**" if flow.ok else "**STAGE FAILURES PRESENT**"
    stream.write(f"Overall: {verdict}\n\n")

    stream.write("## System summary (Table-I style)\n\n")
    report = table1_report(cfg)
    stream.write("| quantity | value |\n|---|---|\n")
    for label, value in report.rows():
        stream.write(f"| {label} | {value} |\n")
    stream.write("\n")

    stream.write("## Design-flow stages\n\n")
    for stage in flow.stages:
        mark = "PASS" if stage.ok else "FAIL"
        stream.write(f"### {stage.name} — {mark}\n\n")
        stream.write(f"{stage.notes}\n\n")
        if stage.metrics:
            stream.write("| metric | value |\n|---|---|\n")
            for key, value in stage.metrics.items():
                if isinstance(value, float):
                    rendered = f"{value:.4g}"
                else:
                    rendered = str(value)
                stream.write(f"| {key} | {rendered} |\n")
            stream.write("\n")

    if include_characterization:
        from .characterize import characterization_report, characterize

        stream.write("## Prototype characterization (simulated shmoo)\n\n")
        stream.write("```\n")
        stream.write(characterization_report(characterize(cfg)))
        stream.write("\n```\n")


def design_report_markdown(
    config: SystemConfig | None = None,
    connectivity_trials: int = 10,
    include_characterization: bool = False,
) -> str:
    """One-call flow run + report rendering."""
    cfg = config or SystemConfig()
    flow = run_design_flow(cfg, connectivity_trials=connectivity_trials)
    buffer = io.StringIO()
    write_design_report(
        flow, buffer, include_characterization=include_characterization
    )
    return buffer.getvalue()

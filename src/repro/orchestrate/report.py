"""Aggregation of campaign outcomes into the paper's summary shapes.

``table2_summary`` groups outcomes by circuit and job tag into the Table II
layout (QoR per flow, geomeans, improvement row); ``fig9_summary`` reduces
the outcomes of flows that run through the e-graph to the Fig. 9
runtime-breakdown percentages, read off their per-pass runtimes by pass
name.  Both return plain dicts (JSON-ready) and have text renderers.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.orchestrate.executor import CampaignReport, JobOutcome
from repro.pipeline import fig9_breakdown


def geomean(values: Sequence[float]) -> float:
    positives = [value for value in values if value > 0]
    if not positives:
        return 0.0
    return math.exp(sum(math.log(value) for value in positives) / len(positives))


def format_table(title: str, header: List[str], rows: List[List[object]]) -> str:
    """Fixed-width text table (same shape the benchmark harness prints)."""
    cells = [[str(c) for c in row] for row in [header] + rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = [f"=== {title} ==="]
    for row in cells:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def _variant(outcome: JobOutcome) -> str:
    """Report column for an outcome: its tag (untagged jobs are "pipeline")."""
    return outcome.spec.tag or "pipeline"


def table2_summary(campaign: CampaignReport) -> Dict[str, object]:
    """Per-circuit QoR rows per flow variant, geomeans, and improvements."""
    rows: Dict[str, Dict[str, Dict[str, float]]] = {}
    variants: List[str] = []
    for outcome in campaign.successful():
        result = (outcome.record or {}).get("result") or {}
        if "delay" not in result:
            continue
        variant = _variant(outcome)
        if variant not in variants:
            variants.append(variant)
        rows.setdefault(outcome.spec.circuit.label, {})[variant] = {
            "area": float(result["area"]),
            "delay": float(result["delay"]),
            "lev": int(result["levels"]),
            "runtime": float(result["runtime"]),
        }

    gm = {
        variant: {
            metric: geomean([row[variant][metric] for row in rows.values() if variant in row])
            for metric in ("area", "delay", "runtime")
        }
        for variant in variants
    }

    improvements: Dict[str, float] = {}
    if "baseline" in gm and "emorphic" in gm and gm["baseline"]["area"] > 0:
        improvements["area_improvement_pct"] = 100.0 * (1.0 - gm["emorphic"]["area"] / gm["baseline"]["area"])
        improvements["delay_improvement_pct"] = 100.0 * (
            1.0 - gm["emorphic"]["delay"] / gm["baseline"]["delay"]
        )
    if "emorphic" in gm and "emorphic_ml" in gm and gm["emorphic"]["runtime"] > 0:
        improvements["ml_runtime_saving_pct"] = 100.0 * (
            1.0 - gm["emorphic_ml"]["runtime"] / gm["emorphic"]["runtime"]
        )

    return {"variants": variants, "rows": rows, "geomean": gm, **improvements}


def render_table2(summary: Dict[str, object], title: str = "Table II: QoR per flow") -> str:
    variants: List[str] = list(summary["variants"])
    header = ["Circuit"]
    for variant in variants:
        header += [f"{variant} area", f"{variant} delay", f"{variant} lev", f"{variant} rt"]
    table: List[List[object]] = []
    for name, row in summary["rows"].items():
        line: List[object] = [name]
        for variant in variants:
            cell = row.get(variant)
            if cell is None:
                line += ["-", "-", "-", "-"]
            else:
                line += [f"{cell['area']:.2f}", f"{cell['delay']:.1f}", cell["lev"], f"{cell['runtime']:.2f}"]
        table.append(line)
    gm = summary["geomean"]
    line = ["GEOMEAN"]
    for variant in variants:
        line += [f"{gm[variant]['area']:.2f}", f"{gm[variant]['delay']:.1f}", "-", f"{gm[variant]['runtime']:.2f}"]
    table.append(line)
    text = format_table(title, header, table)
    extras = [
        f"{key}: {value:+.2f}%"
        for key, value in summary.items()
        if key.endswith("_pct")
    ]
    if extras:
        text += "\n" + "\n".join(extras)
    return text


def fig9_summary(campaign: CampaignReport) -> Dict[str, object]:
    """Runtime-breakdown percentages per circuit per variant, for every
    outcome whose flow built an e-graph (``dag2eg`` or ``partition``)."""
    rows: Dict[str, Dict[str, Dict[str, float]]] = {}
    for outcome in campaign.successful():
        result = (outcome.record or {}).get("result") or {}
        passes = result.get("pass_runtimes") or []
        if not any(name in ("dag2eg", "partition") for name, _ in passes):
            continue
        parts = fig9_breakdown(passes)
        total = sum(parts.values()) or 1.0
        variant = _variant(outcome)
        rows.setdefault(outcome.spec.circuit.label, {})[variant] = {
            name: 100.0 * value / total for name, value in parts.items()
        }
    return {"rows": rows}


def render_fig9(summary: Dict[str, object], title: str = "Fig. 9: runtime breakdown") -> str:
    header = ["Circuit", "variant", "ABC flow %", "e-graph %", "SA extraction %"]
    table: List[List[object]] = []
    for name, row in summary["rows"].items():
        for variant, parts in row.items():
            table.append(
                [
                    name,
                    variant,
                    f"{parts['abc_flow']:.1f}",
                    f"{parts['egraph_conversion']:.1f}",
                    f"{parts['sa_extraction']:.1f}",
                ]
            )
    return format_table(title, header, table)


def render_frontier(frontier: Dict[str, Dict[str, object]], title: str = "Sweep frontier") -> str:
    header = ["Circuit", "delay", "area", "lev", "runtime", "best point", "key"]
    table: List[List[object]] = []
    for name, entry in frontier.items():
        point = ", ".join(f"{k}={v}" for k, v in sorted(entry.get("point", {}).items())) or "(base)"
        table.append(
            [
                name,
                f"{entry['delay']:.1f}",
                f"{entry['area']:.2f}",
                entry.get("levels", "-"),
                f"{entry['runtime']:.2f}" if entry.get("runtime") is not None else "-",
                point,
                str(entry.get("key", ""))[:8],
            ]
        )
    return format_table(title, header, table)

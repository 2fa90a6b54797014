"""Figure 9: runtime breakdown of the E-morphic flow.

For each circuit the harness reports what fraction of the total runtime is
spent in (a) the conventional ABC-style delay-oriented flow, (b) e-graph
conversion plus equality saturation, and (c) SA extraction — once with the
mapping (ABC-style) cost model and once with the ML cost model.  The paper's
observation to reproduce: the DAG-to-DAG conversion itself is negligible
(the e-graph bucket is dominated by the saturation iterations, not by
getting in and out of the e-graph).

The double sweep runs as one campaign through the orchestrator, so repeated
harness invocations are served from the persistent result store.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.flows.emorphic import EmorphicConfig
from repro.orchestrate import make_job, run_campaign
from repro.orchestrate.report import fig9_summary, render_fig9
from repro.pipeline import fig9_breakdown

from conftest import TABLE_CIRCUITS, bench_preset

pytestmark = [pytest.mark.slow]

RESULTS_PATH = Path(__file__).parent / "results_fig9.json"

#: A representative subset (small / medium / large, arithmetic and control)
#: keeps the double sweep affordable; set EMORPHIC_FIG9_ALL=1 for all ten.
SUBSET = ["adder", "sqrt", "mem_ctrl", "multiplier"]


def _circuit_names() -> list:
    import os

    return TABLE_CIRCUITS if os.environ.get("EMORPHIC_FIG9_ALL") else SUBSET


def _run() -> dict:
    base = EmorphicConfig.fast()
    ml = EmorphicConfig.from_dict(base.to_dict())
    ml.use_ml_model = True
    preset = bench_preset()
    jobs = []
    for name in _circuit_names():
        jobs.append(make_job(name, "emorphic", config=base, preset=preset, tag="emorphic"))
        jobs.append(make_job(name, "emorphic", config=ml, preset=preset, tag="emorphic_ml"))
    campaign = run_campaign(jobs, progress=True)
    assert campaign.ok, f"campaign had failures: {campaign.summary_line()}"

    summary = fig9_summary(campaign)
    # The conversion-proper share (without the saturation time folded in)
    # backs the paper's "conversion is negligible" observation.
    conversion_share = {}
    for outcome in campaign.successful():
        passes = (outcome.record or {}).get("result", {}).get("pass_runtimes") or []
        total = sum(fig9_breakdown(passes).values()) or 1.0
        conversion = sum(seconds for name, seconds in passes if name == "dag2eg")
        variants = conversion_share.setdefault(outcome.spec.circuit.label, {})
        variants[outcome.spec.tag] = 100.0 * conversion / total
    summary["conversion_share_pct"] = conversion_share
    return summary


@pytest.mark.benchmark(group="fig9")
def test_fig9_runtime_breakdown(benchmark):
    summary = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = summary["rows"]

    print()
    print(render_fig9(summary, title="Figure 9: runtime breakdown of E-morphic"))
    RESULTS_PATH.write_text(json.dumps(summary, indent=2))

    for name, row in rows.items():
        for variant in ("emorphic", "emorphic_ml"):
            parts = row[variant]
            assert abs(sum(parts.values()) - 100.0) < 1e-6
            assert all(value >= 0.0 for value in parts.values())
            # Conversion proper is the negligible component, as in the paper;
            # the e-graph bucket is saturation time.
            assert summary["conversion_share_pct"][name][variant] < 10.0

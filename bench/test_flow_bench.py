"""Tests of the flow benchmark itself: run with ``python -m pytest -q bench``.

The traced run of every workload (one round: untraced, traced and
all-observers pass, each in its own process) is shared by several tests and
takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import flow_bench
from simcheck import check_netlist
from worker import classify
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_bench(tmp_path: Path, *args: str) -> tuple:
    """Run the benchmark command; returns (printed metric names, result, payload)."""
    out_json = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "flow_bench.py"), *args, "--json", str(out_json)],
        capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    names = {line.split()[1] for line in lines[:-1]}
    return names, result, json.loads(out_json.read_text())


@pytest.fixture(scope="module")
def traced_all(tmp_path_factory):
    return run_bench(tmp_path_factory.mktemp("traced"), "--workload", "all", "--trace")


def test_contract_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == flow_bench.END_TO_END_UNITS
    per_layer = {**flow_bench.LAYER_UNITS, **flow_bench.OVERHEAD_UNITS}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == per_layer


def test_untraced_run_prints_exactly_the_end_to_end_metrics(tmp_path):
    names, result, _ = run_bench(tmp_path, "--workload", "paper-flow")
    expected = {m["name"] for m in SPEC["end_to_end"]}
    assert names == expected
    assert set(result["metrics"]) == expected
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1


def test_traced_run_prints_exactly_the_per_layer_metrics(traced_all):
    names, result, _ = traced_all
    expected = {m["name"] for m in SPEC["per_layer"]}
    assert names == expected
    for workload in WORKLOADS:
        assert set(result["metrics"][workload]) == expected


def test_every_workload_finishes_without_failures(traced_all):
    _, result, payload = traced_all
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 * sum(len(w.circuits) for w in WORKLOADS.values())
    for workload, report in payload["workloads"].items():
        for p in report["passes"]:
            assert p["complete"], (workload, p["mode"])


def test_same_seed_gives_identical_qor_in_separate_processes(traced_all):
    _, _, payload = traced_all
    for workload, report in payload["workloads"].items():
        qor = {}
        for p in report["passes"]:
            for flow in p["flows"]:
                key = (flow["delay"], flow["area"], flow["ands_out"])
                qor.setdefault(flow["circuit"], set()).add(key)
        assert all(len(values) == 1 for values in qor.values()), (workload, qor)


def test_pass_spans_cover_the_traced_flow(traced_all):
    _, _, payload = traced_all
    for workload, report in payload["workloads"].items():
        for flow in (f for p in report["passes"] if p["mode"] == "traced" for f in p["flows"]):
            covered = sum(s["end"] - s["start"] for s in flow["spans"] if s["parent"] is not None)
            assert 0.95 * flow["wall_s"] <= covered <= flow["wall_s"], (workload, flow["circuit"])


def real_flow_output(circuit: str):
    from repro.benchgen import build
    from repro.pipeline import Pipeline

    aig = build(circuit, preset="test")
    result = Pipeline.from_script("st; dag2eg; saturate(iters=2); extract(greedy); map").run_flow(aig)
    return aig, result.mapping.netlist


@pytest.mark.parametrize("circuit", ["sqrt", "mem_ctrl"])  # 6 PIs: exhaustive; 22 PIs: random
def test_simulator_accepts_real_output_and_catches_a_flipped_gate(circuit):
    aig, netlist = real_flow_output(circuit)
    assert check_netlist(aig, netlist) is None

    observable = next(inst for inst in netlist.gates if inst.output in netlist.primary_outputs)
    full = (1 << (1 << observable.gate.num_inputs)) - 1
    observable.gate = dataclasses.replace(observable.gate, truth=observable.gate.truth ^ full)
    assert "differs" in check_netlist(aig, netlist)


@pytest.mark.parametrize(
    "result, mismatch, failed, unknown",
    [
        (SimpleNamespace(equivalence=SimpleNamespace(status="equivalent")), None, False, 0),
        (SimpleNamespace(equivalence=SimpleNamespace(status="unknown")), None, False, 1),
        (SimpleNamespace(equivalence=SimpleNamespace(status="counterexample")), None, True, 0),
        (SimpleNamespace(equivalence=SimpleNamespace(status="equivalent")), "output 0 differs", True, 0),
        (SimpleNamespace(rewrite_report=SimpleNamespace(stop_reason="time_limit")), None, True, 0),
        (
            SimpleNamespace(
                partition_profile=SimpleNamespace(
                    final_cec="equivalent",
                    windows=[SimpleNamespace(index=3, cec="equivalent", saturation_stop="time_limit")],
                ),
            ),
            None,
            True,
            0,
        ),
    ],
)
def test_failure_accounting(result, mismatch, failed, unknown):
    reason, unknowns = classify(result, mismatch)
    assert (reason is not None) == failed
    assert unknowns == unknown


def test_a_pass_over_its_time_bound_fails_every_unfinished_flow(monkeypatch):
    monkeypatch.setattr(flow_bench, "PASS_TIMEOUT_S", 2.0)
    p = flow_bench.run_pass("saturate-deep", 1, "plain")
    assert not p["complete"]
    assert [flow["ok"] for flow in p["flows"]] == [False] * len(WORKLOADS["saturate-deep"].circuits)
    assert all("timed out" in flow["reason"] for flow in p["flows"])

"""Tests of the layer-bench harness (:mod:`repro.pipeline.bench`).

Each bench's fast profile reproduces its committed reference's gated counts,
the reference gate fails when it compares nothing, a bench writes a payload
only when asked to, and docs/benchmarks.md lists the harness's variants.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.pipeline import Pipeline, resolve_pass
from repro.pipeline.bench import BENCHES, EXTRACTION, check_regressions, run_bench

ROOT = Path(__file__).resolve().parents[1]


def _reference(bench):
    return json.loads((ROOT / "benchmarks" / f"{bench.name}_reference.json").read_text())


@pytest.mark.parametrize(
    "name, circuit", [("saturation", "hyp"), ("extraction", "hyp"), ("partition", "log2")]
)
def test_fast_profile_reproduces_reference(name, circuit):
    bench = BENCHES[name]
    reference = _reference(bench)
    payload = run_bench(bench, circuits=[circuit], fast=True)
    # check_regressions compares counts only under equal preset and limits,
    # so a changed limits dict would switch the count gate off silently.
    assert payload["preset"] == reference["preset"]
    assert payload["limits"] == reference["limits"]
    assert check_regressions(payload, reference, max_ratio=float("inf"), counts=bench.counts) == []
    assert set(payload["circuits"][circuit]["runs"]) == set(reference["circuits"][circuit]["runs"])


def test_reference_gate_fails_when_it_compares_nothing():
    reference = _reference(BENCHES["saturation"])
    foreign = {"circuits": {"adder": {"runs": {"backoff": {"wall_time": 1.0}}}}}
    failures = check_regressions(foreign, reference)
    assert len(failures) == 1 and failures[0].startswith("compared nothing")
    # Partial overlap compares what overlaps and skips the rest.
    partial = json.loads(json.dumps(reference))
    partial["circuits"]["adder"] = foreign["circuits"]["adder"]
    assert check_regressions(partial, reference) == []


def test_bench_writes_no_payload_without_json(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["saturate-bench", "--fast", "--circuits", "mem_ctrl", "--no-ledger"]) == 0
    assert list(tmp_path.iterdir()) == []
    assert "mem_ctrl" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["saturate-bench", "--iters", "0"],
        ["extract-bench", "--moves", "12"],
        ["partition-bench", "--k", "0"],
        ["partition-bench", "--preset", "test"],
    ],
)
def test_budget_overrides_are_gone(argv, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("fast", [True, False])
def test_extraction_variants_spend_the_move_budget(fast):
    limits = EXTRACTION.profile(fast).limits
    for script in EXTRACTION.scripts(fast).values():
        (extract,) = [step for step in Pipeline.from_script(script).steps if step.pass_name == "extract"]
        params = {**resolve_pass("extract").params, **extract.param_dict}
        assert params["threads"] * params["iters"] * params["moves"] == limits["move_budget"]


def test_benchmarks_doc_table_matches_harness():
    """The layer-bench table in docs/benchmarks.md lists every variant's
    fast-profile script, and each bench's timed passes and gated fields."""
    doc = (ROOT / "docs" / "benchmarks.md").read_text()
    section = doc.split("\n## The layer benches\n", 1)[1].split("\n## ", 1)[0]
    scripts, timed, counts, command = {}, {}, {}, None
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 5 or not re.fullmatch(r"`\w+`", cells[1]):
            continue
        command = cells[0].strip("`") or command
        scripts[(command, cells[1].strip("`"))] = cells[2].strip("`")
        if cells[3]:
            timed[command] = re.findall(r"`(\w+)`", cells[3])
            counts[command] = re.findall(r"`(\w+)`", cells[4])
    expected = {
        (bench.command, variant): script
        for bench in BENCHES.values()
        for variant, script in bench.scripts(fast=True).items()
    }
    assert set(scripts) == set(expected)
    for key, script in expected.items():
        assert Pipeline.from_script(scripts[key]) == Pipeline.from_script(script), key
    for bench in BENCHES.values():
        assert timed[bench.command] == list(bench.timed), bench.command
        assert counts[bench.command] == list(bench.counts), bench.command

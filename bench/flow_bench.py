"""Whole-flow benchmark: AIG in -> mapped, checked netlist out.

    python bench/flow_bench.py [--workload NAME|all] [--seed N] [--repeat N]
                               [--seconds S] [--trace [0|1]] [--json PATH]

Every pass of a workload (set-up plus one flow per circuit) runs in its own
``bench/worker.py`` process, so ``setup_s`` includes the imports and
``peak_rss_mb`` is never inherited from an earlier pass.  Passes run one at a
time (a closed loop with one client); the only parallelism is the 2-process
pool inside ``partition-windows``.  Rounds (one pass of every selected
workload, round-robin) repeat until at least ``--repeat`` rounds ran and the
next round would end after ``--seconds`` per workload.

Without ``--trace`` the end-to-end metrics are reported; with ``--trace``
each round runs an untraced, a traced and an all-observers pass, and the
per-layer metrics are reported instead.  Each metric prints as one line
(workload, name, median, unit, quartiles, sample count); the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every flow passed its checks and
the QoR of every circuit was identical in every pass.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from worker import LAYER_UNITS, MODES
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent

END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "flow_s": "s",
    "flow_cpu_s": "s",
    "peak_rss_mb": "MiB",
    "delay": "ps",
    "area": "um2",
}
OVERHEAD_UNITS: Dict[str, str] = {
    "obs.trace_overhead": "ratio",
    "obs.observers_overhead": "ratio",
}

#: A pass normally takes a few seconds; past this it is killed and every
#: flow it had not finished counts as failed.
PASS_TIMEOUT_S = 120.0


class SetupError(RuntimeError):
    """A worker could not even set up (e.g. the program is not importable)."""


def kill_group(proc: subprocess.Popen) -> None:
    """Kill a worker and everything it started (pool processes included)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_pass(workload: str, seed: int, mode: str) -> Dict[str, object]:
    """Run one worker process; returns its records with missing flows failed."""
    command = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), mode]
    # Users run with bytecode caches, so the worker may write them: only the
    # first pass in a fresh checkout compiles the program from source.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env, start_new_session=True)
    timed_out = False
    try:
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        timed_out = True
        kill_group(proc)
        out, _ = proc.communicate()
    finally:
        kill_group(proc)
        proc.wait()
    records = []
    for line in out.splitlines():
        if line.startswith("{"):
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    by_kind: Dict[str, List[Dict[str, object]]] = {}
    for record in records:
        by_kind.setdefault(record.get("kind"), []).append(record)
    if not by_kind.get("setup"):
        raise SetupError(f"{workload} worker exited with code {proc.returncode} before set-up finished")
    flows = by_kind.get("flow", [])
    finished = {flow["circuit"] for flow in flows}
    why = f"timed out after {PASS_TIMEOUT_S:.0f} s" if timed_out else f"worker exited with code {proc.returncode}"
    for circuit in WORKLOADS[workload].circuits:
        if circuit not in finished:
            flows.append({"circuit": circuit, "ok": False, "reason": why})
    end = (by_kind.get("end") or [{}])[0]
    return {
        "workload": workload,
        "mode": mode,
        "setup_s": by_kind["setup"][0]["setup_s"],
        "flows": flows,
        "complete": bool(end) and all(flow["ok"] for flow in flows),
        "peak_rss_mb": end.get("peak_rss_mb"),
        "layers": end.get("layers"),
    }


def summarize(values: List[float]) -> Dict[str, object]:
    """Median, quartiles (``statistics.quantiles``) and sample count."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": list(values)}


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def flow_seconds(passes: List[Dict[str, object]], key: str = "wall_s") -> List[float]:
    """Per pass, the sum over circuits of one flow timing."""
    return [sum(flow[key] for flow in p["flows"]) for p in passes]


def end_to_end(passes: List[Dict[str, object]]) -> Dict[str, Dict[str, object]]:
    """End-to-end metrics over a workload's untraced passes."""
    complete = [p for p in passes if p["complete"]]
    metrics = {"setup_s": summarize([p["setup_s"] for p in passes])}
    if complete:
        metrics.update(
            flow_s=summarize(flow_seconds(complete)),
            flow_cpu_s=summarize(flow_seconds(complete, "cpu_s")),
            peak_rss_mb=summarize([p["peak_rss_mb"] for p in complete]),
            delay=summarize([geomean([f["delay"] for f in p["flows"]]) for p in complete]),
            area=summarize([geomean([f["area"] for f in p["flows"]]) for p in complete]),
        )
    return metrics


def per_layer(passes: List[Dict[str, object]]) -> Dict[str, Dict[str, object]]:
    """Per-layer metrics over a workload's traced passes, plus observer overheads."""
    by_mode = {mode: [p for p in passes if p["mode"] == mode and p["complete"]] for mode in MODES}
    metrics: Dict[str, Dict[str, object]] = {}
    if by_mode["traced"]:
        for name in LAYER_UNITS:
            metrics[name] = summarize([p["layers"][name] for p in by_mode["traced"]])
    if by_mode["plain"]:
        untraced = statistics.median(flow_seconds(by_mode["plain"]))
        for name, mode in (("obs.trace_overhead", "traced"), ("obs.observers_overhead", "observers")):
            if by_mode[mode]:
                ratios = [seconds / untraced for seconds in flow_seconds(by_mode[mode])]
                metrics[name] = summarize(ratios)
                metrics[name]["bases"] = {mode: statistics.median(flow_seconds(by_mode[mode])),
                                          "untraced": untraced}
    return metrics


def qor_mismatches(passes: List[Dict[str, object]]) -> List[str]:
    """Circuits whose (delay, area, ANDs out) differ between passes or modes."""
    seen: Dict[str, set] = {}
    for p in passes:
        for flow in p["flows"]:
            if flow["ok"]:
                seen.setdefault(flow["circuit"], set()).add((flow["delay"], flow["area"], flow["ands_out"]))
    return [circuit for circuit, qor in seen.items() if len(qor) > 1]


def machine_stamp() -> Dict[str, object]:
    """What a reference number must be compared like with like on."""
    import numpy  # the program's one dependency

    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1, help="workload seed (2 is the held-out seed)")
    parser.add_argument("--repeat", type=int, default=1, help="minimum number of rounds")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep adding rounds while they fit in this many seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer metrics from traced passes instead")
    parser.add_argument("--json", type=Path, help="also write every sample, span and stamp here")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.seconds < 0:
        parser.error("--repeat must be at least 1 and --seconds non-negative")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = MODES if args.trace else ("plain",)
    budget = args.seconds * len(names)
    passes: Dict[str, List[Dict[str, object]]] = {name: [] for name in names}
    start = time.perf_counter()
    round_seconds: List[float] = []
    try:
        while True:
            round_start = time.perf_counter()
            for name in names:
                for mode in modes:
                    passes[name].append(run_pass(name, args.seed, mode))
            round_seconds.append(time.perf_counter() - round_start)
            elapsed = time.perf_counter() - start
            if len(round_seconds) >= args.repeat and elapsed + statistics.median(round_seconds) > budget:
                break
    except SetupError as error:
        print(f"flow_bench: {error}", file=sys.stderr)
        return 2

    attempted = failed = 0
    correct = True
    report: Dict[str, Dict[str, object]] = {}
    for name in names:
        runs = passes[name]
        for p in runs:
            for flow in p["flows"]:
                attempted += 1
                if not flow["ok"]:
                    failed += 1
                    print(f"FAILED {name} {flow['circuit']} ({p['mode']}): {flow['reason']}", file=sys.stderr)
        unstable = qor_mismatches(runs)
        for circuit in unstable:
            print(f"FAILED {name} {circuit}: QoR differs between passes", file=sys.stderr)
        correct = correct and not unstable
        if args.trace:
            metrics, units = per_layer(runs), {**LAYER_UNITS, **OVERHEAD_UNITS}
        else:
            metrics, units = end_to_end(runs), END_TO_END_UNITS
        for metric, stats in metrics.items():
            stats["unit"] = units[metric]
            line = (f"{name:18} {metric:28} {stats['median']:.6g} {stats['unit']}"
                    f"  q1={stats['q1']:.6g} q3={stats['q3']:.6g} n={stats['n']}")
            if "bases" in stats:
                line += "  (" + ", ".join(f"{k} flow_s {v:.6g} s" for k, v in stats["bases"].items()) + ")"
            print(line)
        report[name] = {"metrics": metrics, "passes": runs}
    correct = correct and failed == 0

    if args.json is not None:
        payload = {"machine": machine_stamp(), "seed": args.seed, "trace": args.trace, "workloads": report}
        args.json.write_text(json.dumps(payload, indent=1) + "\n")

    def values(name: str) -> Dict[str, Dict[str, object]]:
        return {metric: {"value": stats["median"], "unit": stats["unit"]}
                for metric, stats in report[name]["metrics"].items()}

    metrics = values(names[0]) if len(names) == 1 else {name: values(name) for name in names}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

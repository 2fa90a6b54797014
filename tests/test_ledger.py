"""Run-ledger tests: append/query round-trip, concurrent pool appends, and
the rolling-baseline regression math behind ``emorphic history --check``."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from repro.obs.ledger import (
    LEDGER_SCHEMA,
    RunLedger,
    attribution_digest,
    check_records,
    compare_group,
    config_digest,
    default_ledger_path,
    flow_record,
    group_records,
    log_record,
    median,
)
from repro.orchestrate.store import default_store_path


def _record(ands=100, runtime=1.0, ts=None, circuit="adder", **kwargs):
    rec = flow_record(
        "run",
        circuit=circuit,
        flow="emorphic",
        config={"iters": 2},
        qor={"ands": ands, "levels": 10, "delay": 100.0, "area": 50.0},
        runtime=runtime,
        pass_runtimes=[("st", 0.1), ("map", 0.2)],
        **kwargs,
    )
    if ts is not None:
        rec["ts"] = ts
    return rec


class TestSuiteIsolation:
    def test_default_ledger_and_store_resolve_under_tmp_path(self, tmp_path):
        """Inside a test, the default run ledger and result store are the
        test's own (``conftest.py``), so a CLI call without ``--no-ledger``
        or ``--store`` never writes to the user's ``~/.cache/emorphic``."""
        assert tmp_path in default_ledger_path().parents
        assert tmp_path in default_store_path().parents


class TestRunLedger:
    def test_append_query_roundtrip(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        record_id = ledger.append(_record(ts=1.0))
        assert len(record_id) == 16
        records = ledger.records()
        assert len(records) == 1
        rec = records[0]
        assert rec["id"] == record_id
        assert rec["schema"] == LEDGER_SCHEMA
        assert rec["qor"]["ands"] == 100
        assert rec["config_hash"] == config_digest({"iters": 2})
        assert rec["pass_runtimes"] == [["st", 0.1], ["map", 0.2]]

    def test_ids_distinct_for_distinct_timestamps(self, tmp_path):
        ledger = RunLedger(tmp_path)
        assert ledger.append(_record(ts=1.0)) != ledger.append(_record(ts=2.0))

    def test_filters_and_torn_lines(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(_record(ts=1.0))
        ledger.append(
            flow_record("pipeline", circuit="sqrt", script="st; dag2eg; saturate(iters=2); map")
        )
        # A foreign-schema line and a torn final line (crash mid-write) are
        # skipped by the reader, never raised.
        with open(ledger.file, "a") as handle:
            handle.write('{"schema": 999, "kind": "run"}\n')
            handle.write('{"kind": "run", "truncat')
        assert len(ledger.records()) == 2
        assert [r["kind"] for r in ledger.records(kind="pipeline")] == ["pipeline"]
        assert ledger.records(circuit="adder")[0]["circuit"] == "adder"
        # Script filtering matches substrings (scripts are long).
        assert ledger.records(script="saturate(iters=2)")[0]["circuit"] == "sqrt"
        assert ledger.records(config_hash="nope") == []

    def test_clear(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(_record())
        assert ledger.clear() == 1
        assert len(ledger) == 0

    def test_log_record_swallows_oserror(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        assert log_record(_record(), blocker / "sub") is None


def _append_worker(root: str, worker: int, count: int) -> int:
    ledger = RunLedger(root)
    for i in range(count):
        rec = _record(ts=float(worker * 1000 + i))
        rec["extra"] = {"worker": worker, "i": i}
        ledger.append(rec)
    return count


class TestConcurrentAppends:
    def test_pool_appends_do_not_tear(self, tmp_path):
        root = str(tmp_path)
        workers, per = 4, 25
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_append_worker, [root] * workers, range(workers), [per] * workers))
        assert done == [per] * workers
        records = RunLedger(root).records()
        # Every line parsed whole (single-write O_APPEND lines cannot
        # interleave) and every record kept its distinct content hash.
        assert len(records) == workers * per
        assert len({r["id"] for r in records}) == workers * per


class TestHistoryMath:
    def test_median(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 3.0, 2.0]) == 2.5

    def test_compare_group_rolling_median(self):
        history = [
            _record(ands=a, ts=float(i)) for i, a in enumerate([100, 104, 102, 98, 110])
        ]
        comparison = compare_group(history, window=4)
        assert comparison["ands"]["latest"] == 110
        assert comparison["ands"]["baseline"] == median([100.0, 104.0, 102.0, 98.0]) == 101.0
        assert abs(comparison["ands"]["ratio"] - 110 / 101.0) < 1e-9

    def test_window_limits_baseline(self):
        # The outlier first run falls outside window=2 and cannot skew the baseline.
        history = [_record(ands=a, ts=float(i)) for i, a in enumerate([1000, 100, 102, 104])]
        comparison = compare_group(history, window=2)
        assert comparison["ands"]["baseline"] == median([100.0, 102.0])

    def test_groups_split_by_config_hash(self):
        a = _record(ts=0.0)
        b = flow_record(
            "run", circuit="adder", flow="emorphic", config={"iters": 3}, qor={"ands": 50}
        )
        b["ts"] = 1.0
        assert len(group_records([a, b])) == 2

    def test_injected_ten_percent_ands_regression_flagged(self):
        history = [_record(ands=100, ts=float(i)) for i in range(3)]
        history.append(_record(ands=110, ts=3.0))
        failures = check_records(history)
        assert any("ands" in f and "regressed" in f for f in failures)

    def test_steady_pair_passes(self):
        assert check_records([_record(ts=0.0), _record(ts=1.0)]) == []

    def test_single_run_cannot_fail(self):
        assert check_records([_record(ands=10**6)]) == []

    def test_runtime_gate_uses_looser_ratio(self):
        records = [_record(runtime=1.0, ts=0.0), _record(runtime=1.8, ts=1.0)]
        # 1.8x is noisy-but-tolerated (< the 2.0x runtime ratio).
        assert check_records(records) == []
        records.append(_record(runtime=3.0, ts=2.0))  # 3.0 / median(1.0, 1.8) > 2.0
        failures = check_records(records)
        assert any("runtime" in f for f in failures)

    def test_attribution_digest_keeps_rule_yields_only(self):
        digest = attribution_digest(
            {
                "total_ands": 10,
                "original_ands": 4,
                "rules": {"comm": {"surviving_ands": 6, "chains": ["noise"]}},
            }
        )
        assert digest == {"total_ands": 10, "original_ands": 4, "rules": {"comm": 6}}
        assert attribution_digest(None) is None


class TestHistoryReport:
    def test_render_contains_sparklines_and_metrics(self):
        from repro.obs.report import render_history_html

        records = [_record(ands=a, ts=float(i)) for i, a in enumerate([100, 98, 97])]
        html = render_history_html(records)
        assert "<svg" in html and "ands" in html and "runtime" in html
        assert "st" in html  # the pass-runtime waterfall of the latest run

    def test_render_empty_ledger(self):
        from repro.obs.report import render_history_html

        assert "empty" in render_history_html([])


class TestHistoryCli:
    def test_history_check_gates_on_regression(self, tmp_path):
        from repro.cli import main

        ledger = RunLedger(tmp_path)
        for i in range(2):
            ledger.append(_record(ts=float(i)))
        assert main(["history", "--ledger", str(tmp_path), "--check"]) == 0
        ledger.append(_record(ands=110, ts=2.0))  # injected 10% ands regression
        assert main(["history", "--ledger", str(tmp_path), "--check"]) == 1

    def test_report_writes_html(self, tmp_path):
        from repro.cli import main

        ledger = RunLedger(tmp_path / "ledger")
        ledger.append(_record(ts=0.0))
        out = tmp_path / "history.html"
        assert main(["report", "--ledger", str(tmp_path / "ledger"), "--out", str(out)]) == 0
        assert out.exists() and "<html" in out.read_text()

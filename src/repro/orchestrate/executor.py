"""Process-parallel campaign execution with cache short-circuiting.

Whole-circuit jobs are the right granularity for process parallelism: a
campaign's jobs are fully independent, and each one is a whole flow.  The
executor

* skips jobs whose key is already in the :class:`ResultStore` (``cached``),
* runs the rest in a ``ProcessPoolExecutor`` (serial fallback for one
  worker or when the platform refuses to fork),
* captures failures and per-job timeouts as outcomes instead of aborting
  the campaign, and
* reports progress live: legacy one-line-per-event strings through
  ``progress`` and structured event dicts through ``on_event`` (the schema
  :class:`repro.obs.progress.CampaignProgress` renders — ``campaign_start``,
  ``job_start``, ``job_finish``, ``job_cached``, ``campaign_done``).

Observers cross the pool through :mod:`repro.obs.channel`: each pool job
runs under ``capture(installed())`` and ships the captured observers under
``record["obs"]``; the parent absorbs them as each job completes and strips
the key before the record hits the store.  The metrics registry always rides
along, so campaign-level counter totals match a serial run.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.obs.channel import absorb, installed
from repro.obs.log import ensure_configured, get_logger
from repro.orchestrate.jobs import JobSpec, run_job
from repro.orchestrate.store import ResultStore

ProgressFn = Callable[[str], None]
EventFn = Callable[[Dict[str, object]], None]

#: Outcome statuses in display order.
STATUSES = ("completed", "cached", "failed", "timeout")


@dataclass
class JobOutcome:
    """What happened to one job of a campaign."""

    spec: JobSpec
    key: str
    status: str  # one of STATUSES
    record: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status in ("completed", "cached")

    def to_dict(self) -> Dict[str, object]:
        return {
            "job": self.spec.to_dict(),
            "key": self.key,
            "status": self.status,
            "error": self.error,
            "elapsed": self.elapsed,
            "result": None if self.record is None else self.record.get("result"),
        }


@dataclass
class CampaignReport:
    """All outcomes of one campaign run."""

    outcomes: List[JobOutcome] = field(default_factory=list)
    wall_time: float = 0.0
    max_workers: int = 1

    @property
    def counts(self) -> Dict[str, int]:
        counts = {status: 0 for status in STATUSES}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    def successful(self) -> List[JobOutcome]:
        return [outcome for outcome in self.outcomes if outcome.ok]

    def summary_line(self) -> str:
        counts = self.counts
        parts = [f"{status}: {counts[status]}" for status in STATUSES]
        return (
            f"{len(self.outcomes)} jobs ({', '.join(parts)}) "
            f"in {self.wall_time:.1f}s with {self.max_workers} workers"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "counts": self.counts,
            "wall_time": self.wall_time,
            "max_workers": self.max_workers,
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
        }


def default_max_workers(num_jobs: int) -> int:
    # At least two workers even on one core: campaigns are a mix of short
    # baseline and long emorphic jobs, so modest oversubscription still
    # overlaps work, and the pool path is exercised consistently.
    cpus = os.cpu_count() or 1
    return max(1, min(num_jobs, max(2, cpus), 8))


def _print_progress(message: str) -> None:
    # Route the legacy string channel through the structured logger; the
    # console formatter keeps each message greppable on stdout.
    ensure_configured()
    get_logger("orchestrate").info(message)


def run_campaign(
    jobs: Sequence[JobSpec],
    store: Union[None, str, ResultStore] = None,
    max_workers: Optional[int] = None,
    job_timeout: Optional[float] = None,
    use_cache: bool = True,
    progress: Union[None, bool, ProgressFn] = None,
    on_event: Optional[EventFn] = None,
) -> CampaignReport:
    """Run ``jobs`` through the process pool, short-circuiting cache hits.

    ``store`` may be a :class:`ResultStore`, a path, or None for the default
    store.  ``job_timeout`` bounds each job's run time (the stuck worker
    process is abandoned at pool shutdown, not killed mid-job).  ``progress``
    is a callback receiving one line per event; ``True`` logs to stdout.
    ``on_event`` receives the structured event dicts
    (``campaign_start`` / ``job_start`` / ``job_finish`` / ``job_cached`` /
    ``campaign_done``) that feed live progress rendering.
    """
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    if progress is True:
        progress = _print_progress
    emit: ProgressFn = progress if callable(progress) else (lambda message: None)
    emit_event: EventFn = on_event if callable(on_event) else (lambda event: None)
    start = time.perf_counter()
    keyed = [(spec, spec.job_hash()) for spec in jobs]
    outcomes: Dict[int, JobOutcome] = {}
    pending: List[int] = []
    cached: List[int] = []
    total = len(keyed)

    for index, (spec, key) in enumerate(keyed):
        record = store.get(key) if use_cache else None
        if record is not None:
            outcomes[index] = JobOutcome(spec=spec, key=key, status="cached", record=record)
            cached.append(index)
            emit(f"[{len(outcomes)}/{total}] {spec.label} {key[:8]} cached")
        else:
            pending.append(index)

    workers = max_workers if max_workers is not None else default_max_workers(len(pending))
    workers = max(1, workers)

    emit_event({"type": "campaign_start", "total": total, "workers": workers})
    for index in cached:
        spec, key = keyed[index]
        emit_event(
            {"type": "job_cached", "index": index, "label": spec.label, "key": key, "status": "cached"}
        )

    if pending:
        # Timeouts need process isolation to be enforceable, so a requested
        # job_timeout forces the pool path even for a single worker.
        if workers == 1 and job_timeout is None:
            _run_serial(keyed, pending, store, outcomes, total, emit, emit_event)
        else:
            try:
                _run_pool(
                    keyed,
                    pending,
                    store,
                    workers,
                    job_timeout,
                    outcomes,
                    total,
                    emit,
                    emit_event,
                    installed(),
                )
            except (OSError, PermissionError) as exc:
                # Platforms that refuse to spawn processes fall back to serial.
                warning = "; per-job timeouts cannot be enforced serially" if job_timeout else ""
                emit(f"process pool unavailable ({exc}); running serially{warning}")
                workers = 1
                remaining = [index for index in pending if index not in outcomes]
                _run_serial(keyed, remaining, store, outcomes, total, emit, emit_event)

    report = CampaignReport(
        outcomes=[outcomes[index] for index in range(total)],
        wall_time=time.perf_counter() - start,
        max_workers=workers,
    )
    emit(report.summary_line())
    emit_event({"type": "campaign_done", "counts": report.counts, "wall_time": report.wall_time})
    return report


def _finish(
    outcomes: Dict[int, JobOutcome],
    index: int,
    outcome: JobOutcome,
    store: ResultStore,
    total: int,
    emit: ProgressFn,
    emit_event: EventFn,
) -> None:
    if outcome.status == "completed" and outcome.record is not None:
        store.put(outcome.key, outcome.record)
    outcomes[index] = outcome
    detail = f"in {outcome.elapsed:.1f}s" if outcome.status == "completed" else (outcome.error or "")
    emit(f"[{len(outcomes)}/{total}] {outcome.spec.label} {outcome.key[:8]} {outcome.status} {detail}".rstrip())
    emit_event(
        {
            "type": "job_finish",
            "index": index,
            "label": outcome.spec.label,
            "key": outcome.key,
            "status": outcome.status,
            "elapsed": outcome.elapsed,
            "error": outcome.error,
        }
    )


def _run_serial(keyed, pending, store, outcomes, total, emit, emit_event) -> None:
    for index in pending:
        spec, key = keyed[index]
        emit_event({"type": "job_start", "index": index, "label": spec.label, "key": key})
        t0 = time.perf_counter()
        try:
            # In-process jobs record straight into the caller's tracer (when
            # one is installed), so there is nothing to graft here.
            record = run_job(spec, key)
            outcome = JobOutcome(
                spec=spec, key=key, status="completed", record=record, elapsed=time.perf_counter() - t0
            )
        except Exception:
            outcome = JobOutcome(
                spec=spec,
                key=key,
                status="failed",
                error=traceback.format_exc(limit=8),
                elapsed=time.perf_counter() - t0,
            )
        _finish(outcomes, index, outcome, store, total, emit, emit_event)


def _run_pool(
    keyed,
    pending,
    store,
    workers,
    job_timeout,
    outcomes,
    total,
    emit,
    emit_event,
    kinds,
) -> None:
    # Jobs are submitted in a sliding window of at most one per free worker,
    # so a future's submission time is (within scheduler noise) its start
    # time and job_timeout genuinely bounds run time, not queueing.
    pool = ProcessPoolExecutor(max_workers=workers)
    queue = list(pending)
    futures: Dict[object, int] = {}
    submitted: Dict[object, float] = {}
    active: set = set()
    # Futures whose outcome was already reported as "timeout" but whose
    # worker is still busy; the worker rejoins the pool when the job ends.
    zombies: set = set()

    def submit_available() -> None:
        while queue and len(active) + len(zombies) < workers:
            index = queue.pop(0)
            spec, key = keyed[index]
            future = pool.submit(run_job, spec, key, kinds)
            futures[future] = index
            submitted[future] = time.perf_counter()
            active.add(future)
            emit_event({"type": "job_start", "index": index, "label": spec.label, "key": key})

    try:
        submit_available()
        while active or queue:
            wait_timeout = None
            if job_timeout is not None:
                now = time.perf_counter()
                if active:
                    wait_timeout = max(0.0, min(submitted[f] + job_timeout for f in active) - now)
                else:
                    # Only zombies are running: give them one more window to
                    # free a worker before declaring the pool exhausted.
                    wait_timeout = job_timeout
            done, _ = wait(active | zombies, timeout=wait_timeout, return_when=FIRST_COMPLETED)
            now = time.perf_counter()
            if not done and not active and queue:
                for index in queue:
                    spec, key = keyed[index]
                    outcome = JobOutcome(
                        spec=spec,
                        key=key,
                        status="timeout",
                        error="worker pool exhausted by timed-out jobs",
                    )
                    _finish(outcomes, index, outcome, store, total, emit, emit_event)
                break
            for future in done:
                if future in zombies:
                    # Outcome already reported; the worker is free again.
                    zombies.discard(future)
                    continue
                active.discard(future)
                index = futures[future]
                spec, key = keyed[index]
                elapsed = now - submitted[future]
                exc = future.exception()
                if exc is None:
                    record = future.result()
                    absorb(record.pop("obs", None))
                    outcome = JobOutcome(
                        spec=spec, key=key, status="completed", record=record, elapsed=elapsed
                    )
                else:
                    outcome = JobOutcome(
                        spec=spec, key=key, status="failed", error=repr(exc), elapsed=elapsed
                    )
                _finish(outcomes, index, outcome, store, total, emit, emit_event)
            if job_timeout is not None:
                for future in list(active):
                    if now - submitted[future] >= job_timeout:
                        active.discard(future)
                        if not future.cancel():
                            zombies.add(future)
                        index = futures[future]
                        spec, key = keyed[index]
                        outcome = JobOutcome(
                            spec=spec,
                            key=key,
                            status="timeout",
                            error=f"exceeded {job_timeout:.0f}s",
                            elapsed=now - submitted[future],
                        )
                        _finish(outcomes, index, outcome, store, total, emit, emit_event)
            submit_available()
    finally:
        # Snapshot worker handles first: shutdown() nulls pool._processes.
        processes = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        if zombies:
            # Every live future has been collected, so busy workers are
            # exclusively running abandoned (timed-out) jobs; terminate them
            # so neither run_campaign nor interpreter exit blocks on them.
            for process in processes:
                process.terminate()

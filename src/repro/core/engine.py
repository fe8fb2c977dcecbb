"""A job-based execution engine for equivalence-checking workloads.

The Table 2 reproduction and the ablation study run many independent
verification problems; nothing couples one automaton pair to another, so the
engine fans jobs out across worker processes (one :mod:`multiprocessing`
process per job, a bounded number alive at once) while keeping the interface
deterministic:

* results are returned **in job-submission order**, whatever the completion
  order of the workers;
* a job is either a :class:`CaseJob` (a registered Table 2 case study, looked
  up by name inside the worker so only strings and configs cross the process
  boundary) or an :class:`EquivalenceJob` (an explicit automaton pair —
  automata are plain frozen dataclasses and pickle cleanly);
* every job can carry a wall-clock **timeout**; in pooled mode an expired
  job's worker is terminated and the job reported as a ``timeout``
  :class:`JobResult`, so a hung case can neither poison the run nor starve
  the queued jobs.  Inline mode cannot interrupt a running job, so it warns
  up front and applies the limit after the fact (an over-budget job is still
  reported as a ``timeout``);
* failures inside a worker are captured per job as ``error`` results.

With ``jobs=1`` (the default) everything runs inline in the calling process —
no pool, no pickling — which is the baseline that parallel runs are required
to reproduce exactly.  Workers can share solver work through the persistent
query cache: an engine ``overlay`` config with a ``cache_dir`` makes every
job's checker stack a :class:`~repro.smt.cache.CachingBackend` over the same
sqlite store.

With ``server`` set (an address accepted by
:func:`repro.service.client.parse_server_address`), jobs are not executed
locally at all: each one becomes a request to a running ``repro serve``
daemon, fanned out over ``jobs`` client threads.  The daemon dedupes
identical requests and answers repeats from its content-addressed verdict
store, so a batch re-run against a warm daemon does no solver work.
Results keep their submission order and the same three-state
:class:`JobResult` shape; equivalence jobs come back as
:class:`~repro.service.client.CheckOutcome` (display-compatible with a
local :class:`~repro.core.equivalence.EquivalenceResult`) and case jobs as
:class:`~repro.reporting.runner.CaseOutcome` rebuilt from the wire metrics.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..p4a.syntax import P4Automaton
from .algorithm import CheckerConfig


class EngineError(Exception):
    """Raised on malformed jobs or engine misconfiguration."""


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseJob:
    """Run one registered case study (a Table 2 row) by name."""

    case: str
    full: bool = False
    config: Optional[CheckerConfig] = None
    job_id: Optional[str] = None
    timeout: Optional[float] = None

    @property
    def label(self) -> str:
        return self.job_id if self.job_id is not None else self.case


@dataclass(frozen=True)
class EquivalenceJob:
    """Check language equivalence of an explicit automaton pair."""

    left: P4Automaton
    left_start: str
    right: P4Automaton
    right_start: str
    config: Optional[CheckerConfig] = None
    find_counterexamples: bool = False
    job_id: Optional[str] = None
    timeout: Optional[float] = None

    @property
    def label(self) -> str:
        if self.job_id is not None:
            return self.job_id
        return f"{self.left.name} ~ {self.right.name}"


Job = Union[CaseJob, EquivalenceJob]


@dataclass
class JobResult:
    """Outcome of one engine job, in one of three states.

    ``ok`` — ``value`` holds the job's payload (a
    :class:`~repro.reporting.runner.CaseOutcome` for case jobs, an
    :class:`~repro.core.equivalence.EquivalenceResult` for equivalence jobs);
    ``error`` — ``error`` holds the worker-side exception rendered as text;
    ``timeout`` — the job did not produce a result within its timeout.
    """

    job_id: str
    status: str
    value: object = None
    error: Optional[str] = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class EngineStatistics:
    """Aggregate accounting for one :meth:`EquivalenceEngine.run` call."""

    jobs: int = 0
    succeeded: int = 0
    failed: int = 0
    timed_out: int = 0
    wall_seconds: float = 0.0
    workers: int = 1
    by_job: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "jobs": self.jobs,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "timed_out": self.timed_out,
            "wall_seconds": round(self.wall_seconds, 3),
            "workers": self.workers,
            "by_job": {name: round(seconds, 3) for name, seconds in self.by_job.items()},
        }


# ---------------------------------------------------------------------------
# Worker entry point (top level so it pickles under the spawn start method)
# ---------------------------------------------------------------------------


def _effective_config(job: Job, overlay: Optional[CheckerConfig]) -> Optional[CheckerConfig]:
    """The job's config with the engine ``overlay`` filling its default fields."""
    if job.config is None:
        return overlay
    return job.config.with_defaults_from(overlay)


def _execute_job(job: Job, overlay: Optional[CheckerConfig] = None) -> object:
    config = _effective_config(job, overlay)
    if isinstance(job, CaseJob):
        from ..reporting.runner import case_studies

        registry = case_studies()
        if job.case not in registry:
            raise EngineError(
                f"unknown case study {job.case!r}; known: {', '.join(sorted(registry))}"
            )
        return registry[job.case](full=job.full, config=config)
    if isinstance(job, EquivalenceJob):
        from .equivalence import check_language_equivalence

        return check_language_equivalence(
            job.left,
            job.left_start,
            job.right,
            job.right_start,
            config=config,
            find_counterexamples=job.find_counterexamples,
        )
    raise EngineError(f"unknown job type {type(job).__name__}")


def _pooled_worker(conn, job: Job, overlay: Optional[CheckerConfig] = None) -> None:
    """Child-process entry point: run one job, ship the outcome over a pipe."""
    try:
        payload = ("ok", _execute_job(job, overlay))
    except Exception as exc:  # noqa: BLE001 - report, don't crash the batch
        payload = ("error", f"{type(exc).__name__}: {exc}")
    try:
        conn.send(payload)
    except Exception as exc:  # unpicklable result
        conn.send(("error", f"result not transferable: {type(exc).__name__}: {exc}"))
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class EquivalenceEngine:
    """Executes equivalence-checking jobs, sequentially or across processes.

    ``jobs`` is the worker count (1 = inline, no subprocesses).  ``timeout``
    is the default per-job wall-clock limit in seconds, overridable per job.
    In pooled mode an expired job's worker is terminated; an inline run has
    nowhere to escape to, so the engine warns up front that it can only
    enforce the limit *after the fact* — an inline job that finishes beyond
    its budget is reported as a ``timeout`` result with its value discarded.
    (The two modes can differ right at the boundary: a pooled worker that
    delivers its result just past the limit but before the reaper's next
    poll still counts as ``ok``, whereas inline enforcement is strict.)
    The pooled clock includes
    worker startup (process spawn plus package import, a fraction of a
    second), so limits should comfortably exceed that.

    ``overlay`` is a :class:`~repro.core.algorithm.CheckerConfig` laid over
    every job's config: each of its fields fills the job's field only where
    the job leaves it at its default, so an explicit job setting always
    wins.  A ``cache_dir`` there shares a persistent query cache (and, with
    clause sharing on, a learned-clause channel) between the workers.
    Remote (``server``) dispatch forwards only the wire options
    (:data:`repro.config.WIRE_FIELDS`); the daemon picks its own backend.
    """

    def __init__(
        self,
        jobs: int = 1,
        timeout: Optional[float] = None,
        mp_context: str = "spawn",
        server: Optional[str] = None,
        overlay: Optional[CheckerConfig] = None,
    ) -> None:
        if jobs < 1:
            raise EngineError(f"worker count must be >= 1, got {jobs}")
        self.jobs = jobs
        self.timeout = timeout
        self.mp_context = mp_context
        self.server = server
        self.overlay = overlay
        self.statistics = EngineStatistics()

    # ------------------------------------------------------------------

    def run(
        self,
        jobs: Sequence[Job],
        on_result: Optional[Callable[[JobResult], None]] = None,
    ) -> List[JobResult]:
        """Run every job and return results in submission order.

        ``on_result`` (when given) is called once per job, **in submission
        order**, as soon as that result and every earlier one are available —
        a streaming view of the same ordered list the call returns.  The
        campaign runner uses it for incremental progress and checkpointing;
        a callback that raises aborts the run.
        """
        labels = [job.label for job in jobs]
        if len(set(labels)) != len(labels):
            raise EngineError("job labels must be unique; set job_id to disambiguate")
        start = time.perf_counter()
        self.statistics = EngineStatistics(jobs=len(jobs), workers=min(self.jobs, max(len(jobs), 1)))
        if self.server is not None:
            # Remote jobs run on the daemon, which cannot be preempted from
            # here; timeouts are applied to the observed wall-clock time
            # after the fact, like inline mode.
            results = self._run_remote(jobs, on_result)
        elif self.jobs == 1:
            if any(self._job_limit(job) is not None for job in jobs):
                warnings.warn(
                    "timeouts in inline mode (jobs=1) are enforced only after "
                    "a job finishes: a hung job cannot be interrupted; use "
                    "jobs >= 2 for preemptive enforcement",
                    RuntimeWarning,
                    stacklevel=2,
                )
            results = []
            for job in jobs:
                result = self._run_inline(job)
                if on_result is not None:
                    on_result(result)
                results.append(result)
        else:
            # Pooled even for a single job, so per-job timeouts stay enforced.
            results = self._run_pooled(jobs, on_result)
        self.statistics.wall_seconds = time.perf_counter() - start
        for result in results:
            self.statistics.by_job[result.job_id] = result.elapsed
            if result.status == "ok":
                self.statistics.succeeded += 1
            elif result.status == "timeout":
                self.statistics.timed_out += 1
            else:
                self.statistics.failed += 1
        return results

    # ------------------------------------------------------------------

    def _job_limit(self, job: Job) -> Optional[float]:
        return job.timeout if job.timeout is not None else self.timeout

    def _run_inline(self, job: Job) -> JobResult:
        start = time.perf_counter()
        limit = self._job_limit(job)
        try:
            value = _execute_job(job, self.overlay)
        except Exception as exc:  # noqa: BLE001 - report, don't crash the batch
            elapsed = time.perf_counter() - start
            if limit is not None and elapsed > limit:
                # A pooled worker would have been killed before it could
                # raise, so the over-budget failure is a timeout there too.
                return self._inline_timeout(job, limit, elapsed)
            return JobResult(
                job.label, "error", error=f"{type(exc).__name__}: {exc}",
                elapsed=elapsed,
            )
        elapsed = time.perf_counter() - start
        if limit is not None and elapsed > limit:
            # Post-hoc enforcement: the job could not be interrupted, so the
            # limit is applied to its wall-clock time after the fact.
            return self._inline_timeout(job, limit, elapsed)
        return JobResult(job.label, "ok", value=value, elapsed=elapsed)

    @staticmethod
    def _inline_timeout(job: Job, limit: float, elapsed: float) -> JobResult:
        return JobResult(
            job.label, "timeout",
            error=f"no result within {limit} seconds "
                  f"(inline job finished after {elapsed:.3f}s)",
            elapsed=elapsed,
        )

    # ------------------------------------------------------------------
    # Remote dispatch (jobs become requests to a `repro serve` daemon)

    def _run_remote(
        self,
        jobs: Sequence[Job],
        on_result: Optional[Callable[[JobResult], None]] = None,
    ) -> List[JobResult]:
        """Fan the jobs out to the daemon over ``self.jobs`` client threads."""
        from concurrent.futures import ThreadPoolExecutor

        workers = min(self.jobs, max(len(jobs), 1))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = []
            for result in pool.map(self._run_remote_job, jobs):
                if on_result is not None:
                    on_result(result)
                results.append(result)
            return results

    def _run_remote_job(self, job: Job) -> JobResult:
        from ..service.client import ServiceClient, ServiceError

        start = time.perf_counter()
        limit = self._job_limit(job)
        try:
            value = self._execute_remote(ServiceClient(self.server), job)
        except ServiceError as exc:
            elapsed = time.perf_counter() - start
            return JobResult(
                job.label, "error", error=f"service {exc.code}: {exc}",
                elapsed=elapsed,
            )
        except Exception as exc:  # noqa: BLE001 - report, don't crash the batch
            elapsed = time.perf_counter() - start
            return JobResult(
                job.label, "error", error=f"{type(exc).__name__}: {exc}",
                elapsed=elapsed,
            )
        elapsed = time.perf_counter() - start
        if limit is not None and elapsed > limit:
            return self._inline_timeout(job, limit, elapsed)
        return JobResult(job.label, "ok", value=value, elapsed=elapsed)

    def _execute_remote(self, client, job: Job) -> object:
        from ..config import wire_options
        from ..service.client import check_options_from_config

        config = _effective_config(job, self.overlay)
        if isinstance(job, CaseJob):
            from ..reporting.metrics import CaseMetrics
            from ..reporting.runner import CaseOutcome

            # A case request takes only the oracle options.
            options = {
                name: value for name, value in wire_options(config).items()
                if name in ("oracle_packets", "oracle_seed")
            }
            answer = client.case(job.case, full=job.full, options=options)
            return CaseOutcome(CaseMetrics.from_dict(answer.metrics), answer.verdict)
        if isinstance(job, EquivalenceJob):
            return client.check(
                job.left, job.left_start, job.right, job.right_start,
                options=check_options_from_config(config, job.find_counterexamples),
            )
        raise EngineError(f"unknown job type {type(job).__name__}")

    def _run_pooled(
        self,
        jobs: Sequence[Job],
        on_result: Optional[Callable[[JobResult], None]] = None,
    ) -> List[JobResult]:
        """One process per job, at most ``self.jobs`` alive at a time.

        A dedicated process (instead of an executor pool) is what makes the
        per-job timeout real: an expired job is ``terminate()``d, freeing its
        slot immediately instead of leaving a hung worker to starve the queue.
        Elapsed times are measured from each job's own start.  ``on_result``
        streams the contiguous done-prefix in submission order, whatever
        order the workers finish in.
        """
        context = multiprocessing.get_context(self.mp_context)
        results: List[Optional[JobResult]] = [None] * len(jobs)
        delivered = 0
        pending = deque(enumerate(jobs))
        running: Dict[int, tuple] = {}  # index -> (process, pipe, started, limit, job)
        try:
            while pending or running:
                while pending and len(running) < self.jobs:
                    index, job = pending.popleft()
                    receiver, sender = context.Pipe(duplex=False)
                    process = context.Process(
                        target=_pooled_worker,
                        args=(sender, job, self.overlay),
                        daemon=True,
                    )
                    process.start()
                    sender.close()
                    limit = self._job_limit(job)
                    running[index] = (process, receiver, time.perf_counter(), limit, job)
                multiprocessing.connection.wait(
                    [entry[1] for entry in running.values()], timeout=0.05
                )
                for index in list(running):
                    process, receiver, started, limit, job = running[index]
                    elapsed = time.perf_counter() - started
                    if receiver.poll():
                        try:
                            status, payload = receiver.recv()
                        except Exception as exc:  # EOF, truncated pickle, OSError
                            status = "error"
                            detail = f": {exc}" if str(exc) else ""
                            payload = f"worker result unreadable: {type(exc).__name__}{detail}"
                        if status == "ok":
                            results[index] = JobResult(job.label, "ok", value=payload,
                                                       elapsed=elapsed)
                        else:
                            results[index] = JobResult(job.label, "error", error=payload,
                                                       elapsed=elapsed)
                    elif not process.is_alive():
                        results[index] = JobResult(
                            job.label, "error",
                            error=f"worker exited with code {process.exitcode}",
                            elapsed=elapsed,
                        )
                    elif limit is not None and elapsed > limit:
                        process.terminate()
                        results[index] = JobResult(
                            job.label, "timeout",
                            error=f"no result within {limit} seconds", elapsed=elapsed,
                        )
                    else:
                        continue
                    receiver.close()
                    process.join()
                    del running[index]
                if on_result is not None:
                    while delivered < len(jobs) and results[delivered] is not None:
                        on_result(results[delivered])
                        delivered += 1
        finally:
            for process, receiver, _, _, _ in running.values():
                process.terminate()
                receiver.close()
                process.join()
        return [result for result in results if result is not None]

"""The benchmark's workloads: seeded inputs, timed passes and the correctness gate.

Every workload runs the shipped defaults: ``check_language_equivalence`` with
no config (``CheckerConfig()``, counterexample search on), ``run_campaign``
with the default engine, and ``serve`` with no option but its socket, store
directory and worker count, sent requests with no options.  A *pass* is a
fixed amount of work; a run repeats passes until the measured time reaches
``--seconds``, so the work per pass, not the run length, fixes what one
verdict means.

Times are also expressed in *reference units* (``ref``): the CPU time of a
fixed interpreter loop, sampled every ``SAMPLE_PERIOD`` seconds while the
timed work runs (see :class:`ReferenceClock`).  On a shared machine the
speed of the same Python code drifts in steps that last tens of seconds,
differently on each CPU: on a 2-vCPU KVM guest of a Xeon host, a fixed loop
run for 200 s had 10 s window medians from 28 ms to 53 ms.  Dividing by the
reference sampled during the work cancels most of that drift, so the
bounded end-to-end metrics are the normalised ones; the raw seconds are
reported alongside.  Set-up is timed the same way and reported in seconds at
a nominal reference speed (``NOMINAL_REF_S``).

Files a run needs (the service's socket and stores, the campaign workers'
memory reports) live in a fresh directory under ``RUN_DIR`` inside the
checkout, which :meth:`close` removes.
"""

from __future__ import annotations

import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from tracing import LAYER_NAMES, Tracer

#: The full parse-graph rows checked by ``tv-full``.  ``enterprise`` (about
#: a fifth of a three-row pass and of its certificate re-checks) is left out
#: to keep a run of all four workloads inside the benchmark's time budget.
TV_FULL_ROWS = ("datacenter", "service_provider")
#: Pairs per campaign pass, the campaign's worker count and its seed (the
#: default of ``campaign run``).
CAMPAIGN_PAIRS = 64
CAMPAIGN_JOBS = 2
CAMPAIGN_SEED = 20220613
#: Requests per mini scenario in a service pass, the daemon's worker threads
#: and the closed-loop client threads that drive it.  With two worker
#: threads, which query cache is warm for a request and what the other
#: worker runs at the same moment depend on the seeded order; across five
#: seeds that moved throughput by 18% (interquartile range over median)
#: against 4-5% with one.
SERVICE_REPEATS = 6
SERVICE_WORKERS = 1
SERVICE_CLIENTS = 2
#: Seconds to wait for a started daemon to answer ``ping``.
SERVICE_START_TIMEOUT = 120

#: Parent of every run's own scratch directory, inside the checkout.
RUN_DIR = Path(__file__).resolve().parent.parent / ".perfbench-run"


#: Seconds between reference samples while timed work runs.
SAMPLE_PERIOD = 0.2
#: Reference sample, in seconds, at which ``setup_s`` is quoted: about the
#: sample's median on the 2-vCPU guest above.
NOMINAL_REF_S = 0.005
_PROBE_KEYS = list(range(256)) * 200
_PROBE_TABLE = {key: (key * 7) & 255 for key in range(256)}
#: 4 MiB, more than one core's L2 cache, read at random offsets.
_PROBE_BYTES = bytearray(range(256)) * (1 << 14)
_PROBE_OFFSETS = random.Random(0).sample(range(len(_PROBE_BYTES)), 10000)


def _reference_loop() -> int:
    # Dict lookups in the interpreter loop, then reads that miss the core's
    # own caches: the checker slows down on both when the machine is busy,
    # and either alone followed it less closely.  Nothing here allocates, so
    # the loop runs at the same speed whether or not the checker has
    # tracemalloc on when a sample interrupts it.
    total = 0
    table = _PROBE_TABLE
    for key in _PROBE_KEYS:
        total ^= table[key]
    data = _PROBE_BYTES
    for offset in _PROBE_OFFSETS:
        total ^= data[offset]
    return total


class ReferenceClock:
    """Samples the reference loop every ``SAMPLE_PERIOD`` seconds of timed work.

    A ``SIGALRM`` handler runs the loop in the interrupted thread itself, so
    a sample measures the CPU the work is running on at that moment.  Each
    sample is the loop's thread CPU time, which leaves out any time the
    thread spent waiting for a CPU.  ``paused`` accumulates the wall time
    the samples took, so callers can leave it out of what they time.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.samples: List[Tuple[float, float]] = []
        self.paused = 0.0

    def _sample(self, signum, frame) -> None:  # noqa: ARG002 - signal API
        started = time.perf_counter()
        cpu = time.thread_time()
        _reference_loop()
        self.samples.append((started, time.thread_time() - cpu))
        self.paused += time.perf_counter() - started

    def __enter__(self) -> "ReferenceClock":
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            self._sample(None, None)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        return self

    def __exit__(self, *exc_info) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._sample(None, None)

    def reference(self, begin: float, end: float) -> float:
        """Mean sample over ``[begin, end]``, widened by a period each side so
        work shorter than a period still has samples."""
        window = [cpu for at, cpu in self.samples
                  if begin - SAMPLE_PERIOD <= at <= end + SAMPLE_PERIOD]
        if not window:
            # A handler runs only between bytecodes, so one long call into C
            # can hold samples back past a period: take the nearest one.
            nearest = min(self.samples, key=lambda sample: min(
                abs(sample[0] - begin), abs(sample[0] - end)))
            window = [nearest[1]]
        return statistics.fmean(window)


def timed_setup(workload) -> Tuple[float, float]:
    """``workload.setup()`` timed in raw seconds and in seconds at the
    nominal reference speed."""
    with ReferenceClock() as clock:
        paused = clock.paused
        started = time.perf_counter()
        workload.setup()
        ended = time.perf_counter()
        raw = ended - started - (clock.paused - paused)
    return raw, raw / clock.reference(started, ended) * NOMINAL_REF_S


def _new_run_dir(prefix: str) -> str:
    RUN_DIR.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=RUN_DIR)


def _remove_run_dir(path: Optional[str]) -> None:
    if path is not None:
        shutil.rmtree(path, ignore_errors=True)
    try:
        RUN_DIR.rmdir()
    except OSError:
        pass  # another run still uses it


@dataclass
class Check:
    """One verdict: what was checked, what was expected and what came back.

    ``ref`` is the mean reference sample while the check ran (over the whole
    campaign for campaign checks), so ``elapsed / ref`` is its time in
    reference units.  ``remote`` marks a daemon answer, whose proof carries
    only a certificate summary: the daemon itself re-checks a stored
    certificate before it answers from the store.
    """

    name: str
    expected: bool
    automata: Tuple[object, str, object, str]
    elapsed: float
    ref: float
    result: object = None
    error: Optional[str] = None
    remote: bool = False


@dataclass
class Pass:
    """One timed pass: raw seconds, the same time in reference units (0 for a
    pass run without samples) and its checks."""

    wall: float
    normalised: float
    checks: List[Check]


class RegistryWorkload:
    """Registry rows through ``check_language_equivalence``, one caller in process.

    The seed sets the order of the rows in every pass.
    """

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.rng = random.Random(seed)
        self.rows: List[Tuple[str, bool, tuple]] = []

    def setup(self) -> None:
        from repro import check_language_equivalence
        from repro.scenarios import registry
        # The checker imports these on first use; importing them here keeps
        # that one-time cost in set-up instead of in whichever row runs first.
        import repro.oracle.minimize  # noqa: F401
        import repro.smt.incremental  # noqa: F401

        self._check = check_language_equivalence
        if self.name == "minis":
            scenarios = registry.filter_scenarios(size="mini")
        else:
            scenarios = [registry.get(row) for row in TV_FULL_ROWS]
        self.rows = [
            (scenario.name, scenario.expected_equivalent, scenario.automata())
            for scenario in scenarios
        ]

    def run_pass(self, sampled: bool = True) -> Pass:
        checks, spans = [], []
        with ReferenceClock(sampled) as clock:
            for name, expected, automata in self.rng.sample(self.rows, len(self.rows)):
                paused = clock.paused
                started = time.perf_counter()
                try:
                    result, error = self._check(*automata), None
                except Exception as exc:  # noqa: BLE001 - a failed check is counted
                    result, error = None, f"{type(exc).__name__}: {exc}"
                ended = time.perf_counter()
                spans.append((started, ended))
                checks.append(Check(name, expected, automata,
                                    ended - started - (clock.paused - paused),
                                    0.0, result, error))
        normalised = 0.0
        if sampled:
            for check, (started, ended) in zip(checks, spans):
                check.ref = clock.reference(started, ended)
                normalised += check.elapsed / check.ref
        return Pass(sum(check.elapsed for check in checks), normalised, checks)

    def traced_pass(self) -> Pass:
        return self.run_pass(sampled=False)

    def peak_rss_mb(self) -> float:
        """Peak RSS of this process, which ran the checks; it includes the
        reference loop's 4 MiB buffer."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def extra_failures(self) -> List[str]:
        return []

    def close(self) -> None:
        pass


class CampaignWorkload:
    """``run_campaign`` over synthesized mini pairs with two workers.

    The pairs are the ``CAMPAIGN_PAIRS`` of the campaign seeded with
    ``CAMPAIGN_SEED``; their labels are pinned by parity (even index =
    equivalent), as the campaign runner pins them.  The benchmark seed sets
    the order in which each batch is submitted to the engine.  It does not
    choose the pairs: the cost of a synthesized pair is heavy-tailed (on
    the 2-vCPU guest above, one pair of a 64-pair draw took 7.6 s of its
    17.6 s), so disjoint draws differ by up to 2.5x in total work and no
    bound could tell a change in the program from a change in the draw.
    """

    name = "campaign"

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        #: Engine processes started during the last pass.
        self.workers_spawned = 0
        #: Largest ``VmHWM`` an engine worker reported, in kB.
        self.worker_peak_kb = 0
        self.run_dir: Optional[str] = None

    def setup(self) -> None:
        from repro.campaign.runner import CampaignConfig, run_campaign
        from repro.core.engine import EquivalenceEngine
        import worker_memory

        self.run_dir = _new_run_dir("campaign-")
        self._worker_memory = worker_memory

        self._config = CampaignConfig(
            pairs=CAMPAIGN_PAIRS, seed=CAMPAIGN_SEED, jobs=CAMPAIGN_JOBS
        )
        self._run_campaign = run_campaign
        self._engine_class = EquivalenceEngine

    def run_pass(self, sampled: bool = True) -> Pass:
        import multiprocessing.process

        captured: list = []
        config = self._config
        rng = self.rng

        def engine_factory(jobs: int):
            # The runner's own default engine, fed each batch in seeded order
            # and recording it for the gate.  The runner matches results to
            # pairs by job id, so the order changes only the schedule.
            engine = self._engine_class(jobs=jobs, timeout=config.timeout)
            run = engine.run

            def seeded_run(batch, on_result=None):
                shuffled = rng.sample(list(batch), len(batch))
                results = run(shuffled, on_result=on_result)
                captured.extend(zip(shuffled, results))
                by_id = {result.job_id: result for result in results}
                return [by_id[job.label] for job in batch]

            engine.run = seeded_run
            return engine

        base = multiprocessing.process.BaseProcess
        start_process = base.start
        spawned = [0]

        def counting_start(process):
            spawned[0] += 1
            return start_process(process)

        from repro.core import engine as engine_module

        engine_worker = engine_module._pooled_worker
        peaks = tempfile.mkdtemp(prefix="peaks-", dir=self.run_dir)
        os.environ[self._worker_memory.HWM_DIR_ENV] = peaks
        engine_module._pooled_worker = self._worker_memory.pooled_worker
        base.start = counting_start
        try:
            # The samples run in this process while it waits for the
            # workers, on whichever CPU it is given, so their mean follows
            # both CPUs the workers run on.
            with ReferenceClock(sampled) as clock:
                paused = clock.paused
                started = time.perf_counter()
                self._run_campaign(config, engine_factory=engine_factory)
                wall = time.perf_counter() - started - (clock.paused - paused)
        finally:
            base.start = start_process
            engine_module._pooled_worker = engine_worker
            del os.environ[self._worker_memory.HWM_DIR_ENV]
        self.workers_spawned = spawned[0]
        for report in os.listdir(peaks):
            with open(os.path.join(peaks, report)) as handle:
                self.worker_peak_kb = max(self.worker_peak_kb, int(handle.read()))
        shutil.rmtree(peaks)
        ref = clock.reference(started, started + wall) if sampled else 0.0
        checks = []
        for job, result in captured:
            index = int(job.job_id.split(":")[0][len("pair"):]) - CAMPAIGN_SEED
            checks.append(Check(
                job.job_id, index % 2 == 0,
                (job.left, job.left_start, job.right, job.right_start),
                result.elapsed, ref,
                result.value if result.ok else None,
                None if result.ok else f"{result.status}: {result.error}",
            ))
        return Pass(wall, wall / ref if sampled else 0.0, checks)

    def traced_pass(self) -> Pass:
        return self.run_pass(sampled=False)

    def peak_rss_mb(self) -> float:
        """Largest peak RSS of an engine worker, each measured by the worker
        itself (``worker_memory.py``)."""
        return self.worker_peak_kb / 1024.0

    def extra_failures(self) -> List[str]:
        return []

    def close(self) -> None:
        _remove_run_dir(self.run_dir)
        self.run_dir = None


class ServiceWorkload:
    """A ``serve`` daemon on a unix socket, driven by closed-loop clients.

    A pass sends every mini scenario ``SERVICE_REPEATS`` times, in rounds
    that each send every scenario once in an order drawn from the seed, from
    ``SERVICE_CLIENTS`` threads that each send their next request when the
    last one is answered.  The daemon starts with an empty verdict store,
    so each distinct pair is solved once, in the first round; a repeat that
    arrives while its pair is being solved waits on that solve (dedupe) and
    a later one is answered by replaying the stored certificate or
    witness.  A pass after the first starts a fresh daemon,
    outside the timed region, so that every pass does the same work.  Set-up
    includes starting the first daemon until it answers ``ping``.

    The traced pass sends the same requests to a ``ServiceCore`` in this
    process, configured as the daemon configures its own, because the
    daemon's layers cannot be wrapped from outside.
    """

    name = "service"

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.rows: List[Tuple[str, bool, tuple]] = []
        self.run_dir: Optional[str] = None
        self.daemon: Optional[subprocess.Popen] = None
        self.address = ""
        #: Scratch directories made so far (one per daemon or traced core),
        #: and whether the current daemon is unused.
        self._started = 0
        self._fresh = False
        #: Statistics snapshot of the service core after the last pass.
        self.stats: Dict[str, dict] = {}
        self._peak_kb = 0
        self._failures: List[str] = []

    def setup(self) -> None:
        from repro.scenarios import registry
        from repro.service.client import ServiceClient, ServiceError
        import repro.oracle.minimize  # noqa: F401 - used by the gate

        self._client_class = ServiceClient
        self._service_error = ServiceError
        self.rows = [
            (scenario.name, scenario.expected_equivalent, scenario.automata())
            for scenario in registry.filter_scenarios(size="mini")
        ]
        self.run_dir = _new_run_dir("service-")
        self._start_daemon()

    def _directory(self) -> str:
        self._started += 1
        path = os.path.join(self.run_dir, str(self._started))
        os.mkdir(path)
        return path

    def _start_daemon(self) -> None:
        import repro

        directory = self._directory()
        socket_path = os.path.join(directory, "d.sock")
        relative = os.path.relpath(socket_path)
        # A unix socket path is limited to about 100 bytes; both ends run
        # in this directory, so a shorter relative path works as well.
        if len(relative) < len(socket_path):
            socket_path = relative
        source = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=source)
        with open(os.path.join(directory, "serve.log"), "w") as log:
            self.daemon = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--socket", socket_path,
                 "--store-dir", os.path.join(directory, "store"),
                 "--workers", str(SERVICE_WORKERS)],
                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
                env=env,
            )
        self.address = socket_path
        client = self._client_class(socket_path, timeout=30)
        deadline = time.monotonic() + SERVICE_START_TIMEOUT
        while True:
            if self.daemon.poll() is not None:
                with open(os.path.join(directory, "serve.log")) as log:
                    raise RuntimeError(
                        f"serve exited with code {self.daemon.returncode}:\n{log.read()}")
            try:
                client.ping()
                break
            except self._service_error:
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"serve did not answer within {SERVICE_START_TIMEOUT} s")
                time.sleep(0.02)
        self._fresh = True

    def _stop_daemon(self) -> None:
        if self.daemon is None:
            return
        try:
            self._client_class(self.address, timeout=30).shutdown()
        except (self._service_error, OSError):
            pass
        try:
            self.daemon.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.daemon.kill()
            self.daemon.wait()
        self.daemon = None

    def _drive(self, client, sampled: bool) -> Pass:
        """Send one pass of requests through ``client`` from the client
        threads; the samples run in this process's main thread, which only
        waits for the clients."""
        requests = [row for _ in range(SERVICE_REPEATS)
                    for row in self.rng.sample(self.rows, len(self.rows))]
        queue = deque(requests)
        lock = threading.Lock()
        answered: list = []

        def client_loop() -> None:
            while True:
                with lock:
                    if not queue:
                        return
                    name, expected, automata = queue.popleft()
                started = time.perf_counter()
                try:
                    outcome, error = client.check(*automata), None
                except Exception as exc:  # noqa: BLE001 - a failed request is counted
                    outcome, error = None, f"{type(exc).__name__}: {exc}"
                ended = time.perf_counter()
                with lock:
                    answered.append((name, expected, automata, started, ended,
                                     outcome, error))

        threads = [threading.Thread(target=client_loop, daemon=True)
                   for _ in range(SERVICE_CLIENTS)]
        with ReferenceClock(sampled) as clock:
            paused = clock.paused
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                # Short joins, so the main thread runs the sample handler
                # on time whichever thread the signal was delivered to.
                while thread.is_alive():
                    thread.join(0.05)
            wall = time.perf_counter() - started - (clock.paused - paused)
        # A check's time is the time the service core reports for it (its
        # solve, its replay or, for a dedupe, the solve it waited on).  The
        # time each client sees also holds its wait in the queue behind the
        # other client's request, which depends on how the seeded order
        # pairs requests up and not on the program.
        checks = [
            Check(name, expected, automata,
                  outcome.elapsed_seconds if outcome is not None else ended - begun,
                  clock.reference(begun, ended) if sampled else 0.0,
                  outcome, error, remote=True)
            for name, expected, automata, begun, ended, outcome, error in answered
        ]
        ref = clock.reference(started, started + wall) if sampled else 0.0
        return Pass(wall, wall / ref if sampled else 0.0, checks)

    def run_pass(self, sampled: bool = True) -> Pass:
        import worker_memory

        if not self._fresh:
            self._stop_daemon()
            self._start_daemon()
        self._fresh = False
        client = self._client_class(self.address)
        one = self._drive(client, sampled)
        self.stats = client.stats()
        self._count_failures()
        self._peak_kb = max(self._peak_kb,
                            worker_memory.peak_rss_kb(self.daemon.pid))
        return one

    def traced_pass(self) -> Pass:
        from repro.service.client import InProcessClient
        from repro.service.core import ServiceConfig, ServiceCore

        store = os.path.join(self._directory(), "store")
        core = ServiceCore(ServiceConfig(
            workers=SERVICE_WORKERS, store_dir=store,
            cache_dir=os.path.join(store, "query-cache"),
        ))
        core.start()
        # The in-process client's own core is worker-less; this one runs a
        # worker thread, as the daemon's does.
        client = InProcessClient()
        client.core = core
        try:
            one = self._drive(client, sampled=False)
        finally:
            self.stats = core.statistics_snapshot()
            core.shutdown()
        self._count_failures()
        return one

    def peak_rss_mb(self) -> float:
        """Peak RSS of the daemon, which ran the checks."""
        return self._peak_kb / 1024.0

    def _count_failures(self) -> None:
        """Failures the service core counted itself in the last pass: a
        stored certificate or witness that did not replay, or a task that
        raised."""
        replay_failures = self.stats["store"]["replay_failures"]
        if replay_failures:
            self._failures.append(
                f"service: {replay_failures} stored verdicts did not replay")
        task_errors = self.stats["server"]["task_errors"]
        if task_errors:
            self._failures.append(f"service: {task_errors} tasks failed")

    def extra_failures(self) -> List[str]:
        """Failures counted since the last call."""
        failures, self._failures = self._failures, []
        return failures

    def close(self) -> None:
        self._stop_daemon()
        _remove_run_dir(self.run_dir)
        self.run_dir = None


def make_workload(name: str, seed: int):
    if name == "campaign":
        return CampaignWorkload(seed)
    if name == "service":
        return ServiceWorkload(seed)
    return RegistryWorkload(name, seed)


# ---------------------------------------------------------------------------
# Correctness gate (outside every timed region)
# ---------------------------------------------------------------------------


def gate(checks: Sequence[Check], replay: bool = True) -> List[str]:
    """One message per check that failed; an empty list means all correct.

    A verdict must equal its label and, with ``replay``, a proof's
    certificate must re-check with ``verify_certificate`` (a daemon's proof
    must carry its certificate summary) and a refutation's witness must
    replay with ``confirm_counterexample``.
    """
    from repro import verify_certificate
    from repro.oracle.minimize import confirm_counterexample

    failures = []
    for check in checks:
        left, left_start, right, right_start = check.automata
        if check.error is not None:
            failures.append(f"{check.name}: {check.error}")
            continue
        verdict = check.result.verdict
        if verdict is None:
            failures.append(f"{check.name}: no verdict")
        elif verdict != check.expected:
            failures.append(f"{check.name}: verdict {verdict}, label {check.expected}")
        elif not replay:
            continue
        elif verdict:
            certificate = check.result.certificate
            if certificate is None or not (
                check.remote or verify_certificate(certificate, left, right).ok
            ):
                failures.append(f"{check.name}: certificate does not re-check")
        else:
            witness = check.result.counterexample
            if witness is None or not confirm_counterexample(
                left, left_start, right, right_start, witness
            ):
                failures.append(f"{check.name}: witness does not replay")
    return failures


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _geomean_of_row_medians(passes: Sequence[Pass], key) -> float:
    # A row's time in a pass is the sum over its checks in that pass (one
    # check, except for service, which asks for each row in several
    # rounds).  Its median across passes comes first, so a row repeated in
    # every pass counts once and one slow moment does not set its time.
    by_name: Dict[str, List[float]] = {}
    for one in passes:
        in_pass: Dict[str, float] = {}
        for check in one.checks:
            in_pass[check.name] = in_pass.get(check.name, 0.0) + key(check)
        for name, total in in_pass.items():
            by_name.setdefault(name, []).append(total)
    logs = [math.log(statistics.median(values)) for values in by_name.values()]
    return math.exp(sum(logs) / len(logs))


def _latency_p50_p90(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[4], deciles[8]


def end_to_end(passes: Sequence[Pass]) -> Dict[str, float]:
    """Throughput and the geometric mean of per-row time to verdict, in
    reference units (bounded) and in seconds, and the median and 90th
    percentile of the time to each verdict in both (reported)."""
    checks = [check for one in passes for check in one.checks]
    p50_ref, p90_ref = _latency_p50_p90([check.elapsed / check.ref for check in checks])
    p50_s, p90_s = _latency_p50_p90([check.elapsed for check in checks])
    return {
        "verdicts_per_kref": 1000 * len(checks) / sum(one.normalised for one in passes),
        "verdict_geomean_ref": _geomean_of_row_medians(
            passes, lambda check: check.elapsed / check.ref),
        "latency_p90_ref": p90_ref,
        "latency_p50_ref": p50_ref,
        "verdicts_per_s": len(checks) / sum(one.wall for one in passes),
        "verdict_geomean_s": _geomean_of_row_medians(passes, lambda check: check.elapsed),
        "latency_p50_s": p50_s,
        "latency_p90_s": p90_s,
        "ref_s": statistics.median(check.ref for check in checks),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer: Tracer, traced: Pass, untraced: Sequence[Pass],
              workload) -> Dict[str, float]:
    """Span aggregates of the traced pass plus the program's own counters.

    Counters come from the ``EquivalenceResult.statistics`` each check
    returned, which for ``campaign`` are computed inside the workers and
    shipped back with the result, and for ``service`` from the statistics
    snapshot of the in-process service core.
    """
    metrics: Dict[str, float] = {}
    for layer in LAYER_NAMES:
        metrics[f"{layer}.self_s"] = tracer.self_s[layer]
        metrics[f"{layer}.calls"] = tracer.calls[layer]
    totals = {"iterations": 0, "skipped": 0, "checks": 0, "solver_free": 0,
              "queries": 0, "shortcuts": 0, "cache_hits": 0, "cache_lookups": 0,
              "expanded": 0, "job_s": 0.0, "checker_s": 0.0}
    for check in traced.checks:
        if check.result is None:
            continue
        stats = check.result.statistics
        entailment = stats.entailment
        totals["iterations"] += stats.iterations
        totals["skipped"] += stats.skipped
        totals["checks"] += entailment.get("checks", 0)
        totals["solver_free"] += (entailment.get("trivial", 0)
                                  + entailment.get("syntactic", 0)
                                  + entailment.get("cache_hits", 0))
        totals["queries"] += stats.solver.get("queries", 0)
        totals["shortcuts"] += entailment.get("aig_shortcuts", 0)
        totals["cache_hits"] += stats.cache.get("hits", 0)
        totals["cache_lookups"] += stats.cache.get("hits", 0) + stats.cache.get("misses", 0)
        totals["expanded"] += stats.counterexample_search.get("expanded", 0)
        totals["job_s"] += check.elapsed
        totals["checker_s"] += stats.runtime_seconds
    metrics["algorithm.iterations"] = totals["iterations"]
    metrics["algorithm.skip_ratio"] = _ratio(totals["skipped"], totals["iterations"])
    metrics["entailment.checks"] = totals["checks"]
    metrics["entailment.solver_free_ratio"] = _ratio(totals["solver_free"], totals["checks"])
    metrics["smt.queries"] = totals["queries"]
    metrics["aig.shortcut_ratio"] = _ratio(totals["shortcuts"], totals["queries"])
    metrics["cache.hit_ratio"] = _ratio(totals["cache_hits"], totals["cache_lookups"])
    metrics["counterexample.expanded"] = totals["expanded"]
    campaign = isinstance(workload, CampaignWorkload)
    metrics["engine.job_s"] = totals["job_s"] if campaign else 0.0
    metrics["engine.checker_s"] = totals["checker_s"] if campaign else 0.0
    metrics["engine.overhead_s"] = (
        totals["job_s"] - totals["checker_s"] if campaign else 0.0
    )
    metrics["engine.workers_spawned"] = workload.workers_spawned if campaign else 0
    service = workload.stats if isinstance(workload, ServiceWorkload) else {}
    server = service.get("server", {})
    store = service.get("store") or {}
    metrics["service.solves"] = server.get("solves", 0)
    metrics["service.replays"] = store.get("replays", 0)
    metrics["service.dedupe_hits"] = server.get("dedupe_hits", 0)
    metrics["service.queue_high_water"] = server.get("queue_high_water", 0)
    metrics["store.hit_ratio"] = _ratio(
        store.get("hits", 0), store.get("hits", 0) + store.get("misses", 0))
    metrics["trace.wall_s"] = traced.wall
    metrics["trace.coverage"] = sum(tracer.self_s.values()) / traced.wall
    # The traced pass runs without reference samples, whose handler would
    # land inside the spans, so the overhead compares raw walls.
    metrics["trace.overhead"] = traced.wall / statistics.median(
        one.wall for one in untraced)
    return metrics

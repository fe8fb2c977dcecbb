"""Tests for the job-based parallel equivalence engine."""

import dataclasses
import multiprocessing
import multiprocessing.connection
import multiprocessing.process
import os
import warnings

import pytest

from repro.core.algorithm import CheckerConfig
from repro.core.certificate import verify_certificate
from repro.core.engine import (
    CaseJob,
    EngineError,
    EquivalenceEngine,
    EquivalenceJob,
)
from repro.protocols import tiny

from ..helpers import fixed_length_automaton


def _tiny_jobs():
    return [
        EquivalenceJob(
            tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse", job_id="equiv"
        ),
        EquivalenceJob(
            tiny.incremental_bits_checked(), "Start", tiny.big_bits_checked(), "Parse",
            job_id="checked",
        ),
        EquivalenceJob(
            tiny.incremental_bits(), "Start", tiny.big_bits_wrong_length(), "Parse",
            job_id="wrong", find_counterexamples=True,
        ),
        EquivalenceJob(
            fixed_length_automaton(3), "s0", fixed_length_automaton(3), "s0",
            job_id="fixed3",
        ),
    ]


def _comparable(results):
    """Project each job result onto its deterministic, order-sensitive parts."""
    projected = []
    for result in results:
        value = result.value
        projected.append(
            (
                result.job_id,
                result.status,
                value.verdict,
                value.statistics.iterations,
                value.statistics.extended,
                value.statistics.skipped,
                value.statistics.relation_size,
                value.statistics.reachable_pairs,
                str(value.counterexample) if value.counterexample else None,
                value.certificate.summary() if value.certificate else None,
            )
        )
    return projected


class TestSequentialEngine:
    def test_results_in_submission_order(self):
        engine = EquivalenceEngine(jobs=1)
        results = engine.run(_tiny_jobs())
        assert [r.job_id for r in results] == ["equiv", "checked", "wrong", "fixed3"]
        assert all(r.ok for r in results)
        assert results[0].value.verdict is True
        assert results[2].value.verdict is False

    def test_error_is_captured_per_job(self):
        engine = EquivalenceEngine(jobs=1)
        results = engine.run([
            CaseJob(case="No Such Row", job_id="bad"),
            EquivalenceJob(
                tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse", job_id="good"
            ),
        ])
        assert results[0].status == "error"
        assert "No Such Row" in results[0].error
        assert results[1].ok and results[1].value.verdict is True
        assert engine.statistics.failed == 1
        assert engine.statistics.succeeded == 1

    def test_duplicate_labels_rejected(self):
        engine = EquivalenceEngine(jobs=1)
        job = EquivalenceJob(
            tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse", job_id="dup"
        )
        with pytest.raises(EngineError, match="unique"):
            engine.run([job, job])

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(EngineError):
            EquivalenceEngine(jobs=0)

    def test_on_result_streams_in_submission_order(self):
        engine = EquivalenceEngine(jobs=1)
        streamed = []
        results = engine.run(_tiny_jobs(), on_result=streamed.append)
        assert [r.job_id for r in streamed] == [r.job_id for r in results]
        assert streamed == results

    def test_on_result_sees_errors_too(self):
        engine = EquivalenceEngine(jobs=1)
        streamed = []
        engine.run([CaseJob(case="No Such Row", job_id="bad")],
                   on_result=streamed.append)
        assert [r.status for r in streamed] == ["error"]

    def test_case_job_runs_registered_study(self):
        engine = EquivalenceEngine(jobs=1)
        [result] = engine.run([CaseJob(case="Header initialization")])
        assert result.ok
        assert result.value.verdict is True
        assert result.value.metrics.name == "Header initialization"


class TestInlineTimeouts:
    """jobs=1 cannot interrupt a running job: it must warn, then enforce post hoc."""

    def _job(self, timeout=None):
        return EquivalenceJob(
            tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse",
            job_id="inline", timeout=timeout,
        )

    def test_inline_timeout_warns_explicitly(self):
        engine = EquivalenceEngine(jobs=1)
        with pytest.warns(RuntimeWarning, match="inline mode"):
            engine.run([self._job(timeout=60.0)])

    def test_inline_engine_default_timeout_also_warns(self):
        engine = EquivalenceEngine(jobs=1, timeout=60.0)
        with pytest.warns(RuntimeWarning, match="enforced only after"):
            engine.run([self._job()])

    def test_inline_without_timeout_does_not_warn(self):
        engine = EquivalenceEngine(jobs=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = engine.run([self._job()])
        assert results[0].ok

    def test_inline_over_budget_job_reported_as_timeout(self):
        engine = EquivalenceEngine(jobs=1)
        with pytest.warns(RuntimeWarning):
            [result] = engine.run([self._job(timeout=1e-9)])
        assert result.status == "timeout"
        assert result.value is None
        assert "inline job finished" in result.error
        assert engine.statistics.timed_out == 1

    def test_inline_within_budget_job_is_ok(self):
        engine = EquivalenceEngine(jobs=1)
        with pytest.warns(RuntimeWarning):
            [result] = engine.run([self._job(timeout=300.0)])
        assert result.ok
        assert result.value.verdict is True

    def test_inline_over_budget_failure_is_a_timeout_too(self):
        # A pooled worker would have been killed before it could raise, so
        # an inline job that fails beyond its budget classifies as timeout.
        engine = EquivalenceEngine(jobs=1)
        with pytest.warns(RuntimeWarning):
            [result] = engine.run([CaseJob(case="No Such Row", timeout=1e-9, job_id="x")])
        assert result.status == "timeout"
        assert engine.statistics.timed_out == 1


def _quick_jobs(count):
    return [
        EquivalenceJob(
            tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse", job_id=f"quick{i}"
        )
        for i in range(count)
    ]


def _slow_job():
    """A job that takes far longer than its 0.01 s limit."""
    from repro.protocols import mpls

    return EquivalenceJob(
        mpls.reference_parser(), mpls.REFERENCE_START,
        mpls.vectorized_parser(), mpls.VECTORIZED_START,
        job_id="slow", timeout=0.01,
    )


class _DiesOnArrival(CaseJob):
    """A job whose unpickling ends the worker process that receives it."""

    def __setstate__(self, state):
        os._exit(7)


@pytest.fixture
def started(monkeypatch):
    """Every process started in this process, counted by wrapping
    ``BaseProcess.start`` (as ``perfbench/workloads.py`` counts workers)."""
    processes = []
    start = multiprocessing.process.BaseProcess.start

    def counting_start(process):
        processes.append(process)
        return start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
    return processes


class TestParallelEngine:
    def test_parallel_results_identical_to_sequential(self):
        jobs = _tiny_jobs()
        sequential = EquivalenceEngine(jobs=1).run(jobs)
        parallel = EquivalenceEngine(jobs=2).run(jobs)
        assert _comparable(parallel) == _comparable(sequential)

    def test_pooled_results_do_not_depend_on_worker_history(self):
        """Workers that have already run other jobs give the inline verdicts
        and witnesses, and certificates that re-check in this process."""
        from repro.synth import synthesize_pair

        pairs = [synthesize_pair(20220613 + index) for index in range(6)]
        jobs = _tiny_jobs() + [
            EquivalenceJob(*pair.automata(), find_counterexamples=True, job_id=pair.name)
            for pair in pairs
        ]
        sequential = EquivalenceEngine(jobs=1).run(jobs)
        pooled = EquivalenceEngine(jobs=2).run(jobs)
        assert _comparable(pooled) == _comparable(sequential)
        certified = 0
        for job, result in zip(jobs, pooled):
            if result.value.certificate is not None:
                check = verify_certificate(result.value.certificate, job.left, job.right)
                assert check.ok, (job.label, check.failures)
                certified += 1
        assert certified >= 3

    def test_pooled_on_result_streams_in_submission_order(self):
        """The pooled path delivers the contiguous done-prefix as it forms:
        submission order, every job exactly once, before run() returns."""
        jobs = _tiny_jobs()
        streamed = []
        results = EquivalenceEngine(jobs=2).run(jobs, on_result=streamed.append)
        assert [r.job_id for r in streamed] == [j.job_id for j in jobs]
        assert streamed == results

    def test_parallel_shares_persistent_cache(self, tmp_path):
        jobs = _tiny_jobs()
        cache_dir = str(tmp_path / "cache")
        warm = EquivalenceEngine(jobs=1, overlay=CheckerConfig(cache_dir=cache_dir))
        warm_results = warm.run(jobs)
        parallel = EquivalenceEngine(jobs=2, overlay=CheckerConfig(cache_dir=cache_dir))
        parallel_results = parallel.run(jobs)
        assert _comparable(parallel_results) == _comparable(warm_results)
        # Workers answered at least one solver query from the shared store.
        total_hits = sum(
            r.value.statistics.cache.get("hits", 0) for r in parallel_results if r.ok
        )
        assert total_hits > 0

    def test_timeout_terminates_job_and_run_continues(self):
        results = EquivalenceEngine(jobs=2).run([
            _slow_job(),
            EquivalenceJob(
                tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse", job_id="fast"
            ),
        ])
        assert results[0].status == "timeout"
        assert "0.01" in results[0].error
        assert results[1].ok and results[1].value.verdict is True

    def test_single_job_with_multiple_workers_is_pooled(self):
        # jobs > 1 must pool even for one job so its timeout stays enforced.
        [result] = EquivalenceEngine(jobs=2).run([
            EquivalenceJob(
                tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse",
                job_id="only", timeout=60.0,
            )
        ])
        assert result.ok and result.value.verdict is True

    def test_pool_reuses_workers_across_jobs(self, started):
        results = EquivalenceEngine(jobs=2).run(_quick_jobs(6))
        assert all(r.ok and r.value.verdict is True for r in results)
        assert len(started) == 2

    def test_timed_out_worker_is_replaced(self, started):
        results = EquivalenceEngine(jobs=2).run([_slow_job()] + _quick_jobs(3))
        assert [r.status for r in results] == ["timeout", "ok", "ok", "ok"]
        assert len(started) <= 3

    def test_worker_death_fails_only_its_job(self, started):
        # Both first workers die receiving their jobs, so the quick jobs
        # can only have run on replacement workers.
        jobs = [
            _DiesOnArrival(case="x", job_id="dies1"),
            _DiesOnArrival(case="x", job_id="dies2"),
        ] + _quick_jobs(2)
        results = EquivalenceEngine(jobs=2).run(jobs)
        assert [r.status for r in results] == ["error", "error", "ok", "ok"]
        assert all("worker exited with code 7" in r.error for r in results[:2])
        assert len(started) in (3, 4)
        exit_codes = sorted(process.exitcode for process in started)
        assert exit_codes == [0] * (len(started) - 2) + [7, 7]

    def test_dead_idle_worker_is_replaced(self, started, monkeypatch):
        # A worker that died while idle fails the send of its next job; the
        # job must go to a new worker instead of aborting the run.
        send = multiprocessing.connection.Connection.send
        broken = []

        def send_breaks_once(conn, obj):
            if obj is not None and not broken:
                broken.append(obj)
                raise BrokenPipeError
            return send(conn, obj)

        monkeypatch.setattr(multiprocessing.connection.Connection, "send", send_breaks_once)
        results = EquivalenceEngine(jobs=2).run(_quick_jobs(3))
        assert all(r.ok for r in results)
        assert len(started) == 3

    def test_workers_exit_cleanly_after_run(self, started):
        EquivalenceEngine(jobs=2).run(_quick_jobs(3) + [_slow_job()] + _quick_jobs(6)[3:])
        assert multiprocessing.active_children() == []
        exit_codes = sorted(process.exitcode for process in started)
        # The timed-out worker was terminated; every other one returned.
        assert exit_codes[0] < 0
        assert exit_codes[1:] == [0] * (len(started) - 1)

    def test_parallel_error_isolation(self):
        results = EquivalenceEngine(jobs=2).run([
            CaseJob(case="No Such Row", job_id="bad"),
            EquivalenceJob(
                tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse", job_id="good"
            ),
        ])
        assert [r.job_id for r in results] == ["bad", "good"]
        assert results[0].status == "error"
        assert results[1].ok


class TestConfigPlumbing:
    def test_engine_cache_dir_threaded_into_job_config(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        engine = EquivalenceEngine(jobs=1, overlay=CheckerConfig(cache_dir=cache_dir))
        [result] = engine.run([
            EquivalenceJob(
                tiny.incremental_bits_checked(), "Start", tiny.big_bits_checked(), "Parse",
                job_id="cached",
            )
        ])
        assert result.ok
        assert result.value.statistics.cache.get("stores", 0) > 0

    def test_job_config_cache_dir_wins(self, tmp_path):
        mine = str(tmp_path / "mine")
        engine_dir = str(tmp_path / "engine")
        config = CheckerConfig(cache_dir=mine)
        engine = EquivalenceEngine(jobs=1, overlay=CheckerConfig(cache_dir=engine_dir))
        [result] = engine.run([
            EquivalenceJob(
                tiny.incremental_bits_checked(), "Start", tiny.big_bits_checked(), "Parse",
                config=config, job_id="explicit",
            )
        ])
        assert result.ok
        import os

        assert os.path.isdir(mine)
        assert not os.path.isdir(engine_dir)

    def test_engine_use_incremental_override(self):
        from repro.core.engine import _effective_config

        job = EquivalenceJob(
            tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse",
            config=CheckerConfig(use_incremental=True), job_id="inc",
        )
        off = CheckerConfig(use_incremental=False)
        assert _effective_config(job, off).use_incremental is False
        assert _effective_config(job, None).use_incremental is True
        bare = EquivalenceJob(
            tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse", job_id="bare"
        )
        config = _effective_config(
            bare, CheckerConfig(cache_dir="/tmp/engine-cache", use_incremental=False)
        )
        assert config.use_incremental is False
        assert config.cache_dir == "/tmp/engine-cache"
        assert _effective_config(bare, None) is None

    def test_engine_oracle_override(self):
        from repro.core.engine import _effective_config

        bare = EquivalenceJob(
            tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse", job_id="bare"
        )
        overlay = CheckerConfig(oracle_packets=40, oracle_seed=9)
        config = _effective_config(bare, overlay)
        assert config.oracle_packets == 40
        assert config.oracle_seed == 9
        # An explicit job config keeps its own oracle settings.
        mine = EquivalenceJob(
            tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse",
            config=CheckerConfig(oracle_packets=8, oracle_seed=1), job_id="mine",
        )
        config = _effective_config(mine, overlay)
        assert config.oracle_packets == 8
        assert config.oracle_seed == 1

    # For every field: an engine value that differs from the default, and a
    # different explicit job value (booleans have only one non-default).
    _OVERLAY_VALUES = {
        "entailment_mode": ("fast", "fast"),
        "max_iterations": (10, 20),
        "frontier_order": ("lifo", "lifo"),
        "cache_dir": ("/engine", "/job"),
        "oracle_packets": (40, 8),
        "oracle_seed": (9, 1),
        "solver": ("dpll", "cdcl"),
        "clause_db_max": (0, 512),
    }

    @pytest.mark.parametrize(
        "name", [item.name for item in dataclasses.fields(CheckerConfig)]
    )
    def test_engine_overlay_fills_only_default_fields(self, name):
        from repro.core.engine import _effective_config

        default = getattr(CheckerConfig(), name)
        engine_value, job_value = self._OVERLAY_VALUES.get(
            name, (not default, not default)
        )
        overlay = CheckerConfig(**{name: engine_value})
        bare = EquivalenceJob(
            tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse",
            config=CheckerConfig(), job_id="bare",
        )
        assert getattr(_effective_config(bare, overlay), name) == engine_value
        explicit = EquivalenceJob(
            tiny.incremental_bits(), "Start", tiny.big_bits(), "Parse",
            config=CheckerConfig(**{name: job_value}), job_id="explicit",
        )
        # Neither the engine's non-default value nor its default replaces
        # an explicit job setting.
        for engine_config in (overlay, CheckerConfig()):
            effective = _effective_config(explicit, engine_config)
            assert getattr(effective, name) == job_value

    def test_engine_oracle_cross_checks_every_job(self):
        engine = EquivalenceEngine(
            jobs=1, overlay=CheckerConfig(oracle_packets=30, oracle_seed=2)
        )
        [result] = engine.run([
            EquivalenceJob(
                tiny.incremental_bits_checked(), "Start", tiny.big_bits_checked(), "Parse",
                job_id="oracled",
            )
        ])
        assert result.ok and result.value.verdict is True
        assert result.value.statistics.oracle["packets"] == 30
        assert result.value.statistics.oracle["divergences"] == 0

    def test_run_cases_through_engine_matches_direct_run(self):
        from repro.reporting import run_cases

        sequential = run_cases(names=["Header initialization"], full=False)
        parallel = run_cases(
            names=["Header initialization", "Speculative loop"], full=False, jobs=2
        )
        assert sequential[0].verdict is True
        assert [m.name for m in parallel] == ["Header initialization", "Speculative loop"]
        assert all(m.verdict is True for m in parallel)
        assert sequential[0].relation_size == parallel[0].relation_size

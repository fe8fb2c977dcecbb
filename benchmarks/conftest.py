"""Shared fixtures and reporting for the benchmark harness.

Each benchmark runs one Table 2 case study through the same runner the CLI
uses and registers the resulting row; at the end of the session the collected
rows are printed in the paper's column layout so the output can be compared
against Table 2 directly (and pasted into EXPERIMENTS.md).

``LEAPFROG_FULL=1`` switches the expensive studies to their paper-sized
configurations; the default keeps every benchmark in the seconds-to-minutes
range on a laptop with the pure-Python solver.
"""

from __future__ import annotations

from typing import List

import pytest

from repro import envconfig
from repro.config import resolve_config
from repro.core.engine import EquivalenceEngine
from repro.reporting import CaseMetrics, render_text

_COLLECTED: List[CaseMetrics] = []


@pytest.fixture
def engine() -> EquivalenceEngine:
    """The execution engine every benchmark routes its verification through.

    ``LEAPFROG_JOBS`` selects the worker count (default 1, the sequential
    baseline), ``LEAPFROG_CACHE_DIR`` enables the persistent solver-query
    cache, ``LEAPFROG_INCREMENTAL=0/1`` pins the incremental solver session
    on or off, ``LEAPFROG_AIG=0/1`` pins the simplifying AIG lowering
    pipeline, and ``LEAPFROG_ORACLE``/``LEAPFROG_SEED`` cross-check every
    verdict against that many seeded concrete packets, so the same benchmark
    files measure sequential, parallel, cold, warm, ablation and oracle
    configurations without edits.  The checker variables are resolved into
    the engine's overlay config (:func:`repro.config.resolve_config`), so a
    malformed value fails the session with a clear message instead of a
    bare ``ValueError``, and a benchmark's explicit job config still wins.
    """
    return EquivalenceEngine(
        jobs=envconfig.jobs_from_env(), overlay=resolve_config()
    )


@pytest.fixture
def record_case():
    """Benchmarks call this with the CaseMetrics row they produced."""

    def _record(metrics: CaseMetrics) -> CaseMetrics:
        _COLLECTED.append(metrics)
        return metrics

    return _record


def pytest_sessionfinish(session, exitstatus):
    if _COLLECTED:
        print("\n")
        print(render_text(_COLLECTED, title="Leapfrog reproduction — Table 2 rows measured this session"))

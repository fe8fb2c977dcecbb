"""Campaign throughput: labeled pairs checked per second, agreement-gated.

The campaign runner is the repo's scale surface — synthesized pairs streamed
through the engine in chunks, verdicts cross-checked against ground truth —
so its benchmark doubles as a correctness gate: a round only counts if every
verdict agreed with its label and nothing failed or timed out.  The headline
number is ``pairs_per_second`` off the campaign report (wall-clock lives on
the report object, deliberately outside its deterministic JSON payload).

``LEAPFROG_JOBS`` spreads each chunk over worker processes, ``LEAPFROG_SEED``
moves the campaign to a different region of the seed space.  The module-level
``_campaign_round`` workload is importable by history recorders
(``benchmarks/history/0009-campaign.json`` was measured through it).
"""

import time

from repro import envconfig
from repro.config import resolve_config
from repro.campaign import CampaignConfig, run_campaign

_SEED = resolve_config().oracle_seed
if _SEED is None:
    _SEED = 20220613
_PAIRS = 16


def _campaign_round(jobs: int = 1, shards: int = 1, pairs: int = _PAIRS):
    """One full campaign; returns ``(seconds, report)`` after gating."""
    config = CampaignConfig(pairs=pairs, shards=shards, seed=_SEED, jobs=jobs)
    started = time.perf_counter()
    report = run_campaign(config)
    elapsed = time.perf_counter() - started
    totals = report.totals
    assert totals["completed"] == pairs, totals
    assert totals["disagreements"] == 0, totals
    assert totals["failures"] == 0, totals
    assert totals["cross_stack"] == 0, totals
    return elapsed, report


def test_campaign_throughput(benchmark):
    """The headline number: campaign pairs per second, 100% agreement."""
    jobs = envconfig.jobs_from_env()
    _, report = benchmark.pedantic(
        _campaign_round, kwargs={"jobs": jobs}, iterations=1, rounds=1
    )
    assert report.pairs_per_second > 0


def test_campaign_sharded_overhead(benchmark):
    """Sharding is bookkeeping, not work: a 4-shard run checks the same
    pairs and must merge to the same deterministic totals."""
    _, report = benchmark.pedantic(
        _campaign_round, kwargs={"shards": 4}, iterations=1, rounds=1
    )
    single = run_campaign(CampaignConfig(pairs=_PAIRS, seed=_SEED))
    assert report.as_dict()["totals"] == single.as_dict()["totals"]


def test_campaign_synthesis_share(benchmark):
    """Generation alone (campaign envelopes: loops, lookahead, store
    guards) — the floor below which checking throughput cannot rise."""
    from repro.synth import campaign_config_for_size, synthesize_pair

    config = campaign_config_for_size("mini")

    def generate():
        return [
            synthesize_pair(
                _SEED + index,
                config=config,
                verdict="equivalent" if index % 2 == 0 else "not_equivalent",
            )
            for index in range(_PAIRS)
        ]

    pairs = benchmark.pedantic(generate, iterations=1, rounds=1)
    assert len(pairs) == _PAIRS

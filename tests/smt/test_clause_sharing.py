"""Tests for cross-worker learned-clause sharing (fingerprints + channel)."""

from repro.logic.folbv import BEq, BNot, BVVar, b_and
from repro.smt.aig import Aig, FolbvToAig
from repro.smt.bvsolver import InternalBVSolver
from repro.smt.clauses import (
    AigFingerprinter,
    ClauseChannel,
    decode_literal,
    encode_literal,
)

WIDTH = 16
A = BVVar("a", WIDTH)
B = BVVar("b", WIDTH)
C = BVVar("c", WIDTH)

#: An equality chain: UNSAT, but not AIG-collapsible (the graph cannot see
#: transitivity), so CDCL has to earn the answer with real conflicts — the
#: exact shape clause sharing exists to amortize.
PREMISES = (BEq(A, B), BEq(B, C))
GOAL = BNot(BEq(A, C))


def _lower(formula):
    aig = Aig(simplify=True)
    lowerer = FolbvToAig(aig)
    ref = lowerer.lower_formula(formula)
    return aig, lowerer, ref


class TestFingerprints:
    def test_stable_across_independent_lowerings(self):
        # Two processes lowering the same formula must agree on every
        # fingerprint, or clauses could never be translated between them.
        combined = b_and(list(PREMISES) + [GOAL])
        aig1, low1, ref1 = _lower(combined)
        aig2, low2, ref2 = _lower(combined)
        fp1 = AigFingerprinter(aig1, low1).fingerprint(abs(ref1))
        fp2 = AigFingerprinter(aig2, low2).fingerprint(abs(ref2))
        assert fp1 is not None
        assert fp1 == fp2

    def test_different_structures_differ(self):
        aig1, low1, ref1 = _lower(BEq(A, B))
        aig2, low2, ref2 = _lower(BEq(A, C))
        fp1 = AigFingerprinter(aig1, low1).fingerprint(abs(ref1))
        fp2 = AigFingerprinter(aig2, low2).fingerprint(abs(ref2))
        assert fp1 != fp2

    def test_node_for_round_trip(self):
        aig, lowerer, ref = _lower(BEq(A, B))
        printer = AigFingerprinter(aig, lowerer)
        fingerprint = printer.fingerprint(abs(ref))
        assert printer.node_for(fingerprint) == abs(ref)

    def test_anonymous_input_is_unshareable(self):
        aig = Aig(simplify=True)
        lowerer = FolbvToAig(aig)
        index = aig.new_input()  # no variable claims this input bit
        printer = AigFingerprinter(aig, lowerer)
        assert printer.fingerprint(abs(index)) is None

    def test_literal_encoding_round_trip(self):
        assert decode_literal(encode_literal("abc123", True)) == ("abc123", True)
        assert decode_literal(encode_literal("abc123", False)) == ("abc123", False)


class TestClauseChannel:
    def test_publish_and_fetch(self, tmp_path):
        writer = ClauseChannel(str(tmp_path))
        reader = ClauseChannel(str(tmp_path))
        assert writer.publish([(["x", "!y"], 3), (["z"], 1)]) == 2
        since, clauses = reader.fetch(0)
        # The LBD rides along with the literals, so importers can triage.
        assert clauses == [(["x", "!y"], 3), (["z"], 1)]
        # The cursor advances: nothing new on a second fetch.
        assert reader.fetch(since) == (since, [])

    def test_own_rows_are_never_returned(self, tmp_path):
        channel = ClauseChannel(str(tmp_path))
        channel.publish([(["x"], 1)])
        since, clauses = channel.fetch(0)
        assert clauses == []
        assert since > 0  # the cursor still advances past own rows

    def test_long_and_empty_clauses_are_dropped(self, tmp_path):
        channel = ClauseChannel(str(tmp_path), max_len=2)
        assert channel.publish([([], 1), (["a", "b", "c"], 2), (["a", "b"], 2)]) == 1
        assert len(channel) == 1

    def test_capacity_evicts_oldest(self, tmp_path):
        writer = ClauseChannel(str(tmp_path), capacity=3)
        reader = ClauseChannel(str(tmp_path), capacity=3)
        writer.publish([([f"c{i}"], 1) for i in range(10)])
        assert len(writer) == 3
        _, clauses = reader.fetch(0)
        assert clauses == [(["c7"], 1), (["c8"], 1), (["c9"], 1)]

    def test_reopens_transparently_after_close(self, tmp_path):
        channel = ClauseChannel(str(tmp_path))
        channel.publish([(["x"], 1)])
        channel.close()
        assert len(channel) == 1  # the connection came back on demand


def _session(channel):
    return InternalBVSolver(clause_channel=channel).incremental_session()


def _solve_chain(session):
    assumptions = [session.activation(p) for p in PREMISES]
    combined = b_and(list(PREMISES) + [GOAL])
    return session.check(assumptions, goal=GOAL, validate_formula=combined)


class TestSharingRoundTrip:
    def test_importer_skips_foreign_structure(self, tmp_path):
        exporter = _session(ClauseChannel(str(tmp_path)))
        result = _solve_chain(exporter)
        assert result.is_unsat
        # A session that never lowered the chain cannot translate its
        # clauses; they are skipped, not crashed on.
        stranger = _session(ClauseChannel(str(tmp_path)))
        other = stranger.check(
            [stranger.activation(BEq(A, B))],
            goal=BEq(B, C),
            validate_formula=b_and([BEq(A, B), BEq(B, C)]),
        )
        assert other.is_sat
        assert stranger.statistics.clauses_imported == 0

    def test_round_trip_eliminates_conflicts(self, tmp_path):
        exporter = _session(ClauseChannel(str(tmp_path)))
        result = _solve_chain(exporter)
        assert result.is_unsat
        assert exporter.statistics.clauses_exported > 0
        assert exporter._solver.stats.conflicts > 0

        importer = _session(ClauseChannel(str(tmp_path)))
        result = _solve_chain(importer)
        assert result.is_unsat
        assert importer.statistics.clauses_imported > 0
        # The imported clauses carry the exporter's whole refutation: the
        # importer decides nothing it has to retract.
        assert importer._solver.stats.conflicts == 0

    def test_verdicts_agree_with_unshared_baseline(self, tmp_path):
        baseline = InternalBVSolver().incremental_session()
        assert _solve_chain(baseline).is_unsat

        exporter = _session(ClauseChannel(str(tmp_path)))
        _solve_chain(exporter)
        importer = _session(ClauseChannel(str(tmp_path)))
        assert _solve_chain(importer).is_unsat

        # A satisfiable query through a clause-fed solver stays satisfiable
        # (imported clauses are consequences, never new constraints).
        sat_importer = _session(ClauseChannel(str(tmp_path)))
        result = sat_importer.check(
            [sat_importer.activation(BEq(A, B))],
            goal=BEq(B, C),
            validate_formula=b_and([BEq(A, B), BEq(B, C)]),
        )
        assert result.is_sat

    def test_repeat_queries_do_not_reexport(self, tmp_path):
        channel = ClauseChannel(str(tmp_path))
        session = _session(channel)
        _solve_chain(session)
        exported_once = session.statistics.clauses_exported
        assert exported_once > 0
        _solve_chain(session)
        # Everything learned the first time is deduplicated by fingerprint
        # key; only genuinely new clauses (none here) would be published.
        assert session.statistics.clauses_exported == exported_once

    def test_sharing_disabled_without_channel(self):
        session = InternalBVSolver().incremental_session()
        result = _solve_chain(session)
        assert result.is_unsat
        assert session.statistics.clauses_exported == 0
        assert session.statistics.clauses_imported == 0


class TestBackendIntegration:
    def test_make_backend_share_dir_round_trip(self, tmp_path):
        from repro.config import CheckerConfig
        from repro.smt.cache import make_backend

        shared = CheckerConfig(
            use_query_cache=False, share_clauses=True, cache_dir=str(tmp_path)
        )
        combined = b_and(list(PREMISES) + [GOAL])
        first = make_backend(shared)
        session = first.incremental_session()
        assumptions = [session.activation(p) for p in PREMISES]
        assert session.check(assumptions, goal=GOAL, validate_formula=combined).is_unsat
        assert first.statistics.clauses_exported > 0
        first.close()

        second = make_backend(shared)
        session = second.incremental_session()
        assumptions = [session.activation(p) for p in PREMISES]
        assert session.check(assumptions, goal=GOAL, validate_formula=combined).is_unsat
        assert second.statistics.clauses_imported > 0
        second.close()


def _publish_burst(directory: str, worker: int, bursts: int, burst_size: int) -> int:
    """One campaign worker: its own channel, many small publishes."""
    channel = ClauseChannel(directory)
    stored = 0
    for burst in range(bursts):
        stored += channel.publish([
            ([f"w{worker}b{burst}c{i}"], 1) for i in range(burst_size)
        ])
    channel.close()
    return stored


class TestClauseChannelConcurrency:
    """Campaign-scale concurrent use of one sqlite channel directory.

    A ``campaign run --jobs N`` points every worker process at the same
    share directory; these tests drive that access pattern hard — many
    writers, interleaved readers, thread and process concurrency — and
    assert the append-only/cursor contract survives it: no lost rows, no
    duplicate deliveries, cursors never go backwards.
    """

    WRITERS = 8
    BURSTS = 12
    BURST_SIZE = 4

    def test_concurrent_thread_writers_lose_nothing(self, tmp_path):
        import threading

        totals = [0] * self.WRITERS
        def work(index):
            totals[index] = _publish_burst(
                str(tmp_path), index, self.BURSTS, self.BURST_SIZE
            )
        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(self.WRITERS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        expected = self.WRITERS * self.BURSTS * self.BURST_SIZE
        assert sum(totals) == expected
        reader = ClauseChannel(str(tmp_path), capacity=expected)
        _, clauses = reader.fetch(0)
        # Every published clause arrives exactly once, none truncated away.
        assert sorted(lits[0] for lits, _ in clauses) == sorted(
            f"w{w}b{b}c{i}"
            for w in range(self.WRITERS)
            for b in range(self.BURSTS)
            for i in range(self.BURST_SIZE)
        )
        reader.close()

    def test_concurrent_process_writers_lose_nothing(self, tmp_path):
        from concurrent.futures import ProcessPoolExecutor

        writers, bursts, size = 4, 6, 3
        with ProcessPoolExecutor(max_workers=writers) as pool:
            stored = list(pool.map(
                _publish_burst,
                [str(tmp_path)] * writers, range(writers),
                [bursts] * writers, [size] * writers,
            ))
        expected = writers * bursts * size
        assert sum(stored) == expected
        reader = ClauseChannel(str(tmp_path), capacity=expected)
        _, clauses = reader.fetch(0)
        assert len(clauses) == expected
        assert len({lits[0] for lits, _ in clauses}) == expected
        reader.close()

    def test_polling_reader_sees_each_clause_once(self, tmp_path):
        """A reader polling mid-campaign never re-reads and never skips."""
        import threading

        stop = threading.Event()
        seen = []
        def poll():
            reader = ClauseChannel(str(tmp_path))
            since = 0
            while not stop.is_set():
                since, clauses = reader.fetch(since)
                seen.extend(lits[0] for lits, _ in clauses)
            since, clauses = reader.fetch(since)  # final drain
            seen.extend(lits[0] for lits, _ in clauses)
            reader.close()

        poller = threading.Thread(target=poll)
        poller.start()
        try:
            writers = [
                threading.Thread(
                    target=_publish_burst,
                    args=(str(tmp_path), i, self.BURSTS, self.BURST_SIZE),
                )
                for i in range(self.WRITERS)
            ]
            for t in writers:
                t.start()
            for t in writers:
                t.join()
        finally:
            stop.set()
            poller.join()
        expected = self.WRITERS * self.BURSTS * self.BURST_SIZE
        assert len(seen) == expected, "a clause was skipped or re-delivered"
        assert len(set(seen)) == expected

    def test_concurrent_eviction_keeps_cursor_monotonic(self, tmp_path):
        """Bounded capacity under concurrent writers: the table never grows
        past the bound and fetch cursors only move forward."""
        import threading

        capacity = 16
        def work(index):
            channel = ClauseChannel(str(tmp_path), capacity=capacity)
            for burst in range(self.BURSTS):
                channel.publish([([f"w{index}b{burst}c{i}"], 1) for i in range(4)])
            channel.close()

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(self.WRITERS)
        ]
        for t in threads:
            t.start()
        reader = ClauseChannel(str(tmp_path), capacity=capacity)
        cursor, fetched = 0, 0
        while any(t.is_alive() for t in threads):
            new_cursor, clauses = reader.fetch(cursor)
            assert new_cursor >= cursor
            cursor = new_cursor
            fetched += len(clauses)
        for t in threads:
            t.join()
        _, clauses = reader.fetch(cursor)
        fetched += len(clauses)
        assert len(reader) <= capacity
        assert fetched <= self.WRITERS * self.BURSTS * 4
        reader.close()

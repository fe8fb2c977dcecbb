"""Tests for structural fingerprints and the fingerprint-keyed query cache."""

import os
import pickle
import subprocess
import sys

import pytest

from repro.logic import folbv
from repro.logic.confrel import LEFT, RIGHT, CBuf, CHdr, CSlice, CVar, FAnd, FEq
from repro.logic.fingerprint import (
    confrel_fingerprint,
    folbv_fingerprint,
    intern_formula,
    intern_term,
)
from repro.logic.folbv import BEq, BVConcatT, BVConst, BVExtract, BVVar, b_and, b_not
from repro.p4a.bitvec import Bits
from repro.config import CheckerConfig
from repro.smt.backend import InternalBackend
from repro.smt.cache import CachingBackend, PersistentQueryCache, make_backend
from repro.smt.bvsolver import SatStatus


def _sat_formula():
    # x[0:3] = 0b1010 is satisfiable.
    return BEq(BVExtract(BVVar("x", 8), 0, 3), BVConst(Bits("1010")))


def _unsat_formula():
    x = BVVar("x", 4)
    return b_and([BEq(x, BVConst(Bits("0000"))), BEq(x, BVConst(Bits("1111")))])


def _pinned_folbv():
    return BEq(BVVar("x", 2), BVConst(Bits("01")))


def _pinned_confrel():
    return FEq(CHdr(LEFT, "udp", 8), CSlice(CBuf(RIGHT, 16), 0, 7))


# The version-2 digests of the two formulas above.
_PINNED_FOLBV_DIGEST = "f93f56e4386440e1c7b12c35887deb725c4d2ee1f81c01ef856e55b8299f4ec5"
_PINNED_CONFREL_DIGEST = "a8b7e6c676a47b17de0a5e8d921fa3640d2f27bebd3652ced90a99e6f375125c"


class TestFingerprints:
    def test_structurally_equal_formulas_agree(self):
        assert folbv_fingerprint(_sat_formula()) == folbv_fingerprint(_sat_formula())

    def test_different_structure_different_fingerprint(self):
        assert folbv_fingerprint(_sat_formula()) != folbv_fingerprint(_unsat_formula())
        sat = _sat_formula()
        assert folbv_fingerprint(sat) != folbv_fingerprint(b_not(sat))

    def test_variable_names_and_widths_matter(self):
        assert folbv_fingerprint(BVVar("x", 8)) != folbv_fingerprint(BVVar("y", 8))
        assert folbv_fingerprint(BVVar("x", 8)) != folbv_fingerprint(BVVar("x", 16))

    def test_term_and_formula_layers_do_not_collide(self):
        # A bare term and a formula built from it must not share digests.
        term = BVVar("x", 1)
        assert folbv_fingerprint(term) != folbv_fingerprint(BEq(term, BVConst(Bits("1"))))

    def test_confrel_fingerprint_tracks_structure(self):
        eq = FEq(CHdr(LEFT, "udp", 8), CHdr(RIGHT, "udp", 8))
        same = FEq(CHdr(LEFT, "udp", 8), CHdr(RIGHT, "udp", 8))
        other = FEq(CVar("x", 8), CHdr(RIGHT, "udp", 8))
        assert confrel_fingerprint(eq) == confrel_fingerprint(same)
        assert confrel_fingerprint(eq) != confrel_fingerprint(other)
        assert confrel_fingerprint(FAnd((eq,))) != confrel_fingerprint(eq)

    def test_fingerprints_stable_across_processes(self):
        # Hardcoded digests guard against accidental format drift, which
        # would silently invalidate every persistent cache: changing them
        # means bumping FINGERPRINT_VERSION.
        assert folbv_fingerprint(_pinned_folbv()) == _PINNED_FOLBV_DIGEST
        assert confrel_fingerprint(_pinned_confrel()) == _PINNED_CONFREL_DIGEST
        # A process with another string-hash salt computes the same digests.
        script = (
            "from tests.smt.test_query_cache import _pinned_confrel, _pinned_folbv\n"
            "from repro.logic.fingerprint import confrel_fingerprint, folbv_fingerprint\n"
            "print(folbv_fingerprint(_pinned_folbv()))\n"
            "print(confrel_fingerprint(_pinned_confrel()))\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        env = dict(os.environ, PYTHONHASHSEED="12345",
                   PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root]))
        output = subprocess.run(
            [sys.executable, "-c", script], env=env, cwd=root,
            capture_output=True, text=True, check=True,
        ).stdout.split()
        assert output == [_PINNED_FOLBV_DIGEST, _PINNED_CONFREL_DIGEST]


class TestDigestsStayInProcess:
    """A cached digest is derived data: it never travels through a pickle."""

    def test_pickle_round_trip_drops_the_cached_digest(self):
        formula = b_and([_sat_formula(), b_not(_unsat_formula())])
        confrel = FAnd((_pinned_confrel(), FEq(CVar("x", 8), CHdr(RIGHT, "udp", 8))))
        digests = (folbv_fingerprint(formula), confrel_fingerprint(confrel))
        assert folbv.DIGEST_KEYS[0] in vars(formula)
        assert folbv.DIGEST_KEYS[1] in vars(confrel)
        formula_copy, confrel_copy = pickle.loads(pickle.dumps((formula, confrel)))
        for copy in (formula_copy, formula_copy.operands[0], confrel_copy,
                     confrel_copy.operands[0].left):
            assert not set(folbv.DIGEST_KEYS) & set(vars(copy))
        assert formula_copy == formula and confrel_copy == confrel
        assert (folbv_fingerprint(formula_copy), confrel_fingerprint(confrel_copy)) == digests

    def test_forged_digest_in_a_pickle_is_ignored(self, monkeypatch):
        forged = "0" * 64
        sender = BVVar("x", 2)
        sender.__dict__[folbv.DIGEST_KEYS[0]] = forged
        # A sender whose pickles keep every instance attribute (another
        # version of the code, or a hand-made blob).
        monkeypatch.setattr(BVVar, "__getstate__", lambda self: dict(self.__dict__))
        payload = pickle.dumps(sender)
        monkeypatch.undo()
        node = pickle.loads(payload)
        assert type(node) is BVVar and node == BVVar("x", 2)
        assert folbv_fingerprint(node) == folbv_fingerprint(BVVar("x", 2)) != forged


class TestInterning:
    def test_interning_shares_structure(self):
        first = intern_formula(_sat_formula())
        second = intern_formula(_sat_formula())
        assert first is second
        term = intern_term(BVExtract(BVVar("x", 8), 0, 3))
        assert intern_term(BVExtract(BVVar("x", 8), 0, 3)) is term
        # A term and a formula never share an entry.
        assert intern_term(first.left) is not first

    def test_interned_formula_evaluates_identically(self):
        formula = b_and([
            BEq(BVConcatT(BVVar("a", 2), BVVar("b", 2)), BVConst(Bits("1100"))),
        ])
        interned = intern_formula(formula)
        assignment = {"a": Bits("11"), "b": Bits("00")}
        assert folbv.eval_formula(formula, assignment)
        assert folbv.eval_formula(interned, assignment)
        assert folbv_fingerprint(formula) == folbv_fingerprint(interned)


class TestCachingBackend:
    def test_hit_miss_accounting(self):
        backend = CachingBackend(InternalBackend())
        formula = _sat_formula()
        first = backend.check_sat(formula)
        assert first.status is SatStatus.SAT
        assert backend.cache_statistics.misses == 1
        assert backend.cache_statistics.hits == 0
        second = backend.check_sat(formula)
        assert second.status is SatStatus.SAT
        assert backend.cache_statistics.hits == 1
        assert backend.cache_statistics.memory_hits == 1
        assert backend.cache_statistics.hit_rate == pytest.approx(0.5)
        # The real solver ran exactly once.
        assert backend.statistics.queries == 1

    def test_cached_sat_model_still_satisfies(self):
        backend = CachingBackend(InternalBackend())
        formula = _sat_formula()
        backend.check_sat(formula)
        cached = backend.check_sat(formula)
        model = dict(cached.model)
        model.setdefault("x", Bits.zeros(8))
        assert folbv.eval_formula(formula, model)

    def test_unsat_results_are_cached(self):
        backend = CachingBackend(InternalBackend())
        formula = _unsat_formula()
        assert backend.check_sat(formula).status is SatStatus.UNSAT
        assert backend.check_sat(formula).status is SatStatus.UNSAT
        assert backend.cache_statistics.hits == 1
        assert backend.statistics.queries == 1

    def test_persistent_round_trip(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        writer = CachingBackend(InternalBackend(), cache_dir=cache_dir)
        sat, unsat = _sat_formula(), _unsat_formula()
        assert writer.check_sat(sat).status is SatStatus.SAT
        assert writer.check_sat(unsat).status is SatStatus.UNSAT
        assert writer.cache_statistics.stores == 2
        writer.close()

        # A fresh backend over the same directory answers from disk without
        # touching its solver.
        reader = CachingBackend(InternalBackend(), cache_dir=cache_dir)
        sat_again = reader.check_sat(sat)
        unsat_again = reader.check_sat(unsat)
        assert sat_again.status is SatStatus.SAT
        assert unsat_again.status is SatStatus.UNSAT
        assert reader.cache_statistics.disk_hits == 2
        assert reader.statistics.queries == 0
        model = dict(sat_again.model)
        model.setdefault("x", Bits.zeros(8))
        assert folbv.eval_formula(sat, model)
        reader.close()

    def test_persistent_store_survives_independent_handles(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        store = PersistentQueryCache(cache_dir)
        result = InternalBackend().check_sat(_sat_formula())
        store.put("deadbeef", result)
        assert len(store) == 1
        store.close()
        reopened = PersistentQueryCache(cache_dir)
        entry = reopened.get("deadbeef")
        assert entry is not None and entry.status is SatStatus.SAT
        assert entry.model == result.model
        assert reopened.get("cafebabe") is None
        reopened.close()
        # A closed handle reconnects transparently on the next use.
        assert reopened.get("deadbeef").status is SatStatus.SAT
        reopened.close()

    def test_make_backend_stacking(self, tmp_path):
        uncached = make_backend(CheckerConfig(use_query_cache=False))
        assert isinstance(uncached, InternalBackend)
        cached = make_backend(CheckerConfig(use_query_cache=True))
        assert isinstance(cached, CachingBackend)
        assert cached.persistent_path is None
        persistent = make_backend(
            CheckerConfig(use_query_cache=True, cache_dir=str(tmp_path))
        )
        assert persistent.persistent_path is not None

    def test_concurrent_writers_share_one_persistent_backend(self, tmp_path):
        # Regression test for the daemon's worker pool: several threads
        # share one CachingBackend over one sqlite cache.  Before the store
        # gained its lock, busy timeout and check_same_thread=False, this
        # raised ProgrammingError ("objects created in a thread...") or
        # OperationalError ("database is locked") under contention.
        import threading

        cache_dir = str(tmp_path / "cache")
        backend = CachingBackend(InternalBackend(), cache_dir=cache_dir)
        formulas = [
            BEq(BVVar(f"v{index}", 5), BVConst(Bits(format(index, "05b"))))
            for index in range(16)
        ]
        errors = []

        def work(formula):
            try:
                assert backend.check_sat(formula).status is SatStatus.SAT
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(f,)) for f in formulas]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert backend.cache_statistics.stores == 16
        backend.close()

        # Every concurrently written entry is readable from a fresh handle
        # without touching the solver.
        reader = CachingBackend(InternalBackend(), cache_dir=cache_dir)
        for formula in formulas:
            assert reader.check_sat(formula).status is SatStatus.SAT
        assert reader.statistics.queries == 0
        assert reader.cache_statistics.disk_hits == 16
        reader.close()

    def test_concurrent_handles_on_one_cache_directory(self, tmp_path):
        # Two independent handles (e.g. daemon workers in separate stacks,
        # or daemon plus CLI fallback) interleave writes to the same file.
        import threading

        cache_dir = str(tmp_path / "cache")
        handles = [PersistentQueryCache(cache_dir) for _ in range(2)]
        for handle in handles:
            assert handle.busy_timeout_ms() == 30_000
        result = InternalBackend().check_sat(_sat_formula())
        errors = []

        def work(handle, base):
            try:
                for index in range(8):
                    handle.put(f"fp-{base}-{index}", result)
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(handle, base))
            for base, handle in enumerate(handles)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(handles[0]) == 16
        assert handles[1].get("fp-0-0") is not None
        for handle in handles:
            handle.close()

    def test_make_backend_opt_out_beats_cache_dir(self, tmp_path):
        # An explicit use_query_cache=False wins even when a directory is supplied.
        backend = make_backend(
            CheckerConfig(use_query_cache=False, cache_dir=str(tmp_path / "c"))
        )
        assert isinstance(backend, InternalBackend)
        import os

        assert not os.path.exists(str(tmp_path / "c"))

"""Tests for bit-blasting, the QF_BV decision procedure, CEGIS and backends."""

import pytest
from hypothesis import given, settings, strategies as st

import dataclasses

from repro import envconfig
from repro.config import resolve_config
from repro.logic import folbv
from repro.logic.folbv import BEq, BVConcatT, BVConst, BVExtract, BVVar, b_and, b_not, b_or
from repro.p4a.bitvec import Bits
from repro.smt.backend import (
    ExternalBackend,
    InternalBackend,
    PortfolioBackend,
    available_external_solvers,
    BackendError,
)
from repro.smt.bitblast import BitblastError, Bitblaster, bitblast
from repro.smt.bvsolver import InternalBVSolver, SatStatus
from repro.smt.cache import make_backend
from repro.smt.cegis import solve_exists_forall, substitute

A = BVVar("a", 4)
B = BVVar("b", 4)
C2 = BVVar("c", 2)


class TestBitblast:
    def test_variable_bit_allocation(self):
        result = bitblast(BEq(A, BVConst(Bits("1010"))))
        assert len(result.variable_bits["a"]) == 4

    def test_width_conflict_detected(self):
        blaster = Bitblaster()
        blaster.variable_bits("a", 4)
        with pytest.raises(BitblastError):
            blaster.variable_bits("a", 2)

    def test_model_decoding(self):
        solver = InternalBVSolver()
        result = solver.check_sat(BEq(A, BVConst(Bits("1010"))))
        assert result.is_sat
        assert result.model["a"] == Bits("1010")

    def test_extract_and_concat(self):
        solver = InternalBVSolver()
        formula = b_and(
            [
                BEq(BVExtract(A, 0, 1), BVConst(Bits("11"))),
                BEq(BVConcatT(BVExtract(A, 2, 3), C2), BVConst(Bits("0110"))),
            ]
        )
        result = solver.check_sat(formula)
        assert result.is_sat
        assert result.model["a"] == Bits("1101")
        assert result.model["c"] == Bits("10")

    def test_unsat_detection(self):
        solver = InternalBVSolver()
        formula = b_and([BEq(A, BVConst(Bits("0000"))), BEq(A, BVConst(Bits("1111")))])
        assert solver.check_sat(formula).is_unsat

    def test_validity_check(self):
        solver = InternalBVSolver()
        assert solver.check_valid(b_or([BEq(A, B), b_not(BEq(A, B))])).is_unsat
        assert solver.check_valid(BEq(A, B)).is_sat

    def test_dpll_engine(self):
        solver = InternalBVSolver(engine="dpll")
        assert solver.check_sat(BEq(A, BVConst(Bits("0001")))).is_sat

    def test_bad_engine_rejected(self):
        with pytest.raises(ValueError):
            InternalBVSolver(engine="cryptominisat")

    def test_statistics_accumulate(self):
        solver = InternalBVSolver()
        solver.check_sat(BEq(A, BVConst(Bits("0001"))))
        solver.check_sat(b_and([BEq(A, BVConst(Bits("0000"))), BEq(A, BVConst(Bits("1111")))]))
        stats = solver.statistics
        assert stats.queries == 2
        assert stats.sat_queries == 1 and stats.unsat_queries == 1
        assert stats.percentile_time(0.99) >= 0.0


_values4 = st.integers(0, 15)


@settings(max_examples=60, deadline=None)
@given(_values4, _values4, st.integers(0, 3), st.integers(0, 3))
def test_bitblast_agrees_with_evaluation(a_value, b_value, lo, hi):
    """The SAT result of a fully-constrained formula matches direct evaluation."""
    if lo > hi:
        lo, hi = hi, lo
    formula = b_and(
        [
            BEq(A, BVConst(Bits.from_int(a_value, 4))),
            BEq(B, BVConst(Bits.from_int(b_value, 4))),
            BEq(BVExtract(A, lo, hi), BVExtract(B, lo, hi)),
        ]
    )
    expected = folbv.eval_formula(
        formula, {"a": Bits.from_int(a_value, 4), "b": Bits.from_int(b_value, 4)}
    )
    result = InternalBVSolver().check_sat(formula)
    assert result.is_sat == expected


class TestCegis:
    def test_substitution(self):
        formula = BEq(A, B)
        grounded = substitute(formula, {"a": Bits("1010")})
        assert folbv.free_variables(grounded) == {"b": 4}

    def test_no_universals_reduces_to_sat(self):
        result = solve_exists_forall(BEq(A, BVConst(Bits("1010"))), {})
        assert result.holds is True

    def test_exists_forall_true(self):
        # ∃a ∀c. (a[0:1] = a[2:3]) — c unused, a = 0000 works.
        matrix = BEq(BVExtract(A, 0, 1), BVExtract(A, 2, 3))
        result = solve_exists_forall(matrix, {"c": 2})
        assert result.holds is True

    def test_exists_forall_false(self):
        # ∃a ∀b. a = b is false for 4-bit vectors.
        result = solve_exists_forall(BEq(A, B), {"b": 4})
        assert result.holds is False

    def test_exists_forall_with_structure(self):
        # ∃a ∀c. (c = 11 ⇒ a[0:1] = 11): pick a starting with 11.
        matrix = folbv.b_implies(
            BEq(C2, BVConst(Bits("11"))), BEq(BVExtract(A, 0, 1), BVConst(Bits("11")))
        )
        result = solve_exists_forall(matrix, {"c": 2})
        assert result.holds is True
        assert result.witness["a"].slice(0, 1) == Bits("11")


def default_backend():
    """The bare solver lane the ``LEAPFROG_*`` environment selects."""
    return make_backend(dataclasses.replace(resolve_config(), use_query_cache=False))


class TestBackends:
    def test_internal_backend_statistics(self):
        backend = InternalBackend()
        backend.check_sat(BEq(A, BVConst(Bits("0001"))))
        assert backend.statistics.queries == 1

    def test_default_backend_is_internal(self, monkeypatch):
        monkeypatch.delenv("LEAPFROG_SOLVER", raising=False)
        assert isinstance(default_backend(), InternalBackend)

    def test_default_backend_refuses_missing_solver(self, monkeypatch):
        # A requested-but-absent solver is an error, not a silent fallback to
        # the internal solver: the user asked for z3 and must be told no.
        monkeypatch.setenv("LEAPFROG_SOLVER", "z3")
        if "z3" in available_external_solvers():
            assert isinstance(default_backend(), ExternalBackend)
        else:
            with pytest.raises(BackendError):
                default_backend()

    def test_default_backend_rejects_unknown_solver_name(self, monkeypatch):
        # The classic typo ("z33") dies in env validation, exit-code-2 style,
        # instead of silently running the internal solver.
        monkeypatch.setenv("LEAPFROG_SOLVER", "z33")
        with pytest.raises(envconfig.EnvConfigError):
            default_backend()

    def test_default_backend_honours_portfolio_env(self, monkeypatch):
        monkeypatch.delenv("LEAPFROG_SOLVER", raising=False)
        monkeypatch.setenv("LEAPFROG_PORTFOLIO", "1")
        backend = default_backend()
        assert isinstance(backend, PortfolioBackend)

    def test_unknown_external_solver_rejected(self):
        with pytest.raises(BackendError):
            ExternalBackend("not-a-solver")

    def test_external_backends_only_listed_when_present(self):
        for name in available_external_solvers():
            backend = ExternalBackend(name)
            result = backend.check_sat(BEq(A, BVConst(Bits("0101"))))
            assert result.status in (SatStatus.SAT, SatStatus.UNKNOWN)

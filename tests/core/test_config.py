"""Tests for the checker knob table and the configuration derived from it."""

import dataclasses

import pytest

from repro.config import WIRE_FIELDS, CheckerConfig, config_from_wire, resolve_config
from repro.core import equivalence
from repro.core.equivalence import check_language_equivalence
from repro.envconfig import EnvConfigError
from repro.protocols import tiny
from repro.service.client import check_options_from_config
from repro.service.fingerprints import config_fingerprint
from repro.smt.cache import make_backend


class TestKnobTable:
    def test_every_field_is_classified(self):
        # A new CheckerConfig field without a knob (semantic or perf) would
        # silently stay out of fingerprints, flags and docs; fail instead.
        for item in dataclasses.fields(CheckerConfig):
            knob = item.metadata.get("knob")
            assert knob is not None, f"{item.name} has no knob"
            assert isinstance(knob.semantic, bool), item.name
            assert knob.semantic or not knob.wire, f"perf knob {item.name} on the wire"
            if knob.env or (knob.flag and knob.const is None):
                assert knob.parse is not None, f"{item.name} has no validator"


class TestFingerprintPins:
    """Stored verdicts and campaign checkpoints must keep resolving."""

    def test_digests_keep_their_values(self):
        assert config_fingerprint(CheckerConfig())[:16] == "9405374a7b62a0e0"
        assert config_fingerprint(CheckerConfig(), False)[:16] == "1f4443ac62050ad3"
        tuned = CheckerConfig(use_leaps=False, oracle_packets=10, oracle_seed=7)
        assert config_fingerprint(tuned)[:16] == "e3eabfd98e97f46f"

    def test_perf_knobs_stay_out_of_the_digest(self):
        perf = CheckerConfig(
            use_incremental=False, use_aig=False, clause_db_max=0, cache_dir="/x"
        )
        assert config_fingerprint(perf) == config_fingerprint(CheckerConfig())

    @pytest.mark.parametrize("config, find, expected", [
        (None, True, {}),
        (CheckerConfig(), True, {}),
        (CheckerConfig(), False, {"find_counterexamples": False}),
        (CheckerConfig(use_leaps=False, use_reachability=False,
                       minimize_counterexamples=False, oracle_packets=5,
                       oracle_seed=0), True,
         {"use_leaps": False, "use_reachability": False,
          "minimize_counterexamples": False, "oracle_packets": 5,
          "oracle_seed": 0}),
        (CheckerConfig(oracle_seed=3, entailment_mode="fast", use_aig=False,
                       clause_db_max=0, cache_dir="/x", solver="dpll"), False,
         {"oracle_seed": 3, "find_counterexamples": False}),
    ])
    def test_wire_options_unchanged(self, config, find, expected):
        assert check_options_from_config(config, find) == expected

    def test_wire_round_trip(self):
        config = CheckerConfig(use_leaps=False, oracle_packets=5, oracle_seed=0)
        options = check_options_from_config(config)
        assert set(options) <= set(WIRE_FIELDS)
        assert config_from_wire(options) == config


class TestResolveConfig:
    def test_defaults_without_flags_or_environment(self):
        assert resolve_config(environ={}) == CheckerConfig()

    def test_environment_fills_every_knob_variable(self):
        config = resolve_config(environ={
            "LEAPFROG_CACHE_DIR": "/tmp/c", "LEAPFROG_INCREMENTAL": "0",
            "LEAPFROG_AIG": "off", "LEAPFROG_ORACLE": "on",
            "LEAPFROG_SEED": "7", "LEAPFROG_SOLVER": "dpll",
            "LEAPFROG_CLAUSE_DB": "512",
        })
        assert config == CheckerConfig(
            cache_dir="/tmp/c", use_incremental=False, use_aig=False,
            oracle_packets=64, oracle_seed=7, solver="dpll", clause_db_max=512,
        )

    def test_flag_beats_environment_beats_base(self):
        import argparse

        args = argparse.Namespace(oracle_packets=3, oracle_seed=None)
        environ = {"LEAPFROG_ORACLE": "9", "LEAPFROG_SEED": "5"}
        base = CheckerConfig(oracle_packets=64, oracle_seed=1, use_aig=False)
        config = resolve_config(args, environ, base)
        assert (config.oracle_packets, config.oracle_seed) == (3, 5)
        assert config.use_aig is False

    def test_malformed_variable_names_itself(self):
        with pytest.raises(EnvConfigError, match="LEAPFROG_CLAUSE_DB"):
            resolve_config(environ={"LEAPFROG_CLAUSE_DB": "abc"})


class TestBackendsFromConfig:
    def test_counterexample_search_carries_solver_knobs(self, monkeypatch):
        searches = []

        class Recording(equivalence.CounterexampleSearch):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                searches.append(self)

        monkeypatch.setattr(equivalence, "CounterexampleSearch", Recording)
        pair = (tiny.incremental_bits(), "Start", tiny.big_bits_wrong_length(), "Parse")
        tuned = check_language_equivalence(
            *pair, config=CheckerConfig(clause_db_max=123, use_aig=False)
        )
        [search] = searches
        solver = search.backend.internal_solver
        assert solver.clause_db_max == 123
        assert solver.use_aig is False
        plain = check_language_equivalence(*pair)
        assert tuned.verdict is plain.verdict is False
        assert str(tuned.counterexample) == str(plain.counterexample)

    def test_dpll_lane_keeps_lowering_knobs(self):
        backend = make_backend(CheckerConfig(
            solver="dpll", use_aig=False, clause_db_max=7, use_query_cache=False
        ))
        assert not backend.capabilities.incremental  # the DPLL engine
        assert backend.internal_solver.use_aig is False
        assert backend.internal_solver.clause_db_max == 7

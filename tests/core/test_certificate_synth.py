"""Certificate replay over synthesized pairs.

The checker's value proposition is the re-checkable :class:`Certificate`.
The synthesizer makes that claim testable at scale in both directions:

* every synthesized *equivalent* pair must yield a certificate that
  :func:`verify_certificate` re-validates from scratch, and
* taking that certificate and replaying it against a *mutated* right-hand
  side must fail — were it to pass, the re-checker would be proving a pair
  that ships its own concrete refutation.
"""

import itertools
import random

import pytest

from repro.core.certificate import verify_certificate
from repro.core.equivalence import check_language_equivalence
from repro.p4a.semantics import accepts
from repro.synth import EQUIVALENT, apply_breaking_mutation, synthesize_pair

SEEDS = (20220613, 7, 99, 424242)

#: Mutations that keep state names and header widths, so the stale
#: certificate's templates and formulas stay well-formed against the mutant
#: and the re-checker reports failures instead of crashing.
_SHAPE_PRESERVING = ("swap-final-target", "flip-guard", "drop-case")


def _proved_pair(seed):
    pair = synthesize_pair(seed, verdict=EQUIVALENT)
    result = check_language_equivalence(*pair.automata())
    assert result.proved, f"seed {seed}: equivalent pair not proved"
    return pair, result.certificate


def _mutate_right(pair, seed):
    broken = apply_breaking_mutation(
        pair.left, pair.left_start, pair.right, pair.right_start,
        random.Random(seed), mutations=_SHAPE_PRESERVING,
    )
    assert broken is not None, f"seed {seed}: no confirmable mutation"
    return broken


@pytest.mark.parametrize("seed", SEEDS)
def test_equivalent_pair_certificate_replays(seed):
    pair, certificate = _proved_pair(seed)
    check = verify_certificate(certificate, pair.left, pair.right)
    assert check.ok, check.failures
    assert check.checked_obligations > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_pair_fails_certificate_replay(seed):
    pair, certificate = _proved_pair(seed)
    mutant, mutation, witness = _mutate_right(pair, seed + 1)
    # The mutation is real: the witness packet separates the two sides.
    assert accepts(pair.left, pair.left_start, witness) != accepts(
        mutant, pair.right_start, witness
    )
    check = verify_certificate(certificate, pair.left, mutant)
    assert not check.ok, (
        f"seed {seed}: certificate survived mutation {mutation!r} "
        f"despite witness {witness}"
    )
    assert check.failures


@pytest.mark.parametrize("seed", SEEDS)
def test_broken_pair_produces_no_certificate(seed):
    pair = synthesize_pair(seed, verdict="not_equivalent")
    result = check_language_equivalence(*pair.automata())
    assert result.refuted, f"seed {seed}: broken pair not refuted"
    assert result.certificate is None
    assert result.counterexample is not None


def test_obligation_budget_marks_failure():
    pair, certificate = _proved_pair(SEEDS[0])
    check = verify_certificate(certificate, pair.left, pair.right, max_obligations=0)
    assert not check.ok
    assert any("budget" in failure for failure in check.failures)


def test_recheck_leap_names_fresh_relative_to_certificate(monkeypatch):
    """A certificate made in another process can use any counter-drawn leap
    name.  Re-checking it from every counter state that makes the checker
    draw one of those names must neither raise nor fail: campaign pair
    ``pair20220637`` (leap variables at width 6) once raised
    ``FolBVError: variable ... used at widths 3 and 6`` here."""
    from repro.core import wp
    from repro.logic.confrel import formula_variables
    from repro.synth.pairs import campaign_config_for_size

    pair = synthesize_pair(
        20220613 + 24, config=campaign_config_for_size("mini"), verdict=EQUIVALENT
    )
    monkeypatch.setattr(wp, "_fresh_counter", itertools.count(97))
    result = check_language_equivalence(*pair.automata())
    assert result.proved
    leaps = [
        int(name[len("leap_"):])
        for entry in result.certificate.relation
        for name in formula_variables(entry.pure)
        if name.startswith("leap_")
    ]
    assert leaps
    for start in range(min(leaps) - 8, max(leaps) + 1):
        monkeypatch.setattr(wp, "_fresh_counter", itertools.count(start))
        check = verify_certificate(result.certificate, pair.left, pair.right)
        assert check.ok, (start, check.failures)

"""Property-based tests: structural fingerprints are Merkle digests.

Each FOL(BV) and ConfRel node computes its digest once, from its own fields
and its children's digests, and caches it on itself.  These tests check the
claims the rest of the code base keys on: digests are a function of
structure alone (equal trees built independently agree, and digests are
equal exactly when the trees are ``==``), the two layers never share a
digest, a cached child is never rehashed, and the AIG lowering's
digest-keyed cache serves a rebuilt formula without lowering it again.
"""

import dataclasses
import hashlib
from unittest import mock

from hypothesis import given, settings

from repro.logic import confrel, fingerprint, folbv
from repro.logic.fingerprint import confrel_fingerprint, folbv_fingerprint
from repro.smt.aig import Aig, FolbvToAig
from tests.logic.test_simplify_properties import formulas as confrel_formulas
from tests.smt.test_aig import bv_formulas


def _rebuild(node):
    """A structurally equal copy of ``node`` sharing no node object with it."""
    if isinstance(node, tuple):
        return tuple(_rebuild(item) for item in node)
    if not isinstance(node, folbv.LogicNode):
        return node
    fields = {f.name: _rebuild(getattr(node, f.name)) for f in dataclasses.fields(node)}
    return type(node)(**fields)


def _nodes(node):
    """Every node of the tree under ``node``, root first."""
    yield node
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, folbv.LogicNode):
                yield from _nodes(child)


_MIRROR = {
    confrel.CVar: lambda e: folbv.BVVar(e.name, e.var_width),
    confrel.CLit: lambda e: folbv.BVConst(e.value),
    confrel.CSlice: lambda e: folbv.BVExtract(_mirror(e.expr), e.lo, e.hi),
    confrel.CConcat: lambda e: folbv.BVConcatT(_mirror(e.left), _mirror(e.right)),
    confrel.FTrue: lambda f: folbv.BTrue(),
    confrel.FFalse: lambda f: folbv.BFalse(),
    confrel.FEq: lambda f: folbv.BEq(_mirror(f.left), _mirror(f.right)),
    confrel.FNot: lambda f: folbv.BNot(_mirror(f.operand)),
    confrel.FAnd: lambda f: folbv.BAnd(tuple(map(_mirror, f.operands))),
    confrel.FOr: lambda f: folbv.BOr(tuple(map(_mirror, f.operands))),
    confrel.FImpl: lambda f: folbv.BImplies(_mirror(f.premise), _mirror(f.conclusion)),
}


def _mirror(node):
    """The FOL(BV) look-alike of a ConfRel formula over variables and literals."""
    return _MIRROR[type(node)](node)


@settings(max_examples=100, deadline=None)
@given(bv_formulas(), confrel_formulas())
def test_independently_built_equal_trees_agree(bv, cr):
    assert folbv_fingerprint(_rebuild(bv)) == folbv_fingerprint(bv)
    assert confrel_fingerprint(_rebuild(cr)) == confrel_fingerprint(cr)


@settings(max_examples=100, deadline=None)
@given(bv_formulas(depth=2), bv_formulas(depth=2))
def test_folbv_digests_equal_iff_trees_equal(first, second):
    nodes = list(_nodes(first)) + list(_nodes(second))
    for a in nodes:
        for b in nodes:
            assert (folbv_fingerprint(a) == folbv_fingerprint(b)) == (a == b)


@settings(max_examples=100, deadline=None)
@given(confrel_formulas(depth=2), confrel_formulas(depth=2))
def test_confrel_digests_equal_iff_trees_equal(first, second):
    nodes = list(_nodes(first)) + list(_nodes(second))
    for a in nodes:
        for b in nodes:
            assert (confrel_fingerprint(a) == confrel_fingerprint(b)) == (a == b)


@settings(max_examples=100, deadline=None)
@given(confrel_formulas())
def test_layers_never_share_a_digest(formula):
    confrel_digests = {confrel_fingerprint(node) for node in _nodes(formula)}
    folbv_digests = {folbv_fingerprint(node) for node in _nodes(_mirror(formula))}
    assert not confrel_digests & folbv_digests


@settings(max_examples=100, deadline=None)
@given(bv_formulas(), confrel_formulas())
def test_a_fingerprinted_child_is_not_rehashed(bv, cr):
    with mock.patch.object(fingerprint.hashlib, "sha256", wraps=hashlib.sha256) as sha:
        folbv_fingerprint(bv)
        confrel_fingerprint(cr)
        # A fresh tree costs one hash per node object (B_TRUE and friends
        # may already carry theirs) ...
        assert sha.call_count <= len(list(_nodes(bv))) + len(list(_nodes(cr)))
        sha.reset_mock()
        folbv_fingerprint(bv)
        confrel_fingerprint(cr)
        assert sha.call_count == 0
        # ... and a parent over fingerprinted children costs exactly one.
        folbv_fingerprint(folbv.BAnd((bv, folbv.BNot(bv))))
        assert sha.call_count == 2
        sha.reset_mock()
        confrel_fingerprint(confrel.FImpl(cr, cr))
        assert sha.call_count == 1


@settings(max_examples=60, deadline=None)
@given(bv_formulas())
def test_aig_lowering_serves_a_rebuilt_formula_from_its_cache(formula):
    lowerer = FolbvToAig(Aig())
    ref = lowerer.lower_formula(formula)
    copy = _rebuild(formula)
    with mock.patch.object(lowerer, "lower_term") as lower_term, \
            mock.patch.object(lowerer.aig, "and_") as and_:
        assert lowerer.lower_formula(copy) == ref
    lower_term.assert_not_called()
    and_.assert_not_called()

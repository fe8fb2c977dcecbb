"""Structural fingerprints (Merkle digests) and interning for logic objects.

The entailment queries issued by the pre-bisimulation inner loop are highly
repetitive: the same goal is re-checked as the relation grows, the done step
re-proves conjuncts already discharged during the search, and different case
studies share sub-parsers and therefore whole sub-queries.  Recognising a
repeated query syntactically is enough to skip the bit-blasting and SAT work
entirely, because the lowering pipeline is deterministic and the entailment
checker canonicalizes variable names before compiling.

A **fingerprint** is a stable, collision-resistant digest of the structure of
a FOL(BV) formula/term or a pure ConfRel formula/expression: a plain hex
string, safe to use as a dictionary key, file name or sqlite primary key, and
stable across processes and Python versions (unlike ``hash()``, which is
salted per process for strings).

Fingerprints form a Merkle tree (Merkle, CRYPTO '87): a node's digest is the
SHA-256 of its layer tag, :data:`FINGERPRINT_VERSION`, its constructor tag,
its scalar fields and its children's digests.  Each node computes its digest
once, on first request, and caches it on itself (as hash-consing does,
Filliâtre & Conchon 2006); later requests cost one dictionary lookup, and a
fresh parent over fingerprinted children costs one hash over their 64-digit
digests.  The cache lives in the node's instance dictionary, outside the
dataclass fields, so it takes no part in ``==``, ``hash`` or ``repr``, and
:class:`~repro.logic.folbv.LogicNode` keeps it out of pickles.

Nodes are not interned at construction: :func:`intern_formula` and
:func:`intern_term` map structurally equal objects to one canonical object on
request, through a digest-keyed weak table.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import Union

from . import confrel, folbv

#: Bumped whenever the digest format changes, so persistent caches keyed by
#: old fingerprints are invalidated rather than misread.
FINGERPRINT_VERSION = "2"

FingerprintableBV = Union[folbv.BFormula, folbv.Term]
FingerprintableConfRel = Union[confrel.Formula, confrel.BVExpr]

_BV_KEY, _CR_KEY = folbv.DIGEST_KEYS
_BV_TAG = "bv" + FINGERPRINT_VERSION
_CR_TAG = "cr" + FINGERPRINT_VERSION


class FingerprintError(Exception):
    """Raised when an object cannot be fingerprinted."""


def _merkle(tag: str, body: str) -> str:
    return hashlib.sha256(f"{tag} {body}".encode("utf-8")).hexdigest()


def folbv_fingerprint(obj: FingerprintableBV) -> str:
    """Stable structural digest of a FOL(BV) formula or term."""
    try:
        return obj.__dict__[_BV_KEY]
    except (AttributeError, KeyError):
        pass
    if isinstance(obj, folbv.BVVar):
        body = f"v {obj.name} {obj.var_width}"
    elif isinstance(obj, folbv.BVConst):
        body = f"c {obj.value.to_bitstring()}"
    elif isinstance(obj, folbv.BVExtract):
        body = f"x {obj.lo} {obj.hi} {folbv_fingerprint(obj.term)}"
    elif isinstance(obj, folbv.BVConcatT):
        body = f"++ {folbv_fingerprint(obj.left)} {folbv_fingerprint(obj.right)}"
    elif isinstance(obj, folbv.BTrue):
        body = "t"
    elif isinstance(obj, folbv.BFalse):
        body = "f"
    elif isinstance(obj, folbv.BEq):
        body = f"= {folbv_fingerprint(obj.left)} {folbv_fingerprint(obj.right)}"
    elif isinstance(obj, folbv.BNot):
        body = f"! {folbv_fingerprint(obj.operand)}"
    elif isinstance(obj, folbv.BAnd):
        body = "& " + " ".join([folbv_fingerprint(op) for op in obj.operands])
    elif isinstance(obj, folbv.BOr):
        body = "| " + " ".join([folbv_fingerprint(op) for op in obj.operands])
    elif isinstance(obj, folbv.BImplies):
        body = f"> {folbv_fingerprint(obj.premise)} {folbv_fingerprint(obj.conclusion)}"
    else:
        raise FingerprintError(f"cannot fingerprint FOL(BV) object {obj!r}")
    digest = obj.__dict__[_BV_KEY] = _merkle(_BV_TAG, body)
    return digest


def confrel_fingerprint(obj: FingerprintableConfRel) -> str:
    """Stable structural digest of a pure ConfRel formula or expression."""
    try:
        return obj.__dict__[_CR_KEY]
    except (AttributeError, KeyError):
        pass
    if isinstance(obj, confrel.CLit):
        body = f"c {obj.value.to_bitstring()}"
    elif isinstance(obj, confrel.CBuf):
        body = f"b {obj.side} {obj.buf_width}"
    elif isinstance(obj, confrel.CHdr):
        body = f"h {obj.side} {obj.name} {obj.hdr_width}"
    elif isinstance(obj, confrel.CVar):
        body = f"v {obj.name} {obj.var_width}"
    elif isinstance(obj, confrel.CSlice):
        body = f"x {obj.lo} {obj.hi} {confrel_fingerprint(obj.expr)}"
    elif isinstance(obj, confrel.CConcat):
        body = f"++ {confrel_fingerprint(obj.left)} {confrel_fingerprint(obj.right)}"
    elif isinstance(obj, confrel.FTrue):
        body = "t"
    elif isinstance(obj, confrel.FFalse):
        body = "f"
    elif isinstance(obj, confrel.FEq):
        body = f"= {confrel_fingerprint(obj.left)} {confrel_fingerprint(obj.right)}"
    elif isinstance(obj, confrel.FNot):
        body = f"! {confrel_fingerprint(obj.operand)}"
    elif isinstance(obj, confrel.FAnd):
        body = "& " + " ".join([confrel_fingerprint(op) for op in obj.operands])
    elif isinstance(obj, confrel.FOr):
        body = "| " + " ".join([confrel_fingerprint(op) for op in obj.operands])
    elif isinstance(obj, confrel.FImpl):
        body = f"> {confrel_fingerprint(obj.premise)} {confrel_fingerprint(obj.conclusion)}"
    else:
        raise FingerprintError(f"cannot fingerprint ConfRel object {obj!r}")
    digest = obj.__dict__[_CR_KEY] = _merkle(_CR_TAG, body)
    return digest


def fingerprint(obj: Union[FingerprintableBV, FingerprintableConfRel]) -> str:
    """Fingerprint any supported logic object (dispatching on its layer)."""
    if isinstance(obj, (folbv.BFormula, folbv.Term)):
        return folbv_fingerprint(obj)
    if isinstance(obj, (confrel.Formula, confrel.BVExpr)):
        return confrel_fingerprint(obj)
    raise FingerprintError(f"cannot fingerprint {obj!r}")


#: Canonical FOL(BV) objects by digest; an entry lives as long as its object.
_INTERNED: "weakref.WeakValueDictionary[str, object]" = weakref.WeakValueDictionary()


def intern_formula(formula: folbv.BFormula) -> folbv.BFormula:
    """The canonical object structurally equal to ``formula`` (the first one
    interned that is still alive)."""
    return _INTERNED.setdefault(folbv_fingerprint(formula), formula)


def intern_term(term: folbv.Term) -> folbv.Term:
    """The canonical object structurally equal to ``term``."""
    return _INTERNED.setdefault(folbv_fingerprint(term), term)

"""FOL(BV): the low-level first-order logic of bitvectors.

This is the last stage of the paper's compilation chain (Figure 6): a pure
bitvector logic with variables, constants, extraction, concatenation and
equality under boolean structure.  It is what gets bit-blasted by the internal
solver or pretty-printed to SMT-LIB for an external solver.

Bit index 0 is the first (most significant) bit, consistent with the rest of
the code base; the SMT-LIB printer performs the index flip required by the
SMT-LIB convention (bit 0 = least significant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Tuple

from ..p4a.bitvec import Bits


class FolBVError(Exception):
    """Raised on ill-formed FOL(BV) terms or formulas."""


#: Instance-dictionary keys under which :mod:`repro.logic.fingerprint` caches
#: a node's Merkle digest: one per layer (FOL(BV), ConfRel).
DIGEST_KEYS = ("_bv_digest", "_cr_digest")


class LogicNode:
    """Base of every FOL(BV) and ConfRel node class.

    A node's cached digest is derived data: the dataclass fields alone define
    ``==``, ``hash`` and ``repr``, and these pickle hooks drop the digest in
    both directions, so a copy received from another process (or version)
    always recomputes it rather than trusting the sender's.
    """

    __slots__ = ()

    def __getstate__(self) -> Dict[str, object]:
        return {k: v for k, v in self.__dict__.items() if k not in DIGEST_KEYS}

    def __setstate__(self, state: Mapping[str, object]) -> None:
        self.__dict__.update((k, v) for k, v in state.items() if k not in DIGEST_KEYS)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Term(LogicNode):
    __slots__ = ()

    @property
    def width(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class BVVar(Term):
    name: str
    var_width: int

    @property
    def width(self) -> int:
        return self.var_width

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BVConst(Term):
    value: Bits

    @property
    def width(self) -> int:
        return self.value.width

    def __str__(self) -> str:
        return f"#b{self.value.to_bitstring()}"


@dataclass(frozen=True)
class BVExtract(Term):
    """The inclusive slice ``term[lo:hi]`` (paper indexing, bit 0 first)."""

    term: Term
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not (0 <= self.lo <= self.hi < self.term.width):
            raise FolBVError(
                f"extract [{self.lo}:{self.hi}] out of range for width {self.term.width}"
            )

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    def __str__(self) -> str:
        return f"{self.term}[{self.lo}:{self.hi}]"


@dataclass(frozen=True)
class BVConcatT(Term):
    left: Term
    right: Term

    @property
    def width(self) -> int:
        return self.left.width + self.right.width

    def __str__(self) -> str:
        return f"({self.left} ++ {self.right})"


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


class BFormula(LogicNode):
    __slots__ = ()


@dataclass(frozen=True)
class BTrue(BFormula):
    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class BFalse(BFormula):
    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True)
class BEq(BFormula):
    left: Term
    right: Term

    def __post_init__(self) -> None:
        if self.left.width != self.right.width:
            raise FolBVError(
                f"equality between widths {self.left.width} and {self.right.width}"
            )

    def __str__(self) -> str:
        return f"({self.left} = {self.right})"


@dataclass(frozen=True)
class BNot(BFormula):
    operand: BFormula

    def __str__(self) -> str:
        return f"(not {self.operand})"


@dataclass(frozen=True)
class BAnd(BFormula):
    operands: Tuple[BFormula, ...]

    def __str__(self) -> str:
        return "(and " + " ".join(str(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class BOr(BFormula):
    operands: Tuple[BFormula, ...]

    def __str__(self) -> str:
        return "(or " + " ".join(str(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class BImplies(BFormula):
    premise: BFormula
    conclusion: BFormula

    def __str__(self) -> str:
        return f"(=> {self.premise} {self.conclusion})"


B_TRUE = BTrue()
B_FALSE = BFalse()


def b_and(operands) -> BFormula:
    ops = [op for op in operands if not isinstance(op, BTrue)]
    if any(isinstance(op, BFalse) for op in ops):
        return B_FALSE
    if not ops:
        return B_TRUE
    if len(ops) == 1:
        return ops[0]
    return BAnd(tuple(ops))


def b_or(operands) -> BFormula:
    ops = [op for op in operands if not isinstance(op, BFalse)]
    if any(isinstance(op, BTrue) for op in ops):
        return B_TRUE
    if not ops:
        return B_FALSE
    if len(ops) == 1:
        return ops[0]
    return BOr(tuple(ops))


def b_not(operand: BFormula) -> BFormula:
    if isinstance(operand, BTrue):
        return B_FALSE
    if isinstance(operand, BFalse):
        return B_TRUE
    if isinstance(operand, BNot):
        return operand.operand
    return BNot(operand)


def b_implies(premise: BFormula, conclusion: BFormula) -> BFormula:
    if isinstance(premise, BFalse) or isinstance(conclusion, BTrue):
        return B_TRUE
    if isinstance(premise, BTrue):
        return conclusion
    if isinstance(conclusion, BFalse):
        return b_not(premise)
    return BImplies(premise, conclusion)


# ---------------------------------------------------------------------------
# Traversals and evaluation
# ---------------------------------------------------------------------------


def iter_terms(formula: BFormula) -> Iterator[Term]:
    if isinstance(formula, BEq):
        yield formula.left
        yield formula.right
    elif isinstance(formula, BNot):
        yield from iter_terms(formula.operand)
    elif isinstance(formula, (BAnd, BOr)):
        for operand in formula.operands:
            yield from iter_terms(operand)
    elif isinstance(formula, BImplies):
        yield from iter_terms(formula.premise)
        yield from iter_terms(formula.conclusion)
    elif isinstance(formula, (BTrue, BFalse)):
        return
    else:
        raise FolBVError(f"unknown formula {formula!r}")


def term_variables(term: Term, out: Dict[str, int]) -> None:
    if isinstance(term, BVVar):
        existing = out.get(term.name)
        if existing is not None and existing != term.var_width:
            raise FolBVError(f"variable {term.name!r} used at widths {existing} and {term.var_width}")
        out[term.name] = term.var_width
    elif isinstance(term, BVExtract):
        term_variables(term.term, out)
    elif isinstance(term, BVConcatT):
        term_variables(term.left, out)
        term_variables(term.right, out)
    elif isinstance(term, BVConst):
        return
    else:
        raise FolBVError(f"unknown term {term!r}")


def free_variables(formula: BFormula) -> Dict[str, int]:
    """Free variables of ``formula`` and their widths."""
    out: Dict[str, int] = {}
    for term in iter_terms(formula):
        term_variables(term, out)
    return out


def eval_term(term: Term, assignment: Mapping[str, Bits]) -> Bits:
    if isinstance(term, BVVar):
        value = assignment[term.name]
        if value.width != term.var_width:
            raise FolBVError(
                f"assignment for {term.name!r} has width {value.width}, expected {term.var_width}"
            )
        return value
    if isinstance(term, BVConst):
        return term.value
    if isinstance(term, BVExtract):
        return eval_term(term.term, assignment).slice(term.lo, term.hi)
    if isinstance(term, BVConcatT):
        return eval_term(term.left, assignment).concat(eval_term(term.right, assignment))
    raise FolBVError(f"unknown term {term!r}")


def eval_formula(formula: BFormula, assignment: Mapping[str, Bits]) -> bool:
    """Evaluate a FOL(BV) formula under a total assignment (used by tests and
    to validate models returned by the solvers)."""
    if isinstance(formula, BTrue):
        return True
    if isinstance(formula, BFalse):
        return False
    if isinstance(formula, BEq):
        return eval_term(formula.left, assignment) == eval_term(formula.right, assignment)
    if isinstance(formula, BNot):
        return not eval_formula(formula.operand, assignment)
    if isinstance(formula, BAnd):
        return all(eval_formula(op, assignment) for op in formula.operands)
    if isinstance(formula, BOr):
        return any(eval_formula(op, assignment) for op in formula.operands)
    if isinstance(formula, BImplies):
        return (not eval_formula(formula.premise, assignment)) or eval_formula(
            formula.conclusion, assignment
        )
    raise FolBVError(f"unknown formula {formula!r}")

"""Formulas in de Morgan normal form, sequent proofs, proof checking and
cut-elimination steps.

Conventions: sequents are ordered tuples; every introduction rule places
its principal formula last; a cut node records the positions of the cut
formula in both premises (-1 meaning last).  With those conventions the
permutation bookkeeping of cut elimination stays mechanical: principal
steps fire when both positions are the introduced last formulas, and
every other step is one commuting conversion (`_commute`), which moves
the cut above a premise's last rule or exchange using that rule's one
description of where its conclusion's formulas come from (`_sources`).
"""

from __future__ import annotations

import json
import re
import reprlib
from dataclasses import MISSING, dataclass, fields, replace
from functools import cached_property
from typing import Callable, NamedTuple, Optional

from .names import IDENTIFIER
from .parsing import ParseError, Reader


# ---------------------------------------------------------------------------
# Formulas


class Formula:
    """A formula node.  Its subformulas are its fields annotated
    `Formula`, in field order; every other field is a side datum.  Two
    values are kept on the node and are no field, so `==`, `repr`,
    `rebuild`, pickling and copying ignore them: its hash, as `_hash`,
    and the sorted identifiers of the atoms it mentions, `atoms`.  The
    hash is the one the dataclass computes, `hash` of the tuple of the
    fields, computed at the first call, so a formula kept in a key is
    hashed again in one attribute lookup and no set or dict order moves.
    A string hashes differently in each process, so `__reduce__` rebuilds
    a node from its fields alone, and no pickle or copy carries either."""

    __slots__ = ()
    formula_names: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.formula_names = tuple(n for n, t in cls.__annotations__.items() if t == "Formula")

    def rebuild(self, cls: type, fn: Callable) -> "Formula":
        """`cls` over this node's fields, with `fn` applied to each subformula."""
        return cls(*[fn(getattr(self, n)) if n in self.formula_names else getattr(self, n)
                     for n in self.__match_args__])

    @cached_property
    def atoms(self) -> tuple:
        """The identifiers of the atoms this formula mentions, sorted."""
        return tuple(sorted(set().union(*(getattr(self, n).atoms for n in self.formula_names))))

    # Written out rather than a `cached_property`: cut elimination builds
    # formula nodes fresh and hashes each once, and on Python 3.11 a
    # `cached_property`'s first access takes a lock (build and first hash:
    # 1.1 us with one, 0.6 us written out).
    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(tuple([getattr(self, n) for n in self.__match_args__]))
        return h

    def __reduce__(self):
        return type(self), tuple([getattr(self, n) for n in self.__match_args__])


def _formula(cls: type) -> type:
    """A frozen dataclass formula node that keeps its hash: the dataclass
    writes its own `__hash__` into each class it makes, over `Formula`'s."""
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = Formula.__hash__
    return cls


@_formula
class FAtom(Formula):
    ident: str
    pos: bool = True
    args: tuple = ()

    @cached_property
    def atoms(self) -> tuple:
        return (self.ident,)


@_formula
class FTensor(Formula):
    left: Formula
    right: Formula


@_formula
class FPar(Formula):
    left: Formula
    right: Formula


@_formula
class FWith(Formula):
    left: Formula
    right: Formula


@_formula
class FPlus(Formula):
    left: Formula
    right: Formula


@_formula
class FBang(Formula):
    body: Formula


@_formula
class FQuest(Formula):
    body: Formula


@_formula
class FForall(Formula):
    var: str
    body: Formula


@_formula
class FExists(Formula):
    var: str
    body: Formula


# Each connective's de Morgan dual, which has the same fields.  Semantic
# types and axiom wires are built for the connectives on the left and
# obtained for those on the right by dualising.
DUALS = {FTensor: FPar, FWith: FPlus, FBang: FQuest, FForall: FExists}
DUAL_CONNECTIVES = tuple(DUALS.values())
_DUAL_OF = {**DUALS, **{d: c for c, d in DUALS.items()}}

# How each connective is written, for printing and parsing.
_INFIX = (FTensor, FPar, FWith, FPlus)
_PREFIX = (FBang, FQuest)
_QUANTIFIERS = (FForall, FExists)
_SYMBOLS = {
    FTensor: "*", FPar: "@", FWith: "&", FPlus: "(+)",
    FBang: "!", FQuest: "?", FForall: "forall", FExists: "exists",
}
_BY_SYMBOL = {sym: cls for cls, sym in _SYMBOLS.items()}


def negate(a: Formula) -> Formula:
    if isinstance(a, FAtom):
        return FAtom(a.ident, not a.pos, a.args)
    dual = _DUAL_OF.get(type(a))
    if dual is None:
        raise TypeError(f"not a formula: {a!r}")
    return a.rebuild(dual, negate)


def subst_value_formula(a: Formula, var: str, value: int) -> Formula:
    if isinstance(a, FAtom):
        args = tuple(value if arg == var else arg for arg in a.args)
        return FAtom(a.ident, a.pos, args)
    if isinstance(a, _QUANTIFIERS) and a.var == var:
        return a
    return a.rebuild(type(a), lambda f: subst_value_formula(f, var, value))


def free_value_vars_formula(a: Formula) -> frozenset:
    if isinstance(a, FAtom):
        return frozenset(arg for arg in a.args if isinstance(arg, str))
    out = frozenset().union(*(free_value_vars_formula(getattr(a, n)) for n in a.formula_names))
    return out - {a.var} if isinstance(a, _QUANTIFIERS) else out


def print_formula(a: Formula) -> str:
    return _print_formula(a, False)


def _print_formula(f: Formula, need_parens: bool) -> str:
    if isinstance(f, FAtom):
        base = ("" if f.pos else "~") + f.ident
        if f.args:
            base += "(" + ",".join(str(x) for x in f.args) + ")"
        return base
    sym = _SYMBOLS[type(f)]
    if isinstance(f, _PREFIX):
        return sym + _print_formula(f.body, True)
    if isinstance(f, _QUANTIFIERS):
        s = f"{sym} {f.var}. " + _print_formula(f.body, False)
    else:
        s = _print_formula(f.left, True) + sym + _print_formula(f.right, True)
    return f"({s})" if need_parens else s


_F_TOKEN = re.compile(
    rf"""(?P<ws>\s+)
      | (?P<plus>\(\+\))
      | (?P<int>\d+)
      | (?P<ident>{IDENTIFIER})
      | (?P<sym>[~*@&!?().,])
    """,
    re.VERBOSE,
)


class FormulaParseError(ParseError, ValueError):
    """A ValueError, so a bad formula in a proof file is bad input."""


def parse_formula(text: str) -> Formula:
    reader = _FormulaReader(text, _F_TOKEN)
    out = reader.parse_expr()
    reader.end()
    return out


class _FormulaReader(Reader):
    """The formula grammar: a quantifier's body extends as far as it can,
    the infix connectives associate to the left, `!`, `?`, `~` bind tightest."""

    Error = FormulaParseError

    def parse_expr(self) -> Formula:
        cls = _BY_SYMBOL.get(self.peek().text)
        if cls in _QUANTIFIERS:
            self.next()
            var = self._ident("a bound variable")
            self.expect(".")
            return cls(var, self.parse_expr())
        left = self.parse_unary()
        while _BY_SYMBOL.get(self.peek().text) in _INFIX:
            cls = _BY_SYMBOL[self.next().text]
            left = cls(left, self.parse_unary())
        return left

    def parse_unary(self) -> Formula:
        tok = self.peek()
        cls = _BY_SYMBOL.get(tok.text)
        if cls in _PREFIX:
            self.next()
            return cls(self.parse_unary())
        if tok.text == "~":
            self.next()
            return negate(self.parse_unary())
        if tok.text == "(":
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.kind == "ident" and cls is None:
            self.next()
            args: list = []
            if self.at("("):
                self.next()
                args = self.separated(lambda: self._value("an identifier or an integer"), ",")
                self.expect(")")
            return FAtom(tok.text, True, tuple(args))
        self.error(f"expected a formula, found {tok.text!r}")


# ---------------------------------------------------------------------------
# Proof trees

Sequent = tuple  # tuple[Formula, ...]


def print_sequent(seq: Sequent) -> str:
    return "|- " + ", ".join(print_formula(f) for f in seq)


class Proof:
    """A proof node.  Its premises are its fields annotated `Proof`, in
    field order; every other field is a side datum of the rule.  What is
    asked of a node is kept on it, no field, so `==`, `hash`, `repr`,
    `replace` and `proof_to_json` ignore it and a node that `replace` or a
    reduction builds starts with none: its `check_proof` result, and by
    the question's arguments, its realizers (`extraction.extract`),
    totality pipeline verdicts (`extraction.verify_totality_pipeline`)
    and `cut_eliminate` results."""

    premise_names: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.premise_names = tuple(n for n, t in cls.__annotations__.items() if t == "Proof")

    @cached_property
    def _checked(self) -> "CheckResult":
        seqs = []
        for k, q in enumerate(self.premises()):
            sub = check_proof(q)
            if not sub.ok:
                return CheckResult(None, sub.error, (k,) + sub.path)
            seqs.append(sub.sequent)
        return _check_rule(self, seqs)

    @cached_property
    def _realizers(self) -> dict:
        return {}

    @cached_property
    def _pipelines(self) -> dict:
        return {}

    @cached_property
    def _eliminated(self) -> dict:
        return {}

    def premises(self) -> tuple:
        return tuple(getattr(self, name) for name in self.premise_names)

    def with_premises(self, premises: tuple) -> "Proof":
        return replace(self, **dict(zip(self.premise_names, premises, strict=True)))


@dataclass(frozen=True)
class PAxiom(Proof):
    formula: Formula


@dataclass(frozen=True)
class PCut(Proof):
    formula: Formula
    left: Proof
    right: Proof
    pos_left: int = -1
    pos_right: int = -1


@dataclass(frozen=True)
class PTensorR(Proof):
    left: Proof
    right: Proof


@dataclass(frozen=True)
class PParR(Proof):
    premise: Proof


@dataclass(frozen=True)
class PWithR(Proof):
    left: Proof
    right: Proof


@dataclass(frozen=True)
class PPlusR1(Proof):
    premise: Proof
    other: Formula  # the absent right disjunct


@dataclass(frozen=True)
class PPlusR2(Proof):
    premise: Proof
    other: Formula  # the absent left disjunct


@dataclass(frozen=True)
class PExchange(Proof):
    perm: tuple  # conclusion[i] = premise_sequent[perm[i]]
    premise: Proof


@dataclass(frozen=True)
class PWeak(Proof):
    formula: Formula  # introduces ?formula
    premise: Proof


@dataclass(frozen=True)
class PDerel(Proof):
    premise: Proof


@dataclass(frozen=True)
class PContr(Proof):
    premise: Proof


@dataclass(frozen=True)
class PProm(Proof):
    premise: Proof


@dataclass(frozen=True)
class PForallR(Proof):
    var: str
    premise: Proof


@dataclass(frozen=True)
class PExistsR(Proof):
    value: int
    formula: Formula  # the existential conclusion formula
    premise: Proof


# ---------------------------------------------------------------------------
# Proof checking


@dataclass(frozen=True)
class CheckResult:
    sequent: Optional[Sequent]
    error: Optional[str] = None
    path: tuple = ()  # premise indices from the checked node to the failure

    @property
    def ok(self) -> bool:
        return self.error is None


def _resolve(pos: int, length: int) -> int:
    return length - 1 if pos == -1 else pos


def check_proof(p: Proof) -> CheckResult:
    """Checks the premises in order, stopping at the first failure, then
    this rule's side condition; returns the conclusion, or the error and
    its path from `p`.  The result is kept on the node (`Proof._checked`),
    so a node is checked once, from its premises' kept results, and proofs
    sharing a subtree share its result; a failing premise's path gets the
    premise's index prepended."""
    return p._checked if isinstance(p, Proof) else CheckResult(None, f"unknown proof node {p!r}")


def _check_rule(p: Proof, seqs: list) -> CheckResult:
    """The side condition of `p`'s rule over its premises' conclusions
    `seqs`, and the conclusion it gives, or the error."""
    s = seqs[0] if seqs else ()

    if isinstance(p, PAxiom):
        return CheckResult((negate(p.formula), p.formula))
    if isinstance(p, PCut):
        ls, rs = seqs
        i = _resolve(p.pos_left, len(ls))
        j = _resolve(p.pos_right, len(rs))
        if not (0 <= i < len(ls)) or ls[i] != p.formula:
            return CheckResult(None, f"cut formula {print_formula(p.formula)} "
                                     f"not at position {i} of {print_sequent(ls)}")
        if not (0 <= j < len(rs)) or rs[j] != negate(p.formula):
            return CheckResult(None, f"dual cut formula not at position {j} of {print_sequent(rs)}")
        conclusion = ls[:i] + ls[i + 1 :] + rs[:j] + rs[j + 1 :]
        if not conclusion:
            return CheckResult(None, "cut would produce an empty sequent")
        return CheckResult(conclusion)
    if isinstance(p, PTensorR):
        ls, rs = seqs
        if not ls or not rs:
            return CheckResult(None, "tensor premises must be nonempty")
        return CheckResult(ls[:-1] + rs[:-1] + (FTensor(ls[-1], rs[-1]),))
    if isinstance(p, PParR):
        if len(s) < 2:
            return CheckResult(None, "par needs two formulas to merge")
        return CheckResult(s[:-2] + (FPar(s[-2], s[-1]),))
    if isinstance(p, PWithR):
        ls, rs = seqs
        if not ls or not rs:
            return CheckResult(None, "with premises must be nonempty")
        if ls[:-1] != rs[:-1]:
            return CheckResult(None, "with premises must share their context")
        return CheckResult(ls[:-1] + (FWith(ls[-1], rs[-1]),))
    if isinstance(p, PPlusR1):
        if not s:
            return CheckResult(None, "plus premise must be nonempty")
        return CheckResult(s[:-1] + (FPlus(s[-1], p.other),))
    if isinstance(p, PPlusR2):
        if not s:
            return CheckResult(None, "plus premise must be nonempty")
        return CheckResult(s[:-1] + (FPlus(p.other, s[-1]),))
    if isinstance(p, PExchange):
        if sorted(p.perm) != list(range(len(s))):
            return CheckResult(None, f"invalid permutation {p.perm} for {print_sequent(s)}")
        return CheckResult(tuple(s[k] for k in p.perm))
    if isinstance(p, PWeak):
        return CheckResult(s + (FQuest(p.formula),))
    if isinstance(p, PDerel):
        if not s:
            return CheckResult(None, "dereliction premise must be nonempty")
        return CheckResult(s[:-1] + (FQuest(s[-1]),))
    if isinstance(p, PContr):
        if len(s) < 2 or s[-1] != s[-2]:
            return CheckResult(None, "contraction needs two equal final formulas")
        if not isinstance(s[-1], FQuest):
            return CheckResult(None, "contraction applies to ?-formulas only")
        return CheckResult(s[:-1])
    if isinstance(p, PProm):
        if not s:
            return CheckResult(None, "promotion premise must be nonempty")
        if not all(isinstance(f, FQuest) for f in s[:-1]):
            return CheckResult(None, "promotion context must consist of ?-formulas")
        return CheckResult(s[:-1] + (FBang(s[-1]),))
    if isinstance(p, PForallR):
        if not s:
            return CheckResult(None, "forall premise must be nonempty")
        for f in s[:-1]:
            if p.var in free_value_vars_formula(f):
                return CheckResult(None, f"value variable {p.var} free in the context")
        return CheckResult(s[:-1] + (FForall(p.var, s[-1]),))
    if isinstance(p, PExistsR):
        if not isinstance(p.formula, FExists):
            return CheckResult(None, "exists rule must carry an existential formula")
        if not s:
            return CheckResult(None, "exists premise must be nonempty")
        expected = subst_value_formula(p.formula.body, p.formula.var, p.value)
        if s[-1] != expected:
            return CheckResult(None, 
                f"premise ends with {print_formula(s[-1])}, expected "
                f"{print_formula(expected)}"
            )
        return CheckResult(s[:-1] + (p.formula,))
    return CheckResult(None, f"unknown proof node {p!r}")


def conclusion(p: Proof) -> Sequent:
    """The conclusion of `p`, kept on the node once checked; raises
    ValueError naming an invalid proof's path and error."""
    res = check_proof(p)
    if not res.ok:
        raise ValueError(f"invalid proof at {res.path}: {res.error}")
    return res.sequent


def subst_value_proof(p: Proof, var: str, value: int) -> Proof:
    """Substitutes `value` for `var` in every formula of the proof; a
    forall rule binding `var` shields its premise."""
    if isinstance(p, PForallR) and p.var == var:
        return p
    changes = {}
    for f in fields(p):
        v = getattr(p, f.name)
        if isinstance(v, Formula):
            changes[f.name] = subst_value_formula(v, var, value)
        elif isinstance(v, Proof):
            changes[f.name] = subst_value_proof(v, var, value)
    return replace(p, **changes)


# ---------------------------------------------------------------------------
# Cut elimination


class NotReducible(Exception):
    pass


def _exchange_to(proof: Proof, order: list) -> Proof:
    """`proof` under the exchange to `order`, or as it is for the identity."""
    if list(order) == list(range(len(order))):
        return proof
    return PExchange(tuple(order), proof)


def reduce_cut(cut: PCut) -> tuple:
    """One standard cut-elimination step at this node: the reduced proof
    and the kind of step performed.  In order: an axiom premise is cut
    away (`axiom-left`, `axiom-right`); an exchange premise is folded into
    an exchange below the cut (`exchange-left`, `exchange-right`); two
    premises that both introduce the cut formula reduce principally
    (`tensor-par`, `prom-weak`, ...); else the cut commutes with the last
    rule of its left premise, or of its right one, when that rule does
    not introduce the cut formula (`push-left-withr`, `push-right-weak`,
    ...).  Raises NotReducible when none applies."""
    ls = conclusion(cut.left)
    rs = conclusion(cut.right)
    i = _resolve(cut.pos_left, len(ls))
    j = _resolve(cut.pos_right, len(rs))
    left, right = cut.left, cut.right

    # axiom cuts
    if isinstance(left, PAxiom):
        # leftover formula of the axiom goes to the front of the result
        order = [j] + [k for k in range(len(rs)) if k != j]
        return _exchange_to(right, order), "axiom-left"
    if isinstance(right, PAxiom):
        order = [k for k in range(len(ls)) if k != i] + [i]
        return _exchange_to(left, order), "axiom-right"

    for side, premise in enumerate((left, right)):
        if isinstance(premise, PExchange):
            return _commute(cut, side)

    left_principal = i == len(ls) - 1
    right_principal = j == len(rs) - 1
    if left_principal and right_principal:
        step = _principal(cut, left, right)
        if step is not None:
            return step
    for side, principal in enumerate((left_principal, right_principal)):
        step = None if principal else _commute(cut, side)
        if step is not None:
            return step
    raise NotReducible(
        f"no reduction for cut on {print_formula(cut.formula)} "
        f"(left {type(left).__name__}, right {type(right).__name__})"
    )


# The number of trailing formulas of each premise that a rule consumes to
# build its principal formula, which it places last.  The rest of each
# premise is the conclusion's context, in premise order; a with's two
# premises share theirs.  A cut commutes with these rules and with an
# exchange, and with no other.
_TAIL = {
    PParR: 2, PContr: 2, PTensorR: 1, PWithR: 1, PPlusR1: 1, PPlusR2: 1,
    PDerel: 1, PForallR: 1, PExistsR: 1, PWeak: 0,
}


def _sources(p: Proof, lengths: list) -> Optional[list]:
    """Where each formula of `p`'s conclusion comes from, given the
    lengths of its premises' conclusions: a tuple of (premise, position)
    pairs, or () for the principal formula; None for a rule that no cut
    commutes with."""
    if isinstance(p, PExchange):
        return [((0, k),) for k in p.perm]
    tail = _TAIL.get(type(p))
    if tail is None:
        return None
    if isinstance(p, PWithR):
        return [((0, k), (1, k)) for k in range(lengths[0] - tail)] + [()]
    return [((n, k),) for n, size in enumerate(lengths) for k in range(size - tail)] + [()]


def _commute(cut: PCut, side: int) -> Optional[tuple]:
    """Commutes `cut` with the last rule of its premise on `side` (0 for
    left), whose conclusion holds the cut formula at a position that is
    not the rule's principal formula: the cut goes into every premise of
    the rule that holds the formula (both of a with's), each premise cut
    is exchanged to end with the premise's tail, and the rule is applied
    again; an exchange is not, its permutation going into the final one.
    A last exchange, from the `_sources` of the two rules, restores the
    order of the cut's conclusion.  None when `_sources` has none."""
    node = (cut.left, cut.right)[side]
    lengths = [len(conclusion(q)) for q in node.premises()]
    sources = _sources(node, lengths)
    if sources is None:
        return None
    ends = (conclusion(cut.left), conclusion(cut.right))
    at = [_resolve(cut.pos_left, len(ends[0])), _resolve(cut.pos_right, len(ends[1]))]

    def place(end: int, k: int) -> int:
        """The position of `ends[end][k]` in the cut's conclusion."""
        return k - (k > at[end]) + (len(ends[0]) - 1 if end else 0)

    # each premise formula's place in the cut's conclusion; None for a tail
    places = [[None] * size for size in lengths]
    for x, pairs in enumerate(sources):
        for n, k in pairs:
            places[n][k] = place(side, x)
    others = [place(1 - side, k) for k in range(len(ends[1 - side])) if k != at[1 - side]]
    premises = list(node.premises())
    for n, k in sources[at[side]]:
        ours = places[n][:k] + places[n][k + 1 :]
        if side == 0:
            premise, new = PCut(cut.formula, premises[n], cut.right, k, at[1]), ours + others
        else:
            premise, new = PCut(cut.formula, cut.left, premises[n], at[0], k), others + ours
        order = sorted(range(len(new)), key=lambda y: new[y] is None)  # the tail last
        premises[n] = _exchange_to(premise, order)
        places[n] = [new[y] for y in order]

    name = ("left", "right")[side]
    if isinstance(node, PExchange):
        out, kind, out_places = premises[0], f"exchange-{name}", places[0]
    else:
        out = node.with_premises(tuple(premises))
        kind = f"push-{name}-{type(node).__name__[1:].lower()}"
        principal = place(side, len(sources) - 1)
        out_places = [places[pairs[0][0]][pairs[0][1]] if pairs else principal
                      for pairs in _sources(out, [len(ps) for ps in places])]
    return _exchange_to(out, [out_places.index(x) for x in range(len(out_places))]), kind


def _principal(cut: PCut, left: Proof, right: Proof) -> Optional[Proof]:
    if isinstance(left, PTensorR) and isinstance(right, PParR):
        # C = A (x) B against A' par B'
        p1, p2, p3 = left.left, left.right, right.premise
        s1, s2, s3 = conclusion(p1), conclusion(p2), conclusion(p3)
        a, b = s1[-1], s2[-1]
        g1, g2, d = len(s1) - 1, len(s2) - 1, len(s3) - 2
        inner = PCut(a, p1, p3, len(s1) - 1, len(s3) - 2)
        outer = PCut(b, p2, inner, len(s2) - 1, -1)
        order = list(range(g2, g2 + g1)) + list(range(g2)) + list(range(g1 + g2, g1 + g2 + d))
        return _exchange_to(outer, order), "tensor-par"

    if isinstance(left, PParR) and isinstance(right, PTensorR):
        p1, p2, p3 = left.premise, right.left, right.right
        s1, s2, s3 = conclusion(p1), conclusion(p2), conclusion(p3)
        a, b = s1[-2], s1[-1]
        g, d1, d2 = len(s1) - 2, len(s2) - 1, len(s3) - 1
        c1 = PCut(b, p1, p3, len(s1) - 1, len(s3) - 1)
        c2 = PCut(a, c1, p2, g, len(s2) - 1)
        # c2 concludes Γ ++ Δ2 ++ Δ1; target is Γ ++ Δ1 ++ Δ2
        order = list(range(g)) + list(range(g + d2, g + d2 + d1)) + list(range(g, g + d2))
        return _exchange_to(c2, order), "par-tensor"

    if isinstance(left, PWithR) and isinstance(right, PPlusR1):
        return PCut(conclusion(left.left)[-1], left.left, right.premise, -1, -1), "with-plus1"
    if isinstance(left, PWithR) and isinstance(right, PPlusR2):
        return PCut(conclusion(left.right)[-1], left.right, right.premise, -1, -1), "with-plus2"
    if isinstance(left, PPlusR1) and isinstance(right, PWithR):
        return PCut(conclusion(left.premise)[-1], left.premise, right.left, -1, -1), "plus1-with"
    if isinstance(left, PPlusR2) and isinstance(right, PWithR):
        return PCut(conclusion(left.premise)[-1], left.premise, right.right, -1, -1), "plus2-with"

    if isinstance(left, PProm) and isinstance(right, PWeak):
        context = conclusion(left.premise)[:-1]  # all ?-formulas
        out = right.premise
        for qf in context:
            out = PWeak(qf.body, out)
        d = len(conclusion(right.premise))
        m = len(context)
        order = list(range(d, d + m)) + list(range(d))
        return _exchange_to(out, order), "prom-weak"
    if isinstance(left, PWeak) and isinstance(right, PProm):
        context = conclusion(right.premise)[:-1]
        out = left.premise
        for qf in context:
            out = PWeak(qf.body, out)
        return out, "weak-prom"
    if isinstance(left, PProm) and isinstance(right, PDerel):
        a = conclusion(left.premise)[-1]
        return PCut(a, left.premise, right.premise, -1, -1), "prom-derel"
    if isinstance(left, PDerel) and isinstance(right, PProm):
        a = conclusion(left.premise)[-1]
        return PCut(a, left.premise, right.premise, -1, -1), "derel-prom"
    if isinstance(left, PProm) and isinstance(right, PContr):
        m = len(conclusion(left.premise)) - 1
        c1 = PCut(cut.formula, left, right.premise, -1, -1)
        c2 = PCut(cut.formula, left, c1, -1, -1)
        d = len(conclusion(right.premise)) - 2
        return _contract_pairs(c2, m, d, context_first=True), "prom-contr"
    if isinstance(left, PContr) and isinstance(right, PProm):
        m = len(conclusion(right.premise)) - 1
        g = len(conclusion(left.premise)) - 2
        c1 = PCut(cut.formula, left.premise, right, -1, -1)
        c2 = PCut(cut.formula, c1, right, g, -1)
        return _contract_pairs(c2, m, g, context_first=False), "contr-prom"

    if isinstance(left, PForallR) and isinstance(right, PExistsR):
        v = right.value
        body = conclusion(left.premise)[-1]
        inst = subst_value_formula(body, left.var, v)
        return PCut(inst, subst_value_proof(left.premise, left.var, v), right.premise, -1, -1), "forall-exists"
    if isinstance(left, PExistsR) and isinstance(right, PForallR):
        v = left.value
        inst = conclusion(left.premise)[-1]
        return PCut(inst, left.premise, subst_value_proof(right.premise, right.var, v), -1, -1), "exists-forall"

    return None


def _contract_pairs(proof: Proof, m: int, rest: int, context_first: bool) -> Proof:
    """proof concludes two adjacent copies of an m-formula ?-context
    followed (context_first) or preceded by `rest` other formulas;
    contracts the copies pairwise and restores the context position."""
    if context_first:
        slots = [("a", k) for k in range(m)] + [("b", k) for k in range(m)] + [
            ("d", k) for k in range(rest)
        ]
    else:
        slots = [("d", k) for k in range(rest)] + [("a", k) for k in range(m)] + [
            ("b", k) for k in range(m)
        ]
    out = proof
    for k in range(m):
        p1 = slots.index(("a", k))
        p2 = slots.index(("b", k))
        order = [x for x in range(len(slots)) if x not in (p1, p2)] + [p1, p2]
        out = _exchange_to(out, order)
        slots = [slots[x] for x in order]
        out = PContr(out)
        slots = slots[:-2] + [("a", k)]
    # now: d's in order followed by contracted context
    if context_first:
        order = list(range(rest, rest + m)) + list(range(rest))
    else:
        order = list(range(len(slots)))
    return _exchange_to(out, order)


# ---------------------------------------------------------------------------
# Driving cut elimination


def has_cut(p: Proof) -> bool:
    if isinstance(p, PCut):
        return True
    return any(has_cut(q) for q in p.premises())


def _reduce_innermost(p: Proof):
    """Reduces the leftmost-innermost reducible cut of `p` (premises
    first, then this node): the rebuilt proof and the step kind; else the
    NotReducible of the first cut met when no cut in `p` reduces, or None
    when `p` has no cut."""
    premises = p.premises()
    stuck = None
    for k, q in enumerate(premises):
        found = _reduce_innermost(q)
        if isinstance(found, tuple):
            reduced, kind = found
            return p.with_premises(premises[:k] + (reduced,) + premises[k + 1 :]), kind
        stuck = stuck or found
    if isinstance(p, PCut):
        try:
            return reduce_cut(p)
        except NotReducible as exc:
            return stuck or exc
    return stuck


@dataclass(frozen=True)
class ElimResult:
    proof: Proof
    steps: int
    status: str  # "done" | "bound" | "stuck"
    trail: tuple = ()  # intermediate proofs
    kinds: tuple = ()  # step kind per transition
    detail: str = ""  # why a "stuck" or "bound" proof keeps a cut


STEP_BOUND = 200


def cut_eliminate(p: Proof, step_bound: int = STEP_BOUND, keep_trail: bool = False) -> ElimResult:
    """Reduces the leftmost-innermost cut until none is left, none
    reduces ("stuck", with the NotReducible message of the first cut met
    as `detail`) or `step_bound` steps are taken ("bound"); with
    `keep_trail`, the trail holds `p` and each proof after it.  The result
    is kept on `p` (`Proof._eliminated`, by step bound and `keep_trail`),
    so a proof eliminated again returns the same result, whose trail's
    nodes already hold their realizers.  A kept trail holds `p`, so the
    cycle collector frees the two together."""
    kept = p._eliminated
    key = (step_bound, keep_trail)
    res = kept.get(key)
    if res is None:
        res = kept[key] = _eliminate(p, step_bound, keep_trail)
    return res


def _eliminate(p: Proof, step_bound: int, keep_trail: bool) -> ElimResult:
    steps = 0
    trail = [p] if keep_trail else []
    kinds: list = []
    current = p
    status, detail = "done", ""
    while True:
        # one walk per step: the proof is searched for a cut only when
        # the bound stops the reduction
        found = _reduce_innermost(current) if steps < step_bound else None
        if not isinstance(found, tuple):
            if found is not None:
                status, detail = "stuck", str(found)
            elif steps >= step_bound and has_cut(current):
                status, detail = "bound", f"step bound {step_bound} reached"
            break
        current, kind = found
        steps += 1
        kinds.append(kind)
        if keep_trail:
            trail.append(current)
    return ElimResult(current, steps, status, tuple(trail), tuple(kinds), detail)


# ---------------------------------------------------------------------------
# JSON serialization


# JSON rule names; a node's other keys are its side fields, by field name
# and in field order, then "premises" (absent for an axiom)
RULE_NAMES = {
    PAxiom: "axiom",
    PCut: "cut",
    PTensorR: "tensor",
    PParR: "par",
    PWithR: "with",
    PPlusR1: "plus1",
    PPlusR2: "plus2",
    PExchange: "exchange",
    PWeak: "weakening",
    PDerel: "dereliction",
    PContr: "contraction",
    PProm: "promotion",
    PForallR: "forall",
    PExistsR: "exists",
}
_RULES = {name: cls for cls, name in RULE_NAMES.items()}


class _SideCodec(NamedTuple):
    accepts: Callable  # JSON value -> is it well-typed for the field
    decode: Callable  # JSON value -> field value
    encode: Callable  # field value -> JSON value
    expected: str  # the JSON type, for error messages


def _same(v):
    return v


# a side field's JSON codec, by the field's annotated type
_SIDE_CODECS = {
    "Formula": _SideCodec(
        lambda v: isinstance(v, str), parse_formula, print_formula, "a formula string"
    ),
    "tuple": _SideCodec(
        lambda v: isinstance(v, list) and all(type(x) is int for x in v),
        tuple,
        list,
        "a list of integers",
    ),
    "int": _SideCodec(lambda v: type(v) is int, _same, _same, "an integer"),
    "str": _SideCodec(lambda v: isinstance(v, str), _same, _same, "a string"),
}


def proof_to_json(p: Proof) -> dict:
    if type(p) not in RULE_NAMES:
        raise TypeError(f"not a proof: {p!r}")
    out = {"rule": RULE_NAMES[type(p)]}
    for f in fields(p):
        if f.type != "Proof":
            out[f.name] = _SIDE_CODECS[f.type].encode(getattr(p, f.name))
    premises = [proof_to_json(q) for q in p.premises()]
    if premises:
        out["premises"] = premises
    return out


def proof_from_json(data) -> Proof:
    """Decodes `proof_to_json` output; raises ValueError naming the rule
    on a malformed node, including one with a key that is not "rule",
    "premises" or one of the rule's side fields."""
    if not isinstance(data, dict):
        raise ValueError(f"proof node must be a JSON object, found {reprlib.repr(data)}")
    rule = data.get("rule")
    cls = _RULES.get(rule) if isinstance(rule, str) else None
    if cls is None:
        raise ValueError(f"unknown proof rule {rule!r}")
    side = [f for f in fields(cls) if f.type != "Proof"]
    known = {"rule", "premises", *(f.name for f in side)}
    unknown = [key for key in data if key not in known]  # in file order
    if unknown:
        raise ValueError(f"proof rule {rule!r} has no field {reprlib.repr(unknown[0])}")
    premises = data.get("premises", [])
    if not isinstance(premises, list) or len(premises) != len(cls.premise_names):
        raise ValueError(
            f"proof rule {rule!r} takes {len(cls.premise_names)} premises, "
            f"found {reprlib.repr(premises)}"
        )
    kwargs = {name: proof_from_json(q) for name, q in zip(cls.premise_names, premises)}
    for f in side:
        if f.name not in data:
            if f.default is MISSING:
                raise ValueError(f"proof rule {rule!r} needs field {f.name!r}")
            continue
        codec = _SIDE_CODECS[f.type]
        if not codec.accepts(data[f.name]):
            raise ValueError(
                f"proof rule {rule!r}: {f.name!r} must be {codec.expected}, "
                f"found {reprlib.repr(data[f.name])}"
            )
        kwargs[f.name] = codec.decode(data[f.name])
    return cls(**kwargs)


def load_proof(path: str) -> Proof:
    with open(path, "r", encoding="utf-8") as fh:
        return proof_from_json(json.load(fh))

"""Formulas in de Morgan normal form, sequent proofs, proof checking and
cut-elimination steps.

Conventions: sequents are ordered tuples; every introduction rule places
its principal formula last; a cut node records the positions of the cut
formula in both premises (-1 meaning last).  A rule's shape is written
once: `_TAIL` (how many trailing formulas of each premise it consumes)
and `_PRINCIPAL` (the principal formula it builds of them), read through
`_sources`, which says where each conclusion formula comes from.  The
checker reads each conclusion off it, and every cut-elimination step
places its subproofs by it: principal steps fire when both positions are
the introduced last formulas, every other step is one commuting
conversion (`_commute`), which moves the cut above a premise's last rule
or exchange, and each step ends in one exchange (`_restore`) that puts
every formula of the reduct in its place.
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
    `seqs`, and the conclusion it gives, or the error.  A rule other than
    the axiom and the cut concludes what `_sources` says, with the
    principal formula `_PRINCIPAL` builds from the formulas it consumes.
    No premise concludes the empty sequent: the axiom concludes two
    formulas, every other rule adds its principal one, and the cut
    refuses to make one."""
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
        conclusion = _splice(ls, rs, i, j)
        if not conclusion:
            return CheckResult(None, "cut would produce an empty sequent")
        return CheckResult(conclusion)
    if isinstance(p, PParR) and len(s) < 2:
        return CheckResult(None, "par needs two formulas to merge")
    if isinstance(p, PWithR) and seqs[0][:-1] != seqs[1][:-1]:
        return CheckResult(None, "with premises must share their context")
    if isinstance(p, PExchange) and sorted(p.perm) != list(range(len(s))):
        return CheckResult(None, f"invalid permutation {p.perm} for {print_sequent(s)}")
    if isinstance(p, PContr):
        if len(s) < 2 or s[-1] != s[-2]:
            return CheckResult(None, "contraction needs two equal final formulas")
        if not isinstance(s[-1], FQuest):
            return CheckResult(None, "contraction applies to ?-formulas only")
    if isinstance(p, PProm) and not all(isinstance(f, FQuest) for f in s[:-1]):
        return CheckResult(None, "promotion context must consist of ?-formulas")
    if isinstance(p, PForallR) and any(p.var in free_value_vars_formula(f) for f in s[:-1]):
        return CheckResult(None, f"value variable {p.var} free in the context")
    if isinstance(p, PExistsR):
        if not isinstance(p.formula, FExists):
            return CheckResult(None, "exists rule must carry an existential formula")
        expected = subst_value_formula(p.formula.body, p.formula.var, p.value)
        if s[-1] != expected:
            return CheckResult(None, f"premise ends with {print_formula(s[-1])}, expected "
                                     f"{print_formula(expected)}")
    rule, tail = _PRINCIPAL.get(type(p)), _TAIL.get(type(p), 0)
    out = _conclude(p, seqs, rule and rule(p, [f for q in seqs for f in q[len(q) - tail :]]))
    if out is None:
        return CheckResult(None, f"unknown proof node {p!r}")
    return CheckResult(tuple(out))


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


# Every step builds its reduct from placed subproofs: (proof, places),
# where places[k] is the place in the reduced cut's conclusion of formula
# k of the proof's conclusion, or None for a formula that a cut or a rule
# of the reduct consumes.  `_restore` then puts each formula in its place.


def _splice(ls, rs, i: int, j: int):
    """A cut's conclusion: `ls` without position i, then `rs` without j."""
    return ls[:i] + ls[i + 1 :] + rs[:j] + rs[j + 1 :]


def _cut_places(cut: PCut) -> tuple:
    """The places of the formulas of `cut`'s left and right premises, with
    None for the cut formula."""
    ls, rs = len(conclusion(cut.left)), len(conclusion(cut.right))
    i, j = _resolve(cut.pos_left, ls), _resolve(cut.pos_right, rs)
    return ([None if k == i else k - (k > i) for k in range(ls)],
            [None if k == j else ls - 1 + k - (k > j) for k in range(rs)])


def _premise_places(node: Proof, places: list) -> Optional[list]:
    """`node`'s premises, each placed: a formula that `_sources` says
    conclusion formula x comes from takes `places[x]`, and one the rule
    consumes takes None.  None for a rule that `_sources` does not cover."""
    premises = node.premises()
    rows = [[None] * len(conclusion(q)) for q in premises]
    sources = _sources(node, [len(row) for row in rows])
    if sources is None:
        return None
    for x, pairs in zip(places, sources):
        for n, k in pairs:
            rows[n][k] = x
    return list(zip(premises, rows))


def _cut(formula: Formula, left: tuple, right: tuple, i: int, j: int) -> tuple:
    """The placed cut of two placed proofs at positions i and j (-1 for
    the last), which the cut node keeps as given."""
    (p, lp), (q, rp) = left, right
    return PCut(formula, p, q, i, j), _splice(lp, rp, _resolve(i, len(lp)), _resolve(j, len(rp)))


def _restore(proof: Proof, places: list) -> Proof:
    """`proof` under the exchange that puts each formula in its place."""
    return _exchange_to(proof, [places.index(x) for x in range(len(places))])


def _contract(proof: Proof, places: list) -> tuple:
    """Contracts each place that two formulas of the placed `proof` hold
    (a ?-context the reduct holds twice), in place order: the first and
    the second occurrence are exchanged to the end and contracted."""
    for x in sorted({x for x in places if places.count(x) > 1}):
        first = places.index(x)
        second = places.index(x, first + 1)
        order = [y for y in range(len(places)) if y not in (first, second)] + [first, second]
        proof = PContr(_exchange_to(proof, order))
        places = [places[y] for y in order[:-1]]
    return proof, places


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
    left, right = cut.left, cut.right
    lp, rp = _cut_places(cut)
    i, j = lp.index(None), rp.index(None)

    # an axiom's other formula takes the place of the other premise's cut formula
    if isinstance(left, PAxiom):
        return _restore(right, rp[:j] + [lp[1 - i]] + rp[j + 1 :]), "axiom-left"
    if isinstance(right, PAxiom):
        return _restore(left, lp[:i] + [rp[1 - j]] + lp[i + 1 :]), "axiom-right"

    for side, premise in enumerate((left, right)):
        if isinstance(premise, PExchange):
            return _commute(cut, side)

    left_principal = i == len(lp) - 1
    right_principal = j == len(rp) - 1
    if left_principal and right_principal:
        step = _principal(cut, lp, rp)
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
# premises share theirs.  A cut commutes with these rules but the
# promotion, and with an exchange, and with no other.
_TAIL = {
    PParR: 2, PContr: 2, PTensorR: 1, PWithR: 1, PPlusR1: 1, PPlusR2: 1,
    PDerel: 1, PProm: 1, PForallR: 1, PExistsR: 1, PWeak: 0,
}

# Each rule's principal formula, from the rule and the formulas it consumes.
_PRINCIPAL = {
    PTensorR: lambda p, tail: FTensor(*tail),
    PParR: lambda p, tail: FPar(*tail),
    PWithR: lambda p, tail: FWith(*tail),
    PPlusR1: lambda p, tail: FPlus(*tail, p.other),
    PPlusR2: lambda p, tail: FPlus(p.other, *tail),
    PWeak: lambda p, tail: FQuest(p.formula),
    PDerel: lambda p, tail: FQuest(*tail),
    PContr: lambda p, tail: tail[0],
    PProm: lambda p, tail: FBang(*tail),
    PForallR: lambda p, tail: FForall(p.var, *tail),
    PExistsR: lambda p, tail: p.formula,
}


def _sources(p: Proof, lengths: list) -> Optional[list]:
    """Where each formula of `p`'s conclusion comes from, given the
    lengths of its premises' conclusions: a tuple of (premise, position)
    pairs, or () for the principal formula; None for the axiom, the cut
    and a node of no rule.  The checker reads a conclusion off it, and
    every cut-elimination step places a rule's premises by it."""
    if isinstance(p, PExchange):
        return [((0, k),) for k in p.perm]
    tail = _TAIL.get(type(p))
    if tail is None:
        return None
    if isinstance(p, PWithR):
        return [((0, k), (1, k)) for k in range(lengths[0] - tail)] + [()]
    return [((n, k),) for n, size in enumerate(lengths) for k in range(size - tail)] + [()]


def _conclude(p: Proof, rows: list, principal) -> Optional[list]:
    """`p`'s conclusion read off `_sources`, given a row of values for
    each premise's formulas (the formulas, or their places) and the
    principal formula's value; None where `_sources` has none."""
    sources = _sources(p, [len(row) for row in rows])
    if sources is None:
        return None
    return [rows[pairs[0][0]][pairs[0][1]] if pairs else principal for pairs in sources]


def _commute(cut: PCut, side: int) -> Optional[tuple]:
    """Commutes `cut` with the last rule of its premise on `side` (0 for
    left), whose conclusion holds the cut formula at a position that is
    not the rule's principal formula: the cut goes into every premise of
    the rule that holds the formula (both of a with's), each premise cut
    is exchanged to end with the premise's tail, and the rule is applied
    again; an exchange is not, its permutation going into the final one.
    Each premise is placed by `_premise_places`, and the rule applied
    again is placed by `_conclude`.  None for a promotion, whose context
    no cut enters yet, and where `_sources` has none."""
    node = (cut.left, cut.right)[side]
    if isinstance(node, PProm):
        return None
    ends = list(zip((cut.left, cut.right), _cut_places(cut)))
    premises = _premise_places(node, ends[side][1])
    if premises is None:
        return None
    at = [places.index(None) for _, places in ends]
    for n, k in _sources(node, [len(places) for _, places in premises])[at[side]]:
        if side == 0:
            premise, places = _cut(cut.formula, premises[n], ends[1], k, at[1])
        else:
            premise, places = _cut(cut.formula, ends[0], premises[n], at[0], k)
        order = sorted(range(len(places)), key=lambda y: places[y] is None)  # the tail last
        premises[n] = _exchange_to(premise, order), [places[y] for y in order]

    name = ("left", "right")[side]
    if isinstance(node, PExchange):
        return _restore(*premises[0]), f"exchange-{name}"
    out = node.with_premises(tuple(premise for premise, _ in premises))
    places = _conclude(out, [places for _, places in premises], ends[side][1][-1])
    return _restore(out, places), f"push-{name}-{type(node).__name__[1:].lower()}"


def _principal(cut: PCut, lp: list, rp: list) -> Optional[tuple]:
    """The principal step of `cut`, whose premises both introduce the cut
    formula and are placed by `lp` and `rp`, or None for none."""
    left, right = cut.left, cut.right
    f = cut.formula
    rules = (type(left), type(right))
    ls, rs = _premise_places(left, lp), _premise_places(right, rp)

    if rules == (PTensorR, PParR):
        (p1, p2), (p3,) = ls, rs
        inner = _cut(f.left, p1, p3, len(p1[1]) - 1, len(p3[1]) - 2)
        return _restore(*_cut(f.right, p2, inner, len(p2[1]) - 1, -1)), "tensor-par"
    if rules == (PParR, PTensorR):
        (p1,), (p2, p3) = ls, rs
        inner = _cut(f.right, p1, p3, len(p1[1]) - 1, len(p3[1]) - 1)
        return _restore(*_cut(f.left, inner, p2, len(p1[1]) - 2, len(p2[1]) - 1)), "par-tensor"

    if rules == (PWithR, PPlusR1):
        return _restore(*_cut(f.left, ls[0], rs[0], -1, -1)), "with-plus1"
    if rules == (PWithR, PPlusR2):
        return _restore(*_cut(f.right, ls[1], rs[0], -1, -1)), "with-plus2"
    if rules == (PPlusR1, PWithR):
        return _restore(*_cut(f.left, ls[0], rs[0], -1, -1)), "plus1-with"
    if rules == (PPlusR2, PWithR):
        return _restore(*_cut(f.right, ls[0], rs[1], -1, -1)), "plus2-with"

    if rules in ((PProm, PWeak), (PWeak, PProm)):
        # the weakening's premise, weakened by each formula of the box's context
        (box, box_places), (out, places) = (ls[0], rs[0]) if rules[0] is PProm else (rs[0], ls[0])
        for qf, x in zip(conclusion(box)[:-1], box_places):
            out, places = PWeak(qf.body, out), places + [x]
        return _restore(out, places), "prom-weak" if rules[0] is PProm else "weak-prom"
    if rules == (PProm, PDerel):
        return _restore(*_cut(f.body, ls[0], rs[0], -1, -1)), "prom-derel"
    if rules == (PDerel, PProm):
        return _restore(*_cut(f.body, ls[0], rs[0], -1, -1)), "derel-prom"
    if rules == (PProm, PContr):
        inner = _cut(f, (left, lp), rs[0], -1, -1)
        return _restore(*_contract(*_cut(f, (left, lp), inner, -1, -1))), "prom-contr"
    if rules == (PContr, PProm):
        inner = _cut(f, ls[0], (right, rp), -1, -1)
        return _restore(*_contract(*_cut(f, inner, (right, rp), len(ls[0][1]) - 2, -1))), "contr-prom"

    if rules == (PForallR, PExistsR):
        (premise, places), v = ls[0], right.value
        inst = subst_value_formula(f.body, left.var, v)
        step = _cut(inst, (subst_value_proof(premise, left.var, v), places), rs[0], -1, -1)
        return _restore(*step), "forall-exists"
    if rules == (PExistsR, PForallR):
        (premise, places), v = rs[0], left.value
        inst = subst_value_formula(f.body, f.var, v)
        step = _cut(inst, ls[0], (subst_value_proof(premise, right.var, v), places), -1, -1)
        return _restore(*step), "exists-forall"

    return None


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

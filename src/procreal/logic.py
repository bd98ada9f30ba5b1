"""Formulas in de Morgan normal form, sequent proofs, proof checking and
cut-elimination steps.

Conventions: sequents are ordered tuples; every introduction rule places
its principal formula last; a cut node records the positions of the cut
formula in both premises (-1 meaning last).  With those conventions the
permutation bookkeeping of cut elimination stays mechanical: principal
steps fire when both positions are the introduced last formulas,
exchange premises are stripped one layer at a time, and a cut at a
non-principal position pushes through the premise's last rule.
"""

from __future__ import annotations

import json
import re
import reprlib
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Callable, NamedTuple, Optional, Union

ValueExpr = Union[int, str]  # int literal or value variable


# ---------------------------------------------------------------------------
# Formulas


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class FAtom(Formula):
    ident: str
    pos: bool = True
    args: tuple = ()


@dataclass(frozen=True)
class FTensor(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class FPar(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class FWith(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class FPlus(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class FBang(Formula):
    body: Formula


@dataclass(frozen=True)
class FQuest(Formula):
    body: Formula


@dataclass(frozen=True)
class FForall(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class FExists(Formula):
    var: str
    body: Formula


def negate(a: Formula) -> Formula:
    if isinstance(a, FAtom):
        return FAtom(a.ident, not a.pos, a.args)
    if isinstance(a, FTensor):
        return FPar(negate(a.left), negate(a.right))
    if isinstance(a, FPar):
        return FTensor(negate(a.left), negate(a.right))
    if isinstance(a, FWith):
        return FPlus(negate(a.left), negate(a.right))
    if isinstance(a, FPlus):
        return FWith(negate(a.left), negate(a.right))
    if isinstance(a, FBang):
        return FQuest(negate(a.body))
    if isinstance(a, FQuest):
        return FBang(negate(a.body))
    if isinstance(a, FForall):
        return FExists(a.var, negate(a.body))
    if isinstance(a, FExists):
        return FForall(a.var, negate(a.body))
    raise TypeError(f"not a formula: {a!r}")


def subst_value_formula(a: Formula, var: str, value: int) -> Formula:
    if isinstance(a, FAtom):
        args = tuple(value if arg == var else arg for arg in a.args)
        return FAtom(a.ident, a.pos, args)
    if isinstance(a, (FTensor, FPar, FWith, FPlus)):
        return type(a)(
            subst_value_formula(a.left, var, value),
            subst_value_formula(a.right, var, value),
        )
    if isinstance(a, (FBang, FQuest)):
        return type(a)(subst_value_formula(a.body, var, value))
    if isinstance(a, (FForall, FExists)):
        if a.var == var:
            return a
        return type(a)(a.var, subst_value_formula(a.body, var, value))
    raise TypeError(f"not a formula: {a!r}")


def free_value_vars_formula(a: Formula) -> frozenset:
    if isinstance(a, FAtom):
        return frozenset(arg for arg in a.args if isinstance(arg, str))
    if isinstance(a, (FTensor, FPar, FWith, FPlus)):
        return free_value_vars_formula(a.left) | free_value_vars_formula(a.right)
    if isinstance(a, (FBang, FQuest)):
        return free_value_vars_formula(a.body)
    if isinstance(a, (FForall, FExists)):
        return free_value_vars_formula(a.body) - {a.var}
    raise TypeError(f"not a formula: {a!r}")


def print_formula(a: Formula) -> str:
    def prn(f: Formula, need_parens: bool) -> str:
        if isinstance(f, FAtom):
            base = ("" if f.pos else "~") + f.ident
            if f.args:
                base += "(" + ",".join(str(x) for x in f.args) + ")"
            return base
        if isinstance(f, FBang):
            return "!" + prn(f.body, True)
        if isinstance(f, FQuest):
            return "?" + prn(f.body, True)
        if isinstance(f, (FTensor, FPar, FWith, FPlus)):
            op = {FTensor: "*", FPar: "@", FWith: "&", FPlus: "(+)"}[type(f)]
            s = prn(f.left, True) + op + prn(f.right, True)
            return f"({s})" if need_parens else s
        if isinstance(f, (FForall, FExists)):
            q = "forall" if isinstance(f, FForall) else "exists"
            s = f"{q} {f.var}. " + prn(f.body, False)
            return f"({s})" if need_parens else s
        raise TypeError(f"not a formula: {f!r}")

    return prn(a, False)


_F_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<plus>\(\+\))
      | (?P<int>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<sym>[~*@&!?().,])
    """,
    re.VERBOSE,
)


class FormulaParseError(ValueError):
    pass


def parse_formula(text: str) -> Formula:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _F_TOKEN.match(text, pos)
        if m is None:
            raise FormulaParseError(f"unexpected character {text[pos]!r} at {pos}")
        if m.lastgroup != "ws":
            tokens.append(m.group(0))
        pos = m.end()
    tokens.append("<eof>")
    i = 0

    def peek():
        return tokens[i]

    def take(expected=None):
        nonlocal i
        tok = tokens[i]
        if expected is not None and tok != expected:
            raise FormulaParseError(f"expected {expected!r}, found {tok!r}")
        i += 1
        return tok

    def parse_expr() -> Formula:
        if peek() in ("forall", "exists"):
            q = take()
            var = take()
            take(".")
            body = parse_expr()
            return FForall(var, body) if q == "forall" else FExists(var, body)
        left = parse_unary()
        while peek() in ("*", "@", "&", "(+)"):
            op = take()
            right = parse_unary()
            cls = {"*": FTensor, "@": FPar, "&": FWith, "(+)": FPlus}[op]
            left = cls(left, right)
        return left

    def parse_unary() -> Formula:
        tok = peek()
        if tok == "!":
            take()
            return FBang(parse_unary())
        if tok == "?":
            take()
            return FQuest(parse_unary())
        if tok == "~":
            take()
            inner = parse_unary()
            return negate(inner)
        if tok == "(":
            take()
            inner = parse_expr()
            take(")")
            return inner
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok) and tok not in ("forall", "exists"):
            take()
            args: list = []
            if peek() == "(":
                take()
                while True:
                    arg = take()
                    args.append(int(arg) if arg.isdigit() else arg)
                    if peek() != ",":
                        break
                    take(",")
                take(")")
            return FAtom(tok, True, tuple(args))
        raise FormulaParseError(f"unexpected token {tok!r}")

    out = parse_expr()
    if peek() != "<eof>":
        raise FormulaParseError(f"trailing input {peek()!r}")
    return out


# ---------------------------------------------------------------------------
# Proof trees

Sequent = tuple  # tuple[Formula, ...]


def print_sequent(seq: Sequent) -> str:
    return "|- " + ", ".join(print_formula(f) for f in seq)


class Proof:
    """A proof node.  Its premises are its fields annotated `Proof`, in
    field order; every other field is a side datum of the rule."""

    __slots__ = ()
    premise_names: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.premise_names = tuple(n for n, t in cls.__annotations__.items() if t == "Proof")

    def premises(self) -> tuple:
        out = []
        for name in self.premise_names:
            out.append(getattr(self, name))
        return tuple(out)

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


@dataclass
class CheckResult:
    sequent: Optional[Sequent]
    error: Optional[str] = None
    path: tuple = ()

    @property
    def ok(self) -> bool:
        return self.error is None


def _resolve(pos: int, length: int) -> int:
    return length - 1 if pos == -1 else pos


def check_proof(p: Proof, path: tuple = (), _conclusions: Optional[dict] = None) -> CheckResult:
    """Checks the premises in order, stopping at the first failure, then
    this rule's side condition; returns the conclusion.

    Given `_conclusions`, it also records there the conclusion of every
    sub-proof below `p`, by `id` of the node, as (node, sequent): the
    entry keeps the node alive, so its id is not reused while the table
    is.  One pass then gives every premise's conclusion."""

    def fail(msg: str) -> CheckResult:
        return CheckResult(None, msg, path)

    if not isinstance(p, Proof):
        return fail(f"unknown proof node {p!r}")
    seqs = []
    for k, q in enumerate(p.premises()):
        sub = check_proof(q, path + (k,), _conclusions)
        if not sub.ok:
            return sub
        if _conclusions is not None:
            _conclusions[id(q)] = (q, sub.sequent)
        seqs.append(sub.sequent)
    s = seqs[0] if seqs else ()

    if isinstance(p, PAxiom):
        return CheckResult((negate(p.formula), p.formula))
    if isinstance(p, PCut):
        ls, rs = seqs
        i = _resolve(p.pos_left, len(ls))
        j = _resolve(p.pos_right, len(rs))
        if not (0 <= i < len(ls)) or ls[i] != p.formula:
            return fail(
                f"cut formula {print_formula(p.formula)} not at position {i} of {print_sequent(ls)}"
            )
        if not (0 <= j < len(rs)) or rs[j] != negate(p.formula):
            return fail(
                f"dual cut formula not at position {j} of {print_sequent(rs)}"
            )
        conclusion = ls[:i] + ls[i + 1 :] + rs[:j] + rs[j + 1 :]
        if not conclusion:
            return fail("cut would produce an empty sequent")
        return CheckResult(conclusion)
    if isinstance(p, PTensorR):
        ls, rs = seqs
        if not ls or not rs:
            return fail("tensor premises must be nonempty")
        return CheckResult(ls[:-1] + rs[:-1] + (FTensor(ls[-1], rs[-1]),))
    if isinstance(p, PParR):
        if len(s) < 2:
            return fail("par needs two formulas to merge")
        return CheckResult(s[:-2] + (FPar(s[-2], s[-1]),))
    if isinstance(p, PWithR):
        ls, rs = seqs
        if not ls or not rs:
            return fail("with premises must be nonempty")
        if ls[:-1] != rs[:-1]:
            return fail("with premises must share their context")
        return CheckResult(ls[:-1] + (FWith(ls[-1], rs[-1]),))
    if isinstance(p, PPlusR1):
        if not s:
            return fail("plus premise must be nonempty")
        return CheckResult(s[:-1] + (FPlus(s[-1], p.other),))
    if isinstance(p, PPlusR2):
        if not s:
            return fail("plus premise must be nonempty")
        return CheckResult(s[:-1] + (FPlus(p.other, s[-1]),))
    if isinstance(p, PExchange):
        if sorted(p.perm) != list(range(len(s))):
            return fail(f"invalid permutation {p.perm} for {print_sequent(s)}")
        return CheckResult(tuple(s[k] for k in p.perm))
    if isinstance(p, PWeak):
        return CheckResult(s + (FQuest(p.formula),))
    if isinstance(p, PDerel):
        if not s:
            return fail("dereliction premise must be nonempty")
        return CheckResult(s[:-1] + (FQuest(s[-1]),))
    if isinstance(p, PContr):
        if len(s) < 2 or s[-1] != s[-2]:
            return fail("contraction needs two equal final formulas")
        if not isinstance(s[-1], FQuest):
            return fail("contraction applies to ?-formulas only")
        return CheckResult(s[:-1])
    if isinstance(p, PProm):
        if not s:
            return fail("promotion premise must be nonempty")
        if not all(isinstance(f, FQuest) for f in s[:-1]):
            return fail("promotion context must consist of ?-formulas")
        return CheckResult(s[:-1] + (FBang(s[-1]),))
    if isinstance(p, PForallR):
        if not s:
            return fail("forall premise must be nonempty")
        for f in s[:-1]:
            if p.var in free_value_vars_formula(f):
                return fail(f"value variable {p.var} free in the context")
        return CheckResult(s[:-1] + (FForall(p.var, s[-1]),))
    if isinstance(p, PExistsR):
        if not isinstance(p.formula, FExists):
            return fail("exists rule must carry an existential formula")
        if not s:
            return fail("exists premise must be nonempty")
        expected = subst_value_formula(p.formula.body, p.formula.var, p.value)
        if s[-1] != expected:
            return fail(
                f"premise ends with {print_formula(s[-1])}, expected "
                f"{print_formula(expected)}"
            )
        return CheckResult(s[:-1] + (p.formula,))
    return fail(f"unknown proof node {p!r}")


def conclusion(p: Proof) -> Sequent:
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


def _exchange_to(proof: Proof, length: int, order: list) -> Proof:
    if list(order) == list(range(length)):
        return proof
    return PExchange(tuple(order), proof)


def _intro_arity(p: Proof) -> Optional[int]:
    """Number of trailing formulas of each premise consumed by the last
    rule when it introduces one formula at the end; None when not of that
    shape."""
    if isinstance(p, (PParR, PContr)):
        return 2
    if isinstance(p, (PDerel, PForallR, PExistsR, PPlusR1, PPlusR2, PWithR)):
        return 1
    if isinstance(p, PWeak):
        return 0
    return None


def reduce_cut(cut: PCut) -> tuple:
    """One standard cut-elimination step at this node: the reduced proof
    and the kind of step performed."""
    ls = conclusion(cut.left)
    rs = conclusion(cut.right)
    i = _resolve(cut.pos_left, len(ls))
    j = _resolve(cut.pos_right, len(rs))
    target = ls[:i] + ls[i + 1 :] + rs[:j] + rs[j + 1 :]
    left, right = cut.left, cut.right

    # axiom cuts
    if isinstance(left, PAxiom):
        # leftover formula of the axiom goes to the front of the result
        order = [j] + [k for k in range(len(rs)) if k != j]
        return _exchange_to(right, len(rs), order), "axiom-left"
    if isinstance(right, PAxiom):
        order = [k for k in range(len(ls)) if k != i] + [i]
        return _exchange_to(left, len(ls), order), "axiom-right"

    # strip exchanges
    if isinstance(left, PExchange):
        i2 = left.perm[i]
        new_cut = PCut(cut.formula, left.premise, right, i2, j)
        # order of the new conclusion: (inner minus i2) ++ (rs minus j)
        order = [m - (m > i2) for k, m in enumerate(left.perm) if k != i]
        order += range(len(ls) - 1, len(target))
        return _exchange_to(new_cut, len(target), order), "exchange-left"
    if isinstance(right, PExchange):
        j2 = right.perm[j]
        new_cut = PCut(cut.formula, left, right.premise, i, j2)
        order = list(range(len(ls) - 1))
        order += [len(ls) - 1 + m - (m > j2) for k, m in enumerate(right.perm) if k != j]
        return _exchange_to(new_cut, len(target), order), "exchange-right"

    left_principal = i == len(ls) - 1
    right_principal = j == len(rs) - 1

    if left_principal and right_principal:
        step = _principal(cut, left, right)
        if step is not None:
            return step

    if not left_principal:
        step = _push_left(cut, ls, rs, i, j)
        if step is not None:
            return step
    if not right_principal:
        step = _push_right(cut, ls, rs, i, j)
        if step is not None:
            return step
    raise NotReducible(
        f"no reduction for cut on {print_formula(cut.formula)} "
        f"(left {type(left).__name__}, right {type(right).__name__})"
    )


def _principal(cut: PCut, left: Proof, right: Proof) -> Optional[Proof]:
    c = cut.formula

    if isinstance(left, PTensorR) and isinstance(right, PParR):
        # C = A (x) B against A' par B'
        p1, p2, p3 = left.left, left.right, right.premise
        s1, s2, s3 = conclusion(p1), conclusion(p2), conclusion(p3)
        a, b = s1[-1], s2[-1]
        g1, g2, d = len(s1) - 1, len(s2) - 1, len(s3) - 2
        inner = PCut(a, p1, p3, len(s1) - 1, len(s3) - 2)
        outer = PCut(b, p2, inner, len(s2) - 1, -1)
        order = list(range(g2, g2 + g1)) + list(range(g2)) + list(range(g1 + g2, g1 + g2 + d))
        return _exchange_to(outer, g1 + g2 + d, order), "tensor-par"

    if isinstance(left, PParR) and isinstance(right, PTensorR):
        p1, p2, p3 = left.premise, right.left, right.right
        s1, s2, s3 = conclusion(p1), conclusion(p2), conclusion(p3)
        a, b = s1[-2], s1[-1]
        g, d1, d2 = len(s1) - 2, len(s2) - 1, len(s3) - 1
        c1 = PCut(b, p1, p3, len(s1) - 1, len(s3) - 1)
        c2 = PCut(a, c1, p2, g, len(s2) - 1)
        # c2 concludes Γ ++ Δ2 ++ Δ1; target is Γ ++ Δ1 ++ Δ2
        order = list(range(g)) + list(range(g + d2, g + d2 + d1)) + list(range(g, g + d2))
        return _exchange_to(c2, g + d1 + d2, order), "par-tensor"

    if isinstance(left, PWithR) and isinstance(right, PPlusR1):
        return PCut(conclusion(left.left)[-1], left.left, right.premise, -1, -1), "with-plus1"
    if isinstance(left, PWithR) and isinstance(right, PPlusR2):
        return PCut(conclusion(left.right)[-1], left.right, right.premise, -1, -1), "with-plus2"
    if isinstance(left, PPlusR1) and isinstance(right, PWithR):
        return PCut(conclusion(left.premise)[-1], left.premise, right.left, -1, -1), "plus1-with"
    if isinstance(left, PPlusR2) and isinstance(right, PWithR):
        return PCut(conclusion(left.premise)[-1], left.premise, right.right, -1, -1), "plus2-with"

    if isinstance(left, PProm) and isinstance(right, PWeak):
        s1 = conclusion(left.premise)
        context = s1[:-1]  # all ?-formulas
        out = right.premise
        for qf in context:
            out = PWeak(qf.body, out)
        d = len(conclusion(right.premise))
        m = len(context)
        order = list(range(d, d + m)) + list(range(d))
        return _exchange_to(out, d + m, order), "prom-weak"
    if isinstance(left, PWeak) and isinstance(right, PProm):
        s2 = conclusion(right.premise)
        context = s2[:-1]
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
        s1 = conclusion(left.premise)
        m = len(s1) - 1
        c1 = PCut(cut.formula, left, right.premise, -1, -1)
        c2 = PCut(cut.formula, left, c1, -1, -1)
        d = len(conclusion(right.premise)) - 2
        return _contract_pairs(c2, m, d, context_first=True), "prom-contr"
    if isinstance(left, PContr) and isinstance(right, PProm):
        s2 = conclusion(right.premise)
        m = len(s2) - 1
        sl = conclusion(left.premise)
        g = len(sl) - 2
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
        body = conclusion(right.premise)[-1]
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
        out = _exchange_to(out, len(slots), order)
        slots = [slots[x] for x in order]
        out = PContr(out)
        slots = slots[:-2] + [("a", k)]
    # now: d's in order followed by contracted context
    if context_first:
        order = list(range(rest, rest + m)) + list(range(rest))
    else:
        order = list(range(len(slots)))
    return _exchange_to(out, len(slots), order)


def _push_left(cut: PCut, ls, rs, i: int, j: int) -> Optional[Proof]:
    left, right = cut.left, cut.right
    dlen = len(rs) - 1
    arity = _intro_arity(left)
    if arity is not None:
        gg = len(ls) - 1
        # each premise cut: (Γ minus i) ++ tail ++ Δ'; move the tail to the end
        order = (
            list(range(gg - 1))
            + list(range(gg - 1 + arity, gg - 1 + arity + dlen))
            + list(range(gg - 1, gg - 1 + arity))
        )
        reapplied = left.with_premises(tuple(
            _exchange_to(PCut(cut.formula, prem, right, i, j), gg - 1 + arity + dlen, order)
            for prem in left.premises()
        ))
        # reapplied: (Γ minus i) ++ Δ' ++ intro; target wants intro before Δ'
        order2 = list(range(gg - 1)) + [gg - 1 + dlen] + list(range(gg - 1, gg - 1 + dlen))
        return _exchange_to(reapplied, gg + dlen, order2), f"push-left-{type(left).__name__[1:].lower()}"
    if isinstance(left, PTensorR):
        s1 = conclusion(left.left)
        s2 = conclusion(left.right)
        g1, g2 = len(s1) - 1, len(s2) - 1
        if i < g1:
            inner = PCut(cut.formula, left.left, right, i, j)
            # (Γ1 minus i) ++ [A] ++ Δ'; move A to the end
            order = list(range(g1 - 1)) + list(range(g1, g1 + dlen)) + [g1 - 1]
            moved = _exchange_to(inner, g1 + dlen, order)
            reapplied = PTensorR(moved, left.right)
            # (Γ1-i) ++ Δ' ++ Γ2 ++ [AxB]; target (Γ1-i) ++ Γ2 ++ [AxB] ++ Δ'
            n = g1 - 1 + dlen + g2 + 1
            order2 = (
                list(range(g1 - 1))
                + list(range(g1 - 1 + dlen, g1 - 1 + dlen + g2 + 1))
                + list(range(g1 - 1, g1 - 1 + dlen))
            )
            return _exchange_to(reapplied, n, order2), "push-left-tensorr"
        if g1 <= i < g1 + g2:
            i2 = i - g1
            inner = PCut(cut.formula, left.right, right, i2, j)
            order = list(range(g2 - 1)) + list(range(g2, g2 + dlen)) + [g2 - 1]
            moved = _exchange_to(inner, g2 + dlen, order)
            reapplied = PTensorR(left.left, moved)
            # Γ1 ++ (Γ2-i) ++ Δ' ++ [AxB]; target Γ1 ++ (Γ2-i) ++ [AxB] ++ Δ'
            n = g1 + g2 - 1 + dlen + 1
            order2 = (
                list(range(g1 + g2 - 1))
                + [n - 1]
                + list(range(g1 + g2 - 1, n - 1))
            )
            return _exchange_to(reapplied, n, order2), "push-left-tensorr"
    return None


def _push_right(cut: PCut, ls, rs, i: int, j: int) -> Optional[Proof]:
    left, right = cut.left, cut.right
    glen = len(ls) - 1
    arity = _intro_arity(right)
    if arity is not None:
        # each premise cut: Γ' ++ (Θ minus j) ++ tail, tail already last
        premises = tuple(PCut(cut.formula, left, prem, i, j) for prem in right.premises())
        return right.with_premises(premises), f"push-right-{type(right).__name__[1:].lower()}"
    if isinstance(right, PTensorR):
        s2 = conclusion(right.left)
        s3 = conclusion(right.right)
        d1, d2 = len(s2) - 1, len(s3) - 1
        if j < d1:
            inner = PCut(cut.formula, left, right.left, i, j)
            return PTensorR(inner, right.right), "push-right-tensorr"
        if d1 <= j < d1 + d2:
            inner = PCut(cut.formula, left, right.right, i, j - d1)
            reapplied = PTensorR(right.left, inner)
            # Δ1 ++ Γ' ++ (Δ2-j) ++ [AxB]; target Γ' ++ Δ1 ++ (Δ2-j) ++ [AxB]
            n = d1 + glen + d2 - 1 + 1
            order = (
                list(range(d1, d1 + glen))
                + list(range(d1))
                + list(range(d1 + glen, n))
            )
            return _exchange_to(reapplied, n, order), "push-right-tensorr"
    return None


# ---------------------------------------------------------------------------
# Driving cut elimination


def has_cut(p: Proof) -> bool:
    if isinstance(p, PCut):
        return True
    return any(has_cut(q) for q in p.premises())


def find_redex(p: Proof, path: tuple = ()) -> Optional[tuple]:
    """Leftmost-innermost reducible cut: premises first, then this node."""
    for k, q in enumerate(p.premises()):
        found = find_redex(q, path + (k,))
        if found is not None:
            return found
    if isinstance(p, PCut):
        try:
            reduce_cut(p)
            return path
        except NotReducible:
            return None
    return None


def proof_at(p: Proof, path: tuple) -> Proof:
    for k in path:
        p = p.premises()[k]
    return p


def replace_at(p: Proof, path: tuple, repl: Proof) -> Proof:
    if not path:
        return repl
    k = path[0]
    premises = list(p.premises())
    premises[k] = replace_at(premises[k], path[1:], repl)
    return p.with_premises(tuple(premises))


def cut_step(p: Proof, path: tuple) -> tuple:
    """Reduces the cut at `path`: the new proof and the step kind."""
    node = proof_at(p, path)
    if not isinstance(node, PCut):
        raise NotReducible(f"no cut at path {path}")
    reduced, kind = reduce_cut(node)
    return replace_at(p, path, reduced), kind


@dataclass
class ElimResult:
    proof: Proof
    steps: int
    status: str  # "done" | "bound" | "stuck"
    trail: list = field(default_factory=list)  # intermediate proofs
    kinds: list = field(default_factory=list)  # step kind per transition


def cut_eliminate(p: Proof, step_bound: int = 200, keep_trail: bool = False) -> ElimResult:
    steps = 0
    trail = [p] if keep_trail else []
    kinds: list = []
    current = p
    while has_cut(current):
        if steps >= step_bound:
            return ElimResult(current, steps, "bound", trail, kinds)
        path = find_redex(current)
        if path is None:
            return ElimResult(current, steps, "stuck", trail, kinds)
        current, kind = cut_step(current, path)
        steps += 1
        kinds.append(kind)
        if keep_trail:
            trail.append(current)
    return ElimResult(current, steps, "done", trail, kinds)


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
    on a malformed node."""
    if not isinstance(data, dict):
        raise ValueError(f"proof node must be a JSON object, found {reprlib.repr(data)}")
    rule = data.get("rule")
    cls = _RULES.get(rule) if isinstance(rule, str) else None
    if cls is None:
        raise ValueError(f"unknown proof rule {rule!r}")
    premises = data.get("premises", [])
    if not isinstance(premises, list) or len(premises) != len(cls.premise_names):
        raise ValueError(
            f"proof rule {rule!r} takes {len(cls.premise_names)} premises, "
            f"found {reprlib.repr(premises)}"
        )
    kwargs = {name: proof_from_json(q) for name, q in zip(cls.premise_names, premises)}
    for f in fields(cls):
        if f.name in kwargs:
            continue
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

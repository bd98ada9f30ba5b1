"""Named verification suites for the combinator laws and the category
instance.  The CLI runs them at small trial counts; the acceptance tests
run the same code at the full counts.  All randomness flows from the
seed, and reports are plain dicts with deterministic ordering."""

from __future__ import annotations

import random
from typing import Optional

from . import combinators as C
from .equivalence import failures_equiv, weak_bisim
from .generators import equivalent_pair, random_context, random_term
from .names import (
    Compose,
    FiniteMap,
    KwayDecode,
    LCODE,
    Name,
    Piecewise,
    RCODE,
    REGISTRY,
    l_code,
    negative,
    positive,
)
from .parsing import parse_term
from .semantics import ExplorationBudget
from .semtypes import (
    RepPER,
    SemType,
    check_category_laws,
    law_outcome,
    tensor_type,
    unit_type,
    with_type,
)
from .terms import NIL, Par, Prefix, Term, print_term, rename


def _atoms():
    return (REGISTRY.intern("a"), REGISTRY.intern("b"))


def _law(report: dict, name: str, ok: Optional[bool], detail: str = ""):
    """Records a law check: its outcome is True, False, or None when
    undecided (`Verdict.ok`)."""
    report["checks"].append({"law": name, "ok": ok, "detail": detail})
    report["ok"] = law_outcome((report["ok"], ok))


def _law_equal(report: dict, name: str, res, about: str = ""):
    """Records the law `name` unless `res` is "equal": failed when it is
    decided, else undecided.  The detail is the verdict, then `about`."""
    if not res.ok:
        detail = f"{res.verdict} {about}" if about else res.verdict
        _law(report, name, res.ok, detail)


def identity_suite(trials: int, seed: int, budget: ExplorationBudget) -> dict:
    """Both application identities against the alphabet wire, on seeded
    random finite-state terms over two atoms."""
    rng = random.Random(seed)
    atoms = _atoms()
    report = {"suite": "identity", "trials": trials, "checks": [], "ok": True}
    wire = C.identity_wire(frozenset(atoms))
    for i in range(trials):
        p = random_term(rng, atoms, rng.randint(2, 9))
        r1 = failures_equiv(C.lapp(p, wire), p, budget)
        _law_equal(report, f"trial {i}: lapp(P, I) = P", r1, print_term(p))
        r2 = failures_equiv(C.rapp(wire, p), p, budget)
        _law_equal(report, f"trial {i}: rapp(I, P) = P", r2, print_term(p))
    _law(report, f"identity laws on {trials} terms", report["ok"])
    return report


def composition_suite(trials: int, seed: int, budget: ExplorationBudget) -> dict:
    """The five composition facts on seeded random triples."""
    rng = random.Random(seed)
    atoms = _atoms()
    report = {"suite": "composition", "trials": trials, "checks": [], "ok": True}
    for i in range(trials):
        p = random_term(rng, atoms, rng.randint(2, 7))
        q = random_term(rng, atoms, rng.randint(2, 7))
        r = random_term(rng, atoms, rng.randint(2, 7))
        cases = [
            ("(P;Q);R = P;(Q;R)", C.seq(C.seq(p, q), r), C.seq(p, C.seq(q, r))),
            ("P;I = P", C.seq(p, C.identity_wire(C.right_interface(p))), p),
            ("I;P = P", C.seq(C.identity_wire(C.left_interface(p)), p), p),
            ("lapp(P,(Q;R)) = lapp(lapp(P,Q),R)", C.lapp(p, C.seq(q, r)), C.lapp(C.lapp(p, q), r)),
            ("rapp((P;Q),R) = rapp(P,rapp(Q,R))", C.rapp(C.seq(p, q), r), C.rapp(p, C.rapp(q, r))),
        ]
        for name, lhs, rhs in cases:
            res = failures_equiv(lhs, rhs, budget)
            _law_equal(report, f"trial {i}: {name}", res, f"P={print_term(p)[:50]}")
    _law(report, f"composition laws on {trials} triples", report["ok"])
    return report


def pairing_counterexample() -> tuple:
    """A concrete instance where the choice-distribution law holds under
    failures equivalence but not under weak bisimulation: the argument
    commits internally before the external choice on one side only."""
    r = parse_term("({c}.0 | ({~c}.{x}.0 + {~c}.{y}.0)) \\ {c}")
    p = parse_term("{~l(x)}.{r(p1)}.0")
    q = parse_term("{~l(y)}.{r(q1)}.0")
    lhs = C.lapp(r, C.pairing(p, q))
    rhs = C.pairing(C.lapp(r, p), C.lapp(r, q), port="plain")
    return lhs, rhs


def pairing_suite(trials: int, seed: int, budget: ExplorationBudget) -> dict:
    """The three choice laws: selection laws under both equivalences,
    distribution under failures only, with the recorded weak-bisimulation
    counterexample (non-divergent argument)."""
    rng = random.Random(seed)
    atoms = _atoms()
    report = {"suite": "pairing", "trials": trials, "checks": [], "ok": True}
    for i in range(trials):
        p = random_term(rng, atoms, rng.randint(2, 6))
        q = random_term(rng, atoms, rng.randint(2, 6))
        r = random_term(rng, atoms, rng.randint(2, 6))
        selection = (
            ("<P,Q>;inl(R) = P;R", C.seq(C.pairing(p, q), C.inj_l(r)), C.seq(p, r)),
            ("<P,Q>;inr(R) = Q;R", C.seq(C.pairing(p, q), C.inj_r(r)), C.seq(q, r)),
        )
        for mode, decide in (("failures", failures_equiv), ("weak bisim", weak_bisim)):
            for law, lhs, rhs in selection:
                _law_equal(report, f"trial {i}: {law} ({mode})", decide(lhs, rhs, budget))
        law3_l = C.lapp(r, C.pairing(p, q))
        law3_r = C.pairing(C.lapp(r, p), C.lapp(r, q), port="plain")
        res = failures_equiv(law3_l, law3_r, budget)
        _law_equal(report, f"trial {i}: distribution law (failures)", res)
    lhs, rhs = pairing_counterexample()
    fe = failures_equiv(lhs, rhs, budget)
    _law(report, "counterexample instance: equal under failures", fe.ok, fe.verdict)
    wb = weak_bisim(lhs, rhs, budget)
    _law(
        report,
        "counterexample instance: distinguished under weak bisimulation",
        None if wb.ok is None else not wb.ok,
        wb.verdict,
    )
    _law(report, f"pairing laws on {trials} triples", report["ok"])
    return report


# ---------------------------------------------------------------------------
# Fixed category instance


def atom_type(ident: str) -> SemType:
    n = REGISTRY.intern(ident)
    pos = Prefix(frozenset([positive(n)]), NIL)
    neg = Prefix(frozenset([negative(n)]), NIL)
    return SemType(RepPER(((pos,),)), RepPER(((neg,),)), frozenset([n]))


def _relay_renamed_right(src: Name, dst: Name) -> Term:
    """Wire over {src} with its right half renamed to {dst}: the
    translator morphism between the two atom types."""
    wire = C.identity_wire(frozenset([src]))
    ren = Piecewise(
        [
            Compose(LCODE, KwayDecode(1, 2)),
            Compose(Compose(RCODE, FiniteMap([(src, dst)])), KwayDecode(2, 2)),
        ]
    )
    return rename(wire, ren)


def _drop_left_morphism(a: Name, b: Name) -> Term:
    """Tensor-of(a,b) to b: consume the left component, relay the right."""
    consumer = Prefix(frozenset([negative(l_code(l_code(a)))]), NIL)
    wire = C.identity_wire(frozenset([b]))
    ren = Piecewise(
        [
            Compose(Compose(LCODE, RCODE), KwayDecode(1, 2)),
            Compose(RCODE, KwayDecode(2, 2)),
        ]
    )
    return Par(consumer, rename(wire, ren))


def category_instance(budget: ExplorationBudget) -> tuple:
    a = REGISTRY.intern("a")
    b = REGISTRY.intern("b")
    ta = atom_type("a")
    tb = atom_type("b")
    tu = unit_type()
    tab = tensor_type(ta, tb, budget)
    twab = with_type(ta, tb)
    types = {"A": ta, "B": tb, "I": tu, "AxB": tab, "AwB": twab}
    morphisms = [
        {"name": "idA", "src": "A", "dst": "A", "term": C.identity_wire(frozenset([a]))},
        {"name": "idB", "src": "B", "dst": "B", "term": C.identity_wire(frozenset([b]))},
        {"name": "a2b", "src": "A", "dst": "B", "term": _relay_renamed_right(a, b)},
        {"name": "b2a", "src": "B", "dst": "A", "term": _relay_renamed_right(b, a)},
        {"name": "dropA", "src": "A", "dst": "I", "term": C.tensor(Prefix(frozenset([negative(a)]), NIL), NIL)},
        {"name": "dropB", "src": "B", "dst": "I", "term": C.tensor(Prefix(frozenset([negative(b)]), NIL), NIL)},
        {"name": "mkA", "src": "I", "dst": "A", "term": C.tensor(NIL, Prefix(frozenset([positive(a)]), NIL))},
        {"name": "mkB", "src": "I", "dst": "B", "term": C.tensor(NIL, Prefix(frozenset([positive(b)]), NIL))},
        {"name": "sndAB", "src": "AxB", "dst": "B", "term": _drop_left_morphism(a, b)},
        {"name": "a2a", "src": "A", "dst": "A", "term": _relay_renamed_right(a, a)},
    ]
    product_cases = [("idA", "a2b"), ("b2a", "idB")]
    return types, morphisms, product_cases


def product_suite(budget: ExplorationBudget) -> dict:
    types, morphisms, product_cases = category_instance(budget)
    report = check_category_laws(types, morphisms, budget, product_cases)
    report["suite"] = "product"
    return report


def congruence_suite(trials: int, seed: int, budget: ExplorationBudget) -> dict:
    """Random one-hole contexts applied to equivalent pairs."""
    rng = random.Random(seed)
    atoms = _atoms()
    report = {"suite": "congruence", "trials": trials, "checks": [], "ok": True}
    for i in range(trials):
        p, q = equivalent_pair(rng, atoms, rng.randint(2, 6))
        ctx = random_context(rng, atoms, rng.randint(1, 5))
        res = failures_equiv(ctx(p), ctx(q), budget, depth=5)
        if res.verdict == "distinguished":
            _law(report, f"trial {i}: C[P] = C[Q]", False, str(res.witness))
    _law(report, f"congruence on {trials} contexts", report["ok"])
    return report


TRIALS = 25


def run_exercises(seed: int, budget: ExplorationBudget, trials: int = TRIALS) -> dict:
    """The four named suites at CLI scale.  A suite's "ok", and the
    report's, is False when a check fails, else None when one is
    undecided, else True."""
    suites = [
        identity_suite(trials, seed, budget),
        composition_suite(trials, seed + 1, budget),
        pairing_suite(max(5, trials // 2), seed + 2, budget),
        product_suite(budget),
    ]
    return {"suites": suites, "ok": law_outcome(s["ok"] for s in suites)}

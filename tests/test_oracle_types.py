"""`classify` and `total` against the independent oracle of the typed
layer (`oracle_types`), on the atom and unit types, their duals, and the
tensors and withs of pairs of them; `perp` against the oracle's
divergence, on every pair of small terms; `is_morphism` against the
oracle's classes of each image, on the category instance of
`exercises`.  Each question is asked cold, after
`_MEMO.clear()` on a freshly built type, and then warm, on the same type,
so a kept answer is checked as well as a fresh one.  A question the
oracle cannot finish is skipped and counted."""

import random
from itertools import product

from oracle_types import Undecided, classify as oracle_classify, diverges, total as oracle_total

from procreal.combinators import identity_wire, lapp, rapp, swap_halves
from procreal.equivalence import perp
from procreal.exercises import atom_type, category_instance
from procreal.generators import enumerate_terms, random_term
from procreal.names import ALL_LABELS, REGISTRY
from procreal.parsing import parse_term
from procreal.semantics import _MEMO, ExplorationBudget
from procreal.semtypes import (
    RepPER, SemType, classify, is_morphism, tensor_type, total, unit_type, with_type,
)
from procreal.terms import NIL, TAU, Par, Prefix, Restrict, Sum, print_term

BUD = ExplorationBudget(max_states=2000)
# Random terms classified per type, over its interface names.
RANDOM_TERMS = 16


def _loop_type() -> SemType:
    """The unit with a diverging negative, so that totality can fail."""
    return SemType(RepPER(((parse_term("0"),),)), RepPER(((parse_term("rec X. {}.X"),),)), frozenset())


def _types() -> dict:
    """The types checked, by name, each as a function that makes it
    afresh: the atom types, the unit and their duals, and the tensor and
    with of each pair of them; then the unit with a diverging negative,
    its dual, and their tensors and withs with the atom type `a`."""
    base = {"a": lambda: atom_type("a"), "b": lambda: atom_type("b"), "1": unit_type}
    base.update({f"{x}*": lambda build=build: build().dual() for x, build in base.items()})
    types = dict(base)
    pairs = list(product(base.items(), repeat=2))
    loops = {"loop": _loop_type, "loop*": lambda: _loop_type().dual()}
    types.update(loops)
    pairs += product(loops.items(), [("a", base["a"])])
    for (x, bx), (y, by) in pairs:
        types[f"({x} x {y})"] = lambda bx=bx, by=by: tensor_type(bx(), by(), BUD)
        types[f"({x} & {y})"] = lambda bx=bx, by=by: with_type(bx(), by())
    return types


TYPES = _types()


def _questions(seed: int, t: SemType) -> list:
    """Every member of `t`'s classes, each after a silent step (its class)
    and as an internal choice with 0 (the same traces, but it may refuse
    everything at once), then seeded random terms over `t`'s interface
    names."""
    members = [u for per in (t.pos, t.neg) for cls in per.classes for u in cls]
    terms = [v for u in members for v in (u, Prefix(TAU, u), Sum(((TAU, u), (TAU, NIL))))]
    names = sorted(t.interface or (), key=lambda n: n.code)
    if names:
        rng = random.Random(seed)
        terms += [random_term(rng, names, rng.randint(1, 8)) for _ in range(RANDOM_TERMS)]
    return list(dict.fromkeys(terms))


def test_classify_agrees_with_the_oracle_cold_and_warm():
    verdicts = []
    skipped = 0
    for seed, (name, build) in enumerate(TYPES.items()):
        for term in _questions(seed, build()):
            for side in ("pos", "neg"):
                _MEMO.clear()
                per = getattr(build(), side)
                cold = classify(term, per, BUD)
                warm = classify(term, per, BUD)
                where = (name, side, print_term(term))
                assert warm == cold, where
                try:
                    expected = oracle_classify(term, per)
                except Undecided:
                    skipped += 1
                    continue
                verdicts.append(cold.verdict)
                assert (cold.verdict, cold.index) == (("no", None) if expected is None else ("class", expected)), where
    # pinned, so that a skip cannot grow unseen
    assert (verdicts.count("class"), verdicts.count("no"), skipped) == (506, 2926, 0)


def test_total_agrees_with_the_oracle_cold_and_warm():
    verdicts = []
    skipped = 0
    for name, build in TYPES.items():
        _MEMO.clear()
        t = build()
        cold = total(t, BUD)
        assert total(t, BUD) == cold, name
        try:
            expected = oracle_total(t)
        except Undecided:
            skipped += 1
            continue
        assert (cold.verdict, cold.witness) == (
            ("yes", None) if expected is None else ("no", tuple(map(print_term, expected)))
        ), name
        verdicts.append(cold.verdict)
    # pinned, so that a skip cannot grow unseen
    assert (verdicts.count("yes"), verdicts.count("no"), skipped) == (80, 4, 0)


def test_perp_agrees_with_the_oracle_cold_and_warm():
    # every ordered pair of the 142 terms up to size 3 over a and b
    terms = list(enumerate_terms((REGISTRY.intern("a"), REGISTRY.intern("b")), 3))
    verdicts = []
    skipped = 0
    for p in terms:
        for q in terms:
            _MEMO.clear()
            cold = perp(p, q)
            assert perp(p, q) == cold, (print_term(p), print_term(q))
            try:
                expected = "no" if diverges(Restrict(Par(p, q), ALL_LABELS)) else "yes"
            except Undecided:
                skipped += 1
                continue
            assert cold.verdict == expected, (print_term(p), print_term(q))
            verdicts.append(cold.verdict)
    # pinned, so that a skip cannot grow unseen
    assert (len(terms), verdicts.count("yes"), verdicts.count("no"), skipped) == (142, 19877, 287, 0)


def _oracle_morphism(realizer, a: SemType, b: SemType) -> tuple:
    """`is_morphism` decided by the oracle's classes: ("morphism", f_plus,
    f_minus) when the images (`lapp`) of each positive class of `a` all
    land in one positive class of `b`, and the preimages (`rapp`) of each
    negative class of `b` in one negative class of `a`; else ("no",)."""
    maps = []
    for classes, image, per in (
        (a.pos.classes, lambda q: lapp(q, realizer), b.pos),
        (b.neg.classes, lambda n: rapp(realizer, n), a.neg),
    ):
        landed = [{oracle_classify(image(u), per) for u in cls} for cls in classes]
        if any(None in found or len(found) != 1 for found in landed):
            return ("no",)
        maps.append(tuple(found.pop() for found in landed))
    return ("morphism", *maps)


def _morphism_cases() -> list:
    """(name, realizer, source, target), on freshly built types: the
    morphisms of `exercises.category_instance`, the identity wire on each
    of its types with an interface, each morphism's dual, each morphism
    against a wrong target (the first type that is not its own), and
    each morphism into the unit taken into `_loop_type` instead, whose
    diverging negative's preimage lands in no negative class of the
    source.  The identity on the with `AwB` is left out: a wire over its
    4 names has 255 branches, and the oracle takes about 14 s on it."""
    types, morphisms, _ = category_instance(BUD)
    cases = [(m["name"], m["term"], types[m["src"]], types[m["dst"]]) for m in morphisms]
    cases += [(f"id{n}", identity_wire(t.interface), t, t) for n, t in types.items()
              if t.interface is not None and n != "AwB"]
    cases += [(m["name"] + "*", swap_halves(m["term"]), types[m["dst"]].dual(), types[m["src"]].dual())
              for m in morphisms]
    cases += [(m["name"] + " wrong", m["term"], types[m["src"]], types[next(n for n in types if n != m["dst"])])
              for m in morphisms]
    cases += [(m["name"] + " loop", m["term"], types[m["src"]], _loop_type()) for m in morphisms if m["dst"] == "I"]
    return cases


def test_is_morphism_agrees_with_the_oracle_cold_and_warm():
    verdicts = []
    skipped = 0
    for k in range(len(_morphism_cases())):
        _MEMO.clear()
        name, term, a, b = _morphism_cases()[k]
        cold = is_morphism(term, a, b, BUD)
        assert is_morphism(term, a, b, BUD) == cold, name
        try:
            expected = _oracle_morphism(term, a, b)
        except Undecided:
            skipped += 1
            continue
        found = (cold.verdict,) if cold.verdict != "morphism" else (
            cold.verdict, cold.witness.f_plus, cold.witness.f_minus)
        assert found == expected, name
        verdicts.append(cold.verdict)
    # pinned, so that a skip cannot grow unseen
    assert (verdicts.count("morphism"), verdicts.count("no"), skipped) == (24, 12, 0)

"""`classify` and `total` against the independent oracle of the typed
layer (`oracle_types`), on the atom and unit types, their duals, and the
tensors and withs of pairs of them; `perp` against the oracle's
divergence, on every pair of small terms.  Each question is asked cold, after
`_MEMO.clear()` on a freshly built type, and then warm, on the same type,
so a kept answer is checked as well as a fresh one.  A question the
oracle cannot finish is skipped and counted."""

import random
from itertools import product

from oracle_types import Undecided, classify as oracle_classify, diverges, total as oracle_total

from procreal.equivalence import perp
from procreal.exercises import atom_type
from procreal.generators import enumerate_terms, random_term
from procreal.names import ALL_LABELS, REGISTRY
from procreal.parsing import parse_term
from procreal.semantics import _MEMO, ExplorationBudget
from procreal.semtypes import RepPER, SemType, classify, tensor_type, total, unit_type, with_type
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

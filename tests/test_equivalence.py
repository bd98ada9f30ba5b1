import gc
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from conftest import subprocess_env
from golden_lines import fresh_lines, golden_lines
from oracle_step import canonical
from oracle_types import reference_failures

from procreal import combinators as C
from procreal import equivalence, semantics
from procreal.combinators import bang
from procreal.equivalence import (
    BudgetExceeded,
    _bounded_route,
    _compare_normal_forms,
    _minimize,
    failures_bounded,
    failures_equiv,
    failures_verdict,
    fingerprint,
    normal_form,
    perp,
    weak_bisim,
)
from procreal.generators import enumerate_terms, equivalent_pair, random_context, random_term
from procreal.names import REGISTRY, negative, positive
from procreal.parsing import parse_term
from procreal.semantics import _MEMO, ExplorationBudget, build_lts
from procreal.terms import NIL, Rec, Rename, Restrict, print_term, subterms

A = REGISTRY.intern("a")
B = REGISTRY.intern("b")
BUD = ExplorationBudget(max_states=2000)


def fs_json(t, k):
    return failures_bounded(t, k, BUD).to_json()


def test_failures_prefix_example():
    # brute force over the 2-state graph: initially only {a} accepted,
    # after the step everything refused
    assert fs_json(parse_term("{a}.0"), 1) == [
        {"trace": [], "acceptances": [["{a}"]]},
        {"trace": ["{a}"], "acceptances": [[]]},
    ]


def test_failures_nil_refuses_everything():
    assert fs_json(NIL, 2) == [{"trace": [], "acceptances": [[]]}]


def test_failures_tau_closure():
    lhs = failures_bounded(parse_term("{}.{a}.0"), 1, BUD)
    rhs = failures_bounded(parse_term("{a}.0"), 1, BUD)
    assert lhs == rhs


def test_failures_acceptances_are_antichains():
    rng = random.Random(21)
    for _ in range(50):
        t = random_term(rng, (A, B), rng.randint(1, 8))
        fs = failures_bounded(t, 3, BUD)
        for family in fs.table.values():
            for acc in family:
                assert not any(other < acc for other in family)


def test_failures_bounded_matches_per_trace_determinisation():
    rng = random.Random(57)
    kinds = set()
    for i in range(300):
        # canonical, because the engine keeps a component that does not
        # move as it was given, and the reference rebuilds every successor
        t = canonical(random_term(rng, (A, B), rng.randint(4, 14)))
        depth = i % 5
        table, admitted = reference_failures(t, depth)
        assert failures_bounded(t, depth, ExplorationBudget(max_states=admitted)).table == table, (
            print_term(t), depth
        )
        if admitted > 1:
            with pytest.raises(BudgetExceeded, match=f"state budget {admitted - 1} exhausted"):
                failures_bounded(t, depth, ExplorationBudget(max_states=admitted - 1))
        todo = [t]
        while todo:
            u = todo.pop()
            kinds.add(type(u))
            todo.extend(subterms(u))
    assert {Rec, Rename, Restrict} <= kinds


def test_normal_form_failures_match_per_trace_determinisation():
    # the two routes share their determinisation and unfolding, so the
    # normal-form route is checked against the reference too
    rng = random.Random(57)
    complete = 0
    for i in range(300):
        t = canonical(random_term(rng, (A, B), rng.randint(4, 14)))
        lts = build_lts(t)
        if not lts.complete:
            continue
        complete += 1
        depth = i % 5
        assert normal_form(lts).failures_to_depth(depth).table == reference_failures(t, depth)[0], (
            print_term(t), depth
        )
    assert complete > 200


# acceptance sets over few actions, so that many contain one another
ACCEPTANCES = st.frozensets(
    st.frozensets(st.sampled_from([positive(A), negative(A), positive(B)]), min_size=1),
    max_size=3,
)


@given(st.one_of(
    st.lists(ACCEPTANCES, max_size=2, unique=True),
    st.lists(ACCEPTANCES, min_size=3, max_size=12, unique=True),
), st.randoms())
def test_minimize_keeps_exactly_the_minimal_sets(family, rng):
    minimal = {x for x in family if not any(y < x for y in family)}
    assert _minimize(set(family)) == minimal
    rng.shuffle(family)
    assert _minimize(set(family)) == minimal


def test_failures_budget_reported():
    with pytest.raises(BudgetExceeded, match="^state budget 20 exhausted$"):
        failures_bounded(bang(parse_term("{}.0")), 3, ExplorationBudget(max_states=20))


@pytest.mark.parametrize("source, depth, budget, per_state, limit", [
    # a swap under a restriction, stacked by each unfolding
    (r"rec X. ({}.X \ {a,b}) [map{a:b,b:a}]", 4, ExplorationBudget(), None, "depth cap 200 reached"),
    # 63 successors in the first state, one allowed per state
    ("{a}.0 | {b}.0 | {c}.0 | {d}.0 | {e}.0 | {f}.0", 2, ExplorationBudget(max_states=64), 1,
     "transition budget 64 exhausted"),
], ids=["depth-cap", "transition-budget"])
def test_failures_bounded_names_the_limit_it_reached(monkeypatch, source, depth, budget, per_state, limit):
    if per_state is not None:
        monkeypatch.setattr(semantics, "TRANSITIONS_PER_STATE", per_state)
    with pytest.raises(BudgetExceeded, match=f"^{limit}$"):
        failures_bounded(parse_term(source), depth, budget)


def test_failures_bounded_matches_golden():
    # the tables and the limits named, the state budget, the transition
    # budget and the depth cap each several times
    lines = fresh_lines("bounded_failures")
    assert lines == golden_lines("bounded_failures")
    outcomes = [line.rsplit(" | ", 1)[1] for line in lines]
    for limit in ("state budget", "transition budget", "depth cap"):
        assert sum(o.startswith(limit) for o in outcomes) >= 5, limit


def test_equiv_reflexive():
    t = parse_term("{a}.{b}.0 + {b}.0")
    assert failures_equiv(t, t, BUD).verdict == "equal"


def test_equiv_distinguishes_choice_point():
    # after {a} only the right side can refuse {b}
    left = parse_term("{a}.({b}.0 + {c}.0)")
    right = parse_term("{a}.{b}.0 + {a}.{c}.0")
    res = failures_equiv(left, right, BUD)
    assert res.verdict == "distinguished"
    assert res.witness["trace"] == ["{a}"]
    assert res.witness["reason"] == "acceptance families differ"


def test_equiv_tells_apart_the_moves_of_an_unstable_state():
    # each root settles by tau into the same stable {c} state, so the root
    # families agree; only the root's own move, {a} or {b}, differs
    left = parse_term(r"({x}.{c}.0 | ({~x}.0 + {a}.0)) \ {x}")
    right = parse_term(r"({x}.{c}.0 | ({~x}.0 + {b}.0)) \ {x}")
    res = failures_equiv(left, right, BUD)
    assert res.verdict == "distinguished"
    assert res.witness == {"trace": ["{a}"], "reason": "trace on one side only", "left": True, "right": False}


def test_equiv_tau_prefix():
    assert failures_equiv(parse_term("{}.{a}.0"), parse_term("{a}.0"), BUD).ok


def test_equiv_unknown_on_budget():
    res = failures_equiv(
        bang(parse_term("{a}.0")), bang(parse_term("{a}.0")),
        ExplorationBudget(max_states=30), depth=2,
    )
    assert res.verdict == "unknown"


def test_bounded_fallback_still_distinguishes():
    # state keys of these grow without bound (the coding renaming stacks
    # up), but the depth-1 difference shows up in the bounded comparison
    p = parse_term("rec X. {a}.(X [n1of3])")
    q = parse_term("rec X. {b}.(X [n1of3])")
    lts = build_lts(p, ExplorationBudget(max_states=30))
    assert not lts.complete
    res = failures_equiv(p, q, ExplorationBudget(max_states=30), depth=2)
    assert res.verdict == "distinguished"


def test_a_partial_left_graph_leaves_the_right_one_unbuilt(monkeypatch):
    # a partial `p` sends the pair to the bounded route whatever `q` is,
    # and weak bisimulation answers with `p`'s limit, so `q`'s graph (or
    # fingerprint) would go unused
    built = []
    monkeypatch.setattr(equivalence, "build_lts", lambda t, budget: built.append(t) or build_lts(t, budget))
    p = parse_term("rec X. {a}.(X [n1of3])")
    q = parse_term("rec X. {b}.(X [n1of3])")
    small = ExplorationBudget(max_states=30)
    res = failures_equiv(p, q, small, depth=2)
    assert built == [p]
    assert res == _bounded_route(p, q, small, 2) and res.verdict == "distinguished"
    built.clear()
    res = weak_bisim(p, q, small)
    assert built == [p]
    assert (res.verdict, res.detail) == ("unknown", build_lts(p, small).limit)
    _MEMO.clear()  # no kept fingerprint of either side
    built.clear()
    res = failures_verdict(p, q, small, depth=2)
    assert built == [p]
    assert res == _bounded_route(p, q, small, 2) and res.verdict == "distinguished"


def test_normal_form_failures_match_bounded():
    rng = random.Random(33)
    for _ in range(80):
        t = random_term(rng, (A, B), rng.randint(1, 8))
        lts = build_lts(t, BUD)
        if not lts.complete:
            continue
        nf = normal_form(lts)
        assert nf.failures_to_depth(4) == failures_bounded(t, 4, BUD)
    # a fingerprint, the minimised normal form, keeps the failures, and is
    # its own fingerprint
    checked = 0
    for t in enumerate_terms((A, B), 4):
        lts = build_lts(t, BUD)
        if not lts.complete:
            continue
        fp = fingerprint(normal_form(lts))
        assert fp.failures_to_depth(4) == failures_bounded(t, 4, BUD), print_term(t)
        assert fingerprint(fp) is fp, print_term(t)
        checked += 1
    assert checked == 2095


def test_each_route_determinises_each_node_once(monkeypatch):
    real = equivalence._determinise
    met = []
    monkeypatch.setattr(
        equivalence, "_determinise", lambda successors, node: met.append(node) or real(successors, node)
    )
    rng = random.Random(61)
    checked = 0
    for i in range(200):
        t = random_term(rng, (A, B), rng.randint(4, 14))
        lts = build_lts(t, BUD)
        if not lts.complete:
            continue
        checked += 1
        met.clear()
        nf = normal_form(lts)
        # node i is the i-th state set determinised
        assert len(met) == len(set(met)) == len(nf.families), print_term(t)
        node_sets = list(met)
        # the bounded route meets the nodes within `depth` moves of the root
        depth = i % 5
        reached = level = {0}
        for _ in range(depth):
            level = {succ for node in level for _, succ in nf.edges[node]}
            reached = reached | level
        met.clear()
        failures_bounded(t, depth, BUD)
        assert len(met) == len(set(met)) and set(met) == {node_sets[n] for n in reached}, (print_term(t), depth)
    assert checked > 150


def test_failures_bounded_leaves_no_reference_cycle():
    # what a call builds goes when it returns, on cyclic graphs too, so
    # the collector finds none of it
    sources = ("rec X. ({a}.X + {b}.X)", "rec X. {a}.{}.X", "{a}.0 | rec X. ({b}.X + {~a}.0)")
    terms = [parse_term(text) for text in sources]
    gc.collect()
    gc.disable()
    try:
        for t in terms:
            for depth in range(6):
                failures_bounded(t, depth, BUD)
        assert gc.collect() == 0
    finally:
        gc.enable()


# `{a}.0` has no trace longer than one
DEEP_PROBE = (
    "from procreal.equivalence import failures_bounded, normal_form\n"
    "from procreal.parsing import parse_term\n"
    "from procreal.semantics import build_lts\n"
    "t = parse_term('{a}.0')\n"
    "nf = normal_form(build_lts(t))\n"
    "for depth in (1, 10 ** 9):\n"
    "    print(failures_bounded(t, depth).to_json(), nf.failures_to_depth(depth).to_json())\n"
)


def test_failures_stop_when_no_trace_goes_on():
    # both routes stop at once, with the table of depth 1; in a child, so
    # that a walk over the 10**9 empty levels fails by its timeout
    proc = subprocess.run(
        [sys.executable, "-c", DEEP_PROBE], capture_output=True, text=True, env=subprocess_env(), timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    one, deep = proc.stdout.splitlines()
    assert one == deep and "'trace': ['{a}']" in one


def test_normal_form_computed_once_per_shared_graph():
    # no graph is shared and none keeps a normal form: each exploration of a
    # term is a graph of its own, normalised afresh to the same nodes and
    # edges, and what outlives it is the kept fingerprint
    text = "{a}.({b}.0 + {c}.0) | {~a}.0"
    lts = build_lts(parse_term(text), BUD)
    again = build_lts(parse_term(text), BUD)
    assert again is not lts and not hasattr(lts, "normal_form")
    nf = normal_form(lts)
    assert normal_form(lts) is not nf
    other = normal_form(again)
    assert other == nf
    assert fingerprint(other) is fingerprint(nf)


def _fingerprints_decide_as_normal_forms(pairs) -> tuple:
    """Checks that fingerprint equality is `_compare_normal_forms`'s
    verdict on every pair whose graphs are complete, and that the walk on
    two unequal fingerprints gives its whole verdict, witness included;
    returns the counts of equal and distinguished pairs."""
    counts = [0, 0]
    for p, q in pairs:
        lp, lq = build_lts(p, BUD), build_lts(q, BUD)
        if not (lp.complete and lq.complete):
            continue
        nfp, nfq = normal_form(lp), normal_form(lq)
        res = _compare_normal_forms(nfp, nfq)
        fp, fq = fingerprint(nfp), fingerprint(nfq)
        assert (fp == fq) == res.ok, (print_term(p), print_term(q))
        if not res.ok:
            assert _compare_normal_forms(fp, fq) == res, (print_term(p), print_term(q))
        counts[res.ok] += 1
    return tuple(counts)


def test_fingerprints_decide_every_pair_of_small_terms():
    terms = list(enumerate_terms((A, B), 3))
    distinguished, equal = _fingerprints_decide_as_normal_forms(
        (p, q) for p in terms for q in terms
    )
    assert distinguished > 10_000 and equal > 10 * len(terms)


def test_fingerprints_decide_combinator_built_pairs():
    rng = random.Random(41)
    wire = C.identity_wire(frozenset([A, B]))
    pairs = []
    for _ in range(60):
        p, q = equivalent_pair(rng, (A, B), rng.randint(1, 5))
        ctx = random_context(rng, (A, B), rng.randint(1, 4))
        r = random_term(rng, (A, B), rng.randint(1, 5))
        pairs += [
            (ctx(p), ctx(q)),
            (C.lapp(p, wire), p),
            (C.seq(wire, C.tensor(p, r)), C.tensor(q, r)),
            (C.tensor(p, r), C.tensor(r, p)),
            (C.pairing(p, r), C.pairing(q, ctx(r))),
        ]
    distinguished, equal = _fingerprints_decide_as_normal_forms(pairs)
    assert distinguished > 20 and equal > 20


# Fingerprints name actions by label code, not by printed text or hash.
FINGERPRINT_PROBE = (
    "from procreal import combinators as C\n"
    "from procreal.equivalence import fingerprint, normal_form\n"
    "from procreal.names import REGISTRY\n"
    "from procreal.parsing import parse_term\n"
    "from procreal.semantics import build_lts\n"
    "a, b = REGISTRY.intern('a'), REGISTRY.intern('b')\n"
    "terms = [parse_term(x) for x in ('{a}.({b}.0 + {~a}.0) | {~a}.0', "
    "'rec X. ({a}.X + {b}.{}.{b,~a}.0)', '({a}.0 | {~a}.{b}.0) \\\\ {a}')]\n"
    "terms += [C.seq(C.identity_wire(frozenset([a, b])), terms[0]), C.pairing(terms[1], terms[2])]\n"
    "for t in terms:\n"
    "    print(fingerprint(normal_form(build_lts(t))))\n"
)


def test_fingerprints_print_the_same_under_every_hash_seed():
    outs = []
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", FINGERPRINT_PROBE],
            capture_output=True, text=True, env=subprocess_env(PYTHONHASHSEED=hash_seed),
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] and len(outs[0].splitlines()) == 5


def test_weak_bisim_tau_law():
    assert weak_bisim(parse_term("{}.{a}.0"), parse_term("{a}.0"), BUD).ok


def test_weak_bisim_reflexive():
    t = parse_term("{a}.0 | {~b}.0")
    assert weak_bisim(t, t, BUD).ok


def test_weak_bisim_refines_failures():
    rng = random.Random(17)
    pairs = 0
    for _ in range(300):
        p = random_term(rng, (A, B), rng.randint(1, 6))
        q = random_term(rng, (A, B), rng.randint(1, 6))
        wb = weak_bisim(p, q, BUD)
        if wb.ok:
            pairs += 1
            assert failures_equiv(p, q, BUD).ok, (print_term(p), print_term(q))
    assert pairs > 5


def test_failures_equiv_is_equivalence_on_sample():
    rng = random.Random(29)
    sample = [random_term(rng, (A, B), rng.randint(1, 5)) for _ in range(12)]
    verdicts = {}
    for i, p in enumerate(sample):
        for j, q in enumerate(sample):
            verdicts[i, j] = failures_equiv(p, q, BUD).ok
    for i in range(len(sample)):
        assert verdicts[i, i]
        for j in range(len(sample)):
            assert verdicts[i, j] == verdicts[j, i]
            for k in range(len(sample)):
                if verdicts[i, j] and verdicts[j, k]:
                    assert verdicts[i, k]


def test_perp_examples():
    assert perp(NIL, NIL, BUD).verdict == "yes"
    assert perp(parse_term("rec X. {}.X"), NIL, BUD).verdict == "no"
    assert perp(parse_term("{a}.0"), parse_term("{~a}.0"), BUD).verdict == "yes"


def test_divergence_separate_from_failures():
    # the immediately diverging process has no stable state: it refuses
    # nothing, unlike the inert process which refuses everything
    loop = parse_term("rec X. {}.X")
    res = failures_equiv(loop, NIL, BUD)
    assert res.verdict == "distinguished"

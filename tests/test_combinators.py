import random

import pytest

from procreal import combinators as C
from procreal.equivalence import failures_equiv, weak_bisim
from procreal.exercises import pairing_counterexample
from procreal.generators import random_term
from procreal.names import REGISTRY, Label, l_code, print_action, r_code
from procreal.parsing import parse_term
from procreal.semantics import ExplorationBudget, step
from procreal.terms import NIL, print_term

A = REGISTRY.intern("a")
B = REGISTRY.intern("b")
BUD = ExplorationBudget(max_states=3000)


def actions_of(t):
    return sorted(print_action(a) for a, _ in step(t))


def test_tensor_nil_inert():
    assert failures_equiv(C.tensor(NIL, NIL), NIL, BUD).equal


def test_tensor_steps_disjoint_and_simultaneous():
    # expected labels built through the same coding (printed spellings
    # depend on which atoms the registry has seen)
    la = Label(l_code(A).code, False)
    rb = Label(r_code(B).code, False)
    t = C.tensor(parse_term("{a}.0"), parse_term("{b}.0"))
    got = {frozenset(a) for a, _ in step(t)}
    assert got == {
        frozenset([la]),
        frozenset([rb]),
        frozenset([la, rb]),
    }


def test_tensor_decomposition_unique():
    rng = random.Random(13)
    terms = [random_term(rng, (A, B), rng.randint(2, 5)) for _ in range(6)]
    for p1 in terms[:3]:
        for p2 in terms[:3]:
            for q1 in terms[3:]:
                for q2 in terms[3:]:
                    both = failures_equiv(C.tensor(p1, p2), C.tensor(q1, q2), BUD).equal
                    comp = (
                        failures_equiv(p1, q1, BUD).equal
                        and failures_equiv(p2, q2, BUD).equal
                    )
                    assert both == comp


def test_identity_wire_one_atom_summands():
    w = C.identity_wire(frozenset([A]))
    branches = w.body.branches
    assert len(branches) == 3
    guards = {frozenset(a) for a, _ in branches}
    la, ra = Label(l_code(A).code, False), Label(r_code(A).code, False)
    # the singleton relay carries the label left and its dual right
    assert frozenset([la, ra.dual()]) in guards
    assert frozenset([la.dual(), ra]) in guards
    assert frozenset([la, la.dual(), ra, ra.dual()]) in guards


def test_identity_wire_of_equal_alphabets_is_one_node():
    first = C.identity_wire(frozenset([A, B]))
    hits = C.identity_wire.cache_info().hits
    assert C.identity_wire(frozenset([B, A])) is first
    assert C.identity_wire.cache_info().hits == hits + 1
    # the kept wire is the node a build afresh returns
    assert C.identity_wire.__wrapped__(frozenset([B, A])) is first


def test_identity_wire_cap():
    with pytest.raises(C.AlphabetTooLarge):
        C.identity_wire(frozenset(REGISTRY.intern(f"x{i}") for i in range(6)))


def test_identity_wire_empty_alphabet_inert():
    assert C.identity_wire(frozenset()) == NIL


def test_lapp_identity_on_exercise_instance():
    p = parse_term("{a}.0")
    w = C.identity_wire(frozenset([A]))
    assert failures_equiv(C.lapp(p, w), p, BUD).equal


def test_lapp_left_inert():
    t = C.lapp(NIL, C.tensor(NIL, parse_term("{b}.0")))
    assert failures_equiv(t, parse_term("{b}.0"), BUD).equal


def test_lapp_silent_interaction():
    q = parse_term("{~a}.0")
    qp = parse_term("{a}.0")
    r = parse_term("{b}.0")
    t = C.lapp(q, C.tensor(qp, r))
    assert failures_equiv(t, r, BUD).equal


def test_rapp_mirrors():
    p = parse_term("{a}.{b}.0")
    w = C.identity_wire(C.full_interface(p))
    assert failures_equiv(C.rapp(w, p), p, BUD).equal
    assert failures_equiv(C.rapp(C.tensor(p, NIL), NIL), p, BUD).equal


def test_seq_identities_and_associativity():
    rng = random.Random(7)
    for _ in range(15):
        p = random_term(rng, (A, B), rng.randint(2, 6))
        q = random_term(rng, (A, B), rng.randint(2, 6))
        r = random_term(rng, (A, B), rng.randint(2, 6))
        assert failures_equiv(
            C.seq(p, C.identity_wire(C.right_interface(p))), p, BUD
        ).equal
        assert failures_equiv(
            C.seq(C.identity_wire(C.left_interface(p)), p), p, BUD
        ).equal
        assert failures_equiv(C.seq(C.seq(p, q), r), C.seq(p, C.seq(q, r)), BUD).equal
        assert failures_equiv(C.lapp(p, C.seq(q, r)), C.lapp(C.lapp(p, q), r), BUD).equal


def test_pairing_selection_laws():
    p = parse_term("{a}.0")
    q = parse_term("{b}.0 + {a}.{b}.0")
    r = parse_term("{~a}.{b}.0")
    s = parse_term("{b}.{a}.0")
    l1l, l1r = C.seq(C.pairing(p, q), C.inj_l(r)), C.seq(p, r)
    l2l, l2r = C.seq(C.pairing(p, q), C.inj_r(s)), C.seq(q, s)
    assert failures_equiv(l1l, l1r, BUD).equal
    assert weak_bisim(l1l, l1r, BUD).equal
    assert failures_equiv(l2l, l2r, BUD).equal
    assert weak_bisim(l2l, l2r, BUD).equal


def test_pairing_distribution_failures_only():
    lhs, rhs = pairing_counterexample()
    assert failures_equiv(lhs, rhs, BUD).equal
    assert weak_bisim(lhs, rhs, BUD).verdict == "distinguished"


def test_bang_steps():
    p = parse_term("{a}.0")
    got = {print_action(a): print_term(t) for a, t in step(C.bang(p))}
    assert set(got) == {"{omega}", "{delta}", "{gamma}"}
    assert got["{omega}"] == "0"
    assert got["{delta}"] == "{a}.0"
    assert " | " in got["{gamma}"]


def test_bang_delta_delivers_copy():
    b = C.bang(NIL)
    for a, t in step(b):
        if print_action(a) == "{delta}":
            assert failures_equiv(t, NIL, BUD).equal


def test_double_swap_neutral():
    rng = random.Random(19)
    for _ in range(20):
        p = random_term(rng, (A, B), rng.randint(1, 6))
        assert failures_equiv(C.swap_halves(C.swap_halves(p)), p, BUD).equal


def test_interface_helpers():
    p = parse_term("({a}.0) [lcode] | ({b}.0) [rcode]")
    assert C.left_interface(p) == frozenset([A])
    assert C.right_interface(p) == frozenset([B])
    assert C.full_interface(parse_term("{a}.{~b}.0")) == frozenset([A, B])

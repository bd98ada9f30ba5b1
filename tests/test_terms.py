import copy
import dataclasses
import gc
import pickle
import random
import sys
import threading

import pytest

from golden_lines import LTS_TERMS
from procreal.combinators import bang
from procreal.generators import _constructed_terms, enumerate_terms, random_context, random_term
from procreal.names import (
    LCODE,
    RCODE,
    SWAP,
    CodingClass,
    Compose,
    FiniteRestriction,
    KwayCode,
    Label,
    PhiCode,
    REGISTRY,
    UnionRestriction,
    l_code,
    negative,
    positive,
    r_code,
)
from procreal.parsing import ParseError, parse_program, parse_term
from procreal.terms import (
    _TABLES,
    _drop,
    Term,
    NIL,
    Par,
    Prefix,
    Rec,
    Rename,
    Restrict,
    Sum,
    Var,
    choice,
    free_process_vars,
    map_subterms,
    print_term,
    rename,
    restrict,
    sort_labels,
    subterms,
    substitute_var,
    term_depth,
    well_formed,
)

A = REGISTRY.intern("a")
B = REGISTRY.intern("b")


def test_parse_prefix_example():
    t = parse_term("{a}.0")
    assert t == Prefix(frozenset([positive(A)]), NIL)


def test_parse_wire_example():
    t = parse_term("rec X. {a,b}.X")
    assert t == Rec("X", Prefix(frozenset([positive(A), positive(B)]), Var("X")))


def test_tau_guard_in_sum_rejected():
    with pytest.raises(ParseError, match="tau guard"):
        parse_term("{}.0 + {a}.0")


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_term("{a}.0 +\n  | 0")
    assert exc.value.line == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("{a, b.0", "expected '}', found '.' (line 1, column 6)"),
        ("0 \\ {a, b", "expected '}', found '' (line 1, column 10)"),
        ("wire({a, b)", "expected '}', found ')' (line 1, column 11)"),
        ("0 [map{a:b, b:a]", "expected '}', found ']' (line 1, column 16)"),
    ],
    ids=["action", "restriction", "wire-alphabet", "renaming-map"],
)
def test_unclosed_brace_message(text, message):
    # one braced-list reader serves all four positions
    with pytest.raises(ParseError) as exc:
        parse_term(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 [n3of2]", "'n3of2': port out of range (line 1, column 9)"),
        ("0 [comp(lcode, phi11)]", "'phi11': phi ports must be distinct in 1..3 (line 1, column 21)"),
    ],
)
def test_a_coding_out_of_range_is_a_parse_error(text, message):
    with pytest.raises(ParseError) as exc:
        parse_term(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text", LTS_TERMS)
def test_every_prefix_of_a_term_parses_or_is_a_parse_error(text):
    # any other exception, such as reading past the end, fails the test
    for k in range(len(text) + 1):
        try:
            parse_term(text[:k])
        except ParseError as exc:
            assert "(line 1, column " in str(exc)


def test_bindings_and_main():
    main = parse_program("w = rec X. {a}.X;\nmain = w | w;\n")
    assert main is Par(parse_term("rec X. {a}.X"), parse_term("rec X. {a}.X"))
    assert parse_program("w = {a}.0;") is None


# wrappers the random terms and contexts do not build: coding renamings
# and coding-class restrictions, alone and in a union
CODING_WRAPPERS = (
    lambda t: t,
    lambda t: Rename(t, LCODE),
    lambda t: Rename(Rename(t, RCODE), PhiCode(1, 3).inverse()),
    lambda t: Rename(t, Compose(KwayCode(2, 3), SWAP)),
    lambda t: Restrict(t, CodingClass("Ll")),
    lambda t: Restrict(Restrict(t, CodingClass("N2")), FiniteRestriction([negative(A)])),
    lambda t: Restrict(t, UnionRestriction([CodingClass("Lr"), FiniteRestriction([positive(B)])])),
)


def test_roundtrip_random_terms():
    # every constructor, printed and read back, is the node it was
    rng = random.Random(11)
    atoms = (A, B, l_code(A), r_code(B))
    for k in range(3000):
        plug = random_context(rng, atoms, rng.randint(0, 6))
        t = CODING_WRAPPERS[k % len(CODING_WRAPPERS)](plug(random_term(rng, atoms, rng.randint(1, 10))))
        assert parse_term(print_term(t)) is t, print_term(t)
    for t in enumerate_terms((A, B), 4):
        assert parse_term(print_term(t)) is t, print_term(t)


def test_well_formed_tau_prefix_guards_recursion():
    t = Rec("X", Prefix(frozenset(), Var("X")))
    assert well_formed(t) == []


def test_well_formed_unguarded_recursion():
    t = Rec("X", Par(Var("X"), Var("X")))
    assert any("unguarded" in d for d in well_formed(t))


def test_well_formed_renaming_domain():
    # the map covers only atom a; the term also performs b
    ren_map = parse_term("({a}.0 | {b}.0) [map{a:a}]")
    diags = well_formed(ren_map)
    assert any("outside domain" in d for d in diags)


def test_sort_examples():
    assert sort_labels(NIL) == frozenset()
    t = parse_term("{a}.0 | {~a}.0")
    assert sort_labels(t) == frozenset([positive(A), negative(A)])
    r = parse_term("({a}.0) \\ {a}")
    assert sort_labels(r) == frozenset()


def test_sort_symbolic_for_replicating_terms():
    assert sort_labels(bang(parse_term("{a}.0"))) is None


def test_sort_sound_for_restriction():
    t = Restrict(parse_term("{a}.{b}.0 | {~a}.0"), FiniteRestriction([positive(A)]))
    s = sort_labels(t)
    assert positive(A) not in s and negative(A) not in s  # both polarities
    assert positive(B) in s


def test_an_input_reads_as_a_sum_over_the_domain():
    e = parse_term("in s(x). 0", (0, 1))
    assert e is parse_term("{s_0}.0 + {s_1}.0")


def test_an_output_reads_as_one_prefix():
    e = parse_term("out s(1). 0", (0, 1))
    assert e is parse_term("{~s_1}.0")


def test_a_one_branch_choice_is_a_prefix():
    a, b = (frozenset([positive(n)]) for n in (A, B))
    assert choice(((a, NIL),)) is Prefix(a, NIL) is parse_term("{a}.0")
    assert choice(((a, NIL), (b, NIL))) is Sum(((a, NIL), (b, NIL)))
    assert choice(()) is NIL
    # one value: the input is the prefix on its value name, and prints
    # with no parentheses where a sum would take them
    e = parse_term("in s(x). 0 | {a}.0", (0,))
    assert isinstance(e.left, Prefix) and print_term(e) == "{s_0}.0 | {a}.0"


def test_an_input_binds_its_variable_in_its_body():
    e = parse_term("in s(x). out s(x). 0", (0, 1))
    assert e is parse_term("{s_0}.{~s_0}.0 + {s_1}.{~s_1}.0")


@pytest.mark.parametrize(
    "text, values, message",
    [
        ("in s(x). 0", (), "value-passing prefixes need --values (line 1, column 1)"),
        ("{a}.out s(0). 0", (), "value-passing prefixes need --values (line 1, column 5)"),
        ("out s(7). 0", (0, 1), "value 7 outside the declared domain (line 1, column 7)"),
        ("in s(x). out s(y). 0", (0, 1), "unbound value variable y (line 1, column 16)"),
        ("(in s(x). 0) | out s(x). 0", (0, 1), "unbound value variable x (line 1, column 22)"),
    ],
    ids=["no-domain-input", "no-domain-output", "outside-domain", "unbound", "out-of-scope"],
)
def test_a_value_the_domain_cannot_give_is_a_parse_error(text, values, message):
    with pytest.raises(ParseError) as exc:
        parse_term(text, values)
    assert str(exc.value) == message


def test_a_binding_is_read_over_the_domain_only_where_it_is_used():
    # a binding the main term leaves unused is not read over the domain,
    # and one used inside an input is read with no value variable in scope
    assert parse_program("P = out s(x). 0; main = {a}.0;") is parse_term("{a}.0")
    main = parse_program("P = {b}.0; main = in s(x). out s(x). P;", (0, 1))
    assert main is parse_term("{s_0}.{~s_0}.{b}.0 + {s_1}.{~s_1}.{b}.0")


def test_expand_preserves_well_formedness():
    rng = random.Random(5)
    for _ in range(50):
        text = print_term(random_term(rng, (A, B), rng.randint(1, 6)))
        assert well_formed(parse_term(f"in s(x). out s(x). ({text})", (0, 1, 2))) == []


def test_an_inner_input_shadows_an_outer_variable():
    inner = "{s_0}.{~s_0}.0 + {s_1}.{~s_1}.0"
    e = parse_term("in s(x). in s(x). out s(x). 0", (0, 1))
    assert e is parse_term(f"{{s_0}}.({inner}) + {{s_1}}.({inner})")


def test_substitution_leaves_no_garbage_cycle():
    # unfolding a recursion, or reading a value-passing prefix over a
    # domain, frees all it built by reference counting: a walk that recursed
    # through a nested function naming itself left a cycle at every call
    recs = [
        parse_term("rec X. ({a}.X + {b}.(X | {~a}.0))"),
        parse_term("rec X. {a}.rec Y. ({b}.Y + {~b}.X) [swap]"),
        bang(parse_term("{a}.0 + {b}.0")),
    ]
    passing = "in s(x). out s(x). in s(y). out s(y). 0"
    gc.collect()
    gc.disable()
    try:
        for t in recs:
            while isinstance(t, Rename):
                t = t.proc
            substitute_var(t.body, t.var, t)
        parse_term(passing, (0, 1))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_free_process_vars():
    assert free_process_vars(parse_term("rec X. {a}.X")) == frozenset()
    assert free_process_vars(Var("Y")) == frozenset(["Y"])


def test_rename_constructor_fuses():
    t = parse_term("{a}.0")
    assert rename(rename(t, SWAP), SWAP) == t


def test_restrict_constructor_fuses():
    t = parse_term("{a}.0")
    r = restrict(restrict(t, FiniteRestriction([positive(A)])), FiniteRestriction([positive(B)]))
    assert isinstance(r, Restrict)
    assert not isinstance(r.proc, Restrict)


def test_term_nodes_are_slotted_and_hash_once():
    a = frozenset([positive(A)])
    la = FiniteRestriction([positive(A)])

    def every_constructor():
        p = Prefix(a, NIL)
        return [
            p,
            Sum(((a, p),)),
            Par(p, NIL),
            Restrict(p, la),
            Rename(p, SWAP),
            Var("X"),
            Rec("X", Prefix(a, Var("X"))),
        ]

    for first, second in zip(every_constructor(), every_constructor()):
        assert not hasattr(first, "__dict__")
        assert type(first).__slots__ == tuple(f.name for f in dataclasses.fields(first)) + (
            "_depth", "__weakref__",
        )
        # identity is equality: hash and == are the object's own, no Python call
        assert type(first).__hash__ is object.__hash__ and type(first).__eq__ is object.__eq__
        assert first is second and first == second and hash(first) == hash(second)
        assert pickle.loads(pickle.dumps(first)) is first
        field = dataclasses.fields(first)[-1].name
        assert dataclasses.replace(first, **{field: getattr(first, field)}) is first
    assert dataclasses.replace(Var("X"), ident="Y") is Var("Y")
    assert Var("X") != Var("Y") and Prefix(a, NIL) != Prefix(a, Var("X"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        Var("X").ident = "Y"


def test_every_way_of_building_a_term_meets_the_live_node():
    a = frozenset([positive(A)])
    la, lb = FiniteRestriction([positive(A)]), FiniteRestriction([positive(B)])
    p = Prefix(a, NIL)
    built = [
        p,
        Sum(((a, p), (frozenset([positive(B)]), NIL))),
        Par(p, Var("X")),
        Restrict(p, la),
        Rename(p, SWAP),
        Var("X"),
        Rec("X", Prefix(a, Var("X"))),
    ]
    for t in built:
        values = {f.name: getattr(t, f.name) for f in dataclasses.fields(t)}
        assert type(t)(*values.values()) is t
        assert type(t)(**values) is t
        assert dataclasses.replace(t) is t
        assert pickle.loads(pickle.dumps(t)) is t
        assert copy.copy(t) is t and copy.deepcopy(t) is t
        assert map_subterms(t, lambda u: u) is t
        # children rebuilt from scratch meet the live children, so the node too
        assert map_subterms(t, lambda u: pickle.loads(pickle.dumps(u))) is t
        assert parse_term(print_term(t)) is t
    text = "rec X. ({a}.X + {b}.0) | {~a}.0 \\ {a}"
    assert parse_term(text) is parse_term(text)
    # substitution rebuilds only what it changes, and what it rebuilds is live
    body = Prefix(a, Var("X"))
    assert substitute_var(body, "X", Var("Y")) is Prefix(a, Var("Y"))
    assert substitute_var(Rec("X", body), "X", NIL) is Rec("X", body)
    # the fusing constructors return the node built directly
    assert rename(rename(p, LCODE), SWAP) is Rename(p, Compose(SWAP, LCODE))
    both = FiniteRestriction([positive(A), positive(B)])
    assert restrict(restrict(p, la), lb) is Restrict(p, both)


def _live_terms() -> int:
    gc.collect()
    return sum(1 for o in gc.get_objects() if isinstance(o, Term))


def test_built_terms_leave_no_entry_behind():
    live = _live_terms()
    before = {cls: len(table) for cls, table in _TABLES.items()}
    rng = random.Random(61)
    grown = 0
    for _ in range(10000):
        t = random_term(rng, (A, B), rng.randint(1, 9))
        grown = max(grown, sum(map(len, _TABLES.values())))
    del t
    assert grown > sum(before.values())
    assert _live_terms() == live
    assert {cls: len(table) for cls, table in _TABLES.items()} == before


def test_equal_nodes_built_apart_still_meet():
    # one structure built three ways, its children built apart too, is one node
    a, b = (frozenset([positive(n)]) for n in (A, B))
    first = Par(parse_term("{a}.{b}.0"), parse_term("{b}.0 + {a}.0"))
    second = parse_term("{a}.{b}.0 | ({b}.0 + {a}.0)")
    third = Par(Prefix(a, Prefix(b, NIL)), Sum(((b, NIL), (a, NIL))))
    assert first is second is third
    assert {first: 1}[third] == 1 and len({first, second, third}) == 1
    # the table is keyed by fields, children by identity: one entry
    assert _TABLES[Par][first.left, first.right]() is first
    # two live structures whose field tuples hash alike (hash(-1) ==
    # hash(-2)) keep an entry each, and each construction returns its own
    one, two = frozenset([Label(-1, False)]), frozenset([Label(-2, False)])
    low, lower = Prefix(one, NIL), Prefix(two, NIL)
    assert hash((one, NIL)) == hash((two, NIL)) and low is not lower
    table = _TABLES[Prefix]
    assert table[one, NIL]() is low and table[two, NIL]() is lower
    assert Prefix(one, NIL) is low and Prefix(two, NIL) is lower
    # a node's death removes its own entry and leaves its neighbour's
    entry = table[one, NIL]
    del low
    assert entry() is None and (one, NIL) not in table
    assert Prefix(two, NIL) is lower
    # a late callback of the dead node, as a racing thread could run it,
    # leaves the entry of the node built since
    again = Prefix(one, NIL)
    _drop(entry)
    assert table[one, NIL]() is again and Prefix(one, NIL) is again


def test_threads_building_equal_terms_get_equal_nodes():
    rng = random.Random(83)
    texts = [print_term(random_term(rng, (A, B), rng.randint(3, 8))) for _ in range(40)]
    live = _live_terms()
    before = {cls: len(table) for cls, table in _TABLES.items()}
    wrong, unraisable = [], []
    workers = 4
    built = [None] * workers
    # each round, every thread builds every text after the last round's
    # nodes are gone, and keeps what it built until all have compared
    start, done, checked = (threading.Barrier(workers, timeout=60) for _ in range(3))

    def work(i):
        for _ in range(20):
            start.wait()
            built[i] = [parse_term(text) for text in texts]
            done.wait()
            for text, mine, first in zip(texts, built[i], built[0]):
                if mine is not first or print_term(mine) != text:
                    wrong.append(text)
            checked.wait()
            built[i] = None

    hook, interval = sys.unraisablehook, sys.getswitchinterval()
    sys.unraisablehook = unraisable.append  # an exception in a death callback
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
        sys.unraisablehook = hook
    assert wrong == [] and unraisable == []
    assert _live_terms() == live
    assert {cls: len(table) for cls, table in _TABLES.items()} == before


def test_subterms_and_map_subterms_on_every_constructor():
    a, b = frozenset([positive(A)]), frozenset([positive(B)])
    p, q = Prefix(a, NIL), Prefix(b, NIL)
    la, lb = FiniteRestriction([positive(A)]), FiniteRestriction([positive(B)])
    cases = [
        (p, (NIL,)),
        (Sum(((b, q), (a, p))), (q, p)),
        (Par(p, q), (p, q)),
        # restrict() would fuse these two restrictions, rename() cancel the swaps
        (Restrict(Restrict(p, la), lb), (Restrict(p, la),)),
        (Rename(Rename(p, SWAP), SWAP), (Rename(p, SWAP),)),
        (Var("X"), ()),
        (Rec("X", Prefix(a, Var("X"))), (Prefix(a, Var("X")),)),
    ]
    for t, children in cases:
        assert subterms(t) == children
        same = map_subterms(t, lambda u: u)
        assert same == t and type(same) is type(t)
        seen = []
        map_subterms(t, lambda u: seen.append(u) or u)
        assert tuple(seen) == children
    # a sum keeps its guards and its branch order
    swapped = map_subterms(Sum(((b, q), (a, p))), lambda u: Par(u, NIL))
    assert swapped.branches == ((b, Par(q, NIL)), (a, Par(p, NIL)))
    with pytest.raises(TypeError):
        subterms("not a term")
    with pytest.raises(TypeError):
        map_subterms("not a term", lambda u: u)


def _level_count(t) -> int:
    """Constructor nesting counted level by level, the way `term_depth`
    counted before nodes stored it."""
    depth = 0
    level = [t]
    while level:
        depth += 1
        level = [c for u in level for c in subterms(u)]
    return depth


def test_term_depth_equals_level_count_on_every_constructor():
    a = frozenset([positive(A)])
    la = FiniteRestriction([positive(A)])
    p = Prefix(a, Prefix(a, NIL))
    cases = [
        NIL,
        p,
        Sum(((a, p), (a, NIL))),
        Sum(((a, NIL), (a, p))),
        Par(NIL, p),
        Par(p, NIL),
        Restrict(p, la),
        Rename(p, SWAP),
        Var("X"),
        Rec("X", Prefix(a, Var("X"))),
    ]
    rng = random.Random(41)
    cases += list(enumerate_terms((A, B), 4))[::5]
    cases += [random_term(rng, (A, B), rng.randint(1, 12)) for _ in range(200)]
    for t in cases:
        assert term_depth(t) == _level_count(t), print_term(t)
    assert term_depth(NIL) == term_depth(Var("X")) == 1


def test_deep_nesting_builds_without_recursion_error():
    a = frozenset([positive(A)])
    la = FiniteRestriction([positive(A)])
    wrap = [
        lambda t: Prefix(a, t),
        lambda t: Par(NIL, t),
        lambda t: Restrict(t, la),
        lambda t: Rename(t, SWAP),
        lambda t: Sum(((a, t),)),
        lambda t: Rec("X", t),
    ]
    t = NIL
    for k in range(20000):
        t = wrap[k % len(wrap)](t)
    assert term_depth(t) == 20001
    assert hash(t) == hash(t) and {t: 1}[t] == 1


def test_enumeration_prints_nothing_and_matches_printed_key_dedup(monkeypatch):
    # de-duplicating by node keeps the terms and the order that
    # de-duplicating by printed text keeps
    def refuse(t, prec):
        raise AssertionError("a term was printed during enumeration")

    with monkeypatch.context() as m:
        m.setattr("procreal.terms._print", refuse)
        got = list(enumerate_terms((A, B), 4))
    by_text = {}
    for t in _constructed_terms((A, B), 4):
        by_text.setdefault(print_term(t), t)
    assert got == [t for t in by_text.values() if not well_formed(t)]

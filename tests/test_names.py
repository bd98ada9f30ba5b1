import gc
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from procreal import names
from procreal.names import (
    ALL_LABELS,
    CodingClass,
    Compose,
    FiniteMap,
    KwayCode,
    KwayDecode,
    LCODE,
    LL_CLASS,
    Label,
    N2_CLASS,
    IDENT,
    Name,
    PhiCode,
    RCODE,
    REGISTRY,
    SWAP,
    compose_renamings,
    dual_action,
    l_code,
    positive,
    negative,
    r_code,
    union_restriction,
    FiniteRestriction,
    Piecewise,
    RenamingDomainError,
    UnionRestriction,
)
from procreal.generators import enumerate_terms, random_context, random_term
from procreal.logic import parse_formula, print_formula
from procreal.parsing import parse_renaming_text, parse_term
from procreal.semantics import _MEMO
from procreal.terms import _TABLES, NIL, Par, Prefix, Rename, Restrict, rename, value_name, well_formed


def test_lr_coding_base_cases():
    assert l_code(Name(0)) == Name(0)
    assert r_code(Name(0)) == Name(1)
    assert l_code(Name(5)) == Name(10)
    assert r_code(Name(5)) == Name(11)


def test_lr_images_partition_naturals():
    for m in range(10**4):
        is_l = m % 2 == 0
        is_r = m % 2 == 1
        assert is_l != is_r
        if is_l:
            assert l_code(Name(m // 2)) == Name(m)
        else:
            assert r_code(Name((m - 1) // 2)) == Name(m)


@given(st.integers(min_value=0, max_value=10**9), st.booleans())
def test_involution_self_inverse(code, neg):
    lab = Label(code, neg)
    assert lab.dual().dual() == lab


def test_phi_examples():
    p13 = PhiCode(1, 3)
    assert p13.apply_code(4) == 6
    assert p13.apply_code(5) == 8
    # codes congruent 1 mod 3 lie in the excluded middle region
    inv = p13.inverse()
    assert inv.apply_code(7) is None
    assert inv.apply_code(1) is None


@given(st.integers(min_value=0, max_value=10**6), st.booleans())
def test_phi_inverse_roundtrip(code, neg):
    lab = Label(code, neg)
    image = PhiCode(1, 3).apply_label(lab)
    assert PhiCode(1, 3).inverse().apply_label(image) == lab


@given(st.integers(min_value=0, max_value=10**6), st.booleans())
def test_renamings_commute_with_involution(code, neg):
    lab = Label(code, neg)
    for f in (LCODE, RCODE, PhiCode(2, 3), SWAP, KwayCode(2, 5)):
        assert f.apply_label(lab).dual() == f.apply_label(lab.dual())


def test_invert_lcode_partial():
    inv = LCODE.inverse()
    assert inv.apply_code(7) is None
    assert inv.apply_code(8) == 4


def test_compose_inverse_is_identity():
    comp = compose_renamings(LCODE.inverse(), LCODE)
    for code in range(200):
        assert comp.apply_code(code) == code


def test_finite_map_composition_materializes():
    a, b = REGISTRY.intern("a"), REGISTRY.intern("b")
    swap = FiniteMap([(a, b), (b, a)])
    assert compose_renamings(swap, swap) == FiniteMap([(a, a), (b, b)])


def test_swap_composition_cancels():
    assert compose_renamings(SWAP, SWAP) is IDENT


def test_apply_renaming_examples():
    a = REGISTRY.intern("a")
    act = frozenset([positive(a), negative(REGISTRY.intern("b"))])
    image = LCODE.apply_action(act)
    assert image == frozenset(
        [positive(l_code(a)), negative(l_code(REGISTRY.intern("b")))]
    )
    assert LCODE.apply_action(frozenset()) == frozenset()
    assert dual_action(image) == LCODE.apply_action(dual_action(act))


def test_restriction_classes():
    even = Label(14, False)
    odd = Label(15, True)
    assert LL_CLASS.contains_label(even)
    assert not LL_CLASS.contains_label(odd)
    assert ALL_LABELS.contains_label(odd)
    assert N2_CLASS.contains_label(Label(7, False))  # 7 = 3*2+1
    assert not N2_CLASS.contains_label(Label(6, False))
    # an unknown class is a ValueError, which the command line reports as
    # bad input
    with pytest.raises(ValueError, match="unknown coding class N4"):
        CodingClass("N4").contains_label(even)


def test_an_unknown_coding_class_is_refused_where_it_is_made():
    # not first when a label is tested, deep inside build_lts
    with pytest.raises(ValueError, match="unknown coding class N4"):
        Restrict(parse_term("{a}.0"), CodingClass("N4"))
    # unpickling builds the class through its constructor too
    data = pickle.dumps(LL_CLASS)
    assert pickle.loads(data) == LL_CLASS
    with pytest.raises(ValueError, match="unknown coding class N4"):
        pickle.loads(data.replace(b"Ll", b"N4"))


@pytest.mark.parametrize("spelling, which, ways, port",
                         [("l", "Ll", 2, 1), ("r", "Lr", 2, 2), ("n1", "N1", 3, 1), ("n2", "N2", 3, 2),
                          ("n3", "N3", 3, 3)])
def test_a_coded_name_falls_in_its_coding_class(spelling, which, ways, port):
    # `l(x)` is code 2x, `r(x)` 2x+1 and `nK(x)` 3x+K-1, and the coding
    # class holds exactly those codes, both polarities
    t = parse_term(f"({{~{spelling}(a)}}.0) \\ {which}")
    (lab,) = t.proc.action
    assert lab == Label(ways * REGISTRY.intern("a").code + port - 1, True)
    assert str(lab) == "~" + names.print_name(lab.name)
    for code in range(40):
        for neg in (False, True):
            assert t.labels.contains_label(Label(code, neg)) == (code % ways == port - 1)


def test_union_restriction_canonical():
    a = positive(REGISTRY.intern("a"))
    b = positive(REGISTRY.intern("b"))
    u1 = union_restriction(FiniteRestriction([a]), FiniteRestriction([b]))
    u2 = union_restriction(FiniteRestriction([b]), FiniteRestriction([a]))
    assert u1 == u2
    assert union_restriction(ALL_LABELS, FiniteRestriction([a])) == ALL_LABELS
    mixed1 = union_restriction(LL_CLASS, FiniteRestriction([a]))
    mixed2 = union_restriction(FiniteRestriction([a]), LL_CLASS)
    assert mixed1 == mixed2


CODINGS = [IDENT, LCODE, RCODE, SWAP]
CODINGS += [KwayCode(p, w) for w in range(1, 5) for p in range(1, w + 1)]
CODINGS += [PhiCode(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
CODINGS += [c.inverse() for c in CODINGS]


def test_kway_decode_describe_roundtrip():
    # a map's text reads back, and a pickle loads back, as an equal map;
    # the identity loads back as itself, the one map rename drops
    for ren in CODINGS + [Compose(KwayCode(1, 3), KwayDecode(1, 2)), KwayDecode(2, 2)]:
        for back in (parse_renaming_text(ren.describe()), pickle.loads(pickle.dumps(ren))):
            assert back == ren and hash(back) == hash(ren) and back.describe() == ren.describe()
        assert (pickle.loads(pickle.dumps(ren)) is IDENT) == (ren is IDENT)
        inverse, images = ren.inverse(), [ren.apply_code(code) for code in range(201)]
        for code, image in enumerate(images):
            assert image is None or inverse.apply_code(image) == code
            pre = inverse.apply_code(code)
            assert pre is None or ren.apply_code(pre) == code
        assert inverse.inverse() == ren and ren.is_total() == (None not in images)
    # codings are equal when they spell alike: one port of two is the named
    # half; one port of one renames like the identity but is no identity
    assert all((a == b) == (a.describe() == b.describe()) for a in CODINGS for b in CODINGS)
    assert KwayCode(1, 2) == LCODE and KwayCode(2, 2) == RCODE and KwayDecode(1, 2) == LCODE.inverse()
    assert KwayCode(1, 1) != IDENT and KwayDecode(1, 1) != IDENT and KwayCode(1, 1) != KwayDecode(1, 1)
    assert [KwayCode(1, 1).describe(), KwayDecode(1, 1).describe()] == ["n1of1", "inv(n1of1)"]
    assert IDENT.inverse() is IDENT and SWAP.inverse() is SWAP
    assert compose_renamings(SWAP, SWAP) is IDENT
    assert compose_renamings(KwayDecode(2, 3), KwayCode(2, 3)) is IDENT


def _relayout():
    return Piecewise([Compose(LCODE, KwayDecode(1, 2)), Compose(RCODE, KwayDecode(2, 2))])


def test_nodes_hold_one_kept_instance_of_each_map():
    a, b = positive(REGISTRY.intern("a")), positive(REGISTRY.intern("b"))
    p = parse_term("{a}.0")
    names._KEPT.clear()
    # a node that the step tier keeps alive still holds its map from
    # before the flush; drop those nodes so that the maps below are new
    _MEMO.clear()
    gc.collect()
    first, second = _relayout(), _relayout()
    assert first is not second and first == second and hash(first) == hash(second)
    node = Rename(p, first)
    other = Rename(NIL, second)
    assert other.ren is node.ren
    # the node's table key holds the kept map, not the one it was asked with
    assert _TABLES[Rename][NIL, second].key[1] is node.ren
    hidden = Restrict(p, FiniteRestriction([a, b]))
    assert Restrict(NIL, FiniteRestriction([b, a])).labels is hidden.labels
    # the canonical constructors hand out kept instances too
    assert union_restriction(LL_CLASS, FiniteRestriction([a])) is union_restriction(
        FiniteRestriction([a]), LL_CLASS
    )
    assert compose_renamings(LCODE, _relayout()) is compose_renamings(LCODE, _relayout())
    assert rename(rename(p, LCODE), SWAP).ren is Rename(NIL, Compose(SWAP, LCODE)).ren
    # a map that no node holds is no kept instance, and is still equal:
    # asked for with it, the node is the live one
    fresh = _relayout()
    assert fresh is not node.ren and fresh == node.ren and hash(fresh) == hash(node.ren)
    assert Rename(p, fresh) is node
    # emptying the table makes new kept instances, equal to the old ones;
    # the live node is dropped first, or re-making it would meet it
    old_ren = node.ren
    del node
    names._KEPT.clear()
    again = Rename(p, _relayout())
    assert again.ren is not old_ren and again.ren == old_ren
    # asked for with the old, equal map, the node is the live one
    assert Rename(p, old_ren) is again and {again: 1}[Rename(p, old_ren)] == 1


def test_map_memos_stay_out_of_value_text_and_pickle():
    names._KEPT.clear()
    ren, hidden = _relayout(), FiniteRestriction([positive(REGISTRY.intern("a"))])
    before = [(m.describe(), pickle.dumps(m), hash(m), repr(m)) for m in (ren, hidden)]
    act = frozenset([positive(REGISTRY.intern("a")), negative(REGISTRY.intern("b"))])
    ren.apply_action(act)
    hidden.blocks(act)
    assert ren._memo and hidden._memo
    assert [(m.describe(), pickle.dumps(m), hash(m), repr(m)) for m in (ren, hidden)] == before
    assert ren == _relayout() and hidden == FiniteRestriction(hidden.labels)
    # a term holding a piecewise renaming survives a pickle round-trip
    t = Par(Rename(parse_term("{a}.{~b}.0"), ren), Restrict(NIL, hidden))
    back = pickle.loads(pickle.dumps(t))
    assert back == t and hash(back) == hash(t)
    assert back.left.ren is t.left.ren and back.right.labels is t.right.labels


def test_memoised_maps_answer_as_before():
    decode = LCODE.inverse()
    odd, even = frozenset([Label(7, False)]), frozenset([Label(8, True)])
    for _ in range(2):
        with pytest.raises(RenamingDomainError):
            decode.apply_action(odd)
    assert decode.apply_action(even) == frozenset([Label(4, True)])
    assert decode.apply_action(even) is decode.apply_action(even)
    mixed = frozenset([Label(14, False), Label(15, True)])
    assert LL_CLASS.blocks(mixed) == frozenset([Label(14, False)])
    assert LL_CLASS.blocks(mixed) is LL_CLASS.blocks(mixed)
    assert not LL_CLASS.blocks(frozenset([Label(15, True)]))
    # a label blocks when its dual is in the set
    assert FiniteRestriction([Label(9, True)]).blocks((Label(9, False),))


FINITE_MAPS = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)), unique_by=(lambda p: p[0], lambda p: p[1])
).map(lambda pairs: FiniteMap((Name(s), Name(d)) for s, d in pairs))
RENAMINGS = st.recursive(
    st.one_of(
        FINITE_MAPS,
        st.sampled_from([IDENT, LCODE, RCODE, SWAP, PhiCode(1, 2), PhiCode(1, 3).inverse(),
                         KwayCode(2, 3), KwayDecode(1, 2)]),
    ),
    lambda sub: st.builds(Compose, sub, sub),
    max_leaves=3,
)


@given(RENAMINGS, RENAMINGS)
def test_compose_renamings_agrees_with_a_cold_composition(after, first):
    cold = compose_renamings.__wrapped__(after, first)
    composed = compose_renamings(after, first)
    assert composed == cold
    for code in range(40):
        mid = first.apply_code(code)
        assert composed.apply_code(code) == (None if mid is None else after.apply_code(mid))
    # asked again, with maps equal to these but built apart, the pair's
    # composition is the one kept
    again = compose_renamings(pickle.loads(pickle.dumps(after)), pickle.loads(pickle.dumps(first)))
    assert again is composed


# inputs for each walk, built before the collector is switched off
_A, _B = positive(REGISTRY.intern("a")), positive(REGISTRY.intern("b"))
_WALKS = {
    "union_restriction": (union_restriction, (UnionRestriction([LL_CLASS, FiniteRestriction([_A])]),
                                              UnionRestriction([N2_CLASS, FiniteRestriction([_B])]))),
    "well_formed": (well_formed, (parse_term("rec X. ({a}.X + {b}.(X | {c}.0 [lcode]) \\ {a})"),)),
    "print_formula": (print_formula, (parse_formula("!(a * ~b) @ (c & (forall x. p(x)))"),)),
    "parse_formula": (parse_formula, ("!(a * ~b) @ (c & (forall x. p(x)))",)),
    "random_term": (random_term, (random.Random(1), (_A.name, _B.name), 12)),
    "random_context": (random_context, (random.Random(1), (_A.name, _B.name), 6)),
    "enumerate_terms": (lambda *args: list(enumerate_terms(*args)), ((_A.name, _B.name), 3)),
}


def test_the_registry_refuses_a_new_name_the_readers_cannot_read_back():
    # an atom name follows the term reader's identifier rule; a value name
    # over a coded channel, registered apart, still reads back
    for bad in ("x}", "y z", "é"):
        with pytest.raises(ValueError, match="invalid atom identifier"):
            REGISTRY.intern(bad)
    # atom codes are registration order, so a channel far above them all
    # is one that no atom, old or new, spells
    chan = l_code(Name(10**9))
    name = value_name(chan, 0)
    assert str(name) == f"{chan}_0" and str(name).startswith("l(")
    assert parse_term(f"{{{name}}}.0") == Prefix(frozenset([positive(name)]), NIL)


@pytest.mark.parametrize("walk", sorted(_WALKS))
def test_recursive_walks_leave_no_reference_cycle(walk):
    # a walk that recurses through a nested function naming itself leaves
    # the function, its cell and its closure for the collector at each call
    fn, args = _WALKS[walk]
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(10):
            fn(*args)
        gc.collect()
        assert not gc.garbage, sorted({type(obj).__name__ for obj in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()

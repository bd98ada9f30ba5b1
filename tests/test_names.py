from hypothesis import given, strategies as st

from procreal.names import (
    ALL_LABELS,
    Compose,
    FiniteMap,
    KwayCode,
    KwayDecode,
    LCODE,
    LL_CLASS,
    Label,
    N2_CLASS,
    Name,
    PhiCode,
    RCODE,
    REGISTRY,
    SWAP,
    IdentityRenaming,
    compose_renamings,
    dual_action,
    l_code,
    positive,
    negative,
    r_code,
    union_restriction,
    FiniteRestriction,
)
from procreal.parsing import parse_renaming_text


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
    assert isinstance(compose_renamings(SWAP, SWAP), IdentityRenaming)


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


def test_kway_decode_describe_roundtrip():
    for ren in (LCODE, RCODE, SWAP, KwayCode(2, 3), PhiCode(1, 3),
                Compose(KwayCode(1, 3), KwayDecode(1, 2)), KwayDecode(2, 2)):
        assert parse_renaming_text(ren.describe()) == ren

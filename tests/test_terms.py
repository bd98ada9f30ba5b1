import dataclasses
import pickle
import random

import pytest

from procreal.combinators import bang
from procreal.generators import enumerate_terms, random_term
from procreal.names import SWAP, FiniteRestriction, REGISTRY, negative, positive
from procreal.parsing import ParseError, parse_program, parse_term
from procreal.terms import (
    AllSort,
    FiniteSort,
    InputPrefix,
    NIL,
    OutputPrefix,
    Par,
    Prefix,
    Rec,
    Rename,
    Restrict,
    Sum,
    Var,
    expand_values,
    free_process_vars,
    map_subterms,
    print_term,
    rename,
    restrict,
    sort_of,
    subterms,
    substitute_value,
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


def test_bindings_and_main():
    bindings, main = parse_program("w = rec X. {a}.X;\nmain = w | w;\n")
    assert "w" in bindings
    assert isinstance(main, Par)


def test_roundtrip_random_terms():
    rng = random.Random(11)
    for _ in range(300):
        t = random_term(rng, (A, B), rng.randint(1, 12))
        assert parse_term(print_term(t)) == t


def test_roundtrip_value_prefixes():
    t = parse_term("in s(x). out s(x). 0")
    assert parse_term(print_term(t)) == t


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
    assert sort_of(NIL) == FiniteSort(frozenset())
    t = parse_term("{a}.0 | {~a}.0")
    assert sort_of(t) == FiniteSort(frozenset([positive(A), negative(A)]))
    r = parse_term("({a}.0) \\ {a}")
    assert sort_of(r) == FiniteSort(frozenset())


def test_sort_symbolic_for_replicating_terms():
    assert isinstance(sort_of(bang(parse_term("{a}.0"))), AllSort)


def test_sort_sound_for_restriction():
    t = Restrict(parse_term("{a}.{b}.0"), FiniteRestriction([positive(A)]))
    s = sort_of(t)
    assert positive(A) not in s.labels
    assert positive(B) in s.labels


def test_expand_values_input():
    t = parse_term("in s(x). 0")
    e = expand_values(t, (0, 1))
    assert isinstance(e, Sum)
    assert len(e.branches) == 2
    names = sorted(str(next(iter(a))) for a, _ in e.branches)
    assert names == ["s_0", "s_1"]


def test_expand_values_output_single_branch():
    t = parse_term("out s(1). 0")
    e = expand_values(t, (0, 1))
    assert isinstance(e, Prefix)
    assert str(next(iter(e.action))) == "~s_1"


def test_expand_values_binding():
    t = parse_term("in s(x). out s(x). 0")
    e = expand_values(t, (0, 1))
    for (_, branch) in e.branches:
        assert isinstance(branch, Prefix)


def test_expand_values_empty_domain_rejected():
    with pytest.raises(ValueError):
        expand_values(parse_term("in s(x). 0"), ())


def test_expand_values_out_of_domain_rejected():
    with pytest.raises(ValueError, match="outside"):
        expand_values(parse_term("out s(7). 0"), (0, 1))


def test_expand_preserves_well_formedness():
    rng = random.Random(5)
    for _ in range(50):
        t = random_term(rng, (A, B), rng.randint(1, 6))
        wrapped = InputPrefix(REGISTRY.intern("s"), "x", OutputPrefix(REGISTRY.intern("s"), "x", t))
        assert well_formed(expand_values(wrapped, (0, 1, 2))) == []


def test_substitute_value_shadowing():
    inner = InputPrefix(REGISTRY.intern("s"), "x", OutputPrefix(REGISTRY.intern("s"), "x", NIL))
    out = substitute_value(inner, "x", 3)
    assert out == inner  # binder shadows


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
    s = REGISTRY.intern("s")
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
            InputPrefix(s, "x", OutputPrefix(s, "x", NIL)),
            OutputPrefix(s, 1, p),
        ]

    for first, second in zip(every_constructor(), every_constructor()):
        assert not hasattr(first, "__dict__")
        assert first == second and first is not second
        assert hash(first) == hash(second)
        # the dataclass's own hash of the fields, so set order is unchanged
        values = tuple(getattr(first, f.name) for f in dataclasses.fields(first))
        assert hash(first) == hash(values)
        assert pickle.loads(pickle.dumps(first)) == first
        field = dataclasses.fields(first)[-1].name
        changed = dataclasses.replace(first, **{field: getattr(first, field)})
        assert changed == first and hash(changed) == hash(first)
    assert dataclasses.replace(Var("X"), ident="Y") == Var("Y")
    assert hash(dataclasses.replace(Var("X"), ident="Y")) == hash(Var("Y"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        Var("X").ident = "Y"


def test_subterms_and_map_subterms_on_every_constructor():
    s = REGISTRY.intern("s")
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
        (InputPrefix(s, "x", OutputPrefix(s, "x", NIL)), (OutputPrefix(s, "x", NIL),)),
        (OutputPrefix(s, 1, p), (p,)),
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
    s = REGISTRY.intern("s")
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
        InputPrefix(s, "x", OutputPrefix(s, "x", NIL)),
        OutputPrefix(s, 1, p),
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

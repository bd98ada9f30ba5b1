import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from golden_lines import fresh_lines, golden_lines

from procreal import equivalence, extraction
from procreal.combinators import identity_wire, lapp, tensor
from procreal.corpus import corpus_proofs, eta_proof
from procreal.equivalence import failures_equiv, perp
from procreal.extraction import (
    ExtractionError,
    extract,
    formula_wire,
    pack_to_nested_binary,
    verify_cut_soundness,
    verify_totality_pipeline,
)
from procreal.logic import (
    FAtom,
    FBang,
    FExists,
    FForall,
    FPar,
    FPlus,
    FQuest,
    FTensor,
    FWith,
    PAxiom,
    PCut,
    PExchange,
    PForallR,
    PParR,
    PTensorR,
    conclusion,
    cut_eliminate,
    negate,
    parse_formula,
    proof_from_json,
    proof_to_json,
)
from procreal.names import REGISTRY, SWAP, negative, positive
from procreal.parsing import parse_term
from procreal.semantics import _MEMO, ExplorationBudget, build_lts
from procreal.semtypes import RepPER, SemType
from procreal.terms import NIL, Prefix, Term, print_term, rename, well_formed

A = FAtom("a")
B = FAtom("b")
BUD = ExplorationBudget(max_states=6000)


def test_axiom_extracts_to_wire():
    w = extract(PAxiom(A))
    assert w == identity_wire(frozenset([REGISTRY.intern("a")]))


def test_atom_env_alphabet():
    env = {"a": frozenset([REGISTRY.intern("ch1"), REGISTRY.intern("ch2")])}
    w = extract(PAxiom(A), env)
    assert w == identity_wire(env["a"])


def test_extractions_closed_and_well_formed():
    for name, entry in corpus_proofs().items():
        t = extract(entry["proof"], {}, entry["values"])
        assert well_formed(t) == [], name


def test_cut_of_axioms_behaves_as_axiom():
    cut = PCut(A, PAxiom(A), PAxiom(negate(A)), -1, -1)
    res = failures_equiv(extract(cut), extract(PAxiom(negate(A))), BUD)
    assert res.ok


def test_an_identity_exchange_realizes_as_its_premise():
    # a layout that keeps every port in place is no renaming
    axiom = extract(PAxiom(A))
    assert extract(PExchange((0, 1), PAxiom(A))) is axiom
    swapped = extract(PExchange((1, 0), PAxiom(A)))
    assert swapped is not axiom and print_term(swapped) != print_term(axiom)


def test_invalid_proof_rejected():
    bad = PCut(A, PAxiom(A), PAxiom(A), -1, -1)
    with pytest.raises(ExtractionError):
        extract(bad)


def test_nested_invalid_proof_names_its_path():
    bad = PTensorR(PAxiom(A), PParR(PExchange((0, 0), PAxiom(B))))
    with pytest.raises(ExtractionError) as exc:
        extract(bad)
    assert str(exc.value) == "invalid proof at (1, 0): invalid permutation (0, 0) for |- ~b, b"


def test_quantifier_extraction_needs_values():
    with pytest.raises(ExtractionError):
        extract(PForallR("x", PAxiom(A)))


def _cold(p):
    """A copy of `p` rebuilt from its JSON: no node of it keeps a realizer."""
    return proof_from_json(proof_to_json(p))


def _nodes(p):
    yield p
    for q in p.premises():
        yield from _nodes(q)


def test_kept_realizers_are_the_cold_ones():
    # every corpus proof and every proof on its cut-elimination trail,
    # whose proofs share the premises a step does not touch
    for name, entry in corpus_proofs().items():
        values = entry["values"]
        trail = cut_eliminate(entry["proof"], keep_trail=True).trail
        warm = [extract(p, {}, values) for p in trail]
        for step, (p, t) in enumerate(zip(trail, warm)):
            assert "_realizers" in p.__dict__
            assert extract(p, {}, values) is t
            cold = _cold(p)
            assert not any("_realizers" in q.__dict__ for q in _nodes(cold))
            assert extract(cold, {}, values) is t, (name, step)


def test_kept_realizers_are_keyed_by_env_and_values():
    wide = {"a": frozenset([REGISTRY.intern("ch1"), REGISTRY.intern("ch2")])}
    proof = PTensorR(PAxiom(A), PForallR("x", PAxiom(B)))
    keys = [(env, values) for env in ({}, wide) for values in ((0,), (0, 1))]
    cold = [extract(_cold(proof), *key) for key in keys]
    assert len(set(cold)) == 4
    for order in (range(4), range(3, -1, -1)):
        p = _cold(proof)
        assert [extract(p, *keys[i]) for i in order] == [cold[i] for i in order]
        assert len(p.__dict__["_realizers"]) == 4


def test_an_invalid_proof_keeps_nothing():
    bad = PTensorR(PAxiom(A), PParR(PExchange((0, 0), PAxiom(B))))
    for _ in range(2):
        with pytest.raises(ExtractionError, match=r"^invalid proof at \(1, 0\)"):
            extract(bad)
    assert not any("_realizers" in q.__dict__ for q in _nodes(bad))


def _live_terms() -> int:
    gc.collect()
    return sum(1 for o in gc.get_objects() if isinstance(o, Term))


def test_a_trails_realizers_go_with_the_trail():
    def extracted_trail():
        proof = _cold(corpus_proofs()["prom_contr_derel"]["proof"])
        elim = cut_eliminate(proof, keep_trail=True)
        assert cut_eliminate(proof, keep_trail=True) is elim  # kept on the proof
        for p in elim.trail:
            extract(p)
        return elim.trail, weakref.ref(elim)

    extracted_trail()  # fills the kept wires, layouts and compositions
    live = _live_terms()
    trail, elim = extracted_trail()
    assert _live_terms() > live  # the realizers, kept on the trail's nodes
    assert elim() is not None and elim().trail is trail
    del trail
    assert _live_terms() == live
    assert elim() is None  # the kept elimination went with its proof


def test_a_corpus_trail_checked_again_explores_nothing(monkeypatch):
    # each distinct realizer on the trail is explored once, for its
    # fingerprint (two trail proofs may share one); checked again, the
    # kept trail, realizers and fingerprints answer
    built = []
    monkeypatch.setattr(equivalence, "build_lts", lambda t, budget: built.append(t) or build_lts(t, budget))
    for name, entry in corpus_proofs().items():
        _MEMO.clear()
        passes = []
        for _ in range(2):
            built.clear()
            elim = cut_eliminate(entry["proof"], keep_trail=True)
            reports = [
                verify_cut_soundness(b, a, {}, entry["values"], BUD)
                for b, a in zip(elim.trail, elim.trail[1:])
            ]
            passes.append((len(built), reports))
        realizers = {extract(p, {}, entry["values"]) for p in elim.trail}
        assert passes == [(len(realizers), reports), (0, reports)], name
        assert all(r.verdict == "pass" for r in reports), name
    _MEMO.clear()


def test_an_unsound_step_explores_each_realizer_once(monkeypatch):
    # the witness of a failing step is read off the two kept fingerprints,
    # so neither realizer is explored again for it
    f = parse_formula("(a(+)b)*a")
    eta = eta_proof(f)
    elim = cut_eliminate(PCut(f, eta, eta, 1, 0), keep_trail=True)
    step = elim.kinds.index("push-left-withr")
    before, after = elim.trail[step : step + 2]
    budget = ExplorationBudget(max_states=2000)
    built = []
    monkeypatch.setattr(equivalence, "build_lts", lambda t, budget: built.append(t) or build_lts(t, budget))
    _MEMO.clear()
    reports = []
    for _ in range(2):
        built.clear()
        reports.append((verify_cut_soundness(before, after, budget=budget), len(built)))
    rep = reports[0][0]
    assert reports == [(rep, 2), (rep, 0)]
    assert rep.verdict == "fail"
    assert rep.witness == failures_equiv(extract(before), extract(after), budget, 4).witness
    _MEMO.clear()


def test_an_undecided_step_keeps_its_detail():
    # the bang wire's graph is partial at any budget, so the step goes to
    # the bounded route at the caller's depth
    bang_a = FBang(A)
    cut = PCut(bang_a, PAxiom(bang_a), PAxiom(negate(bang_a)), -1, -1)
    before, after = cut_eliminate(cut, keep_trail=True).trail
    cases = [
        (10, 4, "budget exhausted: state budget 10 exhausted"),
        (30, 2, "budget exhausted: state budget 30 exhausted"),
        (30, 1, "bounded agreement to depth 1"),
    ]
    for max_states, depth, detail in cases:
        rep = verify_cut_soundness(before, after, budget=ExplorationBudget(max_states), depth=depth)
        assert (rep.verdict, rep.detail, rep.witness) == ("unknown", detail, None)


def test_verify_cut_soundness_identical_proofs():
    p = corpus_proofs()["tensor_par"]["proof"]
    assert verify_cut_soundness(p, p, budget=BUD).verdict == "pass"


def test_verify_cut_soundness_axiom_step():
    cut = PCut(A, PAxiom(A), PAxiom(negate(A)), -1, -1)
    res = cut_eliminate(cut, keep_trail=True)
    rep = verify_cut_soundness(res.trail[0], res.trail[1], budget=BUD)
    assert rep.verdict == "pass"


def test_verify_cut_soundness_catches_wrong_reduct():
    before = PCut(A, PAxiom(A), PAxiom(negate(A)), -1, -1)
    wrong = PAxiom(B)  # same shape of sequent, different atom
    rep = verify_cut_soundness(before, wrong, budget=BUD)
    assert rep.verdict == "fail"
    # the exact route's witness, from the comparison of the normal forms
    assert rep.witness is not None
    assert rep.witness == failures_equiv(extract(before), extract(wrong), BUD, 4).witness


def test_corpus_realizers_match_golden():
    # captured before the dual connectives' wires were derived by swapping
    assert fresh_lines("corpus_realizers") == golden_lines("corpus_realizers")


def test_a_printed_realizer_reads_back_as_itself():
    # over each corpus proof's cut-elimination trail and the first steps
    # of every 7th eta cut: a printed renaming reads back as the map it
    # describes, so the realizer's text reads back as the very node
    from test_logic import eta_cuts  # which imports golden_lines

    cases = [
        (proof, entry["values"])
        for entry in corpus_proofs().values()
        for proof in cut_eliminate(entry["proof"], keep_trail=True).trail
    ]
    cases += [(proof, ()) for _, cut in eta_cuts()[::7] for proof in cut_eliminate(cut, 5, keep_trail=True).trail]
    assert len(cases) == 863
    for proof, values in cases:
        t = extract(proof, {}, values)
        assert parse_term(print_term(t), values) is t, print_term(t)


def test_formula_wires_match_golden():
    # the corpus has no axiom on an exponential; captured like the above
    assert fresh_lines("formula_wires") == golden_lines("formula_wires")


FORMULAS = st.recursive(
    st.builds(FAtom, st.sampled_from("ab"), st.booleans(), st.sampled_from([(), ("x",)])),
    lambda sub: st.one_of(
        st.builds(lambda c, l, r: c(l, r), st.sampled_from([FTensor, FPar, FWith, FPlus]), sub, sub),
        st.builds(lambda c, b: c(b), st.sampled_from([FBang, FQuest]), sub),
        st.builds(lambda c, b: c("x", b), st.sampled_from([FForall, FExists]), sub),
    ),
    max_leaves=6,
)


@settings(deadline=None)
@given(FORMULAS)
def test_dual_wire_is_swapped_wire(a):
    swapped = rename(formula_wire(a, {}, (0, 1)), SWAP)
    if isinstance(a, FAtom):
        # an identity wire is its own mirror image, up to equivalence
        assert failures_equiv(formula_wire(negate(a), {}, (0, 1)), swapped, BUD).ok
    else:
        assert formula_wire(negate(a), {}, (0, 1)) == swapped


def test_tensor_wire_relays_jointly():
    w = formula_wire(FTensor(A, B), {})
    # plugging a tensor of prefixes through the wire reproduces it
    p = tensor(parse_term("{a}.0"), parse_term("{b}.0"))
    assert failures_equiv(lapp(p, w), p, BUD).ok


def test_port_layout_pack_unpack_neutral():
    for name in ("tensor_par", "with_plus1", "prom_derel"):
        entry = corpus_proofs()[name]
        t = extract(entry["proof"], {}, entry["values"])
        k = len(conclusion(entry["proof"]))
        pack = pack_to_nested_binary(k)
        assert pack_to_nested_binary(k) is pack  # built once per arity
        packed_unpacked = rename(rename(t, pack), pack.inverse())
        assert failures_equiv(packed_unpacked, t, BUD).ok, name


def _atom_type(ident):
    n = REGISTRY.intern(ident)
    pos = Prefix(frozenset([positive(n)]), NIL)
    neg = Prefix(frozenset([negative(n)]), NIL)
    return SemType(RepPER(((pos,),)), RepPER(((neg,),)), frozenset([n]))


def test_totality_axiom_convergent():
    types = {"a": _atom_type("a")}
    assert verify_totality_pipeline(PAxiom(A), types, budget=BUD) == "convergent"


def test_totality_cut_of_axioms_convergent():
    types = {"a": _atom_type("a")}
    cut = PCut(A, PAxiom(A), PAxiom(negate(A)), -1, -1)
    assert verify_totality_pipeline(cut, types, budget=BUD) == "convergent"


def test_totality_of_an_invalid_proof_names_its_path():
    bad = PCut(A, PAxiom(A), PAxiom(A), -1, -1)
    with pytest.raises(ValueError, match=r"^invalid proof at \(\): dual cut formula"):
        verify_totality_pipeline(bad, {"a": _atom_type("a")}, budget=BUD)


def test_totality_negative_control_diverges():
    # a hand-built diverging term spliced against the type's consumers,
    # not a real extraction
    loop = parse_term("rec X. {}.X")
    t = _atom_type("a")
    assert perp(loop, t.neg.classes[0][0], BUD).verdict == "no"


def test_a_pipeline_asked_again_is_read_off_the_proof(monkeypatch):
    types = {"a": _atom_type("a")}
    cut = PCut(A, PAxiom(A), PAxiom(negate(A)), -1, -1)
    assert verify_totality_pipeline(cut, types, budget=BUD) == "convergent"
    asked = []
    for name in ("formula_to_type", "total"):
        run = getattr(extraction, name)
        monkeypatch.setattr(extraction, name, lambda *args, run=run, name=name: asked.append(name) or run(*args))
    assert verify_totality_pipeline(cut, dict(types), budget=BUD) == "convergent"
    assert asked == []
    # a consumer of `a` that diverges is another question, with another answer
    diverging = SemType(types["a"].pos, RepPER(((parse_term("rec X. {}.X"),),)), types["a"].interface)
    assert verify_totality_pipeline(cut, {"a": diverging}, budget=BUD) == "diverging"
    assert asked == ["formula_to_type", "total"]
    assert verify_totality_pipeline(cut, types, budget=BUD) == "convergent"
    assert len(cut._pipelines) == 2

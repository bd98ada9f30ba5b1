import json
import random
from dataclasses import dataclass, fields, replace
from pathlib import Path

import pytest

from golden_lines import TYPE_FORMULAS, golden_lines, trail_line
from procreal.corpus import corpus_proofs, eta_formulas, eta_proof
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
    FormulaParseError,
    RULE_NAMES,
    CheckResult,
    PAxiom,
    PContr,
    PCut,
    PDerel,
    PExchange,
    PExistsR,
    PForallR,
    PParR,
    PProm,
    PTensorR,
    PWeak,
    PWithR,
    Proof,
    _check_rule,
    check_proof,
    conclusion,
    cut_eliminate,
    has_cut,
    negate,
    parse_formula,
    print_formula,
    print_sequent,
    proof_from_json,
    proof_to_json,
    reduce_cut,
    subst_value_formula,
    subst_value_proof,
)

A = FAtom("a")
B = FAtom("b")


def random_formula(rng, depth):
    if depth <= 0:
        return FAtom(rng.choice("abc"), rng.random() < 0.5)
    kind = rng.choice(["atom", "tensor", "par", "with", "plus", "bang", "quest", "forall"])
    if kind == "atom":
        return FAtom(rng.choice("abc"), rng.random() < 0.5)
    if kind in ("tensor", "par", "with", "plus"):
        cls = {"tensor": FTensor, "par": FPar, "with": FWith, "plus": FPlus}[kind]
        return cls(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if kind == "bang":
        return FBang(random_formula(rng, depth - 1))
    if kind == "quest":
        return FQuest(random_formula(rng, depth - 1))
    return FForall("x", random_formula(rng, depth - 1))


def test_negate_examples():
    assert negate(FAtom("a")) == FAtom("a", False)
    assert negate(FTensor(A, B)) == FPar(negate(A), negate(B))
    assert negate(FBang(A)) == FQuest(negate(A))
    assert negate(FForall("x", A)) == FExists("x", negate(A))


def test_negate_involutive_on_random_formulas():
    rng = random.Random(2)
    for _ in range(300):
        f = random_formula(rng, rng.randint(0, 4))
        assert negate(negate(f)) == f


def test_formula_parse_print_roundtrip():
    rng = random.Random(6)
    for _ in range(300):
        f = random_formula(rng, rng.randint(0, 4))
        assert parse_formula(print_formula(f)) == f


def test_formula_syntax():
    assert parse_formula("a*b") == FTensor(A, B)
    assert parse_formula("a@b") == FPar(A, B)
    assert parse_formula("a&b") == FWith(A, B)
    assert parse_formula("a(+)b") == FPlus(A, B)
    assert parse_formula("!a") == FBang(A)
    assert parse_formula("?~a") == FQuest(negate(A))
    assert parse_formula("forall x. p(x)") == FForall("x", FAtom("p", True, ("x",)))


@pytest.mark.parametrize(
    "text, message",
    [
        ("forall", "expected a bound variable (line 1, column 7)"),
        ("forall (. a", "expected a bound variable (line 1, column 8)"),
        ("p(", "expected an identifier or an integer (line 1, column 3)"),
        ("p(1,", "expected an identifier or an integer (line 1, column 5)"),
        ("p(~a)", "expected an identifier or an integer (line 1, column 3)"),
        ("a*\n  (b", "expected ')', found '' (line 2, column 5)"),
        ("a $", "unexpected character '$' (line 1, column 3)"),
        ("a)", "trailing input ')' (line 1, column 2)"),
    ],
)
def test_formula_errors_name_line_and_column(text, message):
    with pytest.raises(FormulaParseError) as exc:
        parse_formula(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text", TYPE_FORMULAS)
def test_every_prefix_of_a_formula_parses_or_is_a_formula_error(text):
    # any other exception, such as reading past the end, fails the test
    for k in range(len(text)):
        try:
            parse_formula(text[:k])
        except FormulaParseError as exc:
            assert "(line 1, column " in str(exc)


def test_subst_value_formula():
    f = FForall("x", FTensor(FAtom("p", True, ("x",)), FAtom("p", True, ("y",))))
    g = subst_value_formula(f, "y", 2)
    assert g.body.right.args == (2,)
    assert g.body.left.args == ("x",)


def test_axiom_conclusion():
    assert conclusion(PAxiom(A)) == (negate(A), A)


def test_cut_mismatch_diagnostic():
    bad = PCut(A, PAxiom(A), PAxiom(A), -1, -1)
    res = check_proof(bad)
    assert not res.ok
    assert "dual cut formula" in res.error


# fails at the exchange, premise 0 of the par, premise 1 of the tensor
NESTED_ERROR = "invalid permutation (0, 0) for |- ~b, b"


def nested_invalid():
    return PTensorR(PAxiom(A), PParR(PExchange((0, 0), PAxiom(B))))


def test_nested_invalid_proof_reports_its_path():
    bad = nested_invalid()
    res = check_proof(bad)
    assert (res.ok, res.sequent, res.path, res.error) == (False, None, (1, 0), NESTED_ERROR)
    with pytest.raises(ValueError, match=r"^invalid proof at \(1, 0\): invalid permutation"):
        conclusion(bad)
    # a premise checked first keeps its path relative to itself
    fresh = nested_invalid()
    assert check_proof(fresh.right).path == (0,)
    assert check_proof(fresh) == res
    assert check_proof(PForallR("x", fresh)).path == (0, 1, 0)


def _concluding(*formulas) -> Proof:
    """An axiom whose kept check says it concludes `formulas`: no proof
    concludes the empty sequent, so only this reaches the cut's check that
    refuses to make one."""
    stub = PAxiom(A)
    stub.__dict__["_checked"] = CheckResult(formulas)
    return stub


@dataclass(frozen=True)
class _PLemma(Proof):
    premise: Proof


_PX = FAtom("p", True, ("x",))
# a node of each rule refused by each check of the rule's side condition,
# with its error; a node with two faults is refused by the check made first.
# Each row keeps the number it was first listed under, so its test id
# (`bad<number>-<error>`) stays when another row goes.
CHECK_ERRORS = {
    0: (PCut(B, PAxiom(A), PAxiom(A)), "cut formula b not at position 1 of |- ~a, a"),
    1: (PCut(A, PAxiom(A), PAxiom(A), 5, 7), "cut formula a not at position 5 of |- ~a, a"),
    2: (PCut(A, PAxiom(A), PAxiom(A)), "dual cut formula not at position 1 of |- ~a, a"),
    3: (PCut(A, PAxiom(A), PAxiom(negate(A)), -1, 2), "dual cut formula not at position 2 of |- a, ~a"),
    4: (PCut(A, _concluding(A), _concluding(negate(A))), "cut would produce an empty sequent"),
    7: (PParR(PParR(PAxiom(A))), "par needs two formulas to merge"),
    9: (PWithR(PAxiom(A), PAxiom(B)), "with premises must share their context"),
    12: (PExchange((0, 0), PAxiom(B)), NESTED_ERROR),
    13: (PExchange((0,), PAxiom(B)), "invalid permutation (0,) for |- ~b, b"),
    15: (PContr(PParR(PAxiom(A))), "contraction needs two equal final formulas"),
    16: (PContr(PWeak(A, PAxiom(A))), "contraction needs two equal final formulas"),
    17: (PContr(PExchange((2, 0, 1), PTensorR(PAxiom(A), PAxiom(A)))),
         "contraction applies to ?-formulas only"),
    19: (PProm(PAxiom(A)), "promotion context must consist of ?-formulas"),
    21: (PForallR("x", PAxiom(_PX)), "value variable x free in the context"),
    22: (PExistsR(0, A, _concluding()), "exists rule must carry an existential formula"),
    24: (PExistsR(0, FExists("x", _PX), PAxiom(A)), "premise ends with a, expected p(0)"),
    25: (_PLemma(PAxiom(A)), "unknown proof node _PLemma(premise=PAxiom(formula=FAtom(ident='a', pos=True, args=())))"),
}


@pytest.mark.parametrize(
    "bad, error", CHECK_ERRORS.values(), ids=[f"bad{n}-{error}" for n, (_, error) in CHECK_ERRORS.items()]
)
def test_each_check_refuses_with_its_own_error(bad, error):
    assert check_proof(bad) == CheckResult(None, error, ())
    # a failing premise's error keeps its text, under its path
    assert check_proof(PWeak(A, PTensorR(PAxiom(A), bad))) == CheckResult(None, error, (0, 1))
    with pytest.raises(ValueError) as caught:
        conclusion(PParR(PTensorR(bad, PAxiom(A))))
    assert str(caught.value) == f"invalid proof at (0, 0): {error}"


def test_a_node_that_is_no_proof_is_refused_under_its_path():
    assert check_proof("lemma") == CheckResult(None, "unknown proof node 'lemma'", ())
    assert check_proof(PWeak(A, PTensorR(PAxiom(A), "lemma"))) == CheckResult(
        None, "unknown proof node 'lemma'", (0, 1))


def _count_rule_checks(monkeypatch) -> list:
    checked = []

    def counting(p, seqs):
        checked.append(p)
        return _check_rule(p, seqs)

    monkeypatch.setattr("procreal.logic._check_rule", counting)
    return checked


def test_each_proof_node_is_checked_once(monkeypatch):
    checked = _count_rule_checks(monkeypatch)
    left = PTensorR(PAxiom(A), PAxiom(B))
    assert check_proof(left.left).ok and len(checked) == 1
    proof = PParR(left)
    assert conclusion(proof) == (negate(A), FPar(negate(B), FTensor(A, B)))
    assert len(checked) == 4  # the tensor, its right axiom and the par
    assert check_proof(proof).ok and conclusion(left) and check_proof(left.right).ok
    assert len(checked) == 4
    # a failing node keeps its error as well
    bad = nested_invalid()
    assert not check_proof(bad).ok and not check_proof(bad).ok
    # the tensor's left axiom, then the exchange's axiom and the exchange
    assert len(checked) == 4 + 3


def test_cut_elimination_trail_shares_kept_checks(monkeypatch):
    proof = corpus_proofs()["tensor_par"]["proof"]
    trail = cut_eliminate(proof, keep_trail=True).trail
    checked = _count_rule_checks(monkeypatch)
    for step in trail:
        assert check_proof(step).ok
    assert len(checked) == len({id(p) for p in checked})


def test_kept_check_is_no_part_of_the_proof_value():
    checked = PTensorR(PAxiom(A), PParR(PAxiom(B)))
    plain = PTensorR(PAxiom(A), PParR(PAxiom(B)))
    assert check_proof(checked).ok and "_checked" in vars(checked)
    assert "_checked" not in vars(plain)
    assert checked == plain and hash(checked) == hash(plain)
    assert repr(checked) == repr(plain)
    assert proof_to_json(checked) == proof_to_json(plain)
    assert "_checked" not in {f.name for f in fields(checked)}
    assert "_checked" not in vars(replace(checked))
    assert "_checked" not in vars(subst_value_proof(checked, "x", 1))


def test_tensor_rule_conclusion():
    t = PTensorR(PAxiom(A), PAxiom(B))
    assert conclusion(t) == (negate(A), negate(B), FTensor(A, B))


def test_exchange_validation():
    bad = PExchange((0, 0), PAxiom(A))
    assert not check_proof(bad).ok


def test_cut_free_proof_unchanged():
    t = PTensorR(PAxiom(A), PAxiom(B))
    res = cut_eliminate(t)
    assert res.steps == 0 and res.proof == t and res.status == "done"


def test_axiom_cut_one_step():
    cut = PCut(A, PAxiom(A), PAxiom(negate(A)), -1, -1)
    res = cut_eliminate(cut)
    assert res.steps == 1 and res.status == "done"


def test_tensor_example_within_step_bound():
    entry = corpus_proofs()["tensor_par"]
    res = cut_eliminate(entry["proof"])
    assert res.status == "done" and res.steps <= 8
    assert conclusion(res.proof) == conclusion(entry["proof"])


def test_every_corpus_step_preserves_conclusion():
    for name, entry in corpus_proofs().items():
        proof = entry["proof"]
        target = conclusion(proof)
        res = cut_eliminate(proof, keep_trail=True)
        assert res.status == "done", name
        assert not has_cut(res.proof), name
        for intermediate in res.trail:
            got = check_proof(intermediate)
            assert got.ok, (name, got.error)
            assert got.sequent == target, (name, print_sequent(got.sequent))


def test_corpus_covers_every_step_kind():
    seen = set()
    for entry in corpus_proofs().values():
        res = cut_eliminate(entry["proof"])
        seen |= set(res.kinds)
        missing = entry["expect_kinds"] - set(res.kinds)
        assert not missing, missing
    expected = {
        "axiom-left", "axiom-right", "tensor-par", "par-tensor",
        "with-plus1", "with-plus2", "plus1-with", "plus2-with",
        "prom-weak", "weak-prom", "prom-derel", "derel-prom",
        "prom-contr", "contr-prom", "forall-exists", "exists-forall",
        "exchange-left", "exchange-right", "push-left-weak",
        "push-right-weak",
    }
    assert expected <= seen


def test_one_step_reduces_a_cut_below_the_root():
    assert cut_eliminate(PAxiom(A), step_bound=1).steps == 0
    cut = PCut(A, PAxiom(A), PAxiom(negate(A)), -1, -1)
    res = cut_eliminate(PParR(cut), step_bound=1)
    assert (res.status, res.kinds) == ("done", ("axiom-left",))
    assert not has_cut(res.proof)


def test_innermost_cut_reduces_first():
    inner = PCut(A, PAxiom(A), PAxiom(negate(A)), -1, -1)
    outer = PCut(negate(A), inner, PAxiom(A), -1, -1)
    reduced, kind = reduce_cut(inner)
    res = cut_eliminate(outer, step_bound=1, keep_trail=True)
    assert (res.status, res.kinds) == ("bound", (kind,))
    assert res.trail == (outer, PCut(negate(A), reduced, PAxiom(A), -1, -1))


def test_each_elimination_step_reduces_once(monkeypatch):
    # one walk finds and reduces the redex: one `reduce_cut` per step
    calls = []

    def counted(cut):
        calls.append(cut)
        return reduce_cut(cut)

    monkeypatch.setattr("procreal.logic.reduce_cut", counted)
    steps = sum(cut_eliminate(e["proof"]).steps for e in corpus_proofs().values())
    assert len(calls) == steps == 59


def test_json_roundtrip_corpus():
    for entry in corpus_proofs().values():
        j = proof_to_json(entry["proof"])
        assert proof_from_json(j) == entry["proof"]


def test_proof_json_matches_golden():
    # captured before the proof rules were made table-driven; key order counts
    golden = Path(__file__).parent / "golden" / "corpus_proof_json.txt"
    got = [f"{name} {json.dumps(proof_to_json(e['proof']))}" for name, e in corpus_proofs().items()]
    assert got == golden.read_text(encoding="utf-8").splitlines()


AXIOM_JSON = {"rule": "axiom", "formula": "a"}


def _misspelt_cut() -> dict:
    """The cut of ?a in |- ~b, b, ?a, ?a (at 2) against |- ?a, !~a, as JSON
    with `pos_left` spelt `pos_lft`: read as the default -1, it would be
    another valid cut, whose first step is no longer `push-left-weak`."""
    left = PWeak(A, PWeak(A, PAxiom(B)))
    right = PProm(PExchange((1, 0), PDerel(PAxiom(A))))
    data = proof_to_json(PCut(FQuest(A), left, right, 2, 1))
    data["pos_lft"] = data.pop("pos_left")
    return data


@pytest.mark.parametrize(
    "data, message",
    [
        ([1], "JSON object"),
        pytest.param({"rule": "axiom", "formula": "a*"},  # a FormulaParseError
                     r"^expected a formula, found '' \(line 1, column 3\)$", id="unfinished-formula"),
        ({"rule": "lemma"}, "'lemma'"),
        ({"rule": "par"}, "'par'"),
        ({"rule": "axiom"}, "'axiom'"),
        ({"rule": "cut", "formula": "a", "premises": [AXIOM_JSON]}, "'cut'"),
        ({"rule": "exchange", "perm": 5, "premises": [AXIOM_JSON]}, "'exchange'"),
        ({"rule": "exists", "value": "1", "formula": "exists x. a", "premises": [AXIOM_JSON]},
         "'exists'"),
        ({"rule": "axiom", "formula": "a", "formulas": "b"}, "'axiom' has no field 'formulas'"),
        ({"rule": "par", "premise": AXIOM_JSON}, "'par' has no field 'premise'"),
        ({"rule": "par", "premises": [dict(AXIOM_JSON, pos_left=0)]},
         "'axiom' has no field 'pos_left'"),
        (_misspelt_cut(), "'cut' has no field 'pos_lft'"),
    ],
)
def test_proof_from_json_refuses_malformed_nodes(data, message):
    # a ValueError, so the command line exits 3; its message names the rule
    with pytest.raises(ValueError, match=message):
        proof_from_json(data)


def _every_rule(x, y):
    """One node of each proof rule: formula fields bind y, premises mention x and y."""
    p = lambda arg: FAtom("p", True, (arg,))
    side = {"Formula": FExists("y", FPar(p(x), p("y"))), "tuple": (0, 1), "int": 0, "str": "z"}
    for cls in RULE_NAMES:
        yield cls(**{
            f.name: PAxiom(FPar(p(x), p(y))) if f.type == "Proof" else side[f.type]
            for f in fields(cls)
        })


def test_with_premises_rebuilds_every_rule():
    for p in _every_rule("x", "y"):
        assert p.with_premises(p.premises()) == p
        new = tuple(PAxiom(FAtom(f"n{k}")) for k in range(len(p.premises())))
        q = p.with_premises(new)
        assert type(q) is type(p) and q.premises() == new
        assert all(getattr(q, f.name) == getattr(p, f.name)
                   for f in fields(p) if f.type != "Proof")
        with pytest.raises(ValueError):
            p.with_premises(new + (PAxiom(A),))
    for entry in corpus_proofs().values():
        stack = [entry["proof"]]
        while stack:
            node = stack.pop()
            assert node.with_premises(node.premises()) == node
            stack.extend(node.premises())


def test_subst_value_proof_on_every_rule():
    rules = zip(_every_rule("x", "y"), _every_rule(1, "y"), _every_rule("x", 2))
    for before, x_done, y_done in rules:
        assert subst_value_proof(before, "x", 1) == x_done
        # y is bound in every formula field, so only the premises change
        assert subst_value_proof(before, "y", 2) == y_done
    shielded = PForallR("x", PAxiom(FAtom("p", True, ("x",))))
    assert subst_value_proof(shielded, "x", 1) == shielded


# |- a*~a, ~a, a: the compound cut formula comes first, so no end of a cut
# on it is an axiom or an exchange
_CONTEXT = PExchange((2, 0, 1), PTensorR(PAxiom(A), PAxiom(negate(A))))
_DUAL = PParR(PAxiom(A))  # |- ~a@a
# the rules whose commuting conversions no eta cut reaches, over _CONTEXT
_OVER_CONTEXT = {
    "derel": PDerel(_CONTEXT),
    "contr": PContr(PWeak(B, PWeak(B, _CONTEXT))),
    "forallr": PForallR("x", _CONTEXT),
    "existsr": PExistsR(0, FExists("x", A), _CONTEXT),
}


def _promotable(x):
    """|- ?~x, x"""
    return PExchange((1, 0), PDerel(PExchange((1, 0), PAxiom(x))))


# |- ?~a, ?~b, !(a*!b): a promotion over a two-formula ?-context, against
# a weakening or a contraction of its cut formula's dual over |- ~d, d
_BOX = PProm(PTensorR(_promotable(A), PProm(_promotable(B))))
_BOXED = FBang(FTensor(A, FBang(B)))
_WEAK = PWeak(negate(_BOXED.body), PAxiom(FAtom("d")))
_AGAINST_BOX = {
    "prom-contr": PCut(_BOXED, _BOX, PContr(PWeak(negate(_BOXED.body), _WEAK))),
    "contr-prom": PCut(negate(_BOXED), PContr(PWeak(negate(_BOXED.body), _WEAK)), _BOX),
    "prom-weak": PCut(_BOXED, _BOX, _WEAK),
    "weak-prom": PCut(negate(_BOXED), _WEAK, _BOX),
}


def eta_cuts() -> list:
    """(name, cut) of each cut whose trail `tests/golden/eta_trails.txt`
    pins: the cut of each expanded identity against itself, named by its
    formula, then a cut on the first formula of each proof of
    `_OVER_CONTEXT`, named by the push its first step takes, then the
    cuts of `_AGAINST_BOX`, named by their first step."""
    cuts = []
    for f in eta_formulas():
        eta = eta_proof(f)
        cuts.append((print_formula(f), PCut(f, eta, eta, 1, 0)))
    for rule, proof in _OVER_CONTEXT.items():
        cuts.append((f"push-left-{rule}", PCut(FTensor(A, negate(A)), proof, _DUAL, 0, -1)))
        cuts.append((f"push-right-{rule}", PCut(FPar(negate(A), A), _DUAL, proof, -1, 0)))
    return cuts + list(_AGAINST_BOX.items())


def test_eta_proof_proves_the_expanded_identity():
    formulas = eta_formulas()
    assert len(formulas) == len(set(formulas)) == 903
    for f in formulas + [parse_formula(t) for t in ("!a", "?a", "!(a*b)", "!a*?b")]:
        proof = eta_proof(f)
        assert conclusion(proof) == (negate(f), f)
        assert not has_cut(proof)
    with pytest.raises(ValueError):
        eta_proof(FForall("x", A))


PUSHED = ("parr", "contr", "derel", "forallr", "existsr", "plusr1", "plusr2", "withr", "weak",
          "tensorr")


def test_eta_trails_match_golden(monkeypatch):
    # every step checks and keeps the conclusion; every commuting
    # conversion occurs, a tensor's on each premise, on each side
    tensor_premises = set()

    def recording(cut):
        reduced, kind = reduce_cut(cut)
        if kind.endswith("tensorr"):
            left = kind.startswith("push-left")
            tensor, pos = (cut.left, cut.pos_left) if left else (cut.right, cut.pos_right)
            tensor_premises.add((kind, pos >= len(conclusion(tensor.left)) - 1))
        return reduced, kind

    monkeypatch.setattr("procreal.logic.reduce_cut", recording)
    lines, kinds = [], set()
    for name, cut in eta_cuts():
        res = cut_eliminate(cut, keep_trail=True)
        assert res.status == "done", name
        target = conclusion(cut)
        for proof in res.trail:
            assert check_proof(proof).sequent == target, name
        kinds |= set(res.kinds)
        lines.append(trail_line(name, res))
    assert lines == golden_lines("eta_trails")
    pushes = {f"push-{side}-{rule}" for side in ("left", "right") for rule in PUSHED}
    assert pushes | {"exchange-left", "exchange-right"} <= kinds
    assert tensor_premises == {(f"push-{side}-tensorr", second)
                               for side in ("left", "right") for second in (False, True)}

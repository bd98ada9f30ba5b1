"""Shipped regression corpus: proofs covering every implemented
cut-elimination step kind, and the expanded identities (`eta_proof`) over
the small formulas of `eta_formulas`, whose cuts against themselves reach
the commuting conversions.  The named combinator-law exercise suites that
the command line runs live in `exercises.py`.

Promotions in the corpus carry empty ?-contexts except where the
consumer signals (dereliction): the discard signal carries no handshake,
so a discarded promotion cannot relay the discard to a nonempty context.
"""

from __future__ import annotations

from .logic import (
    DUAL_CONNECTIVES,
    FAtom,
    FBang,
    FExists,
    FForall,
    FPar,
    FPlus,
    FQuest,
    FTensor,
    FWith,
    Formula,
    PAxiom,
    PContr,
    PCut,
    PDerel,
    PExchange,
    PExistsR,
    PForallR,
    PParR,
    PPlusR1,
    PPlusR2,
    PProm,
    PTensorR,
    PWeak,
    PWithR,
    Proof,
    negate,
)

A = FAtom("a")
B = FAtom("b")
NA = negate(A)
NB = negate(B)


def _eta_tensor():
    """Proof of |- a*b, ~a@~b (the expanded identity on a tensor)."""
    t = PTensorR(PAxiom(A), PAxiom(B))  # |- ~a, ~b, a*b
    return PParR(PExchange((2, 0, 1), t))


def _prom_empty():
    """Promotion with empty context: |- !(~a@a)."""
    return PProm(PParR(PAxiom(A)))


BANGED = FPar(NA, A)
DUAL_BODY = FTensor(A, NA)  # negate(BANGED)


def corpus_proofs() -> dict:
    """name -> dict(proof=..., values=..., expect_kinds=set of step kinds
    the elimination trail must contain)."""
    proofs = {}

    proofs["axiom_left"] = dict(
        proof=PCut(A, PAxiom(A), PAxiom(NA), -1, -1),
        values=(),
        expect_kinds={"axiom-left"},
    )
    proofs["axiom_right"] = dict(
        proof=PCut(
            FPar(NA, A), PParR(PAxiom(A)), PAxiom(FTensor(A, NA)), -1, -1
        ),
        values=(),
        expect_kinds={"axiom-right"},
    )
    proofs["tensor_par"] = dict(
        proof=PCut(
            FTensor(A, B), PTensorR(PAxiom(A), PAxiom(B)), _eta_tensor(), -1, -1
        ),
        values=(),
        expect_kinds={"tensor-par"},
    )
    # mirrored order: cut formula introduced by par on the left
    proofs["par_tensor"] = dict(
        proof=PCut(
            FPar(NA, NB),
            PParR(PExchange((2, 0, 1), PTensorR(PAxiom(A), PAxiom(B)))),
            PTensorR(PAxiom(A), PAxiom(B)),
            -1,
            -1,
        ),
        values=(),
        expect_kinds={"par-tensor"},
    )
    # shared with-context built by injecting each axiom into ~a (+) ~b
    pi_a = PExchange((1, 0), PPlusR1(PExchange((1, 0), PAxiom(A)), NB))
    pi_b = PExchange((1, 0), PPlusR2(PExchange((1, 0), PAxiom(B)), NA))
    proofs["with_plus1"] = dict(
        proof=PCut(
            FWith(A, B),
            PWithR(pi_a, pi_b),
            PPlusR1(PAxiom(NA), NB),
            -1,
            -1,
        ),
        values=(),
        expect_kinds={"with-plus1"},
    )
    proofs["with_plus2"] = dict(
        proof=PCut(
            FWith(A, A),
            PWithR(PAxiom(A), PAxiom(A)),
            PPlusR2(PAxiom(NA), NA),
            -1,
            -1,
        ),
        values=(),
        expect_kinds={"with-plus2"},
    )
    pi_na = PExchange((1, 0), PPlusR1(PExchange((1, 0), PAxiom(NA)), B))
    pi_nb = PExchange((1, 0), PPlusR2(PExchange((1, 0), PAxiom(NB)), A))
    proofs["plus1_with"] = dict(
        proof=PCut(
            FPlus(A, B),
            PPlusR1(PAxiom(A), B),
            PWithR(pi_na, pi_nb),
            -1,
            -1,
        ),
        values=(),
        expect_kinds={"plus1-with"},
    )
    proofs["plus2_with"] = dict(
        proof=PCut(
            FPlus(A, A),
            PPlusR2(PAxiom(A), A),
            PWithR(PAxiom(NA), PAxiom(NA)),
            -1,
            -1,
        ),
        values=(),
        expect_kinds={"plus2-with"},
    )
    proofs["prom_weak"] = dict(
        proof=PCut(
            FBang(BANGED), _prom_empty(), PWeak(DUAL_BODY, PAxiom(B)), -1, -1
        ),
        values=(),
        expect_kinds={"prom-weak"},
    )
    proofs["weak_prom"] = dict(
        proof=PCut(
            FQuest(DUAL_BODY),
            PWeak(DUAL_BODY, PAxiom(B)),
            _prom_empty(),
            -1,
            -1,
        ),
        values=(),
        expect_kinds={"weak-prom"},
    )
    tens = PTensorR(PAxiom(A), PExchange((1, 0), PAxiom(A)))  # |- ~a, a, a*~a
    proofs["prom_derel"] = dict(
        proof=PCut(FBang(BANGED), _prom_empty(), PDerel(tens), -1, -1),
        values=(),
        expect_kinds={"prom-derel"},
    )
    # dereliction against a promotion with a nonempty ?-context: the
    # delta signal is handshaked, so the context is sound here
    prom_ctx = PProm(PExchange((1, 0), PDerel(PExchange((1, 0), PAxiom(A)))))
    proofs["prom_ctx_derel"] = dict(
        proof=PCut(FBang(A), prom_ctx, PDerel(PAxiom(NA)), -1, -1),
        values=(),
        expect_kinds={"prom-derel"},
    )
    proofs["derel_prom"] = dict(
        proof=PCut(FQuest(DUAL_BODY), PDerel(tens), _prom_empty(), -1, -1),
        values=(),
        expect_kinds={"derel-prom"},
    )
    proofs["prom_contr"] = dict(
        proof=PCut(
            FBang(BANGED),
            _prom_empty(),
            PContr(PWeak(DUAL_BODY, PWeak(DUAL_BODY, PAxiom(B)))),
            -1,
            -1,
        ),
        values=(),
        expect_kinds={"prom-contr"},
    )
    proofs["prom_contr_derel"] = dict(
        proof=PCut(
            FBang(BANGED),
            _prom_empty(),
            PContr(PWeak(DUAL_BODY, PDerel(tens))),
            -1,
            -1,
        ),
        values=(),
        expect_kinds={"prom-contr"},
    )
    proofs["contr_prom"] = dict(
        proof=PCut(
            FQuest(DUAL_BODY),
            PContr(PWeak(DUAL_BODY, PWeak(DUAL_BODY, PAxiom(B)))),
            _prom_empty(),
            -1,
            -1,
        ),
        values=(),
        expect_kinds={"contr-prom"},
    )
    vac = PForallR("x", PAxiom(A))
    proofs["forall_exists"] = dict(
        proof=PCut(
            FForall("x", A),
            vac,
            PExistsR(1, FExists("x", NA), PAxiom(NA)),
            -1,
            -1,
        ),
        values=(0, 1),
        expect_kinds={"forall-exists"},
    )
    proofs["exists_forall"] = dict(
        proof=PCut(
            FExists("x", A),
            PExistsR(0, FExists("x", A), PAxiom(A)),
            PForallR("x", PAxiom(NA)),
            -1,
            -1,
        ),
        values=(0, 1),
        expect_kinds={"exists-forall"},
    )
    # exchange-wrapped premises exercise the strip steps (axiom premises
    # would short-circuit through the axiom cut, so both sides are kept
    # compound here)
    proofs["exchange_strip_left"] = dict(
        proof=PCut(
            FTensor(A, B),
            PExchange((0, 1, 2), PTensorR(PAxiom(A), PAxiom(B))),
            _eta_tensor(),
            -1,
            -1,
        ),
        values=(),
        expect_kinds={"exchange-left"},
    )
    proofs["exchange_strip_right"] = dict(
        proof=PCut(
            FPar(NA, A),
            PParR(PAxiom(A)),
            PExchange((1, 0), PExchange((1, 0), PAxiom(FTensor(A, NA)))),
            -1,
            -1,
        ),
        values=(),
        expect_kinds={"exchange-right"},
    )
    # cut at a non-principal position pushes through the weakening
    weak_l = PWeak(B, PTensorR(PAxiom(A), PAxiom(B)))  # |- ~a, ~b, a*b, ?b
    proofs["push_left"] = dict(
        proof=PCut(FTensor(A, B), weak_l, _eta_tensor(), 2, -1),
        values=(),
        expect_kinds={"push-left-weak"},
    )
    weak_r = PWeak(B, _eta_tensor())  # |- a*b, ~a@~b, ?b
    proofs["push_right"] = dict(
        proof=PCut(
            FTensor(A, B), PTensorR(PAxiom(A), PAxiom(B)), weak_r, -1, 1
        ),
        values=(),
        expect_kinds={"push-right-weak"},
    )
    return proofs


def eta_proof(f: Formula) -> Proof:
    """The expanded identity on `f`: a proof of |- ~f, f whose axioms are
    on positive atoms only.  A tensor, with or bang is introduced last; a
    negated atom, par, plus or why-not takes the proof of its dual with
    the two formulas exchanged.  Quantifiers are not covered."""
    if isinstance(f, DUAL_CONNECTIVES) or (isinstance(f, FAtom) and not f.pos):
        return PExchange((1, 0), eta_proof(negate(f)))
    if isinstance(f, FAtom):
        return PAxiom(f)
    if isinstance(f, FTensor):  # |- ~l@~r, l*r from |- l*r, ~l, ~r
        pair = PTensorR(eta_proof(f.left), eta_proof(f.right))
        return PExchange((1, 0), PParR(PExchange((2, 0, 1), pair)))
    if isinstance(f, FWith):  # each branch |- ~l(+)~r, l or r
        left = PPlusR1(PExchange((1, 0), eta_proof(f.left)), negate(f.right))
        right = PPlusR2(PExchange((1, 0), eta_proof(f.right)), negate(f.left))
        return PWithR(PExchange((1, 0), left), PExchange((1, 0), right))
    if isinstance(f, FBang):  # promote |- ?~b, b
        return PProm(PExchange((1, 0), PDerel(PExchange((1, 0), eta_proof(f.body)))))
    raise ValueError(f"no expanded identity on {f!r}")


def eta_formulas() -> list:
    """The 903 formulas with one to three leaves, each `a`, `b` or `~a`,
    joined by `*`, `@`, `&` and `(+)`: by leaf count, then by the split
    into left and right leaves, the connective, the left and the right
    subformula."""
    by_leaves = {1: [A, B, NA]}
    for n in (2, 3):
        by_leaves[n] = [
            cls(left, right)
            for k in range(1, n)
            for cls in (FTensor, FPar, FWith, FPlus)
            for left in by_leaves[k]
            for right in by_leaves[n - k]
        ]
    return [f for n in (1, 2, 3) for f in by_leaves[n]]

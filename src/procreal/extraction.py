"""Process realizers for sequent proofs.

A sequent of k formulas is realized over a k-way arithmetic port layout:
position i owns the names congruent to i-1 mod k, and the formula's own
label space is coded pointwise into that region.  Pack/unpack renamings
mediate between the k-way layout and the binary l/r split that the
process combinators use, so Cut is composition with focus renamings and
the multiplicative rules are pure relabellings.

Axioms are realized by structural wires: an identity wire over the
atom's alphabet, with compound wires assembled from component wires by
through-codings (tensor/par), choice-relaying sums (with/plus,
quantifiers) and a recursive relay for the exponentials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .combinators import identity_wire, seq
from .equivalence import EquivResult, failures_equiv, perp
from .names import (
    ALPHA,
    BETA,
    Compose,
    DELTA,
    GAMMA,
    KwayCode,
    KwayDecode,
    LCODE,
    Label,
    OMEGA,
    Piecewise,
    RCODE,
    REGISTRY,
    Renaming,
    SIGMA,
    SWAP,
    negative,
    positive,
)
from .semantics import ExplorationBudget
from .terms import NIL, Par, Prefix, Rec, Sum, Term, Var, rename, value_name
from .logic import (
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
    _resolve,
    check_proof,
    negate,
    subst_value_formula,
    subst_value_proof,
)
from .semtypes import formula_to_type, par_type


class ExtractionError(Exception):
    pass


AtomEnv = dict  # atom ident -> frozenset[Name]


def atom_alphabet(env: AtomEnv, ident: str) -> frozenset:
    alpha = env.get(ident)
    if alpha is None:
        return frozenset([REGISTRY.intern(ident)])
    return frozenset(alpha)


# ---------------------------------------------------------------------------
# Port renaming helpers


def port_action(i: int, k: int, labels) -> frozenset:
    return frozenset(Label(k * lab.code + (i - 1), lab.neg) for lab in labels)


def relayout(pieces: list) -> Renaming:
    """pieces: (src_port, src_ways, inner: Optional[Renaming], dst_port, dst_ways).
    Each piece routes one source region into a destination region,
    optionally transforming the port content with `inner` in between."""
    parts = []
    for src, src_k, inner, dst, dst_k in pieces:
        r: Renaming = KwayDecode(src, src_k)
        if inner is not None:
            r = Compose(inner, r)
        parts.append(Compose(KwayCode(dst, dst_k), r))
    return Piecewise(parts)


def through(sub: Renaming) -> Renaming:
    """Applies `sub` to the content of both binary halves: l(x) -> l(sub x)."""
    return Piecewise(
        [
            Compose(Compose(LCODE, sub), KwayDecode(1, 2)),
            Compose(Compose(RCODE, sub), KwayDecode(2, 2)),
        ]
    )


THROUGH_L = through(LCODE)
THROUGH_R = through(RCODE)


# ---------------------------------------------------------------------------
# Structural wires for axiom instances


def formula_wire(a: Formula, env: AtomEnv, values: tuple = ()) -> Term:
    """Realizer of the identity axiom on `a`: left half carries the dual
    position, right half the formula itself."""
    if isinstance(a, FAtom):
        return identity_wire(atom_alphabet(env, a.ident))
    if isinstance(a, FTensor):
        wl = rename(formula_wire(a.left, env, values), THROUGH_L)
        wr = rename(formula_wire(a.right, env, values), THROUGH_R)
        return Par(wl, wr)
    if isinstance(a, FPar):
        return rename(formula_wire(FTensor(negate(a.left), negate(a.right)), env, values), SWAP)
    if isinstance(a, FWith):
        la, ra = positive(ALPHA), positive(BETA)
        return Sum(
            (
                (
                    frozenset([Label(2 * la.code, True), Label(2 * la.code + 1, False)]),
                    formula_wire(a.left, env, values),
                ),
                (
                    frozenset([Label(2 * ra.code, True), Label(2 * ra.code + 1, False)]),
                    formula_wire(a.right, env, values),
                ),
            )
        )
    if isinstance(a, FPlus):
        return rename(formula_wire(FWith(negate(a.left), negate(a.right)), env, values), SWAP)
    if isinstance(a, FBang):
        inner = formula_wire(a.body, env, values)
        var = "W"
        split = Par(rename(Var(var), THROUGH_L), rename(Var(var), THROUGH_R))
        omega_l = Label(2 * OMEGA.code, False)
        omega_r = Label(2 * OMEGA.code + 1, False)
        branches = (
            (frozenset([omega_l.dual(), omega_r]), NIL),
            (frozenset([omega_l, omega_r.dual()]), NIL),
            (
                frozenset([Label(2 * DELTA.code, True), Label(2 * DELTA.code + 1, False)]),
                inner,
            ),
            (
                frozenset([Label(2 * GAMMA.code, True), Label(2 * GAMMA.code + 1, False)]),
                split,
            ),
        )
        return Rec(var, Sum(branches))
    if isinstance(a, FQuest):
        return rename(formula_wire(FBang(negate(a.body)), env, values), SWAP)
    if isinstance(a, FForall):
        if not values:
            raise ExtractionError("quantifier wire needs a declared value domain")
        branches = []
        for v in values:
            sv = value_name(SIGMA, v)  # sigma has registry code 5
            guard = frozenset([Label(2 * sv.code, True), Label(2 * sv.code + 1, False)])
            branches.append((guard, formula_wire(subst_value_formula(a.body, a.var, v), env, values)))
        return Sum(tuple(branches))
    if isinstance(a, FExists):
        return rename(formula_wire(FForall(a.var, negate(a.body)), env, values), SWAP)
    raise TypeError(f"not a formula: {a!r}")


# ---------------------------------------------------------------------------
# The realizer assignment


def extract(proof: Proof, env: Optional[AtomEnv] = None, values: tuple = ()) -> Term:
    return _extract_checked(proof, env or {}, values, {})


def _extract_checked(proof: Proof, env: AtomEnv, values: tuple, conclusions: dict) -> Term:
    """Checks the proof once, recording every sub-proof's conclusion in
    `conclusions`, then extracts.  The rules read their premises'
    conclusions there (port layouts depend on the premises' lengths)
    instead of re-checking a sub-proof at every node above it."""
    res = check_proof(proof, (), conclusions)
    if not res.ok:
        raise ExtractionError(f"invalid proof at {res.path}: {res.error}")
    return _extract(proof, env, values, conclusions)


def _extract(p: Proof, env: AtomEnv, values: tuple, conclusions: dict) -> Term:
    def _concl(q: Proof):
        return conclusions[id(q)][1]

    if isinstance(p, PAxiom):
        return formula_wire(p.formula, env, values)

    if isinstance(p, PCut):
        ls = _concl(p.left)
        rs = _concl(p.right)
        k1, k2 = len(ls), len(rs)
        i = _resolve(p.pos_left, k1) + 1  # 1-based cut ports
        j = _resolve(p.pos_right, k2) + 1
        tl = _extract(p.left, env, values, conclusions)
        tr = _extract(p.right, env, values, conclusions)
        pieces_l = []
        rank = 0
        for m in range(1, k1 + 1):
            if m == i:
                pieces_l.append((m, k1, None, 2, 2))
            else:
                rank += 1
                pieces_l.append((m, k1, KwayCode(rank, k1 - 1), 1, 2))
        pieces_r = []
        rank = 0
        for m in range(1, k2 + 1):
            if m == j:
                pieces_r.append((m, k2, None, 1, 2))
            else:
                rank += 1
                pieces_r.append((m, k2, KwayCode(rank, k2 - 1), 2, 2))
        composed = seq(rename(tl, relayout(pieces_l)), rename(tr, relayout(pieces_r)))
        g, d = k1 - 1, k2 - 1
        k = g + d
        pieces_out = [(1, 2, KwayDecode(m, g), m, k) for m in range(1, g + 1)]
        pieces_out += [(2, 2, KwayDecode(m, d), g + m, k) for m in range(1, d + 1)]
        return rename(composed, relayout(pieces_out))

    if isinstance(p, PTensorR):
        s1, s2 = _concl(p.left), _concl(p.right)
        k1, k2 = len(s1), len(s2)
        k = k1 + k2 - 1
        tl = _extract(p.left, env, values, conclusions)
        tr = _extract(p.right, env, values, conclusions)
        pieces_l = [(m, k1, None, m, k) for m in range(1, k1)]
        pieces_l.append((k1, k1, LCODE, k, k))
        pieces_r = [(m, k2, None, k1 - 1 + m, k) for m in range(1, k2)]
        pieces_r.append((k2, k2, RCODE, k, k))
        return Par(rename(tl, relayout(pieces_l)), rename(tr, relayout(pieces_r)))

    if isinstance(p, PParR):
        s = _concl(p.premise)
        kp = len(s)
        k = kp - 1
        tp = _extract(p.premise, env, values, conclusions)
        pieces = [(m, kp, None, m, k) for m in range(1, k)]
        pieces.append((k, kp, LCODE, k, k))
        pieces.append((kp, kp, RCODE, k, k))
        return rename(tp, relayout(pieces))

    if isinstance(p, PWithR):
        s = _concl(p.left)
        k = len(s)
        tl = _extract(p.left, env, values, conclusions)
        tr = _extract(p.right, env, values, conclusions)
        ga = port_action(k, k, [positive(ALPHA)])
        gb = port_action(k, k, [positive(BETA)])
        return Sum(((ga, tl), (gb, tr)))

    if isinstance(p, PPlusR1):
        s = _concl(p.premise)
        k = len(s)
        guard = port_action(k, k, [negative(ALPHA)])
        return Prefix(guard, _extract(p.premise, env, values, conclusions))
    if isinstance(p, PPlusR2):
        s = _concl(p.premise)
        k = len(s)
        guard = port_action(k, k, [negative(BETA)])
        return Prefix(guard, _extract(p.premise, env, values, conclusions))

    if isinstance(p, PExchange):
        s = _concl(p.premise)
        k = len(s)
        tp = _extract(p.premise, env, values, conclusions)
        pieces = [(p.perm[m] + 1, k, None, m + 1, k) for m in range(k)]
        return rename(tp, relayout(pieces))

    if isinstance(p, PWeak):
        s = _concl(p.premise)
        kp = len(s)
        k = kp + 1
        tp = _extract(p.premise, env, values, conclusions)
        pieces = [(m, kp, None, m, k) for m in range(1, kp + 1)]
        unit = Prefix(port_action(k, k, [positive(OMEGA)]), NIL)
        return Par(rename(tp, relayout(pieces)), unit)

    if isinstance(p, PDerel):
        s = _concl(p.premise)
        k = len(s)
        guard = port_action(k, k, [negative(DELTA)])
        return Prefix(guard, _extract(p.premise, env, values, conclusions))

    if isinstance(p, PContr):
        s = _concl(p.premise)
        kp = len(s)
        k = kp - 1
        tp = _extract(p.premise, env, values, conclusions)
        pieces = [(m, kp, None, m, k) for m in range(1, k)]
        pieces.append((k, kp, LCODE, k, k))
        pieces.append((kp, kp, RCODE, k, k))
        guard = port_action(k, k, [negative(GAMMA)])
        return Prefix(guard, rename(tp, relayout(pieces)))

    if isinstance(p, PProm):
        s = _concl(p.premise)
        k = len(s)
        tp = _extract(p.premise, env, values, conclusions)
        var = "X"
        theta1 = relayout([(m, k, LCODE, m, k) for m in range(1, k + 1)])
        theta2 = relayout([(m, k, RCODE, m, k) for m in range(1, k + 1)])
        split = Par(rename(Var(var), theta1), rename(Var(var), theta2))
        gamma_guard = port_action(k, k, [positive(GAMMA)])
        for m in range(1, k):
            gamma_guard |= port_action(m, k, [negative(GAMMA)])
        branches = (
            (port_action(k, k, [positive(OMEGA)]), NIL),
            (port_action(k, k, [positive(DELTA)]), tp),
            (gamma_guard, split),
        )
        return Rec(var, Sum(branches))

    if isinstance(p, PForallR):
        if not values:
            raise ExtractionError("quantifier extraction needs a declared value domain")
        s = _concl(p.premise)
        k = len(s)
        branches = []
        for v in values:
            inst = subst_value_proof(p.premise, p.var, v)
            sv = value_name(SIGMA, v)
            guard = port_action(k, k, [positive(sv)])
            branches.append((guard, _extract_checked(inst, env, values, conclusions)))
        return Sum(tuple(branches))

    if isinstance(p, PExistsR):
        s = _concl(p.premise)
        k = len(s)
        sv = value_name(SIGMA, p.value)
        guard = port_action(k, k, [negative(sv)])
        return Prefix(guard, _extract(p.premise, env, values, conclusions))

    raise ExtractionError(f"unsupported proof node {type(p).__name__}")


# ---------------------------------------------------------------------------
# Verification drivers


@dataclass
class SoundnessReport:
    verdict: str  # "pass" | "fail" | "unknown"
    detail: str = ""
    witness: Optional[dict] = None


def verify_cut_soundness(
    before: Proof,
    after: Proof,
    env: Optional[AtomEnv] = None,
    values: tuple = (),
    budget: ExplorationBudget = ExplorationBudget(),
    depth: int = 4,
) -> SoundnessReport:
    """Compares the realizers of a proof and its reduct under failures
    equivalence, with the bounded fallback inherited from the checker."""
    t1 = extract(before, env, values)
    t2 = extract(after, env, values)
    res: EquivResult = failures_equiv(t1, t2, budget, depth)
    if res.verdict == "equal":
        return SoundnessReport("pass")
    if res.verdict == "distinguished":
        return SoundnessReport("fail", witness=res.witness)
    return SoundnessReport("unknown", detail=res.detail)


def pack_to_nested_binary(k: int) -> Renaming:
    """k-way layout to the left-nested binary coding of a folded
    multi-position interface: position 1 at l^(k-1), position j>1 at
    l^(k-j) r."""
    pieces = []
    for j in range(1, k + 1):
        enc: Optional[Renaming] = None
        if j > 1:
            enc = RCODE
        for _ in range(k - j):
            enc = LCODE if enc is None else Compose(LCODE, enc)
        if enc is None:
            parts: Renaming = KwayDecode(j, k)
        else:
            parts = Compose(enc, KwayDecode(j, k))
        pieces.append(parts)
    return Piecewise(pieces)


def verify_totality_pipeline(
    proof: Proof,
    atom_types: dict,
    env: Optional[AtomEnv] = None,
    values: tuple = (),
    budget: ExplorationBudget = ExplorationBudget(),
) -> str:
    """Checks the extracted realizer against every negative representative
    of the conclusion's folded type: "convergent" when all closed systems
    converge, "diverging" when one diverges, else "unknown"."""
    concl = check_proof(proof).sequent
    ty = formula_to_type(concl[0], atom_types, budget)
    for f in concl[1:]:
        ty = par_type(ty, formula_to_type(f, atom_types, budget), budget)
    packed = rename(extract(proof, env, values), pack_to_nested_binary(len(concl)))
    saw_unknown = False
    for cls in ty.neg.classes:
        outcome = perp(packed, cls[0], budget)
        if outcome == "no":
            return "diverging"
        if outcome == "unknown":
            saw_unknown = True
    return "unknown" if saw_unknown else "convergent"

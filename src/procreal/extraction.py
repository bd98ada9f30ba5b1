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

from functools import lru_cache, reduce
from typing import Optional

from .combinators import identity_wire, seq
from .equivalence import failures_verdict
from .names import (
    ALPHA,
    BETA,
    Compose,
    DELTA,
    GAMMA,
    KwayCode,
    KwayDecode,
    LCODE,
    Name,
    OMEGA,
    Piecewise,
    RCODE,
    REGISTRY,
    Renaming,
    SIGMA,
    SWAP,
    l_code,
    negative,
    positive,
    r_code,
)
from .semantics import ExplorationBudget, Verdict
from .terms import NIL, Par, Prefix, Rec, Sum, Term, Var, choice, rename, value_name
from .logic import (
    DUAL_CONNECTIVES,
    FAtom,
    FBang,
    FForall,
    FPar,
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
    conclusion,
    negate,
    subst_value_formula,
    subst_value_proof,
)
from .semtypes import RepPER, SemType, formula_to_type, total


class ExtractionError(ValueError):
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
    return frozenset(map(KwayCode(i, k).apply_label, labels))


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


def _relay(n: Name) -> frozenset:
    """The guard {~l(n), r(n)}: n taken on the left half, offered on the right."""
    return frozenset([negative(l_code(n)), positive(r_code(n))])


def formula_wire(a: Formula, env: AtomEnv, values: tuple = ()) -> Term:
    """Realizer of the identity axiom on `a`: left half carries the dual
    position, right half the formula itself.  A dual connective's wire is
    its de Morgan dual's with the halves swapped."""
    if isinstance(a, DUAL_CONNECTIVES):
        return rename(formula_wire(negate(a), env, values), SWAP)
    if isinstance(a, FAtom):
        return identity_wire(atom_alphabet(env, a.ident))
    if isinstance(a, FTensor):
        wl = rename(formula_wire(a.left, env, values), THROUGH_L)
        wr = rename(formula_wire(a.right, env, values), THROUGH_R)
        return Par(wl, wr)
    if isinstance(a, FWith):
        return Sum(
            (
                (_relay(ALPHA), formula_wire(a.left, env, values)),
                (_relay(BETA), formula_wire(a.right, env, values)),
            )
        )
    if isinstance(a, FBang):
        inner = formula_wire(a.body, env, values)
        var = "W"
        split = Par(rename(Var(var), THROUGH_L), rename(Var(var), THROUGH_R))
        discard = _relay(OMEGA)
        branches = (
            (discard, NIL),
            (frozenset(lab.dual() for lab in discard), NIL),
            (_relay(DELTA), inner),
            (_relay(GAMMA), split),
        )
        return Rec(var, Sum(branches))
    if isinstance(a, FForall):
        if not values:
            raise ExtractionError("quantifier wire needs a declared value domain")
        branches = []
        for v in values:
            sv = value_name(SIGMA, v)
            branches.append((_relay(sv), formula_wire(subst_value_formula(a.body, a.var, v), env, values)))
        return choice(tuple(branches))
    raise TypeError(f"not a formula: {a!r}")


# ---------------------------------------------------------------------------
# The realizer assignment


def extract(proof: Proof, env: Optional[AtomEnv] = None, values: tuple = ()) -> Term:
    """The realizer of `proof`; raises ExtractionError naming an invalid
    proof's path and error, and keeps nothing then.  Each rule's port
    layout reads its premises' conclusions, kept on the nodes by the check
    (`conclusion`).  Each node keeps its realizer per atom env and value
    domain (`Proof._realizers`): realizers are hash-consed
    terms, so a kept one is the node a cold extraction builds.  A proof
    rebuilt by a reduction shares the premises it does not touch, so
    extracting it builds only the rebuilt path."""
    res = check_proof(proof)
    if not res.ok:
        raise ExtractionError(f"invalid proof at {res.path}: {res.error}")
    env = env or {}
    values = tuple(values)
    return _extract(proof, env, values, (frozenset(env.items()), values))


# Rules realized by the premise's realizer behind one co-signal at the
# last port, and the name each signals.
_SIGNALS = {
    PPlusR1: lambda p: ALPHA,
    PPlusR2: lambda p: BETA,
    PDerel: lambda p: DELTA,
    PExistsR: lambda p: value_name(SIGMA, p.value),
}


@lru_cache(maxsize=64)
def _merge_last_two(kp: int) -> Renaming:
    """A kp-way layout onto kp - 1 ports: the last two ports become the
    l and r halves of the new last one."""
    k = kp - 1
    pieces = [(m, kp, None, m, k) for m in range(1, k)]
    pieces.append((k, kp, LCODE, k, k))
    pieces.append((kp, kp, RCODE, k, k))
    return relayout(pieces)


@lru_cache(maxsize=256)
def _cut_layout(k: int, c: int, half: int) -> Renaming:
    """A cut premise's k-way layout onto the binary one: its cut port `c`
    to `half`, the other ports, in order, (k-1)-way into the other half."""
    return relayout([
        (m, k, None, half, 2) if m == c else (m, k, KwayCode(m - (m > c), k - 1), 3 - half, 2)
        for m in range(1, k + 1)
    ])


def _extract(p: Proof, env: AtomEnv, values: tuple, key: tuple) -> Term:
    """The realizer of the checked node `p`, kept on it under `key`, the
    env's items and the value domain."""
    kept = p._realizers
    term = kept.get(key)
    if term is None:
        term = kept[key] = _realize(p, env, values, key)
    return term


def _realize(p: Proof, env: AtomEnv, values: tuple, key: tuple) -> Term:
    if isinstance(p, PAxiom):
        return formula_wire(p.formula, env, values)

    if isinstance(p, PCut):
        k1, k2 = len(conclusion(p.left)), len(conclusion(p.right))
        i = _resolve(p.pos_left, k1) + 1  # 1-based cut ports
        j = _resolve(p.pos_right, k2) + 1
        tl = rename(_extract(p.left, env, values, key), _cut_layout(k1, i, 2))
        tr = rename(_extract(p.right, env, values, key), _cut_layout(k2, j, 1))
        composed = seq(tl, tr)
        g, d = k1 - 1, k2 - 1
        k = g + d
        pieces_out = [(1, 2, KwayDecode(m, g), m, k) for m in range(1, g + 1)]
        pieces_out += [(2, 2, KwayDecode(m, d), g + m, k) for m in range(1, d + 1)]
        return rename(composed, relayout(pieces_out))

    if isinstance(p, PTensorR):
        k1, k2 = len(conclusion(p.left)), len(conclusion(p.right))
        k = k1 + k2 - 1
        tl = _extract(p.left, env, values, key)
        tr = _extract(p.right, env, values, key)
        pieces_l = [(m, k1, None, m, k) for m in range(1, k1)]
        pieces_l.append((k1, k1, LCODE, k, k))
        pieces_r = [(m, k2, None, k1 - 1 + m, k) for m in range(1, k2)]
        pieces_r.append((k2, k2, RCODE, k, k))
        return Par(rename(tl, relayout(pieces_l)), rename(tr, relayout(pieces_r)))

    if isinstance(p, PParR):
        kp = len(conclusion(p.premise))
        return rename(_extract(p.premise, env, values, key), _merge_last_two(kp))

    if isinstance(p, PWithR):
        k = len(conclusion(p.left))
        tl = _extract(p.left, env, values, key)
        tr = _extract(p.right, env, values, key)
        ga = port_action(k, k, [positive(ALPHA)])
        gb = port_action(k, k, [positive(BETA)])
        return Sum(((ga, tl), (gb, tr)))

    signal = _SIGNALS.get(type(p))
    if signal is not None:
        k = len(conclusion(p.premise))
        guard = port_action(k, k, [negative(signal(p))])
        return Prefix(guard, _extract(p.premise, env, values, key))

    if isinstance(p, PExchange):
        k = len(conclusion(p.premise))
        tp = _extract(p.premise, env, values, key)
        pieces = [(p.perm[m] + 1, k, None, m + 1, k) for m in range(k)]
        return rename(tp, relayout(pieces))

    if isinstance(p, PWeak):
        kp = len(conclusion(p.premise))
        k = kp + 1
        tp = _extract(p.premise, env, values, key)
        pieces = [(m, kp, None, m, k) for m in range(1, kp + 1)]
        unit = Prefix(port_action(k, k, [positive(OMEGA)]), NIL)
        return Par(rename(tp, relayout(pieces)), unit)

    if isinstance(p, PContr):
        kp = len(conclusion(p.premise))
        tp = _extract(p.premise, env, values, key)
        guard = port_action(kp - 1, kp - 1, [negative(GAMMA)])
        return Prefix(guard, rename(tp, _merge_last_two(kp)))

    if isinstance(p, PProm):
        k = len(conclusion(p.premise))
        tp = _extract(p.premise, env, values, key)
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
        k = len(conclusion(p.premise))
        branches = []
        for v in values:
            inst = subst_value_proof(p.premise, p.var, v)
            sv = value_name(SIGMA, v)
            guard = port_action(k, k, [positive(sv)])
            branches.append((guard, extract(inst, env, values)))
        return choice(tuple(branches))

    raise ExtractionError(f"unsupported proof node {type(p).__name__}")


# ---------------------------------------------------------------------------
# Verification drivers


# A step whose realizers are failures-equal.
PASS = Verdict("pass")


def verify_cut_soundness(
    before: Proof,
    after: Proof,
    env: Optional[AtomEnv] = None,
    values: tuple = (),
    budget: ExplorationBudget = ExplorationBudget(),
    depth: int = 4,
) -> Verdict:
    """Compares the realizers of a proof and its reduct under failures
    equivalence, with the bounded fallback at `depth`: "pass", "fail" with
    a failures witness, or the comparison's "unknown".  Decided, witness
    included, from the fingerprints the answer memo keeps
    (`failures_verdict`), so a step checked again, whose realizers are kept
    on its proofs' nodes, explores nothing while its answers are kept."""
    res = failures_verdict(extract(before, env, values), extract(after, env, values), budget, depth)
    if res.verdict == "unknown":
        return res
    return PASS if res.ok else Verdict("fail", res.witness)


@lru_cache(maxsize=64)
def pack_to_nested_binary(k: int) -> Renaming:
    """k-way layout to the left-nested binary coding of a folded
    multi-position interface: position 1 at l^(k-1), position j>1 at
    l^(k-j) r.  Built once per arity and kept, as the other layouts here
    and `combinators.identity_wire` are, so `verify_totality_pipeline`
    asked again builds no renaming."""
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
    converge, "diverging" when one diverges, else "unknown".

    The verdict is kept on the proof node (`Proof._pipelines`), keyed by
    everything it reads: the types of the atoms the conclusion mentions
    (`Formula.atoms`), the env's items, the value domain and the state
    budget.  So a pipeline asked again builds no formula, type or
    realizer and decides nothing; a call that raises keeps no verdict."""
    concl = conclusion(proof)
    types = tuple([atom_types.get(ident) for f in concl for ident in f.atoms])
    key = (types, frozenset((env or {}).items()), tuple(values), budget.max_states)
    kept = proof._pipelines
    verdict = kept.get(key)
    if verdict is None:
        ty = formula_to_type(reduce(FPar, concl), atom_types, budget)
        packed = rename(extract(proof, env, values), pack_to_nested_binary(len(concl)))
        res = total(SemType(RepPER(((packed,),)), ty.neg), budget).verdict
        verdict = kept[key] = {"yes": "convergent", "no": "diverging"}.get(res, "unknown")
    return verdict

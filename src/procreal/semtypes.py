"""Semantic types: pairs of finite-representation partial equivalence
relations on processes, identified up to failures equivalence.

The paper-level quantifiers over all processes are replaced by the
finite representative sets each type carries; every connective is a
representative-level construction, and candidate terms are admitted to a
negative side only after passing the defining clause against the finite
positive representatives.  This finite-representation reading is the
toolkit's central approximation: all checks are effective, and the PER
structure shows up as machine-checked extensionality of morphisms.

The questions asked most are whether a term realizes a type (`classify`)
and whether a type is total (`total`), and they are asked again and
again of types already built, so an answer asked for again is read off
the object it is about.  A type keeps its hash and its totality verdict
per state budget (`SemType._totals`); each of its class lists keeps a
class index per state budget (`RepPER._indices`), which keeps the
verdict of each term it has placed in a class (`_ClassIndex.members`).
None of these is a field, so a re-asked totality or membership question
builds no key and no answer.  The memo's answer tier keeps types
(`formula_to_type`, `list_type_example`) by value, and the fingerprint
and `diverges` answers they rest on, so a type equal to one kept but
built apart is answered from them.  A formula node keeps its hash and the
atoms it mentions (`logic.Formula`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Optional

from .combinators import (
    bang,
    identity_wire,
    inj_l,
    inj_r,
    lapp,
    pairing,
    rapp,
    seq,
    swap_halves,
    tensor,
)
from .equivalence import (
    BOUNDED_DEPTH,
    INCOMPLETE,
    BudgetExceeded,
    bounded_verdicts,
    failures_fingerprint,
    failures_verdict,
    perp,
)
from .names import ALPHA, BETA, DELTA, GAMMA, OMEGA, SIGMA, l_code, negative, positive, r_code
from .semantics import _MEMO, NO, YES, ExplorationBudget, Verdict
from .terms import NIL, Prefix, Term, choice, print_term, value_name
from .logic import (
    DUAL_CONNECTIVES,
    FAtom,
    FBang,
    FTensor,
    FWith,
    Formula,
    negate,
    subst_value_formula,
)


@dataclass(frozen=True)
class RepPER:
    """Finite partial equivalence relation: a tuple of classes, each a
    nonempty tuple of pairwise failures-equivalent terms, with distinct
    classes pairwise distinguishable.  Two values are kept on the instance
    and are no field, so `==`, `repr` and pickling ignore them and they go
    with the instance: `classify`'s class index (`_ClassIndex`) per state
    budget, `_indices`, and the hash, as `_hash`.  The hash is the one
    the dataclass computes, `hash((classes,))`, computed at the first call
    and written out as `Formula`'s is: a type kept in a key
    (`formula_to_type`) is hashed again in one attribute lookup.  Terms
    hash by address, so no pickle carries it into another process."""

    classes: tuple  # tuple[tuple[Term, ...], ...]

    def reps(self):
        return [cls[0] for cls in self.classes]

    def __len__(self):
        return len(self.classes)

    @cached_property
    def _indices(self) -> dict:
        return {}

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.classes,))
        return h

    def __reduce__(self):
        return RepPER, (self.classes,)


@dataclass(frozen=True)
class SemType:
    """A pair of finite PERs, the realizers (`pos`) and counter-realizers
    (`neg`), over an interface alphabet.  Its hash is kept as
    `RepPER`'s is: the dataclass's `hash((pos, neg, interface))`, computed
    at the first call and no field; so is its `total` verdict per state
    budget, `_totals`."""

    pos: RepPER
    neg: RepPER
    interface: Optional[frozenset] = None  # Alphabet; None when unbounded

    def dual(self) -> "SemType":
        return SemType(self.neg, self.pos, self.interface)

    @cached_property
    def _totals(self) -> dict:
        return {}

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.pos, self.neg, self.interface))
        return h

    def __reduce__(self):
        return SemType, (self.pos, self.neg, self.interface)


# Bound on the terms a class index keeps as members (`_ClassIndex.members`),
# each held alive with the type.  All 41,200 `semtypes` queries of seed 101
# fill no index past 18 members, and 9,600 `laws` queries none past 13; a
# full index is emptied and refills, which costs speed only.  The table is
# written out, not an `lru_cache`: it is one per index, it keeps only the
# "class" answers `classify` finds, and its bound is read at each store,
# so it follows this constant.
CLASS_MEMBERS = 256


class _ClassIndex:
    """What `classify` has learnt of a list of class representatives
    (`reps`) under one state budget: the failures fingerprints of the
    first `filled` of them, as the first class with each fingerprint
    (`first`), and the representatives among them whose graph is partial
    (`partial`), in class order.  It is filled in class order only as far
    as a question needs, so it fingerprints the representatives that
    comparing with each class in order would.  `members` maps each term
    found in a class to the verdict built when it was placed, so
    a term asked about again is one lookup that builds nothing; only
    "class" answers are kept, since a "no" can turn into a class as
    `partition` adds classes.  Past CLASS_MEMBERS terms it is emptied and
    refills."""

    __slots__ = ("reps", "filled", "first", "partial", "members")

    def __init__(self, reps: list):
        self.reps = reps
        self.filled = 0
        self.first: dict = {}
        self.partial: list = []
        self.members: dict = {}


def classify(term: Term, per: RepPER, budget: ExplorationBudget) -> Verdict:
    """The first class of `per` that `term` is failures-equivalent to
    (the witness of a "class"), as comparing it with each class
    representative in order by `failures_verdict` finds it.  Every membership question in this
    module is answered here.  Fingerprints are canonical, so where both
    graphs are complete the answer is one lookup of `term`'s fingerprint
    in the class index `per` keeps for this state budget; only the
    classes whose representative's graph is partial are compared by the
    bounded route, in order.  When no class is equal and some comparison
    was undecided, the verdict is "unknown" and its detail is the first
    undecided comparison's, which names the limit that stopped it.  A
    term the index has placed in a class before is answered from the
    index's `members`, with no fingerprint looked up: a question asked
    again of a kept type costs one lookup and returns the answer object
    given the first time."""
    indices = per._indices
    index = indices.get(budget.max_states)
    if index is None:
        index = indices[budget.max_states] = _ClassIndex(per.reps())
    return _classify_in(term, index, budget)


def _classify_in(term: Term, index: _ClassIndex, budget: ExplorationBudget) -> Verdict:
    """`classify` among the representatives of `index`."""
    kept = index.members.get(term)
    if kept is not None:
        return kept
    reps = index.reps
    if not reps:
        return NO
    fp = failures_fingerprint(term, budget)
    if fp is INCOMPLETE:  # every comparison takes the bounded route
        return _first_undecided(term, reps, budget)
    # read before the lookup and advanced only past recorded classes, so
    # that a thread filling the same index cannot hide an earlier class
    # from this one; a race only records a class twice
    j = index.filled
    found = index.first.get(fp)
    if found is not None:
        return _member(index, term, found)
    while j < len(reps):
        fq = failures_fingerprint(reps[j], budget)
        if fq is INCOMPLETE:
            index.partial.append(reps[j])
        else:
            index.first.setdefault(fq, j)
        j += 1
        index.filled = j
        if fq == fp:
            return _member(index, term, j - 1)
    return _first_undecided(term, index.partial, budget)


def _member(index: _ClassIndex, term: Term, cls: int) -> Verdict:
    """Keeps `term` in `index.members` as a member of class `cls`, with
    the answer built here, so threads racing on one index each keep an
    answer that names the class they found."""
    if len(index.members) >= CLASS_MEMBERS:
        index.members.clear()
    out = index.members[term] = Verdict("class", cls)
    return out


def _first_undecided(term: Term, reps, budget: ExplorationBudget) -> Verdict:
    """The "unknown" of the first of `reps` whose comparison with `term`
    is undecided, else "no".  Called only where `term`'s graph or each of
    `reps`' is partial, so `failures_verdict` would take the bounded route
    for each, and no comparison finds them equal; `bounded_verdicts` takes
    it with `term`'s failures computed once."""
    for res in bounded_verdicts(term, reps, budget, BOUNDED_DEPTH):
        if res.verdict == "unknown":
            return res
    return NO


def realizes_pos(term: Term, t: SemType, budget: ExplorationBudget = ExplorationBudget()) -> Verdict:
    return classify(term, t.pos, budget)


def realizes_neg(term: Term, t: SemType, budget: ExplorationBudget = ExplorationBudget()) -> Verdict:
    return classify(term, t.neg, budget)


def partition(terms, budget: ExplorationBudget) -> RepPER:
    """Groups terms into failures-equivalence classes, each term placed
    as `classify` would place it among the classes made so far, through
    one class index that grows with them.  Raises BudgetExceeded when a
    term is equal to no class and some comparison is undecided."""
    classes: list[list[Term]] = []
    index = _ClassIndex([])
    for term in terms:
        c = _classify_in(term, index, budget)
        if c.verdict == "unknown":
            raise BudgetExceeded(f"partitioning undecided within budget ({c.detail})")
        if c.verdict == "no":
            classes.append([term])
            index.reps.append(term)
        elif term not in classes[c.index]:
            classes[c.index].append(term)
    return RepPER(tuple(tuple(cls) for cls in classes))


def validate_repper(per: RepPER, budget: ExplorationBudget = ExplorationBudget()) -> list:
    """Intra-class equivalence and inter-class distinguishability, each
    pair decided by `failures_verdict`."""
    diags = []
    for i, cls in enumerate(per.classes):
        if not cls:
            diags.append(f"class {i} empty")
            continue
        for u in cls[1:]:
            if failures_verdict(cls[0], u, budget).verdict != "equal":
                diags.append(f"class {i} members not equivalent")
    for i, ci in enumerate(per.classes):
        for j in range(i + 1, len(per.classes)):
            res = failures_verdict(ci[0], per.classes[j][0], budget).verdict
            if res != "distinguished":
                diags.append(f"classes {i} and {j} not distinguishable ({res})")
    return diags


# ---------------------------------------------------------------------------
# Connectives


def unit_type() -> SemType:
    per = RepPER(((NIL,),))
    return SemType(per, per, frozenset())


# Members a connective keeps per class.  `is_morphism` and
# `validate_repper` decide an equivalence for every member kept.
CLASS_MEMBER_CAP = 2


def _cap_members(cls):
    return tuple(cls[:CLASS_MEMBER_CAP])


def tensor_type(t: SemType, u: SemType, budget: ExplorationBudget = ExplorationBudget()) -> SemType:
    pos_classes = []
    for c1 in t.pos.classes:
        for c2 in u.pos.classes:
            members = [tensor(p, q) for p, q in zip(c1, c2)]
            if len(c1) > 1 and len(c2) == 1:
                members.append(tensor(c1[1], c2[0]))
            pos_classes.append(_cap_members(tuple(members)))
    pos = RepPER(tuple(pos_classes))
    candidates = [tensor(n1, n2) for n1 in t.neg.reps() for n2 in u.neg.reps()]
    survivors = [cand for cand in candidates if _passes_tensor_neg_clause(cand, t, u, budget)]
    neg = partition(survivors, budget)
    iface = None
    if t.interface is not None and u.interface is not None:
        iface = frozenset(map(l_code, t.interface)) | frozenset(map(r_code, u.interface))
    return SemType(pos, neg, iface)


def _passes_tensor_neg_clause(cand: Term, t: SemType, u: SemType, budget) -> bool:
    """The counter-realizer clause for a tensor: left application of any
    positive of the first component lands in the second's negatives, and
    right application of any positive of the second lands in the first's."""
    return _lands_in((lapp(q, cand) for q in t.pos.reps()), u.neg, budget) and _lands_in(
        (rapp(cand, r) for r in u.pos.reps()), t.neg, budget
    )


def _lands_in(images, per: RepPER, budget) -> bool:
    """Every term of `images` is in a class of `per`; stops at the first
    that is not (or is undecided)."""
    return all(classify(x, per, budget).verdict == "class" for x in images)


def with_type(t: SemType, u: SemType) -> SemType:
    pos_classes = []
    for c1 in t.pos.classes:
        for c2 in u.pos.classes:
            members = [pairing(p, q, port="plain") for p, q in zip(c1, c2)]
            pos_classes.append(_cap_members(tuple(members)))
    neg_classes = [
        _cap_members(tuple(inj_l(n, port="plain") for n in cls)) for cls in t.neg.classes
    ] + [
        _cap_members(tuple(inj_r(n, port="plain") for n in cls)) for cls in u.neg.classes
    ]
    iface = None
    if t.interface is not None and u.interface is not None:
        iface = t.interface | u.interface | frozenset([ALPHA, BETA])
    return SemType(RepPER(tuple(pos_classes)), RepPER(tuple(neg_classes)), iface)


BANG_FUEL = 1


def bang_type(
    t: SemType, fuel: int = BANG_FUEL, budget: ExplorationBudget = ExplorationBudget()
) -> SemType:
    pos_classes = [
        _cap_members(tuple(bang(p) for p in cls)) for cls in t.pos.classes
    ]
    weaken = Prefix(frozenset([positive(OMEGA)]), NIL)
    stage = [weaken]
    stage += [Prefix(frozenset([negative(DELTA)]), n) for n in t.neg.reps()]
    accumulated = list(stage)
    banged = [cls[0] for cls in pos_classes]  # bang of each positive rep
    for _ in range(fuel):
        fresh = []
        prev = list(accumulated)
        # one stage for the round, so that its candidates share its class index
        previous_stage = RepPER(tuple((s,) for s in prev))
        for n1 in prev:
            for n2 in prev:
                body = tensor(n1, n2)
                cand = Prefix(frozenset([negative(GAMMA)]), body)
                if _passes_bang_neg_clause(body, banged, previous_stage, budget):
                    fresh.append(cand)
        accumulated += fresh
    neg = partition(accumulated, budget)
    return SemType(RepPER(tuple(pos_classes)), neg, None)


def _passes_bang_neg_clause(body: Term, banged, previous_stage: RepPER, budget) -> bool:
    """After a split request the remaining consumer must still consume a
    replicable resource (`banged`: the type's positive representatives
    under `bang`) on either half, checked against the previous stage's
    representatives, one class each."""
    def halves():
        for br in banged:
            yield lapp(br, body)
            yield rapp(body, br)

    return _lands_in(halves(), previous_stage, budget)


def forall_v_type(family: dict) -> SemType:
    """family maps each value of the finite domain to the instance type."""
    values = sorted(family)
    pos_classes = []
    choices = [range(len(family[v].pos.classes)) for v in values]
    for combo in product(*choices):
        branches = []
        for v, idx in zip(values, combo):
            sv = value_name(SIGMA, v)
            branches.append(
                (frozenset([positive(sv)]), family[v].pos.classes[idx][0])
            )
        pos_classes.append((choice(tuple(branches)),))
    neg_classes = []
    for v in values:
        for cls in family[v].neg.classes:
            sv = value_name(SIGMA, v)
            neg_classes.append(
                _cap_members(tuple(Prefix(frozenset([negative(sv)]), n) for n in cls))
            )
    return SemType(RepPER(tuple(pos_classes)), RepPER(tuple(neg_classes)), None)


def formula_to_type(
    f: Formula,
    atom_types: dict,
    budget: ExplorationBudget = ExplorationBudget(),
    values: tuple = (),
    fuel: int = BANG_FUEL,
) -> SemType:
    """The semantic type of `f`.  Atoms, tensor, with, of-course and forall
    are built; each other connective is the dual of its de Morgan dual.

    The type is kept in the memo's answer tier, keyed by `f`, the types of
    the atoms `f` mentions (in name order), the state budget, `values` and
    `fuel`: nothing else enters the construction.  The recursion goes
    through this function, so each subformula's type, and the type a dual
    connective is the dual of, is kept too.  A type asked for again is the
    kept object, whose class indices (`classify`) are already filled; a
    construction that raises keeps nothing.  The atoms `f` mentions are
    found once per formula node (`Formula.atoms`), and the atom types in
    the key hash in one attribute lookup each (`SemType`), so a type asked
    for again costs its key, the hash of `f` and one lookup."""
    try:
        idents = f.atoms
    except AttributeError:
        raise TypeError(f"not a formula: {f!r}") from None
    atoms = tuple(zip(idents, map(atom_types.get, idents)))
    key = ("type", f, atoms, budget.max_states, values, fuel)
    ty = _MEMO.answers.get(key)
    if ty is not None:
        return ty
    if isinstance(f, DUAL_CONNECTIVES):
        ty = formula_to_type(negate(f), atom_types, budget, values, fuel).dual()
    elif isinstance(f, FAtom):
        if f.ident not in atom_types:
            raise ValueError(f"undeclared atom {f.ident!r} in a type")
        base = atom_types[f.ident]
        ty = base if f.pos else base.dual()
    elif isinstance(f, FTensor):
        ty = tensor_type(
            formula_to_type(f.left, atom_types, budget, values, fuel),
            formula_to_type(f.right, atom_types, budget, values, fuel),
            budget,
        )
    elif isinstance(f, FWith):
        ty = with_type(
            formula_to_type(f.left, atom_types, budget, values, fuel),
            formula_to_type(f.right, atom_types, budget, values, fuel),
        )
    elif isinstance(f, FBang):
        ty = bang_type(formula_to_type(f.body, atom_types, budget, values, fuel), fuel, budget)
    else:  # FForall, the last connective built
        family = {
            v: formula_to_type(subst_value_formula(f.body, f.var, v), atom_types, budget, values, fuel)
            for v in values
        }
        if not family:
            raise ValueError("quantified type needs a declared value domain")
        ty = forall_v_type(family)
    return _MEMO.answers.put(key, ty)


# ---------------------------------------------------------------------------
# Morphisms and the category laws


@dataclass
class Morphism:
    source: SemType
    target: SemType
    realizer: Term
    f_plus: tuple = ()  # source pos class -> target pos class
    f_minus: tuple = ()  # target neg class -> source neg class


def is_morphism(
    realizer: Term,
    a: SemType,
    b: SemType,
    budget: ExplorationBudget = ExplorationBudget(),
) -> Verdict:
    """Checks that the term tracks a pair of class maps: forward on the
    positives of the source, backward on the negatives of the target.
    Every member of a class must land in the same class; that is the
    extensionality the PER structure provides."""
    f_plus = _class_map(
        a.pos.classes, lambda q: lapp(q, realizer), b.pos, budget,
        "source class {}", "image of {} not a positive of the target", "target",
    )
    if isinstance(f_plus, Verdict):
        return f_plus
    f_minus = _class_map(
        b.neg.classes, lambda t: rapp(realizer, t), a.neg, budget,
        "target neg class {}", "preimage of {} not a negative of the source", "source",
    )
    if isinstance(f_minus, Verdict):
        return f_minus
    return Verdict("morphism", Morphism(a, b, realizer, f_plus, f_minus))


def _class_map(classes, image, per: RepPER, budget, where: str, outside: str, onto: str):
    """The class of `per` that `image` sends each class into, or the
    verdict saying why a class lands outside `per` or in several
    of its classes.  `where` names a class in witnesses, `outside` says
    it lands outside, and `onto` names the side `per` belongs to."""
    out = []
    for idx, cls in enumerate(classes):
        name = where.format(idx)
        landed = set()
        for member in cls:
            c = classify(image(member), per, budget)
            if c.verdict == "unknown":  # the detail says what left it undecided
                return Verdict("unknown", detail=f"{name}: {c.detail}")
            if c.verdict == "no":
                return Verdict("no", outside.format(name))
            landed.add(c.index)
        if len(landed) != 1:
            return Verdict("no", f"{name} maps to several {onto} classes")
        out.append(landed.pop())
    return tuple(out)


def identity_morphism(t: SemType, budget: ExplorationBudget = ExplorationBudget()) -> Verdict:
    if t.interface is None:
        return Verdict("no", "type has no finite interface alphabet")
    return is_morphism(identity_wire(t.interface), t, t, budget)


def compose_morphisms(
    f: Morphism, g: Morphism, budget: ExplorationBudget = ExplorationBudget()
) -> Verdict:
    """g after f: the composition realizer chains through the hidden middle."""
    return is_morphism(seq(f.realizer, g.realizer), f.source, g.target, budget)


def dual_morphism(f: Morphism, budget: ExplorationBudget = ExplorationBudget()) -> Verdict:
    return is_morphism(swap_halves(f.realizer), f.target.dual(), f.source.dual(), budget)


def pairing_morphism(
    f: Morphism, g: Morphism, budget: ExplorationBudget = ExplorationBudget()
) -> Verdict:
    """The mediating morphism into a product type built by with_type."""
    target = with_type(f.target, g.target)
    return is_morphism(pairing(f.realizer, g.realizer, port="right"), f.source, target, budget)


def projection_realizer(t: SemType, which: str) -> Term:
    if t.interface is None:
        raise ValueError("projection needs a finite interface alphabet")
    wire = identity_wire(t.interface)
    return inj_l(wire) if which == "left" else inj_r(wire)


# ---------------------------------------------------------------------------
# Totality and inhabitation


def total(t: SemType, budget: ExplorationBudget = ExplorationBudget()) -> Verdict:
    """Whether every positive representative of `t` converges with every
    negative one (`perp`): "no" with the first pair, in class order, that
    does not, printed, as witness; else the "unknown" of the first pair
    left undecided; else "yes".

    The verdict is kept on the type, per state budget
    (`SemType._totals`), the only copy: a type asked again returns it
    with no key built or hashed, and it goes with the type, so it
    outlives `_MEMO.clear()`, as a class index does.  A type equal to one
    already checked but built apart holds the same representatives, and
    terms are hash-consed, so each of its `perp` pairs is the closed
    composition already decided, whose `diverges` answer the memo's
    answer tier keeps: it explores nothing."""
    totals = t._totals
    res = totals.get(budget.max_states)
    if res is not None:
        return res
    undecided = None
    for p, n in product(t.pos.reps(), t.neg.reps()):
        out = perp(p, n, budget)
        if out.verdict == "no":
            res = Verdict("no", (print_term(p), print_term(n)))
            break
        if out.verdict == "unknown":
            undecided = undecided or out
    else:
        res = undecided or YES
    totals[budget.max_states] = res
    return res


def inhabited(t: SemType) -> bool:
    return len(t.pos) > 0 and len(t.neg) > 0


# ---------------------------------------------------------------------------
# Lists and streams over a component type


def empty_list_realizer() -> Term:
    return inj_l(NIL, port="plain")


def cons_realizer(value_realizer: Term, tail_realizer: Term) -> Term:
    return inj_r(tensor(value_realizer, tail_realizer), port="plain")


def list_realizer(value_realizers) -> Term:
    out = empty_list_realizer()
    for p in reversed(list(value_realizers)):
        out = cons_realizer(p, out)
    return out


def list_consumer(q_family) -> Term:
    """q_family[n] consumes an n-fold tensor of the element type; the
    truncated chain ends without the continue branch."""
    qs = list(q_family)
    if not qs:
        raise ValueError("need at least the empty-list consumer")
    out = Prefix(frozenset([positive(ALPHA)]), qs[-1])
    for q in reversed(qs[:-1]):
        out = pairing(q, out, port="plain")
    return out


def list_type_example(
    a: SemType, max_len: int, budget: ExplorationBudget = ExplorationBudget()
) -> SemType:
    """Positive realizers of element lists up to the given length; the
    negative side is the truncated consumer chain driven by canonical
    tensor-consumers of the element type.  The type is kept in the memo's
    answer tier by element type and length, as `formula_to_type` keeps
    its types, so a list type asked for again is the kept object, whose
    class indices are already filled.  `budget` enters no construction."""
    key = ("list", a, max_len)
    ty = _MEMO.answers.get(key)
    if ty is not None:
        return ty
    pos_classes = []
    reps = a.pos.reps()
    for n in range(max_len + 1):
        for combo in product(range(len(reps)), repeat=n):
            pos_classes.append((list_realizer([reps[i] for i in combo]),))
    q_family = []
    for n in range(max_len + 1):
        q_family.append(_tensor_consumer(a, n))
    neg_classes = ((list_consumer(q_family),),)
    return _MEMO.answers.put(key, SemType(RepPER(tuple(pos_classes)), RepPER(neg_classes), None))


def _tensor_consumer(a: SemType, n: int) -> Term:
    if n == 0:
        return NIL
    out = a.neg.reps()[0]
    for _ in range(n - 1):
        out = tensor(a.neg.reps()[0], out)
    return out


def stream_realizer(a: SemType, depth: int) -> Term:
    if depth == 0:
        return Prefix(frozenset([positive(ALPHA)]), NIL)
    return pairing(NIL, tensor(a.pos.reps()[0], stream_realizer(a, depth - 1)), port="plain")


def stream_consumer(a: SemType, depth: int) -> Term:
    if depth == 0:
        return inj_l(NIL, port="plain")
    return inj_r(tensor(a.neg.reps()[0], stream_consumer(a, depth - 1)), port="plain")


def stream_type_example(a: SemType, depth: int) -> SemType:
    pos_classes = tuple((stream_realizer(a, d),) for d in range(depth + 1))
    neg_classes = tuple((stream_consumer(a, d),) for d in range(depth + 1))
    return SemType(RepPER(pos_classes), RepPER(neg_classes), None)


# ---------------------------------------------------------------------------
# Category laws on a finite instance


def _why(res: Verdict) -> str:
    """A morphism check's detail in a law report: the reason of a "no",
    else the verdict's detail."""
    return res.witness if res.verdict == "no" else res.detail


def law_outcome(oks) -> Optional[bool]:
    """The outcome of a set of law checks: False when one fails, else
    None when one is undecided, else True."""
    oks = list(oks)
    return False if False in oks else None if None in oks else True


def check_category_laws(
    types: dict,
    morphisms: list,
    budget: ExplorationBudget = ExplorationBudget(),
    product_cases: Optional[list] = None,
) -> dict:
    """types: name -> SemType; morphisms: list of dicts with keys
    name/src/dst/term.  Verifies, on this instance: every supplied term
    tracks a morphism, identity laws, associativity of composition,
    duality as a contravariant involution, and the product property of
    the with-construction for the given (f, g) pairs sharing a source.
    A check is undecided ("ok" None) when a verdict it rests on is.
    The equational laws are decided from kept fingerprints
    (`failures_verdict`), so the instance checked again explores nothing.
    """
    report: dict = {"checks": [], "ok": True}

    def record(name: str, ok: Optional[bool], detail: str = ""):
        report["checks"].append({"check": name, "ok": ok, "detail": detail})
        report["ok"] = law_outcome((report["ok"], ok))

    checked: dict[str, Verdict] = {}  # morphism name -> its check
    for spec in morphisms:
        res = checked[spec["name"]] = is_morphism(spec["term"], types[spec["src"]], types[spec["dst"]], budget)
        record(f"morphism {spec['name']}", res.ok, _why(res))
    verified = {name: res.witness for name, res in checked.items() if res.verdict == "morphism"}

    idents: dict[str, Morphism] = {}
    for tname, t in sorted(types.items()):
        if t.interface is None:
            continue
        res = identity_morphism(t, budget)
        record(f"identity on {tname}", res.ok, _why(res))
        if res.verdict == "morphism":
            idents[tname] = res.witness

    by_name = {spec["name"]: spec for spec in morphisms}
    for name, m in sorted(verified.items()):
        spec = by_name[name]
        if spec["src"] in idents:
            composed = seq(idents[spec["src"]].realizer, m.realizer)
            res = failures_verdict(composed, m.realizer, budget)
            record(f"id;{name} = {name}", res.ok, res.detail)
        if spec["dst"] in idents:
            composed = seq(m.realizer, idents[spec["dst"]].realizer)
            res = failures_verdict(composed, m.realizer, budget)
            record(f"{name};id = {name}", res.ok, res.detail)

    # associativity over composable triples
    names = sorted(verified)
    triples = []
    for n1 in names:
        for n2 in names:
            if by_name[n1]["dst"] != by_name[n2]["src"]:
                continue
            for n3 in names:
                if by_name[n2]["dst"] == by_name[n3]["src"]:
                    triples.append((n1, n2, n3))
    for n1, n2, n3 in triples:
        f, g, h = verified[n1].realizer, verified[n2].realizer, verified[n3].realizer
        res = failures_verdict(seq(seq(f, g), h), seq(f, seq(g, h)), budget)
        record(f"({n1};{n2});{n3} assoc", res.ok, res.detail)

    for name, m in sorted(verified.items()):
        dres = dual_morphism(m, budget)
        record(f"dual of {name} is a morphism", dres.ok, _why(dres))
        if dres.verdict == "morphism":
            ddres = dual_morphism(dres.witness, budget)
            ok = (
                ddres.ok
                and ddres.witness.f_plus == m.f_plus
                and ddres.witness.f_minus == m.f_minus
            )
            record(f"double dual of {name} tracks the same maps", ok)

    for fname, gname in product_cases or []:
        unverified = [n for n in (fname, gname) if n not in verified]
        if unverified:
            record(f"pairing <{fname},{gname}> is a morphism",
                   law_outcome(checked[n].ok if n in checked else False for n in unverified),
                   f"morphism {' and '.join(unverified)} not verified")
            continue
        f, g = verified[fname], verified[gname]
        pres = pairing_morphism(f, g, budget)
        record(f"pairing <{fname},{gname}> is a morphism", pres.ok, _why(pres))
        if pres.verdict != "morphism":
            continue
        pair_term = pres.witness.realizer
        proj1 = projection_realizer(f.target, "left")
        proj2 = projection_realizer(g.target, "right")
        r1 = failures_verdict(seq(pair_term, proj1), f.realizer, budget)
        record(f"proj1 . <{fname},{gname}> = {fname}", r1.ok, r1.detail)
        r2 = failures_verdict(seq(pair_term, proj2), g.realizer, budget)
        record(f"proj2 . <{fname},{gname}> = {gname}", r2.ok, r2.detail)
        # uniqueness on this instance: any mediator with the same
        # projections is equal at the realizer level
        again = pairing(f.realizer, g.realizer, port="right")
        r3 = failures_verdict(again, pair_term, budget)
        record(f"mediator uniqueness for <{fname},{gname}>", r3.ok, r3.detail)
    return report

"""The three benchmark workloads and the known answer of every query.

Each workload turns a seed into inputs (`setup`) and then into a stream of
queries (`queries`).  A query is one decision a user would ask for; its
`run` is timed, its `check` is not.  The check compares the verdict with
an answer known without the engine's decision procedure: a brute-force
route, a law that holds by construction, or a pair distinguished by
construction.

The engine is always called through its modules (``eq.failures_equiv``,
not an imported name), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from procreal import combinators as C
from procreal import corpus
from procreal import equivalence as eq
from procreal import exercises
from procreal import extraction
from procreal import generators
from procreal import logic
from procreal import semantics as sem
from procreal import semtypes as st
from procreal.names import REGISTRY, positive
from procreal.semantics import ExplorationBudget
from procreal.terms import NIL, Par, Prefix, Rec, Sum, Var, sort_labels

ORACLE_BUDGET = ExplorationBudget(max_states=4000)
LAW_BUDGET = ExplorationBudget(max_states=2000)
CUT_BUDGET = ExplorationBudget(max_states=8000)
TYPE_BUDGET = ExplorationBudget(max_states=4000)


@dataclass
class Outcome:
    """What a check concluded about one query."""

    verdict: str  # printed into the digest
    decided: bool  # a definite verdict, not "unknown"
    ok: bool  # no contradiction with the known answer
    witness: object = None  # printed into the digest


@dataclass
class Query:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    result: object = None  # set by the runner once `run` returns

    def crashed(self, error: str) -> Outcome:
        return Outcome("error", False, False, error)

    def record(self, index: int, outcome: Outcome) -> str:
        return json.dumps(
            [index, self.kind, outcome.verdict, outcome.witness],
            sort_keys=True,
            separators=(",", ":"),
            default=str,
        )


def _atoms():
    return (REGISTRY.intern("a"), REGISTRY.intern("b"))


def _expect_equal(res) -> Outcome:
    """A law instance: `equal` is right, `unknown` undecided, anything
    else contradicts the law."""
    return Outcome(res.verdict, res.verdict != "unknown", res.verdict != "distinguished", res.witness)


# ---------------------------------------------------------------------------
# oracle: every small closed term, normal-form route against brute force


def oracle_setup(seed: int) -> list:
    terms = list(generators.enumerate_terms(_atoms(), 5))
    random.Random(seed).shuffle(terms)
    return terms


def oracle_queries(terms: list) -> Iterator[Query]:
    def run_one(t):
        lts = sem.build_lts(t, ORACLE_BUDGET)
        if not lts.complete:
            return None
        exact = eq.normal_form(lts).failures_to_depth(4)
        try:
            brute = eq.failures_bounded(t, 4, ORACLE_BUDGET)
        except eq.BudgetExceeded:
            return exact, None
        return exact, brute

    def check(res) -> Outcome:
        if res is None:
            return Outcome("unknown: exploration incomplete", False, True)
        exact, brute = res
        if brute is None:
            return Outcome("unknown: brute force over budget", False, True)
        if exact != brute:
            return Outcome("mismatch", True, False, exact.first_difference(brute))
        return Outcome("agree", True, True, len(exact.table))

    for t in terms:
        yield Query("oracle", lambda t=t: run_one(t), check)


# ---------------------------------------------------------------------------
# laws: law instances on combinator-built terms, distinguished pairs and
# cut soundness over the corpus


# Rounds drawn in set-up.  A run decides 480 queries per second of
# `--seconds` (run.py), about 560 rounds at 20 s; a run asking for more
# than all of them decides all of them.
LAW_ROUNDS = 1200
# law rounds per corpus proof whose cut steps are checked, and per check
# of the category instance and the weak-bisimulation counterexample
CUT_EVERY = 3
CATEGORY_EVERY = 250


@dataclass
class LawInputs:
    rounds: list  # per round, the law queries drawn from the seed
    proofs: list  # (name, entry), in name order: every seed checks the same proofs


def laws_setup(seed: int) -> LawInputs:
    rng = random.Random(seed)
    atoms = _atoms()  # interned before the fresh atom, so codes never vary
    fresh = REGISTRY.intern("c")
    wire = C.identity_wire(frozenset(atoms))
    rounds = [_law_round(rng, atoms, wire, fresh) for _ in range(LAW_ROUNDS)]
    return LawInputs(rounds, sorted(corpus.corpus_proofs().items()))


def _law(kind: str, build: Callable[[], tuple], relation: str, depth: int = 6) -> Query:
    def run():
        lhs, rhs = build()
        if relation == "failures":
            return eq.failures_equiv(lhs, rhs, LAW_BUDGET, depth)
        return eq.weak_bisim(lhs, rhs, LAW_BUDGET)

    return Query(kind, run, _expect_equal)


def _family_at(fs, trace: list):
    for entry in fs.to_json():
        if entry["trace"] == trace:
            return entry["acceptances"]
    return None


def _distinguished(build: Callable[[], tuple], relation: str) -> Query:
    """A pair that differs by construction: one side can perform an
    action on a name the other side never mentions."""

    def run():
        lhs, rhs = build()
        if relation == "failures":
            res = eq.failures_equiv(lhs, rhs, LAW_BUDGET)
        else:
            res = eq.weak_bisim(lhs, rhs, LAW_BUDGET)
        return lhs, rhs, res

    def check(out) -> Outcome:
        lhs, rhs, res = out
        if res.verdict == "unknown":
            return Outcome("unknown", False, True)
        if res.verdict != "distinguished" or not res.witness:
            return Outcome(res.verdict, True, False, res.witness)
        if relation == "failures":
            return Outcome(res.verdict, True, _witness_holds(lhs, rhs, res.witness), res.witness)
        return Outcome(res.verdict, True, True, res.witness)

    return Query("distinguished", run, check)


def _witness_holds(lhs, rhs, witness: dict) -> bool:
    """Re-derives a failures witness by brute force: the trace must be on
    one side only, or carry the reported, differing acceptance families."""
    trace = witness.get("trace")
    if trace is None:
        return False
    try:
        left = eq.failures_bounded(lhs, len(trace), LAW_BUDGET)
        right = eq.failures_bounded(rhs, len(trace), LAW_BUDGET)
    except eq.BudgetExceeded:
        return True  # the witness is non-empty; brute force cannot confirm it
    fam_l, fam_r = _family_at(left, trace), _family_at(right, trace)
    if witness.get("reason") == "trace on one side only":
        return (fam_l is not None) == witness["left"] and (fam_r is not None) == witness["right"] and (
            (fam_l is None) != (fam_r is None)
        )
    return fam_l == witness.get("left") and fam_r == witness.get("right") and fam_l != fam_r


def _law_round(rng: random.Random, atoms, wire, fresh) -> list:
    """Instances of each law family from `exercises`, in about the
    proportions of the acceptance suites, plus two pairs distinguished by
    construction.  Terms are drawn here; the combinators run in the
    query."""
    rt = generators.random_term
    out = []

    p = rt(rng, atoms, rng.randint(2, 9))
    out.append(_law("identity", lambda p=p: (C.lapp(p, wire), p), "failures"))
    out.append(_law("identity", lambda p=p: (C.rapp(wire, p), p), "failures"))

    p, q, r = (rt(rng, atoms, rng.randint(2, 7)) for _ in range(3))
    out += [
        _law("composition", lambda: (C.seq(C.seq(p, q), r), C.seq(p, C.seq(q, r))), "failures"),
        _law("composition", lambda: (C.seq(p, C.identity_wire(C.right_interface(p))), p), "failures"),
        _law("composition", lambda: (C.seq(C.identity_wire(C.left_interface(p)), p), p), "failures"),
        _law("composition", lambda: (C.lapp(p, C.seq(q, r)), C.lapp(C.lapp(p, q), r)), "failures"),
        _law("composition", lambda: (C.rapp(C.seq(p, q), r), C.rapp(p, C.rapp(q, r))), "failures"),
    ]

    a, b, c = (rt(rng, atoms, rng.randint(2, 6)) for _ in range(3))
    law1 = lambda: (C.seq(C.pairing(a, b), C.inj_l(c)), C.seq(a, c))
    law2 = lambda: (C.seq(C.pairing(a, b), C.inj_r(c)), C.seq(b, c))
    out += [
        _law("pairing", law1, "failures"),
        _law("pairing", law2, "failures"),
        _law("pairing", law1, "weak_bisim"),
        _law("pairing", law2, "weak_bisim"),
        _law(
            "pairing",
            lambda: (C.lapp(c, C.pairing(a, b)), C.pairing(C.lapp(c, a), C.lapp(c, b), port="plain")),
            "failures",
        ),
    ]

    for _ in range(2):
        x, y = generators.equivalent_pair(rng, atoms, rng.randint(2, 6))
        ctx = generators.random_context(rng, atoms, rng.randint(1, 5))
        out.append(_law("congruence", lambda x=x, y=y, ctx=ctx: (ctx(x), ctx(y)), "failures", depth=5))

    base = rt(rng, atoms, rng.randint(2, 7))
    body = C.lapp(base, wire) if rng.random() < 0.5 else C.seq(base, base)
    labels = sort_labels(body)
    if labels is not None and all(l.code != fresh.code for l in labels):
        fresh_act = frozenset([positive(fresh)])
        out.append(_distinguished(lambda: (body, Par(body, Prefix(fresh_act, NIL))), "failures"))
        out.append(_distinguished(lambda: (Prefix(fresh_act, body), body), "weak_bisim"))
    return out


def _pairing_counterexample() -> list:
    def run():
        lhs, rhs = exercises.pairing_counterexample()
        return eq.failures_equiv(lhs, rhs, LAW_BUDGET), eq.weak_bisim(lhs, rhs, LAW_BUDGET)

    def check(res) -> Outcome:
        fe, wb = res
        decided = fe.verdict != "unknown" and wb.verdict != "unknown"
        ok = fe.verdict != "distinguished" and wb.verdict != "equal"
        ok = ok and (wb.verdict != "distinguished" or bool(wb.witness))
        return Outcome(f"{fe.verdict}/{wb.verdict}", decided, ok, wb.witness)

    return [Query("counterexample", run, check)]


def _cut_queries(name: str, entry: dict) -> Iterator[Query]:
    """Cut elimination of one corpus proof, then every step checked."""

    def check_elim(res) -> Outcome:
        return Outcome(res.status, True, res.status == "done", res.kinds)

    elim = Query("cut_eliminate", lambda: logic.cut_eliminate(entry["proof"], keep_trail=True), check_elim)
    yield elim
    if elim.result is None:
        return
    trail = elim.result.trail
    for before, after in zip(trail, trail[1:]):
        yield Query(
            "cut_soundness",
            lambda b=before, a=after: extraction.verify_cut_soundness(b, a, {}, entry["values"], CUT_BUDGET),
            lambda rep: Outcome(rep.verdict, rep.verdict != "unknown", rep.verdict != "fail", rep.witness),
        )


def _product_query() -> Query:
    def check(report) -> Outcome:
        bad = [c["check"] for c in report["checks"] if not c["ok"]]
        return Outcome("ok" if not bad else "fail", True, not bad, bad)

    return Query("category", lambda: exercises.product_suite(TYPE_BUDGET), check)


def laws_queries(inputs: LawInputs) -> Iterator[Query]:
    for round_no, queries in enumerate(inputs.rounds):
        if round_no % CATEGORY_EVERY == 0:
            yield _product_query()
            yield from _pairing_counterexample()
        yield from queries
        if round_no % CUT_EVERY == 0:
            name, entry = inputs.proofs[(round_no // CUT_EVERY) % len(inputs.proofs)]
            yield from _cut_queries(name, entry)


# ---------------------------------------------------------------------------
# semtypes: type construction, totality and classification


# One round of type constructions in the shape of acceptance criterion 7:
# the bases, their duals, `!` of each at fuel 1, tensors and withs, plus
# `?` and `!` over compound bodies.  X, Y and Z stand for the atom types of
# a, b and c in an order drawn per round; u is the unit type and t the
# tau-prefixed X.  A round takes about 1.8 s.  Fuel 2 is left out: one `!` at fuel 2 takes 12 to 30 s.
# A tensor or par with an exponential operand is left out too: its
# candidate negatives multiply and one instance takes many seconds.
ROUND_FORMULAS = (
    "X", "Y", "Z", "u", "t", "X&Y",
    "~X", "~Y", "~Z", "~u", "~t", "~(X&Y)",
    "!X", "!Y", "!Z", "!u", "!t", "!(X&Y)", "!(Y&Z)",
    "X*Y", "Y*Z", "X*u", "t*Y",
    "Y&Z", "X&u", "t&Y",
    "?X", "?(X@~Y)", "!(t&~Y)", "X&?t", "~Z(+)?~u",
)
# extracted criterion-7 proofs over a and b, checked for convergence
PIPELINE_PROOFS = ("axiom_left", "tensor_par", "with_plus1", "plus1_with", "forall_exists")
SEMTYPE_ROUNDS = 200


@dataclass
class TypeRound:
    env: dict  # formula atom -> SemType
    order: list  # ROUND_FORMULAS indices in the order they run


@dataclass
class TypeInputs:
    rounds: list
    formulas: list  # parsed ROUND_FORMULAS
    proofs: list  # (name, entry) for the totality pipeline


def _tau_prefixed(t: st.SemType) -> st.SemType:
    rep = t.pos.classes[0][0]
    return st.SemType(st.RepPER(((Prefix(frozenset(), rep),),)), t.neg, t.interface)


def semtypes_setup(seed: int) -> TypeInputs:
    rng = random.Random(seed)
    atoms = [exercises.atom_type(a) for a in "abc"]
    rounds = []
    for _ in range(SEMTYPE_ROUNDS):
        x, y, z = rng.sample(atoms, 3)
        env = {"X": x, "Y": y, "Z": z, "u": st.unit_type(), "t": _tau_prefixed(x)}
        order = list(range(len(ROUND_FORMULAS)))
        rng.shuffle(order)
        rounds.append(TypeRound(env, order))
    proofs = corpus.corpus_proofs()
    formulas = [logic.parse_formula(f) for f in ROUND_FORMULAS]
    return TypeInputs(rounds, formulas, [(n, proofs[n]) for n in PIPELINE_PROOFS])


def _classification(ty: st.SemType, side: str, member, idx: int) -> Query:
    realizes = st.realizes_pos if side == "pos" else st.realizes_neg

    def check(c) -> Outcome:
        decided = c.verdict != "unknown"
        return Outcome(f"{c.verdict} {c.index}", decided, not decided or c.index == idx)

    return Query(f"realizes_{side}", lambda: realizes(member, ty, TYPE_BUDGET), check)


def _replicates(t) -> bool:
    """True when a recursion variable occurs under a parallel composition
    inside its own binder, as in `bang`: such a term copies itself on
    unfolding and has no finite state space to compare."""

    def walk(u, under_par: dict) -> bool:
        if isinstance(u, Var):
            return under_par.get(u.ident, False)
        if isinstance(u, Rec):
            return walk(u.body, {**under_par, u.var: False})
        if isinstance(u, Par):
            inner = dict.fromkeys(under_par, True)
            return walk(u.left, inner) or walk(u.right, inner)
        if isinstance(u, Prefix):
            return walk(u.cont, under_par)
        if isinstance(u, Sum):
            return any(walk(p, under_par) for _, p in u.branches)
        return walk(u.proc, under_par)

    return walk(t, {})


def _check_inhabited(ty) -> Outcome:
    if ty is None:
        return Outcome("unknown", False, True)
    ok = st.inhabited(ty)
    return Outcome("inhabited" if ok else "empty", True, ok, [len(ty.pos), len(ty.neg)])


def _type_queries(construct: Callable[[], st.SemType]) -> Iterator[Query]:
    """Build a type, then check totality and that every class member
    classifies into its own class.  A side holding a replicable term is
    not classified: comparing two such terms exhausts the state budget,
    which is what `total` avoids by closing each pair into one system."""

    def build():
        try:
            return construct()
        except eq.BudgetExceeded:
            return None

    made = Query("formula_to_type", build, _check_inhabited)
    yield made
    ty = made.result
    if ty is None:
        return

    def check_total(res) -> Outcome:
        decided = res.verdict != "unknown"
        return Outcome(res.verdict, decided, res.verdict != "no", res.witness)

    yield Query("total", lambda: st.total(ty, TYPE_BUDGET), check_total)
    for side in ("pos", "neg"):
        classes = getattr(ty, side).classes
        if any(_replicates(m) for cls in classes for m in cls):
            continue
        for idx, cls in enumerate(classes):
            for member in cls:
                yield _classification(ty, side, member, idx)


def semtypes_queries(inputs: TypeInputs) -> Iterator[Query]:
    for rnd in inputs.rounds:
        env = rnd.env
        for i in rnd.order:
            f = inputs.formulas[i]
            yield from _type_queries(lambda f=f, env=env: st.formula_to_type(f, env, TYPE_BUDGET, (), 1))
        for name, entry in inputs.proofs:
            yield Query(
                "totality_pipeline",
                lambda e=entry, env=env: extraction.verify_totality_pipeline(
                    e["proof"], {"a": env["X"], "b": env["Y"]}, {}, e["values"], TYPE_BUDGET
                ),
                lambda v: Outcome(v, v != "unknown", v != "diverging"),
            )
        lists = Query("list_type", lambda env=env: st.list_type_example(env["X"], 3, TYPE_BUDGET), _check_inhabited)
        yield lists
        if lists.result is None:
            continue
        for idx, cls in enumerate(lists.result.pos.classes):
            yield _classification(lists.result, "pos", cls[0], idx)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], object]
    queries: Callable[[object], Iterator[Query]]
    # every run decides at least this prefix of the queries (None: all of
    # them); traced and untraced runs compare the digest of this prefix
    digest_queries: Optional[int]


WORKLOADS = {
    # all 33,244 terms, so that the few whose exploration stops early are
    # always among the traced queries
    "oracle": Workload("oracle", oracle_setup, oracle_queries, None),
    "laws": Workload("laws", laws_setup, laws_queries, 2000),
    "semtypes": Workload("semtypes", semtypes_setup, semtypes_queries, 600),
}

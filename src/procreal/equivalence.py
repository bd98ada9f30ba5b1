"""Failures semantics and the equivalence checkers.

Failures are represented per trace by the antichain of minimal
acceptance sets of the stable (tau-free) states reachable under that
trace; a process can refuse X after s iff some acceptance set in the
family avoids X.  Antichains are canonical for the induced refusal
family, so failures equivalence is map equality.

Divergence does not enter the failures model; it is a separate
predicate used by the orthogonality check `perp`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .names import ALL_LABELS, Action, TAU, action_key, print_action
from .semantics import (
    DEPTH_CAP,
    ExplorationBudget,
    LTS,
    build_lts,
    diverges,
    exhausted_limit,
    step,
    tau_closure,
)
from .terms import Par, Restrict, Term, print_term, term_depth


class BudgetExceeded(Exception):
    pass


def _family_json(family) -> list:
    return sorted(
        [sorted(print_action(a) for a in acc) for acc in family]
    )


def _minimize(acceptances: set) -> frozenset:
    """Subset-minimal antichain of a family of acceptance sets."""
    out = []
    for acc in sorted(acceptances, key=lambda s: (len(s), sorted(map(action_key, s)))):
        if not any(prev <= acc for prev in out):
            out.append(acc)
    return frozenset(out)


@dataclass
class FailureSet:
    """Map from trace (tuple of non-tau actions) to acceptance family."""

    table: dict = field(default_factory=dict)

    def __eq__(self, other):
        return isinstance(other, FailureSet) and self.table == other.table

    def refuses(self, trace: tuple, refusal: frozenset) -> bool:
        family = self.table.get(trace)
        if family is None:
            return False
        return any(not (acc & refusal) for acc in family)

    def traces(self):
        return sorted(self.table, key=lambda tr: (len(tr), tuple(map(action_key, tr))))

    def to_json(self) -> list:
        return [
            {
                "trace": [print_action(a) for a in tr],
                "acceptances": _family_json(self.table[tr]),
            }
            for tr in self.traces()
        ]

    def first_difference(self, other: "FailureSet") -> Optional[dict]:
        """A witness for inequality: a trace present on one side only, or
        a trace whose acceptance families differ."""
        for tr in sorted(
            set(self.table) | set(other.table),
            key=lambda tr: (len(tr), tuple(map(action_key, tr))),
        ):
            mine = self.table.get(tr)
            theirs = other.table.get(tr)
            if mine is None or theirs is None:
                return {
                    "trace": [print_action(a) for a in tr],
                    "reason": "trace on one side only",
                    "left": mine is not None,
                    "right": theirs is not None,
                }
            if mine != theirs:
                return {
                    "trace": [print_action(a) for a in tr],
                    "reason": "acceptance families differ",
                    "left": _family_json(mine),
                    "right": _family_json(theirs),
                }
        return None


# ---------------------------------------------------------------------------
# Bounded failures straight from the transition rules (no normal form).


class _StepCache:
    """The states one `failures_bounded` call has met, by printed key, and
    their sorted transitions.  Like `build_lts` it memoises the
    transitions and texts of the nodes it meets for its own life only;
    it reads no graph or memo of another exploration."""

    def __init__(self, budget: ExplorationBudget):
        self.terms: dict[str, Term] = {}
        self.trans: dict[str, tuple] = {}
        self.budget = budget
        self.steps: dict = {}
        self.texts: dict = {}

    def key_of(self, t: Term) -> str:
        if term_depth(t) > DEPTH_CAP:
            raise BudgetExceeded("state nesting exceeds the depth cap")
        key = print_term(t, self.texts)
        if key not in self.terms:
            if len(self.terms) >= self.budget.max_states:
                raise BudgetExceeded(f"state budget {self.budget.max_states} exhausted")
            self.terms[key] = t
        return key

    def successors(self, key: str) -> tuple:
        cached = self.trans.get(key)
        if cached is None:
            succs = []
            for a, p in step(self.terms[key], 0, self.steps):
                succs.append((a, self.key_of(p)))
            succs.sort(key=lambda s: (action_key(s[0]), s[1]))
            cached = tuple(succs)
            self.trans[key] = cached
        return cached


def _node_family(cache: _StepCache, node: frozenset) -> frozenset:
    acceptances = set()
    for key in node:
        succs = cache.successors(key)
        if any(a == TAU for a, _ in succs):
            continue
        acceptances.add(frozenset(a for a, _ in succs))
    return _minimize(acceptances)


def _node_moves(cache: _StepCache, node: frozenset) -> dict:
    moves: dict[Action, set] = {}
    for key in node:
        for a, dst in cache.successors(key):
            if a == TAU:
                continue
            moves.setdefault(a, set()).add(dst)
    return moves


def failures_bounded(
    t: Term, depth: int, budget: ExplorationBudget = ExplorationBudget()
) -> FailureSet:
    """Failures for every trace of length <= depth, by determinizing the
    tau-closed reachable sets on the fly.  Raises BudgetExceeded when
    tau-closing or stepping outruns the state budget.
    """
    cache = _StepCache(budget)
    root = tau_closure(cache, frozenset([cache.key_of(t)]))
    fs = FailureSet()
    node_by_trace = {(): root}
    frontier = [((), root)]
    fs.table[()] = _node_family(cache, root)
    for _ in range(depth):
        next_frontier = []
        for trace, node in frontier:
            for a, dsts in sorted(
                _node_moves(cache, node).items(), key=lambda kv: action_key(kv[0])
            ):
                succ = tau_closure(cache, frozenset(dsts))
                tr2 = trace + (a,)
                if tr2 in node_by_trace:
                    continue
                node_by_trace[tr2] = succ
                fs.table[tr2] = _node_family(cache, succ)
                next_frontier.append((tr2, succ))
        frontier = next_frontier
    return fs


# ---------------------------------------------------------------------------
# Normal form over a completely explored LTS and exact comparison.


@dataclass
class NormalForm:
    """Action-deterministic graph over tau-closed state sets, each node
    carrying its minimal acceptance family."""

    root: frozenset
    families: dict = field(default_factory=dict)  # node -> family
    edges: dict = field(default_factory=dict)  # node -> tuple[(Action, node)]

    def failures_to_depth(self, depth: int) -> FailureSet:
        fs = FailureSet()
        fs.table[()] = self.families[self.root]
        frontier = [((), self.root)]
        for _ in range(depth):
            nxt = []
            for trace, node in frontier:
                for a, succ in self.edges[node]:
                    tr2 = trace + (a,)
                    if tr2 in fs.table:
                        continue
                    fs.table[tr2] = self.families[succ]
                    nxt.append((tr2, succ))
            frontier = nxt
        return fs


def normal_form(lts: LTS) -> NormalForm:
    """The normal form of a complete graph, computed once per graph and
    kept on it, so a graph shared by `build_lts` is normalised once and
    its normal form goes when the graph does."""
    if lts.normal_form is None:
        lts.normal_form = _normalise(lts)
    return lts.normal_form


def _normalise(lts: LTS) -> NormalForm:
    if not lts.complete:
        raise ValueError("normal form requires a completely explored LTS")
    root = tau_closure(lts, frozenset([lts.initial]))
    nf = NormalForm(root=root)
    todo = [root]
    while todo:
        node = todo.pop()
        if node in nf.families:
            continue
        acceptances = set()
        moves: dict[Action, set] = {}
        for key in node:
            succs = lts.successors(key)
            if not any(a == TAU for a, _ in succs):
                acceptances.add(frozenset(a for a, _ in succs))
            for a, dst in succs:
                if a != TAU:
                    moves.setdefault(a, set()).add(dst)
        nf.families[node] = _minimize(acceptances)
        edges = []
        for a, dsts in sorted(moves.items(), key=lambda kv: action_key(kv[0])):
            succ = tau_closure(lts, frozenset(dsts))
            edges.append((a, succ))
            todo.append(succ)
        nf.edges[node] = tuple(edges)
    return nf


@dataclass
class EquivResult:
    verdict: str  # "equal" | "distinguished" | "unknown"
    witness: Optional[dict] = None
    detail: str = ""

    @property
    def equal(self) -> bool:
        return self.verdict == "equal"


def _compare_normal_forms(nf1: NormalForm, nf2: NormalForm) -> EquivResult:
    seen = set()
    frontier = [((), nf1.root, nf2.root)]
    while frontier:
        next_frontier = []
        for trace, n1, n2 in frontier:
            if (n1, n2) in seen:
                continue
            seen.add((n1, n2))
            if nf1.families[n1] != nf2.families[n2]:
                return EquivResult(
                    "distinguished",
                    witness={
                        "trace": [print_action(a) for a in trace],
                        "reason": "acceptance families differ",
                        "left": _family_json(nf1.families[n1]),
                        "right": _family_json(nf2.families[n2]),
                    },
                )
            e1 = dict(nf1.edges[n1])
            e2 = dict(nf2.edges[n2])
            if set(e1) != set(e2):
                only = sorted(set(e1) ^ set(e2), key=action_key)[0]
                return EquivResult(
                    "distinguished",
                    witness={
                        "trace": [print_action(a) for a in trace + (only,)],
                        "reason": "trace on one side only",
                        "left": only in e1,
                        "right": only in e2,
                    },
                )
            for a in sorted(e1, key=action_key):
                next_frontier.append((trace + (a,), e1[a], e2[a]))
        frontier = next_frontier
    return EquivResult("equal")


def failures_equiv(
    p: Term,
    q: Term,
    budget: ExplorationBudget = ExplorationBudget(),
    depth: int = 6,
) -> EquivResult:
    """Exact decision via normal forms when both state spaces complete
    within budget; otherwise a bounded comparison at the given depth,
    reporting `unknown` on agreement.
    """
    lts_p = build_lts(p, budget)
    lts_q = build_lts(q, budget)
    if lts_p.complete and lts_q.complete:
        return _compare_normal_forms(normal_form(lts_p), normal_form(lts_q))
    try:
        fp = failures_bounded(p, depth, budget)
        fq = failures_bounded(q, depth, budget)
    except BudgetExceeded as exc:
        return EquivResult("unknown", detail=f"budget exhausted: {exc}")
    diff = fp.first_difference(fq)
    if diff is not None:
        return EquivResult("distinguished", witness=diff)
    return EquivResult("unknown", detail=f"bounded agreement to depth {depth}")


# ---------------------------------------------------------------------------
# Weak bisimulation by partition refinement on the saturated graph.


def _saturate(lts: LTS):
    """Weak moves per state: eps-closure and a -> eps-closed targets."""
    tau_reach = {s: tau_closure(lts, (s,)) for s in lts.states}
    weak: dict[str, dict] = {s: {} for s in lts.states}
    for s in lts.states:
        for u in tau_reach[s]:
            for a, v in lts.successors(u):
                if a == TAU:
                    continue
                weak[s].setdefault(a, set()).update(tau_reach[v])
    return tau_reach, weak


def _signature(s: str, tau_reach: dict, weak: dict, block: dict) -> frozenset:
    """The blocks that state s reaches by weak moves, each tagged with the
    printed action ("" for the silent move)."""
    sig = {("", block[t]) for t in tau_reach[s]}
    for a, targets in weak[s].items():
        sig.update((print_action(a), block[t]) for t in targets)
    return frozenset(sig)


def weak_bisim(
    p: Term, q: Term, budget: ExplorationBudget = ExplorationBudget()
) -> EquivResult:
    lts_p = build_lts(p, budget)
    lts_q = build_lts(q, budget)
    if not lts_p.complete:
        return EquivResult("unknown", detail=exhausted_limit(lts_p, budget))
    if not lts_q.complete:
        return EquivResult("unknown", detail=exhausted_limit(lts_q, budget))
    # Shared printed keys denote identical behaviour; merge the graphs.
    merged = LTS(initial=lts_p.initial)
    merged.terms = {**lts_p.terms, **lts_q.terms}
    merged.transitions = {**lts_p.transitions, **lts_q.transitions}
    tau_reach, weak = _saturate(merged)
    states = merged.states
    block = {s: 0 for s in states}
    while True:
        buckets: dict[tuple, int] = {}
        new_block = {}
        for s in states:
            key = (block[s], _signature(s, tau_reach, weak, block))
            if key not in buckets:
                buckets[key] = len(buckets)
            new_block[s] = buckets[key]
        if new_block == block:
            break
        block = new_block
    if block[lts_p.initial] == block[lts_q.initial]:
        return EquivResult("equal")
    diff = _signature(lts_p.initial, tau_reach, weak, block) ^ _signature(
        lts_q.initial, tau_reach, weak, block
    )
    return EquivResult(
        "distinguished",
        witness={
            "reason": "weak bisimulation classes differ",
            "actions": sorted({a for a, _ in diff}),
        },
    )


# ---------------------------------------------------------------------------
# Orthogonality: the fully closed parallel composition converges.


def perp(
    p: Term, q: Term, budget: ExplorationBudget = ExplorationBudget()
) -> str:
    closed = Restrict(Par(p, q), ALL_LABELS)
    d = diverges(closed, budget)
    if d == "yes":
        return "no"
    if d == "no":
        return "yes"
    return "unknown"

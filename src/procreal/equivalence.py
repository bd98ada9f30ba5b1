"""Failures semantics and the equivalence checkers.

Failures are represented per trace by the antichain of minimal
acceptance sets of the stable (tau-free) states reachable under that
trace; a process can refuse X after s iff some acceptance set in the
family avoids X.  Antichains are canonical for the induced refusal
family, so failures equivalence is map equality.

A complete graph's failures are also summed up by a canonical
fingerprint (`fingerprint`): its normal form minimised by partition
refinement (`refine`) and numbered breadth-first, as in Roscoe's
normal-form minimisation (*Model-checking CSP*, 1994).  Two complete
graphs are failures-equal exactly when their fingerprints are equal.  The
memo's answer tier keeps a term's fingerprint after its graph goes, so
`failures_verdict`, which the semantic-type drivers ask, explores each
term once while its answer is kept.  `failures_equiv` still compares two
normal forms pairwise (`_compare_normal_forms`): it builds a witness, and
its callers, the law checks, mostly ask about fresh terms, for which a
fingerprint adds work and memory and is never asked for again.
`weak_bisim` uses the same `refine` on the saturated graph.

`failures_bounded` reaches the same failures by another route, straight
from the transition rules: it determinises each tau-closed node it meets
once per call (its acceptance family, its moves and, when a trace short
of the depth reaches it, their tau closures), whatever the number of
traces that reach the node.  It reads no graph, normal form or memo tier
of the engine, so the two routes check each other.

Divergence does not enter the failures model; it is a separate
predicate used by the orthogonality check `perp`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .names import ALL_LABELS, Action, TAU, action_key, print_action
from .semantics import (
    _MEMO,
    DEPTH_CAP,
    BudgetExceeded,
    ExplorationBudget,
    LTS,
    StepMemo,
    build_lts,
    diverges,
    step,
    tau_closure,
)
from .terms import Par, Restrict, Term, term_depth


def _family_json(family) -> list:
    return sorted(
        [sorted(print_action(a) for a in acc) for acc in family]
    )


def _minimize(acceptances: set) -> frozenset:
    """Subset-minimal antichain of a family of acceptance sets.  A proper
    subset is shorter, so sorting by length alone puts it first."""
    if len(acceptances) < 2:
        return frozenset(acceptances)
    out = []
    for acc in sorted(acceptances, key=len):
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
    """The states one `failures_bounded` call has met, numbered in the
    order admitted, their transitions, and the tau-closed nodes it has
    determinised.  Like `build_lts` it memoises for its own life only; it
    reads no graph or memo of another exploration."""

    def __init__(self, budget: ExplorationBudget):
        self.states: dict = {}  # state -> its number
        self.trans: dict = {}  # state -> tuple[(Action, state)]
        self.nodes: dict = {}  # tau-closed node -> _bounded_node's entry
        self.budget = budget
        self.steps = StepMemo(budget.max_transitions)

    def admit(self, t: Term) -> Term:
        if term_depth(t) > DEPTH_CAP:
            raise BudgetExceeded(f"depth cap {DEPTH_CAP} reached")
        if t not in self.states:
            if len(self.states) >= self.budget.max_states:
                raise BudgetExceeded(f"state budget {self.budget.max_states} exhausted")
            self.states[t] = len(self.states)
        return t

    def successors(self, state: Term) -> tuple:
        cached = self.trans.get(state)
        if cached is None:
            cached = tuple((a, self.admit(p)) for a, p in step(state, 0, self.steps))
            self.trans[state] = cached
        return cached


def _bounded_node(cache: _StepCache, node: frozenset) -> list:
    """The entry of a tau-closed node, made once per call in one pass over
    its states, which the tau closure that made the node has stepped:
    [its acceptance family, its visible moves as (action, target states)
    in `action_key` order, and None until `failures_bounded` expands it,
    then the moves' (action, tau-closed node) pairs]."""
    entry = cache.nodes.get(node)
    if entry is None:
        acceptances = set()
        moves: dict[Action, set] = {}
        for state in node:
            succs = cache.successors(state)
            stable = True
            for a, dst in succs:
                if a == TAU:
                    stable = False
                else:
                    moves.setdefault(a, set()).add(dst)
            if stable:
                acceptances.add(frozenset(a for a, _ in succs))
        moves = sorted(moves.items(), key=lambda kv: action_key(kv[0]))
        entry = cache.nodes[node] = [_minimize(acceptances), moves, None]
    return entry


def failures_bounded(
    t: Term, depth: int, budget: ExplorationBudget = ExplorationBudget()
) -> FailureSet:
    """Failures for every trace of length <= depth, by determinizing the
    tau-closed reachable sets on the fly, each once per call.  Raises
    BudgetExceeded when tau-closing or stepping outruns the state budget,
    or when the successors built and the traces entered together outrun
    the transition budget: the traces of a few states can grow
    exponentially with the depth.  A node's moves are tau-closed only when
    a trace shorter than `depth` reaches it, so the states stepped are
    those the traces need.
    """
    cache = _StepCache(budget)
    root = tau_closure(cache, [cache.admit(t)])
    fs = FailureSet()
    fs.table[()] = _bounded_node(cache, root)[0]
    frontier = [((), root)]
    for _ in range(depth):
        next_frontier = []
        for trace, node in frontier:
            entry = _bounded_node(cache, node)
            if entry[2] is None:
                # closed from the targets in the order admitted, not in set
                # order (their addresses), so that which limit a call
                # reaches first does not vary from run to run
                entry[2] = [
                    (a, tau_closure(cache, sorted(dsts, key=cache.states.get))) for a, dsts in entry[1]
                ]
            cache.steps.spend(len(entry[2]))
            for a, succ in entry[2]:
                tr2 = trace + (a,)
                fs.table[tr2] = _bounded_node(cache, succ)[0]
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
    """The normal form of a complete graph.  Graphs are not shared (each
    `build_lts` call returns its own), so nothing is kept: a caller that
    asks again of a term keeps the answer it needs, as
    `failures_fingerprint` keeps the fingerprint."""
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
        for state in node:
            succs = lts.successors(state)
            stable = True
            for a, dst in succs:
                if a == TAU:
                    stable = False
                else:
                    moves.setdefault(a, set()).add(dst)
            if stable:
                acceptances.add(frozenset(a for a, _ in succs))
        nf.families[node] = _minimize(acceptances)
        edges = []
        for a, dsts in sorted(moves.items(), key=lambda kv: action_key(kv[0])):
            succ = tau_closure(lts, frozenset(dsts))
            edges.append((a, succ))
            todo.append(succ)
        nf.edges[node] = tuple(edges)
    return nf


def refine(nodes, block: dict, signature) -> dict:
    """Partition refinement.  Splits the blocks of `block` (node -> block
    number) by `signature(node, block)` until the number of blocks stops
    growing, and returns the stable partition reached: the coarsest one
    that refines `block` and in which nodes of a block have equal
    signatures.  Blocks are numbered in the order of their first node in
    `nodes`; a signature may hold block numbers."""
    count = len(set(block.values()))
    while True:
        buckets: dict = {}
        new_block = {n: buckets.setdefault((block[n], signature(n, block)), len(buckets)) for n in nodes}
        if len(buckets) == count:
            return new_block
        block, count = new_block, len(buckets)


def _family_key(family: frozenset) -> tuple:
    return tuple(sorted(tuple(sorted(map(action_key, acc))) for acc in family))


def fingerprint(nf: NormalForm) -> tuple:
    """The canonical failures fingerprint of a normal form: its minimal
    deterministic graph, one entry per block of failures-equal nodes,
    numbered breadth-first from the root's block along edges in
    `action_key` order.  An entry is the block's acceptance family
    followed by each edge's action key and target block number, all made
    of `action_key` tuples, so it holds no term and is the same under
    every hash seed.  Two normal forms have equal fingerprints exactly
    when `_compare_normal_forms` finds them equal.  Each family, each
    entry and the whole are the memo's kept copies (`_MEMO.share`), so
    that equal ones are one object."""
    edges = nf.edges
    share = _MEMO.share
    first: dict = {}
    block = {
        n: first.setdefault((family, tuple(a for a, _ in edges[n])), len(first))
        for n, family in nf.families.items()
    }
    block = refine(nf.families, block, lambda n, blk: tuple(blk[dst] for _, dst in edges[n]))
    number = {block[nf.root]: 0}
    order = [nf.root]  # a node of each numbered block
    out = []
    for node in order:  # grows while it is walked
        entry = [share(_family_key(nf.families[node]))]
        for a, dst in edges[node]:
            b = block[dst]
            if b not in number:
                number[b] = len(order)
                order.append(dst)
            entry += (action_key(a), number[b])
        out.append(share(tuple(entry)))
    return share(tuple(out))


# The fingerprint of a term whose graph is partial.
INCOMPLETE = "incomplete"


def failures_fingerprint(t: Term, budget: ExplorationBudget = ExplorationBudget()):
    """The fingerprint of `t`'s normal form under `budget`, or INCOMPLETE
    when its graph is partial.  Kept in the memo's answer tier, after the
    graph goes."""
    key = ("fingerprint", t, budget.max_states)
    fp = _MEMO.answers.get(key)
    if fp is None:
        lts = build_lts(t, budget)
        fp = _MEMO.answers.put(key, fingerprint(normal_form(lts)) if lts.complete else INCOMPLETE)
    return fp


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


# The trace length the bounded route compares to, unless a caller says.
BOUNDED_DEPTH = 6


def failures_equiv(
    p: Term,
    q: Term,
    budget: ExplorationBudget = ExplorationBudget(),
    depth: int = BOUNDED_DEPTH,
) -> EquivResult:
    """Exact decision via normal forms when both state spaces complete
    within budget; otherwise a bounded comparison at the given depth,
    reporting `unknown` on agreement.
    """
    lts_p = build_lts(p, budget)
    lts_q = build_lts(q, budget)
    if lts_p.complete and lts_q.complete:
        return _compare_normal_forms(normal_form(lts_p), normal_form(lts_q))
    return _bounded_route(p, q, budget, depth)


def failures_verdict(p: Term, q: Term, budget: ExplorationBudget = ExplorationBudget()) -> EquivResult:
    """The verdict of `failures_equiv`, and its detail when undecided,
    from the fingerprints the answer memo keeps: exact when both graphs
    are complete, else by the same bounded route.  An exact
    "distinguished" carries no witness.  A term asked about again is not
    explored again while its answer is kept, so the semantic-type
    drivers, which compare a few hundred representatives over and over,
    ask here."""
    fp = failures_fingerprint(p, budget)
    fq = failures_fingerprint(q, budget)
    if fp is INCOMPLETE or fq is INCOMPLETE:
        return _bounded_route(p, q, budget, BOUNDED_DEPTH)
    return EquivResult("equal" if fp == fq else "distinguished")


def _bounded_route(p: Term, q: Term, budget: ExplorationBudget, depth: int) -> EquivResult:
    """Failures up to `depth` by brute force, for a pair with a partial
    graph: "distinguished" with a witness, or "unknown" with the reason."""
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
    tau_reach = {s: tau_closure(lts, (s,)) for s in lts.terms}
    weak: dict[Term, dict] = {s: {} for s in lts.terms}
    for s in lts.terms:
        for u in tau_reach[s]:
            for a, v in lts.successors(u):
                if a == TAU:
                    continue
                weak[s].setdefault(a, set()).update(tau_reach[v])
    return tau_reach, weak


def _signature(s: Term, tau_reach: dict, weak: dict, block: dict) -> frozenset:
    """The blocks that state s reaches by weak moves, each tagged with its
    action (TAU for the silent move)."""
    sig = {(TAU, block[t]) for t in tau_reach[s]}
    for a, targets in weak[s].items():
        sig.update((a, block[t]) for t in targets)
    return frozenset(sig)


def weak_bisim(
    p: Term, q: Term, budget: ExplorationBudget = ExplorationBudget()
) -> EquivResult:
    lts_p = build_lts(p, budget)
    lts_q = build_lts(q, budget)
    if not lts_p.complete:
        return EquivResult("unknown", detail=lts_p.limit)
    if not lts_q.complete:
        return EquivResult("unknown", detail=lts_q.limit)
    # An equal node behaves the same in both graphs; merge them.
    merged = LTS(initial=lts_p.initial)
    merged.terms = {**lts_p.terms, **lts_q.terms}
    merged.transitions = {**lts_p.transitions, **lts_q.transitions}
    tau_reach, weak = _saturate(merged)
    block = refine(
        merged.terms, dict.fromkeys(merged.terms, 0), lambda s, blk: _signature(s, tau_reach, weak, blk)
    )
    if block[lts_p.initial] == block[lts_q.initial]:
        return EquivResult("equal")
    diff = _signature(lts_p.initial, tau_reach, weak, block) ^ _signature(
        lts_q.initial, tau_reach, weak, block
    )
    return EquivResult(
        "distinguished",
        witness={
            "reason": "weak bisimulation classes differ",
            "actions": sorted({"" if a == TAU else print_action(a) for a, _ in diff}),
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

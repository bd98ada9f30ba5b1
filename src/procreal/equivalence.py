"""Failures semantics and the equivalence checkers.

Failures are represented per trace by the antichain of minimal
acceptance sets of the stable (tau-free) states reachable under that
trace; a process can refuse X after s iff some acceptance set in the
family avoids X.  Antichains are canonical for the induced refusal
family, so failures equivalence is map equality.

Two routes reach failures.  `normal_form` determinises a complete graph
from `build_lts`, as in Roscoe's *Model-checking CSP* (1994);
`failures_bounded` steps the term lazily (`_StepCache`) up to a trace
depth.  Both use `step`, `tau_closure`, `_minimize`, one `_determinise`
(a node's acceptance family and moves) and one `_unfold` (the traces).
They differ in the graph each reads and in when a node's moves are
tau-closed: all at once, or when a trace first leaves the node.  Only
`build_lts` reads the engine's memo tiers, so a fault there shows as the
routes disagreeing; the shared code is checked against a reference in
the tests over an independent one-step matcher.

A complete graph's failures are also summed up by a canonical
fingerprint (`fingerprint`): its normal form minimised by partition
refinement (`refine`) and numbered breadth-first.  Two complete graphs
are failures-equal exactly when their fingerprints are equal.  The
memo's answer tier keeps a term's fingerprint after its graph goes, so
`failures_verdict` explores each term once while its answer is kept.
Its callers ask the same questions again and again: the semantic-type
drivers compare a few hundred representatives over and over, the
category laws are re-checked on the same instance, and a cut step is
re-checked whenever its proof's trail is.  `failures_equiv` compares two
normal forms pairwise (`_compare_normal_forms`), which builds a witness;
its callers, the randomised law checks, mostly ask about fresh terms,
whose fingerprints would never be asked for again, and a cut step asks
it only for the witness of a step already found unsound.
`weak_bisim` uses the same `refine` on the saturated graph.

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


def _trace_key(trace: tuple) -> tuple:
    """Traces in witness and export order: shorter first, then by
    `action_key`."""
    return len(trace), tuple(map(action_key, trace))


def _witness(trace: tuple, left, right) -> dict:
    """The witness that two processes differ after `trace`, given each
    side's acceptance family there, or None where it has no such trace."""
    if left is None or right is None:
        return {
            "trace": [print_action(a) for a in trace],
            "reason": "trace on one side only",
            "left": left is not None,
            "right": right is not None,
        }
    return {
        "trace": [print_action(a) for a in trace],
        "reason": "acceptance families differ",
        "left": _family_json(left),
        "right": _family_json(right),
    }


@dataclass
class FailureSet:
    """Map from trace (tuple of non-tau actions) to acceptance family."""

    table: dict = field(default_factory=dict)

    def traces(self):
        return sorted(self.table, key=_trace_key)

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
        for tr in sorted(self.table.keys() | other.table.keys(), key=_trace_key):
            mine = self.table.get(tr)
            theirs = other.table.get(tr)
            if mine != theirs:
                return _witness(tr, mine, theirs)
        return None


# ---------------------------------------------------------------------------
# Determinisation and trace unfolding, shared by the two routes.


def _determinise(graph, nodes: dict, node: frozenset) -> tuple:
    """A tau-closed node's entry in `nodes`, made once in one pass over its
    states in `graph` (anything with `successors`): its minimal acceptance
    family, and its visible moves as (action, target states) pairs in
    `action_key` order."""
    entry = nodes.get(node)
    if entry is None:
        acceptances = set()
        moves: dict[Action, set] = {}
        for state in node:
            succs = graph.successors(state)
            stable = True
            for a, dst in succs:
                if a == TAU:
                    stable = False
                else:
                    moves.setdefault(a, set()).add(dst)
            if stable:
                acceptances.add(frozenset(a for a, _ in succs))
        moves = sorted(moves.items(), key=lambda kv: action_key(kv[0]))
        entry = nodes[node] = (_minimize(acceptances), moves)
    return entry


def _unfold(root, depth: int, family, edges) -> FailureSet:
    """Failures of each trace of length <= depth, breadth first from `root`
    of an action-deterministic graph: `family(node)` gives a node's
    acceptance family, `edges(node)` its (action, node) moves; only nodes
    a trace shorter than `depth` reaches are asked for their moves."""
    fs = FailureSet()
    fs.table[()] = family(root)
    frontier = [((), root)]
    for _ in range(depth):
        next_frontier = []
        for trace, node in frontier:
            for a, succ in edges(node):
                tr2 = trace + (a,)
                fs.table[tr2] = family(succ)
                next_frontier.append((tr2, succ))
        frontier = next_frontier
    return fs


# ---------------------------------------------------------------------------
# Bounded failures straight from the transition rules (no normal form).


class _StepCache:
    """The states one `failures_bounded` call has met, numbered in the
    order admitted, and their transitions.  Like `build_lts` it memoises
    for its own life only; it reads no graph or memo of another
    exploration."""

    def __init__(self, budget: ExplorationBudget):
        self.states: dict = {}  # state -> its number
        self.trans: dict = {}  # state -> tuple[(Action, state)]
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


def failures_bounded(
    t: Term, depth: int, budget: ExplorationBudget = ExplorationBudget()
) -> FailureSet:
    """Failures for every trace of length <= depth, by `_unfold` over the
    tau-closed state sets, each determinised once per call.  A node's
    moves are tau-closed when a trace shorter than `depth` first leaves
    it, so the states stepped are those the traces need.  Raises
    BudgetExceeded when closing or stepping outruns the state budget, or
    when the successors built and the traces entered together outrun the
    transition budget: the traces of a few states grow exponentially with
    the depth."""
    cache = _StepCache(budget)
    nodes: dict = {}  # tau-closed node -> _determinise's entry
    closed: dict = {}  # tau-closed node -> its (action, tau-closed node) moves

    def family(node):
        return _determinise(cache, nodes, node)[0]

    def edges(node):
        succs = closed.get(node)
        if succs is None:
            # closed from the targets in the order admitted, not in set
            # order (their addresses), so that which limit a call reaches
            # first does not vary from run to run
            succs = closed[node] = [
                (a, tau_closure(cache, sorted(dsts, key=cache.states.get)))
                for a, dsts in _determinise(cache, nodes, node)[1]
            ]
        cache.steps.spend(len(succs))
        return succs

    return _unfold(tau_closure(cache, [cache.admit(t)]), depth, family, edges)


# ---------------------------------------------------------------------------
# Normal form over a completely explored LTS and exact comparison.


@dataclass
class NormalForm:
    """Action-deterministic graph over tau-closed state sets, each node
    carrying its minimal acceptance family (`_determinise`)."""

    root: frozenset
    families: dict = field(default_factory=dict)  # node -> family
    edges: dict = field(default_factory=dict)  # node -> tuple[(Action, node)]

    def failures_to_depth(self, depth: int) -> FailureSet:
        return _unfold(self.root, depth, self.families.__getitem__, self.edges.__getitem__)


def normal_form(lts: LTS) -> NormalForm:
    """The normal form of a complete graph: every tau-closed node reached
    from the initial state, determinised, with its moves tau-closed.
    Graphs are not shared (each `build_lts` call returns its own), so
    nothing is kept: a caller that asks again of a term keeps the answer
    it needs, as `failures_fingerprint` keeps the fingerprint."""
    if not lts.complete:
        raise ValueError("normal form requires a completely explored LTS")
    root = tau_closure(lts, [lts.initial])
    nf = NormalForm(root=root)
    nodes: dict = {}
    todo = [root]
    while todo:
        node = todo.pop()
        if node not in nf.families:
            nf.families[node], moves = _determinise(lts, nodes, node)
            nf.edges[node] = edges = tuple((a, tau_closure(lts, dsts)) for a, dsts in moves)
            todo.extend(succ for _, succ in edges)
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
            f1, f2 = nf1.families[n1], nf2.families[n2]
            if f1 != f2:
                return EquivResult("distinguished", witness=_witness(trace, f1, f2))
            e1 = dict(nf1.edges[n1])
            e2 = dict(nf2.edges[n2])
            if e1.keys() != e2.keys():
                only = min(e1.keys() ^ e2.keys(), key=action_key)
                return EquivResult("distinguished", witness=_witness(
                    trace + (only,),
                    nf1.families[e1[only]] if only in e1 else None,
                    nf2.families[e2[only]] if only in e2 else None,
                ))
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
    reporting `unknown` on agreement.  `q` is explored only when `p`'s
    graph is complete: a partial `p` sends the pair to the bounded route
    whatever `q` is.
    """
    lts_p = build_lts(p, budget)
    if lts_p.complete:
        lts_q = build_lts(q, budget)
        if lts_q.complete:
            return _compare_normal_forms(normal_form(lts_p), normal_form(lts_q))
    return _bounded_route(p, q, budget, depth)


def failures_verdict(
    p: Term,
    q: Term,
    budget: ExplorationBudget = ExplorationBudget(),
    depth: int = BOUNDED_DEPTH,
) -> EquivResult:
    """The verdict of `failures_equiv` at the same `depth`, and its detail
    when undecided, from the fingerprints the answer memo keeps: exact
    when both graphs are complete, else by the same bounded route, which
    keeps its witness.  An exact "distinguished" carries no witness; a
    caller that reports one asks `failures_equiv` for it then.  A term
    asked about again is not explored again while its answer is kept.
    A partial graph of `p` sends the pair to the bounded route whatever
    `q` is, so `q` is fingerprinted only when `p`'s graph is complete."""
    fp = failures_fingerprint(p, budget)
    fq = INCOMPLETE if fp is INCOMPLETE else failures_fingerprint(q, budget)
    if fq is INCOMPLETE:
        return _bounded_route(p, q, budget, depth)
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
    if not lts_p.complete:
        return EquivResult("unknown", detail=lts_p.limit)
    lts_q = build_lts(q, budget)
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

"""Failures semantics and the equivalence checkers.

Failures are represented per trace by the antichain of minimal
acceptance sets of the stable (tau-free) states reachable under that
trace; a process can refuse X after s iff some acceptance set in the
family avoids X.  Antichains are canonical for the induced refusal
family, so failures equivalence is map equality.

Two routes reach failures.  `normal_form` determinises a complete graph
from `build_lts`, as in Roscoe's *Model-checking CSP* (1994);
`failures_bounded` steps the term lazily up to a trace depth.  Both
use `step`, the engine's one `tau_closure` and one `_determinise` (a
node's acceptance family and moves), called once per tau-closed node
on the graph's table or on the transitions the bounded route stepped;
they differ in when a node's moves are tau-closed: all at once, or when
a trace first leaves the node.  A trace then costs one table lookup,
and the traces stop at the depth or when none goes on.  Only
`build_lts` reads the engine's memo tiers, so a fault there shows as
the routes disagreeing; the shared code is checked against a reference
in the tests over an independent one-step matcher.

A complete graph's failures are also summed up by a canonical
fingerprint (`fingerprint`): its normal form minimised by partition
refinement (`refine`) and numbered breadth-first, itself a normal form.
Two complete graphs are failures-equal exactly when their fingerprints
are, and one pairwise walk (`_compare_normal_forms`) finds the same
witness on their normal forms as on their fingerprints.  Only
`failures_verdict` keeps fingerprints, in the memo's answer tier, for
callers that ask again and again (semantic types, category laws, cut
steps re-checked); those of `failures_equiv`, the randomised law checks,
ask about fresh terms.  `weak_bisim` uses `refine` on the saturated graph.

Divergence does not enter the failures model; it is a separate
predicate used by the orthogonality check `perp`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .names import ALL_LABELS, Action, Label, TAU, action_key, print_action
from .semantics import (
    _MEMO,
    DEPTH_CAP,
    BudgetExceeded,
    ExplorationBudget,
    LTS,
    NO,
    StepMemo,
    Verdict,
    YES,
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
# Determinisation, shared by the two routes.


def _move_key(move: tuple) -> tuple:
    return action_key(move[0])


def _determinise(successors, node: frozenset) -> tuple:
    """A tau-closed node's minimal acceptance family and its visible moves
    as (action, target states) pairs in `action_key` order, in one pass
    over its states; `successors(state)` gives a state's (action, state)
    pairs."""
    acceptances = set()
    moves: dict[Action, set] = {}
    for state in node:
        succs = successors(state)
        stable = True
        for a, dst in succs:
            if not a:  # TAU
                stable = False
            else:
                dsts = moves.get(a)
                if dsts is None:
                    moves[a] = {dst}
                else:
                    dsts.add(dst)
        if stable:
            acceptances.add(frozenset(dict(succs)))  # the actions offered
    moves = list(moves.items())
    if len(moves) > 1:
        moves.sort(key=_move_key)
    return _minimize(acceptances), moves


# ---------------------------------------------------------------------------
# Bounded failures straight from the transition rules (no normal form).


def failures_bounded(
    t: Term, depth: int, budget: ExplorationBudget = ExplorationBudget()
) -> FailureSet:
    """Failures for every trace of length <= depth, breadth first over the
    tau-closed state sets, each determinised once.  A node's moves are
    tau-closed when a trace shorter than `depth` first leaves it, so only
    the states the traces need are stepped.  Raises BudgetExceeded past
    the state budget or the depth cap, or when the successors built and
    the traces entered together outrun the transition budget (the traces
    of a few states grow exponentially with the depth).  Like `build_lts`
    it memoises for its own life only."""
    admitted: dict = {}  # state -> its number, in the order admitted
    trans: dict = {}  # state -> tuple[(Action, state)]
    steps = StepMemo(budget.max_transitions)

    def admit(state: Term):
        if state not in admitted:
            if term_depth(state) > DEPTH_CAP:
                raise BudgetExceeded(f"depth cap {DEPTH_CAP} reached")
            if len(admitted) >= budget.max_states:
                raise BudgetExceeded(f"state budget {budget.max_states} exhausted")
            admitted[state] = len(admitted)

    def successors(state: Term) -> tuple:
        pairs = trans.get(state)
        if pairs is None:
            pairs = tuple(step(state, 0, steps))
            for _, dst in pairs:
                admit(dst)
            trans[state] = pairs
        return pairs

    admit(t)
    root = tau_closure(successors, (t,))
    stepped = trans.__getitem__  # a closure steps each of its states
    # node -> [family, moves, closed moves as (action, target, its family)]:
    # no entry holds another, so a cyclic graph leaves no reference cycle
    nodes = {root: [*_determinise(stepped, root), None]}
    table = {(): nodes[root][0]}
    frontier = [((), root)]
    while frontier and len(frontier[0][0]) < depth:  # a level's traces have its length
        next_frontier = []
        for trace, node in frontier:
            entry = nodes[node]
            closed = entry[2]
            if closed is None:
                closed = entry[2] = []
                for a, dsts in entry[1]:
                    # closed from the targets in the order admitted, not in
                    # set order (their addresses), so that which limit a call
                    # reaches first does not vary from run to run
                    succ = tau_closure(successors, sorted(dsts, key=admitted.get) if len(dsts) > 1 else dsts)
                    target = nodes.get(succ)
                    if target is None:
                        target = nodes[succ] = [*_determinise(stepped, succ), None]
                    closed.append((a, succ, target[0]))
            steps.spend(len(closed))
            for a, succ, family in closed:
                tr2 = trace + (a,)
                table[tr2] = family
                next_frontier.append((tr2, succ))
        frontier = next_frontier
    return FailureSet(table)


# ---------------------------------------------------------------------------
# Normal form over a completely explored LTS and exact comparison.


@dataclass
class NormalForm:
    """Action-deterministic graph over tau-closed state sets, each node
    carrying its minimal acceptance family (`_determinise`)."""

    root: frozenset
    families: dict = field(default_factory=dict)  # node -> family
    edges: dict = field(default_factory=dict)  # node -> tuple[(Action, node)], in action_key order

    def failures_to_depth(self, depth: int) -> FailureSet:
        """Failures of each trace of length <= depth."""
        families, edges = self.families, self.edges
        table = {(): families[self.root]}
        frontier = [((), self.root)]
        while frontier and len(frontier[0][0]) < depth:  # a level's traces have its length
            next_frontier = []
            for trace, node in frontier:
                for a, succ in edges[node]:
                    tr2 = trace + (a,)
                    table[tr2] = families[succ]
                    next_frontier.append((tr2, succ))
            frontier = next_frontier
        return FailureSet(table)


def normal_form(lts: LTS) -> NormalForm:
    """The normal form of a complete graph: every tau-closed node reached
    from the initial state, determinised once, with its moves tau-closed.
    Graphs are not shared (each `build_lts` call returns its own), so
    nothing is kept: a caller that asks again of a term keeps the answer
    it needs, as `failures_fingerprint` keeps the fingerprint."""
    if not lts.complete:
        raise ValueError("normal form requires a completely explored LTS")
    successors = lts.transitions.__getitem__  # every state of a complete graph has its entry
    root = tau_closure(successors, [lts.initial])
    families: dict = {}
    edges: dict = {}
    todo = [root]
    while todo:
        node = todo.pop()
        if node in families:  # pushed again before it was reached
            continue
        families[node], moves = _determinise(successors, node)
        out = []
        for a, dsts in moves:
            succ = tau_closure(successors, dsts)
            out.append((a, succ))
            if succ not in families:
                todo.append(succ)
        edges[node] = tuple(out)
    return NormalForm(root, families, edges)


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


def _read_action(key: tuple) -> Action:
    return frozenset(map(Label._make, key))


def _read_fingerprint(fp: tuple) -> NormalForm:
    """A fingerprint read as the normal form it numbers: node i is entry i,
    the root 0, its `action_key` tuples decoded back to label sets."""
    families, edges = {}, {}
    for i, (family, *moves) in enumerate(fp):
        families[i] = frozenset(frozenset(map(_read_action, acc)) for acc in family)
        edges[i] = tuple(zip(map(_read_action, moves[::2]), moves[1::2]))
    return NormalForm(0, families, edges)


# The decided answer that carries no witness, shared.
EQUAL = Verdict("equal")


def _compare_normal_forms(nf1: NormalForm, nf2: NormalForm) -> Verdict:
    """The one witness walk, on two graphs' normal forms or two fingerprints
    read as normal forms: pairs of nodes breadth first along equal actions
    in `action_key` order, each pair once, to the first whose families or
    moves differ.  Which pair that is depends on the failures alone."""
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
                return Verdict("distinguished", _witness(trace, f1, f2))
            edges1, edges2 = nf1.edges[n1], nf2.edges[n2]
            if [a for a, _ in edges1] != [a for a, _ in edges2]:
                e1, e2 = dict(edges1), dict(edges2)
                only = min(e1.keys() ^ e2.keys(), key=action_key)
                return Verdict("distinguished", _witness(
                    trace + (only,),
                    nf1.families[e1[only]] if only in e1 else None,
                    nf2.families[e2[only]] if only in e2 else None,
                ))
            for (a, succ1), (_, succ2) in zip(edges1, edges2):
                next_frontier.append((trace + (a,), succ1, succ2))
        frontier = next_frontier
    return EQUAL


# The trace length the bounded route compares to, unless a caller says.
BOUNDED_DEPTH = 6


def failures_equiv(
    p: Term,
    q: Term,
    budget: ExplorationBudget = ExplorationBudget(),
    depth: int = BOUNDED_DEPTH,
) -> Verdict:
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
) -> Verdict:
    """`failures_equiv`'s whole verdict, witness included, from the
    fingerprints the answer memo keeps: a term asked about again is not
    explored again while its answer is kept."""
    fp = failures_fingerprint(p, budget)
    fq = INCOMPLETE if fp is INCOMPLETE else failures_fingerprint(q, budget)
    if fq is INCOMPLETE:
        return _bounded_route(p, q, budget, depth)
    return EQUAL if fp == fq else _compare_normal_forms(_read_fingerprint(fp), _read_fingerprint(fq))


def _bounded_route(p: Term, q: Term, budget: ExplorationBudget, depth: int) -> Verdict:
    """Failures up to `depth` by brute force, for a pair with a partial
    graph: "distinguished" with a witness, or "unknown" with the reason."""
    return next(bounded_verdicts(p, (q,), budget, depth))


def bounded_verdicts(p: Term, qs, budget: ExplorationBudget, depth: int):
    """`_bounded_route(p, q, budget, depth)` for each q of `qs` in turn,
    as they are asked for, with `p`'s failures computed once: a term
    compared with several others by the bounded route is stepped once."""
    fp = None
    for q in qs:
        try:
            if fp is None:
                fp = failures_bounded(p, depth, budget)
            fq = failures_bounded(q, depth, budget)
        except BudgetExceeded as exc:
            yield Verdict("unknown", detail=f"budget exhausted: {exc}")
            continue
        diff = fp.first_difference(fq)
        if diff is not None:
            yield Verdict("distinguished", diff)
        else:
            yield Verdict("unknown", detail=f"bounded agreement to depth {depth}")


# ---------------------------------------------------------------------------
# Weak bisimulation by partition refinement on the saturated graph.


def _saturate(lts: LTS):
    """Weak moves per state of a complete graph: eps-closure and a ->
    eps-closed targets."""
    successors = lts.transitions.__getitem__
    tau_reach = {s: tau_closure(successors, (s,)) for s in lts.terms}
    weak: dict[Term, dict] = {s: {} for s in lts.terms}
    for s in lts.terms:
        for u in tau_reach[s]:
            for a, v in successors(u):
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
) -> Verdict:
    lts_p = build_lts(p, budget)
    if not lts_p.complete:
        return Verdict("unknown", detail=lts_p.limit)
    lts_q = build_lts(q, budget)
    if not lts_q.complete:
        return Verdict("unknown", detail=lts_q.limit)
    # An equal node behaves the same in both graphs; merge them.
    merged = LTS(initial=lts_p.initial)
    merged.terms = {**lts_p.terms, **lts_q.terms}
    merged.transitions = {**lts_p.transitions, **lts_q.transitions}
    tau_reach, weak = _saturate(merged)
    block = refine(
        merged.terms, dict.fromkeys(merged.terms, 0), lambda s, blk: _signature(s, tau_reach, weak, blk)
    )
    if block[lts_p.initial] == block[lts_q.initial]:
        return EQUAL
    diff = _signature(lts_p.initial, tau_reach, weak, block) ^ _signature(
        lts_q.initial, tau_reach, weak, block
    )
    return Verdict(
        "distinguished",
        {
            "reason": "weak bisimulation classes differ",
            "actions": sorted({"" if a == TAU else print_action(a) for a, _ in diff}),
        },
    )


# ---------------------------------------------------------------------------
# Orthogonality: the fully closed parallel composition converges.


def perp(
    p: Term, q: Term, budget: ExplorationBudget = ExplorationBudget()
) -> Verdict:
    """Orthogonality: "yes" when the closed composition cannot diverge,
    "no" when it can, else `diverges`' "unknown", which names the limit."""
    d = diverges(Restrict(Par(p, q), ALL_LABELS), budget)
    return NO if d.verdict == "yes" else YES if d.verdict == "no" else d

"""Labelled transition relation and state-space exploration.

The parallel rule generalizes binary synchronization: for component
transitions with actions d and e, every subset b of the matchable part
{lab in d | dual(lab) in e} yields a combined transition with action
(d - b) u (e - dual(b)), provided that union is disjoint.  b empty gives
the simultaneous performance of independent actions; full matching of a
singleton gives the classic tau synchronization.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Optional

from .names import action_key, dual_action, label_key, print_action
from .terms import (
    InputPrefix,
    OutputPrefix,
    Par,
    Prefix,
    Rec,
    Rename,
    Restrict,
    Sum,
    TAU,
    Term,
    Var,
    print_term,
    rename,
    restrict,
    substitute_var,
    term_depth,
)


class SemanticsError(Exception):
    pass


# States nested deeper than this are treated as budget exhaustion; see
# terms.term_depth.
DEPTH_CAP = 200


@dataclass(frozen=True)
class ExplorationBudget:
    max_states: int = 5000

    def __post_init__(self):
        if self.max_states < 1:
            raise ValueError("max_states must be at least 1")


def _subsets(items: tuple) -> Iterable[frozenset]:
    for k in range(len(items) + 1):
        for combo in combinations(items, k):
            yield frozenset(combo)


def step(t: Term, _depth: int = 0, _memo: Optional[dict] = None) -> set:
    """One-step transitions: a set of (action, successor term) pairs.

    `_memo` is an exploration's memo of the transitions of the nodes it
    has stepped, read and filled here, so a component that several states
    share is stepped once and the result set is shared: it must not be
    mutated.  It lives as long as that exploration only (see `build_lts`
    for why).  A node whose step raises is not remembered; prefixes and
    sums, read straight off the node, are not remembered either."""
    if _depth > 512:
        raise SemanticsError("recursion unfolding too deep; term is likely unguarded")
    if isinstance(t, Prefix):
        return {(t.action, t.cont)}
    if isinstance(t, Sum):
        return set(t.branches)
    if _memo is not None:
        out = _memo.get(t)
        if out is not None:
            return out
    if isinstance(t, Par):
        left = step(t.left, _depth, _memo)
        right = step(t.right, _depth, _memo)
        out = set()
        for a, p in left:
            out.add((a, Par(p, t.right)))
        for a, q in right:
            out.add((a, Par(t.left, q)))
        for d, p in left:
            for e, q in right:
                dual_e = dual_action(e)
                matchable = tuple(sorted(d & dual_e, key=label_key))
                for b in _subsets(matchable):
                    combined_l = d - b
                    combined_r = e - dual_action(b)
                    if combined_l & combined_r:
                        continue
                    out.add((combined_l | combined_r, Par(p, q)))
    elif isinstance(t, Restrict):
        out = set()
        for a, p in step(t.proc, _depth, _memo):
            if not t.labels.blocks(a):
                out.add((a, restrict(p, t.labels)))
    elif isinstance(t, Rename):
        out = set()
        for a, p in step(t.proc, _depth, _memo):
            out.add((t.ren.apply_action(a), rename(p, t.ren)))
    elif isinstance(t, Rec):
        out = step(substitute_var(t.body, t.var, t), _depth + 1, _memo)
    elif isinstance(t, Var):
        raise SemanticsError(f"cannot step open term with free variable {t.ident}")
    elif isinstance(t, (InputPrefix, OutputPrefix)):
        raise SemanticsError("value-passing prefix not expanded; apply expand_values first")
    else:
        raise TypeError(f"not a term: {t!r}")
    if _memo is not None:
        _memo[t] = out
    return out


@dataclass
class LTS:
    """Explored transition graph with canonical printed-form state keys.

    A graph returned by `build_lts` is shared: later calls on a term that
    prints the same, under the same state budget, return the same object,
    and `equivalence.normal_form` keeps its result on it.  It must not be
    mutated."""

    initial: str
    terms: dict = field(default_factory=dict)  # key -> Term
    transitions: dict = field(default_factory=dict)  # key -> tuple[(Action, key)]
    complete: bool = True
    normal_form: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def states(self) -> list:
        return sorted(self.terms)

    def successors(self, key: str):
        return self.transitions.get(key, ())

    def to_json(self) -> dict:
        states = self.states
        return {
            "states": states,
            "initial": self.initial,
            "complete": self.complete,
            "transitions": [
                [src, [str(l) for l in sorted(a, key=label_key)], dst]
                for src in states
                for a, dst in self.successors(src)
            ],
        }

    def to_dot(self) -> str:
        lines = ["digraph lts {"]
        lines.append(f'  "{_dot_escape(self.initial)}" [shape=doublecircle];')
        for src in self.states:
            for a, dst in self.successors(src):
                label = print_action(a) if a else "tau"
                lines.append(
                    f'  "{_dot_escape(src)}" -> "{_dot_escape(dst)}" [label="{_dot_escape(label)}"];'
                )
        lines.append("}")
        return "\n".join(lines)


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


# Bound on the states of all graphs `build_lts` keeps for reuse.  The
# semantic-type drivers re-decide a few hundred small representatives,
# which a few hundred states hold.  Kept graphs cost memory and make each
# garbage collection walk their terms, so the bound counts states, not
# graphs: a count of graphs would keep big ones alive.
MEMO_STATES = 500


class _GraphMemo:
    """Explored graphs by (printed term, state budget), least recently
    used first, holding at most MEMO_STATES states in total.  A graph
    larger than that is never kept."""

    def __init__(self):
        self.graphs: OrderedDict = OrderedDict()
        self.states = 0

    def get(self, key):
        lts = self.graphs.get(key)
        if lts is not None:
            self.graphs.move_to_end(key)
        return lts

    def put(self, key, lts: LTS):
        size = len(lts.terms)
        if size > MEMO_STATES:
            return
        self.graphs[key] = lts
        self.states += size
        while self.states > MEMO_STATES:
            _, old = self.graphs.popitem(last=False)
            self.states -= len(old.terms)

    def clear(self):
        self.graphs.clear()
        self.states = 0


_MEMO = _GraphMemo()


def build_lts(t: Term, budget: ExplorationBudget = ExplorationBudget()) -> LTS:
    """Breadth-first closure of `step`.  Deterministic: transitions are
    stored sorted by (action, target key).  When the state budget is hit
    the result carries complete=False and the frontier left unexpanded.

    The result is shared with every other call on a term that prints the
    same, under the same `max_states`, while it stays in the memo; it
    must not be mutated.

    While it runs, an exploration memoises the transitions and printed
    texts of the nodes it meets (`step`'s `_memo`, `print_term`'s
    `_texts`): a successor such as `Par(p, R)` re-uses what `R` gave in
    the state it came from.  Both memos go when the call returns.  Kept
    longer, they would hold every node the caller keeps alive, and the
    inputs of a large batch of queries hold many.
    """
    init_key = print_term(t)
    memo_key = (init_key, budget.max_states)
    lts = _MEMO.get(memo_key)
    if lts is not None:
        return lts
    steps: dict = {}
    texts = {t: init_key}
    lts = LTS(initial=init_key)
    lts.terms[init_key] = t
    frontier = [init_key]
    while frontier:
        next_frontier = []
        for key in frontier:
            if term_depth(lts.terms[key]) > DEPTH_CAP:
                lts.complete = False
                continue
            succs = []
            for a, p in step(lts.terms[key], 0, steps):
                dst = print_term(p, texts)
                if dst not in lts.terms:
                    if len(lts.terms) >= budget.max_states:
                        lts.complete = False
                        continue
                    lts.terms[dst] = p
                    next_frontier.append(dst)
                succs.append((a, dst))
            succs.sort(key=lambda s: (action_key(s[0]), s[1]))
            lts.transitions[key] = tuple(succs)
        frontier = next_frontier
    _MEMO.put(memo_key, lts)
    return lts


def exhausted_limit(lts: LTS, budget: ExplorationBudget) -> str:
    """Names the limit that left a partial `lts` unexpanded: the state
    budget when the graph filled it, else the depth cap."""
    if len(lts.terms) >= budget.max_states:
        return "state budget exhausted"
    return f"depth cap {DEPTH_CAP} reached"


def tau_closure(graph, keys) -> frozenset:
    """The states reachable from `keys` by tau moves alone, `keys`
    included.  `graph` is anything whose `successors(key)` gives
    (action, key) pairs; an exception raised there propagates."""
    seen = set(keys)
    stack = list(keys)
    while stack:
        key = stack.pop()
        for a, dst in graph.successors(key):
            if a == TAU and dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return frozenset(seen)


def tau_cycle_exists(lts: LTS) -> bool:
    """Cycle detection on the tau-subgraph of expanded states."""
    color: dict[str, int] = {}
    for start in lts.states:
        if color.get(start):
            continue
        stack = [(start, iter(lts.successors(start)))]
        color[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for a, nxt in it:
                if a != TAU:
                    continue
                c = color.get(nxt, 0)
                if c == 1:
                    return True
                if c == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(lts.successors(nxt))))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    return False


def diverges(t: Term, budget: ExplorationBudget = ExplorationBudget()) -> str:
    """Three-valued: "yes" when some reachable state starts an infinite
    tau-path, "no" when the full graph excludes it, "unknown" when the
    exploration budget was exhausted first.
    """
    lts = build_lts(t, budget)
    if tau_cycle_exists(lts):
        return "yes"
    if lts.complete:
        return "no"
    # unexpanded frontier states are reachable and their tau-futures unknown
    return "unknown"

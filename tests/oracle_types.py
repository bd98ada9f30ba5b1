"""Independent oracle for the typed layer: failures per trace, failures
equality, divergence, classification and totality, decided on graphs
that the naive one-step matcher (`oracle_step`) builds.

Like `oracle_step`, it shares no code with the engine it checks: it
imports only term constructors and names.  It decides finite graphs only.
A question whose graph outgrows STATES states, or whose failures table
outgrows TRACES traces, raises Undecided.
"""

from functools import lru_cache

from oracle_step import canonical, naive_step

from procreal.names import ALL_LABELS
from procreal.terms import Par, Restrict

# Past this many states a graph is not finite for the oracle.
STATES = 2000
# Past this many traces a failures table is too large to compare.
TRACES = 100_000


class Undecided(Exception):
    """The oracle cannot finish a question within STATES and TRACES."""


def _closure(successors, states) -> frozenset:
    """The states reached from `states` by tau moves."""
    seen, todo = set(states), list(states)
    while todo:
        for a, p in successors(todo.pop()):
            if not a and p not in seen:
                seen.add(p)
                todo.append(p)
    return frozenset(seen)


def reference_failures(t, depth):
    """Failures to `depth` by determinising each trace's tau-closed state
    set afresh over the naive one-step matcher, and the number of states
    that admits, counted as `failures_bounded` counts them: the root and
    every successor of a state it steps."""
    steps = {}

    def successors(s):
        if s not in steps:
            steps[s] = {(a, canonical(p)) for a, p in naive_step(s)}
        return steps[s]

    def closure(states):
        return _closure(successors, states)

    def family(node):
        offers = {
            frozenset(a for a, _ in successors(s)) for s in node
            if all(a for a, _ in successors(s))
        }
        return frozenset(x for x in offers if not any(y < x for y in offers))

    table = {}
    level = [((), closure({t}))]
    while level:
        next_level = []
        for trace, node in level:
            table[trace] = family(node)
            if len(table) > TRACES:
                raise Undecided(f"more than {TRACES} traces")
            if len(trace) < depth:
                for a in {a for s in node for a, _ in successors(s) if a}:
                    dsts = {p for s in node for b, p in successors(s) if b == a}
                    next_level.append((trace + (a,), closure(dsts)))
        level = next_level
    admitted = {t} | {p for succ in steps.values() for _, p in succ}
    return table, len(admitted)


@lru_cache(maxsize=4096)
def _reachable(t):
    """Each state reached from `t` with its (action, state) pairs, or None
    when there are more than STATES states."""
    out, todo = {}, [t]
    while todo:
        s = todo.pop()
        if s not in out:
            if len(out) == STATES:
                return None
            out[s] = {(a, canonical(p)) for a, p in naive_step(s)}
            todo.extend(p for _, p in out[s])
    return out


def graph(t) -> dict:
    """`t`'s graph, as `_reachable` gives it; raises Undecided when it has
    more than STATES states."""
    g = _reachable(t)
    if g is None:
        raise Undecided(f"more than {STATES} states")
    return g


def determinised_nodes(t) -> int:
    """The number of tau-closed state sets reached from `t` by the subset
    construction on its graph."""
    g = graph(t)

    def closure(states):
        return _closure(g.__getitem__, states)

    root = closure({t})
    seen, todo = {root}, [root]
    while todo:
        node = todo.pop()
        for a in {a for s in node for a, _ in g[s] if a}:
            succ = closure({p for s in node for b, p in g[s] if b == a})
            if succ not in seen:
                seen.add(succ)
                todo.append(succ)
    return len(seen)


@lru_cache(maxsize=4096)
def failures_equal(p, q) -> bool:
    """Whether `p` and `q` have the same failures: the same per-trace
    tables to depth n1 + n2, where n1 and n2 are their determinised node
    counts.  Two deterministic graphs of n1 and n2 nodes that differ
    differ on a trace shorter than that."""
    depth = determinised_nodes(p) + determinised_nodes(q)
    return reference_failures(p, depth)[0] == reference_failures(q, depth)[0]


@lru_cache(maxsize=4096)
def diverges(t) -> bool:
    """Whether a tau cycle is reachable from `t`: states with no tau move
    into the remaining states are peeled off until none is left to peel,
    and what remains lies on or leads to such a cycle."""
    remaining = {s: {p for a, p in succ if not a} for s, succ in graph(t).items()}
    while True:
        done = [s for s, dsts in remaining.items() if remaining.keys().isdisjoint(dsts)]
        if not done:
            return bool(remaining)
        for s in done:
            del remaining[s]


def classify(term, per):
    """The index of the first class of `per` whose representative has
    `term`'s failures, or None."""
    for i, cls in enumerate(per.classes):
        if failures_equal(term, cls[0]):
            return i
    return None


def total(t):
    """The first pair of a positive and a negative representative of the
    type `t`, in class order, whose closed composition diverges, or None
    when every pair converges."""
    for p in (cls[0] for cls in t.pos.classes):
        for n in (cls[0] for cls in t.neg.classes):
            if diverges(Restrict(Par(p, n), ALL_LABELS)):
                return p, n
    return None

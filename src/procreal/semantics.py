"""Labelled transition relation and state-space exploration.

The parallel rule generalizes binary synchronization: for component
transitions with actions d and e, every subset b of the matchable part
{lab in d | dual(lab) in e} yields a combined transition with action
(d - b) u (e - dual(b)), provided that union is disjoint.  b empty gives
the simultaneous performance of independent actions; full matching of a
singleton gives the classic tau synchronization.

Every hidden-interface combinator (`seq`, `lapp`, `rapp`, and the closed
composition of `perp`) puts the parallel rule directly under a
restriction, which blocks most of what the rule could build.  So `step`
combines the components' transitions under the restriction in one pass
(`_par_step`), as FDR3's supercombinators build a node's transitions
from its components' (Gibson-Robinson, Armstrong, Boulgakov and Roscoe,
TACAS 2014): a blocked interleaving is never built, and a synchronisation
enumerates only the subsets b that leave no blocked label.  A move meets
only the moves it can fuse with: the right moves are grouped once by the
blocked part a left move needs to meet them, as a synchronous product
pairs only the actions its components share (Milner, TCS 1983).  The
pairs and their order are those of building everything and filtering
afterwards.  `step` itself dispatches once on the node's type, and reads
a prefix or sum component in place.

An exploration is bounded by an `ExplorationBudget`: the states it
admits, and the successors `step` builds for it.  One state can have
exponentially many successors, so without the second limit the first
does not bound memory.  A partial graph records the limit that stopped
it (`LTS.limit`).

`_MEMO` keeps what explorations found, in two tiers, each least recently
used first and bounded by a module constant.  Graphs are not kept: each
`build_lts` call explores afresh, and returns a graph of its own.  The
answer tier keeps up to ANSWERS answers: what callers asked of a term's
graph (a `diverges` verdict, a failures fingerprint), keyed by term and
state budget, and what the semantic-type checks built from such answers
(`semtypes.formula_to_type`'s types, keyed by formula, atom types, state
budget, value domain and fuel, and `semtypes.list_type_example`'s, keyed
by element type and length); an answer holds no graph.  The step tier keeps
what `step` found for a node, up to STEP_SUCCESSORS successors, so a
node that many explorations meet has its transitions built once, as FDR3
builds a node's transitions once from its components'.  An exploration
that finds a node there still steps its components and counts their
successors as a fresh step would, so no graph, limit or error depends on
what ran before.  Only `build_lts` reads and fills it:
`equivalence.failures_bounded` stays a route of its own.  Each tier
counts its hits, misses and evictions, and `_MEMO.clear()` empties all.
Most explorations are a few states, so their cost is what each node pays
for this bookkeeping: `step` reads the exploration's memo and the step
tier, counts, and remembers in its own body, with one call of the tier's
put on a miss.

`tau_closure` is the engine's one tau-closure, over any successor lookup
(a graph's table, or the transitions the bounded failures route has
stepped).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, KeysView, Optional

from .names import RestrictionSet, action_key, dual_action, print_action
from .terms import (
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


class BudgetExceeded(Exception):
    """An exploration outran one of its limits before it could answer."""


# States nested deeper than this are treated as budget exhaustion; see
# terms.term_depth.
DEPTH_CAP = 200

# The successors one exploration may build per state it may admit (see
# ExplorationBudget.max_transitions), so raising the state budget raises
# both limits.  Over full benchmark runs (all three workloads, seeds
# 101-110) no exploration built more than 939 successors, under state
# budgets of 2,000 and more; no test builds more than 161 per state of its
# budget.  Twelve independent prefixes on distinct names (4,096 states)
# need 193 per state, counting the successors of the components.  At the
# default 5,000 states the bound is a million successors: the
# seq(bang(w), w) probe of the tests reaches it in 22 s at 800 MB resident.
TRANSITIONS_PER_STATE = 200


@dataclass(frozen=True)
class ExplorationBudget:
    """The limits of one exploration: the states it admits, and the
    successors `step` builds for it, counted over every node it memoises
    (components included).  One state can have exponentially many
    successors, so the state budget alone does not bound the work or the
    memory of an exploration."""

    max_states: int = 5000

    def __post_init__(self):
        if self.max_states < 1:
            raise ValueError("max_states must be at least 1")

    @property
    def max_transitions(self) -> int:
        return self.max_states * TRANSITIONS_PER_STATE


# Whether each verdict word answers its question yes (True) or no
# (False); "unknown" leaves it undecided (None).
VERDICT_OK = {
    "equal": True, "distinguished": False,  # equivalence.failures_equiv, weak_bisim
    "class": True,  # semtypes.classify; "no" places the term in no class
    "morphism": True,  # semtypes.is_morphism
    "yes": True, "no": False,  # diverges, equivalence.perp, semtypes.total
    "pass": True, "fail": False,  # extraction.verify_cut_soundness
    "unknown": None,
}


@dataclass(frozen=True, slots=True)
class Verdict:
    """The answer to one question: its own word (`verdict`, a key of
    VERDICT_OK), what decided it (`witness`: a class, a `Morphism`, a
    failures witness, a printed pair, a reason) and why it is undecided
    (`detail`, required for "unknown").  Frozen, so one answer can be
    kept and handed to every caller that asks again."""

    verdict: str
    witness: object = None
    detail: str = ""

    def __post_init__(self):
        if self.verdict == "unknown" and not self.detail:
            raise ValueError('an "unknown" verdict needs a detail')

    @property
    def ok(self) -> Optional[bool]:
        return VERDICT_OK[self.verdict]

    @property
    def index(self) -> Optional[int]:
        """The class of a "class" answer, else None."""
        return self.witness if self.verdict == "class" else None


YES = Verdict("yes")
NO = Verdict("no")


def _subsets(items: tuple) -> Iterable[frozenset]:
    for k in range(len(items) + 1):
        for combo in combinations(items, k):
            yield frozenset(combo)


class StepMemo(dict):
    """An exploration's memo for `step`: the transitions of each node it
    has stepped, by node, and the number of successors those hold
    (`built`), which must stay within `limit`.  `step` counts a node's
    successors and then remembers the node, in its own body; whatever
    else the exploration counts against the limit goes through `spend`.
    `tier` is the step tier of `_MEMO` when the exploration may read and
    fill it (`build_lts`), else None."""

    __slots__ = ("built", "limit", "tier")

    def __init__(self, limit: int, tier: Optional["_Tier"] = None):
        self.built = 0
        self.limit = limit
        self.tier = tier

    def spend(self, count: int):
        """Counts `count` more against the limit; past it, raises
        BudgetExceeded."""
        self.built += count
        if self.built > self.limit:
            raise BudgetExceeded(f"transition budget {self.limit} exhausted")


def step(t: Term, _depth: int = 0, _memo: Optional[StepMemo] = None) -> KeysView:
    """One-step transitions: the (action, successor term) pairs, as the
    keys of a dict (they compare with a set as a set), in rule order: a
    sum's branches; a parallel's left moves, right moves, then
    synchronisations.  The order depends on the term alone, so an
    exploration that fills its budget admits the same states whatever the
    hash seed.

    A restriction of a parallel is stepped by `_par_step` in one pass,
    which builds only the successors the restriction keeps, in the order
    that filtering all of them would leave.  The step dispatches once on
    `type(t)`, and reads the prefix or sum components of a parallel, a
    restricted parallel or a renaming in place.

    `_memo` is an exploration's memo of the transitions of the nodes it
    has stepped, read and filled here, so a component that several states
    share is stepped once and the result is shared: it must not be
    mutated.  It lives as long as that exploration only, and it counts the
    successors it holds: past its limit the step raises BudgetExceeded.
    A node whose step raises is not remembered; prefixes and sums, read
    straight off the node, are not remembered either.  The memo protocol
    is written out here rather than called: a node's successors are
    counted (as `StepMemo.spend` counts) and only then is the node
    remembered, so a node past the limit is not.

    When the memo has a `tier` (the step tier of `_MEMO`), a node the
    exploration has not stepped yet is looked up there, counted as a hit
    or a miss as `_Tier.get` counts it, and a node it steps afresh is
    kept there (`_Tier.put`) before its successors are counted: its
    pairs, or a recursion's unfolding.
    A node found there is still walked as a fresh step would walk it:
    its components are stepped, and counted if this exploration has not
    counted them yet, in the same order and at the same unfolding depth,
    and only the combination is skipped.  So the successors counted, the
    place a limit fires and the unguarded-recursion check are the same,
    whatever earlier explorations kept."""
    if _depth > 512:
        raise SemanticsError("recursion unfolding too deep; term is likely unguarded")
    kind = type(t)
    if kind is Prefix:
        return {(t.action, t.cont): None}.keys()
    if kind is Sum:
        return dict.fromkeys(t.branches).keys()
    known = tier = None
    if _memo is not None:
        out = _memo.get(t)
        if out is not None:
            return out
        tier = _memo.tier
        if tier is not None:
            known = _tier_lookup(tier, t)  # `_Tier.get`, written out
            if known is None:
                tier.misses += 1
            else:
                tier.hits += 1
                tier.move_to_end(t)
    # A prefix or sum component is read in place below, as the two lines
    # above read it: a leaf has no memo or tier entry, and this call has
    # already checked the unfolding depth.
    if kind is Par or kind is Restrict and type(t.proc) is Par:
        par, labels = (t, None) if kind is Par else (t.proc, t.labels)
        u = par.left
        left = (
            {(u.action, u.cont): None}.keys() if type(u) is Prefix
            else dict.fromkeys(u.branches).keys() if type(u) is Sum
            else step(u, _depth, _memo)
        )
        u = par.right
        right = (
            {(u.action, u.cont): None}.keys() if type(u) is Prefix
            else dict.fromkeys(u.branches).keys() if type(u) is Sum
            else step(u, _depth, _memo)
        )
        out = _par_step(par, labels, left, right) if known is None else known
    elif kind is Restrict:
        labels = t.labels
        inner = step(t.proc, _depth, _memo)
        out = known if known is not None else dict.fromkeys(
            [(a, restrict(p, labels)) for a, p in inner if not labels.blocks(a)]
        ).keys()
    elif kind is Rename:
        u = t.proc
        inner = (
            {(u.action, u.cont): None}.keys() if type(u) is Prefix
            else dict.fromkeys(u.branches).keys() if type(u) is Sum
            else step(u, _depth, _memo)
        )
        if known is None:
            ren = t.ren
            images = ren._memo  # what `apply_action` has answered, by action
            out = dict.fromkeys(
                [(images.get(a) or ren.apply_action(a), rename(p, ren)) for a, p in inner]
            ).keys()
        else:
            out = known
    elif kind is Rec:
        unfolded = substitute_var(t.body, t.var, t) if known is None else known
        out = step(unfolded, _depth + 1, _memo)
        if _memo is not None:
            if known is None and tier is not None:
                tier.put(t, unfolded)
            _memo[t] = out  # the unfolding's successors, counted once
        return out
    elif kind is Var:
        raise SemanticsError(f"cannot step open term with free variable {t.ident}")
    else:
        raise TypeError(f"not a term: {t!r}")
    if _memo is not None:
        if known is None and tier is not None:
            tier.put(t, out)
        # `spend`, then remembered: a node past the limit is not
        built = _memo.built = _memo.built + len(out)
        if built > _memo.limit:
            raise BudgetExceeded(f"transition budget {_memo.limit} exhausted")
        _memo[t] = out
    return out


def _par_step(t: Par, labels: Optional[RestrictionSet], left: KeysView, right: KeysView) -> KeysView:
    """The parallel rule on `t`, whose components step to `left` and
    `right`; under the restriction `labels` when it is not None, in the
    same pass.  Then an action survives only if none of its labels is
    blocked (`RestrictionSet.blocks`).  An interleaving whose action is
    blocked is not built.  A synchronisation of d with e leaves
    (d - b) u (e - dual(b)), so it survives only if b holds every blocked
    label Bd of d and dual(b) every blocked label Be of e: that needs
    Bd == dual(Be), and then b is Bd u s for a subset s of the unblocked
    matchable labels.  So the right moves are grouped once by dual(Be),
    each group in right-move order, and a left move meets only the group
    of its Bd.  When no unblocked label matches, b is Bd alone, built
    directly; else enumerating s in `_subsets` order gives those b in the
    order of the full enumeration, since adding Bd to subsets of one size
    keeps their order.  So the pairs and their order are those of testing
    every left move against every right move.  A survivor is built as
    `Restrict(Par(p, q), labels)`, what `restrict` makes of it after the
    fact.  `labels` is pushed one level only: the blocked labels of an
    inner parallel may still be matched by its sibling."""
    blocked = {} if labels is None else _blocked_parts(labels, left, right)
    pairs = {}
    for a, p in left:
        if a not in blocked:
            succ = Par(p, t.right)
            pairs[a, succ if labels is None else Restrict(succ, labels)] = None
    for a, q in right:
        if a not in blocked:
            succ = Par(t.left, q)
            pairs[a, succ if labels is None else Restrict(succ, labels)] = None
    if not left:
        return pairs.keys()
    # the right moves by dual(Be), the blocked part a left move must have
    # to meet them, each with dual(e) and e - Be, its part left when b is Bd
    groups: dict = {}
    for e, q in right:
        be = blocked.get(e, TAU)
        groups.setdefault(dual_action(be), []).append((e, q, dual_action(e), e - be))
    for d, p in left:
        bd = blocked.get(d, TAU)
        group = groups.get(bd)
        if group is None:
            continue
        rest_d = d - bd
        for e, q, dual_e, rest_e in group:
            free = (d & dual_e) - bd
            if not free:
                if not rest_d & rest_e:
                    succ = Par(p, q)
                    pairs[rest_d | rest_e, succ if labels is None else Restrict(succ, labels)] = None
                continue
            succ = None
            for s in _subsets(tuple(sorted(free))):
                b = bd | s
                combined_l = d - b
                combined_r = e - dual_action(b)
                if combined_l & combined_r:
                    continue
                if succ is None:
                    succ = Par(p, q)
                    if labels is not None:
                        succ = Restrict(succ, labels)
                pairs[combined_l | combined_r, succ] = None
    return pairs.keys()


def _blocked_parts(labels: RestrictionSet, *steps) -> dict:
    """Each action of `steps` that `labels` blocks -> its labels that
    `labels` blocks (`RestrictionSet.blocks`)."""
    return {a: part for pairs in steps for a, _ in pairs if (part := labels.blocks(a))}


@dataclass
class LTS:
    """Explored transition graph whose states are term nodes.  No
    structure has two live nodes, so a node is its own state key, compared
    by identity; states are printed only when the graph is exported.
    Each `build_lts` call returns a graph of its own, shared with no
    other call."""

    initial: Term
    terms: dict = field(default_factory=dict)  # state -> None, in the order admitted
    transitions: dict = field(default_factory=dict)  # state -> tuple[(Action, state)]
    # The limit that left the graph partial, "" when complete: "state
    # budget exhausted", "transition budget exhausted" or "depth cap 200
    # reached" (DEPTH_CAP).  When both the state budget and the depth cap
    # refused states, the state budget is named.
    limit: str = ""

    @property
    def complete(self) -> bool:
        return not self.limit

    def successors(self, state: Term):
        return self.transitions.get(state, ())

    def _printed(self) -> tuple:
        """Every state's printed key, and the edges as sorted (source key,
        action key, target key, action) tuples.  Distinct nodes can print
        the same (a one-branch sum and a prefix), and are then exported as
        one state."""
        keys = {s: print_term(s) for s in self.terms}
        return keys, sorted({
            (keys[src], action_key(a), keys[dst], a)
            for src, succs in self.transitions.items()
            for a, dst in succs
        })

    def to_json(self) -> dict:
        keys, edges = self._printed()
        return {
            "states": sorted(set(keys.values())),
            "initial": keys[self.initial],
            "complete": self.complete,
            "transitions": [
                [src, [str(l) for l in sorted(a)], dst] for src, _, dst, a in edges
            ],
        }

    def to_dot(self) -> str:
        keys, edges = self._printed()
        lines = ["digraph lts {"]
        lines.append(f'  "{_dot_escape(keys[self.initial])}" [shape=doublecircle];')
        for src, _, dst, a in edges:
            label = print_action(a) if a else "tau"
            lines.append(
                f'  "{_dot_escape(src)}" -> "{_dot_escape(dst)}" [label="{_dot_escape(label)}"];'
            )
        lines.append("}")
        return "\n".join(lines)


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


# Bound on the answers `_MEMO` keeps, by entry.  An answer holds no graph,
# only a fingerprint, a verdict or a semantic type (its representatives):
# the 2,678 queries of a `--seconds 20` `semtypes` run (seed 101) keep
# 1,320 and evict none: the fingerprints of 698 classified terms, the
# verdicts of 391 closed `perp` compositions, 228 formula types and 3
# list types.  The graphs behind them hold thousands of states.
ANSWERS = 2048


# Bound on the step tier of `_MEMO`, in successors: an entry weighs the
# pairs it holds, and one with none weighs 1.  Steps repeat across
# explorations, but what the tier keeps are fresh nodes, about 350 to 500
# bytes per successor with their containers.  Over the first 3,000 `laws`,
# 2,678 `semtypes` and all `oracle` queries of seed 101, a tier with no
# bound answered 54%, 71% and 67% of its lookups, at 20% to 30% more peak
# memory than the engine had before the tier; at this bound it answers
# 50%, 63% and 61%, at no more than 4% more.  At 4,000 it answered 51%,
# 67% and 65%, but `semtypes` peaked 8% higher in the benchmark.
STEP_SUCCESSORS = 2000


class _Tier(OrderedDict):
    """A map, least recently used first, whose values weigh at most
    `bound()` in all (`weigh`); a value heavier than the bound alone is
    never kept.  The bound is read at each `put`, so it follows its module
    constant.  The tier counts its hits, misses and evictions; `clear`
    empties it and resets them."""

    # slots, not an instance dict: `step` counts a hit or a miss here for
    # nearly every node it meets
    __slots__ = ("bound", "weigh", "weight", "hits", "misses", "evictions")

    def __init__(self, bound: Callable[[], int], weigh: Callable[[object], int]):
        super().__init__()
        self.bound = bound
        self.weigh = weigh
        self.clear()

    def get(self, key):
        found = OrderedDict.get(self, key)
        if found is None:
            self.misses += 1
        else:
            self.hits += 1
            self.move_to_end(key)
        return found

    def put(self, key, value):
        """Keeps `value` (not None) under `key`, replacing the value and
        weight the tier holds there (two threads that miss on one key both
        put it), and returns it."""
        weigh = self.weigh
        old = self.pop(key, None)
        if old is not None:
            self.weight -= weigh(old)
        size = weigh(value)
        bound = self.bound()
        if size > bound:
            return value
        self[key] = value
        self.weight += size
        while self.weight > bound:
            self.weight -= weigh(self.popitem(last=False)[1])
            self.evictions += 1
        return value

    def clear(self):
        super().clear()
        self.weight = self.hits = self.misses = self.evictions = 0


# `_Tier.get` without its counters, for `step`, which counts in place
_tier_lookup = OrderedDict.get


def _step_weight(kept) -> int:
    """A step-tier entry's weight: its pairs, or 1 for an unfolding."""
    return 1 if isinstance(kept, Term) else len(kept) or 1


class _GraphMemo:
    """Two tiers (`_Tier`) and a table.  `answers` holds at most ANSWERS
    answers by (question, subject, state budget, ...): a term's `diverges`
    verdict or failures fingerprint, a formula's or a list's semantic
    type.  `shared` holds the one kept copy of each fingerprint and of
    each of its families and edge tuples (`share`).  `steps` holds, by
    node, what `step` found for it (its pairs, or a recursion's
    unfolding), up to STEP_SUCCESSORS successors; only `build_lts` reads
    and fills it.  `clear` empties them all."""

    def __init__(self):
        self.answers = _Tier(lambda: ANSWERS, lambda answer: 1)
        self.steps = _Tier(lambda: STEP_SUCCESSORS, _step_weight)
        self.shared: dict = {}

    def share(self, value):
        """The kept copy of a value equal to `value`, so that equal answers,
        and equal parts of them, are one object.  Past 4 * ANSWERS copies
        (the 2,678 queries of a `--seconds 20` `semtypes` run, seed 101,
        make 874; 9,600 `laws` queries make 122) they are all forgotten,
        not freed: the answers that hold them keep them.  Written out, not
        an `lru_cache`: the bound is read at each call, so it follows
        ANSWERS, which tests patch."""
        if len(self.shared) >= 4 * ANSWERS:
            self.shared.clear()
        return self.shared.setdefault(value, value)

    def clear(self):
        self.answers.clear()
        self.steps.clear()
        self.shared.clear()


_MEMO = _GraphMemo()


def build_lts(t: Term, budget: ExplorationBudget = ExplorationBudget()) -> LTS:
    """Breadth-first closure of `step`, printing nothing.  Deterministic:
    states are admitted, and each state's transitions stored, in `step`'s
    order.  When a limit is hit the result is partial (complete=False),
    and its `limit` names the limit: the state budget or the depth cap
    leave the frontier they refuse unexpanded, and the transition budget
    ends the exploration where it is.

    Every call explores afresh and returns a graph of its own; what
    outlives it is what callers keep of it in the answer tier (a
    `diverges` verdict, a failures fingerprint).

    While it runs, an exploration memoises the transitions of the nodes
    it meets (`step`'s `_memo`): a successor such as `Par(p, R)` re-uses
    what `R` gave in the state it came from.  That memo goes when the call
    returns: kept longer, it would hold every node the caller keeps alive,
    and the inputs of a large batch of queries hold many.  What outlives
    it is the bounded step tier of `_MEMO`, which `step` reads and fills
    for the exploration without changing what it counts.
    """
    steps = StepMemo(budget.max_transitions, _MEMO.steps)
    max_states = budget.max_states
    terms = {t: None}
    transitions = {}
    lts = LTS(t, terms, transitions)
    frontier = [t]
    full = capped = False
    try:
        while frontier:
            next_frontier = []
            for u in frontier:
                if term_depth(u) > DEPTH_CAP:
                    capped = True
                    continue
                pairs = step(u, 0, steps)
                refused = False
                for _, p in pairs:
                    if p not in terms:
                        if len(terms) >= max_states:
                            refused = full = True
                            continue
                        terms[p] = None
                        next_frontier.append(p)
                # a refused state is never admitted later: the graph only grows
                transitions[u] = tuple([pair for pair in pairs if pair[1] in terms] if refused else pairs)
            frontier = next_frontier
    except BudgetExceeded:
        lts.limit = "transition budget exhausted"
    else:
        if full:
            lts.limit = "state budget exhausted"
        elif capped:
            lts.limit = f"depth cap {DEPTH_CAP} reached"
    return lts


def tau_closure(successors: Callable, keys) -> frozenset:
    """The states reachable from `keys` by tau moves alone, `keys`
    included.  `successors(key)` gives a key's (action, key) pairs; an
    exception raised there propagates.  The walk is depth first from the
    last key, so the order of the `successors` calls is fixed by the
    order of `keys`.  The set of states met is made only when a tau move
    is met: most closures have none."""
    seen = None
    stack = list(keys)
    while stack:
        for a, dst in successors(stack.pop()):
            if not a:  # TAU
                if seen is None:
                    seen = set(keys)
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
    return frozenset(keys if seen is None else seen)


def tau_cycle_exists(lts: LTS) -> bool:
    """Cycle detection on the tau-subgraph of expanded states."""
    color: dict[Term, int] = {}
    for start in lts.terms:
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


def diverges(t: Term, budget: ExplorationBudget = ExplorationBudget()) -> Verdict:
    """Three-valued: "yes" when some reachable state starts an infinite
    tau-path, "no" when the full graph excludes it, "unknown" when the
    exploration budget was exhausted first, with the limit that stopped
    it (`LTS.limit`) as the detail.  The verdict is kept in the memo's
    answer tier, so the term is explored once while it stays.
    """
    key = ("diverges", t, budget.max_states)
    verdict = _MEMO.answers.get(key)
    if verdict is None:
        lts = build_lts(t, budget)
        if tau_cycle_exists(lts):
            verdict = YES
        elif lts.complete:
            verdict = NO
        else:
            # unexpanded frontier states are reachable and their
            # tau-futures unknown
            verdict = Verdict("unknown", detail=lts.limit)
        _MEMO.answers.put(key, verdict)
    return verdict

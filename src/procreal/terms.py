"""Guarded process terms: AST, canonical printing, substitution,
well-formedness, syntactic sorts and the names of passed values.

Terms are immutable and hash-consed: constructing a node returns the
live node with the same fields, when there is one (`_node`), so no
structure has two live nodes and identity is equality.  A node's
children are the fields its class annotates `Term` (its `_kids`), or a
sum's branch continuations; a walk that treats most kinds alike reads
them through `subterms` or `map_subterms`.  A node compares and hashes
as the object it is, so the memo tiers, graphs and closures keyed by
nodes do so without a Python call.  Each node keeps one value computed
once, when it is built, from its children's: its constructor depth
(`term_depth`).  So a node is the state key of the transition engine:
explorations hash and compare nodes and print nothing.  The canonical
printed form is made only where text leaves the program (graph exports,
witnesses, reports), and it is deterministic: actions print their labels
sorted, sums print their branches in construction order.  Nothing
printed or compared follows the order of a set of nodes, which is the
order of their addresses.

Transitions are not kept on nodes.  An exploration memoises them by node
for as long as it runs (`semantics.step`'s `_memo`), so a subtree shared
by many states is stepped once, and the step tier of `semantics._MEMO`
keeps the most recently stepped nodes' across explorations, within a
bound.  Kept on the nodes, they would live as long as the inputs that
hold the nodes.

A term's sort (`sort_labels`) is a syntactic bound on the labels it can
ever perform: a frozenset of labels, or None when no finite bound is
known (a renaming over a recursion variable, or a renaming that leaves
its domain).  A restriction drops the labels its set blocks
(`RestrictionSet.blocks`, both polarities).

Value passing is notation that the parser reads away into sums and
prefixes on the names `value_name` makes: no node kind holds a value.
"""

from __future__ import annotations

import threading
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass
from typing import Optional

from .names import (
    Action,
    IDENT,
    Name,
    REGISTRY,
    Renaming,
    RestrictionSet,
    TAU,
    compose_renamings,
    kept,
    print_action,
    print_name,
    union_restriction,
)


class Term:
    __slots__ = ()

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, which returns
        # the live node with these fields if there is one: restoring the
        # slots would go through the frozen __setattr__ and make a second
        # node of one structure
        return type(self), tuple([getattr(self, n) for n in self.__match_args__])


class _Ref(weakref.ref):
    """A table entry: a weak reference to a node that holds the node's key
    in its table, the node's field tuple.  Each node class has its own
    subclass, whose class attribute `table` is the class's table."""

    __slots__ = ("key",)


# Guards every entry made in the tables, so that no structure ever has
# two live nodes, even when threads build it at once.  Reentrant, so that
# nothing a build sets off (a collection, say) can block the thread that
# holds it.  Death callbacks do not take it (`_drop`).
_LOCK = threading.RLock()


def _drop(ref, remove=_remove_dead_weakref):
    # the one death callback of every table: forget a dead node's entry,
    # unless a node built since has taken it.  One C call, atomic under
    # the interpreter lock, deletes the key only while its entry is a dead
    # reference, so it takes no lock (`weakref.WeakValueDictionary` relies
    # on the same call).  It is a default argument, since module globals
    # are gone at interpreter shutdown.
    remove(ref.table, ref.key)


# Each node class's table: from field tuple to the entry of the live node
# with those fields.
_TABLES: dict = {}


def _node(cls):
    """A frozen dataclass with one construction path, through the table of
    its class: constructing returns the live node with the requested
    fields, and builds one only when none is alive.  So no structure has
    two live nodes, and identity is equality: `==` and `hash` are the
    object defaults, and every dictionary or set keyed by nodes compares
    them without a Python call.  Parsing a text twice, rebuilding a term
    with `map_subterms`, a pickle or copy round trip and
    `dataclasses.replace` all meet the node already built.  This is
    Filliâtre and Conchon's *Type-safe modular hash-consing* (2006),
    without integer ids.

    The table is keyed by the node's field tuple, in which the children
    are live nodes and so compare by identity: a hit is one dictionary
    lookup.  The table holds each node weakly, by a `_Ref`, and one shared
    callback (`_drop`) removes a dead node's entry: nothing is kept alive
    by having been built.  A hit takes no lock, and neither does a death;
    a miss builds and enters its node under `_LOCK`, after looking again,
    so that two threads building one structure get one node.

    A node's children are the fields its class annotates `Term`, kept in
    field order as the class's `_kids`; a sum's, its branch continuations,
    are what its `_below` reads.  A new node gets `_depth`, one more than
    its deepest child's (`term_depth`) or 1 with no child, computed once
    from the children's slots (a test checks that `term_depth` agrees with
    a level count over `subterms`).  The slots are set through their own
    setters: the frozen dataclass refuses plain assignment.

    A field annotated `Renaming` or `RestrictionSet` is set to the kept
    instance of its map (`names.kept`), so equal nodes hold one map
    object; only a new node looks it up."""
    names = tuple(cls.__annotations__)
    cls._kids = tuple(n for n in names if cls.__annotations__[n] == "Term")
    # the depth below the node: what `_below` returns, or the children's
    # slots read inline, which saves a Python call per new node
    if "_below" in cls.__dict__:
        below = "_below(node)"
    else:
        depths = [f"{n}._depth" for n in cls._kids]
        below = ("0", "{0}", "({0} if {0} > {1} else {1})")[len(depths)].format(*depths)
    table = _TABLES[cls] = {}
    ref = type(f"_{cls.__name__}Ref", (_Ref,), {"__slots__": (), "table": table})
    env = {
        "get": table.get, "table": table, "new": object.__new__, "Ref": ref,
        "drop": _drop, "_below": cls.__dict__.get("_below"), "kept": kept, "lock": _LOCK,
    }
    for n in names + ("_depth",):
        env[f"set_{n}"] = cls.__dict__[n].__set__
    args = ", ".join(names)
    key = f"({args},)"
    maps = [n for n, a in cls.__annotations__.items() if a in ("Renaming", "RestrictionSet")]
    # written out per class, so that its parameters are the field names
    # (keyword construction, which `dataclasses.replace` uses, needs them)
    # and no call binds arguments generically
    source = (
        f"def __new__(cls, {args}):\n"
        f"    key = {key}\n"
        "    entry = get(key)\n"
        "    if entry is not None:\n"
        "        node = entry()\n"
        "        if node is not None:\n"
        "            return node\n"
        "    with lock:\n"
        "        entry = get(key)\n"
        "        if entry is not None:\n"
        "            node = entry()\n"
        "            if node is not None:\n"
        "                return node\n"
        + "".join(f"        {n} = kept({n})\n" for n in maps)
        + (f"        key = {key}\n" if maps else "")
        + "        node = new(cls)\n"
        + "".join(f"        set_{n}(node, {n})\n" for n in names)
        + f"        set__depth(node, {below} + 1)\n"
        "        entry = Ref(node, drop)\n"
        "        entry.key = key\n"
        "        table[key] = entry\n"
        "    return node\n"
    )
    exec(source, env)
    cls.__new__ = staticmethod(env["__new__"])
    return dataclass(frozen=True, eq=False, init=False)(cls)


@_node
class Prefix(Term):
    __slots__ = ("action", "cont", "_depth", "__weakref__")
    action: Action
    cont: Term


@_node
class Sum(Term):
    __slots__ = ("branches", "_depth", "__weakref__")
    branches: tuple  # tuple[tuple[Action, Term], ...]

    def _below(self):
        return max([p._depth for _, p in self.branches], default=0)


@_node
class Par(Term):
    __slots__ = ("left", "right", "_depth", "__weakref__")
    left: Term
    right: Term


@_node
class Restrict(Term):
    __slots__ = ("proc", "labels", "_depth", "__weakref__")
    proc: Term
    labels: RestrictionSet


@_node
class Rename(Term):
    __slots__ = ("proc", "ren", "_depth", "__weakref__")
    proc: Term
    ren: Renaming


@_node
class Var(Term):
    __slots__ = ("ident", "_depth", "__weakref__")
    ident: str


@_node
class Rec(Term):
    __slots__ = ("var", "body", "_depth", "__weakref__")
    var: str
    body: Term


NIL: Term = Sum(())


def choice(branches: tuple) -> Term:
    """The sum of `branches`, a tuple of (action, continuation) pairs.  A
    single branch is built as a prefix, the node that the parser builds
    from the same text, so a graph never holds both as two states."""
    if len(branches) == 1:
        ((action, cont),) = branches
        return Prefix(action, cont)
    return Sum(branches)


def rename(proc: Term, ren: Renaming) -> Term:
    """Renaming constructor that fuses nested renamings and drops
    identities, keeping unfolded state keys canonical."""
    if isinstance(proc, Rename):
        return rename(proc.proc, compose_renamings(ren, proc.ren))
    if ren is IDENT:
        return proc
    return Rename(proc, ren)


def restrict(proc: Term, labels: RestrictionSet) -> Term:
    """Restriction constructor that fuses nested restrictions into one
    canonical union, keeping unfolded state keys canonical."""
    if isinstance(proc, Restrict):
        return Restrict(proc.proc, union_restriction(labels, proc.labels))
    return Restrict(proc, labels)


def subterms(t: Term) -> tuple:
    """Immediate children of a node, in field order: its class's `_kids`,
    or a sum's branch continuations."""
    if type(t) is Sum:
        return tuple([p for _, p in t.branches])
    if not isinstance(t, Term):
        raise TypeError(f"not a term: {t!r}")
    return tuple([getattr(t, n) for n in t._kids])


def map_subterms(t: Term, f, *args) -> Term:
    """The node rebuilt with `f(child, *args)` for each immediate child, in
    field order.  Uses the raw constructors, so nested renamings and
    restrictions are not fused.  A recursive walk passes itself and its
    own arguments here rather than a nested function that names itself,
    which would leave a reference cycle for the collector at every call."""
    kind = type(t)
    if kind is Sum:
        return Sum(tuple([(a, f(p, *args)) for a, p in t.branches]))
    if not isinstance(t, Term):
        raise TypeError(f"not a term: {t!r}")
    fields = []
    for n in kind.__match_args__:
        fields.append(f(getattr(t, n), *args) if n in kind._kids else getattr(t, n))
    return kind(*fields)


# ---------------------------------------------------------------------------
# Printing


# The precedence a node's text binds at: printed where a higher one is
# required, it is parenthesised.  0 sum, 1 par, 2 prefix, 3 postfix/atom.
_BINDS = {
    Sum: 0, Par: 1, Prefix: 2, Rec: 2, Restrict: 3, Rename: 3, Var: 3,
}


def _print(t: Term, prec: int) -> str:
    kind = type(t)
    if kind is Par:
        # parallel parses left-associative; parenthesize a nested right
        s = _print(t.left, 1) + " | " + _print(t.right, 2)
    elif kind is Prefix:
        s = print_action(t.action) + "." + _print(t.cont, 2)
    elif kind is Sum:
        s = " + ".join([print_action(a) + "." + _print(p, 2) for a, p in t.branches]) or "0"
    elif kind is Restrict:
        s = _print(t.proc, 3) + " \\ " + t.labels.describe()
    elif kind is Rename:
        s = _print(t.proc, 3) + " [" + t.ren.describe() + "]"
    elif kind is Rec:
        s = f"rec {t.var}. " + _print(t.body, 2)
    elif kind is Var:
        s = t.ident
    else:
        raise TypeError(f"not a term: {t!r}")
    # the empty sum, 0, is atomic
    if prec > _BINDS[type(t)] and s != "0":
        return "(" + s + ")"
    return s


def print_term(t: Term) -> str:
    """The canonical printed form: what `lts` exports as a state's key
    and the parser reads back.  It reads the atom registry, which may
    grow and change how a name prints, so nothing keeps a text longer
    than the output it goes into."""
    return _print(t, 0)


def term_depth(t: Term) -> int:
    """Maximum constructor nesting, counted level by level, read from the
    node: each node stores it when it is built.  Exploration engines cap
    this: unfoldings that stack wrappers without bound (for example a
    restriction under a partial renaming under recursion) have no finite
    state space, and beyond the cap they are reported as budget
    exhaustion instead of overflowing the interpreter."""
    return t._depth


# ---------------------------------------------------------------------------
# Substitution


def substitute_var(t: Term, ident: str, repl: Term) -> Term:
    if isinstance(t, Var):
        return repl if t.ident == ident else t
    if isinstance(t, Rec) and t.var == ident:
        return t
    return map_subterms(t, substitute_var, ident, repl)


def free_process_vars(t: Term) -> frozenset:
    free = set()
    stack = [(t, frozenset())]
    while stack:
        u, bound = stack.pop()
        if isinstance(u, Var) and u.ident not in bound:
            free.add(u.ident)
        elif isinstance(u, Rec):
            bound = bound | {u.var}
        stack.extend((c, bound) for c in subterms(u))
    return frozenset(free)


# ---------------------------------------------------------------------------
# Sorts: sound over-approximation of the labels a term can ever perform.
# A sort is a frozenset of labels, or None for the symbolic bound "all
# labels" (a renaming over a recursion variable).


def _sort(t: Term) -> tuple[Optional[frozenset], bool]:
    """Returns (sort, touches_free_var)."""
    if isinstance(t, Sum):
        labs: set = set()
        touched = False
        for a, p in t.branches:
            labs |= a
            sub, tv = _sort(p)
            touched = touched or tv
            if sub is None:
                return None, touched
            labs |= sub
        return frozenset(labs), touched
    if isinstance(t, Prefix):
        sub, tv = _sort(t.cont)
        return (None if sub is None else t.action | sub), tv
    if isinstance(t, Par):
        sl, tl = _sort(t.left)
        sr, tr = _sort(t.right)
        return (None if sl is None or sr is None else sl | sr), tl or tr
    if isinstance(t, Restrict):
        sub, tv = _sort(t.proc)
        if sub is None:
            return None, tv
        return sub - t.labels.blocks(sub), tv
    if isinstance(t, Rename):
        sub, tv = _sort(t.proc)
        if tv or sub is None:
            # iterated relabelling under recursion: no finite bound
            return None, tv
        out = []
        for l in sub:
            img = t.ren.apply_label(l)
            if img is None:
                return None, tv
            out.append(img)
        return frozenset(out), tv
    if isinstance(t, Var):
        return frozenset(), True
    if isinstance(t, Rec):
        sub, _ = _sort(t.body)
        return sub, False
    raise TypeError(f"not a term: {t!r}")


def sort_labels(t: Term) -> Optional[frozenset]:
    """Finite sort label set, or None when only the symbolic bound exists."""
    return _sort(t)[0]


# ---------------------------------------------------------------------------
# Well-formedness


def _guarded(t: Term, var: str) -> bool:
    """Every free occurrence of `var` lies beneath a prefix or guard."""
    kind = type(t)
    if kind is Var:
        return t.ident != var
    if kind in (Prefix, Sum) or kind is Rec and t.var == var:
        return True
    for u in subterms(t):
        if not _guarded(u, var):
            return False
    return True


def well_formed(t: Term) -> list[str]:
    """Diagnostics list; empty means well-formed."""
    diags: list[str] = []
    _diagnose(t, frozenset(), diags)
    return diags


def _diagnose(u: Term, bound: frozenset, diags: list) -> None:
    """A node's diagnostics, then its children's; a sum's guard before its branch's."""
    if isinstance(u, Sum):
        for a, p in u.branches:
            if a == TAU:
                diags.append(f"tau guard inside a sum: {print_term(u)}")
            _diagnose(p, bound, diags)
        return
    if isinstance(u, Rename):
        sub = sort_labels(u.proc)
        if sub is not None:
            for lab in sub:
                if u.ren.apply_label(lab) is None:
                    diags.append(f"label {lab} of sort outside domain of renaming {u.ren}")
        # symbolic sort bound: coverage cannot be decided here; the
        # engine raises a domain error if a step actually escapes
    elif isinstance(u, Var):
        if u.ident not in bound:
            diags.append(f"unbound process variable {u.ident}")
    elif isinstance(u, Rec):
        if not _guarded(u.body, u.var):
            diags.append(f"unguarded recursion on {u.var} in {print_term(u)}")
        bound = bound | {u.var}
    elif not isinstance(u, Term):
        diags.append(f"unknown term node {u!r}")
        return
    for child in subterms(u):
        _diagnose(child, bound, diags)


# ---------------------------------------------------------------------------
# Value names


def value_name(chan: Name, v: int) -> Name:
    """The name on which value `v` passes over channel `chan`: `s_v`."""
    base = REGISTRY.ident_of(chan.code) or print_name(chan)
    return REGISTRY.register(f"{base}_{v}")


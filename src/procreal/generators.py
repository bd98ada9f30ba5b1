"""Seeded random terms, equivalence-preserving transforms and one-hole
contexts for the property suites.  Everything is driven by an explicit
random.Random so runs are reproducible."""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Callable

from .names import (
    FiniteMap,
    FiniteRestriction,
    REGISTRY,
    SWAP,
    negative,
    positive,
)
from .terms import (
    NIL,
    Par,
    Prefix,
    Rec,
    Rename,
    Restrict,
    Sum,
    TAU,
    Term,
    Var,
    well_formed,
)


@lru_cache(maxsize=64)
def _action_pools(atoms: tuple) -> tuple:
    """The guards over the atoms (each label alone, and each pair of
    labels on different atoms) and the prefixes (tau, then the guards).
    They depend on the atoms alone, so each tuple of atoms builds them
    once."""
    labels = [positive(a) for a in atoms] + [negative(a) for a in atoms]
    guards = [frozenset([l]) for l in labels]
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            if labels[i].code != labels[j].code:
                guards.append(frozenset([labels[i], labels[j]]))
    return tuple(guards), (TAU, *guards)


def random_term(rng: random.Random, atoms, size: int) -> Term:
    """Closed well-formed guarded term over the given atoms."""
    atoms = tuple(atoms)
    return _random_term(rng, atoms, *_action_pools(atoms), [0], size, (), False)


def _random_term(rng, atoms, guards, prefixes, counter, budget: int, bound: tuple,
                 guarded: bool) -> Term:
    """A term of at most `budget` nodes whose recursion variables are drawn
    from `bound`; `counter` numbers the recursions built so far."""
    pools = rng, atoms, guards, prefixes, counter
    if budget <= 1:
        if bound and guarded and rng.random() < 0.5:
            return Var(rng.choice(bound))
        return NIL
    choices = ["prefix", "prefix", "sum", "par", "restrict", "rename"]
    if budget >= 3:
        choices.append("rec")
    kind = rng.choice(choices)
    if kind == "prefix":
        return Prefix(rng.choice(prefixes), _random_term(*pools, budget - 1, bound, True))
    if kind == "sum":
        n = 2
        split = max(1, (budget - 1) // n)
        branches = tuple(
            (rng.choice(guards), _random_term(*pools, split, bound, True)) for _ in range(n)
        )
        return Sum(branches)
    if kind == "par":
        # recursion variables stay out of parallel branches: a
        # variable under Par replicates the term on unfolding and
        # the state space stops being finite
        lb = max(1, (budget - 1) // 2)
        return Par(_random_term(*pools, lb, (), guarded),
                   _random_term(*pools, budget - 1 - lb, (), guarded))
    if kind == "restrict":
        k = rng.randint(1, len(atoms))
        labels = [positive(a) for a in rng.sample(list(atoms), k)]
        return Restrict(_random_term(*pools, budget - 1, bound, guarded), FiniteRestriction(labels))
    if kind == "rename":
        if len(atoms) >= 2 and rng.random() < 0.7:
            a, b = rng.sample(list(atoms), 2)
            ren = FiniteMap(
                [(a, b), (b, a)] + [(c, c) for c in atoms if c not in (a, b)]
            )
        else:
            ren = FiniteMap([(c, c) for c in atoms])
        # keep recursion variables out of renamed subterms: iterated
        # relabelling under recursion has no finite sort bound
        return Rename(_random_term(*pools, budget - 1, (), guarded), ren)
    # rec: body starts with a guard so every variable stays guarded
    counter[0] += 1
    var = f"Z{counter[0]}"
    body = Prefix(rng.choice(guards), _random_term(*pools, budget - 2, bound + (var,), True))
    return Rec(var, body)


def equivalent_pair(rng: random.Random, atoms, size: int) -> tuple:
    """A pair of syntactically different, failures-equivalent terms."""
    p = random_term(rng, atoms, size)
    kind = rng.choice(["tau", "par_nil", "double_swap", "restrict_noop", "tau", "par_nil"])
    if kind == "tau":
        return p, Prefix(TAU, p)
    if kind == "par_nil":
        return p, (Par(p, NIL) if rng.random() < 0.5 else Par(NIL, p))
    if kind == "double_swap":
        return p, Rename(Rename(p, SWAP), SWAP)
    spare = REGISTRY.intern("unused_spare")
    return p, Restrict(p, FiniteRestriction([positive(spare)]))


def random_context(rng: random.Random, atoms, size: int) -> Callable[[Term], Term]:
    """One-hole context built from all constructors; plugging a closed
    term yields a closed well-formed term.  All context randomness is
    drawn up front so both plugs see the identical context."""
    atoms = tuple(atoms)
    guards, prefixes = _action_pools(atoms)
    layers = []
    budget = size
    rec_count = 0
    while budget > 0:
        kind = rng.choice(["prefix", "sum", "parl", "parr", "restrict", "rename", "rec"])
        if kind == "prefix":
            layers.append(("prefix", rng.choice(prefixes)))
        elif kind == "sum":
            layers.append(
                ("sum", rng.choice(guards), rng.choice(guards), random_term(rng, atoms, 2))
            )
        elif kind in ("parl", "parr"):
            layers.append((kind, random_term(rng, atoms, 3)))
        elif kind == "restrict":
            k = rng.randint(1, len(atoms))
            labels = tuple(positive(a) for a in rng.sample(list(atoms), k))
            layers.append(("restrict", FiniteRestriction(labels)))
        elif kind == "rename":
            if len(atoms) >= 2:
                a, b = rng.sample(list(atoms), 2)
                ren = FiniteMap(
                    [(a, b), (b, a)] + [(c, c) for c in atoms if c not in (a, b)]
                )
            else:
                ren = FiniteMap([(c, c) for c in atoms])
            layers.append(("rename", ren))
        else:
            rec_count += 1
            layers.append(("rec", f"C{rec_count}", rng.choice(guards)))
        budget -= 2 if kind in ("sum", "parl", "parr", "rec") else 1

    def plug(hole: Term) -> Term:
        t = hole
        for layer in layers:
            kind = layer[0]
            if kind == "prefix":
                t = Prefix(layer[1], t)
            elif kind == "sum":
                t = Sum(((layer[1], t), (layer[2], layer[3])))
            elif kind == "parl":
                t = Par(t, layer[1])
            elif kind == "parr":
                t = Par(layer[1], t)
            elif kind == "restrict":
                t = Restrict(t, layer[1])
            elif kind == "rename":
                t = Rename(t, layer[1])
            else:
                t = Rec(layer[1], Prefix(layer[2], t))
        return t

    return plug


def enumerate_terms(atoms, max_size: int):
    """Exhaustive enumeration of closed well-formed terms up to the node
    count, over a fixed small pool of actions, restriction sets and one
    swap renaming.  The pool is what "over the atoms" means here: tau and
    the singleton actions of every label, one mixed compound action, the
    singleton and full restriction sets, the name-swap renaming, and one
    recursion variable.  Recursion variables do not occur under parallel
    composition (such terms replicate without bound on unfolding and have
    no finite state space, hence no normal form to compare against).
    Each term comes once, at its first construction."""
    seen = set()
    for t in _constructed_terms(tuple(atoms), max_size):
        if t in seen:
            continue
        seen.add(t)
        if not well_formed(t):
            yield t


def _constructed_terms(atoms: tuple, max_size: int):
    """Every term `enumerate_terms` builds, by size, with repeats and
    ill-formed terms."""
    labels = [positive(a) for a in atoms] + [negative(a) for a in atoms]
    guards = [frozenset([l]) for l in labels]
    if len(atoms) >= 2:
        guards.append(frozenset([positive(atoms[0]), negative(atoms[1])]))
    restrictions = [
        FiniteRestriction([positive(atoms[0])]),
        FiniteRestriction([positive(a) for a in atoms]),
    ]
    renamings = []
    if len(atoms) >= 2:
        renamings.append(
            FiniteMap([(atoms[0], atoms[1]), (atoms[1], atoms[0])])
        )
    pools = guards, [TAU] + guards, restrictions, renamings
    for size in range(1, max_size + 1):
        yield from _sized_terms(pools, size, (), False)


def _sized_terms(pools: tuple, size: int, bound: tuple, guarded: bool):
    """The terms of `size` nodes `_constructed_terms` builds, their
    recursion variables drawn from `bound`; `pools` holds the guards,
    the prefixes, the restriction sets and the renamings."""
    guards, prefixes, restrictions, renamings = pools
    if size >= 1:
        yield NIL
        if bound and guarded:
            yield Var(bound[-1])
    if size >= 2:
        for a in prefixes:
            for p in _sized_terms(pools, size - 1, bound, True):
                yield Prefix(a, p)
        for p in _sized_terms(pools, size - 1, bound, guarded):
            for L in restrictions:
                yield Restrict(p, L)
            for f in renamings:
                yield Rename(p, f)
        if not bound:
            for body in _sized_terms(pools, size - 1, ("X",), False):
                rec = Rec("X", body)
                if not well_formed(rec):  # its body is guarded
                    yield rec
    if size >= 3:
        for ls in range(1, size - 1):
            for p in _sized_terms(pools, ls, (), guarded):
                for q in _sized_terms(pools, size - 1 - ls, (), guarded):
                    yield Par(p, q)
        for ls in range(1, size - 1):
            for ga in guards:
                for p in _sized_terms(pools, ls, bound, True):
                    for gb in guards:
                        for q in _sized_terms(pools, size - 1 - ls, bound, True):
                            yield Sum(((ga, p), (gb, q)))

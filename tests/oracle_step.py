"""Independent naive rule matcher for one-step transitions.

Written directly from the seven inference rules, deliberately not
sharing code with the engine: the parallel rule splits the left action
into every subset b and checks the side conditions literally, instead of
intersecting against duals first.
"""

from itertools import combinations

from procreal.terms import (
    Par,
    Prefix,
    Rec,
    Rename,
    Restrict,
    Sum,
    Var,
    rename as smart_rename,
    restrict as smart_restrict,
    substitute_var,
)


def canonical(t):
    """Rebuilds a term through the fusing constructors, the normal form
    the engine keeps its successor states in."""
    if isinstance(t, Prefix):
        return Prefix(t.action, canonical(t.cont))
    if isinstance(t, Sum):
        return Sum(tuple((a, canonical(p)) for a, p in t.branches))
    if isinstance(t, Par):
        return Par(canonical(t.left), canonical(t.right))
    if isinstance(t, Restrict):
        return smart_restrict(canonical(t.proc), t.labels)
    if isinstance(t, Rename):
        return smart_rename(canonical(t.proc), t.ren)
    if isinstance(t, Rec):
        return Rec(t.var, canonical(t.body))
    return t


def subsets(s):
    items = sorted(s, key=lambda l: (l.code, l.neg))
    for k in range(len(items) + 1):
        for combo in combinations(items, k):
            yield frozenset(combo)


def dual(a):
    return frozenset(l.dual() for l in a)


def naive_step(t):
    if isinstance(t, Prefix):
        return {(t.action, t.cont)}
    if isinstance(t, Sum):
        return {(a, p) for a, p in t.branches}
    if isinstance(t, Par):
        out = set()
        for a, p in naive_step(t.left):
            out.add((a, Par(p, t.right)))
        for a, q in naive_step(t.right):
            out.add((a, Par(t.left, q)))
        for d, p in naive_step(t.left):
            for e, q in naive_step(t.right):
                for b in subsets(d):
                    if not dual(b) <= e:
                        continue
                    a = d - b
                    c = e - dual(b)
                    if a & c:
                        continue
                    out.add((a | c, Par(p, q)))
        return out
    if isinstance(t, Restrict):
        out = set()
        for a, p in naive_step(t.proc):
            if any(
                t.labels.contains_label(l) or t.labels.contains_label(l.dual())
                for l in a
            ):
                continue
            out.add((a, Restrict(p, t.labels)))
        return out
    if isinstance(t, Rename):
        out = set()
        for a, p in naive_step(t.proc):
            image = frozenset(t.ren.apply_label(l) for l in a)
            assert None not in image
            out.add((image, Rename(p, t.ren)))
        return out
    if isinstance(t, Rec):
        return naive_step(substitute_var(t.body, t.var, t))
    if isinstance(t, Var):
        raise ValueError("naive matcher handles closed terms only")
    raise TypeError(t)

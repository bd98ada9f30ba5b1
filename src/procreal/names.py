"""Names, labels, actions, the renaming algebra and restriction predicates.

Names are coded naturals.  User-written atoms get codes from a registry;
structural names arise from arithmetic codings, each one `Coding`: a
residue table that sends the code m*q + r, m the table's length, to
a*q + b when its entry r is (a, b).  The even/odd split ``l``/``r``
(code 2n and 2n+1), the k-way residue splits (`KwayCode`: code k*n + i-1
for port i of k), the mod-3 layouts of the two halves (`PhiCode`),
`SWAP` and `IDENT` are such tables, and so is each one's inverse, so the
binary and k-way interface splits are exact and invertible.  Only
`Coding.apply_code` does this arithmetic; a coded name, label or action
is built by applying a coding or its decode.  A coding prints as the
term reader reads it, so a printed renaming reads back as itself.  One
table (`_CODING_TABLE`) holds the codings ``l``, ``r``, ``n1``..``n3``
and their images' coding classes ``Ll``, ``Lr``, ``N1``..``N3``; the
parser, `_spell` and `CodingClass` read it.

Renamings and restriction sets are name maps (`NameMap`): values that
compare by class and constructor arguments and hash once.  Each map
memoises its answers per action (`Renaming.apply_action`,
`RestrictionSet.blocks`), which the states of one process ask again and
again.  Term nodes hold one kept instance per value (`kept`), in the
manner of hash-consing (Filliâtre and Conchon, *Type-safe modular
hash-consing*, 2006), so equal maps met in many nodes are one object
with one memo, and a node constructor's table lookup, whose key holds
the map, compares the kept instance with itself.  (A term node
comparison is identity and never reaches a map.)
"""

from __future__ import annotations

import re
import threading
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional


class Name(NamedTuple):
    code: int

    def __str__(self) -> str:
        return print_name(self)


# a label sorts as the tuple it is: by code, then polarity
class Label(NamedTuple):
    code: int
    neg: bool

    @property
    def name(self) -> Name:
        return Name(self.code)

    def dual(self) -> "Label":
        return Label(self.code, not self.neg)

    def __str__(self) -> str:
        return ("~" if self.neg else "") + _spell(self.code)


# An action is a finite set of labels performed simultaneously.
# tau is the empty action.
Action = frozenset
TAU: Action = frozenset()


def positive(name: Name) -> Label:
    return Label(name.code, False)


def negative(name: Name) -> Label:
    return Label(name.code, True)


# Memoised like `action_key` below, and for the same reason: the
# synchronisations of the parallel rule dualise the same few hundred
# actions again and again.
@lru_cache(maxsize=1024)
def dual_action(a: Action) -> Action:
    return frozenset(lab.dual() for lab in a)


# An action's key depends on its label codes alone, so it is kept for the
# process; the printed form is not, because it reads the atom registry,
# which may grow.  A full benchmark stream meets 13 (`oracle`), 287
# (`semtypes`) or 410 (`laws`) distinct actions, with hit rates of 99.9%
# and more, so 1,024 entries hold them all, with room to spare.
@lru_cache(maxsize=1024)
def action_key(a: Action):
    return tuple(sorted(map(tuple, a)))


def print_action(a: Action) -> str:
    return "{" + ",".join(map(str, sorted(a))) + "}"


# ---------------------------------------------------------------------------
# Atom registry, and the identifier rule of the term and formula readers

IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_]*"
is_identifier = re.compile(IDENTIFIER).fullmatch


class AtomRegistry:
    """Maps user-written atom identifiers to unique natural codes.

    Codes 0..5 are fixed for the global control atoms used by the
    additive, exponential and value-passing protocols (`ALPHA`..`SIGMA`,
    registered first)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._by_ident: dict[str, int] = {}
        self._by_code: dict[int, str] = {}

    def intern(self, ident: str) -> Name:
        """The name of the atom `ident`; a new one must be an `IDENTIFIER`."""
        code = self._by_ident.get(ident)
        if code is None:
            if not is_identifier(ident):
                raise ValueError(f"invalid atom identifier: {ident!r}")
            return self.register(ident)
        return Name(code)

    def register(self, spelling: str) -> Name:
        """The name spelled `spelling`, unchecked: `terms.value_name` spells `l(a)_0`."""
        with self._lock:
            code = self._by_ident.setdefault(spelling, len(self._by_ident))
            self._by_code[code] = spelling
        return Name(code)

    def ident_of(self, code: int) -> Optional[str]:
        return self._by_code.get(code)


REGISTRY = AtomRegistry()

ALPHA = REGISTRY.intern("alpha")
BETA = REGISTRY.intern("beta")
OMEGA = REGISTRY.intern("omega")
DELTA = REGISTRY.intern("delta")
GAMMA = REGISTRY.intern("gamma")
SIGMA = REGISTRY.intern("sigma")


def print_name(n: Name) -> str:
    """Canonical spelling: registered atom, else `l(x)` or `r(x)`, x the
    spelling of the name's `l` or `r` decode.

    Terminates because code 0 is always registered.
    """
    return _spell(n.code)


def _spell(code: int) -> str:
    ident = REGISTRY.ident_of(code)
    if ident is not None:
        return ident
    for spelling, decode in _SPELL_DECODES:
        inner = decode.apply_code(code)
        if inner is not None:
            return f"{spelling}({_spell(inner)})"


# ---------------------------------------------------------------------------
# Name maps: the renamings and restriction sets that term nodes carry.


class NameMap:
    """A renaming or a restriction set.  Its value is its class and the
    arguments it was built from (`_args`): `==`, `hash`, `repr` and
    pickling read those alone, and the hash is computed once, when it is
    built.  `_memo` keeps what the map has answered per action
    (`Renaming.apply_action`, `RestrictionSet.blocks`); it is no part of
    the value, and the text (`describe`) never reads it.

    Term nodes hold the kept instance of their map (`kept`), so equal maps
    met in two nodes are one object and share `_memo`, and a node
    constructor's table lookup given the kept instance stops at the
    identity test.  Equality stays structural: a map built apart from the
    kept one equals it and has its hash."""

    __slots__ = ("_args", "_hash", "_memo")

    def __init__(self, *args):
        self._args = args
        self._hash = hash((type(self).__name__, args))
        self._memo = {}

    def __eq__(self, other):
        return self is other or (type(other) is type(self) and self._args == other._args)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), self._args

    def __repr__(self) -> str:
        return type(self).__name__ + repr(self._args)

    def __str__(self) -> str:
        return self.describe()

    def describe(self) -> str:
        raise NotImplementedError


# Bound on the kept name maps.  A full benchmark stream meets 208 distinct
# renamings (`laws`) or 26 (`semtypes`); past KEPT values the table is
# emptied and refills.  Kept maps equal their values, so a flush costs
# speed only.  `kept` is written out, not an `lru_cache`, as node building
# calls it: a hit measured 115 ns against 138 ns (Python 3.11).
KEPT = 4096
_KEPT: dict = {}


def kept(value: NameMap) -> NameMap:
    """The kept instance equal to `value`: `value` itself, when no equal
    map is kept yet.  Threads racing here may keep two equal instances,
    which costs speed only."""
    found = _KEPT.get(value)
    if found is None:
        if len(_KEPT) >= KEPT:
            _KEPT.clear()
        found = _KEPT[value] = value
    return found


# ---------------------------------------------------------------------------
# Renamings: partial injective functions on labels commuting with the
# involution.  Kept symbolic; applied lazily to the labels that occur.


class Renaming(NameMap):
    __slots__ = ()

    def apply_code(self, code: int) -> Optional[int]:
        raise NotImplementedError

    def inverse(self) -> "Renaming":
        raise NotImplementedError

    def is_total(self) -> bool:
        return False

    def apply_name(self, n: Name) -> Optional[Name]:
        code = self.apply_code(n.code)
        return None if code is None else Name(code)

    def apply_label(self, lab: Label) -> Optional[Label]:
        code = self.apply_code(lab.code)
        return None if code is None else Label(code, lab.neg)

    def apply_action(self, a: Action) -> Action:
        """The image of `a`, memoised per map and action.  An action the
        map does not rename raises, every time it is asked."""
        image = self._memo.get(a)
        if image is None:
            out = []
            for lab in a:
                img = self.apply_label(lab)
                if img is None:
                    raise RenamingDomainError(lab, self)
                out.append(img)
            image = frozenset(out)
            if len(image) != len(a):
                raise ValueError(f"renaming {self} not injective on {print_action(a)}")
            self._memo[a] = image
        return image


class RenamingDomainError(Exception):
    def __init__(self, lab: Label, ren: Renaming):
        super().__init__(f"label {lab} outside the domain of renaming {ren}")
        self.label = lab
        self.renaming = ren


class Coding(Renaming):
    """A residue coding: the code m*q + r, m = len(table), goes to a*q + b
    when `table[r]` is (a, b), and lies outside the domain when it is
    None.  Every defined entry has the same a, so the inverse is a coding
    whose table, of length a, sends b back to (m, r).  A coding keeps its
    text and its inverse's (`spelling`, `inverse_spelling`); one whose
    inverse spells as itself is its own inverse."""

    __slots__ = ("table", "spelling", "inverse_spelling")

    def __init__(self, table: tuple, spelling: str, inverse_spelling: str):
        self.table, self.spelling, self.inverse_spelling = table, spelling, inverse_spelling
        super().__init__(table, spelling, inverse_spelling)

    def __reduce__(self):
        # the identity unpickles as itself, the one map that `terms.rename`
        # and `compose_renamings` drop by an identity test
        return "IDENT" if self is IDENT else super().__reduce__()

    def apply_code(self, code: int) -> Optional[int]:
        q, r = divmod(code, len(self.table))
        entry = self.table[r]
        return None if entry is None else entry[0] * q + entry[1]

    def inverse(self) -> "Coding":
        if self.spelling == self.inverse_spelling:
            return self
        back = {entry: (len(self.table), r) for r, entry in enumerate(self.table) if entry is not None}
        (a,) = {a for a, _ in back}
        return Coding(tuple(back.get((a, b)) for b in range(a)), self.inverse_spelling, self.spelling)

    def describe(self) -> str:
        return self.spelling

    def is_total(self) -> bool:
        return None not in self.table


# The codings, built by name; each describes as the parser reads it.
def KwayCode(port: int, ways: int) -> Coding:
    """Total injection onto the port-th residue class mod ways: n -> ways*n + port-1,
    so one way is `IDENT`."""
    if not (1 <= port <= ways):
        raise ValueError("port out of range")
    if ways == 1:
        return IDENT
    spelling = ("lcode", "rcode")[port - 1] if ways == 2 else f"n{port}of{ways}"
    return Coding(((ways, port - 1),), spelling, f"inv({spelling})")


def KwayDecode(port: int, ways: int) -> Coding:
    return KwayCode(port, ways).inverse()


def PhiCode(i: int, j: int) -> Coding:
    """Bijection onto the union of residue classes i and j mod 3.

    The l-half (even codes 2n) lands in class i, the r-half (odd codes
    2n+1) in class j: 2n -> 3n+i-1 and 2n+1 -> 3n+j-1.
    """
    if i == j or not (1 <= i <= 3 and 1 <= j <= 3):
        raise ValueError("phi ports must be distinct in 1..3")
    return Coding(((3, i - 1), (3, j - 1)), f"phi{i}{j}", f"inv(phi{i}{j})")


IDENT = Coding(((1, 0),), "id", "id")
SWAP = Coding(((2, 1), (2, 0)), "swap", "swap")  # interchanges the l/r halves: code XOR 1
LCODE = KwayCode(1, 2)
RCODE = KwayCode(2, 2)


class FiniteMap(Renaming):
    """Finite injective map on names, extended to co-names pointwise."""

    __slots__ = ("_map",)

    def __init__(self, pairs: Iterable[tuple[Name, Name]]):
        mapping = dict(pairs)
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("finite renaming must be injective")
        items = tuple(sorted(mapping.items()))
        self._map = {src.code: dst.code for src, dst in items}
        super().__init__(items)

    def apply_code(self, code: int) -> Optional[int]:
        return self._map.get(code)

    def inverse(self) -> Renaming:
        return FiniteMap((Name(v), Name(k)) for k, v in self._map.items())

    def describe(self) -> str:
        items = ",".join(
            f"{_spell(k)}:{_spell(v)}" for k, v in self._map.items()
        )
        return "map{" + items + "}"


class Compose(Renaming):
    """after(first(x)): `first` applies first."""

    __slots__ = ("after", "first")

    def __init__(self, after: Renaming, first: Renaming):
        self.after, self.first = after, first
        super().__init__(after, first)

    def apply_code(self, code: int) -> Optional[int]:
        mid = self.first.apply_code(code)
        return None if mid is None else self.after.apply_code(mid)

    def inverse(self) -> Renaming:
        return Compose(self.first.inverse(), self.after.inverse())

    def describe(self) -> str:
        return f"comp({self.after.describe()},{self.first.describe()})"

    def is_total(self) -> bool:
        return self.after.is_total() and self.first.is_total()


class Piecewise(Renaming):
    """Disjoint union of renamings; the first defined branch applies.

    Used for port re-layouts, where each piece handles one coding region.
    Callers must supply pieces with disjoint domains and disjoint images.
    """

    __slots__ = ("_pieces",)

    def __init__(self, pieces: Iterable[Renaming]):
        self._pieces = tuple(pieces)
        super().__init__(self._pieces)

    def apply_code(self, code: int) -> Optional[int]:
        for piece in self._pieces:
            out = piece.apply_code(code)
            if out is not None:
                return out
        return None

    def inverse(self) -> Renaming:
        return Piecewise(p.inverse() for p in self._pieces)

    def describe(self) -> str:
        return "piece(" + "|".join(p.describe() for p in self._pieces) + ")"


# (spelling, coding class of its image, coding): `n2(x)` is the name that
# port 2 of 3 codes x to, and the class N2 holds all such names
_CODING_TABLE = (("l", "Ll", LCODE), ("r", "Lr", RCODE),
                 *((f"n{i}", f"N{i}", KwayCode(i, 3)) for i in (1, 2, 3)))
CODINGS = {spelling: coding for spelling, _, coding in _CODING_TABLE}
# `all` is the image of the identity
CODING_CLASSES = {"all": IDENT, **{which: coding for _, which, coding in _CODING_TABLE}}
# each class's decode, defined on exactly the class's codes
_CLASS_DECODES = {which: coding.inverse() for which, coding in CODING_CLASSES.items()}
_SPELL_DECODES = (("l", _CLASS_DECODES["Ll"]), ("r", _CLASS_DECODES["Lr"]))
l_code, r_code = LCODE.apply_name, RCODE.apply_name


@lru_cache(maxsize=KEPT)
def compose_renamings(after: Renaming, first: Renaming) -> Renaming:
    """Composition with canonicalization: identities drop out, a total
    renaming followed by its inverse cancels, and finite maps compose to
    a finite map.  Keeps state keys stable when recursion unfolding
    stacks renamings.  The result is the kept instance (`kept`) when the
    pair is first composed; the pair then keeps it, up to KEPT pairs
    (`lru_cache`), so a repeated composition builds nothing."""
    if after is IDENT:
        return kept(first)
    if first is IDENT:
        return kept(after)
    if first.is_total() and after == first.inverse():
        return kept(IDENT)
    if isinstance(after, FiniteMap) and isinstance(first, FiniteMap):
        pairs = []
        for src_code, mid in first._map.items():
            out = after.apply_code(mid)
            if out is not None:
                pairs.append((Name(src_code), Name(out)))
        return kept(FiniteMap(pairs))
    return kept(Compose(after, first))


# ---------------------------------------------------------------------------
# Restriction sets: symbolic predicates over labels, decidable membership.


class RestrictionSet(NameMap):
    __slots__ = ()

    def contains_label(self, lab: Label) -> bool:
        raise NotImplementedError

    def blocks(self, a: Iterable[Label]) -> frozenset:
        """The labels of the action `a` (or tuple of labels) that meet the
        set or its involution closure: empty, so false, when the set lets
        `a` pass.  Memoised per set and action."""
        part = self._memo.get(a)
        if part is None:
            part = self._memo[a] = frozenset(
                l for l in a if self.contains_label(l) or self.contains_label(l.dual())
            )
        return part


class FiniteRestriction(RestrictionSet):
    __slots__ = ("labels",)

    def __init__(self, labels: Iterable[Label]):
        self.labels = frozenset(labels)
        super().__init__(self.labels)

    def contains_label(self, lab: Label) -> bool:
        return lab in self.labels

    def describe(self) -> str:
        return "{" + ",".join(map(str, sorted(self.labels))) + "}"


class CodingClass(RestrictionSet):
    """The image of one coding of `CODING_CLASSES`, both polarities: `all`
    labels, Ll, Lr (label halves), N1..N3 (mod-3 name classes).  Any other
    class is a ValueError where it is built, unpickling included."""

    __slots__ = ("which",)

    def __init__(self, which: str):
        if which not in CODING_CLASSES:
            raise ValueError(f"unknown coding class {which}")
        self.which = which
        super().__init__(which)

    def contains_label(self, lab: Label) -> bool:
        return _CLASS_DECODES[self.which].apply_code(lab.code) is not None

    def describe(self) -> str:
        return self.which


class UnionRestriction(RestrictionSet):
    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[RestrictionSet]):
        self._parts = tuple(parts)
        super().__init__(self._parts)

    def contains_label(self, lab: Label) -> bool:
        return any(p.contains_label(lab) for p in self._parts)

    def describe(self) -> str:
        return "(" + "+".join(p.describe() for p in self._parts) + ")"


ALL_LABELS = CodingClass("all")
LL_CLASS = CodingClass("Ll")
LR_CLASS = CodingClass("Lr")
N2_CLASS = CodingClass("N2")


def union_restriction(l1: RestrictionSet, l2: RestrictionSet) -> RestrictionSet:
    """Canonical union: nested unions flatten, finite parts merge, `all`
    absorbs, parts are deduplicated and ordered.  Canonicity keeps state
    keys stable when restrictions stack up under recursion unfolding.
    The result is the kept instance (`kept`)."""
    finite: set = set()
    others: dict[str, RestrictionSet] = {}
    todo = [l2, l1]
    while todo:
        p = todo.pop()
        if isinstance(p, UnionRestriction):
            todo.extend(reversed(p._parts))
        elif isinstance(p, CodingClass) and p.which == "all":
            return kept(ALL_LABELS)
        elif isinstance(p, FiniteRestriction):
            finite |= p.labels
        else:
            others[p.describe()] = p
    out: list[RestrictionSet] = [others[k] for k in sorted(others)]
    if finite:
        out.append(FiniteRestriction(finite))
    if len(out) == 1:
        return kept(out[0])
    return kept(UnionRestriction(out))

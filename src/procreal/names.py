"""Names, labels, actions, the renaming algebra and restriction predicates.

Names are coded naturals.  User-written atoms get codes from a registry;
structural names arise from arithmetic coding injections: the even/odd
split ``l``/``r`` (code 2n and 2n+1) and k-way residue splits (code
k*n + i-1 for port i of k).  Every coding is a total injection on the
naturals, so the binary and k-way interface splits are exact and
invertible.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional


class Name(NamedTuple):
    code: int

    def __str__(self) -> str:
        return print_name(self)


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


def dual_action(a: Action) -> Action:
    return frozenset(lab.dual() for lab in a)


# a label's sort key, (code, neg)
label_key = attrgetter("code", "neg")


# An action's key depends on its label codes alone, so it is kept for the
# process; the printed form is not, because it reads the atom registry,
# which may grow.  A full benchmark stream meets 13 (`oracle`), 287
# (`semtypes`) or 410 (`laws`) distinct actions, with hit rates of 99.9%
# and more, so 1,024 entries hold them all, with room to spare.
@lru_cache(maxsize=1024)
def action_key(a: Action):
    return tuple(sorted(map(label_key, a)))


def print_action(a: Action) -> str:
    return "{" + ",".join(map(str, sorted(a, key=label_key))) + "}"


# ---------------------------------------------------------------------------
# Atom registry


class AtomRegistry:
    """Maps user-written atom identifiers to unique natural codes.

    Codes 0..5 are fixed for the global control atoms used by the
    additive, exponential and value-passing protocols.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._by_ident: dict[str, int] = {}
        self._by_code: dict[int, str] = {}
        for ident in ("alpha", "beta", "omega", "delta", "gamma", "sigma"):
            self._register(ident)

    def _register(self, ident: str) -> int:
        code = len(self._by_ident)
        self._by_ident[ident] = code
        self._by_code[code] = ident
        return code

    def intern(self, ident: str) -> Name:
        if not ident or not (ident[0].isalpha() or ident[0] == "_"):
            raise ValueError(f"invalid atom identifier: {ident!r}")
        with self._lock:
            code = self._by_ident.get(ident)
            if code is None:
                code = self._register(ident)
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
    """Canonical spelling: registered atom, else parity decomposition.

    Terminates because code 0 is always registered.
    """
    return _spell(n.code)


def _spell(code: int) -> str:
    ident = REGISTRY.ident_of(code)
    if ident is not None:
        return ident
    if code % 2 == 0:
        return f"l({_spell(code // 2)})"
    return f"r({_spell((code - 1) // 2)})"


# ---------------------------------------------------------------------------
# Renamings: partial injective functions on labels commuting with the
# involution.  Kept symbolic; applied lazily to the labels that occur.


class Renaming:
    def apply_code(self, code: int) -> Optional[int]:
        raise NotImplementedError

    def inverse(self) -> "Renaming":
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def is_total(self) -> bool:
        return False

    def __str__(self) -> str:
        return self.describe()

    def apply_label(self, lab: Label) -> Optional[Label]:
        code = self.apply_code(lab.code)
        if code is None:
            return None
        return Label(code, lab.neg)

    def apply_action(self, a: Action) -> Action:
        out = []
        for lab in a:
            img = self.apply_label(lab)
            if img is None:
                raise RenamingDomainError(lab, self)
            out.append(img)
        image = frozenset(out)
        if len(image) != len(a):
            raise ValueError(f"renaming {self} not injective on {print_action(a)}")
        return image


class RenamingDomainError(Exception):
    def __init__(self, lab: Label, ren: Renaming):
        super().__init__(f"label {lab} outside the domain of renaming {ren}")
        self.label = lab
        self.renaming = ren


@dataclass(frozen=True)
class IdentityRenaming(Renaming):
    def apply_code(self, code: int) -> Optional[int]:
        return code

    def inverse(self) -> Renaming:
        return self

    def describe(self) -> str:
        return "id"

    def is_total(self) -> bool:
        return True


@dataclass(frozen=True)
class KwayCode(Renaming):
    """Total injection onto the i-th residue class mod k: n -> k*n + i-1."""

    port: int
    ways: int

    def __post_init__(self):
        if not (1 <= self.port <= self.ways):
            raise ValueError("port out of range")

    def apply_code(self, code: int) -> Optional[int]:
        return self.ways * code + (self.port - 1)

    def inverse(self) -> Renaming:
        return KwayDecode(self.port, self.ways)

    def describe(self) -> str:
        if self.ways == 2:
            return "lcode" if self.port == 1 else "rcode"
        if self.ways == 1:
            return "id"
        return f"n{self.port}of{self.ways}"

    def is_total(self) -> bool:
        return True


@dataclass(frozen=True)
class KwayDecode(Renaming):
    port: int
    ways: int

    def apply_code(self, code: int) -> Optional[int]:
        if code % self.ways != self.port - 1:
            return None
        return code // self.ways

    def inverse(self) -> Renaming:
        return KwayCode(self.port, self.ways)

    def describe(self) -> str:
        return f"inv({KwayCode(self.port, self.ways).describe()})"


@dataclass(frozen=True)
class PhiCode(Renaming):
    """Bijection onto the union of residue classes i and j mod 3.

    The l-half (even codes 2n) lands in class i, the r-half (odd codes
    2n+1) in class j: 2n -> 3n+i-1 and 2n+1 -> 3n+j-1.
    """

    i: int
    j: int

    def __post_init__(self):
        if self.i == self.j or not (1 <= self.i <= 3 and 1 <= self.j <= 3):
            raise ValueError("phi ports must be distinct in 1..3")

    def apply_code(self, code: int) -> Optional[int]:
        if code % 2 == 0:
            return 3 * (code // 2) + (self.i - 1)
        return 3 * ((code - 1) // 2) + (self.j - 1)

    def inverse(self) -> Renaming:
        return PhiDecode(self.i, self.j)

    def describe(self) -> str:
        return f"phi{self.i}{self.j}"

    def is_total(self) -> bool:
        return True


@dataclass(frozen=True)
class PhiDecode(Renaming):
    i: int
    j: int

    def apply_code(self, code: int) -> Optional[int]:
        r = code % 3
        if r == self.i - 1:
            return 2 * (code // 3)
        if r == self.j - 1:
            return 2 * (code // 3) + 1
        return None

    def inverse(self) -> Renaming:
        return PhiCode(self.i, self.j)

    def describe(self) -> str:
        return f"inv(phi{self.i}{self.j})"


@dataclass(frozen=True)
class SwapLR(Renaming):
    """Interchanges the l/r halves of the name space: code XOR 1."""

    def apply_code(self, code: int) -> Optional[int]:
        return code ^ 1

    def inverse(self) -> Renaming:
        return self

    def describe(self) -> str:
        return "swap"

    def is_total(self) -> bool:
        return True


class FiniteMap(Renaming):
    """Finite injective map on names, extended to co-names pointwise."""

    def __init__(self, pairs: Iterable[tuple[Name, Name]]):
        mapping = {src.code: dst.code for src, dst in pairs}
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("finite renaming must be injective")
        self._map = dict(sorted(mapping.items()))

    def apply_code(self, code: int) -> Optional[int]:
        return self._map.get(code)

    def inverse(self) -> Renaming:
        return FiniteMap((Name(v), Name(k)) for k, v in self._map.items())

    def describe(self) -> str:
        items = ",".join(
            f"{_spell(k)}:{_spell(v)}" for k, v in self._map.items()
        )
        return "map{" + items + "}"

    def __eq__(self, other):
        return isinstance(other, FiniteMap) and self._map == other._map

    def __hash__(self):
        return hash(tuple(self._map.items()))


@dataclass(frozen=True)
class Compose(Renaming):
    """after(first(x)): `first` applies first."""

    after: Renaming
    first: Renaming

    def apply_code(self, code: int) -> Optional[int]:
        mid = self.first.apply_code(code)
        if mid is None:
            return None
        return self.after.apply_code(mid)

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

    def __init__(self, pieces: Iterable[Renaming]):
        self._pieces = tuple(pieces)

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

    def __eq__(self, other):
        return isinstance(other, Piecewise) and self._pieces == other._pieces

    def __hash__(self):
        return hash(self._pieces)


IDENT = IdentityRenaming()
LCODE = KwayCode(1, 2)
RCODE = KwayCode(2, 2)
SWAP = SwapLR()


def l_code(n: Name) -> Name:
    return Name(2 * n.code)


def r_code(n: Name) -> Name:
    return Name(2 * n.code + 1)


def compose_renamings(after: Renaming, first: Renaming) -> Renaming:
    """Composition with canonicalization: identities drop out, a total
    renaming followed by its inverse cancels, and finite maps compose to
    a finite map.  Keeps state keys stable when recursion unfolding
    stacks renamings."""
    if isinstance(after, IdentityRenaming):
        return first
    if isinstance(first, IdentityRenaming):
        return after
    if first.is_total() and after == first.inverse():
        return IDENT
    if isinstance(after, FiniteMap) and isinstance(first, FiniteMap):
        pairs = []
        for src_code, mid in first._map.items():
            out = after.apply_code(mid)
            if out is not None:
                pairs.append((Name(src_code), Name(out)))
        return FiniteMap(pairs)
    return Compose(after, first)


# ---------------------------------------------------------------------------
# Restriction sets: symbolic predicates over labels, decidable membership.


class RestrictionSet:
    def contains_label(self, lab: Label) -> bool:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.describe()

    def blocks(self, a: Action) -> bool:
        """True when the action meets the set or its involution closure."""
        return any(self.contains_label(l) or self.contains_label(l.dual()) for l in a)


class FiniteRestriction(RestrictionSet):
    def __init__(self, labels: Iterable[Label]):
        self._labels = frozenset(labels)

    def contains_label(self, lab: Label) -> bool:
        return lab in self._labels

    def describe(self) -> str:
        return "{" + ",".join(str(l) for l in sorted(self._labels, key=label_key)) + "}"

    def __eq__(self, other):
        return isinstance(other, FiniteRestriction) and self._labels == other._labels

    def __hash__(self):
        return hash(self._labels)

    @property
    def labels(self) -> frozenset:
        return self._labels


@dataclass(frozen=True)
class CodingClass(RestrictionSet):
    """One of the coding regions: Ll, Lr (label halves), N1..N3 (mod-3
    name classes, both polarities) or `all` labels."""

    which: str

    def contains_label(self, lab: Label) -> bool:
        w = self.which
        if w == "all":
            return True
        if w == "Ll":
            return lab.code % 2 == 0
        if w == "Lr":
            return lab.code % 2 == 1
        if w in ("N1", "N2", "N3"):
            return lab.code % 3 == int(w[1]) - 1
        raise ValueError(f"unknown coding class {w}")

    def describe(self) -> str:
        return self.which


class UnionRestriction(RestrictionSet):
    def __init__(self, parts: Iterable[RestrictionSet]):
        self._parts = tuple(parts)

    def contains_label(self, lab: Label) -> bool:
        return any(p.contains_label(lab) for p in self._parts)

    def describe(self) -> str:
        return "(" + "+".join(p.describe() for p in self._parts) + ")"

    def __eq__(self, other):
        return isinstance(other, UnionRestriction) and self._parts == other._parts

    def __hash__(self):
        return hash(self._parts)


ALL_LABELS = CodingClass("all")
LL_CLASS = CodingClass("Ll")
LR_CLASS = CodingClass("Lr")
N2_CLASS = CodingClass("N2")


def union_restriction(l1: RestrictionSet, l2: RestrictionSet) -> RestrictionSet:
    """Canonical union: nested unions flatten, finite parts merge, `all`
    absorbs, parts are deduplicated and ordered.  Canonicity keeps state
    keys stable when restrictions stack up under recursion unfolding."""
    parts: list[RestrictionSet] = []

    def flat(r: RestrictionSet):
        if isinstance(r, UnionRestriction):
            for p in r._parts:
                flat(p)
        else:
            parts.append(r)

    flat(l1)
    flat(l2)
    finite: set = set()
    others: dict[str, RestrictionSet] = {}
    for p in parts:
        if isinstance(p, CodingClass) and p.which == "all":
            return ALL_LABELS
        if isinstance(p, FiniteRestriction):
            finite |= p.labels
        else:
            others[p.describe()] = p
    out: list[RestrictionSet] = [others[k] for k in sorted(others)]
    if finite:
        out.append(FiniteRestriction(finite))
    if len(out) == 1:
        return out[0]
    return UnionRestriction(out)

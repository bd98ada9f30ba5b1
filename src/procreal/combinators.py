"""Process combinators realizing the logical connectives.

The binary interface split (even/odd name codes) makes every process a
box with a left and a right port group.  Tensor places two processes on
disjoint halves; the applications hide one half and force interaction
there; composition chains through a hidden middle region of the
three-way split.  The identity wire relays every action over a finite
alphabet between its two halves simultaneously.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .names import (
    ALPHA,
    BETA,
    DELTA,
    GAMMA,
    LCODE,
    LL_CLASS,
    LR_CLASS,
    Label,
    N2_CLASS,
    Name,
    OMEGA,
    PhiCode,
    RCODE,
    SWAP,
    action_key,
    dual_action,
    kept,
    l_code,
    label_key,
    negative,
    positive,
    r_code,
)
from .terms import (
    NIL,
    Par,
    Prefix,
    Rec,
    Restrict,
    Sum,
    Term,
    Var,
    free_process_vars,
    rename,
    sort_labels,
)

Alphabet = frozenset  # of Name


class AlphabetTooLarge(Exception):
    pass


# The wire has one branch per nonempty action over its 2n labels: 255 at
# n = 4, four times as many with each further name.
WIRE_MAX_NAMES = 4


def fresh_var(base: str, term: Term) -> str:
    used = free_process_vars(term)
    if base not in used:
        return base
    i = 1
    while f"{base}{i}" in used:
        i += 1
    return f"{base}{i}"


# The codings the applications and composition rename through, built once
# as kept maps, so a node built over one finds its table entry by identity.
_PHI12 = kept(PhiCode(1, 2))
_PHI23 = kept(PhiCode(2, 3))
_PHI13_INV = kept(PhiCode(1, 3).inverse())
_LCODE_INV = kept(LCODE.inverse())
_RCODE_INV = kept(RCODE.inverse())


def tensor(p: Term, q: Term) -> Term:
    """Disjoint parallel composition: p on the l-half, q on the r-half."""
    return Par(rename(p, LCODE), rename(q, RCODE))


def lapp(q: Term, p: Term) -> Term:
    """Left application: q is relabelled into p's left half, interaction
    there is forced, and the remaining right-half behaviour is renamed
    back to the full name space."""
    return rename(Restrict(Par(rename(q, LCODE), p), LL_CLASS), _RCODE_INV)


def rapp(p: Term, r: Term) -> Term:
    """Right application, the mirror image of lapp."""
    return rename(Restrict(Par(p, rename(r, RCODE)), LR_CLASS), _LCODE_INV)


def seq(p: Term, q: Term) -> Term:
    """Composition: p's right half meets q's left half in the hidden
    middle region of the three-way split."""
    inner = Par(rename(p, _PHI12), rename(q, _PHI23))
    return rename(Restrict(inner, N2_CLASS), _PHI13_INV)


def act_plus(alphabet: Alphabet) -> list:
    """All nonempty actions over the alphabet's labels, canonically ordered."""
    labels = sorted(
        [positive(n) for n in alphabet] + [negative(n) for n in alphabet],
        key=label_key,
    )
    actions = []
    for k in range(1, len(labels) + 1):
        for combo in combinations(labels, k):
            actions.append(frozenset(combo))
    actions.sort(key=lambda a: (len(a), action_key(a)))
    return actions


@lru_cache(maxsize=256)
def identity_wire(alphabet: Alphabet) -> Term:
    """The wire relaying each action a over the alphabet on its left half
    simultaneously with the dual action on its right half.  The empty
    alphabet yields the inert process.  Built once per alphabet (a
    frozenset) and kept, so equal alphabets give one node and a repeated
    call builds none of its up to 255 branches."""
    if len(alphabet) > WIRE_MAX_NAMES:
        raise AlphabetTooLarge(
            f"identity wire over {len(alphabet)} names exceeds the cap {WIRE_MAX_NAMES}"
        )
    if not alphabet:
        return NIL
    var = "W"
    branches = []
    for a in act_plus(alphabet):
        guard = frozenset(Label(2 * l.code, l.neg) for l in a) | frozenset(
            Label(2 * l.code + 1, l.neg) for l in dual_action(a)
        )
        branches.append((guard, Var(var)))
    return Rec(var, Sum(tuple(branches)))


def pairing(p: Term, q: Term, port: str = "right") -> Term:
    """External choice between p and q, guarded by the two fixed choice
    atoms.  port="right" codes the guards into the r-half (the shape used
    when the choice lives on the last position of an interface);
    port="plain" uses the bare atoms (the canonical standalone shape).
    """
    if port == "right":
        ga, gb = positive(r_code(ALPHA)), positive(r_code(BETA))
    elif port == "plain":
        ga, gb = positive(ALPHA), positive(BETA)
    else:
        raise ValueError(f"unknown pairing port {port!r}")
    return Sum(((frozenset([ga]), p), (frozenset([gb]), q)))


def inj_l(p: Term, port: str = "left") -> Term:
    """First-branch selector: emits the co-alpha choice signal.  The
    default "left" port is the shape that plugs into a composition's
    hidden middle from the right-hand side."""
    lab = negative(l_code(ALPHA)) if port == "left" else negative(ALPHA)
    if port not in ("left", "plain"):
        raise ValueError(f"unknown injection port {port!r}")
    return Prefix(frozenset([lab]), p)


def inj_r(p: Term, port: str = "left") -> Term:
    lab = negative(l_code(BETA)) if port == "left" else negative(BETA)
    if port not in ("left", "plain"):
        raise ValueError(f"unknown injection port {port!r}")
    return Prefix(frozenset([lab]), p)


def bang(p: Term) -> Term:
    """Replicable resource: offer one copy, be discarded, or split in two."""
    var = fresh_var("X", p)
    split = Par(rename(Var(var), LCODE), rename(Var(var), RCODE))
    return Rec(
        var,
        Sum(
            (
                (frozenset([positive(OMEGA)]), NIL),
                (frozenset([positive(DELTA)]), p),
                (frozenset([positive(GAMMA)]), split),
            )
        ),
    )


def swap_halves(p: Term) -> Term:
    """Interchanges the left/right interface partition."""
    return rename(p, SWAP)


# ---------------------------------------------------------------------------
# Alphabet helpers for placing identity wires against a given process.


def full_interface(p: Term) -> Alphabet:
    """Names underlying the (finite) sort; the wire alphabet for the
    applications' identity laws."""
    labels = sort_labels(p)
    if labels is None:
        raise AlphabetTooLarge("term has no finite sort")
    return frozenset(Name(l.code) for l in labels)


def right_interface(p: Term) -> Alphabet:
    """Decoded names of the sort's r-half; the wire alphabet making
    seq(p, wire) an identity."""
    labels = sort_labels(p)
    if labels is None:
        raise AlphabetTooLarge("term has no finite sort")
    return frozenset(Name((l.code - 1) // 2) for l in labels if l.code % 2 == 1)


def left_interface(p: Term) -> Alphabet:
    labels = sort_labels(p)
    if labels is None:
        raise AlphabetTooLarge("term has no finite sort")
    return frozenset(Name(l.code // 2) for l in labels if l.code % 2 == 0)

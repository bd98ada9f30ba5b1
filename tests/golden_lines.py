"""Printed semantic types, realizers and graph exports compared against
`tests/golden/`.

Printed names read the atom registry, and a name registered late can take
the code of a coded name (with atoms a and b registered, the value name
sigma_0 gets code 8, which is also l(gamma)).  Earlier tests grow the
registry, so the lines are computed in a fresh interpreter:

    PYTHONPATH=src python tests/golden_lines.py formula_types
    PYTHONPATH=src python tests/golden_lines.py formula_wires
    PYTHONPATH=src python tests/golden_lines.py corpus_realizers
    PYTHONPATH=src python tests/golden_lines.py lts_exports
    PYTHONPATH=src python tests/golden_lines.py explorations
    PYTHONPATH=src python tests/golden_lines.py bounded_failures
    PYTHONPATH=src python tests/golden_lines.py value_passing

The cut-elimination trails read no registry, so their test computes them
in its own interpreter; they are written with

    PYTHONPATH=src python tests/golden_lines.py eta_trails > tests/golden/eta_trails.txt
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

from conftest import subprocess_env
from procreal.cli import _checked_term
from procreal.combinators import bang, identity_wire, lapp, rapp, seq
from procreal.corpus import corpus_proofs
from procreal.equivalence import failures_bounded
from procreal.exercises import atom_type, pairing_counterexample
from procreal.extraction import extract, formula_wire
from procreal.generators import random_term
from procreal.logic import PAxiom, PCut, cut_eliminate, parse_formula, proof_to_json
from procreal.names import ALL_LABELS, REGISTRY, action_key, l_code, print_name, r_code
from procreal.parsing import parse_term
from procreal.semantics import _MEMO, BudgetExceeded, ExplorationBudget, build_lts
from procreal.semtypes import formula_to_type, unit_type
from procreal.terms import Par, Restrict, print_term

GOLDEN = Path(__file__).parent / "golden"

# every connective, negated atoms and compounds, and quantifiers over (0, 1)
TYPE_FORMULAS = (
    "a", "~a", "u", "a*b", "a@b", "a&b", "a(+)b", "!a", "?a", "~a*b", "a@~b", "~(a@~b)",
    "~a&b", "~(a&b)", "a(+)~b", "a@(b(+)~a)", "(a*b)@u", "?(a@~b)", "!(a&~b)", "~a(+)?b",
    "?~a", "!~a", "~!a", "forall x. a(x)", "exists x. a(x)", "~(forall x. a(x))",
    "forall x. (a(x)@~b)", "exists x. (a(x)*b)", "exists x. (a(x)&~b)",
    "forall x. exists y. (a(x)@b(y))", "exists x. ?a(x)",
)


def formula_types() -> list:
    """The classes and interface of `formula_to_type` on each formula."""
    env = {"a": atom_type("a"), "b": atom_type("b"), "u": unit_type()}
    budget = ExplorationBudget(max_states=3000)
    lines = []
    for text in TYPE_FORMULAS:
        ty = formula_to_type(parse_formula(text), env, budget, (0, 1))
        iface = "-" if ty.interface is None else ",".join(sorted(map(print_name, ty.interface)))
        lines.append(f"{text} | interface {iface}")
        for side in ("pos", "neg"):
            for cls in getattr(ty, side).classes:
                lines.append(f"  {side} " + " ; ".join(map(print_term, cls)))
    return lines


def formula_wires() -> list:
    """The axiom wire of each formula of `TYPE_FORMULAS`."""
    return [f"{text} | {print_term(formula_wire(parse_formula(text), {}, (0, 1)))}" for text in TYPE_FORMULAS]


def corpus_realizers() -> list:
    """The realizer of every corpus proof and of every proof on its
    cut-elimination trail."""
    lines = []
    for name, entry in corpus_proofs().items():
        for step, proof in enumerate(cut_eliminate(entry["proof"], keep_trail=True).trail):
            lines.append(f"{name} {step} {print_term(extract(proof, {}, entry['values']))}")
    return lines


# complete graphs: a wire, the three applications of the combinator layer,
# coded names and the pairing counterexample
LTS_TERMS = (
    "wire({a,b})",
    "seq({r(a)}.{r(b)}.0, wire({a,b}))",
    "lapp({a}.0 + {c}.0, {~l(a)}.{r(b)}.0 + {~l(c)}.{r(d)}.0)",
    "rapp({l(a)}.{r(b)}.{l(c)}.0, {~b}.0)",
    "({l(a),r(a)}.{~n1(b)}.0 | {n1(b)}.0 | {~l(a)}.0) \\ {n1(b)}",
)


def lts_exports() -> list:
    """`lts --format json` and `--format dot` of each graph."""
    lines = []
    terms = [(text, parse_term(text)) for text in LTS_TERMS]
    lhs, rhs = pairing_counterexample()
    terms += [("pairing counterexample, left", lhs), ("pairing counterexample, right", rhs)]
    for name, t in terms:
        lts = build_lts(t)
        assert lts.complete, name
        lines.append(f"== {name}")
        lines += json.dumps(lts.to_json(), indent=2, sort_keys=True).splitlines()
        lines += lts.to_dot().splitlines()
    return lines


def _exploration_inputs() -> list:
    """(name, term, state budget) of each exploration `explorations`
    prints: a cut of `!a` against its dual axiom and its reduct, the
    `seq(bang(w), w)` probe, and the closures of seeded random terms under
    `seq`, `lapp`, `rapp` and the closed composition of `perp`."""
    bang_a, why_not = parse_formula("!a"), parse_formula("?~a")
    trail = cut_eliminate(PCut(bang_a, PAxiom(bang_a), PAxiom(why_not)), keep_trail=True).trail
    cut, reduct = (extract(proof, {}, ()) for proof in trail)
    wire = identity_wire(frozenset([REGISTRY.intern("a")]))
    inputs = [
        (f"{name}, {states} states", t, states)
        for name, t in (("!a cut", cut), ("!a cut reduct", reduct))
        for states in (10, 60)
    ]
    inputs += [("seq(bang(w), w), 30 states", seq(bang(wire), wire), 30)]
    rng = random.Random(2014)
    a, b = REGISTRY.intern("a"), REGISTRY.intern("b")
    atoms = (l_code(a), r_code(a), l_code(b), r_code(b))  # each closure's interface
    for k in range(6):
        # a replicated side, so the closures meet moves again and again
        p = bang(random_term(rng, atoms, rng.randint(4, 10)))
        q = random_term(rng, atoms, rng.randint(4, 10))
        inputs += [
            (f"seq {k}", seq(p, q), 12),
            (f"lapp {k}", lapp(q, p), 12),
            (f"rapp {k}", rapp(p, q), 12),
            (f"perp {k}", Restrict(Par(p, q), ALL_LABELS), 12),
        ]
    return inputs


def explorations() -> list:
    """Each exploration of `_exploration_inputs`: its limit, its states in
    admission order and each state's transitions in order, as (action key,
    target index); then the step tier's counters over them all, from an
    emptied memo."""
    inputs = _exploration_inputs()
    _MEMO.clear()
    lines = []
    for name, t, states in inputs:
        lts = build_lts(t, ExplorationBudget(max_states=states))
        index = {s: k for k, s in enumerate(lts.terms)}
        lines.append(f"== {name} | {lts.limit or 'complete'}")
        for s in lts.terms:
            lines.append(f"{index[s]} {print_term(s)}")
            moves = " ".join(f"{action_key(a)}>{index[dst]}" for a, dst in lts.successors(s))
            lines.append(f"  {moves or 'none'}")
    tier = _MEMO.steps
    lines.append(f"step tier: {tier.hits} hits, {tier.misses} misses, "
                 f"{tier.evictions} evictions, weight {tier.weight}")
    return lines


# the two terms of test_failures_bounded_names_the_limit_it_reached, a
# second restriction stacked under recursion, and two one-state loops whose
# traces outrun the transition budget at small state budgets
BOUNDED_TERMS = (
    r"rec X. ({}.X \ {a,b}) [map{a:b,b:a}]",
    "{a}.0 | {b}.0 | {c}.0 | {d}.0 | {e}.0 | {f}.0",
    r"rec X. ({}.X [map{a:b,b:a}] \ {a})",
    "rec X. ({a}.X + {b}.X)",
    "rec X. ({a}.X + {~a}.X + {b}.X)",
)


def bounded_failures() -> list:
    """`failures_bounded` of seeded random terms (with recursion, renaming
    and restriction), of the parallel compositions of pairs of them and of
    `BOUNDED_TERMS`, at a grid of depths and state budgets where the state
    budget, the transition budget and the depth cap each fire: one line
    per (term, depth, budget), with a sha256 of the failures' JSON or the
    limit the call names."""
    rng = random.Random(25)
    atoms = (REGISTRY.intern("a"), REGISTRY.intern("b"))
    terms = [random_term(rng, atoms, rng.randint(4, 14)) for _ in range(80)]
    terms += [Par(terms[i], terms[i + 1]) for i in range(0, 40, 2)]
    terms += [parse_term(text) for text in BOUNDED_TERMS]
    grid = [(depth, states) for depth in (0, 1, 3, 6, 12) for states in (1, 3, 10, 40, 100)]
    lines = []
    for t in terms:
        for depth, states in grid + [(4, ExplorationBudget().max_states)]:
            try:
                table = json.dumps(failures_bounded(t, depth, ExplorationBudget(max_states=states)).to_json())
                outcome = hashlib.sha256(table.encode("utf-8")).hexdigest()
            except BudgetExceeded as exc:
                outcome = str(exc)
            lines.append(f"{print_term(t)} | depth {depth} | states {states} | {outcome}")
    return lines


# value-passing programs, each with its value domain, read in this order
# into one registry: a written name first met inside an input's body, a
# written value name, nested inputs of one variable, a restriction over
# value names, a one-value domain, a value name met first through a
# binding, an unused binding with a value outside the domain (whose value
# names the next program's action would order first, had it made them),
# a builder's argument and a recursion over a domain in descending order
VALUE_PROGRAMS = (
    ("in s(x). {e}.out s(x). 0", (0, 1)),
    ("{f,~k_1}.in k(x). out k(x). {g}.0", (0, 1)),
    ("in m(x). in m(x). out m(x). 0", (0, 1)),
    ("(in p(x). out q(x). 0 | in q(y). {~h}.0) \\ {q_0,q_1}", (0, 1)),
    ("{c}.in a1(x). 0 + {d}.{a1_0}.0", (0,)),
    ("out u(0). {i}.0 | {j}.out u(1). 0", (0, 1)),
    ("P = out w(1). 0;\nQ = in v(x). out v(7). 0;\nmain = out w(0). P | in w(z). {n}.0;\n", (0, 1)),
    ("in v(x). out v(x). 0 | {o}.0", (0, 1)),
    ("tensor(in y(x). out y(x). 0, {b1}.0)", (0, 1)),
    ("rec X. in z(x). out z(x). X", (1, 0)),
)


def value_passing() -> list:
    """`lts --format json` and depth-3 `failures` (one line per trace) of
    each program of `VALUE_PROGRAMS`, read as a term file is."""
    lines = []
    for text, values in VALUE_PROGRAMS:
        t = _checked_term(text, "program", values)
        lines.append(f"== {text!r} over {values}")
        lines += json.dumps(build_lts(t).to_json(), indent=2, sort_keys=True).splitlines()
        lines += [json.dumps(entry, sort_keys=True) for entry in failures_bounded(t, 3).to_json()]
    return lines


def trail_line(name: str, res) -> str:
    """One line of `eta_trails`: the status, step count and step kinds of
    the `cut_eliminate` result `res` kept with its trail, and a sha256 of
    the trail's JSON."""
    trail = json.dumps([proof_to_json(p) for p in res.trail])
    digest = hashlib.sha256(trail.encode("utf-8")).hexdigest()
    return f"{name} | {res.status} {res.steps} | {' '.join(res.kinds)} | {digest}"


def eta_trails() -> list:
    """The trail of each cut of `test_logic.eta_cuts`: the eta cuts, then
    one hand-built cut per commuting conversion they miss."""
    from test_logic import eta_cuts  # which imports this module

    return [trail_line(name, cut_eliminate(cut, keep_trail=True)) for name, cut in eta_cuts()]


def fresh_lines(which: str) -> list:
    proc = subprocess.run(
        [sys.executable, __file__, which],
        capture_output=True, text=True, env=subprocess_env(), check=True,
    )
    return proc.stdout.splitlines()


def golden_lines(which: str) -> list:
    return (GOLDEN / f"{which}.txt").read_text(encoding="utf-8").splitlines()


if __name__ == "__main__":
    goldens = {
        "formula_types": formula_types,
        "formula_wires": formula_wires,
        "corpus_realizers": corpus_realizers,
        "lts_exports": lts_exports,
        "explorations": explorations,
        "eta_trails": eta_trails,
        "bounded_failures": bounded_failures,
        "value_passing": value_passing,
    }
    print("\n".join(goldens[sys.argv[1]]()))

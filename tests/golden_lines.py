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
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from conftest import subprocess_env
from procreal.corpus import corpus_proofs
from procreal.exercises import atom_type, pairing_counterexample
from procreal.extraction import extract, formula_wire
from procreal.logic import cut_eliminate, parse_formula
from procreal.names import print_name
from procreal.parsing import parse_term
from procreal.semantics import ExplorationBudget, build_lts
from procreal.semtypes import formula_to_type, unit_type
from procreal.terms import print_term

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
    }
    print("\n".join(goldens[sys.argv[1]]()))

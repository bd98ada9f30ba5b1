"""Command-line front end.

Exit codes: 0 success/equal/pass, 1 distinguished/fail/no, 2
unknown/budget or memory exhausted, 3 usage or parse errors.  Output is
deterministic for fixed inputs and seed: collections print sorted and
reports are dumped with stable key order.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .combinators import AlphabetTooLarge
from .equivalence import BOUNDED_DEPTH, BudgetExceeded, failures_bounded, failures_equiv, perp, weak_bisim
from .exercises import TRIALS, run_exercises
from .extraction import extract, verify_cut_soundness
from .logic import (
    STEP_BOUND,
    conclusion,
    cut_eliminate,
    load_proof,
    parse_formula,
    print_sequent,
)
from .names import IDENTIFIER, REGISTRY, RenamingDomainError, is_identifier
from .parsing import ParseError, parse_program, value_domain
from .semantics import VERDICT_OK, ExplorationBudget, build_lts
from .semtypes import BANG_FUEL, SemType, formula_to_type, law_outcome, partition, realizes_pos
from .terms import Term, print_term, well_formed

EXIT_OK = 0
EXIT_DISTINGUISHED = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3

# The exit code of a verdict of equiv, perp, verify-cut, check-type and
# exercises, by whether it answers its question yes (`Verdict.ok`).
EXIT_CODES = {True: EXIT_OK, False: EXIT_DISTINGUISHED, None: EXIT_UNKNOWN}


class CliError(Exception):
    pass


def load_term(path: str, values: tuple) -> Term:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    return _checked_term(text, path, values)


def _checked_term(text: str, where: str, values: tuple) -> Term:
    """Every term a user supplies: parsed, its value-passing prefixes
    read over `values`, and checked well formed.  Errors name `where`."""
    try:
        main = parse_program(text, values)
    except ParseError as exc:
        raise CliError(f"{where}: {exc}")
    if main is None:
        raise CliError(f"{where}: no term (bind `main = ...;` or end with a bare term)")
    diags = well_formed(main)
    if diags:
        raise CliError(f"{where}: " + "; ".join(diags))
    return main


def _budget(args) -> ExplorationBudget:
    return ExplorationBudget(max_states=args.max_states)


def _emit(data, args) -> None:
    if args.format == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        _emit_text(data)


def _emit_text(data, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(data, dict):
        for key in data:
            value = data[key]
            if isinstance(value, (dict, list)):
                print(f"{pad}{key}:")
                _emit_text(value, indent + 1)
            else:
                print(f"{pad}{key}: {value}")
    elif isinstance(data, list):
        for item in data:
            if isinstance(item, (dict, list)):
                _emit_text(item, indent)
                print()
            else:
                print(f"{pad}{item}")
    else:
        print(f"{pad}{data}")


def _verdict_out(res, word: str = "verdict", witness: str = "witness") -> dict:
    """A verdict's word under `word`, then its witness and detail if set."""
    out = {word: res.verdict}
    if res.witness is not None:
        out[witness] = res.witness
    if res.detail:
        out["detail"] = res.detail
    return out


def cmd_lts(args) -> int:
    term = load_term(args.term, args.values)
    budget = _budget(args)
    lts = build_lts(term, budget)
    if args.format == "dot":
        print(lts.to_dot())
    else:
        print(json.dumps(lts.to_json(), indent=2, sort_keys=True))
    if not lts.complete:
        print(f"{lts.limit}; graph is partial", file=sys.stderr)
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_failures(args) -> int:
    term = load_term(args.term, args.values)
    fs = failures_bounded(term, args.depth, _budget(args))
    print(json.dumps(fs.to_json(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_equiv(args) -> int:
    t1 = load_term(args.left, args.values)
    t2 = load_term(args.right, args.values)
    if args.mode == "weak-bisim":
        res = weak_bisim(t1, t2, _budget(args))
    else:
        res = failures_equiv(t1, t2, _budget(args), args.depth)
    _emit(_verdict_out(res), args)
    return EXIT_CODES[res.ok]


def cmd_perp(args) -> int:
    t1 = load_term(args.left, args.values)
    t2 = load_term(args.right, args.values)
    res = perp(t1, t2, _budget(args))
    _emit(_verdict_out(res, "perp"), args)
    return EXIT_CODES[res.ok]


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _is_names(x) -> bool:
    return isinstance(x, list) and all(isinstance(n, str) for n in x)


def _idents(path: str, what: str, names: list) -> list:
    """`names`, each checked against the term reader's identifier rule."""
    for n in names:
        if not is_identifier(n):
            raise CliError(f"{path}: {what} {n!r} is not an identifier ({IDENTIFIER})")
    return names


def _load_atom_env(path: Optional[str]) -> dict:
    if path is None:
        return {}
    raw = _load_json(path)
    if not isinstance(raw, dict) or not all(_is_names(names) for names in raw.values()):
        raise CliError(f"{path}: expected an object mapping each atom to a list of names")
    return {
        ident: frozenset(REGISTRY.intern(n) for n in _idents(path, f"atom {ident!r}: name", names))
        for ident, names in raw.items()
    }


def _load_checked_proof(path: str):
    """The proof in the file and its checked conclusion."""
    proof = load_proof(path)
    return proof, conclusion(proof)


def cmd_extract(args) -> int:
    proof, sequent = _load_checked_proof(args.proof)
    env = _load_atom_env(args.atoms)
    term = extract(proof, env, args.values)
    text = print_term(term)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(f"conclusion: {print_sequent(sequent)}", file=sys.stderr)
    return EXIT_OK


def cmd_verify_cut(args) -> int:
    proof, sequent = _load_checked_proof(args.proof)
    env = _load_atom_env(args.atoms)
    budget = _budget(args)
    elim = cut_eliminate(proof, args.step_bound, keep_trail=True)
    steps = []
    for count, (before, after, kind) in enumerate(zip(elim.trail, elim.trail[1:], elim.kinds)):
        report = verify_cut_soundness(before, after, env, args.values, budget, args.depth)
        steps.append({"step": count, "kind": kind, **_verdict_out(report)})
    if elim.status != "done":  # "stuck" or "bound"
        steps.append({"step": elim.steps, "kind": elim.status, "verdict": "unknown", "detail": elim.detail})
    ok = law_outcome(VERDICT_OK[entry["verdict"]] for entry in steps)
    out = {
        "conclusion": print_sequent(sequent),
        "steps": steps,
        "cut_free": elim.status == "done",
        "overall": _LAW_VERDICTS[ok],
    }
    _emit(out, args)
    if args.format != "json":
        for entry in steps:
            print(f"step {entry['step']:3d} {entry['kind']:<22} {entry['verdict']}")
    return EXIT_CODES[ok]


def _load_type_env(path: str, values: tuple, budget: ExplorationBudget):
    """The file's atom types, and the value domain: `values` when given,
    else the file's "values"."""
    raw = _load_json(path)
    atoms = raw.get("atoms", {}) if isinstance(raw, dict) else None
    env_values = raw.get("values", []) if isinstance(raw, dict) else None
    if not isinstance(atoms, dict) or not isinstance(env_values, list) or not all(
        type(v) is int for v in env_values
    ):
        raise CliError(f'{path}: expected an "atoms" object and a "values" list of integers')
    try:
        values = values or value_domain(env_values)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}")
    atom_types = {}
    for ident, spec in atoms.items():
        if not (
            isinstance(spec, dict)
            and _is_names(spec.get("pos"))
            and _is_names(spec.get("neg"))
            and _is_names(spec.get("alphabet", []))
        ):
            raise CliError(
                f'{path}: atom {ident!r} needs "pos" and "neg" lists of terms '
                f'and an optional "alphabet" list of names'
            )
        _idents(path, "atom", [ident])
        names = _idents(path, f"atom {ident!r}: alphabet name", spec.get("alphabet", [ident]))
        alphabet = frozenset(REGISTRY.intern(n) for n in names)
        pos = _partition_side(spec, ident, "pos", path, values, budget)
        neg = _partition_side(spec, ident, "neg", path, values, budget)
        atom_types[ident] = SemType(pos, neg, alphabet)
    return atom_types, values


def _partition_side(spec: dict, ident: str, side: str, path: str, values: tuple, budget):
    """The classes of one side of an environment atom; an undecided
    partition names the atom and the side."""
    terms = [_checked_term(s, path, values) for s in spec[side]]
    try:
        return partition(terms, budget)
    except BudgetExceeded as exc:
        raise BudgetExceeded(f"atom {ident!r} {side}: {exc}") from exc


def cmd_check_type(args) -> int:
    budget = _budget(args)
    atom_types, values = _load_type_env(args.type_env, args.values, budget)
    term = load_term(args.term, values)
    formula = parse_formula(args.type)
    try:
        ty = formula_to_type(formula, atom_types, budget, values, fuel=args.fuel)
    except ValueError as exc:  # e.g. an atom the environment does not declare
        raise CliError(f"{args.type_env}: {exc}") from exc
    cls = realizes_pos(term, ty, budget)
    _emit(_verdict_out(cls, witness="class"), args)
    return EXIT_CODES[cls.ok]


# a law report's or a cut check's "ok" (`semtypes.law_outcome`) as a verdict
_LAW_VERDICTS = {True: "pass", False: "fail", None: "unknown"}


def cmd_exercises(args) -> int:
    report = run_exercises(args.seed, _budget(args), trials=args.trials)
    # under --format json, stdout carries the JSON document alone
    status_out = sys.stderr if args.format == "json" else sys.stdout
    for suite in report["suites"]:
        status = _LAW_VERDICTS[suite["ok"]]
        print(f"suite {suite['suite']:<12} {'FAIL' if status == 'fail' else status}", file=status_out)
        if status != "pass":
            for check in suite["checks"]:
                if check["ok"] is not True:
                    print(f"  {check['law'] if 'law' in check else check['check']}: {check.get('detail','')}",
                          file=status_out)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_CODES[report["ok"]]


def _parse_values(text: Optional[str]) -> tuple:
    if not text:
        return ()
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise CliError(f"invalid value domain {text!r}; expected comma-separated integers")
    try:
        return value_domain(values)
    except ValueError as exc:
        raise CliError(f"--values {text}: {exc}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error, in one line as the other errors are reported."""
        self.exit(2, f"{self.prog}: error: {message}\n")


# The options several subcommands share; each takes those it reads.
_OPTIONS = {
    "--max-states": dict(type=int, default=ExplorationBudget.max_states, metavar="N"),
    "--depth": dict(type=int, default=BOUNDED_DEPTH, metavar="K"),
    "--seed": dict(type=int, default=0, metavar="S"),
    "--format": dict(choices=["json", "text"], default="text"),
    "--values": dict(type=str, default="", metavar="V1,V2,..."),
}


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="procreal",
        description="Process calculus with simultaneous actions, failures "
        "equivalence, and proof-to-process extraction.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help, *options):
        p = sub.add_parser(name, help=help)
        for flag in options:
            p.add_argument(flag, **_OPTIONS[flag])
        p.set_defaults(func=func)
        return p

    p = command("lts", cmd_lts, "explore a term's transition graph", "--max-states", "--values")
    p.add_argument("term")
    p.add_argument("--format", choices=["json", "dot"], default="json")

    p = command("failures", cmd_failures, "bounded failures of a term", "--max-states", "--depth", "--values")
    p.add_argument("term")

    p = command("equiv", cmd_equiv, "decide equivalence of two terms",
                "--max-states", "--depth", "--format", "--values")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--mode", choices=["failures", "weak-bisim"], default="failures")

    p = command("perp", cmd_perp, "orthogonality of two terms", "--max-states", "--format", "--values")
    p.add_argument("left")
    p.add_argument("right")

    p = command("extract", cmd_extract, "extract a process from a proof", "--values")
    p.add_argument("proof")
    p.add_argument("--atoms", default=None, help="atom alphabet JSON")
    p.add_argument("-o", "--output", default=None)

    p = command("verify-cut", cmd_verify_cut, "stepwise cut elimination with equivalence checks",
                "--max-states", "--depth", "--format", "--values")
    p.add_argument("proof")
    p.add_argument("--atoms", default=None)
    p.add_argument("--step-bound", type=int, default=STEP_BOUND)

    p = command("check-type", cmd_check_type, "classify a term against a semantic type",
                "--max-states", "--format", "--values")
    p.add_argument("term")
    p.add_argument("type_env", help="type environment JSON")
    p.add_argument("type", help="type expression, e.g. 'a*b'")
    p.add_argument("--fuel", type=int, default=BANG_FUEL)

    p = command("exercises", cmd_exercises, "run the named verification suites",
                "--max-states", "--seed", "--format")
    p.add_argument("--trials", type=int, default=TRIALS)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        args.values = _parse_values(getattr(args, "values", ""))
        if getattr(args, "depth", 0) < 0:
            raise CliError("--depth must be at least 0")
        if getattr(args, "trials", 1) < 1:
            raise CliError("--trials must be at least 1")
        if getattr(args, "step_bound", 0) < 0:
            raise CliError("--step-bound must be at least 0")
        if getattr(args, "fuel", 0) < 0:
            raise CliError("--fuel must be at least 0")
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except (ParseError, json.JSONDecodeError, ValueError, OSError, RenamingDomainError,
            AlphabetTooLarge) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("input nested too deeply", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:  # no verdict, as when a budget runs out
        print("memory exhausted before an answer was reached", file=sys.stderr)
        return EXIT_UNKNOWN


if __name__ == "__main__":
    sys.exit(main())

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import run_capped, subprocess_env
from golden_lines import fresh_lines, golden_lines

from procreal.cli import build_parser, main
from procreal.corpus import corpus_proofs
from procreal.logic import (
    FAtom,
    FBang,
    PAxiom,
    PCut,
    PDerel,
    PExchange,
    PParR,
    PProm,
    PTensorR,
    negate,
    proof_to_json,
)
from procreal.equivalence import BOUNDED_DEPTH
from procreal.parsing import parse_term
from procreal.semantics import _MEMO, ExplorationBudget
from procreal.semtypes import law_outcome


@pytest.fixture()
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return write


def test_lts_json(files, capsys):
    path = files("w.term", "rec X. {a,b}.X\n")
    assert main(["lts", path, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["states"] == ["rec X. {a,b}.X"]
    assert data["complete"] is True


def test_lts_dot(files, capsys):
    path = files("w.term", "{a}.0\n")
    assert main(["lts", path, "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_equiv_equal_exit_zero(files, capsys):
    p = files("p.term", "{a}.{b}.0\n")
    assert main(["equiv", p, p]) == 0


def test_equiv_distinguished_exit_one_with_witness(files, capsys):
    p = files("p.term", "{a}.({b}.0 + {c}.0)\n")
    q = files("q.term", "{a}.{b}.0 + {a}.{c}.0\n")
    assert main(["equiv", p, q, "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "distinguished"
    assert data["witness"]["trace"] == ["{a}"]


def test_running_out_of_memory_exits_two_with_one_line(files, capsys, monkeypatch):
    # out of memory is no verdict, not "distinguished" (exit 1)
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr("procreal.cli.cmd_equiv", exhausted)
    p = files("p.term", "{a}.0\n")
    assert main(["equiv", p, p]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "memory exhausted before an answer was reached\n"


def test_equiv_unknown_exit_two(files, capsys):
    p = files("p.term", "rec X. {a}.(X [n1of3])\n")
    q = files("q.term", "rec X. {a}.(X [n1of3]) | 0\n")
    assert main(["equiv", p, q, "--max-states", "30", "--depth", "2"]) == 2


def test_partial_graph_names_depth_cap(files, capsys):
    # 300 nested prefixes exceed the depth cap long before the state budget
    path = files("deep.term", "{a}." * 300 + "0\n")
    assert main(["lts", path, "--max-states", "5000"]) == 2
    err = capsys.readouterr().err
    assert "depth cap" in err and "state budget" not in err
    assert main(["equiv", path, path, "--mode", "weak-bisim", "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().out)["detail"] == "depth cap 200 reached"
    # the bounded route names the limit in the same words
    assert main(["equiv", path, path, "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().out)["detail"] == "budget exhausted: depth cap 200 reached"
    assert main(["failures", path]) == 2
    assert capsys.readouterr().err == "budget exhausted: depth cap 200 reached\n"


def test_failures_trace_table_is_bounded_by_the_transition_budget(files):
    # one state, two loops: the traces double with each level, and each is
    # counted against the transition budget (200 per state), so depth 24,
    # some 33 million traces, ends at 10,000 of them
    path = files("loop.term", "rec X. ({a}.X + {b}.X)\n")
    code = (
        "import sys\n"
        "from procreal.cli import main\n"
        f"sys.exit(main(['failures', {path!r}, '--depth', '24', '--max-states', '50']))\n"
    )
    proc = run_capped(code, 1 << 30, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "budget exhausted: transition budget 10000 exhausted\n"
    # below the bound the table is whole: 2^12 - 1 traces to depth 11
    assert main(["failures", path, "--depth", "11", "--max-states", "50"]) == 0


def test_deeply_nested_input_exits_three(files):
    # 20,000 nested prefixes overflow the recursive-descent parser; the
    # command must say so and exit 3 (input), not 1 with a traceback
    path = files("deeper.term", "{a}." * 20000 + "0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "procreal.cli", "lts", path],
        capture_output=True, text=True, env=subprocess_env(),
    )
    assert proc.returncode == 3
    assert "nested too deeply" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_equiv_weak_bisim_mode(files):
    p = files("p.term", "{}.{a}.0\n")
    q = files("q.term", "{a}.0\n")
    assert main(["equiv", p, q, "--mode", "weak-bisim"]) == 0


def test_perp_exit_codes(files):
    p = files("p.term", "{a}.0\n")
    q = files("q.term", "{~a}.0\n")
    loop = files("loop.term", "rec X. {}.X\n")
    nil = files("nil.term", "0\n")
    assert main(["perp", p, q]) == 0
    assert main(["perp", loop, nil]) == 1


def test_an_undecided_perp_names_the_limit(files, capsys):
    # both sides replicate, so no state budget closes the composition
    p = files("p.term", "rec X. ({a}.0 + {b}.(X|X))\n")
    q = files("q.term", "rec Y. {~b}.(Y|Y)\n")
    assert main(["perp", p, q, "--max-states", "20"]) == 2
    assert capsys.readouterr().out.splitlines() == ["perp: unknown", "detail: state budget exhausted"]
    assert main(["perp", p, q, "--max-states", "20", "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().out) == {"perp": "unknown", "detail": "state budget exhausted"}


def test_parse_error_exit_three(files, capsys):
    bad = files("bad.term", "{a}.0 +\n")
    assert main(["equiv", bad, bad]) == 3
    assert "line" in capsys.readouterr().err


def test_failures_depth(files, capsys):
    p = files("p.term", "{a}.0\n")
    assert main(["failures", p, "--depth", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == [
        {"acceptances": [["{a}"]], "trace": []},
        {"acceptances": [[]], "trace": ["{a}"]},
    ]


def test_values_expansion(files, capsys):
    p = files("p.term", "in s(x). out s(x). 0\n")
    assert main(["lts", p, "--values", "0,1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert any("s_0" in s for s in data["states"][0:1] + data["states"])


def test_values_required(files, capsys):
    p = files("p.term", "in s(x). 0\n")
    assert main(["lts", p]) == 3


def test_a_repeated_value_is_refused_by_name(files, capsys):
    p = files("p.term", "in s(x). 0\n")
    assert main(["lts", p, "--values", "0,1,0"]) == 3
    assert capsys.readouterr().err == "--values 0,1,0: value 0 repeated in the value domain\n"
    argv, contents = _check_type(dict(TYPE_ENV, values=[2, 2]))
    assert _run(argv, contents, files) == 3
    err = capsys.readouterr().err
    assert err.endswith("env.json: value 2 repeated in the value domain\n") and err.count("\n") == 1
    with pytest.raises(ValueError, match="^value 1 repeated in the value domain$"):
        parse_term("{a}.0", (1, 1))


def test_a_negative_value_is_refused_by_name(files, capsys):
    # `s_-1` would print as a name that reads back as no name
    p = files("p.term", "in s(x). 0\n")
    assert main(["lts", p, "--values=-1,0"]) == 3
    assert capsys.readouterr().err == "--values -1,0: negative value -1 in the value domain\n"
    argv, contents = _check_type(dict(TYPE_ENV, values=[0, -2]))
    assert _run(argv, contents, files) == 3
    err = capsys.readouterr().err
    assert err.endswith("env.json: negative value -2 in the value domain\n") and err.count("\n") == 1


@pytest.mark.parametrize("name", ["x}", "y z", "\u00e9"])
def test_a_name_the_term_reader_cannot_read_is_refused_by_name(name, files, capsys):
    # `intern` checks only the first character, so such a name would
    # print in a realizer or a state that reads back as no term
    rule = "([A-Za-z_][A-Za-z0-9_]*)"
    argv, contents = _proof("extract", AXIOM, "--atoms", "atoms.json")
    contents["atoms.json"] = json.dumps({"a": ["ok", name]})
    assert _run(argv, contents, files) == 3
    assert capsys.readouterr().err.endswith(f"atoms.json: atom 'a': name {name!r} is not an identifier {rule}\n")
    side = {"pos": ["{a}.0"], "neg": ["{~a}.0"]}
    argv, contents = _check_type({"atoms": {"a": dict(side, alphabet=["a", name])}})
    assert _run(argv, contents, files) == 3
    err = capsys.readouterr().err
    assert err.endswith(f"env.json: atom 'a': alphabet name {name!r} is not an identifier {rule}\n")
    argv, contents = _check_type({"atoms": {"a": dict(side, alphabet=["a"]), name: side}})
    assert _run(argv, contents, files) == 3
    assert capsys.readouterr().err.endswith(f"env.json: atom {name!r} is not an identifier {rule}\n")


READ_BACK = """
import json, sys
from procreal.parsing import parse_term
from procreal.terms import print_term
print(json.dumps([print_term(parse_term(s)) for s in json.loads(sys.stdin.read())]))
"""


@pytest.mark.parametrize("chan", ["l(a)", "r(l(b))"])
def test_every_exported_state_of_a_coded_channel_reads_back(chan, files):
    # a value name over a coded channel prints as `l(a)_0`; a fresh
    # process reads each exported state to a term that prints the same.
    # Both run in fresh processes, since what a name prints as depends on
    # the names the process registered before.
    p = files("p.term", f"in {chan}(x). out {chan}(x). 0\n")
    lts = subprocess.run([sys.executable, "-m", "procreal.cli", "lts", p, "--values", "0,1", "--format", "json"],
                         capture_output=True, text=True, env=subprocess_env())
    assert lts.returncode == 0, lts.stderr
    states = json.loads(lts.stdout)["states"]
    assert f"{{~{chan}_1}}.0" in states
    back = subprocess.run([sys.executable, "-c", READ_BACK], input=json.dumps(states),
                          capture_output=True, text=True, env=subprocess_env())
    assert back.returncode == 0, back.stderr
    assert json.loads(back.stdout) == states


def test_extract_and_verify_cut(files, tmp_path, capsys):
    proof = corpus_proofs()["tensor_par"]["proof"]
    ppath = files("p.json", json.dumps(proof_to_json(proof)))
    out = str(tmp_path / "out.term")
    assert main(["extract", ppath, "-o", out]) == 0
    parse_term(open(out).read())
    capsys.readouterr()
    assert main(["verify-cut", ppath, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["overall"] == "pass"
    assert data["cut_free"] is True
    assert all(s["verdict"] == "pass" for s in data["steps"])


def test_extract_nested_invalid_proof_exits_three(files, capsys):
    # fails at the exchange, premise 0 of the par, premise 1 of the tensor
    bad = PTensorR(PAxiom(FAtom("a")), PParR(PExchange((0, 0), PAxiom(FAtom("b")))))
    ppath = files("p.json", json.dumps(proof_to_json(bad)))
    for cmd in ("extract", "verify-cut"):
        assert main([cmd, ppath]) == 3
        err = capsys.readouterr().err
        assert err == "invalid proof at (1, 0): invalid permutation (0, 0) for |- ~b, b\n"


def test_verify_cut_output_matches_golden(files, capsys):
    # stdout captured before the proof rules were made table-driven
    proof = corpus_proofs()["push_left"]["proof"]
    ppath = files("p.json", json.dumps(proof_to_json(proof)))
    for fmt, ext in (("text", "txt"), ("json", "json")):
        assert main(["verify-cut", ppath, "--format", fmt]) == 0
        golden = Path(__file__).parent / "golden" / f"verify_cut_push_left.{ext}"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_verify_cut_reports_stuck_cut(files, capsys):
    # no step pushes a cut into a promotion's context
    promo = PProm(PExchange((1, 0), PDerel(PAxiom(negate(FAtom("a"))))))
    stuck = PCut(FBang(FAtom("a")), promo, promo, -1, 0)
    ppath = files("p.json", json.dumps(proof_to_json(stuck)))
    assert main(["verify-cut", ppath, "--format", "json"]) == 2
    data = json.loads(capsys.readouterr().out)
    assert data["steps"] == [{"kind": "stuck", "step": 0, "verdict": "unknown",
                              "detail": "no reduction for cut on !a (left PProm, right PProm)"}]
    assert data["cut_free"] is False and data["overall"] == "unknown"


def test_verify_cut_reports_its_step_bound(files, capsys):
    # a step bound that cuts elimination short checks nothing beyond it
    proof = corpus_proofs()["tensor_par"]["proof"]
    ppath = files("p.json", json.dumps(proof_to_json(proof)))
    assert main(["verify-cut", ppath, "--step-bound", "0", "--format", "json"]) == 2
    data = json.loads(capsys.readouterr().out)
    assert data["steps"] == [
        {"detail": "step bound 0 reached", "kind": "bound", "step": 0, "verdict": "unknown"}
    ]
    assert data["cut_free"] is False and data["overall"] == "unknown"
    assert main(["verify-cut", ppath, "--step-bound", "1"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[-3:] == [
        "overall: unknown",
        "step   0 tensor-par             pass",
        "step   1 bound                  unknown",
    ]


@pytest.mark.parametrize("max_states", ["1", "2", "5"])
def test_exercises_under_small_budgets_report_without_traceback(max_states):
    # morphisms that do not verify within the budget leave their product
    # checks undecided, and the report is printed
    proc = subprocess.run(
        [sys.executable, "-m", "procreal.cli", "exercises", "--trials", "1", "--seed", "1",
         "--max-states", max_states],
        capture_output=True, text=True, env=subprocess_env(), timeout=300,
    )
    assert proc.returncode == 2 and proc.stderr == ""
    assert "suite product      unknown" in proc.stdout.splitlines()
    if max_states == "1":
        assert "  pairing <idA,a2b> is a morphism: morphism idA and a2b not verified" in (
            proc.stdout.splitlines()
        )


def test_exercises_that_decide_nothing_false_report_unknown(capsys):
    # every check this budget leaves short is undecided, not failed
    argv = ["exercises", "--trials", "1", "--seed", "1", "--max-states", "1"]
    assert main(argv) == 2
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("suite ")] == [
        "suite identity     pass",
        "suite composition  unknown",
        "suite pairing      unknown",
        "suite product      unknown",
    ]
    assert main([*argv, "--format", "json"]) == 2
    captured = capsys.readouterr()
    report = json.loads(captured.out)  # stdout is the JSON alone
    assert "suite identity     pass" in captured.err.splitlines()
    assert report["ok"] is None
    assert [suite["ok"] for suite in report["suites"]] == [True, None, None, None]
    assert {check["ok"] for suite in report["suites"] for check in suite["checks"]} <= {True, None}


def test_the_budget_and_depth_defaults_are_the_engines():
    args = build_parser().parse_args(["equiv", "p.term", "q.term"])
    assert (args.max_states, args.depth) == (ExplorationBudget().max_states, BOUNDED_DEPTH) == (5000, 6)


def test_the_pairing_suite_names_each_selection_law_it_checks(capsys):
    # at two states no selection law is decided, so each is reported, by
    # the name of the law checked under each equivalence, in check order
    assert main(["exercises", "--trials", "1", "--max-states", "2"]) == 2
    out = capsys.readouterr().out.splitlines()
    start = out.index("suite pairing      unknown")
    assert out[start + 1:start + 5] == [
        "  trial 0: <P,Q>;inl(R) = P;R (failures): unknown",
        "  trial 0: <P,Q>;inr(R) = Q;R (failures): unknown",
        "  trial 0: <P,Q>;inl(R) = P;R (weak bisim): unknown",
        "  trial 0: <P,Q>;inr(R) = Q;R (weak bisim): unknown",
    ]


@pytest.mark.parametrize(
    "oks, code, status",
    [
        pytest.param([True, True], 0, "pass", id="pass"),
        pytest.param([True, None], 2, "unknown", id="undecided"),
        pytest.param([None, False], 1, "FAIL", id="failed"),
    ],
)
def test_exercises_exit_code_follows_the_suites(monkeypatch, capsys, oks, code, status):
    def run_exercises(seed, budget, trials):
        suites = [{"suite": f"s{i}", "ok": ok, "checks": [{"law": "x", "ok": ok, "detail": ""}]}
                  for i, ok in enumerate(oks)]
        return {"suites": suites, "ok": law_outcome(oks)}

    monkeypatch.setattr("procreal.cli.run_exercises", run_exercises)
    assert main(["exercises"]) == code
    assert capsys.readouterr().out.splitlines()[-2].endswith(status)


AXIOM = {"rule": "axiom", "formula": "a"}
TYPE_ENV = {"atoms": {"a": {"alphabet": ["a"], "pos": ["{a}.0"], "neg": ["{~a}.0"]}}}


def _check_type(env, type_text="a"):
    return ["check-type", "t.term", "env.json", type_text], {
        "t.term": "{a}.0\n",
        "env.json": json.dumps(env),
    }


def _proof(cmd, data, *extra):
    return [cmd, "p.json", *extra], {"p.json": json.dumps(data)}


def _run(argv, contents, files):
    paths = {name: files(name, text) for name, text in contents.items()}
    return main([paths.get(arg, arg) for arg in argv])


@pytest.mark.parametrize(
    "argv, contents",
    [
        pytest.param(*_proof("verify-cut", {"rule": "par"}), id="par-without-premise"),
        pytest.param(*_proof("extract", {"rule": "axiom"}), id="axiom-without-formula"),
        pytest.param(*_proof("extract", {"rule": "axiom", "formula": "a*"}),
                     id="bad-formula-extract"),
        pytest.param(*_proof("verify-cut", {"rule": "weakening", "formula": "a)",
                                            "premises": [AXIOM]}),
                     id="bad-formula-verify-cut"),
        pytest.param(*_proof("verify-cut", [1]), id="proof-not-an-object"),
        pytest.param(*_proof("verify-cut", {"rule": "cut", "formula": "a", "premises": [AXIOM]}),
                     id="one-premise-cut"),
        pytest.param(*_proof("extract", {"rule": "exchange", "perm": 5, "premises": [AXIOM]}),
                     id="ill-typed-perm"),
        pytest.param(*_proof("extract", {"rule": "lemma"}), id="unknown-rule"),
        pytest.param(*_proof("verify-cut", {"rule": "cut", "formula": "?a", "pos_lft": 2,
                                            "pos_right": 1, "premises": [
            {"rule": "weakening", "formula": "a", "premises": [
                {"rule": "weakening", "formula": "a", "premises": [
                    {"rule": "axiom", "formula": "b"}]}]},
            {"rule": "promotion", "premises": [{"rule": "exchange", "perm": [1, 0], "premises": [
                {"rule": "dereliction", "premises": [AXIOM]}]}]},
        ]}), id="misspelt-field"),
        pytest.param(*_check_type(TYPE_ENV, "a*"), id="bad-formula-check-type"),
        pytest.param(*_check_type({"atoms": {"a": {"pos": ["{a}.0"]}}}), id="atom-without-neg"),
        pytest.param(*_check_type(TYPE_ENV, "a*zz"), id="undeclared-atom"),
        pytest.param(*_check_type(dict(TYPE_ENV, values=5)), id="values-not-a-list"),
        pytest.param(*_check_type(dict(TYPE_ENV, values=[1, 0, 1])), id="environment-value-repeated"),
        pytest.param(["lts", "t.term", "--values", "0,0"], {"t.term": "in s(x). 0\n"}, id="value-repeated"),
        pytest.param(*_proof("extract", {"rule": "axiom", "formula": "forall x. a(x)"}, "--values", "2,1,2"),
                     id="value-repeated-extract"),
        pytest.param(*_check_type([TYPE_ENV]), id="type-env-not-an-object"),
        pytest.param(*_check_type({"atoms": {"a": {"pos": ["rec X. X"], "neg": ["{~a}.0"]}}}),
                     id="unguarded-environment-term"),
        pytest.param(*_check_type({"atoms": {"a": {"pos": ["X"], "neg": ["{~a}.0"]}}}),
                     id="open-environment-term"),
        pytest.param(*_check_type({"atoms": {"a": {"pos": ["in s(x). 0"], "neg": ["{~a}.0"]}}}),
                     id="environment-term-without-values"),
        pytest.param(["extract", "p.json", "--atoms", "atoms.json"],
                     {"p.json": json.dumps(AXIOM), "atoms.json": json.dumps({"a": 5})},
                     id="atoms-alphabet-not-a-list"),
        pytest.param(["extract", "p.json", "--atoms", "atoms.json"],
                     {"p.json": json.dumps(AXIOM), "atoms.json": json.dumps(["a"])},
                     id="atoms-not-an-object"),
        pytest.param(["lts", "t.term"], {"t.term": "rec X. ({a}.X) [inv(lcode)]\n"},
                     id="renaming-outside-its-domain"),
        pytest.param(["equiv", "t.term", "t.term"], {"t.term": "rec X. ({a}.X) [inv(lcode)]\n"},
                     id="renaming-outside-its-domain-equiv"),
        pytest.param(["failures", "t.term"], {"t.term": "wire({a,b,c,d,e})\n"},
                     id="wire-alphabet-too-large"),
        pytest.param(["extract", "p.json", "--atoms", "atoms.json"],
                     {"p.json": json.dumps(AXIOM), "atoms.json": json.dumps({"a": list("abcde")})},
                     id="atoms-alphabet-too-large"),
        pytest.param(*_proof("extract", {"rule": "axiom", "formula": "forall x. a(x)"}),
                     id="quantifier-without-values"),
        pytest.param(*_proof("verify-cut", {"rule": "cut", "formula": "forall x. a(x)", "premises": [
            {"rule": "axiom", "formula": "forall x. a(x)"},
            {"rule": "axiom", "formula": "exists x. ~a(x)"},
        ]}), id="quantifier-cut-without-values"),
        pytest.param(["failures", "t.term", "--depth", "-1"], {"t.term": "{a}.0\n"},
                     id="negative-depth-failures"),
        pytest.param(["equiv", "t.term", "t.term", "--depth", "-1"], {"t.term": "{a}.0\n"},
                     id="negative-depth-equiv"),
        pytest.param(["exercises", "--trials", "0"], {}, id="no-trials"),
        pytest.param(["exercises", "--trials", "-3"], {}, id="negative-trials"),
        pytest.param(["lts", "t.term", "--max-states", "0"], {"t.term": "{a}.0\n"},
                     id="empty-state-budget"),
        pytest.param(*_proof("verify-cut", AXIOM, "--step-bound", "-1"),
                     id="negative-step-bound"),
        pytest.param(["check-type", "t.term", "env.json", "!a", "--fuel", "-1"],
                     _check_type(TYPE_ENV)[1], id="negative-fuel"),
        pytest.param(["equiv", "t.term", "t.term", "--seed", "1"], {"t.term": "{a}.0\n"},
                     id="equiv-takes-no-seed"),
        pytest.param(["perp", "t.term", "t.term", "--depth", "2"], {"t.term": "{a}.0\n"},
                     id="perp-takes-no-depth"),
        pytest.param(*_proof("extract", AXIOM, "--format", "json"), id="extract-takes-no-format"),
    ],
)
def test_malformed_input_exits_three(argv, contents, files, capsys):
    assert _run(argv, contents, files) == 3
    err = capsys.readouterr().err.strip()
    assert err and "\n" not in err and "Traceback" not in err


# The pieces random inputs are made of: the punctuation of terms, formulas
# and JSON, digits, identifiers, a NUL and a byte that is no UTF-8.
FUZZ_PIECES = [b"{", b"}", b"(", b")", b"[", b"]", b"\\", b"~", b".", b"|", b"+", b",",
               b":", b'"', b" ", b"\n", b"0", b"1", b"42", b"a", b"b", b"X", b"rec",
               b"\x00", b"\xff"]
FUZZ_TERM = b"rec X. ({a}.X + {b,~a}.0) | {~b}.0 \\ {a}"
FUZZ_PROOF = json.dumps({"rule": "cut", "formula": "a", "premises": [AXIOM, AXIOM]}).encode()

# Each file argument of each command that reads one (FUZZ stands for the
# file of random bytes, next to well-formed companions), with a text of
# that argument's kind: half the inputs are that text altered in one place.
FUZZ_COMMANDS = [
    (["lts", "FUZZ", "--max-states", "50"], FUZZ_TERM),
    (["equiv", "FUZZ", "t.term", "--max-states", "50"], FUZZ_TERM),
    (["check-type", "FUZZ", "env.json", "a", "--max-states", "50"], FUZZ_TERM),
    (["check-type", "t.term", "FUZZ", "a", "--max-states", "50"], json.dumps(TYPE_ENV).encode()),
    (["extract", "FUZZ"], FUZZ_PROOF),
    (["extract", "p.json", "--atoms", "FUZZ"], b'{"a": ["a", "b"]}'),
    (["verify-cut", "FUZZ", "--max-states", "50"], FUZZ_PROOF),
    (["failures", "FUZZ", "--max-states", "50"], FUZZ_TERM),
    (["perp", "FUZZ", "t.term", "--max-states", "50"], FUZZ_TERM),
    (["perp", "t.term", "FUZZ", "--max-states", "50"], FUZZ_TERM),
]


def test_random_bytes_as_any_file_argument_exit_with_a_code(tmp_path, files, capsys):
    # a file of random bytes is a usage error, a verdict or an unknown,
    # never an exception out of main
    paths = {"FUZZ": str(tmp_path / "fuzz")}
    for name, text in {"t.term": "{a}.0\n", "env.json": json.dumps(TYPE_ENV),
                       "p.json": json.dumps(AXIOM)}.items():
        paths[name] = files(name, text)
    rng = random.Random(29)
    codes = set()
    for _ in range(300):
        for argv, text in FUZZ_COMMANDS:
            if rng.random() < 0.5:
                i = rng.randint(0, len(text))
                data = text[:i] + rng.choice(FUZZ_PIECES) + text[i + rng.randint(0, 1):]
            else:
                data = b"".join(rng.choices(FUZZ_PIECES, k=rng.randint(0, 30)))
            Path(paths["FUZZ"]).write_bytes(data)
            code = main([paths.get(arg, arg) for arg in argv])
            assert code in (0, 1, 2, 3), (argv, data)
            codes.add(code)
        capsys.readouterr()
    # some altered texts still parse and reach a verdict
    assert codes - {3}

@pytest.mark.parametrize(
    "argv, contents",
    [
        pytest.param(*_check_type(TYPE_ENV, "forall"), id="quantifier-alone"),
        pytest.param(*_check_type(TYPE_ENV, "p("), id="open-arguments"),
        pytest.param(*_check_type(TYPE_ENV, "p(1,"), id="open-argument-list"),
        pytest.param(*_check_type(TYPE_ENV, "forall (. a"), id="bound-parenthesis"),
        pytest.param(*_proof("verify-cut", {"rule": "axiom", "formula": "p(1,"}),
                     id="open-argument-list-verify-cut"),
        pytest.param(*_proof("extract", {"rule": "axiom", "formula": "p(1,"}),
                     id="open-argument-list-extract"),
        pytest.param(["lts", "t.term", "--values", "0,1"], {"t.term": "out s(7). 0\n"},
                     id="value-outside-the-domain"),
        pytest.param(["lts", "t.term", "--values", "0,1"], {"t.term": "out s(x). 0\n"},
                     id="unbound-value-variable"),
        pytest.param(["lts", "t.term"], {"t.term": "in s(x). 0\n"}, id="value-input-without-values"),
    ],
)
def test_malformed_formula_exits_three_naming_line_and_column(argv, contents, files, capsys):
    assert _run(argv, contents, files) == 3
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and "Traceback" not in err and "(line 1, column " in err


def test_a_value_variable_is_bound_in_its_input_text_alone(files, capsys):
    # `P` is read where it is written, outside the input that binds `x`
    p = files("p.term", "P = out s(x). 0;\nmain = in s(x). P;\n")
    assert main(["lts", p, "--values", "0,1"]) == 3
    assert capsys.readouterr().err == f"{p}: unbound value variable x (line 1, column 11)\n"


def test_value_passing_matches_golden():
    # `lts` and `failures` of value-passing programs read in one registry,
    # pinned with the order in which their names are registered
    assert fresh_lines("value_passing") == golden_lines("value_passing")


def test_check_type_expands_terms_over_the_environment_values(files, capsys):
    env = {"atoms": {"a": {"pos": ["in s(x). 0"], "neg": ["{~a}.0"]}}, "values": [0]}
    argv, contents = _check_type(env)
    assert _run(argv, contents, files) == 1
    contents["t.term"] = "in s(y). 0\n"
    assert _run(argv, contents, files) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == ["verdict: class", "class: 0"]


def test_check_type_undecided_environment_exits_two(files, capsys):
    # two replicating terms: no state budget separates their classes
    env = {"atoms": {"a": {"pos": ["bang({a}.0)", "bang({a}.0 + {b}.0)"], "neg": ["{~a}.0"]}}}
    argv, contents = _check_type(env)
    assert _run([*argv, "--max-states", "50"], contents, files) == 2
    err = capsys.readouterr().err.strip()
    assert err == (
        "budget exhausted: atom 'a' pos: partitioning undecided within budget "
        "(budget exhausted: state budget 50 exhausted)"
    )


def test_check_type_undecided_term_names_the_limit(files, capsys):
    env = {"atoms": {"a": {"pos": ["bang({a}.0)"], "neg": ["{~a}.0"]}}}
    argv, contents = _check_type(env)
    contents["t.term"] = "bang({a}.0 + {b}.0)\n"
    assert _run([*argv, "--max-states", "50"], contents, files) == 2
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "verdict: unknown",
        "detail: budget exhausted: state budget 50 exhausted",
    ]


def test_check_type(files, capsys):
    env = files(
        "types.json",
        json.dumps(
            {"atoms": {"a": {"alphabet": ["a"], "pos": ["{a}.0"], "neg": ["{~a}.0"]}}}
        ),
    )
    good = files("good.term", "{alpha}.{a}.0 + {beta}.{a}.0\n")
    bad = files("bad.term", "{a}.0\n")
    assert main(["check-type", good, env, "a&a"]) == 0
    assert main(["check-type", bad, env, "a&a"]) == 1


def test_cli_deterministic_output(files, capsys):
    proof = corpus_proofs()["with_plus1"]["proof"]
    ppath = files("p.json", json.dumps(proof_to_json(proof)))
    # each run explores afresh, with the memo emptied
    _MEMO.clear()
    assert main(["verify-cut", ppath, "--format", "json"]) == 0
    first = capsys.readouterr().out
    _MEMO.clear()
    assert main(["verify-cut", ppath, "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_usage_error_exit_three():
    assert main(["no-such-command"]) == 3


# Two states reached by one visible move, one of them heading past the depth
# cap through 200 silent steps and the other into 512 states: which limit a
# bounded failures call names depends on which it closes first.
ORDER_TERMS = {
    "rec.term": "rec X. ({a}.X + {b}.0) | {~a}.0",
    "par.term": "({a}.0 | {b}.{~a}.0) | rec Y. {~b}.Y",
    "hidden.term": "(rec X. ({a}.X + {c}.0) | rec Y. {~a}.({b}.Y + {~c}.0)) \\ {a,c}",
    "limits.term": "{a}.rec X. {}.(X | 0) + {a}.(" + " | ".join(["{}.0"] * 9) + ")",
}

ORDER_PROBE = """
import json, random, sys
from procreal.cli import main
from procreal.generators import random_term
from procreal.names import REGISTRY
if sys.argv[1] == "churn":
    rng = random.Random(5)
    atoms = (REGISTRY.intern("a"), REGISTRY.intern("b"))
    built = [random_term(rng, atoms, rng.randint(1, 9)) for _ in range(10000)]
    del built
for argv in json.loads(sys.argv[2]):
    code = main(argv)
    for stream in (sys.stdout, sys.stderr):
        print("exit", code, file=stream, flush=True)
"""


def test_no_output_depends_on_node_addresses(tmp_path):
    # nodes hash by identity, so a set of nodes iterates in address order;
    # two fresh interpreters, one of which first builds and drops 10,000
    # unrelated terms, under two hash seeds, must print the same
    for name, text in ORDER_TERMS.items():
        (tmp_path / name).write_text(text + "\n", encoding="utf-8")
    commands = []
    for t in ("rec.term", "par.term", "hidden.term"):
        commands += [["lts", t, "--format", "json"], ["failures", t, "--depth", "3"]]
    for left, right in (("rec", "par"), ("par", "hidden"), ("hidden", "rec"), ("rec", "rec")):
        for mode in ("failures", "weak-bisim"):
            commands.append(["equiv", f"{left}.term", f"{right}.term", "--mode", mode, "--format", "json"])
    limits = ["limits.term", "--max-states", "250"]
    commands += [["equiv", limits[0], *limits, "--format", "json"], ["failures", *limits, "--depth", "2"]]
    runs = [
        subprocess.run(
            [sys.executable, "-c", ORDER_PROBE, mode, json.dumps(commands)],
            capture_output=True, text=True, cwd=tmp_path, timeout=300,
            env=subprocess_env(PYTHONHASHSEED=seed),
        )
        for seed, mode in (("0", "plain"), ("1", "churn"))
    ]
    assert [run.returncode for run in runs] == [0, 0], runs[0].stderr + runs[1].stderr
    assert runs[0].stdout.count("exit ") == len(commands)
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stderr == runs[1].stderr
    assert "budget exhausted: state budget 250 exhausted" in runs[0].stdout

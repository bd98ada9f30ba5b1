import json
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import subprocess_env

from procreal.cli import main
from procreal.corpus import corpus_proofs
from procreal.logic import (
    FAtom,
    FBang,
    PAxiom,
    PCut,
    PDerel,
    PExchange,
    PProm,
    negate,
    proof_to_json,
)
from procreal.parsing import parse_term
from procreal.semantics import _MEMO


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
    assert data["steps"] == [{"kind": "stuck", "step": 0, "verdict": "unknown"}]
    assert data["cut_free"] is False and data["overall"] == "unknown"


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
        pytest.param(*_check_type(TYPE_ENV, "a*"), id="bad-formula-check-type"),
        pytest.param(*_check_type({"atoms": {"a": {"pos": ["{a}.0"]}}}), id="atom-without-neg"),
        pytest.param(*_check_type(TYPE_ENV, "a*zz"), id="undeclared-atom"),
        pytest.param(*_check_type(dict(TYPE_ENV, values=5)), id="values-not-a-list"),
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
    ],
)
def test_malformed_input_exits_three(argv, contents, files, capsys):
    assert _run(argv, contents, files) == 3
    err = capsys.readouterr().err.strip()
    assert err and "\n" not in err and "Traceback" not in err


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
    # each run explores afresh, with the graph memo emptied
    _MEMO.clear()
    assert main(["verify-cut", ppath, "--format", "json"]) == 0
    first = capsys.readouterr().out
    _MEMO.clear()
    assert main(["verify-cut", ppath, "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_usage_error_exit_three():
    assert main(["no-such-command"]) == 3

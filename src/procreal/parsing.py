"""Concrete syntax: one reader, two grammars.

`Reader` holds the tokenizer and the token cursor that every text goes
through; its errors name the line and column.  Two grammars subclass
it: the term grammar below (terms, actions, renamings and restriction
sets) and the formula grammar of `logic.parse_formula`.

Term grammar (precedence low to high):

    program  := (IDENT '=' expr ';')* [expr]
    expr     := par ('+' par)*                  guarded sum
    par      := prefix ('|' prefix)*
    prefix   := action '.' prefix
              | 'in' name '(' IDENT ')' '.' prefix
              | 'out' name '(' (INT | IDENT) ')' '.' prefix
              | 'rec' IDENT '.' prefix
              | postfix
    postfix  := atom ('\\' restr | '[' renaming ']')*
    atom     := '0' | '(' expr ')' | builder '(' ... ')' | IDENT
    action   := '{' [label (',' label)*] '}'
    label    := ['~'] name
    name     := IDENT | 'l(' name ')' | 'r(' name ')' | 'n1(' name ')' ...

Builders call directly into the combinator layer: tensor(P,Q), lapp(Q,P),
rapp(P,R), seq(P,Q), wire({a,b}), pair(P,Q), inl(P), inr(P), bang(P).
An identifier that is not a builder or a prior binding parses as a free
process variable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from typing import Optional

from . import combinators as C
from .names import (
    Action,
    CODINGS,
    CODING_CLASSES,
    CodingClass,
    Compose,
    FiniteMap,
    FiniteRestriction,
    IDENT as ID_RENAMING,
    KwayCode,
    LCODE,
    Label,
    Name,
    PhiCode,
    Piecewise,
    RCODE,
    REGISTRY,
    Renaming,
    RestrictionSet,
    SWAP,
    UnionRestriction,
)
from .terms import (
    InputPrefix,
    NIL,
    OutputPrefix,
    Par,
    Prefix,
    Rec,
    Rename,
    Restrict,
    Sum,
    TAU,
    Term,
    Var,
)


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{msg} (line {line}, column {col})")
        self.msg = msg
        self.line = line
        self.col = col


@dataclass
class Token:
    kind: str
    text: str
    line: int
    col: int


class Reader:
    """A cursor over the tokens of one text, ending in an `eof` token it
    never moves past.  `pattern` names each token's kind by its group;
    `ws` matches are skipped.  A grammar subclasses it, and `error`
    raises the grammar's `Error` with the line and column of the token at
    the cursor."""

    Error = ParseError

    def __init__(self, text: str, pattern: re.Pattern):
        self.tokens = []
        pos, line, col = 0, 1, 1
        while pos < len(text):
            m = pattern.match(text, pos)
            if m is None:
                raise self.Error(f"unexpected character {text[pos]!r}", line, col)
            chunk = m.group(0)
            if m.lastgroup != "ws":
                self.tokens.append(Token(m.lastgroup, chunk, line, col))
            nl = chunk.count("\n")
            if nl:
                line += nl
                col = len(chunk) - chunk.rfind("\n")
            else:
                col += len(chunk)
            pos = m.end()
        self.tokens.append(Token("eof", "", line, col))
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def error(self, msg: str):
        tok = self.peek()
        raise self.Error(msg, tok.line, tok.col)

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            self.error(f"expected {text!r}, found {tok.text!r}")
        return self.next()

    def _ident(self, what: str) -> str:
        if self.peek().kind != "ident":
            self.error(f"expected {what}")
        return self.next().text

    def _value(self, what: str):
        """An integer or an identifier: a value or a value variable."""
        if self.peek().kind == "int":
            return int(self.next().text)
        return self._ident(what)

    def separated(self, item, sep: str) -> list:
        """One or more `item`s separated by `sep`."""
        items = [item()]
        while self.at(sep):
            self.next()
            items.append(item())
        return items

    def end(self) -> None:
        if self.peek().kind != "eof":
            self.error(f"trailing input {self.peek().text!r}")


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<int>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<sym>\\|\{|\}|\(|\)|\[|\]|\||\+|\.|,|~|=|;|:)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"in", "out", "rec"}

# the renamings written as one keyword
_NAMED_RENAMINGS = {"id": ID_RENAMING, "lcode": LCODE, "rcode": RCODE, "swap": SWAP}

# builder name -> (arity, combinator); `wire` takes a braced name list
_BUILDERS = {
    "tensor": (2, C.tensor),
    "lapp": (2, C.lapp),
    "rapp": (2, C.rapp),
    "seq": (2, C.seq),
    "pair": (2, C.pairing),
    "inl": (1, C.inj_l),
    "inr": (1, C.inj_r),
    "bang": (1, C.bang),
    "wire": (1, C.identity_wire),
}


class _Parser(Reader):
    def __init__(self, text: str):
        super().__init__(text, _TOKEN_RE)
        self.env: dict[str, Term] = {}  # the bindings `parse_program` has read

    # -- names, labels, actions ------------------------------------------

    def parse_name(self) -> Name:
        ident = self._ident("a name")
        if ident in CODINGS and self.at("("):
            self.next()
            inner = self.parse_name()
            self.expect(")")
            return CODINGS[ident].apply_name(inner)
        return REGISTRY.intern(ident)

    def parse_label(self) -> Label:
        neg = False
        if self.at("~"):
            self.next()
            neg = True
        return Label(self.parse_name().code, neg)

    def parse_action(self) -> Action:
        return frozenset(self.parse_braced(self.parse_label))

    def parse_braced(self, item) -> list:
        """`{item, ..., item}`, possibly empty: actions, finite restriction
        sets, wire alphabets and renaming maps."""
        self.expect("{")
        items = [] if self.at("}") else self.separated(item, ",")
        self.expect("}")
        return items

    # -- renamings --------------------------------------------------------

    def parse_renaming(self) -> Renaming:
        ident = self._ident("a renaming")
        if ident in _NAMED_RENAMINGS:
            return _NAMED_RENAMINGS[ident]
        try:
            if re.fullmatch(r"phi[123][123]", ident):
                return PhiCode(int(ident[3]), int(ident[4]))
            m = re.fullmatch(r"n(\d+)of(\d+)", ident)
            if m:
                return KwayCode(int(m.group(1)), int(m.group(2)))
        except ValueError as exc:  # ports out of range
            self.error(f"{ident!r}: {exc}")
        if ident == "inv":
            self.expect("(")
            inner = self.parse_renaming()
            self.expect(")")
            return inner.inverse()
        if ident == "comp":
            self.expect("(")
            after = self.parse_renaming()
            self.expect(",")
            first = self.parse_renaming()
            self.expect(")")
            return Compose(after, first)
        if ident == "piece":
            self.expect("(")
            pieces = self.separated(self.parse_renaming, "|")
            self.expect(")")
            return Piecewise(pieces)
        if ident == "map":
            return FiniteMap(self.parse_braced(self._map_pair))
        self.error(f"unknown renaming {ident!r}")

    def _map_pair(self) -> tuple:
        src = self.parse_name()
        self.expect(":")
        return src, self.parse_name()

    # -- restriction sets -------------------------------------------------

    def parse_restriction_atom(self) -> RestrictionSet:
        if self.at("{"):
            return FiniteRestriction(self.parse_braced(self.parse_label))
        tok = self.peek()
        if tok.kind == "ident" and (tok.text in CODING_CLASSES or tok.text == "all"):
            self.next()
            return CodingClass(tok.text)
        self.error("expected a restriction set")

    def parse_restriction(self) -> RestrictionSet:
        if self.at("("):
            self.next()
            parts = self.separated(self.parse_restriction_atom, "+")
            self.expect(")")
            if len(parts) == 1:
                return parts[0]
            return UnionRestriction(parts)
        return self.parse_restriction_atom()

    # -- terms --------------------------------------------------------------

    def parse_expr(self) -> Term:
        first = self.parse_par()
        if not self.at("+"):
            return first
        branches = list(self._sum_branches(first))
        while self.at("+"):
            self.next()
            branches.extend(self._sum_branches(self.parse_par()))
        return Sum(tuple(branches))

    def _sum_branches(self, t: Term):
        if isinstance(t, Prefix):
            if t.action == TAU:
                self.error("tau guard inside a sum")
            yield (t.action, t.cont)
        elif isinstance(t, Sum):
            for a, p in t.branches:
                if a == TAU:
                    self.error("tau guard inside a sum")
                yield (a, p)
        else:
            self.error("sum branches must be guarded")

    def parse_par(self) -> Term:
        return reduce(Par, self.separated(self.parse_prefix, "|"))

    def parse_prefix(self) -> Term:
        tok = self.peek()
        if tok.text == "{":
            action = self.parse_action()
            self.expect(".")
            return Prefix(action, self.parse_prefix())
        if tok.text == "rec":
            self.next()
            var = self._ident("recursion variable")
            self.expect(".")
            return Rec(var, self.parse_prefix())
        if tok.text == "in":
            self.next()
            chan = self.parse_name()
            self.expect("(")
            var = self._ident("value variable")
            self.expect(")")
            self.expect(".")
            return InputPrefix(chan, var, self.parse_prefix())
        if tok.text == "out":
            self.next()
            chan = self.parse_name()
            self.expect("(")
            value = self._value("value")
            self.expect(")")
            self.expect(".")
            return OutputPrefix(chan, value, self.parse_prefix())
        return self.parse_postfix()

    def parse_postfix(self) -> Term:
        t = self.parse_atom()
        while True:
            if self.at("\\"):
                self.next()
                t = Restrict(t, self.parse_restriction())
            elif self.at("["):
                self.next()
                ren = self.parse_renaming()
                self.expect("]")
                t = Rename(t, ren)
            else:
                return t

    def parse_atom(self) -> Term:
        tok = self.peek()
        if tok.text == "0":
            self.next()
            return NIL
        if tok.text == "(":
            self.next()
            t = self.parse_expr()
            self.expect(")")
            return t
        if tok.kind == "ident":
            name = self.next().text
            if name in _BUILDERS and self.at("("):
                return self._builder(name)
            if name in self.env:
                return self.env[name]
            return Var(name)
        self.error(f"expected a term, found {tok.text!r}")

    def _builder(self, name: str) -> Term:
        self.expect("(")
        if name == "wire":
            args = [frozenset(self.parse_braced(self.parse_name))]
        else:
            args = self.separated(self.parse_expr, ",")
        self.expect(")")
        arity, build = _BUILDERS[name]
        if len(args) != arity:
            self.error(f"{name} expects {arity} argument(s)")
        return build(*args)


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.parse_expr()
    p.end()
    return t


def parse_program(text: str) -> tuple[dict, Optional[Term]]:
    """Parses `name = term;` bindings plus an optional final bare term."""
    p = _Parser(text)
    main: Optional[Term] = None
    while p.peek().kind != "eof":
        tok = p.peek()
        if tok.kind == "ident" and tok.text not in _KEYWORDS and p.tokens[p.i + 1].text == "=":
            p.next()
            p.expect("=")
            term = p.parse_expr()
            p.expect(";")
            p.env[tok.text] = term
        else:
            main = p.parse_expr()
            p.end()
    if main is None:
        main = p.env.get("main")
    return p.env, main


def parse_renaming_text(text: str) -> Renaming:
    p = _Parser(text)
    r = p.parse_renaming()
    p.end()
    return r

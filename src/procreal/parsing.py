"""Concrete syntax for terms, actions, renamings and restriction sets.

Grammar (precedence low to high):

    program  := (IDENT '=' expr ';')* [expr]
    expr     := par ('+' par)*                  guarded sum
    par      := prefix ('|' prefix)*
    prefix   := action '.' prefix
              | 'in' name '(' IDENT ')' '.' prefix
              | 'out' name '(' INT ')' '.' prefix
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
from typing import Optional

from . import combinators as C
from .names import (
    Action,
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


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<int>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<sym>\\|\{|\}|\(|\)|\[|\]|\||\+|\.|,|~|=|;|:)
    """,
    re.VERBOSE,
)

_CODING_CLASSES = {"Ll", "Lr", "N1", "N2", "N3", "all"}
_KEYWORDS = {"in", "out", "rec"}


def _tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    line, col = 1, 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        chunk = m.group(0)
        if m.lastgroup != "ws":
            tokens.append(Token(m.lastgroup, chunk, line, col))
        nl = chunk.count("\n")
        if nl:
            line += nl
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.env: dict[str, Term] = {}  # the bindings `parse_program` has read

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, msg: str):
        tok = self.peek()
        raise ParseError(msg, tok.line, tok.col)

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            self.error(f"expected {text!r}, found {tok.text!r}")
        return self.next()

    def at(self, text: str) -> bool:
        return self.peek().text == text

    # -- names, labels, actions ------------------------------------------

    _CODINGS = ("l", "r", "n1", "n2", "n3")

    def parse_name(self) -> Name:
        tok = self.peek()
        if tok.kind != "ident":
            self.error("expected a name")
        ident = self.next().text
        if ident in self._CODINGS and self.at("("):
            self.next()
            inner = self.parse_name()
            self.expect(")")
            if ident == "l":
                return Name(2 * inner.code)
            if ident == "r":
                return Name(2 * inner.code + 1)
            return Name(3 * inner.code + int(ident[1]) - 1)
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
        items = []
        if not self.at("}"):
            items.append(item())
            while self.at(","):
                self.next()
                items.append(item())
        self.expect("}")
        return items

    # -- renamings --------------------------------------------------------

    def parse_renaming(self) -> Renaming:
        tok = self.peek()
        if tok.kind != "ident":
            self.error("expected a renaming")
        ident = self.next().text
        if ident == "id":
            return ID_RENAMING
        if ident == "lcode":
            return LCODE
        if ident == "rcode":
            return RCODE
        if ident == "swap":
            return SWAP
        if re.fullmatch(r"phi[123][123]", ident):
            return PhiCode(int(ident[3]), int(ident[4]))
        m = re.fullmatch(r"n(\d+)of(\d+)", ident)
        if m:
            return KwayCode(int(m.group(1)), int(m.group(2)))
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
            pieces = [self.parse_renaming()]
            while self.at("|"):
                self.next()
                pieces.append(self.parse_renaming())
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
        if tok.kind == "ident" and tok.text in _CODING_CLASSES:
            self.next()
            return CodingClass(tok.text)
        self.error("expected a restriction set")

    def parse_restriction(self) -> RestrictionSet:
        if self.at("("):
            self.next()
            parts = [self.parse_restriction_atom()]
            while self.at("+"):
                self.next()
                parts.append(self.parse_restriction_atom())
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
        t = self.parse_prefix()
        while self.at("|"):
            self.next()
            t = Par(t, self.parse_prefix())
        return t

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
            vtok = self.peek()
            if vtok.kind == "int":
                value = int(self.next().text)
            else:
                value = self._ident("value")
            self.expect(")")
            self.expect(".")
            return OutputPrefix(chan, value, self.parse_prefix())
        return self.parse_postfix()

    def _ident(self, what: str) -> str:
        tok = self.peek()
        if tok.kind != "ident":
            self.error(f"expected {what}")
        return self.next().text

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

    _BUILDERS = {"tensor", "lapp", "rapp", "seq", "wire", "pair", "inl", "inr", "bang"}

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
            if name in self._BUILDERS and self.at("("):
                return self._builder(name)
            if name in self.env:
                return self.env[name]
            return Var(name)
        self.error(f"expected a term, found {tok.text!r}")

    def _builder(self, name: str) -> Term:
        self.expect("(")
        if name == "wire":
            names = self.parse_braced(self.parse_name)
            self.expect(")")
            return C.identity_wire(frozenset(names))
        args = [self.parse_expr()]
        while self.at(","):
            self.next()
            args.append(self.parse_expr())
        self.expect(")")
        table = {
            "tensor": (2, lambda a: C.tensor(a[0], a[1])),
            "lapp": (2, lambda a: C.lapp(a[0], a[1])),
            "rapp": (2, lambda a: C.rapp(a[0], a[1])),
            "seq": (2, lambda a: C.seq(a[0], a[1])),
            "pair": (2, lambda a: C.pairing(a[0], a[1])),
            "inl": (1, lambda a: C.inj_l(a[0])),
            "inr": (1, lambda a: C.inj_r(a[0])),
            "bang": (1, lambda a: C.bang(a[0])),
        }
        arity, build = table[name]
        if len(args) != arity:
            self.error(f"{name} expects {arity} argument(s)")
        return build(args)


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.parse_expr()
    if p.peek().kind != "eof":
        p.error(f"trailing input {p.peek().text!r}")
    return t


def parse_program(text: str) -> tuple[dict, Optional[Term]]:
    """Parses `name = term;` bindings plus an optional final bare term."""
    p = _Parser(text)
    bindings: dict[str, Term] = {}
    main: Optional[Term] = None
    while p.peek().kind != "eof":
        if (
            p.peek().kind == "ident"
            and p.tokens[p.i + 1].text == "="
            and p.peek().text not in _KEYWORDS
        ):
            name = p.next().text
            p.expect("=")
            p.env = bindings
            term = p.parse_expr()
            p.expect(";")
            bindings[name] = term
        else:
            p.env = bindings
            main = p.parse_expr()
            if p.peek().kind != "eof":
                p.error(f"trailing input {p.peek().text!r}")
            break
    if main is None:
        main = bindings.get("main")
    return bindings, main


def parse_renaming_text(text: str) -> Renaming:
    p = _Parser(text)
    r = p.parse_renaming()
    if p.peek().kind != "eof":
        p.error("trailing input")
    return r

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
              | 'in' name '(' IDENT ')' '.' prefix        value input
              | 'out' name '(' (INT | IDENT) ')' '.' prefix  value output
              | 'rec' IDENT '.' prefix
              | postfix
    postfix  := atom ('\\' restr | '[' renaming ']')*
    atom     := '0' | '(' expr ')' | builder '(' ... ')' | IDENT
    action   := '{' [label (',' label)*] '}'
    label    := ['~'] name
    name     := IDENT | coded ('_' INT)*        written right after the ')'
    coded    := 'l(' name ')' | 'r(' name ')' | 'n1(' name ')' ...

Builders call directly into the combinator layer: tensor(P,Q), lapp(Q,P),
rapp(P,R), seq(P,Q), wire({a,b}), pair(P,Q), inl(P), inr(P), bang(P).
An identifier that is not a builder or a prior binding parses as a free
process variable.

Value passing is notation (Milner's value-passing CCS), read away over a
finite value domain `values`: `in s(x). P` reads as the sum over each
value v, in the domain's order, of `{s_v}.P` with x standing for v, and
`out s(v). P` as `{~s_v}.P` (`terms.value_name`).  A value name over a
coded channel prints as `l(a)_0` and reads back as that value name, so
every printed state reads back in a fresh process.  A value variable's
scope is the text of its `in` body.  With no domain a value prefix is a
`ParseError` naming `--values`; so are an unbound value variable and a
value outside the domain.  A domain that repeats a value or holds a
negative one is a ValueError (`value_domain`).  A text with value
prefixes is read twice: first to register its written names in text
order, reading each value prefix's body once and making no value name;
then over the domain, from the main term, reading a binding's text
where the main term first uses it.  So value names, whose codes order
the labels of printed actions and exported transitions, come after the
written ones, in the order of the main term read over the domain.
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
    negative,
    positive,
)
from .terms import (
    NIL,
    Par,
    Prefix,
    Rec,
    Rename,
    Restrict,
    Sum,
    TAU,
    Term,
    Var,
    choice,
    value_name,
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

    def error(self, msg: str, tok: Optional[Token] = None):
        """Raises `Error` at `tok`, by default the token at the cursor."""
        tok = tok or self.peek()
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

# the `_v` suffixes `terms.value_name` writes after a coded channel
_VALUE_SUFFIX = re.compile(r"(?:_(?:0|[1-9][0-9]*))+")

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
    """The term grammar over one text, read once and, when that read meets
    a value prefix, again over the value domain (`reread`)."""

    def __init__(self, text: str):
        super().__init__(text, _TOKEN_RE)
        self.values: Optional[tuple] = None  # the second read's domain; None in the first
        self.passes_values = False  # the first read has met a value prefix
        self.scope: dict[str, int] = {}  # the value of each value variable in scope
        self.env: dict[str, int] = {}  # each binding read so far: where its term starts
        self.uses: dict[int, int] = {}  # each token naming a binding: where its term starts
        self.terms: dict[int, Term] = {}  # the term read from each start, in this read

    # -- names, labels, actions ------------------------------------------

    def parse_name(self) -> Name:
        ident = self._ident("a name")
        if ident in CODINGS and self.at("("):
            self.next()
            inner = self.parse_name()
            close = self.expect(")")
            name = CODINGS[ident].apply_name(inner)
            # a value name over a coded channel prints as `l(a)_0`
            tok = self.peek()
            if (tok.line, tok.col) == (close.line, close.col + 1) and _VALUE_SUFFIX.fullmatch(tok.text):
                self.next()
                for v in tok.text[1:].split("_"):
                    name = value_name(name, int(v))
            return name
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
        if tok.text in ("in", "out"):
            return self._value_prefix()
        return self.parse_postfix()

    def _value_prefix(self) -> Term:
        if self.values == ():
            self.error("value-passing prefixes need --values")
        output = self.next().text == "out"
        chan = self.parse_name()
        self.expect("(")
        tok = self.peek()
        arg = self._value("value") if output else self._ident("value variable")
        self.expect(")")
        self.expect(".")
        if self.values is None:
            # the first read: the body once, and no value name.  What it
            # returns is no guard, so a sum refuses it as a branch.
            self.passes_values = True
            self.parse_prefix()
            return Var("in")
        if output:
            if isinstance(arg, str) and arg not in self.scope:
                self.error(f"unbound value variable {arg}", tok)
            value = self.scope.get(arg, arg)
            if value not in self.values:
                self.error(f"value {value} outside the declared domain", tok)
            return Prefix(frozenset([negative(value_name(chan, value))]), self.parse_prefix())
        start, scope = self.i, self.scope
        branches = []
        for v in self.values:
            self.i, self.scope = start, {**scope, arg: v}
            branches.append((frozenset([positive(value_name(chan, v))]), self.parse_prefix()))
        self.scope = scope
        return choice(tuple(branches))

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
            at = self.i
            name = self.next().text
            if name in _BUILDERS and self.at("("):
                return self._builder(name)
            if self.values is None and name in self.env:
                self.uses[at] = self.env[name]
            if at in self.uses:
                return self.read_from(self.uses[at])
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

    def read_from(self, start: int) -> Term:
        """The term whose text starts at token `start`, read with no value
        variable in scope, once per read: a binding's term, where it is
        first used."""
        if start not in self.terms:
            at, scope = self.i, self.scope
            self.i, self.scope = start, {}
            self.terms[start] = self.parse_expr()
            self.i, self.scope = at, scope
        return self.terms[start]

    def reread(self, start: int, values: tuple) -> Term:
        """The term the first read read from `start`, or, when that read met
        a value prefix, the term read again from `start` over `values`."""
        values = value_domain(values)
        if not self.passes_values:
            return self.terms[start]
        self.values, self.terms = values, {}
        return self.read_from(start)


def value_domain(values) -> tuple:
    """`values` as a tuple; a ValueError names the first value it repeats,
    since each value is one branch of every input read over it, or the
    first negative one, since `s_-1` reads back as no name."""
    values, seen = tuple(values), set()
    for v in values:
        if v in seen:
            raise ValueError(f"value {v} repeated in the value domain")
        if v < 0:
            raise ValueError(f"negative value {v} in the value domain")
        seen.add(v)
    return values


def parse_term(text: str, values: tuple = ()) -> Term:
    """The term `text` writes, its value prefixes read over `values`."""
    p = _Parser(text)
    p.terms[0] = p.parse_expr()
    p.end()
    return p.reread(0, values)


def parse_program(text: str, values: tuple = ()) -> Optional[Term]:
    """The main term of `name = term;` bindings and an optional final bare
    term: that term, else the binding of `main`, else None.  Its value
    prefixes, and those of the bindings it uses, are read over `values`."""
    p = _Parser(text)
    main = None
    while p.peek().kind != "eof":
        tok = p.peek()
        if tok.kind == "ident" and tok.text not in _KEYWORDS and p.tokens[p.i + 1].text == "=":
            p.next()
            p.expect("=")
            start = p.i
            p.terms[start] = p.parse_expr()
            p.expect(";")
            p.env[tok.text] = start
        else:
            main = p.i
            p.terms[main] = p.parse_expr()
            p.end()
    if main is None:
        main = p.env.get("main")
    return None if main is None else p.reread(main, values)


def parse_renaming_text(text: str) -> Renaming:
    p = _Parser(text)
    r = p.parse_renaming()
    p.end()
    return r

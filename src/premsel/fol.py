"""First-order formula ASTs with a parser and a canonical printer.

The surface syntax is a pragmatic FOF-style subset: items of the form
``fof(name, role, formula).`` built from the quantifiers ``!``/``?``
over bracketed variable lists, the connectives ``~ & | => <=>``,
equality ``=``/``!=``, and applied terms.  ``%`` starts a comment that
runs to end of line.  GRAMMAR.md in the repository root lists the exact
token set and grammar.

Bound variables are replaced by de Bruijn indices during parsing (the
innermost binder is index 0), so alpha-equivalent inputs produce equal
ASTs and term equality is plain structural equality.  The printer
renders indices as generated names ``V0, V1, ...`` counted from the
outermost binder; ``parse_item(print_item(x)) == x`` for every
well-formed item.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .errors import FofSyntaxError

ROLES = ("axiom", "definition", "theorem", "conjecture")

# Parser recursion guard; inputs nested deeper than this are rejected
# with a positioned error instead of blowing the Python stack (each
# nesting level costs several interpreter frames).
_MAX_NESTING = 120


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Var:
    """Bound variable as a de Bruijn index (0 = innermost binder)."""

    index: int


@dataclass(frozen=True, slots=True)
class App:
    """Function application; constants are applications of arity 0."""

    name: str
    args: tuple["Term", ...] = ()


Term = Var | App


@dataclass(frozen=True, slots=True)
class Atom:
    pred: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True, slots=True)
class Equals:
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Not:
    body: "Formula"


@dataclass(frozen=True, slots=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Forall:
    body: "Formula"


@dataclass(frozen=True, slots=True)
class Exists:
    body: "Formula"


Formula = Atom | Equals | Not | And | Or | Implies | Iff | Forall | Exists


@dataclass(frozen=True, slots=True)
class NamedItem:
    """One named, role-tagged formula."""

    name: str
    role: str
    formula: Formula


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_BARE_NAME = r"[a-z][a-zA-Z0-9_]*"

# One alternative per token class, tried in order.  A punctuation token's
# kind is its own spelling; BAD takes any character no other alternative
# starts with, including the opening quote of a malformed quoted name.
_TOKEN_RE = re.compile(
    rf"(?P<LOWER>{_BARE_NAME})|(?P<UPPER>[A-Z][a-zA-Z0-9_]*)|(?P<SPACE>[ \t\r\n]+)"
    r"|(?P<PUNCT><=>|=>|!=|[()\[\],.:~&|?=!])|(?P<COMMENT>%[^\n]*)"
    r"|'(?P<QUOTED>[^'\\\n]+)'|(?P<BAD>.)",
    re.DOTALL,
)


class _Token(NamedTuple):
    kind: str  # "LOWER", "UPPER", "EOF" or the punctuation's spelling
    text: str
    offset: int


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of ``offset``; a tab is one column."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, line_start) + 1, offset - line_start + 1


def _tokenize(text: str) -> Iterator[_Token]:
    end = 0  # end of input is reported after the last token or whitespace
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "COMMENT":
            continue
        end = m.end()
        if kind == "SPACE":
            continue
        value = m[kind]
        if kind == "BAD":
            if value == "<":
                message = "expected '<=>'"
            elif value == "'":
                message = "empty quoted name" if text.startswith("'", end) else "unterminated quoted name"
            else:
                message = f"unexpected character {value!r}"
            raise FofSyntaxError(message, *_position(text, m.start()))
        if kind == "PUNCT":
            kind = value
        elif kind == "QUOTED":
            kind = "LOWER"
        yield _Token(kind, value, m.start())
    yield _Token("EOF", "", end)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    """Recursive descent over tokens lexed as they are consumed."""

    def __init__(self, text: str):
        self._text = text
        self._tokens = _tokenize(text)
        self._tok = next(self._tokens)  # the next token, not yet consumed
        self._binders: list[str] = []
        self._depth = 0

    def _advance(self) -> _Token:
        tok, self._tok = self._tok, next(self._tokens)
        return tok

    def _accept(self, kind: str) -> bool:
        """Consume the next token if it is of ``kind``."""
        if self._tok.kind != kind:
            return False
        self._tok = next(self._tokens)
        return True

    def _expect(self, kind: str, what: str | None = None) -> _Token:
        if self._tok.kind != kind:
            self._error(f"expected {what or repr(kind)}", self._tok)
        return self._advance()

    def _error(self, message: str, tok: _Token):
        found = repr(tok.text) if tok.text else "end of input"
        self._raise(f"{message}, found {found}", tok)

    def _raise(self, message: str, tok: _Token):
        # a lexical error anywhere in the text is reported first, as if
        # the whole text had been lexed before parsing
        for _ in self._tokens:
            pass
        raise FofSyntaxError(message, *_position(self._text, tok.offset))

    def at_eof(self) -> bool:
        return self._tok.kind == "EOF"

    def item(self) -> NamedItem:
        kw = self._expect("LOWER", "'fof'")
        if kw.text != "fof":
            self._error("expected 'fof'", kw)
        self._expect("(")
        name = self._expect("LOWER", "item name")
        self._expect(",")
        role = self._expect("LOWER", "item role")
        if role.text not in ROLES:
            self._error(f"role must be one of {', '.join(ROLES)}", role)
        self._expect(",")
        formula = self.formula()
        self._expect(")")
        self._expect(".")
        return NamedItem(name.text, role.text, formula)

    def formula(self) -> Formula:
        left = self._disjunction()
        tok = self._tok
        if tok.kind in ("=>", "<=>"):
            self._advance()
            right = self._disjunction()
            after = self._tok
            if after.kind in ("=>", "<=>"):
                self._error("'=>' and '<=>' are non-associative; add parentheses", after)
            return Implies(left, right) if tok.kind == "=>" else Iff(left, right)
        return left

    def _disjunction(self) -> Formula:
        f = self._conjunction()
        while self._accept("|"):
            f = Or(f, self._conjunction())
        return f

    def _conjunction(self) -> Formula:
        f = self._unit()
        while self._accept("&"):
            f = And(f, self._unit())
        return f

    def _unit(self) -> Formula:
        tok = self._tok
        self._depth += 1
        try:
            if self._depth > _MAX_NESTING:
                self._error("formula is nested too deeply", tok)
            if self._accept("~"):
                return Not(self._unit())
            if tok.kind in ("!", "?"):
                return self._quantified()
            if self._accept("("):
                f = self.formula()
                self._expect(")")
                return f
            if tok.kind in ("LOWER", "UPPER"):
                term = self.term()
                if self._accept("="):
                    return Equals(term, self.term())
                if self._accept("!="):
                    return Not(Equals(term, self.term()))
                if isinstance(term, App):
                    return Atom(term.name, term.args)
                self._error("a bare variable is not a formula", tok)
            self._error("expected a formula", tok)
        finally:
            self._depth -= 1

    def _quantified(self) -> Formula:
        tok = self._advance()
        cls = Forall if tok.kind == "!" else Exists
        self._expect("[")
        names = [self._expect("UPPER", "variable name").text]
        while self._accept(","):
            names.append(self._expect("UPPER", "variable name").text)
        self._expect("]")
        self._expect(":")
        self._binders.extend(names)
        body = self._unit()
        del self._binders[-len(names) :]
        for _ in names:
            body = cls(body)
        return body

    def term(self) -> Term:
        tok = self._tok
        self._depth += 1
        try:
            if self._depth > _MAX_NESTING:
                self._error("term is nested too deeply", tok)
            if tok.kind == "UPPER":
                self._advance()
                for distance, name in enumerate(reversed(self._binders)):
                    if name == tok.text:
                        return Var(distance)
                self._error(f"unbound variable {tok.text}", tok)
            if tok.kind == "LOWER":
                self._advance()
                if not self._accept("("):
                    return App(tok.text)
                args = [self.term()]
                while self._accept(","):
                    args.append(self.term())
                self._expect(")")
                return App(tok.text, tuple(args))
            self._error("expected a term", tok)
        finally:
            self._depth -= 1


def parse_item(text: str) -> NamedItem:
    """Parse exactly one ``fof(...)`` item."""
    parser = _Parser(text)
    item = parser.item()
    if not parser.at_eof():
        parser._error("unexpected text after item", parser._tok)
    return item


def parse_items(text: str) -> list[NamedItem]:
    """Parse a whole file worth of items; item names must be unique."""
    parser = _Parser(text)
    items: list[NamedItem] = []
    seen: set[str] = set()
    while not parser.at_eof():
        tok = parser._tok
        item = parser.item()
        if item.name in seen:
            parser._raise(f"duplicate item name {item.name!r}", tok)
        seen.add(item.name)
        items.append(item)
    return items


def parse_file(path) -> list[NamedItem]:
    with open(path, encoding="utf-8") as handle:
        return parse_items(handle.read())


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

_IMPL, _OR, _AND, _UNIT = 0, 1, 2, 3

_BARE_NAME_RE = re.compile(_BARE_NAME)


def _name_text(name: str) -> str:
    if _BARE_NAME_RE.fullmatch(name):
        return name
    if not name or any(c in "'\\\n" for c in name):
        raise ValueError(f"name {name!r} cannot be printed")
    return f"'{name}'"


def _term_text(term: Term, depth: int) -> str:
    if isinstance(term, Var):
        if not 0 <= term.index < depth:
            raise ValueError(f"variable index {term.index} unbound at depth {depth}")
        return f"V{depth - 1 - term.index}"
    if not term.args:
        return _name_text(term.name)
    args = ", ".join(_term_text(a, depth) for a in term.args)
    return f"{_name_text(term.name)}({args})"


def _formula_text(f: Formula, depth: int, level: int) -> str:
    match f:
        case Forall() | Exists():
            cls = type(f)
            mark = "!" if cls is Forall else "?"
            names = []
            inner: Formula = f
            while type(inner) is cls:
                names.append(f"V{depth + len(names)}")
                inner = inner.body
            body = _formula_text(inner, depth + len(names), _UNIT)
            return f"{mark}[{', '.join(names)}]: {body}"
        case Not(body=Equals(left=left, right=right)):
            return f"{_term_text(left, depth)} != {_term_text(right, depth)}"
        case Not(body=body):
            return f"~{_formula_text(body, depth, _UNIT)}"
        case And() | Or():
            # a left-nested chain of one connective prints flat, one call
            # per operand instead of one nested call per connective
            cls = type(f)
            op, left_level, right_level = (" & ", _AND, _UNIT) if cls is And else (" | ", _OR, _AND)
            rights = []
            inner = f
            while type(inner) is cls:
                rights.append(inner.right)
                inner = inner.left
            text = _formula_text(inner, depth, left_level)
            for right in reversed(rights):
                text += op + _formula_text(right, depth, right_level)
            return f"({text})" if level > left_level else text
        case Implies(left=left, right=right) | Iff(left=left, right=right):
            op = "=>" if type(f) is Implies else "<=>"
            text = f"{_formula_text(left, depth, _OR)} {op} {_formula_text(right, depth, _OR)}"
            return f"({text})" if level > _IMPL else text
        case Atom(pred=pred, args=args):
            if not args:
                return _name_text(pred)
            return f"{_name_text(pred)}({', '.join(_term_text(a, depth) for a in args)})"
        case Equals(left=left, right=right):
            return f"{_term_text(left, depth)} = {_term_text(right, depth)}"
    raise ValueError(f"not a formula node: {f!r}")


def print_item(item: NamedItem) -> str:
    """Canonical text of an item; re-parsing yields a structurally equal AST."""
    if item.role not in ROLES:
        raise ValueError(f"unknown role {item.role!r}")
    body = _formula_text(item.formula, 0, _IMPL)
    return f"fof({_name_text(item.name)}, {item.role}, {body})."

"""First-order formula ASTs with a parser and a canonical printer.

The surface syntax is a pragmatic FOF-style subset: items of the form
``fof(name, role, formula).`` built from the quantifiers ``!``/``?``
over bracketed variable lists, the connectives ``~ & | => <=>``,
equality ``=``/``!=``, and applied terms.  ``%`` starts a comment that
runs to end of line.  GRAMMAR.md in the repository root lists the exact
token set and grammar.

One regex turns the text into a list of token strings, which the parser
walks by index; token offsets are worked out only for an error.

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

# One match per token, after the whitespace and comments before it; the
# text after the last token gives one or two '' tokens, the end.  The
# token is optional, so a match never backtracks over whitespace.  A
# token's kind is read from its first character: by string order, token t
# is a variable iff "A" <= t < "[", and a name iff "a" <= t < "{" or,
# quoted and kept with its quotes, "'" < t < "(".  A punctuation token is
# its own spelling.  Any other one-character token is a lexical error.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]+|%[^\n]*)*(<=>|=>|!=|[a-zA-Z][a-zA-Z0-9_]*|'[^'\\\n]+'|[^ \t\r\n%])?"
)
_ONE_CHAR = frozenset("()[],.:~&|?=!abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of ``offset``; a tab is one column."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, line_start) + 1, offset - line_start + 1


def _raise(text: str, index: int, message: str):
    """Raise the first lexical error in ``text``, or else ``message`` at
    token ``index`` of ``_TOKEN_RE.findall(text)``."""
    offset = 0
    for k, m in enumerate(_TOKEN_RE.finditer(text)):
        tok = m[1]
        if tok and len(tok) == 1 and tok not in _ONE_CHAR:
            if tok == "<":
                message = "expected '<=>'"
            elif tok == "'":
                empty = text.startswith("'", m.end())
                message = "empty quoted name" if empty else "unterminated quoted name"
            else:
                message = f"unexpected character {tok!r}"
            raise FofSyntaxError(message, *_position(text, m.start(1))) from None
        if k == index:
            offset = m.start(1)
            if not tok:  # the end: after the last whitespace outside a comment
                comment = text.find("%", text.rfind("\n", m.start()) + 1 or m.start())
                offset = len(text) if comment < 0 else comment
    raise FofSyntaxError(message, *_position(text, offset)) from None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _GrammarError(Exception):
    """``args`` are the index of the token at fault and the message."""


def _error(toks: list[str], i: int, message: str) -> _GrammarError:
    tok = toks[i]
    found = repr(tok[1:-1] if "'" < tok < "(" else tok) if tok else "end of input"
    return _GrammarError(i, f"{message}, found {found}")


def _expect(toks: list[str], i: int, tok: str) -> int:
    if toks[i] != tok:
        raise _error(toks, i, f"expected {tok!r}")
    return i + 1


def _name(tok: str) -> str | None:
    """The name that a bare or quoted name token spells, else None."""
    if "a" <= tok < "{":
        return tok
    return tok[1:-1] if "'" < tok < "(" else None


# Each function parses from token ``i`` at nesting depth ``d`` under the
# bound variable names ``binders``, innermost first, and returns the node
# and the index after it.


def _item(toks: list[str], i: int) -> tuple[NamedItem, int]:
    if _name(toks[i]) != "fof":
        raise _error(toks, i, "expected 'fof'")
    i = _expect(toks, i + 1, "(")
    name = _name(toks[i])
    if name is None:
        raise _error(toks, i, "expected item name")
    i = _expect(toks, i + 1, ",")
    role = _name(toks[i])
    if role is None:
        raise _error(toks, i, "expected item role")
    if role not in ROLES:
        raise _error(toks, i, f"role must be one of {', '.join(ROLES)}")
    formula, i = _formula(toks, _expect(toks, i + 1, ","), 0, ())
    i = _expect(toks, i, ")")
    return NamedItem(name, role, formula), _expect(toks, i, ".")


def _formula(toks: list[str], i: int, d: int, binders: tuple[str, ...]) -> tuple[Formula, int]:
    left, i = _disjunction(toks, i, d, binders)
    op = toks[i]
    if op != "=>" and op != "<=>":
        return left, i
    right, i = _disjunction(toks, i + 1, d, binders)
    if toks[i] == "=>" or toks[i] == "<=>":
        raise _error(toks, i, "'=>' and '<=>' are non-associative; add parentheses")
    return (Implies if op == "=>" else Iff)(left, right), i


def _disjunction(toks: list[str], i: int, d: int, binders: tuple[str, ...]) -> tuple[Formula, int]:
    f, i = _conjunction(toks, i, d, binders)
    while toks[i] == "|":
        right, i = _conjunction(toks, i + 1, d, binders)
        f = Or(f, right)
    return f, i


def _conjunction(toks: list[str], i: int, d: int, binders: tuple[str, ...]) -> tuple[Formula, int]:
    f, i = _unit(toks, i, d, binders)
    while toks[i] == "&":
        right, i = _unit(toks, i + 1, d, binders)
        f = And(f, right)
    return f, i


def _unit(toks: list[str], i: int, d: int, binders: tuple[str, ...]) -> tuple[Formula, int]:
    tok = toks[i]
    d += 1
    if d > _MAX_NESTING:
        raise _error(toks, i, "formula is nested too deeply")
    if tok == "~":
        body, i = _unit(toks, i + 1, d, binders)
        return Not(body), i
    if tok == "!" or tok == "?":
        return _quantified(toks, i, d, binders)
    if tok == "(":
        f, i = _formula(toks, i + 1, d, binders)
        return f, _expect(toks, i, ")")
    if not ("a" <= tok < "{" or "A" <= tok < "[" or "'" < tok < "("):
        raise _error(toks, i, "expected a formula")
    left, j = _term(toks, i, d, binders)
    if toks[j] == "=" or toks[j] == "!=":
        right, k = _term(toks, j + 1, d, binders)
        return (Equals(left, right) if toks[j] == "=" else Not(Equals(left, right))), k
    if type(left) is Var:
        raise _error(toks, i, "a bare variable is not a formula")
    return Atom(left.name, left.args), j


def _quantified(toks: list[str], i: int, d: int, binders: tuple[str, ...]) -> tuple[Formula, int]:
    cls = Forall if toks[i] == "!" else Exists
    i = _expect(toks, i + 1, "[")
    names: list[str] = []
    while True:
        if not ("A" <= toks[i] < "["):
            raise _error(toks, i, "expected variable name")
        names.append(toks[i])
        if toks[i + 1] != ",":
            break
        i += 2
    i = _expect(toks, _expect(toks, i + 1, "]"), ":")
    body, i = _unit(toks, i, d, (*reversed(names), *binders))
    for _ in names:
        body = cls(body)
    return body, i


def _term(toks: list[str], i: int, d: int, binders: tuple[str, ...]) -> tuple[Term, int]:
    tok = toks[i]
    d += 1
    if d > _MAX_NESTING:
        raise _error(toks, i, "term is nested too deeply")
    if "A" <= tok < "[":
        if tok not in binders:
            raise _error(toks, i, f"unbound variable {tok}")
        return Var(binders.index(tok)), i + 1
    name = _name(tok)
    if name is None:
        raise _error(toks, i, "expected a term")
    if toks[i + 1] != "(":
        return App(name), i + 1
    arg, i = _term(toks, i + 2, d, binders)
    args = [arg]
    while toks[i] == ",":
        arg, i = _term(toks, i + 1, d, binders)
        args.append(arg)
    return App(name, tuple(args)), _expect(toks, i, ")")


def parse_item(text: str) -> NamedItem:
    """Parse exactly one ``fof(...)`` item."""
    toks = _TOKEN_RE.findall(text)
    try:
        item, i = _item(toks, 0)
        if toks[i]:
            raise _error(toks, i, "unexpected text after item")
    except _GrammarError as error:
        _raise(text, *error.args)
    return item


def parse_items(text: str) -> list[NamedItem]:
    """Parse a whole file worth of items; item names must be unique."""
    toks = _TOKEN_RE.findall(text)
    items: dict[str, NamedItem] = {}
    i = 0
    try:
        while toks[i]:
            item, j = _item(toks, i)
            if item.name in items:
                raise _GrammarError(i, f"duplicate item name {item.name!r}")
            items[item.name] = item
            i = j
    except _GrammarError as error:
        _raise(text, *error.args)
    return list(items.values())


def parse_file(path) -> list[NamedItem]:
    with open(path, encoding="utf-8") as handle:
        return parse_items(handle.read())


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

_IMPL, _OR, _AND, _UNIT = 0, 1, 2, 3

_BARE_NAME_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")


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

"""Textual expression language for quadrant sets.

Every form is ``NAME(arg, ...)``, a bare ``NAME`` or a brace list
``NAME{item, ...}``; the tables ``_GRAMMARS`` below declare each form once,
and both the parser and ``to_dsl`` read them.  Whitespace is insignificant.
A number (``NUM``) is an integer, a rational ``INT/INT`` or a decimal, and is
kept as an exact ``Fraction``.  The README lists the grammar.

``delim(f, g)`` takes the lower bound first; construction rejects pairs that
violate ``g(m) >= f(m) >= 1``.  Parse errors carry line/column positions.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import NamedTuple

from .sets import (
    Complement,
    Constant,
    Delimited,
    Difference,
    Dilate,
    Empty,
    Exponential,
    FiniteSet,
    FinitePairs,
    FullP,
    FullQuadrant,
    GaussSetExpr,
    IntComplement,
    IntIntersection,
    IntUnion,
    Intersection,
    Lattice,
    Multiples,
    Power,
    Product,
    Translate,
    Union,
    UpperQuadrant,
    ValidationError,
)

__all__ = ["ParseError", "parse_expression", "to_dsl"]


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class _Tok(NamedTuple):
    kind: str   # NAME | INT | DECIMAL | PUNCT | END
    text: str
    line: int
    col: int


_PUNCT = set("(){},/")
# ASCII only: str.isdigit also accepts superscripts, which int() rejects
_DIGITS = set("0123456789")
# every nested form opens a parenthesis; deeper input would exhaust the
# recursion of the parser and of the engines that walk the expression
MAX_NESTING = 200


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col = 1, 1
    i = 0
    depth = 0
    while i < len(text):
        ch = text[i]
        j = i + 1
        if ch == "\n":
            line, col, i = line + 1, 1, j
            continue
        if ch in _PUNCT:
            depth += (ch == "(") - (ch == ")")
            if depth > MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING} levels", line, col)
            toks.append(_Tok("PUNCT", ch, line, col))
        elif ch in _DIGITS or (ch == "." and j < len(text) and text[j] in _DIGITS):
            seen_dot = ch == "."
            while j < len(text) and (text[j] in _DIGITS or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            toks.append(_Tok("DECIMAL" if seen_dot else "INT", text[i:j], line, col))
        elif ch.isalpha() or ch == "_":
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("NAME", text[i:j], line, col))
        elif not ch.isspace():
            raise ParseError(f"unexpected character {ch!r}", line, col)
        col += j - i
        i = j
    toks.append(_Tok("END", "", line, col))
    return toks


# A form maps its name to its node type and one argument kind per dataclass
# field, in field order.  A kind is a sub-grammar name, _NUM, an _Int, or a
# tuple of kinds for a tuple-valued field, written as its comma-separated
# elements.  A form with no arguments (None) is a bare name; a _Braces form
# fills its one field with a brace list.

@dataclass(frozen=True)
class _Int:
    """An integer argument: its minimum and what an error calls it."""

    minimum: int
    noun: str


@dataclass(frozen=True)
class _Braces:
    """``{item, ...}`` with optional commas; a tuple item is parenthesised."""

    item: object


_NUM = "number"
_EXPR, _BOUND, _INTS = "expr", "bound", "ints"

_MODULUS = _Int(1, "lattice modulus")
_OFFSET = _Int(0, "offset")
_FACTOR = _Int(1, "dilation factor")
_CORNER = _Int(1, "corner")

# sub-grammar -> (what a missing form is called, what an unknown name is
# called, forms)
_GRAMMARS = {
    _EXPR: ("an expression", "expression form", {
        "P2": (FullQuadrant, None),
        "empty": (Empty, None),
        "lattice": (Lattice, (_MODULUS, _MODULUS)),
        "prod": (Product, (_INTS, _INTS)),
        "finite": (FinitePairs, _Braces((_Int(1, "coordinate"), _Int(1, "coordinate")))),
        "translate": (Translate, (_EXPR, (_OFFSET, _OFFSET))),
        "dilate": (Dilate, ((_FACTOR, _FACTOR), _EXPR)),
        "union": (Union, (_EXPR, _EXPR)),
        "inter": (Intersection, (_EXPR, _EXPR)),
        "compl": (Complement, (_EXPR,)),
        "diff": (Difference, (_EXPR, _EXPR)),
        "upper": (UpperQuadrant, (_CORNER, _CORNER)),
        "delim": (Delimited, (_BOUND, _BOUND)),
    }),
    _BOUND: ("a bound function (const/pow/exp)", "bound function", {
        "const": (Constant, (_NUM,)),
        "pow": (Power, (_NUM, _NUM)),
        "exp": (Exponential, (_NUM, _NUM)),
    }),
    _INTS: ("an integer-set expression", "integer-set form", {
        "P": (FullP, None),
        "mult": (Multiples, (_Int(1, "modulus"),)),
        "set": (FiniteSet, _Braces(_Int(1, "element"))),
        "union": (IntUnion, (_INTS, _INTS)),
        "inter": (IntIntersection, (_INTS, _INTS)),
        "compl": (IntComplement, (_INTS,)),
    }),
}

# node type -> (form name, argument kinds, field names)
_FORM_OF = {
    cls: (name, args, tuple(f.name for f in fields(cls)))
    for _, _, forms in _GRAMMARS.values()
    for name, (cls, args) in forms.items()
}


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def take(self) -> _Tok:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Tok:
        tok = self.take()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return tok

    def parse_int(self, kind: _Int) -> int:
        tok = self.expect("INT")
        value = int(tok.text)
        if value < kind.minimum:
            raise ParseError(f"{kind.noun} must be >= {kind.minimum}, got {value}",
                             tok.line, tok.col)
        return value

    def parse_number(self) -> Fraction:
        tok = self.take()
        if tok.kind == "INT":
            if self.peek().kind == "PUNCT" and self.peek().text == "/":
                self.take()
                denom = self.expect("INT")
                if int(denom.text) == 0:
                    raise ParseError("zero denominator", denom.line, denom.col)
                return Fraction(int(tok.text), int(denom.text))
            return Fraction(int(tok.text))
        if tok.kind == "DECIMAL":
            return Fraction(tok.text)
        raise ParseError(f"expected a number, found {tok.text or 'end of input'!r}",
                         tok.line, tok.col)

    def parse_leaf(self, kind):
        """An argument of any kind but a sub-grammar."""
        if kind is _NUM:
            return self.parse_number()
        if isinstance(kind, _Int):
            return self.parse_int(kind)
        values = []
        for i, part in enumerate(kind):
            if i:
                self.expect("PUNCT", ",")
            values.append(self.parse_leaf(part))
        return tuple(values)

    def parse_braces(self, item) -> tuple:
        self.expect("PUNCT", "{")
        items = []
        while self.peek().text != "}":
            if isinstance(item, tuple):
                self.expect("PUNCT", "(")
                items.append(self.parse_leaf(item))
                self.expect("PUNCT", ")")
            else:
                items.append(self.parse_leaf(item))
            if self.peek().text == ",":
                self.take()
        self.take()
        return tuple(items)

    def parse(self, grammar: str):
        """One form of the sub-grammar, with its arguments."""
        expected, unknown, forms = _GRAMMARS[grammar]
        tok = self.peek()
        if tok.kind != "NAME":
            raise ParseError(f"expected {expected}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        self.pos += 1
        if tok.text not in forms:
            raise ParseError(f"unknown {unknown} {tok.text!r}", tok.line, tok.col)
        cls, args = forms[tok.text]
        try:
            if args is None:
                return cls()
            if isinstance(args, _Braces):
                return cls(self.parse_braces(args.item))
            self.expect("PUNCT", "(")
            values = []
            for i, kind in enumerate(args):
                if i:
                    self.expect("PUNCT", ",")
                values.append(self.parse(kind) if kind in _GRAMMARS else self.parse_leaf(kind))
            self.expect("PUNCT", ")")
            return cls(*values)
        except ValidationError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from exc


def parse_expression(text: str) -> GaussSetExpr:
    """Parse the DSL; raises ParseError with position on malformed input."""
    parser = _Parser(text)
    expr = parser.parse(_EXPR)
    tail = parser.peek()
    if tail.kind != "END":
        raise ParseError(f"trailing input {tail.text!r}", tail.line, tail.col)
    return expr


def _leaf_dsl(kind, value) -> str:
    if kind is _NUM:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(kind, _Int):
        return str(value)
    return ",".join(_leaf_dsl(k, v) for k, v in zip(kind, value))


def to_dsl(e: GaussSetExpr) -> str:
    """Print an expression in the DSL; parse(to_dsl(e)) denotes the same set."""
    if type(e) not in _FORM_OF:
        raise TypeError(e)
    name, args, names = _FORM_OF[type(e)]
    if args is None:
        return name
    if isinstance(args, _Braces):
        item = args.item
        parts = [_leaf_dsl(item, v) for v in getattr(e, names[0])]
        if isinstance(item, tuple):
            parts = [f"({p})" for p in parts]
        return name + "{" + ",".join(parts) + "}"
    parts = []
    # a plain loop keeps the printer at one frame per nesting level
    for kind, field in zip(args, names):
        value = getattr(e, field)
        parts.append(to_dsl(value) if kind in _GRAMMARS else _leaf_dsl(kind, value))
    return f"{name}({','.join(parts)})"

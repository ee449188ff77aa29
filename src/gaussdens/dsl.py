"""Textual expression language for quadrant sets.

Grammar (whitespace-insensitive)::

    expr   := P2 | empty
            | lattice(INT, INT)
            | prod(ints, ints)
            | finite{(INT, INT), ...}
            | translate(expr, INT, INT)
            | dilate(INT, INT, expr)
            | union(expr, expr) | inter(expr, expr)
            | compl(expr) | diff(expr, expr)
            | upper(INT, INT)
            | delim(bound, bound)
    bound  := const(NUM) | pow(NUM, NUM) | exp(NUM, NUM)
    ints   := P | mult(INT) | set{INT, ...}
            | union(ints, ints) | inter(ints, ints) | compl(ints)
    NUM    := INT | INT/INT | DECIMAL        # rationals preferred internally

``delim(f, g)`` takes the lower bound first; construction rejects pairs that
violate ``g(m) >= f(m) >= 1``.  Parse errors carry line/column positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .sets import (
    BoundFn,
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
    IntSetExpr,
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


@dataclass(frozen=True)
class _Tok:
    kind: str   # NAME | INT | DECIMAL | PUNCT | END
    text: str
    line: int
    col: int


_PUNCT = set("(){},/")
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
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _PUNCT:
            depth += (ch == "(") - (ch == ")")
            if depth > MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING} levels", line, col)
            toks.append(_Tok("PUNCT", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < len(text) and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < len(text) and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            word = text[i:j]
            toks.append(_Tok("DECIMAL" if seen_dot else "INT", word, line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Tok("END", "", line, col))
    return toks


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

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    # -- numbers ------------------------------------------------------------

    def parse_int(self, minimum: int | None = None, what: str = "integer") -> int:
        tok = self.expect("INT")
        value = int(tok.text)
        if minimum is not None and value < minimum:
            raise ParseError(f"{what} must be >= {minimum}, got {value}", tok.line, tok.col)
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

    # -- grammar ------------------------------------------------------------

    def parse_expr(self) -> GaussSetExpr:
        tok = self.peek()
        if tok.kind != "NAME":
            raise self.fail(f"expected an expression, found {tok.text or 'end of input'!r}")
        name = self.take().text
        try:
            return self._expr_named(name, tok)
        except ValidationError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from exc

    def _expr_named(self, name: str, tok: _Tok) -> GaussSetExpr:
        if name == "P2":
            return FullQuadrant()
        if name == "empty":
            return Empty()
        if name == "lattice":
            self.expect("PUNCT", "(")
            p = self.parse_int(1, "lattice modulus")
            self.expect("PUNCT", ",")
            q = self.parse_int(1, "lattice modulus")
            self.expect("PUNCT", ")")
            return Lattice(p, q)
        if name == "prod":
            self.expect("PUNCT", "(")
            h = self.parse_ints()
            self.expect("PUNCT", ",")
            v = self.parse_ints()
            self.expect("PUNCT", ")")
            return Product(h, v)
        if name == "finite":
            self.expect("PUNCT", "{")
            pairs = []
            while True:
                if self.peek().text == "}":
                    self.take()
                    break
                self.expect("PUNCT", "(")
                m = self.parse_int(1, "coordinate")
                self.expect("PUNCT", ",")
                n = self.parse_int(1, "coordinate")
                self.expect("PUNCT", ")")
                pairs.append((m, n))
                if self.peek().text == ",":
                    self.take()
            return FinitePairs(tuple(pairs))
        if name == "translate":
            self.expect("PUNCT", "(")
            inner = self.parse_expr()
            self.expect("PUNCT", ",")
            m0 = self.parse_int(0, "offset")
            self.expect("PUNCT", ",")
            n0 = self.parse_int(0, "offset")
            self.expect("PUNCT", ")")
            return Translate(inner, (m0, n0))
        if name == "dilate":
            self.expect("PUNCT", "(")
            a = self.parse_int(1, "dilation factor")
            self.expect("PUNCT", ",")
            b = self.parse_int(1, "dilation factor")
            self.expect("PUNCT", ",")
            inner = self.parse_expr()
            self.expect("PUNCT", ")")
            return Dilate((a, b), inner)
        if name in ("union", "inter", "diff"):
            self.expect("PUNCT", "(")
            left = self.parse_expr()
            self.expect("PUNCT", ",")
            right = self.parse_expr()
            self.expect("PUNCT", ")")
            if name == "union":
                return Union(left, right)
            if name == "inter":
                return Intersection(left, right)
            return Difference(left, right)
        if name == "compl":
            self.expect("PUNCT", "(")
            inner = self.parse_expr()
            self.expect("PUNCT", ")")
            return Complement(inner)
        if name == "upper":
            self.expect("PUNCT", "(")
            m0 = self.parse_int(1, "corner")
            self.expect("PUNCT", ",")
            n0 = self.parse_int(1, "corner")
            self.expect("PUNCT", ")")
            return UpperQuadrant(m0, n0)
        if name == "delim":
            self.expect("PUNCT", "(")
            lower = self.parse_bound()
            self.expect("PUNCT", ",")
            upper = self.parse_bound()
            self.expect("PUNCT", ")")
            return Delimited(lower, upper)
        raise ParseError(f"unknown expression form {name!r}", tok.line, tok.col)

    def parse_bound(self) -> BoundFn:
        tok = self.peek()
        if tok.kind != "NAME":
            raise self.fail("expected a bound function (const/pow/exp)")
        name = self.take().text
        try:
            if name == "const":
                self.expect("PUNCT", "(")
                k = self.parse_number()
                self.expect("PUNCT", ")")
                return Constant(k)
            if name == "pow":
                self.expect("PUNCT", "(")
                c = self.parse_number()
                self.expect("PUNCT", ",")
                alpha = self.parse_number()
                self.expect("PUNCT", ")")
                return Power(c, alpha)
            if name == "exp":
                self.expect("PUNCT", "(")
                c = self.parse_number()
                self.expect("PUNCT", ",")
                a = self.parse_number()
                self.expect("PUNCT", ")")
                return Exponential(c, a)
        except ValidationError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from exc
        raise ParseError(f"unknown bound function {name!r}", tok.line, tok.col)

    def parse_ints(self) -> IntSetExpr:
        tok = self.peek()
        if tok.kind != "NAME":
            raise self.fail("expected an integer-set expression")
        name = self.take().text
        try:
            if name == "P":
                return FullP()
            if name == "mult":
                self.expect("PUNCT", "(")
                p = self.parse_int(1, "modulus")
                self.expect("PUNCT", ")")
                return Multiples(p)
            if name == "set":
                self.expect("PUNCT", "{")
                vals = []
                while True:
                    if self.peek().text == "}":
                        self.take()
                        break
                    vals.append(self.parse_int(1, "element"))
                    if self.peek().text == ",":
                        self.take()
                return FiniteSet(tuple(vals))
            if name in ("union", "inter"):
                self.expect("PUNCT", "(")
                left = self.parse_ints()
                self.expect("PUNCT", ",")
                right = self.parse_ints()
                self.expect("PUNCT", ")")
                return IntUnion(left, right) if name == "union" else IntIntersection(left, right)
            if name == "compl":
                self.expect("PUNCT", "(")
                inner = self.parse_ints()
                self.expect("PUNCT", ")")
                return IntComplement(inner)
        except ValidationError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from exc
        raise ParseError(f"unknown integer-set form {name!r}", tok.line, tok.col)


def parse_expression(text: str) -> GaussSetExpr:
    """Parse the DSL; raises ParseError with position on malformed input."""
    parser = _Parser(text)
    expr = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "END":
        raise ParseError(f"trailing input {tail.text!r}", tail.line, tail.col)
    return expr


def _num(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _bound_dsl(b: BoundFn) -> str:
    if isinstance(b, Constant):
        return f"const({_num(b.k)})"
    if isinstance(b, Power):
        return f"pow({_num(b.c)},{_num(b.alpha)})"
    if isinstance(b, Exponential):
        return f"exp({_num(b.c)},{_num(b.a)})"
    raise TypeError(b)


def _ints_dsl(e: IntSetExpr) -> str:
    if isinstance(e, FullP):
        return "P"
    if isinstance(e, Multiples):
        return f"mult({e.modulus})"
    if isinstance(e, FiniteSet):
        return "set{" + ",".join(str(v) for v in e.elements) + "}"
    if isinstance(e, IntUnion):
        return f"union({_ints_dsl(e.left)},{_ints_dsl(e.right)})"
    if isinstance(e, IntIntersection):
        return f"inter({_ints_dsl(e.left)},{_ints_dsl(e.right)})"
    if isinstance(e, IntComplement):
        return f"compl({_ints_dsl(e.inner)})"
    raise TypeError(e)


def to_dsl(e: GaussSetExpr) -> str:
    """Print an expression in the DSL; parse(to_dsl(e)) denotes the same set."""
    if isinstance(e, FullQuadrant):
        return "P2"
    if isinstance(e, Empty):
        return "empty"
    if isinstance(e, Lattice):
        return f"lattice({e.p},{e.q})"
    if isinstance(e, Product):
        return f"prod({_ints_dsl(e.h)},{_ints_dsl(e.v)})"
    if isinstance(e, FinitePairs):
        inner = ",".join(f"({m},{n})" for m, n in e.pairs)
        return "finite{" + inner + "}"
    if isinstance(e, Translate):
        return f"translate({to_dsl(e.inner)},{e.offset[0]},{e.offset[1]})"
    if isinstance(e, Dilate):
        return f"dilate({e.factor[0]},{e.factor[1]},{to_dsl(e.inner)})"
    if isinstance(e, Union):
        return f"union({to_dsl(e.left)},{to_dsl(e.right)})"
    if isinstance(e, Intersection):
        return f"inter({to_dsl(e.left)},{to_dsl(e.right)})"
    if isinstance(e, Complement):
        return f"compl({to_dsl(e.inner)})"
    if isinstance(e, Difference):
        return f"diff({to_dsl(e.left)},{to_dsl(e.right)})"
    if isinstance(e, UpperQuadrant):
        return f"upper({e.m0},{e.n0})"
    if isinstance(e, Delimited):
        return f"delim({_bound_dsl(e.lower)},{_bound_dsl(e.upper)})"
    raise TypeError(e)

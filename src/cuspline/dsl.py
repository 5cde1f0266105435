"""Expression language for ring and module elements.

Grammar (whitespace-insensitive)::

    expr     := product ( '|x|' expr )?          induction, right-assoc
    product  := unary ( '*' unary )*             ring product, left-assoc
    unary    := FUNC '(' expr ')' | atom
    atom     := 'sigma'
              | ('d' | 'z') '[' half ( ',' half )? ']' '@' NAME
              | ('St' | 'CoSt') '(' half ',' INT ')' '@' NAME
              | '(' expr ')'
    half     := INT | FRACTION                   e.g. 2, -1, 1/2, -3/2

``d[b,e]@line`` / ``z[b,e]@line`` are one-segment classes in the two rigid
bases (``d[b]`` abbreviates ``d[b,b]``); ``St``/``CoSt`` are the two families
of base atoms over sigma.  Functions: ``mstar`` (ring restriction), ``Mstar``
(twisted ring restriction), ``mustar`` (module restriction), ``mw``
(multisegment involution), ``dual`` (contragredient), ``D`` (derivative,
zeta basis), ``hd`` (highest derivative).  ``*`` binds tighter than ``|x|``.

Parse problems raise :class:`DslSyntaxError` with a character position;
ill-typed operations (mixed bases, wrong side of ``|x|``) raise
:class:`DslTypeError`.  Two limits keep parsing and evaluation off the
interpreter stack's edge, and past either one the input is a syntax error:
an expression has at most ``MAX_LENGTH`` (10000) characters, and at most
``MAX_NESTING`` (100) levels of parentheses, function calls and ``|x|``
right operands nested inside one another.  A number of more than
``MAX_DIGITS`` (1000) digits is a syntax error too, so that every value made
from one still converts to text.  A product of any length is one flat
``Prod`` node, evaluated in a loop.  A function or a ``*`` product that
could make more than ``MAX_TERMS`` (100000) terms, and an ``mw`` that could
build more than ``MAX_TERMS`` new segments, is a type error before it
expands.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from math import prod
from operator import mul
from typing import List, Tuple

from .core import (
    MAX_DIGITS, Context, CusplineError, DEFAULT_CONTEXT, EMPTY_MS, Segment, ms,
)
from .halfint import HalfInt
from .glhopf import (
    GLElt,
    MixedBasisError,
    TensorGL,
    comult,
    contragredient,
    delta_key,
    derivative,
    highest_derivative,
    mw_dual,
    twisted_comult,
    zeta_key,
)
from .classical import (
    ClassElt,
    CoStGenSymbol,
    DatumError,
    NotCuspidalBaseError,
    StGenSymbol,
    TensorClass,
    induced,
    module_comult,
    rtimes,
)


class DslSyntaxError(CusplineError):
    def __init__(self, message: str, pos: int, expected: Tuple[str, ...] = ()):
        self.pos = pos
        self.expected = expected
        suffix = f" (expected {' or '.join(expected)})" if expected else ""
        super().__init__(f"at position {pos}: {message}{suffix}")


class DslTypeError(CusplineError):
    pass


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<induce>\|x\|)
  | (?P<number>-?\d+(?:/2)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<punct>[\[\](),@*])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # 'number' | 'name' | 'induce' | one of the punct chars | 'eof'
    text: str
    pos: int


def _tokenize(text: str) -> List[Token]:
    out: List[Token] = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise DslSyntaxError(f"unexpected character {text[i]!r}", i)
        i = m.end()
        if m.lastgroup == "ws":
            continue
        kind = m.lastgroup
        if kind == "punct":
            kind = m.group()
        out.append(Token(kind, m.group(), m.start()))
    out.append(Token("eof", "", len(text)))
    return out


# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SegAtom:
    basis: str  # 'd' | 'z'
    b: HalfInt
    e: HalfInt
    line: str
    pos: int


@dataclass(frozen=True)
class BaseAtom:
    kind: str  # 'St' | 'CoSt'
    a: HalfInt
    n: int
    line: str
    pos: int


@dataclass(frozen=True)
class SigmaAtom:
    pos: int


@dataclass(frozen=True)
class Prod:
    """A product of two or more factors, evaluated left to right; ``pos`` is
    the position of its first ``*``.  The tree stays flat, so comparing and
    printing a long product never recurses per factor."""

    factors: Tuple["Expr", ...]
    pos: int

    @property
    def left(self) -> "Expr":
        """All factors but the last (the product is left-associative)."""
        rest = self.factors[:-1]
        return rest[0] if len(rest) == 1 else Prod(rest, self.pos)

    @property
    def right(self) -> "Expr":
        return self.factors[-1]


@dataclass(frozen=True)
class Induce:
    left: "Expr"
    right: "Expr"
    pos: int


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"
    pos: int


# PEP 604, as classical.BaseSymbol: a ``typing.Union`` would keep these
# classes, and this module with them, alive in ``typing``'s cache
Expr = SegAtom | BaseAtom | SigmaAtom | Prod | Induce | Call

FUNCTIONS = ("mstar", "Mstar", "mustar", "mw", "dual", "D", "hd")

MAX_LENGTH = 10_000
MAX_NESTING = 100
MAX_TERMS = 100_000

# Terms each expanding function makes from one segment of a given length.
_SEGMENT_TERMS = {
    "D": lambda length: 2, "hd": lambda length: 2,
    "mstar": lambda length: length + 1,
    "Mstar": lambda length: (length + 1) * (length + 2) // 2,
}


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.i = 0
        self.nesting = -1  # parse_expr levels entered; the whole input is level 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.cur
        self.i += 1
        return tok

    def expect(self, kind: str, expected: Tuple[str, ...] = ()) -> Token:
        if self.cur.kind != kind:
            raise DslSyntaxError(
                f"found {self.cur.text or 'end of input'!r}",
                self.cur.pos,
                expected or (kind,),
            )
        return self.advance()

    def parse_expr(self) -> Expr:
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise DslSyntaxError(
                f"expression nested deeper than {MAX_NESTING} levels", self.cur.pos
            )
        left = self.parse_product()
        if self.cur.kind == "induce":
            pos = self.advance().pos
            left = Induce(left, self.parse_expr(), pos)
        self.nesting -= 1
        return left

    def parse_product(self) -> Expr:
        factors = [self.parse_unary()]
        pos = self.cur.pos
        while self.cur.kind == "*":
            self.advance()
            factors.append(self.parse_unary())
        return factors[0] if len(factors) == 1 else Prod(tuple(factors), pos)

    def parse_unary(self) -> Expr:
        tok = self.cur
        if tok.kind == "name" and tok.text in FUNCTIONS:
            self.advance()
            self.expect("(", ("'('",))
            arg = self.parse_expr()
            self.expect(")", ("')'",))
            return Call(tok.text, arg, tok.pos)
        return self.parse_atom()

    def parse_number(self, expected: str) -> Token:
        tok = self.expect("number", (expected,))
        digits = len(tok.text.lstrip("-").partition("/")[0])
        if digits > MAX_DIGITS:
            raise DslSyntaxError(
                f"number of {digits} digits, more than {MAX_DIGITS}", tok.pos
            )
        return tok

    def parse_half(self) -> HalfInt:
        return HalfInt.parse(self.parse_number("a number").text)

    def parse_int(self) -> int:
        tok = self.parse_number("an integer")
        if "/" in tok.text:
            raise DslSyntaxError(
                f"found fraction {tok.text!r}", tok.pos, ("an integer",)
            )
        return int(tok.text)

    def parse_line(self) -> str:
        self.expect("@", ("'@'",))
        return self.expect("name", ("a line id",)).text

    def parse_atom(self) -> Expr:
        tok = self.cur
        if tok.kind == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")", ("')'",))
            return inner
        if tok.kind != "name":
            raise DslSyntaxError(
                f"found {tok.text or 'end of input'!r}",
                tok.pos,
                ("an atom", "a function"),
            )
        if tok.text == "sigma":
            self.advance()
            return SigmaAtom(tok.pos)
        if tok.text in ("d", "z"):
            self.advance()
            self.expect("[", ("'['",))
            b = self.parse_half()
            e = b
            if self.cur.kind == ",":
                self.advance()
                e = self.parse_half()
            self.expect("]", ("']'",))
            line = self.parse_line()
            return SegAtom(tok.text, b, e, line, tok.pos)
        if tok.text in ("St", "CoSt"):
            self.advance()
            self.expect("(", ("'('",))
            a = self.parse_half()
            self.expect(",", ("','",))
            n = self.parse_int()
            self.expect(")", ("')'",))
            line = self.parse_line()
            return BaseAtom(tok.text, a, n, line, tok.pos)
        raise DslSyntaxError(
            f"unknown name {tok.text!r}",
            tok.pos,
            ("sigma", "d", "z", "St", "CoSt") + FUNCTIONS,
        )


def parse(text: str) -> Expr:
    """Parse an expression; raise :class:`DslSyntaxError` with a position."""
    if len(text) > MAX_LENGTH:
        raise DslSyntaxError(
            f"expression longer than {MAX_LENGTH} characters", MAX_LENGTH
        )
    parser = _Parser(_tokenize(text))
    expr = parser.parse_expr()
    if parser.cur.kind != "eof":
        raise DslSyntaxError(
            f"trailing input {parser.cur.text!r}", parser.cur.pos, ("end of input",)
        )
    return expr


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

Value = GLElt | ClassElt | TensorGL | TensorClass  # PEP 604, as Expr


def _type_name(v: Value) -> str:
    return {
        GLElt: "ring element",
        ClassElt: "module element",
        TensorGL: "ring tensor",
        TensorClass: "module tensor",
    }[type(v)]


def _eval(node: Expr, ctx: Context) -> Value:
    if isinstance(node, SigmaAtom):
        return ClassElt.cusp(ctx.sigma)
    if isinstance(node, SegAtom):
        if node.e < node.b:
            raise DslTypeError(
                f"segment [{node.b},{node.e}] is empty (end below begin)"
            )
        if (node.e - node.b).num2 % 2 != 0:
            raise DslTypeError(
                f"segment [{node.b},{node.e}] mixes integer and half-integer "
                "exponents"
            )
        key = ms(Segment(node.b, node.e, node.line))
        return delta_key(key) if node.basis == "d" else zeta_key(key)
    if isinstance(node, BaseAtom):
        try:
            sym = (StGenSymbol if node.kind == "St" else CoStGenSymbol)(
                node.line, node.a, node.n, ctx.sigma
            )
        except DatumError as exc:
            raise DslTypeError(str(exc)) from exc
        return induced(EMPTY_MS, sym)
    if isinstance(node, Prod):
        # every factor is evaluated and checked before anything multiplies
        first = _eval(node.factors[0], ctx)
        factors = [first]
        for factor in node.factors[1:]:
            right = _eval(factor, ctx)
            if not isinstance(first, GLElt) or not isinstance(right, GLElt):
                raise DslTypeError(
                    f"'*' needs ring elements on both sides, got "
                    f"{_type_name(first)} and {_type_name(right)}"
                )
            try:
                first._require_same(right)
            except MixedBasisError as exc:
                raise DslTypeError(str(exc)) from exc
            factors.append(right)
        _check_bound("'*'", prod(len(f) for f in factors))
        return reduce(mul, factors)
    if isinstance(node, Induce):
        left = _eval(node.left, ctx)
        right = _eval(node.right, ctx)
        if not isinstance(left, GLElt):
            raise DslTypeError(
                f"left of '|x|' must be a ring element, got {_type_name(left)}"
            )
        if not isinstance(right, ClassElt):
            raise DslTypeError(
                f"right of '|x|' must be a module element, got "
                f"{_type_name(right)}"
            )
        try:
            return rtimes(left, right)
        except (MixedBasisError, NotCuspidalBaseError) as exc:
            raise DslTypeError(str(exc)) from exc
    if isinstance(node, Call):
        arg = _eval(node.arg, ctx)
        return _apply(node.fn, arg, ctx)
    raise AssertionError(f"unhandled node {node!r}")  # pragma: no cover


# The functions on ring elements; each takes the element and the context.
_RING_FUNCTIONS = {
    "mstar": lambda x, ctx: comult(x),
    "Mstar": twisted_comult,
    "mw": lambda x, ctx: x.map_keys(mw_dual),
    "dual": contragredient,
    "D": lambda x, ctx: derivative(x),
    "hd": lambda x, ctx: highest_derivative(x),
}


def _base_terms(base) -> int:
    """The terms of ``module_comult_base(base)``, in closed form: 1 for
    sigma, n + 2 for St(a, n), 2^(n+1) for CoSt(a, n).  The exponent stops
    at 64, far past ``MAX_TERMS``, so that a huge n costs nothing."""
    if isinstance(base, StGenSymbol):
        return base.n + 2
    if isinstance(base, CoStGenSymbol):
        return 2 ** min(base.n + 1, 64)
    return 1


def term_bound(fn: str, x: GLElt | ClassElt) -> int:
    """An upper bound on the number of terms ``fn`` makes from ``x``: the
    sum over its keys of the product of the one-segment counts.  For
    ``mustar``, each symbol's GL part counts as in ``Mstar``, times its
    base's count."""
    if fn == "mustar":
        return sum(
            term_bound("Mstar", delta_key(sym.gl)) * _base_terms(sym.base)
            for sym in x.coeffs
        )
    per_segment = _SEGMENT_TERMS[fn]
    return sum(prod(per_segment(s.length) for s in key) for key in x.coeffs)


def _check_bound(what: str, bound: int, made: str = "terms") -> None:
    if bound > MAX_TERMS:
        # a bound over 10^40 is not printed: it would not help, and past
        # 4300 digits Python refuses to convert it to text
        up_to = f"up to {bound}" if bound <= 10 ** 40 else "over 10^40"
        raise DslTypeError(
            f"{what} could make {up_to} {made}, more than {MAX_TERMS}"
        )


def _apply(fn: str, arg: Value, ctx: Context) -> Value:
    if fn == "mustar":
        if not isinstance(arg, ClassElt):
            raise DslTypeError(
                f"mustar needs a module element, got {_type_name(arg)}"
            )
        _check_bound(fn, term_bound(fn, arg))
        return module_comult(arg, ctx)
    if isinstance(arg, (TensorGL, TensorClass)):
        raise DslTypeError(f"{fn} cannot be applied to a {_type_name(arg)}")
    if not isinstance(arg, GLElt):
        raise DslTypeError(f"{fn} needs a ring element, got {_type_name(arg)}")
    # ``hd`` of a positive element makes at most one term per key (glhopf)
    positive_hd = fn == "hd" and all(c > 0 for c in arg.coeffs.values())
    if fn in _SEGMENT_TERMS and not positive_hd:
        _check_bound(fn, term_bound(fn, arg))
    if fn == "mw":  # at most one dual and one trimmed segment per exponent
        size = sum(key.size for key in arg.coeffs)
        _check_bound(fn, 2 * size, "new segments")
    try:
        return _RING_FUNCTIONS[fn](arg, ctx)
    except CusplineError as exc:
        raise DslTypeError(str(exc)) from exc


def evaluate(text: str, ctx: Context = DEFAULT_CONTEXT) -> Value:
    """Parse and evaluate; syntax and typing problems raise typed errors."""
    return _eval(parse(text), ctx)

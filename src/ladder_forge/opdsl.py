"""Text form for operator expressions: lexer, parser, canonical renderer.

Grammar (ASCII, whitespace insignificant except inside glyphs):

    expr       = term , { ("+" | "-") , term } ;
    term       = unary , { "*" , unary } ;
    unary      = "-" , unary | primary ;
    primary    = atom , [ "^" , integer ] ;
    atom       = number | "i" | "s" | "u" | "r" | "sqrt" "(" "r" ")"
               | "exp" "(" phasearg ")" | derivative | "(" expr ")" ;
    phasearg   = [ "-" ] , phasefactor , { "*" , phasefactor } ;
    derivative = "d/dr" | "d/deta" | "d/dalpha" | "d/dbeta" ;
    number     = digits , [ "/" , digits ] ;   (nonzero denominator)
    integer    = [ "-" ] , digits ;

A phase argument must contain exactly one ``i``, exactly one angle name
(``eta``, ``alpha``, ``beta``) and at most one integer factor, e.g.
``exp(i*eta)``, ``exp(-2*i*alpha)``.  Precedence from tightest to loosest:
power, unary minus, multiplication, addition; ``*`` is noncommutative and
associates left to right in source order.

``render`` emits a canonical, deterministic text form and ``parse`` is its
exact inverse: for every operator value ``e``, ``parse(render(e)) == e``.
``x^n`` is ``x ** n`` of ``opalgebra``, so ``^-n`` inverts a single term
without derivatives and rejects anything else at the ``^``, as it does a
coefficient that would pass int's digit limit.  ``parse`` has two readers that
do not know about each other.  The plain-sum reader takes a text made only of
plain terms, the first at the text's start after an optional ``-`` and each later
one after exactly `` + `` or `` - ``.  A plain term is numbers (``n``, ``n/d`` or
``(a/b+c/d*i)``) and factors joined by ``*`` in any order: canonical factors (``i``,
``s``, ``u``, ``r``, ``sqrt(r)``, ``exp(-2*i*alpha)``, ``d/deta``) and plain sums in
parentheses, at most one inside another, each with a power of at most 3 digits (not
negative for a sum) and nothing glued on.  It reads the text, its sums included,
before it raises any power, each sum in one pass of one pattern, and a term is its
numbers, read in integers, times its factors' atom forms from a bounded cache.
While no derivative meets a function on its own axis, the term is one ``opalgebra.fold``
of its factors' forms, keys added with a bound test at each step; otherwise, or with a
sum raised by the descent's own ``**``, the term is one ``opalgebra.product``.
The terms are one ``opalgebra.linear_sum``.  Any other text, and any plain one that raises
a ``ValueError``, goes whole to the descent, which alone reports errors.  It reads ``tokenize``'s
tokens, each fine lexeme with its position from one scan: a bad character raises in that scan,
and an error at the position its token holds.  There every factor but a parenthesised sum is an
``opalgebra`` atom form, negated and raised (``opalgebra.atom_power``) without an operator, a term
of several factors is one ``opalgebra.product``, and each sum is one ``opalgebra.linear_sum``
over atom forms and operators.  ``render`` reads each atom's sort key and factor text
from a bounded cache on its packed key, the mirror of ``_factor``, sorts the atoms once
and prints their integer numerators.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from math import gcd
from operator import itemgetter

from . import opalgebra
from .opalgebra import _BIAS, DERIV_AXES, OperatorExpr, PHASE_AXES, Record


class OperatorLexError(ValueError):
    """Unrecognized character sequence, with its position."""

    def __init__(self, position: int, lexeme: str):
        self.position = position
        self.lexeme = lexeme
        super().__init__(f"unrecognized input {lexeme!r} at position {position}")


class OperatorSyntaxError(ValueError):
    """Structural error, with position and the set of expected items."""

    def __init__(self, position: int, message: str, expected: tuple[str, ...] = ()):
        self.position = position
        self.message = message
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)


class Token(Record):
    kind: str  # "number" | "symbol" | "op" | "deriv" | "end"
    lexeme: str
    pos: int


# one fine lexeme after optional whitespace; the second group is an unrecognized character
_TOKEN_RE = re.compile(
    r"""\s*(?:(d/d(?:r|eta|alpha|beta)\b   # deriv
              | \d+(?:/\d+)?               # number
              | [A-Za-z_][A-Za-z_0-9]*      # symbol
              | [-+*^()]                    # op
              ) | (\S))
    """,
    re.VERBOSE,
)

_POWER = r"(?:\^-?\d{1,3})?(?![\w^])"  # a power of at most 3 digits, then nothing glued on
# one piece of a plain sum: where it starts (a term at the text's start, after an
# optional "-"; a later term after " + " or " - "; a further factor after "*"), then
# a number (n/d or (a/b+c/d*i)), a canonical factor with its power, or a parenthesised
# text (at most 3 parentheses deep) with a power of at most 3 digits. A pattern
# string: re compiles it at the first parse and keeps it, so a process that parses
# nothing does not pay for the compile
_PLAIN = rf"""(?x)(\A-?|(?<=[\w)])(?:\ [-+]\ |\*))
    ( \d+(?:/\d+)? | \(-?\d+(?:/\d+)?[-+](?:\d+(?:/\d+)?\*)?i\)
    | (?:sqrt\(r\)|exp\(-?(?:\d{{1,3}}\*)?i\*(?:eta|alpha|beta)\)|d/d(?:r|eta|alpha|beta)|[isur]){_POWER}
    | \((?:[^()]|\((?:[^()]|\([^()]*\))*\))*\)(?:\^\d{{1,3}})?(?![\w^]) )"""
_GAUSS = r"\((-?\d+)(?:/(\d+))?([-+])(?:(\d+)(?:/(\d+))?\*)?i\)"  # (real + imag*i), each part over its own denominator


def _kind(lexeme: str) -> str:
    """The token kind of a lexeme, read from its first character."""
    if lexeme.startswith("d/"):
        return "deriv"
    return "number" if lexeme[:1].isdecimal() else "op" if lexeme in "-+*^()" else "symbol"


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for match in _TOKEN_RE.finditer(text):
        lexeme, bad = match.groups()
        if bad is not None:
            raise OperatorLexError(match.start(2), bad)
        tokens.append(Token(_kind(lexeme), lexeme, match.start(1)))
    tokens.append(Token("end", "", len(text)))
    return tokens


def _describe(lexeme: str) -> str:
    return repr(lexeme) if lexeme else "end of input"


# atom forms, immutable, so every parse shares them
_SYMBOLS = {"i": opalgebra.imag(), "s": opalgebra.s_sym(), "u": opalgebra.u_sym(), "r": opalgebra.r_half_power(2)}
_LEAVES = {name: opalgebra._form(op) for name, op in
           {**_SYMBOLS, **{f"d/d{axis}": opalgebra.deriv(axis) for axis in DERIV_AXES}}.items()}
_SQRT_R = opalgebra._form(opalgebra.sqrt_r())

# the three parts of a phase argument, each allowed once
_PHASE_PARTS = {"i": "i", **{axis: "angle name" for axis in PHASE_AXES}}


class _Parser:
    def __init__(self, text: str):
        self.tokens, self.index = tokenize(text), 0  # a bad character raises from the one scan

    def fail(self, index: int, message: str, expected: tuple[str, ...] = ()):
        """Raise at token ``index``, at the position ``tokenize`` read with it: no error scans the text again."""
        raise OperatorSyntaxError(self.tokens[index].pos, message, expected)

    def advance(self) -> Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def accept(self, lexeme: str) -> bool:
        if self.tokens[self.index].lexeme == lexeme:
            self.index += 1
            return True
        return False

    def expect(self, lexeme: str) -> None:
        if not self.accept(lexeme):
            self.fail(self.index, f"found {_describe(self.tokens[self.index].lexeme)}", (repr(lexeme),))

    def parse(self) -> OperatorExpr:
        value = self.parse_expr()
        lexeme = self.tokens[self.index].lexeme
        if lexeme:
            self.fail(self.index, f"trailing input {_describe(lexeme)}", ("'+'", "'-'", "'*'", "end of input"))
        return value

    def parse_expr(self) -> OperatorExpr:
        # all terms first, then one n-ary sum: a fold of binary + is quadratic
        pairs = [(self.parse_term(), 1)]
        while self.tokens[self.index].lexeme in ("+", "-"):
            sign = 1 if self.advance().lexeme == "+" else -1
            pairs.append((self.parse_term(), sign))
        return opalgebra.linear_sum(pairs)

    def parse_term(self) -> "OperatorExpr | tuple":
        value = self.parse_unary()
        if self.tokens[self.index].lexeme != "*":  # one factor, summed as it is
            return value
        factors = [value]
        while self.accept("*"):
            factors.append(self.parse_unary())
        return opalgebra.product(factors)

    def parse_unary(self) -> "OperatorExpr | tuple":
        if self.accept("-"):
            value = self.parse_unary()
            if type(value) is tuple:
                key, real, imag, den = value
                return key, -real, -imag, den
            return -value
        value = self.parse_atom()
        if self.accept("^"):
            caret = self.index - 1
            exponent = self.parse_integer("power exponent", "integer exponent")
            try:  # a DSL atom form commutes with itself, so it has a closed form
                value = opalgebra.atom_power(value, exponent) if type(value) is tuple else value**exponent
            except ValueError as err:  # an uninvertible base, or a coefficient past the digit limit
                self.fail(caret, str(err))
        return value

    def parse_integer(self, what: str, expected: str) -> int:
        sign = -1 if self.accept("-") else 1
        token = self.advance()
        if token.kind != "number":
            self.fail(self.index - 1, f"found {_describe(token.lexeme)}", (expected,))
        if "/" in token.lexeme:
            self.fail(self.index - 1, f"{what} {token.lexeme!r} is not an integer")
        return sign * self.number(token.lexeme)[0]

    def number(self, lexeme: str) -> tuple[int, int]:
        num, _, den = lexeme.partition("/")
        try:
            return int(num), int(den or 1)
        except ValueError:  # past the interpreter's int string conversion limit
            self.fail(self.index - 1, f"number {lexeme[:12]!r}... has too many digits")

    def parse_atom(self) -> "OperatorExpr | tuple":
        token = self.advance()
        lexeme = token.lexeme
        leaf = _LEAVES.get(lexeme)
        if leaf is not None:
            return leaf
        if token.kind == "number":
            num, den = self.number(lexeme)
            if not den:
                self.fail(self.index - 1, f"number {lexeme!r} has a zero denominator")
            return _BIAS, num, 0, den  # the unit atom's key
        if lexeme == "(":
            value = self.parse_expr()
        elif lexeme == "sqrt":
            self.expect("(")
            self.expect("r")
            value = _SQRT_R
        elif lexeme == "exp":
            self.expect("(")
            value = self.parse_phase_arg()
        elif token.kind == "symbol":
            self.fail(self.index - 1, f"unknown symbol {lexeme!r}", (*_SYMBOLS, "sqrt", "exp"))
        else:
            self.fail(self.index - 1, f"found {_describe(lexeme)}", ("number", "symbol", "derivative", "'('"))
        self.expect(")")
        return value

    def parse_phase_arg(self) -> tuple:
        start = self.index
        sign = -1 if self.accept("-") else 1
        seen: dict[str, int | str] = {}
        while True:
            lexeme, number = self.tokens[self.index].lexeme, self.tokens[self.index].kind == "number"
            part = "integer factor" if number else _PHASE_PARTS.get(lexeme)
            if part is None:
                self.fail(self.index, f"found {_describe(lexeme)}", ("integer", "'i'", "'eta'", "'alpha'", "'beta'"))
            if part in seen:
                self.fail(self.index, f"repeated {part} in phase argument")
            seen[part] = self.parse_integer("phase winding", "integer") if number else self.advance().lexeme
            if not self.accept("*"):
                break
        if "i" not in seen or "angle name" not in seen:
            self.fail(start, "phase argument must contain i times one angle name")
        try:
            return opalgebra._form(opalgebra.phase(seen["angle name"], sign * seen.get("integer factor", 1)))
        except ValueError as err:  # a winding outside the exponent bound
            self.fail(start, str(err))


# a bound on memory, not a tuning: the 2,000 texts of 20 seeded dsl-stream decks
# hold 273 distinct factors, and a factor's numbers have at most 3 digits
@lru_cache(maxsize=4096)
def _factor(lexeme: str) -> tuple:
    """The atom form of a plain term's factor, read by the descent."""
    return _Parser(lexeme).parse_unary()


def _plain_sum(text: str, nest: int = 2) -> "list | None":
    """A plain sum's terms (see the module docstring) as [sign, forms, grouped], or None for any other text; a form
    is an atom form or a parenthesised plain sum, at most ``nest`` deep, as [terms, exponent], not yet raised."""
    # the matches do not overlap, so their lengths add up to the text's only if they leave no gap
    terms, end, forms = [], 0, []
    term = [1, forms, False]  # takes the pieces before any term's start, which leave a gap
    for sep, piece in re.findall(_PLAIN, text):
        end += len(sep) + len(piece)
        if sep != "*":  # a term starts: its sign, then its pieces' forms
            forms = []
            term = [-1 if "-" in sep else 1, forms, False]
            terms.append(term)
        if piece[0].isdecimal():
            num, _, den = piece.partition("/")
            form = _BIAS, int(num), 0, int(den or 1)
        elif piece[0] != "(":
            form = _factor(piece)
        elif gauss := re.fullmatch(_GAUSS, piece):
            real, real_den, imag_sign, imag, imag_den = gauss.groups()
            real_den, imag_den = int(real_den or 1), int(imag_den or 1)
            form = _BIAS, int(real) * imag_den, int(imag_sign + (imag or "1")) * real_den, real_den * imag_den
        else:  # a parenthesised sum and its power
            inner, _, power = piece[1:].rpartition(")")
            inner = nest and _plain_sum(inner, nest - 1)
            if not inner:
                return None
            term[2] = True
            forms.append([inner, int(power[1:] or 1)])
            continue
        if not form[3]:  # a zero denominator: the descent names it
            return None
        forms.append(form)
    return terms if end and end == len(text) else None  # some text, and no gap


def _plain_value(terms: list) -> OperatorExpr:
    """The value of a plain sum's terms."""
    pairs = []
    for sign, forms, grouped in terms:
        if grouped:  # each sum raised by the descent's own value**exponent, and the term one product
            forms = [form if type(form) is tuple else _plain_value(form[0]) ** form[1] for form in forms]
        pairs.append((not grouped and opalgebra.fold(forms) or opalgebra.product(forms), sign))
    return opalgebra.linear_sum(pairs)


def parse(text: str) -> OperatorExpr:
    """Parse text straight to a normal-ordered operator: a plain sum by one pattern, any other text by the descent."""
    try:
        terms = _plain_sum(text)
        value = None if terms is None else _plain_value(terms)
    except ValueError:  # such as a number past int's digit limit, or a refused power: the descent names it
        value = None
    return _Parser(text).parse() if value is None else value


# -- canonical rendering -------------------------------------------------


def _fmt_part(part: int, den: int) -> str:
    """``part/den`` in lowest terms, as ``str`` of a ``Fraction`` prints it."""
    g = gcd(part, den)
    return str(part // g) if g == den else f"{part // g}/{den // g}"


def _fmt_gauss(real: int, imag: int, den: int) -> tuple[str, str]:
    """Return (sign, body) for ``(real + imag*i)/den``; body may be '' for a plain unit factor."""
    if not imag:
        return "-" if real < 0 else "+", "" if abs(real) == den else _fmt_part(abs(real), den)
    im_body = "i" if abs(imag) == den else f"{_fmt_part(abs(imag), den)}*i"
    if not real:
        return "-" if imag < 0 else "+", im_body
    return "+", f"({_fmt_part(real, den)}{'-' if imag < 0 else '+'}{im_body})"


def _power_part(base: str, exponent: int) -> str:
    if exponent == 1:
        return base
    return f"{base}^{exponent}"


def _phase_part(axis: str, winding: int) -> str:
    if winding == 1:
        return f"exp(i*{axis})"
    if winding == -1:
        return f"exp(-i*{axis})"
    return f"exp({winding}*i*{axis})"


# a bound on memory, not a tuning: 20 seeded dsl-stream decks render 6,741 distinct atom keys
@lru_cache(maxsize=4096)
def _key_text(key: int) -> tuple:
    """The render sort key of a packed atom key, its last item the atom's factor text."""
    (r2, ke, ka, kb, dr, de, da, db), sp, up = opalgebra._unpack(key)
    parts = [_power_part("s", sp)] if sp else []
    if up:
        parts.append("u")
    if r2:
        parts.append(_power_part("sqrt(r)", r2) if r2 % 2 else _power_part("r", r2 // 2))
    parts += [_phase_part(axis, k) for axis, k in zip(PHASE_AXES, (ke, ka, kb)) if k]
    parts += [_power_part(f"d/d{axis}", d) for axis, d in zip(DERIV_AXES, (dr, de, da, db)) if d]
    return dr + de + da + db, dr, de, da, db, r2, ke, ka, kb, sp, up, "*".join(parts)


def render(expr: OperatorExpr) -> str:
    """Canonical text form; deterministic and exactly invertible by parse.  ``TypeError`` if ``expr`` is no operator."""
    pieces: list[tuple[str, str]] = []
    terms = opalgebra._operand(expr, "expr")._terms
    rows = sorted([(_key_text(key), re, im) for key, (re, im) in terms.items()], key=itemgetter(0))
    for key_text, real, imag in rows:
        try:
            sign, coeff_body = _fmt_gauss(real, imag, expr._den)
        except ValueError:  # str() of an int past the interpreter's digit limit
            raise ValueError(f"a result coefficient has more than {sys.get_int_max_str_digits()} digits") from None
        factors = key_text[-1]
        pieces.append((sign, f"{coeff_body}*{factors}" if coeff_body and factors else coeff_body or factors or "1"))
    if not pieces:
        return "0"
    first_sign, first_body = pieces[0]
    return ("-" if first_sign == "-" else "") + first_body + "".join(f" {sign} {body}" for sign, body in pieces[1:])

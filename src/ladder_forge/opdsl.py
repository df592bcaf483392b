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
    number     = digits , [ "/" , digits ] ;
    integer    = [ "-" ] , digits ;

A phase argument must contain exactly one ``i``, exactly one angle name
(``eta``, ``alpha``, ``beta``) and at most one integer factor, e.g.
``exp(i*eta)``, ``exp(-2*i*alpha)``.  Precedence from tightest to loosest:
power, unary minus, multiplication, addition; ``*`` is noncommutative and
associates left to right in source order.

``render`` emits a canonical, deterministic text form and ``parse`` is its
exact inverse: for every operator value ``e``, ``parse(render(e)) == e``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import opalgebra
from .opalgebra import GaussRational, Mono, OperatorExpr, PHASE_AXES


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
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)


@dataclass(frozen=True)
class Token:
    kind: str  # "number" | "symbol" | "op" | "paren" | "deriv" | "end"
    lexeme: str
    pos: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<deriv>d/d(?:r|eta|alpha|beta)\b)
      | (?P<number>\d+(?:/\d+)?)
      | (?P<symbol>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*^])
      | (?P<paren>[()])
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise OperatorLexError(pos, text[pos])
        kind = match.lastgroup
        if kind != "ws":
            tokens.append(Token(kind, match.group(), pos))
        pos = match.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


def _describe(tok: Token) -> str:
    return repr(tok.lexeme) if tok.lexeme else "end of input"


_ATOM_SYMBOLS = {
    "i": opalgebra.imag,
    "s": opalgebra.s_sym,
    "u": opalgebra.u_sym,
    "r": lambda: opalgebra.r_half_power(2),
}


class _Parser:
    def __init__(self, tokens: Sequence[Token]):
        self.tokens = tokens
        self.index = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_op(self, lexeme: str) -> Token:
        tok = self.current
        if tok.kind in ("op", "paren") and tok.lexeme == lexeme:
            return self.advance()
        raise OperatorSyntaxError(tok.pos, f"found {_describe(tok)}", (repr(lexeme),))

    def parse(self) -> OperatorExpr:
        value = self.parse_expr()
        tok = self.current
        if tok.kind != "end":
            raise OperatorSyntaxError(
                tok.pos, f"trailing input {tok.lexeme!r}", ("'+'", "'-'", "'*'", "end of input")
            )
        return value

    def parse_expr(self) -> OperatorExpr:
        value = self.parse_term()
        while self.current.kind == "op" and self.current.lexeme in "+-":
            op = self.advance().lexeme
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self) -> OperatorExpr:
        value = self.parse_unary()
        while self.current.kind == "op" and self.current.lexeme == "*":
            self.advance()
            value = value * self.parse_unary()
        return value

    def parse_unary(self) -> OperatorExpr:
        if self.current.kind == "op" and self.current.lexeme == "-":
            self.advance()
            return -self.parse_unary()
        return self.parse_primary()

    def parse_primary(self) -> OperatorExpr:
        value = self.parse_atom()
        if self.current.kind == "op" and self.current.lexeme == "^":
            self.advance()
            exponent = self.parse_exponent()
            value = _power(value, exponent)
        return value

    def parse_exponent(self) -> int:
        sign = 1
        if self.current.kind == "op" and self.current.lexeme == "-":
            self.advance()
            sign = -1
        tok = self.current
        if tok.kind != "number":
            raise OperatorSyntaxError(tok.pos, f"found {_describe(tok)}", ("integer exponent",))
        if "/" in tok.lexeme:
            raise OperatorSyntaxError(tok.pos, f"power exponent {tok.lexeme!r} is not an integer")
        self.advance()
        return sign * int(tok.lexeme)

    def parse_atom(self) -> OperatorExpr:
        tok = self.current
        if tok.kind == "number":
            self.advance()
            return opalgebra.scalar(Fraction(tok.lexeme))
        if tok.kind == "deriv":
            self.advance()
            return opalgebra.deriv(tok.lexeme[3:])
        if tok.kind == "paren" and tok.lexeme == "(":
            self.advance()
            value = self.parse_expr()
            self.expect_op(")")
            return value
        if tok.kind == "symbol":
            if tok.lexeme in _ATOM_SYMBOLS:
                self.advance()
                return _ATOM_SYMBOLS[tok.lexeme]()
            if tok.lexeme == "sqrt":
                self.advance()
                self.expect_op("(")
                inner = self.current
                if inner.kind == "symbol" and inner.lexeme == "r":
                    self.advance()
                else:
                    raise OperatorSyntaxError(inner.pos, f"found {_describe(inner)}", ("'r'",))
                self.expect_op(")")
                return opalgebra.sqrt_r()
            if tok.lexeme == "exp":
                self.advance()
                self.expect_op("(")
                value = self.parse_phase_arg()
                self.expect_op(")")
                return value
            raise OperatorSyntaxError(tok.pos, f"unknown symbol {tok.lexeme!r}", (*_ATOM_SYMBOLS, "sqrt", "exp"))
        raise OperatorSyntaxError(
            tok.pos,
            f"found {_describe(tok)}",
            ("number", "symbol", "derivative", "'('"),
        )

    def parse_phase_arg(self) -> OperatorExpr:
        start = self.current
        sign = 1
        if self.current.kind == "op" and self.current.lexeme == "-":
            self.advance()
            sign = -1
        magnitude: int | None = None
        has_i = False
        var: str | None = None
        while True:
            tok = self.current
            if tok.kind == "number":
                if magnitude is not None:
                    raise OperatorSyntaxError(tok.pos, "repeated integer factor in phase argument")
                if "/" in tok.lexeme:
                    raise OperatorSyntaxError(tok.pos, f"phase winding {tok.lexeme!r} is not an integer")
                magnitude = int(tok.lexeme)
                self.advance()
            elif tok.kind == "symbol" and tok.lexeme == "i":
                if has_i:
                    raise OperatorSyntaxError(tok.pos, "repeated i in phase argument")
                has_i = True
                self.advance()
            elif tok.kind == "symbol" and tok.lexeme in PHASE_AXES:
                if var is not None:
                    raise OperatorSyntaxError(tok.pos, "repeated angle name in phase argument")
                var = tok.lexeme
                self.advance()
            else:
                raise OperatorSyntaxError(
                    tok.pos,
                    f"found {_describe(tok)}",
                    ("integer", "'i'", "'eta'", "'alpha'", "'beta'"),
                )
            if self.current.kind == "op" and self.current.lexeme == "*":
                self.advance()
                continue
            break
        if not has_i or var is None:
            raise OperatorSyntaxError(start.pos, "phase argument must contain i times one angle name")
        return opalgebra.phase(var, sign * (1 if magnitude is None else magnitude))


def _gauss_pow(re: int, im: int, n: int) -> tuple[int, int]:
    """(re + im*i)**n for n >= 0, by repeated squaring."""
    out_re, out_im = 1, 0
    while n:
        if n & 1:
            out_re, out_im = out_re * re - out_im * im, out_re * im + out_im * re
        re, im, n = re * re - im * im, 2 * re * im, n >> 1
    return out_re, out_im


def _power(expr: OperatorExpr, e: int) -> OperatorExpr:
    """expr**e, in closed form for one derivative-free atom and any integer e."""
    single = expr.single_term()
    if single is not None:
        (mono, sp, up), (re, im), den = single
        if not (mono.dr or mono.de or mono.da or mono.db):
            # r powers, phase factors and scalars commute, so exponents scale
            # by e; u**(up*e) = u**((up*e) mod 2) * (2*s)**-((up*e) div 2)
            q, up_e = divmod(up * e, 2)
            power = Mono(mono.r2 * e, mono.ke * e, mono.ka * e, mono.kb * e, 0, 0, 0, 0)
            if e < 0:
                # den/(re + im*i) = den*(re - im*i)/(re**2 + im**2)
                re, im, den = den * re, -den * im, re * re + im * im
            re, im = _gauss_pow(re, im, abs(e))
            den **= abs(e)
            if q < 0:
                re, im = re << -q, im << -q
            return opalgebra._atom(power, sp * e - q, up_e, re, im, den << max(q, 0))
    if e >= 0:
        return expr**e
    if expr.is_zero:
        raise ValueError("cannot invert zero")
    if single is None:
        raise ValueError("cannot invert a sum of operator terms")
    raise ValueError("cannot invert an operator containing derivatives")


def parse(text: str) -> OperatorExpr:
    """Parse text straight to a normal-ordered operator."""
    return _Parser(tokenize(text)).parse()


# -- canonical rendering -------------------------------------------------


def _fmt_fraction(value: Fraction) -> str:
    return str(value)


def _fmt_gauss(g: GaussRational) -> tuple[str, str]:
    """Return (sign, body); body may be '' for a plain unit factor."""
    if not g.im:
        sign = "-" if g.re < 0 else "+"
        mag = abs(g.re)
        return sign, "" if mag == 1 else _fmt_fraction(mag)
    if not g.re:
        sign = "-" if g.im < 0 else "+"
        mag = abs(g.im)
        return sign, "i" if mag == 1 else f"{_fmt_fraction(mag)}*i"
    im_mag = abs(g.im)
    im_body = "i" if im_mag == 1 else f"{_fmt_fraction(im_mag)}*i"
    im_sign = "-" if g.im < 0 else "+"
    return "+", f"({_fmt_fraction(g.re)}{im_sign}{im_body})"


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


def _render_key(mono: Mono, sp: int, up: int):
    dtot = mono.dr + mono.de + mono.da + mono.db
    return (dtot, mono.dr, mono.de, mono.da, mono.db, mono.r2, mono.ke, mono.ka, mono.kb, sp, up)


def render(expr: OperatorExpr) -> str:
    """Canonical text form; deterministic and exactly invertible by parse."""
    atoms = sorted(expr.flatten(), key=lambda item: _render_key(item[0], item[1], item[2]))
    if not atoms:
        return "0"
    pieces: list[tuple[str, str]] = []
    for mono, sp, up, g in atoms:
        sign, coeff_body = _fmt_gauss(g)
        parts: list[str] = []
        if coeff_body:
            parts.append(coeff_body)
        if sp:
            parts.append(_power_part("s", sp))
        if up:
            parts.append("u")
        if mono.r2:
            if mono.r2 % 2 == 0:
                parts.append(_power_part("r", mono.r2 // 2))
            else:
                parts.append(_power_part("sqrt(r)", mono.r2))
        for axis, k in zip(PHASE_AXES, (mono.ke, mono.ka, mono.kb)):
            if k:
                parts.append(_phase_part(axis, k))
        for axis, d in zip(("r", "eta", "alpha", "beta"), (mono.dr, mono.de, mono.da, mono.db)):
            if d:
                parts.append(_power_part(f"d/d{axis}", d))
        body = "*".join(parts) if parts else (coeff_body or "1")
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out

"""Shared random-expression builders for the algebra and parser tests."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from ladder_forge import opalgebra as oa

PHASES = ("eta", "alpha", "beta")
AXES = ("r", "eta", "alpha", "beta")


def term_from(re_c: Fraction, im_c: Fraction, s_pow: int, u_par: int,
              r2: int, windings, derivs) -> oa.OperatorExpr:
    coeff = oa.scalar(re_c) + oa.scalar(im_c) * oa.imag()
    out = coeff * oa.s_sym(s_pow)
    if u_par:
        out = out * oa.u_sym()
    if r2:
        out = out * oa.r_half_power(r2)
    for axis, k in zip(PHASES, windings):
        if k:
            out = out * oa.phase(axis, k)
    for axis, d in zip(AXES, derivs):
        if d:
            out = out * oa.deriv(axis, d)
    return out


def random_term(rng: random.Random, small: bool = False, wide: bool = False) -> oa.OperatorExpr:
    """One term; ``wide`` draws windings up to 3 and derivative orders up to 3."""
    lim = 2 if small else 4
    winding = 3 if wide else 1
    order = 3 if wide else 1 if small else 2
    re_c = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    im_c = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    if re_c == 0 and im_c == 0:
        re_c = Fraction(1)
    s_pow = rng.randint(-2, 2)
    u_par = rng.randint(0, 1)
    r2 = rng.randint(-lim, lim)
    windings = [rng.randint(-winding, winding) for _ in PHASES]
    derivs = [rng.randint(0, order) for _ in AXES]
    return term_from(re_c, im_c, s_pow, u_par, r2, windings, derivs)


def random_operator(rng: random.Random, max_terms: int = 4,
                    small: bool = False, wide: bool = False) -> oa.OperatorExpr:
    expr = oa.zero()
    for _ in range(rng.randint(1, max_terms)):
        expr = expr + random_term(rng, small, wide)
    return expr


def random_class_operator(rng: random.Random, max_terms: int = 4,
                          small: bool = False, wide: bool = False) -> oa.OperatorExpr:
    """A sum of 2 to ``max_terms`` terms sharing one function pattern (r power and windings) and
    differing in derivative orders, s power and u parity: as a right operand its atoms fill
    one interaction class per u parity, which terms drawn independently seldom share."""
    lim = 2 if small else 4
    winding = 3 if wide else 1
    order = 3 if wide else 1 if small else 2
    r2 = rng.randint(-lim, lim)
    windings = [rng.randint(-winding, winding) for _ in PHASES]
    expr = oa.zero()
    for _ in range(rng.randint(2, max_terms)):
        re_c = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        im_c = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        derivs = [rng.randint(0, order) for _ in AXES]
        expr = expr + term_from(re_c or Fraction(1), im_c, rng.randint(-2, 2), rng.randint(0, 1),
                                r2, windings, derivs)
    return expr


def random_family(rng: random.Random, tag: str):
    """Admissible random parameters plus a label for one factorization family."""
    from ladder_forge import factorizations as fz

    def frac(lo, hi, nonzero=False, sign=0):
        while True:
            value = Fraction(rng.randint(lo, hi), rng.randint(1, 4))
            if nonzero and value == 0:
                continue
            if sign > 0 and value <= 0:
                continue
            if sign < 0 and value >= 0:
                continue
            return value

    if tag == "B":
        params = fz.TypeB(a=frac(1, 6, sign=1), c=frac(-4, 4), d=frac(1, 6, sign=1))
        m = frac(-4, 4)
    elif tag == "C":
        params = fz.TypeC(b=frac(-6, -1, sign=-1), c=frac(-4, 4))
        m = frac(-4, 4)
    elif tag == "F":
        params = fz.TypeF(q=frac(-6, -1, sign=-1))
        m = frac(-4, 4, nonzero=True)
    else:
        raise ValueError(tag)
    return params, m


_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def terms(draw, small: bool = False, wide: bool = False):
    """One term; ``wide`` draws windings up to 3 and derivative orders up to 3."""
    lim = 2 if small else 4
    winding = 3 if wide else 1
    order = 3 if wide else 1 if small else 2
    return term_from(
        draw(_fractions),
        draw(_fractions),
        draw(st.integers(-2, 2)),
        draw(st.integers(0, 1)),
        draw(st.integers(-lim, lim)),
        [draw(st.integers(-winding, winding)) for _ in PHASES],
        [draw(st.integers(0, order)) for _ in AXES],
    )


@st.composite
def operators(draw, max_terms: int = 3, small: bool = False, wide: bool = False):
    expr = oa.zero()
    for _ in range(draw(st.integers(1, max_terms))):
        expr = expr + draw(terms(small, wide))
    return expr


def class_operators(max_terms: int = 4, small: bool = False, wide: bool = False):
    """``random_class_operator`` as a strategy."""
    return st.randoms(use_true_random=False).map(lambda rng: random_class_operator(rng, max_terms, small, wide))

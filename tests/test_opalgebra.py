"""Exact algebra: defining relations, substitution, closure, random properties."""

import random
from fractions import Fraction
from math import factorial, gcd

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ladder_forge import opalgebra as oa
from ladder_forge.generators import build_AB, build_T, casimir, closure_report, sp4_bilinears

from _gen import PHASES, operators, random_operator, random_term, term_from

HALF = Fraction(1, 2)


class TestDefiningRelations:
    def test_weyl_relation(self):
        assert oa.commutator(oa.deriv("r"), oa.r_power(1)) == oa.identity()

    def test_phase_relation(self):
        lhs = oa.deriv("eta") * oa.phase("eta", 1)
        rhs = oa.phase("eta", 1) * (oa.deriv("eta") + oa.imag())
        assert lhs == rhs

    def test_half_power_exponents_add(self):
        assert oa.sqrt_r() * (oa.sqrt_r() * oa.deriv("r")) == oa.r_power(1) * oa.deriv("r")

    def test_half_power_derivative_rule(self):
        # d/dr r^(3/2) = r^(3/2) d/dr + (3/2) r^(1/2)
        lhs = oa.deriv("r") * oa.r_half_power(3)
        rhs = oa.r_half_power(3) * oa.deriv("r") + Fraction(3, 2) * oa.r_half_power(1)
        assert lhs == rhs

    def test_u_square_reduction(self):
        assert oa.u_sym() * oa.u_sym() == HALF * oa.s_sym(-1)

    def test_powers(self):
        base = oa.r_power(1) * oa.deriv("r")
        assert base**0 == oa.identity()
        assert base**2 == base * base
        with pytest.raises(ValueError):
            base ** (-1)

    def test_zero_terms_drop(self):
        assert (oa.r_power(1) - oa.r_power(1)).is_zero
        assert not (oa.r_power(1) - oa.sqrt_r()).is_zero


class TestSubstituteS:
    def test_square_becomes_rational(self):
        expr = oa.s_sym(2) * oa.r_power(1)
        assert expr.substitute_s(HALF) == Fraction(1, 4) * oa.r_power(1)

    def test_ladder_member_specializes(self):
        t_plus = build_T().members["Tplus"]
        expected = oa.phase("eta", 1) * (
            -(oa.r_power(1) * oa.deriv("r")) + oa.imag() * oa.deriv("eta") + oa.r_power(1)
        )
        assert t_plus.substitute_s(1) == expected

    @pytest.mark.parametrize("z,n", [(1, 1), (2, 3), (6, 5)])
    def test_casimir_specializes_to_hand_built(self, z, n):
        val = Fraction(z, n)
        r2 = oa.r_power(2)
        by_hand = (
            r2 * oa.deriv("r", 2)
            - 2 * val * oa.imag() * oa.r_power(1) * oa.deriv("eta")
            - val * val * r2
        )
        assert casimir()[0].substitute_s(val) == by_hand

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            oa.s_sym().substitute_s(0)
        with pytest.raises(ValueError):
            oa.s_sym().substitute_s(Fraction(-1, 2))

    def test_rejects_formal_u(self):
        with pytest.raises(ValueError):
            oa.u_sym().substitute_s(1)


class TestClosureCheck:
    def test_heisenberg_dimension(self):
        basis = [oa.deriv("r"), oa.r_power(1), oa.identity()]
        report = oa.closure_check(basis, 4)
        assert report.closed and report.dimension == 3

    def test_sp2_dimension(self):
        basis = [oa.r_power(2), oa.deriv("r", 2),
                 oa.r_power(1) * oa.deriv("r") + HALF * oa.identity()]
        report = oa.closure_check(basis, 5)
        assert report.closed and report.dimension == 3

    def test_budget_exceeded_is_reported_not_raised(self):
        # [d/dr, r^3] seeds a chain that needs dimension 5
        report = oa.closure_check([oa.r_power(3), oa.deriv("r")], 3)
        assert not report.closed
        full = oa.closure_check([oa.r_power(3), oa.deriv("r")], 6)
        assert full.closed and full.dimension == 5

    def test_preconditions(self):
        with pytest.raises(ValueError):
            oa.closure_check([], 3)
        with pytest.raises(ValueError):
            oa.closure_check([oa.identity(), oa.deriv("r")], 1)


    def test_dependent_basis_element_adds_no_dimension(self):
        # x and y commute, so the one commutator tested cannot add a dimension
        x = Fraction(2, 3) * oa.s_sym() * oa.r_power(1) + Fraction(5, 9) * oa.r_power(2)
        y = oa.u_sym() * oa.sqrt_r() * oa.phase("eta", 1) - Fraction(1, 7) * oa.imag()
        report = oa.closure_check([x, y, Fraction(3, 7) * x - 2 * oa.imag() * y], 3)
        assert (report.dimension, report.closed, report.commutators_tested) == (2, True, 1)

    @pytest.mark.parametrize("which", ["su11", "weyl", "sp4"])
    def test_basis_scaling_keeps_dimension(self, which):
        basis = {
            "su11": lambda: list(build_T().members.values()),
            "weyl": lambda: list(build_AB().members.values()) + [oa.identity()],
            "sp4": lambda: list(sp4_bilinears().values()),
        }[which]()
        i = oa.imag()
        factors = [oa.scalar(Fraction(1, 3)), oa.scalar(Fraction(-5, 7)), 2 * i,
                   Fraction(3, 11) + Fraction(1, 2) * i, Fraction(-9, 5) * i + 4,
                   oa.scalar(Fraction(13, 6))]
        scaled = [factors[k % len(factors)] * op for k, op in enumerate(basis)]
        plain = closure_report(which)
        report = oa.closure_check(scaled, plain.max_dim)
        assert (report.dimension, report.closed) == (plain.dimension, plain.closed)


def _stirling2(n: int, k: int) -> int:
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def _r_d(j: int, k: int, coeff) -> dict:
    # the normal-ordered atom coeff * r**j * (d/dr)**k, built without products
    return {(oa.Mono(2 * j, 0, 0, 0, k, 0, 0, 0), 0, 0): coeff}


@pytest.mark.parametrize("n", range(13))
def test_euler_operator_power_is_stirling_sum(n):
    # (r d/dr)**n = sum_k S(n, k) r**k (d/dr)**k  (Blasiak et al., Am. J. Phys.
    # 75 (2007) 639)
    expected = {}
    for k in range(n + 1):
        expected.update(_r_d(k, k, _stirling2(n, k)))
    assert (oa.r_power(1) * oa.deriv("r")) ** n == oa.OperatorExpr(expected)


@pytest.mark.parametrize("n", range(17))
def test_weyl_binomial_power_closed_form(n):
    # (a d/dr + b r)**n = sum over j + k + 2l = n of
    # n!/(j! k! l! 2**l) a**(k+l) b**(j+l) r**j (d/dr)**k; a, b non-dyadic
    a, b = Fraction(1, 3), Fraction(5, 7)
    expected = {}
    for l in range(n // 2 + 1):
        for k in range(n - 2 * l + 1):
            j = n - 2 * l - k
            c = Fraction(factorial(n), factorial(j) * factorial(k) * factorial(l) * 2**l)
            expected.update(_r_d(j, k, c * a ** (k + l) * b ** (j + l)))
    assert (a * oa.deriv("r") + b * oa.r_power(1)) ** n == oa.OperatorExpr(expected)


@st.composite
def _derivative_free_atoms(draw):
    """One atom of Gaussian coefficient, s power, u parity, r half-power and phases."""
    parts = st.fractions(min_value=-6, max_value=6, max_denominator=5)
    re_c, im_c = draw(parts), draw(parts)
    assume(re_c or im_c)
    return term_from(re_c, im_c, draw(st.integers(-3, 3)), draw(st.integers(0, 1)),
                     draw(st.integers(-4, 4)), [draw(st.integers(-2, 2)) for _ in PHASES],
                     (0, 0, 0, 0))


@settings(max_examples=80, deadline=None)
@given(_derivative_free_atoms(), st.integers(-9, 9))
def test_atom_powers_invert_and_repeat(x, e):
    assert x**e * x**-e == oa.identity()
    if e >= 0:
        expected = oa.identity()
        for _ in range(e):
            expected = expected * x
        assert x**e == expected


def test_u_inverse():
    assert oa.u_sym() ** -1 == 2 * oa.s_sym() * oa.u_sym()


@pytest.mark.parametrize("base,reason", [
    (oa.zero(), "cannot invert zero"),
    (oa.r_power(1) + oa.identity(), "cannot invert a sum of operator terms"),
    (oa.s_sym() + oa.s_sym(2), "cannot invert a sum of operator terms"),
    (oa.deriv("r"), "cannot invert an operator containing derivatives"),
    (oa.phase("eta", 1) * oa.deriv("alpha", 2), "cannot invert an operator containing derivatives"),
])
def test_uninvertible_powers(base, reason):
    for e in (-1, -3):
        with pytest.raises(ValueError, match=f"^{reason}$"):
            base**e
    assert base**2 == base * base


@pytest.mark.parametrize("exponent,error", [(1.5, TypeError), (2.0, TypeError),
                                            (Fraction(1, 2), ValueError)])
def test_non_integer_exponent_rejected(exponent, error):
    with pytest.raises(error, match="^exponent"):
        oa.r_power(1) ** exponent


def _assert_lowest_terms(e: oa.OperatorExpr) -> None:
    parts = [part for pair in e._terms.values() for part in pair]
    assert e._den > 0
    assert gcd(e._den, *parts) == 1
    assert all(re or im for re, im in e._terms.values())
    rebuilt = oa.OperatorExpr(dict(e.terms()))
    assert rebuilt == e and hash(rebuilt) == hash(e)


@settings(max_examples=60, deadline=None)
@given(operators(max_terms=2), operators(max_terms=2))
def test_every_operation_keeps_lowest_terms(a, b):
    u_free = oa.OperatorExpr({key: g for key, g in a.terms() if key[2] == 0})
    results = (a, b, a + b, a - b, a - a, a * b, oa.commutator(a, b),
               u_free.substitute_s(Fraction(3, 7)), oa.swap_alpha_beta(a))
    for e in results:
        _assert_lowest_terms(e)
    assert (a - a)._den == 1 and not (a - a)._terms


@settings(max_examples=40, deadline=None)
@given(operators(max_terms=2, small=True), operators(max_terms=2, small=True),
       operators(max_terms=2, small=True))
def test_multiply_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=25, deadline=None)
@given(operators(max_terms=1, small=True), operators(max_terms=1, small=True),
       operators(max_terms=1, small=True))
def test_jacobi_identity(a, b, c):
    total = (
        oa.commutator(a, oa.commutator(b, c))
        + oa.commutator(b, oa.commutator(c, a))
        + oa.commutator(c, oa.commutator(a, b))
    )
    assert total.is_zero


@settings(max_examples=40, deadline=None)
@given(operators(max_terms=2, small=True), operators(max_terms=2, small=True))
def test_commutator_antisymmetric(a, b):
    assert oa.commutator(a, b) == -oa.commutator(b, a)


@settings(max_examples=40, deadline=None)
@given(operators(max_terms=2, small=True), operators(max_terms=2, small=True),
       operators(max_terms=2, small=True))
def test_commutator_bilinear(a, b, c):
    assert oa.commutator(a + b, c) == oa.commutator(a, c) + oa.commutator(b, c)
    assert oa.commutator(3 * a, c) == 3 * oa.commutator(a, c)


def test_phase_grading_adds_windings():
    rng = random.Random(20260823)
    for _ in range(50):
        a, b = random_term(rng), random_term(rng)
        product = a * b
        ka = {(m.ke, m.ka, m.kb) for (m, _, _), _ in a.terms()}
        kb = {(m.ke, m.ka, m.kb) for (m, _, _), _ in b.terms()}
        if not ka or not kb:
            continue
        (ea, aa, ba), (eb, ab, bb) = next(iter(ka)), next(iter(kb))
        for (mono, _, _), _ in product.terms():
            assert (mono.ke, mono.ka, mono.kb) == (ea + eb, aa + ab, ba + bb)


def test_swap_alpha_beta_is_involution():
    rng = random.Random(7)
    for _ in range(25):
        e = random_operator(rng)
        assert oa.swap_alpha_beta(oa.swap_alpha_beta(e)) == e


def test_rebuild_from_terms_is_identity():
    rng = random.Random(11)
    for _ in range(25):
        e = random_operator(rng)
        rebuilt = oa.OperatorExpr(dict(e.terms()))
        assert rebuilt == e and (rebuilt * oa.identity()) == e


# Independent route: replay products through sympy's calculus on an
# undetermined function and compare with the normal-ordered result.

_SR, _SETA, _SAL, _SBE = sympy.symbols("r eta alpha beta", positive=True)
_SS = sympy.symbols("s", positive=True)
_SF = sympy.Function("F")(_SR, _SETA, _SAL, _SBE)


def _sympy_apply(expr, target):
    u = (2 * _SS) ** sympy.Rational(-1, 2)
    total = sympy.S.Zero
    for (mono, s_pow, u_par), g in expr.terms():
        scalar_part = (
            sympy.Rational(g.re.numerator, g.re.denominator)
            + sympy.I * sympy.Rational(g.im.numerator, g.im.denominator)
        ) * _SS**s_pow * u**u_par
        body = target
        for sym, orders in ((_SR, mono.dr), (_SETA, mono.de),
                            (_SAL, mono.da), (_SBE, mono.db)):
            if orders:
                body = sympy.diff(body, sym, orders)
        phase = sympy.exp(sympy.I * (mono.ke * _SETA + mono.ka * _SAL + mono.kb * _SBE))
        total += scalar_part * _SR ** sympy.Rational(mono.r2, 2) * phase * body
    return total


def test_products_match_sympy_calculus():
    rng = random.Random(991)
    for _ in range(8):
        a = random_operator(rng, max_terms=2, small=True)
        b = random_operator(rng, max_terms=2, small=True)
        direct = _sympy_apply(a * b, _SF)
        composed = _sympy_apply(a, _sympy_apply(b, _SF))
        assert sympy.simplify(sympy.expand(direct - composed)) == 0

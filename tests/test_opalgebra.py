"""Exact algebra: defining relations, substitution, closure, random properties."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings

from ladder_forge import opalgebra as oa
from ladder_forge.generators import build_T, casimir

from _gen import operators, random_operator, random_term

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

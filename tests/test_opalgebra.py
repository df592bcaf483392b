"""Exact algebra: defining relations, substitution, closure, random properties."""

import random
import sys
from fractions import Fraction
from functools import reduce
from math import factorial, gcd
from operator import mul
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ladder_forge import coulomb as cl
from ladder_forge import opalgebra as oa, opdsl
from ladder_forge.factorizations import TypeB, TypeC, TypeF, factorization_residuals
from ladder_forge.generators import (ALGEBRAS, LADDERS, build_T, casimir, casimir_reports, closure_report,
                                    reconstruction_reports, sp4_bilinears, step, su11_reports, weyl_reports)

from _gen import (PHASES, class_operators, operators, random_class_operator, random_operator, random_term,
                  term_from, terms)

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
        t_plus = build_T()["Tplus"]
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

    def test_numbers_in_the_basis_are_scalars(self):
        # a number is read as commutator reads it, and max_dim as an exact integer
        report = oa.closure_check([1, Fraction(2, 3), oa.deriv("r")], Fraction(4))
        assert report == oa.closure_check([oa.scalar(1), oa.scalar(Fraction(2, 3)), oa.deriv("r")], 4)
        assert (report.dimension, report.closed, report.max_dim) == (2, True, 4)
        assert type(report.max_dim) is int

    def test_dependent_basis_element_adds_no_dimension(self):
        # x and y commute, so the one commutator tested cannot add a dimension
        x = Fraction(2, 3) * oa.s_sym() * oa.r_power(1) + Fraction(5, 9) * oa.r_power(2)
        y = oa.u_sym() * oa.sqrt_r() * oa.phase("eta", 1) - Fraction(1, 7) * oa.imag()
        report = oa.closure_check([x, y, Fraction(3, 7) * x - 2 * oa.imag() * y], 3)
        assert (report.dimension, report.closed, report.commutators_tested) == (2, True, 1)

    @pytest.mark.parametrize("which", list(ALGEBRAS))
    def test_basis_scaling_keeps_dimension(self, which):
        basis = list(ALGEBRAS[which].generators().values())
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


def _single_atom(e: oa.OperatorExpr) -> bool:
    return len(e._terms) == 1


def _self_commuting(x: oa.OperatorExpr) -> oa.OperatorExpr:
    # the single atom x without the functions on its derivatives' axes
    ((mono, sp, up), g), = x.terms()
    return oa.OperatorExpr({(oa.Mono(*(0 if mono[i + 4] else mono[i] for i in range(4)), *mono[4:]), sp, up): g})


@settings(max_examples=120, deadline=None)
@given(st.one_of(terms(small=True), terms(wide=True).filter(_single_atom).map(_self_commuting)), st.integers(0, 6))
def test_atom_powers_repeat(x, e):
    # derivatives included: an atom that commutes with itself, such as
    # d/dr**2 or r*d/deta, takes the closed form, any other one the products
    repeated = reduce(mul, [x] * e, oa.identity())
    assert x**e == repeated and hash(x**e) == hash(repeated)


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


@pytest.mark.parametrize("base,e,value", [
    (oa.identity(), 10**20, oa.identity()),
    (oa.imag(), 10**20 + 3, -oa.imag()),
    (oa.imag(), -(10**20 + 1), -oa.imag()),
    (oa.u_sym(), 2, Fraction(1, 2) * oa.s_sym(-1)),
    (oa.r_power(1), 10**6, oa.r_power(10**6)),
    (oa.s_sym(), -(10**6), oa.s_sym(-(10**6))),
])
def test_unit_coefficient_powers_keep_their_values(base, e, value):
    assert base**e == value


def test_coefficient_power_past_digit_limit_refused():
    limit = sys.get_int_max_str_digits()
    top = (10**limit).bit_length() - 1  # 2**top has limit digits, 2**(top + 1) one more
    assert oa.scalar(2) ** top == oa.scalar(2**top)
    # in lowest terms first: 2/2 is 1
    assert opdsl.parse(f"2/2^{10**5}") == opdsl.parse(f"(2/2)^{10**5}") == oa.identity()
    for base, e in [(oa.scalar(2), top + 1), (oa.scalar(2), -(top + 1)), (oa.u_sym(), 10**20),
                    (oa.u_sym(), -(10**20)), (oa.identity() + oa.imag(), 9999999999)]:
        with pytest.raises(ValueError, match=f"^a result coefficient has more than {limit} digits$"):
            base**e


def test_unlimited_digits_set_no_power_bound():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert oa.scalar(3) ** 20000 == oa.scalar(3**20000)
    finally:
        sys.set_int_max_str_digits(limit)


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


# operands whose atoms share a function pattern fill interaction classes of
# several atoms, u-carrying and not, which independent terms seldom do
_OPERANDS = operators(max_terms=4, wide=True) | class_operators(wide=True)


@settings(max_examples=100, deadline=None)
@given(_OPERANDS, _OPERANDS)
def test_commutator_is_its_definition(a, b):
    # commutator skips the leading terms that cancel; every other term must
    # match the two full products
    assert oa.commutator(a, b) == a * b - b * a


_MODES = (lambda a, b: a * b, oa.commutator, lambda a, b: b * a, lambda a, b: a * a,
          lambda a, b: oa.commutator(b, a))


@settings(max_examples=100, deadline=None)
@given(_OPERANDS, _OPERANDS, st.permutations(range(len(_MODES))))
def test_operand_tables_serve_every_mode(a, b, order):
    # a and b keep the tables each mode builds on them as right factors, and
    # the next modes read them; a commutator's table has no leading terms, so
    # a product that read them from it would differ from the table-free copies
    def fresh(x):
        return oa.OperatorExpr(dict(x.terms()))

    expected = [mode(fresh(a), fresh(b)) for mode in _MODES]
    for i in order:
        got = _MODES[i](a, b)
        assert got == expected[i]
    for x in (a, b):
        assert x == fresh(x) and hash(x) == hash(fresh(x))


def _flat_table(op: oa.OperatorExpr, sig: int) -> dict:
    # the table without masking or merging, summed by offset: every interaction
    # term of every right atom with a function, zero sums dropped
    out: dict = {}
    for k2, (a2, b2) in op._terms.items():
        if funcs := (k2 ^ oa._BIAS) & oa._FUNCS:
            uu = sig & k2 & 1
            for delta, gr, gi in oa._mono_cross(sig & oa._DERIVS | funcs):
                offset = delta - uu * oa._U2 - oa._BIAS + k2
                x, y = out.get(offset, (0, 0))
                out[offset] = (x + (gr * a2 - gi * b2 << 1 - uu), y + (gr * b2 + gi * a2 << 1 - uu))
    return {offset: pair for offset, pair in out.items() if pair != (0, 0)}


@settings(max_examples=100, deadline=None)
@given(_OPERANDS, _OPERANDS)
@example(oa.deriv("r", 2), oa.r_power(1) - oa.r_power(2) * oa.deriv("r"))  # 2 d/dr - 2 d/dr at one offset
def test_tables_are_merged_by_offset(left, right):
    # a table reads only the right atoms with a function on an axis of the
    # signature's derivatives and sums the terms at one offset, so it lists
    # each offset once, holds no zero entry and sums to the flat table
    for k1 in left._terms:
        sig = (k1 ^ oa._BIAS) & oa._DERIVS | k1 & 1
        table = oa._table(right, sig)
        assert len({offset for offset, _, _ in table}) == len(table)
        assert all(re or im for _, re, im in table)
        assert {offset: (re, im) for offset, re, im in table} == _flat_table(right, sig)


def test_a_left_operand_without_derivatives_reads_no_table(monkeypatch):
    # only a left atom with a derivative reads a table, so a right operand met
    # by a derivative-free left one builds none
    calls = _count_calls(monkeypatch, "_table", "_mono_cross")
    left = oa.r_power(1) + oa.phase("eta", 2) * oa.u_sym()
    right = oa.OperatorExpr(dict((oa.deriv("r") + oa.r_power(2) * oa.deriv("eta") + oa.u_sym()).terms()))
    left * right
    oa.commutator(left, left * left)
    assert calls == {"_table": 0, "_mono_cross": 0}
    assert right._tables is None and left._lefts == (0, ())


def test_an_operand_holds_at_most_64_tables():
    # each d/dr**k meets r with its own signature; past 64 tables r clears
    # them before it builds the next, and every product stays exact
    r, sizes = oa.OperatorExpr(dict(oa.r_power(1).terms())), []
    for k in range(1, 201):
        assert oa.deriv("r", k) * r == oa.r_power(1) * oa.deriv("r", k) + k * oa.deriv("r", k - 1)
        sizes.append(len(r._tables))
    assert max(sizes) == 64 and sizes[-1] == 200 - 3 * 64


def _keep(e: oa.OperatorExpr, fields: range) -> oa.OperatorExpr:
    # the single atom e with the Mono fields outside ``fields`` set to 0
    ((mono, sp, up), g), = e.terms()
    return oa.OperatorExpr({(oa.Mono(*(v if i in fields else 0 for i, v in enumerate(mono))), sp, up): g})


@settings(max_examples=150, deadline=None)
@given(terms(wide=True).filter(_single_atom), terms(wide=True).filter(_single_atom),
       terms(wide=True).filter(_single_atom))
def test_single_atom_products_match_the_product_loop(a, b, c):
    # two free single atoms skip the product loop; (x + c)*y and (2*x + c)*y
    # have two atoms on the left, so they run it.  A left operand without
    # derivatives, or a right one without functions, makes the pair free.
    for x, y in ((a, b), (_keep(a, range(4)), b), (a, _keep(b, range(4, 8)))):
        if x._terms.keys() == c._terms.keys():
            continue
        loop_xy = (2 * x + c) * y - (x + c) * y
        assert x * y == (x + c) * y - c * y == loop_xy
        loop_yx = y * (2 * x + c) - y * (x + c)
        assert oa.commutator(x, y) == loop_xy - loop_yx == x * y - y * x


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(operators(max_terms=3), st.sampled_from((1, -1))), max_size=6), st.data())
def test_linear_sum_is_the_binary_fold(pairs, data):
    # append the negation of some operands, so parts of the sum, or all of it,
    # cancel
    cancel = data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    pairs = pairs + [(e, -sign) for e, sign in cancel]
    total = oa.linear_sum(pairs)
    fold = reduce(lambda acc, pair: acc + pair[0] if pair[1] > 0 else acc - pair[0], pairs, oa.zero())
    assert total == fold and hash(total) == hash(fold)
    _assert_lowest_terms(total)
    expected: dict = {}
    for e, sign in pairs:
        for key, (re, im) in e.terms():
            x, y = expected.get(key, (0, 0))
            expected[key] = (x + sign * re, y + sign * im)
    assert total == oa.OperatorExpr(expected)
    assert oa.linear_sum(pairs + [(e, -sign) for e, sign in pairs]) == oa.zero()


# single atoms that meet on an axis (d/dr before r, d/deta before a phase),
# cross-axis pairs that are free (d/deta before r, d/dr before a phase), u*u,
# s powers, zero and sums
_FACTORS = st.one_of(
    terms(small=True),
    st.sampled_from([oa.deriv("r"), oa.r_power(1), oa.sqrt_r(), oa.deriv("eta", 2), oa.phase("eta", -2),
                     oa.deriv("alpha"), oa.phase("beta", 3), oa.r_power(-1) * oa.deriv("eta"),
                     oa.u_sym(), oa.s_sym(-1), oa.s_sym(3), oa.zero(), oa.scalar(Fraction(-3, 4))]),
    operators(max_terms=3, small=True),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_FACTORS, min_size=1, max_size=6))
@example([oa.deriv("eta"), oa.r_power(1)])
@example([oa.deriv("r"), oa.phase("alpha", 2), oa.u_sym(), oa.deriv("beta"), oa.u_sym(), oa.sqrt_r()])
def test_product_is_the_binary_fold(factors):
    # product reduces each run of free atoms once, the binary fold every pair,
    # and fold the whole run of single atoms, unless a pair in it is not free
    total, binary = oa.product(factors), reduce(mul, factors)
    assert total == binary and hash(total) == hash(binary)
    _assert_lowest_terms(total)
    if all(len(f._terms) == 1 for f in factors):
        folded = oa.fold([oa._form(f) for f in factors])
        assert folded is None or oa._atom(*folded) == binary


_RATIONALS = st.one_of(st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=5))


@settings(max_examples=100, deadline=None)
@given(operators(wide=True), _RATIONALS)
def test_a_number_is_a_linear_sum_weight(op, q):
    # a rational factor weights the operator in linear_sum, on either side, and
    # a rational summand weights the unit atom: each must equal the product or
    # sum with the number as a one-atom operator, which is never equal to it
    weighted = oa.linear_sum(((op, q),))
    assert q * op == op * q == weighted == oa.product((oa.scalar(q), op))
    assert bool(weighted) == (q != 0 and bool(op))
    _assert_lowest_terms(weighted)
    assert op + q == op + oa.scalar(q) and q - op == oa.scalar(q) - op
    assert oa.scalar(q) != q


def _count_calls(monkeypatch, *names: str) -> dict:
    # wrap the opalgebra functions ``names`` to count their calls
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _real=getattr(oa, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(oa, name, counted)
    return calls


def test_warm_reconstruction_weights_its_numbers(monkeypatch):
    # every rational factor of the family ladders is a linear_sum weight, so a
    # warm reconstruction builds no scalar operator and runs the product loop
    # only for the six prefix-times-member products; each generator's member,
    # its number operator's k read from cache, is one sum and a passing row
    # subtracts nothing, 6 linear_sum calls where a chain of binary + and -
    # made 68
    reconstruction_reports(3, HALF)
    calls = _count_calls(monkeypatch, "_normal_order", "scalar", "linear_sum")
    reconstruction_reports(3, HALF)
    assert calls["_normal_order"] <= 6 and calls["scalar"] == 0
    assert calls["linear_sum"] <= 6


@pytest.mark.parametrize("params", [TypeB(2, HALF, 3), TypeC(-2, HALF), TypeF(-3)], ids=["B", "C", "F"])
def test_factorization_residuals_sum_each_side_once(monkeypatch, params):
    # r, k, each ladder member and each residual is one linear_sum: at most 9
    # calls per family, where a chain of binary + and - made 16 to 19
    calls = _count_calls(monkeypatch, "linear_sum")
    assert all(res.is_zero for res in factorization_residuals(params, Fraction(5, 2)))
    assert calls["linear_sum"] <= 9


def _count_fractions(monkeypatch) -> dict:
    # wrap Fraction.__new__ to count the Fractions built
    calls = {"Fraction": 0}
    real = Fraction.__new__

    def counted(cls, *args, **kwargs):
        calls["Fraction"] += 1
        return real(cls, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return calls


def test_warm_identity_checks_read_numbers_as_integers(monkeypatch):
    # a reconstruction does no label arithmetic, as its number operators are
    # read off each kind's label once, and a factorization check reads its
    # parameters and label as integers over one denominator: a warm
    # reconstruction builds at most 1 Fraction (``exact``'s of an int label;
    # 43-44 with Fraction label arithmetic) and a warm B, C or F check at most
    # 2 (its L(m); 13 to 25)
    m = Fraction(5, 2)
    checks = [(lambda: reconstruction_reports(3, HALF), 1),
              (lambda l=Fraction(7, 3), m=Fraction(-5, 2): reconstruction_reports(l, m), 1),
              *((lambda p=params: factorization_residuals(p, m), 2)
                for params in (TypeB(2, HALF, 3), TypeC(-2, HALF), TypeF(-3), TypeB(Fraction(3, 7), -1, 5)))]
    for check, bound in checks:
        check()
        calls = _count_fractions(monkeypatch)
        check()
        monkeypatch.undo()
        assert calls["Fraction"] <= bound


def test_power_multiplies_its_squares_in_one_product(monkeypatch):
    # x**e squares x once per bit past the first and multiplies the squares
    # of the set bits in one product, so x**1 runs no product loop
    x = oa.deriv("r") + oa.r_power(1)
    calls = _count_calls(monkeypatch, "_normal_order")
    for e in range(1, 25):
        calls["_normal_order"] = 0
        x**e
        assert calls["_normal_order"] == e.bit_length() + bin(e).count("1") - 2, e


def test_zero_is_one_shared_constant():
    # as identity() returns its unit atom, zero() returns one constant: equal to a fresh empty operator,
    # falsy, and the residual of every passing identity report
    assert oa.zero() is oa.zero()
    assert oa.zero() == oa.OperatorExpr() and hash(oa.zero()) == hash(oa.OperatorExpr())
    assert not oa.zero() and oa.zero().is_zero and oa.zero()._den == 1
    assert all(rep.residual is oa.zero() for rep in reconstruction_reports(1, 0))


def test_atom_constructors_return_shared_constants():
    # equal integer arguments give one shared operator, read after validation,
    # so every refusal keeps its type and message once the integer is cached and
    # an exception is never cached
    assert oa.r_power(1) is oa.r_half_power(2) is oa.r_power(Fraction(2, 2)) is oa.r_half_power(Fraction(2))
    assert oa.sqrt_r() is oa.r_half_power(1) is oa.r_power(HALF)
    assert oa.phase("eta", 1) is oa.phase("eta", Fraction(1)) and oa.phase("beta", -2) is oa.phase("beta", -2)
    assert oa.deriv("r") is oa.deriv("r", 1) and oa.deriv("alpha", 2) is oa.deriv("alpha", Fraction(2))
    assert oa.s_sym() is oa.s_sym(1) and oa.s_sym(-3) is oa.s_sym(-3)
    assert oa.imag() is oa.imag() and oa.u_sym() is oa.u_sym() and oa.identity() is oa.identity()
    assert oa.phase("eta", 1) is not oa.phase("alpha", 1) and oa.deriv("r") is not oa.deriv("eta")
    for build, name in ((lambda: oa.r_power(1.0), "power"), (lambda: oa.r_half_power(2.0), "halves"),
                        (lambda: oa.phase("eta", 1.0), "winding"), (lambda: oa.deriv("r", 1.0), "order"),
                        (lambda: oa.s_sym(1.0), "power")):
        with pytest.raises(TypeError, match=rf"^{name} must be an exact rational \(int or Fraction\), got float$"):
            build()
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^unknown phase axis \['eta'\]$"):
            oa.phase(["eta"], 1)
        with pytest.raises(ValueError, match=r"^unknown derivative axis \['r'\]$"):
            oa.deriv(["r"])
        with pytest.raises(ValueError, match=r"^r2 = 16777216 is outside the exponent bound \[-2\*\*24, 2\*\*24\)$"):
            oa.r_half_power(2**24)
    # a bound on memory, not a tuning: distinct windings evict, and an evicted
    # constant is built again equal to the one it replaces
    first = oa.phase("alpha", 10_000)
    for k in range(10_000):
        assert oa.phase("alpha", k).terms() == (((oa.Mono(0, 0, k, 0, 0, 0, 0, 0), 0, 0), (1, 0)),)
    info = oa._constant.cache_info()
    assert info.currsize <= info.maxsize == 1024
    assert oa.phase("alpha", 10_000) == first


def test_warm_identity_checks_pack_no_atom(monkeypatch):
    # every constant atom of a warm reconstruction or factorization check is a
    # shared constant, so neither packs an atom (9 and 5-6 _pack calls when each
    # constructor call built a fresh operator); nothing a product returns is
    # kept, so a warm sp4 closure still forms its 45 commutators
    checks = [lambda: reconstruction_reports(3, HALF), lambda: reconstruction_reports(Fraction(7, 2), -2),
              *(lambda p=params: factorization_residuals(p, Fraction(5, 2))
                for params in (TypeB(2, HALF, 3), TypeC(-2, HALF), TypeF(-3))),
              lambda: closure_report("sp4")]
    for check in checks:
        check()
    calls = _count_calls(monkeypatch, "_pack", "_normal_order")
    for check in checks[:-1]:
        check()
    assert calls["_pack"] == 0
    calls["_normal_order"] = 0
    assert closure_report("sp4").closed
    assert calls == {"_pack": 0, "_normal_order": 45}


def test_warm_identity_checks_build_no_constant(monkeypatch):
    # each generator's prefix (its phase and, for the Weyl pairs, u) is cached
    # by value and the families' powers of r and d/dr are module constants, so
    # a warm reconstruction or B, C or F factorization check calls no atom
    # constructor (6 phase and 4 u_sym calls in a reconstruction, 4-5 r_power
    # and 0-1 deriv calls in a check, when each call validated them again)
    checks = [lambda: reconstruction_reports(3, HALF), lambda: reconstruction_reports(Fraction(7, 2), -2),
              *(lambda p=params: factorization_residuals(p, Fraction(5, 2))
                for params in (TypeB(2, HALF, 3), TypeC(-2, HALF), TypeF(-3)))]
    for check in checks:
        check()
    calls = _count_calls(monkeypatch, "phase", "u_sym", "r_power", "r_half_power", "sqrt_r", "deriv", "_pack")
    for check in checks:
        check()
    assert calls == dict.fromkeys(calls, 0)


def test_commutator_with_a_number_is_zero():
    assert oa.commutator(3, oa.deriv("r")).is_zero
    assert oa.commutator(oa.deriv("r"), Fraction(1, 2)).is_zero


# -- the exponent bound of packed atom keys --------------------------------

_FIELD_NAMES = (*oa.Mono._fields, "s_power")
_BOUND_MESSAGE = "{} = {} is outside the exponent bound [-2**24, 2**24)"


def _atom_with(name: str, value: int) -> tuple:
    """The atom key with ``name`` set to ``value`` and every other field 0."""
    fields = dict.fromkeys(_FIELD_NAMES, 0) | {name: value}
    return oa.Mono(*(fields[f] for f in oa.Mono._fields)), fields["s_power"], 0


def _ends(name: str) -> tuple[int, ...]:
    # a derivative order is never negative, so its low end is 0
    return (oa.EXP_BOUND - 1,) if name.startswith("d") else (oa.EXP_BOUND - 1, -oa.EXP_BOUND)


@pytest.mark.parametrize("name", _FIELD_NAMES)
def test_every_field_reaches_the_exponent_bound(name):
    # each field holds every exponent in [-2**24, 2**24), its ends included,
    # and reads back, renders and parses to the same value there
    for value in _ends(name):
        key = _atom_with(name, value)
        e = oa.OperatorExpr({key: 1})
        assert e.terms() == ((key, (1, 0)),)
        assert opdsl.parse(opdsl.render(e)) == e
        assert oa.OperatorExpr(dict(e.terms())) == e


@pytest.mark.parametrize("name", _FIELD_NAMES)
def test_one_past_the_exponent_bound_is_refused(name):
    # one past either end is a ValueError naming the field, before any key is built
    for end in _ends(name):
        value = end + 1 if end > 0 else end - 1
        with pytest.raises(ValueError) as info:
            oa.OperatorExpr({_atom_with(name, value): 1})
        assert str(info.value) == _BOUND_MESSAGE.format(name, value)


@pytest.mark.parametrize("build,name,value", [
    (lambda: oa.r_half_power(oa.EXP_BOUND), "r2", 2**24),
    (lambda: oa.s_sym(-oa.EXP_BOUND - 1), "s_power", -2**24 - 1),
    (lambda: oa.phase("alpha", oa.EXP_BOUND), "ka", 2**24),
    (lambda: oa.deriv("beta", oa.EXP_BOUND), "db", 2**24),
    # the closed-form power of an atom that commutes with itself
    (lambda: (oa.r_power(1) * oa.deriv("eta")) ** 2**23, "r2", 2**24),
    # a fold of free single atoms
    (lambda: oa.r_half_power(oa.EXP_BOUND - 1) * oa.sqrt_r(), "r2", 2**24),
    (lambda: oa.s_sym(-oa.EXP_BOUND) * oa.u_sym() * oa.u_sym(), "s_power", -2**24 - 1),
    # 2,149,634 factors r^999 would carry r2 past its 32 bits: the n-ary fold, and
    # a plain DSL term (a 12.9 MB text) through it, stop at the 8,398th
    (lambda: oa.fold([oa._form(oa.r_power(999))] * 2_149_634), "r2", 8398 * 1998),
    (lambda: opdsl._plain_value([[1, [opdsl._factor("r^999")] * 2_149_634, False]]), "r2", 8398 * 1998),
    # the product loop: a leading term, and an interaction term that lowers r2 by 2 * dr
    (lambda: (oa.r_half_power(oa.EXP_BOUND - 1) + oa.deriv("r")) * (oa.sqrt_r() + 1), "r2", 2**24),
    (lambda: oa.commutator(oa.deriv("r", 3), oa.r_half_power(-oa.EXP_BOUND)), "r2", -2**24 - 2),
])
def test_operations_past_the_exponent_bound_are_refused(build, name, value):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == _BOUND_MESSAGE.format(name, value)


def test_repeated_squaring_is_refused_at_the_exponent_bound():
    # x = x*x doubles r's exponent each time: r**(2**22) is the last inside the
    # bound, and the next square is refused where unchecked fields would carry on
    x = oa.r_power(1)
    for squarings in range(1, 81):
        try:
            x = x * x
        except ValueError as err:
            assert str(err) == _BOUND_MESSAGE.format("r2", 2**24)
            break
    assert squarings == 23 and x == oa.r_power(2**22)


def test_normal_ordering_cache_stays_small():
    # the cache is keyed by left derivative orders and right function
    # exponents, so the sp4 closure and a long power share a few hundred keys;
    # it is read only to build an operand's table for a left atom signature,
    # once per interaction class of the operand (function exponents and u
    # parity), and an operand keeps its tables, so a warm closure reads it 0
    # times and a product reads it at most once per signature and class
    def reads():
        info = oa._mono_cross.cache_info()
        return info.hits + info.misses

    for op in sp4_bilinears().values():  # as fresh operands hold no table and no kept atoms
        oa._set_tables(op, None)
        oa._set_lefts(op, None)
    oa._mono_cross.cache_clear()
    closure_report("sp4")
    cold = reads()
    closure_report("sp4")
    warm = reads() - cold
    power = reads()
    opdsl.parse("(d/dr + r)^20")
    power = reads() - power
    assert oa._mono_cross.cache_info().currsize <= 400
    assert cold <= 300 and warm == 0 and power <= 160, (cold, warm, power)


def test_warm_closures_form_every_commutator(monkeypatch):
    # an operand keeps its tables, but no product or commutator is kept: a
    # warm closure still forms each of its commutators
    for name, commutators in (("sp4", 45), ("weyl", 10)):
        closure_report(name)
        normal_order, orderings = oa._normal_order, []
        monkeypatch.setattr(oa, "_normal_order", lambda *args: orderings.append(1) or normal_order(*args))
        closure_report(name)
        monkeypatch.undo()
        assert len(orderings) == commutators, name


def test_warm_sp4_closure_reads_each_offset_once(monkeypatch):
    # each left atom with a derivative reads one merged table of the right
    # operand: 8,462 entries in a warm sp4 closure (9,340 unmerged and
    # unmasked), and the closure still forms its 45 commutators
    closure_report("sp4")
    normal_order, reads, orderings = oa._normal_order, [], []

    def counted(a, b, commute):
        out = normal_order(a, b, commute)
        orderings.append(commute)
        for left, right in ((a, b), (b, a)) if commute else ((a, b),):
            reads.extend(len(right._tables[sig]) for *_, sig, _ in left._lefts[1])
        return out

    monkeypatch.setattr(oa, "_normal_order", counted)
    closure_report("sp4")
    assert orderings == [True] * 45 and sum(reads) == 8462


def test_warm_sp4_closure_and_casimir_form_no_products(monkeypatch):
    # every generator set and the Casimir are built once, so once warm the
    # closure and the Casimir table only commute what they already hold; each
    # identity text of a report list is read and proved once per process, so a
    # warm su11, weyl or Casimir table runs no normal ordering at all
    closure_report("sp4")
    warm = (casimir_reports, su11_reports, weyl_reports)
    for reports in warm:
        reports()
    mul, calls = oa.OperatorExpr.__mul__, []
    monkeypatch.setattr(oa.OperatorExpr, "__mul__", lambda *args: calls.append(1) or mul(*args))
    closure_report("sp4")
    casimir_reports()
    assert len(calls) == 0
    normal_order, orderings = oa._normal_order, []
    monkeypatch.setattr(oa, "_normal_order", lambda *args: orderings.append(1) or normal_order(*args))
    for reports in warm:
        assert all(rep.passed for rep in reports())
    assert len(orderings) == 0


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


def _u_free(e: oa.OperatorExpr) -> oa.OperatorExpr:
    # e without its atoms in the formal unit u
    return oa.OperatorExpr({key: pair for key, pair in e.terms() if not key[2]})


_POSITIVE = st.fractions(min_value=Fraction(1, 7), max_value=7, max_denominator=7)


@settings(max_examples=100, deadline=None)
@given(operators(wide=True).map(_u_free), operators(wide=True).map(_u_free), _POSITIVE)
def test_substitute_s_preserves_sums_and_products(a, b, q):
    # s is a central number, so setting it is a ring map on u-free operators
    assert (a + b).substitute_s(q) == a.substitute_s(q) + b.substitute_s(q)
    assert (a * b).substitute_s(q) == a.substitute_s(q) * b.substitute_s(q)
    _assert_lowest_terms(a.substitute_s(q))


@settings(max_examples=100, deadline=None)
@given(operators(wide=True), operators(wide=True))
def test_swap_alpha_beta_preserves_products_and_commutators(a, b):
    swap = oa.swap_alpha_beta
    assert swap(a * b) == swap(a) * swap(b)
    assert swap(oa.commutator(a, b)) == oa.commutator(swap(a), swap(b))


# each letter's own value, in field order: the Mono fields, then s and u
_LETTER_VALUES = {"r2": oa.sqrt_r(), "ke": oa.phase("eta", 1), "ka": oa.phase("alpha", 1), "kb": oa.phase("beta", 1),
                  "dr": oa.deriv("r"), "de": oa.deriv("eta"), "da": oa.deriv("alpha"), "db": oa.deriv("beta"),
                  "s_power": oa.s_sym(), "u_parity": oa.u_sym()}
# a function letter's exponent may be negative, so its image inverts: one atom without derivatives
_IMAGE_TABLES = [
    {"dr": oa.deriv("r") - Fraction(1, 2), "s_power": oa.scalar(Fraction(1, 2)), "ke": oa.identity()},
    {"ka": oa.phase("beta", 1), "kb": oa.phase("alpha", 1), "da": oa.deriv("beta"), "db": oa.deriv("alpha")},
    {"ka": oa.sqrt_r(), "de": oa.deriv("r") + oa.imag() * oa.deriv("eta"), "u_parity": oa.s_sym() + oa.u_sym()},
    {"r2": Fraction(2, 3) * oa.phase("eta", 2) * oa.s_sym(-1), "db": oa.r_power(1), "dr": oa.deriv("alpha", 2)},
]


def _rewrite_by_hand(op: oa.OperatorExpr, images) -> oa.OperatorExpr:
    # per atom, the product of its coefficient and every letter's image in field order, summed
    total = oa.zero()
    for (mono, sp, up), (re, im) in op.terms():
        term = oa.scalar(re) + oa.scalar(im) * oa.imag()
        for name, e in zip(_LETTER_VALUES, (*mono, sp, up)):
            term = term * images.get(name, _LETTER_VALUES[name]) ** e
        total = total + term
    return total


@settings(max_examples=50, deadline=None)
@given(operators(wide=True))
def test_rewrite_by_no_images_is_the_identity(op):
    assert oa.rewrite(op, {}) == op == _rewrite_by_hand(op, {})


def test_rewrite_refuses_a_key_that_names_no_letter():
    # a misspelt letter would pass as the identity map: {"s": 3} left s^2*r*d/dr
    # as it was, where {"s_power": 3} gives 9*r*d/dr
    op = opdsl.parse("s^2*r*d/dr")
    assert oa.rewrite(op, {"s_power": oa.scalar(3)}) == opdsl.parse("9*r*d/dr")
    for target in (op, oa.zero()):
        with pytest.raises(ValueError, match="^image key 's' names no letter: the letters are r2, ke, .*, u_parity$"):
            oa.rewrite(target, {"ka": oa.phase("beta", 1), "s": oa.scalar(3)})


@pytest.mark.parametrize("image,kind", [(1, "int"), (Fraction(1, 2), "Fraction"), ("r", "str")],
                         ids=["int", "Fraction", "str"])
def test_rewrite_refuses_an_image_that_is_no_operator(image, kind):
    # a number or a text image once reached product or ** and raised from deep inside, an AttributeError
    # on _terms or a TypeError from **; it is refused up front with the key it sits under
    for target in (opdsl.parse("r"), oa.zero()):
        with pytest.raises(TypeError, match=f"^image of 'r2' must be an OperatorExpr, got {kind}$"):
            oa.rewrite(target, {"s_power": oa.scalar(3), "r2": image})


@pytest.mark.parametrize("value,kind", [("T+", "str"), (None, "NoneType"), (1, "int")], ids=["str", "None", "int"])
@pytest.mark.parametrize("call,name", [
    (lambda value: cl.act(value, cl.state_tm(3, 1), 1.0), "op"),
    (lambda value: oa.rewrite(value, {}), "op"),
    (step, "op"),
    (opdsl.render, "expr"),
], ids=["act", "rewrite", "step", "render"])
def test_an_operand_that_is_no_operator_refused(call, name, value, kind):
    # a ladder's name, None or a number once raised an AttributeError on .atoms or ._terms from inside
    with pytest.raises(TypeError, match=f"^{name} must be an OperatorExpr, got {kind}$"):
        call(value)


def test_only_opalgebra_lays_out_an_atom_key():
    # every other module builds atoms through opalgebra's constructors and folds
    # them through opalgebra.fold, naming neither the key's layout nor _wrap
    package = Path(oa.__file__).parent
    for name in ("_pack", "_DERIVS", "_FUNCS", "_GUARD", "_LOW", "_U2", "_wrap"):
        users = sorted(path.name for path in package.glob("*.py") if name in path.read_text())
        assert users == ["opalgebra.py"], name


@settings(max_examples=50, deadline=None)
@pytest.mark.parametrize("images", _IMAGE_TABLES)
@given(operators(wide=True))
def test_rewrite_matches_the_atom_by_atom_reference(images, op):
    assert oa.rewrite(op, images) == _rewrite_by_hand(op, images)


@pytest.mark.parametrize("op", [oa.s_sym(20000), oa.s_sym(-20000), oa.s_sym(2000000)])
def test_substitute_s_bounds_its_coefficient_powers(op):
    # 3**20000 has 9,543 digits: the power of s goes through atom_power's digit bound
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ValueError, match=f"^a result coefficient has more than {limit} digits$"):
        op.substitute_s(3)


def test_rewrites_take_one_linear_sum(monkeypatch):
    # each rewrite is one weighted sum of its atoms: an uncached rho-form makes
    # one linear_sum call, and substitute_s one, without the validating
    # constructor
    ops = [lad.operator() for lad in LADDERS.values()] + [build_T()["T0"], casimir()[0], oa.identity()]
    ops += sp4_bilinears().values()
    init, inits = oa.OperatorExpr.__init__, []
    monkeypatch.setattr(oa.OperatorExpr, "__init__", lambda *args: inits.append(1) or init(*args))
    calls = _count_calls(monkeypatch, "linear_sum")
    for op in ops:
        calls["linear_sum"] = 0
        cl._rho_form.__wrapped__(op)
        assert calls["linear_sum"] == 1, op
    for op in (build_T()["Tplus"], casimir()[0], oa.s_sym(-2) * oa.r_power(1) + oa.s_sym(3)):
        calls["linear_sum"] = 0
        op.substitute_s(Fraction(3, 2))
        assert calls["linear_sum"] == 1 and not inits, op


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
        # a key's Mono is its plain 8-tuple: equal, hashed alike and taken back as one
        plain = {(tuple(mono), sp, up): g for (mono, sp, up), g in e.terms()}
        assert plain == dict(e.terms()) and oa.OperatorExpr(plain) == e
    mono = oa.Mono._make(range(8))
    assert mono._fields == ("r2", "ke", "ka", "kb", "dr", "de", "da", "db") and mono == tuple(range(8))
    assert repr(mono._replace(r2=0, dr=2)) == "Mono(r2=0, ke=1, ka=2, kb=3, dr=2, de=5, da=6, db=7)"


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
            sympy.Rational(g[0].numerator, g[0].denominator)
            + sympy.I * sympy.Rational(g[1].numerator, g[1].denominator)
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
    # the last pairs' operands share function patterns, so they fill interaction classes
    for draw, terms_b in [(random_operator, 2)] * 8 + [(random_class_operator, 3)] * 4:
        a = draw(rng, max_terms=2, small=True)
        b = draw(rng, max_terms=terms_b, small=True)
        direct = _sympy_apply(a * b, _SF)
        composed = _sympy_apply(a, _sympy_apply(b, _SF))
        assert sympy.simplify(sympy.expand(direct - composed)) == 0


def test_repr_is_the_render():
    x = oa.phase("eta", 1) * (oa.r_power(1) * oa.deriv("r") + oa.scalar(Fraction(1, 3)) * oa.imag())
    assert repr(x) == opdsl.render(x)


def test_repr_falls_back_past_the_digit_limit():
    # render refuses a coefficient of more digits than int's string limit
    assert repr(oa.scalar(10**4000) * oa.scalar(10**4000)) == "<OperatorExpr 1 terms>"


"""Family triples, eigenvalue rules, ladder identities, cross-family maps."""

import random
from fractions import Fraction

import pytest

from ladder_forge import factorizations as fz
from ladder_forge import opalgebra as oa
from ladder_forge.opdsl import parse

from _gen import random_family

HALF = Fraction(1, 2)


class TestTriples:
    def test_coulomb_like_triple(self):
        r, k, L = fz.rkl(fz.TypeF(-1), 1)
        assert r == parse("2*r^-1 - 2*r^-2")
        assert k == parse("r^-1 - 1")
        assert L == -1

    def test_oscillator_like_triple(self):
        r, k, L = fz.rkl(fz.TypeC(-1, 0), 2)
        assert r == parse("-6*r^-2 - 2 - 1/4*r^2")
        assert k == parse("2*r^-1 - 1/2*r")
        assert L == Fraction(7, 2)

    def test_exponential_triple(self):
        # type B lives in r = exp(a x): exp(x) is r, exp(2x) is r^2
        r, k, L = fz.rkl(fz.TypeB(1, 0, 1), 0)
        assert r == parse("r - r^2")
        assert k == parse("r")
        assert L == 0

    def test_coulomb_like_pole_rejected(self):
        with pytest.raises(ValueError):
            fz.rkl(fz.TypeF(-1), 0)

    @pytest.mark.parametrize("bad", [
        lambda: fz.TypeF(1),
        lambda: fz.TypeF(0),
        lambda: fz.TypeB(-1, 0, 1),
        lambda: fz.TypeB(1, 0, -1),
        lambda: fz.TypeC(1, 0),
    ])
    def test_sign_constraints(self, bad):
        with pytest.raises(ValueError):
            bad()


class TestEigenvalues:
    def test_examples(self):
        assert fz.eigenvalue(fz.TypeF(-1), 0) == -1
        assert fz.eigenvalue(fz.TypeF(-3), 2) == -1
        assert fz.eigenvalue(fz.TypeB(1, HALF, 1), 1) == Fraction(-9, 4)
        assert fz.eigenvalue(fz.TypeC(Fraction(-3, 2), Fraction(1, 3)), 0) == Fraction(9, 4)

    @pytest.mark.parametrize("tag,step", [("B", 0), ("C", 1), ("F", 1)])
    def test_is_rkl_eigenvalue_at_l_plus_step(self, tag, step):
        # class I (C, F) reads L at l + 1, class II (B) at l itself
        rng = random.Random(606)
        for _ in range(25):
            params, m = random_family(rng, tag)
            l = m if tag == "B" else abs(m)
            assert fz.eigenvalue(params, l) == fz.rkl(params, l + step)[2]

    def test_second_kind_uses_l_not_l_plus_one(self):
        # -a**2 (l+c)**2 at l itself
        assert fz.eigenvalue(fz.TypeB(2, 0, 1), 3) == -36

    def test_first_kind_rejects_negative_l(self):
        with pytest.raises(ValueError):
            fz.eigenvalue(fz.TypeF(-1), -1)
        with pytest.raises(ValueError):
            fz.eigenvalue(fz.TypeC(-1, 0), Fraction(-1, 2))

    def test_monotone_in_l_for_fixed_coupling(self):
        for q in (Fraction(-1), Fraction(-7, 2)):
            values = [fz.eigenvalue(fz.TypeF(q), l) for l in range(6)]
            assert all(a < b for a, b in zip(values, values[1:]))


class TestLadders:
    def test_coulomb_like_members(self):
        up, down = fz.ladder(fz.TypeF(-1), 1)
        k_part = oa.r_power(-1) - oa.identity()
        assert up == oa.deriv("r") + k_part
        assert down == -oa.deriv("r") + k_part

    def test_oscillator_like_members(self):
        up, _ = fz.ladder(fz.TypeC(-1, 0), 1)
        assert up == oa.deriv("r") + oa.r_power(-1) - HALF * oa.r_power(1)

    @pytest.mark.parametrize("tag", ["B", "C", "F"])
    def test_identities_at_random_points(self, tag):
        rng = random.Random(hash(tag) & 0xFFFF | 1)
        for _ in range(20):
            params, m = random_family(rng, tag)
            res_up, res_down = fz.factorization_residuals(params, m)
            assert res_up.is_zero and res_down.is_zero


    @pytest.mark.parametrize("q", [-1, Fraction(-5, 2), -7])
    def test_coulomb_like_identities_at_m_one(self, q):
        # the second identity reads r at m - 1 = 0, where k and L are undefined
        res_up, res_down = fz.factorization_residuals(fz.TypeF(q), 1)
        assert res_up.is_zero and res_down.is_zero

    def test_y_pull_back_keeps_other_letters_and_refuses_a_half_power_of_x(self):
        # x d/dx is y d/dy = 2 r d/dr, s and a phase stand as they are, and sqrt(x) would need r**(1/4)
        assert fz._pull_back_y(parse("s*exp(i*eta)*r*d/dr - 3*r^-2")) == parse("2*s*exp(i*eta)*r*d/dr - 3/4*r^-1")
        with pytest.raises(ValueError, match=r"^x\*\*\(1/2\) has no image in y = 2 sqrt\(r\)$"):
            fz._pull_back_y(oa.sqrt_r())


def _closed_forms(params, m):
    """The module docstring's (r(x, .), k(x, m), L(m)) and D, written with plain Fractions and operator sums."""
    r1, r2, r_inv, r_inv2, one = oa.r_power(1), oa.r_power(2), oa.r_power(-1), oa.r_power(-2), oa.identity()
    if isinstance(params, fz.TypeF):
        q = params.q
        return (lambda n: -2 * q * r_inv - n * (n + 1) * r_inv2, m * r_inv + q / m * one, -q**2 / m**2,
                oa.deriv("r"))
    if isinstance(params, fz.TypeC):
        b, c = params.b, params.c
        return (lambda n: -(n + c) * (n + c + 1) * r_inv2 - b**2 / 4 * r2 + b * (n - c) * one,
                (m + c) * r_inv + b / 2 * r1, -2 * b * m + b / 2, oa.deriv("r"))
    a, c, d = params.a, params.c, params.d  # type B in r = exp(a x): exp(2 a x) is r**2, d/dx is a r d/dr
    return (lambda n: -d**2 * r2 + 2 * a * d * (n + c + HALF) * r1, d * r1 - a * (m + c) * one, -a**2 * (m + c)**2,
            a * r1 * oa.deriv("r"))


def _random_rational(rng, lo, hi, nonzero=False):
    while True:
        value = Fraction(rng.randint(lo, hi), rng.randint(1, 12))
        if value or not nonzero:
            return value


class TestFamilyOracle:
    """``_family`` reads its numbers as integers over one denominator; every reader must agree with the closed
    forms evaluated in Fractions, at denominators up to 12 and at m = 1 of type F, where r is read at 0."""

    @pytest.mark.parametrize("tag", ["B", "C", "F"])
    def test_family_matches_closed_forms(self, tag):
        rng = random.Random(f"family-oracle:{tag}")
        for trial in range(40):
            if tag == "B":
                params = fz.TypeB(_random_rational(rng, 1, 9), _random_rational(rng, -6, 6),
                                  _random_rational(rng, 1, 9))
            elif tag == "C":
                params = fz.TypeC(_random_rational(rng, -9, -1), _random_rational(rng, -6, 6))
            else:
                params = fz.TypeF(_random_rational(rng, -9, -1))
            m = 1 if tag == "F" and trial % 4 == 0 else _random_rational(rng, -8, 8, nonzero=tag == "F")
            if trial % 5 == 1:  # an int label
                m = int(m) or 1
            r, k, level, d_op = _closed_forms(params, Fraction(m))
            assert fz.rkl(params, m) == (r(m), k, level), (params, m)
            assert fz.ladder(params, m) == (d_op + k, -d_op + k)
            up, down = (d_op + k, -d_op + k)
            expected = tuple(left * right + level + d_op * d_op + r(n)
                             for left, right, n in ((down, up, m), (up, down, m - 1)))
            assert fz.factorization_residuals(params, m) == expected and not any(expected)
            l = abs(Fraction(m))
            assert fz.eigenvalue(params, l) == _closed_forms(params, l + (tag != "B"))[2]

    def test_coulomb_like_label_zero_refused(self):
        for read in (fz.rkl, fz.ladder, fz.factorization_residuals):
            with pytest.raises(ValueError, match="^type F requires m != 0$"):
                read(fz.TypeF(Fraction(-5, 3)), Fraction(0, 7))


class TestTransforms:
    def test_to_exponential_family_examples(self):
        r1 = fz.f_to_b(-1, 0, 0)
        assert r1.target.d == 1 and r1.scale_s == 1
        assert r1.quantum_map == {"mbar+cbar": HALF, "lbar+cbar": HALF}
        r2 = fz.f_to_b(-2, 1, 0)
        assert r2.target.d == 1 and r2.scale_s == 1
        r3 = fz.f_to_b(-6, 1, 1, a=2)
        assert r3.target.d == 6 and r3.scale_s == 3
        assert r3.quantum_map == {"mbar+cbar": Fraction(3, 2), "lbar+cbar": Fraction(3, 2)}

    def test_to_oscillator_family_examples(self):
        plus = fz.f_to_c(-1, 0, 0, eps=1)
        assert plus.target.b == -1
        assert plus.quantum_map == {"mhat+chat": HALF, "lhat+chat": HALF}
        minus = fz.f_to_c(-1, 0, 0, eps=-1)
        assert minus.quantum_map == {"mhat+chat": Fraction(-3, 2), "lhat+chat": -HALF}

    def test_between_target_families_examples(self):
        b = fz.TypeB(1, 0, 1)
        plus = fz.b_to_c(b, 1, 1, eps=1)
        assert plus.target.b == -1
        assert plus.quantum_map == {"mhat+chat": Fraction(3, 2), "lhat+chat": Fraction(3, 2)}
        minus = fz.b_to_c(b, 1, 1, eps=-1)
        assert minus.quantum_map == {"mhat+chat": Fraction(-5, 2), "lhat+chat": -HALF}

    def test_only_scale_ratio_matters(self):
        a = fz.b_to_c(fz.TypeB(1, 0, 1), 2, 1, eps=1)
        b = fz.b_to_c(fz.TypeB(2, 0, 2), 2, 1, eps=1)
        assert a.target == b.target and a.quantum_map == b.quantum_map

    def test_branch_symmetry_about_minus_half(self):
        for m in range(4):
            up = fz.f_to_c(-3, 5, m, eps=1).quantum_map["mhat+chat"]
            down = fz.f_to_c(-3, 5, m, eps=-1).quantum_map["mhat+chat"]
            assert up + down == -1

    def test_scale_is_exact_root_of_eigenvalue(self):
        for q, l in [(-1, 0), (-5, 3), (Fraction(-7, 2), 6)]:
            res = fz.f_to_b(q, l, 0)
            assert res.scale_s**2 == -fz.eigenvalue(fz.TypeF(q), l)

    def test_composition_matches_direct_route(self):
        rng = random.Random(2026)
        for _ in range(50):
            l = rng.randint(0, 6)
            m = rng.randint(0, l)
            q = Fraction(-rng.randint(1, 9), rng.randint(1, 3))
            eps = rng.choice((1, -1))
            via_b = fz.f_to_b(q, l, m)
            composed = fz.b_to_c(via_b.target, via_b.quantum_map["lbar+cbar"],
                                 via_b.quantum_map["mbar+cbar"], eps)
            direct = fz.f_to_c(q, l, m, eps)
            assert composed.target == direct.target
            assert composed.quantum_map == direct.quantum_map
            assert composed.scale_s == -direct.target.b

    def test_epsilon_is_stored_as_an_int(self):
        # eps is read with exact_int, and the int is what the result holds: True is 1, Fraction(-1) is -1
        for result, expected in ((fz.f_to_c(-1, 2, 1, True), 1), (fz.b_to_c(fz.TypeB(1, 0, 1), 1, 1, True), 1),
                                 (fz.f_to_c(-1, 2, 1, Fraction(-1)), -1)):
            assert type(result.epsilon) is int and result.epsilon == expected
            assert result == (fz.f_to_c(-1, 2, 1, expected) if result.source.family == "F"
                              else fz.b_to_c(fz.TypeB(1, 0, 1), 1, 1, expected))

    def test_label_validation(self):
        with pytest.raises(ValueError):
            fz.f_to_b(-1, 0, 1)  # m > l
        with pytest.raises(ValueError):
            fz.f_to_c(-1, -1, 0, eps=1)
        with pytest.raises(ValueError, match="type B requires a > 0 and d > 0"):
            fz.f_to_b(-1, 1, 0, a=0)
        with pytest.raises(ValueError):
            fz.f_to_c(-1, 1, 0, eps=2)


class TestShiftedCharge:
    def test_examples(self):
        assert fz.shifted_charge(-6, 2, 1) == -9
        assert fz.shifted_charge(-1, 1, -1) == 0
        assert fz.shifted_charge(-2, 4, 1) == Fraction(-5, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            fz.shifted_charge(-1, 0, 1)
        with pytest.raises(ValueError):
            fz.shifted_charge(-1, 2, 0)

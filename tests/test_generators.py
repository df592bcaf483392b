"""Generator construction, commutation tables, closure, ladder reconstruction."""

from fractions import Fraction
from itertools import combinations

import pytest

from ladder_forge import generators as gen
from ladder_forge import opalgebra as oa

HALF = Fraction(1, 2)
LADDER_LABELS = [(0, 0), (1, 0), (3, 1), (Fraction(7, 2), Fraction(3, 2)), (5, 4)]


@pytest.mark.parametrize("build", [gen.build_T, gen.build_AB, gen.sp4_bilinears])
def test_each_set_is_built_once_and_read_only(build):
    assert build() is build()
    members = getattr(build(), "members", build())  # sp4_bilinears is the mapping itself
    name = next(iter(members))
    with pytest.raises(TypeError):
        members[name] = oa.identity()


def test_casimir_is_built_once():
    assert gen.casimir() is gen.casimir()


class TestNumberPhaseTriple:
    def test_member_names_and_flags(self):
        s = gen.build_T()
        assert s.kind == "su11"
        assert set(s.members) == {"T0", "Tplus", "Tminus"}

    def test_number_operator_form(self):
        assert gen.build_T().members["T0"] == -(oa.imag() * oa.deriv("eta"))

    def test_commutation_table(self):
        reports = gen.su11_reports()
        assert len(reports) == 3
        for rep in reports:
            assert rep.passed and rep.residual.is_zero

    def test_jacobi_exact(self):
        members = list(gen.build_T().members.values())
        for a, b, c in combinations(members, 3):
            total = (
                oa.commutator(a, oa.commutator(b, c))
                + oa.commutator(b, oa.commutator(c, a))
                + oa.commutator(c, oa.commutator(a, b))
            )
            assert total.is_zero


class TestWeylPairs:
    def test_member_names(self):
        s = gen.build_AB()
        assert s.kind == "weyl"
        assert set(s.members) == {"Aplus", "Aminus", "Bplus", "Bminus"}

    def test_commutation_table(self):
        reports = gen.weyl_reports()
        assert len(reports) == 6
        for rep in reports:
            assert rep.passed, rep.name

    def test_pairs_swap_under_angle_exchange(self):
        members = gen.build_AB().members
        assert oa.swap_alpha_beta(members["Aplus"]) == members["Bplus"]
        assert oa.swap_alpha_beta(members["Aminus"]) == members["Bminus"]

    def test_jacobi_exact(self):
        members = list(gen.build_AB().members.values())
        for a, b, c in combinations(members, 3):
            total = (
                oa.commutator(a, oa.commutator(b, c))
                + oa.commutator(b, oa.commutator(c, a))
                + oa.commutator(c, oa.commutator(a, b))
            )
            assert total.is_zero


class TestCasimir:
    def test_normal_form_identity(self):
        op, report = gen.casimir()
        assert report.passed
        r2 = oa.r_power(2)
        expected = (
            r2 * oa.deriv("r", 2)
            - 2 * oa.imag() * oa.s_sym() * oa.r_power(1) * oa.deriv("eta")
            - oa.s_sym(2) * r2
        )
        assert op == expected

    def test_commutes_with_all_generators(self):
        reports = gen.casimir_reports()
        assert len(reports) == 4
        assert all(rep.passed for rep in reports)


class TestClosure:
    @pytest.mark.parametrize("which,dim", [("su11", 3), ("weyl", 5), ("sp4", 10)])
    def test_dimensions(self, which, dim):
        report = gen.closure_report(which)
        assert report.closed
        assert report.dimension == dim == gen.expected_dimension(which)

    def test_bilinears_are_ten(self):
        assert len(gen.sp4_bilinears()) == 10

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            gen.closure_report("su2")


class TestTransformedLadders:
    def test_eigen_preserving_pair(self):
        plus, minus = gen.transformed_ladders("tilde", 2, 0)
        r_dr = oa.r_power(1) * oa.deriv("r")
        sr = oa.s_sym() * oa.r_power(1)
        assert plus == r_dr + sr - 3 * oa.identity()
        assert minus == -r_dr + sr - 2 * oa.identity()

    def test_half_power_pairs(self):
        plus, minus = gen.transformed_ladders("check1", 1, 1)
        root = oa.sqrt_r()
        s = oa.s_sym()
        assert plus == root * (oa.deriv("r") + oa.r_power(-1) - s)
        assert minus == root * (-oa.deriv("r") + Fraction(3, 2) * oa.r_power(-1) - s)
        plus2, minus2 = gen.transformed_ladders("check2", 1, 1)
        assert plus2 == root * (oa.deriv("r") - 2 * oa.r_power(-1) - s)
        assert minus2 == root * (-oa.deriv("r") - Fraction(3, 2) * oa.r_power(-1) - s)

    @pytest.mark.parametrize("l,m", LADDER_LABELS)
    def test_check2_mirrors_check1(self, l, m):
        # the mu <-> nu exchange: nu - mu = 2m + 1 becomes mu - nu at m -> -m - 1
        assert gen.transformed_ladders("check2", l, m) == gen.transformed_ladders("check1", l, -m - 1)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            gen.transformed_ladders("hat", 0, 0)
        with pytest.raises(ValueError):
            gen.ladder_shift("tilde", 2)

    def test_shift_table(self):
        assert gen.ladder_shift("tilde", 1) == (1, 0)
        assert gen.ladder_shift("tilde", -1) == (-1, 0)
        assert gen.ladder_shift("check1", 1) == (HALF, -HALF)
        assert gen.ladder_shift("check1", -1) == (-HALF, HALF)
        assert gen.ladder_shift("check2", 1) == (HALF, HALF)
        assert gen.ladder_shift("check2", -1) == (-HALF, -HALF)

    def test_shifts_match_bound_state_label_moves(self):
        # check1 steps mu = l - m, check2 steps nu = l + m + 1
        from ladder_forge import coulomb

        state = coulomb.state_munu(2, 5)
        for kind, op in (("check1", "A+"), ("check1", "A-"),
                         ("check2", "B+"), ("check2", "B-")):
            direction = 1 if op.endswith("+") else -1
            dl, dm = gen.ladder_shift(kind, direction)
            target = coulomb.shifted_state(state, op)
            dmu, dnu = (target.labels[0] - state.labels[0],
                        target.labels[1] - state.labels[1])
            assert (dl - dm, dl + dm) == (dmu, dnu)

    @pytest.mark.parametrize("l,m", LADDER_LABELS)
    def test_generators_rebuilt_from_ladders(self, l, m):
        reports = gen.reconstruction_reports(l, m)
        assert len(reports) == 6
        for rep in reports:
            assert rep.passed, rep.name

    @pytest.mark.parametrize("l,m", LADDER_LABELS)
    def test_reconstruction_names_and_targets(self, l, m):
        reports = gen.reconstruction_reports(l, m)
        assert [rep.name for rep in reports] == [
            "T+ from tilde ladder", "T- from tilde ladder",
            "A+ from check1 ladder", "A- from check1 ladder",
            "B+ from check2 ladder", "B- from check2 ladder",
        ]
        for rep in reports:
            assert rep.rhs == gen.LADDERS[rep.name.split()[0]].operator(), rep.name

"""Generator construction, commutation tables, closure, ladder reconstruction."""

import random
import re
from fractions import Fraction
from functools import partial
from itertools import combinations

import numpy as np
import pytest

from ladder_forge import factorizations as fz
from ladder_forge import generators as gen
from ladder_forge import opalgebra as oa
from ladder_forge import opdsl

HALF = Fraction(1, 2)
LADDER_LABELS = [(0, 0), (1, 0), (3, 1), (Fraction(7, 2), Fraction(3, 2)), (5, 4)]
# the tilde triple's rows that a wrong T number operator fails
TILDE_ROWS = ["[T+,T-] == -2*T0", "casimir-normal-form", "[C,T+] == 0", "[C,T-] == 0"]
SU11_ROWS = ["[T0,T+] == T+", "[T0,T-] == -T-", "[T+,T-] == -2*T0"]
WEYL_ROWS = ["[A-,A+] == 1", "[B-,B+] == 1", "[A+,B+] == 0", "[A+,B-] == 0", "[A-,B+] == 0", "[A-,B-] == 0"]
B_ROWS = ["B+ from check2 ladder", "B- from check2 ladder"]


@pytest.fixture
def fresh_generators(monkeypatch):
    """``monkeypatch``, with every cache that holds a generator or a report read from them cleared before the
    test and again once its patches are undone."""
    def clear():
        for built in (gen._number_label, gen.build_T, gen.build_AB, gen.casimir, gen.sp4_bilinears, gen._identity):
            built.cache_clear()
    clear()
    yield monkeypatch
    monkeypatch.undo()
    clear()


def _failed_rows() -> list[str]:
    """The names of the failing su11, weyl, Casimir and reconstruction rows."""
    reports = (*gen.su11_reports(), *gen.weyl_reports(), *gen.casimir_reports(), *gen.reconstruction_reports(3, HALF))
    return [rep.name for rep in reports if not rep.passed]


@pytest.mark.parametrize("build", [gen.build_T, gen.build_AB, gen.sp4_bilinears])
def test_each_set_is_built_once_and_read_only(build):
    assert build() is build()
    members = build()
    name = next(iter(members))
    with pytest.raises(TypeError):
        members[name] = oa.identity()


def test_casimir_is_built_once():
    assert gen.casimir() is gen.casimir()


class TestNumberPhaseTriple:
    def test_member_names_and_flags(self):
        assert set(gen.build_T()) == {"T0", "Tplus", "Tminus"}

    def test_number_operator_form(self):
        assert gen.build_T()["T0"] == -(oa.imag() * oa.deriv("eta"))

    def test_commutation_table(self):
        reports = gen.su11_reports()
        assert len(reports) == 3
        for rep in reports:
            assert rep.passed and rep.residual.is_zero

    def test_jacobi_exact(self):
        members = list(gen.build_T().values())
        for a, b, c in combinations(members, 3):
            total = (
                oa.commutator(a, oa.commutator(b, c))
                + oa.commutator(b, oa.commutator(c, a))
                + oa.commutator(c, oa.commutator(a, b))
            )
            assert total.is_zero


class TestWeylPairs:
    def test_member_names(self):
        assert set(gen.build_AB()) == {"Aplus", "Aminus", "Bplus", "Bminus"}

    def test_commutation_table(self):
        reports = gen.weyl_reports()
        assert len(reports) == 6
        for rep in reports:
            assert rep.passed, rep.name

    def test_pairs_swap_under_angle_exchange(self):
        members = gen.build_AB()
        assert oa.swap_alpha_beta(members["Aplus"]) == members["Bplus"]
        assert oa.swap_alpha_beta(members["Aminus"]) == members["Bminus"]

    def test_jacobi_exact(self):
        members = list(gen.build_AB().values())
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


def _hand_sides():
    """Each report text's two sides, written out as operator arithmetic: the oracle the texts must read to."""
    t, g, c = gen.build_T(), gen.build_AB(), gen.casimir()[0]
    comm, one, zero = oa.commutator, oa.identity(), oa.zero()
    return {
        "[T0,T+] == T+": (comm(t["T0"], t["Tplus"]), t["Tplus"]),
        "[T0,T-] == -T-": (comm(t["T0"], t["Tminus"]), -t["Tminus"]),
        "[T+,T-] == -2*T0": (comm(t["Tplus"], t["Tminus"]), -2 * t["T0"]),
        "[A-,A+] == 1": (comm(g["Aminus"], g["Aplus"]), one),
        "[B-,B+] == 1": (comm(g["Bminus"], g["Bplus"]), one),
        "[A+,B+] == 0": (comm(g["Aplus"], g["Bplus"]), zero),
        "[A+,B-] == 0": (comm(g["Aplus"], g["Bminus"]), zero),
        "[A-,B+] == 0": (comm(g["Aminus"], g["Bplus"]), zero),
        "[A-,B-] == 0": (comm(g["Aminus"], g["Bminus"]), zero),
        "[C,T0] == 0": (comm(c, t["T0"]), zero),
        "[C,T+] == 0": (comm(c, t["Tplus"]), zero),
        "[C,T-] == 0": (comm(c, t["Tminus"]), zero),
    }


class TestIdentityTexts:
    def test_report_texts_read_to_their_hand_sides(self):
        t = gen.build_T()
        reports = gen.su11_reports() + gen.weyl_reports() + gen.casimir_reports()[1:]
        assert [(rep.name, rep.lhs, rep.rhs) for rep in reports] == [
            (text, *sides) for text, sides in _hand_sides().items()]
        assert gen.casimir()[0] == -(t["Tplus"] * t["Tminus"]) + t["T0"] * t["T0"] - t["T0"]

    def test_bilinear_names_read_back_to_their_values(self):
        g = gen.build_AB()
        named = {"A+": g["Aplus"], "A-": g["Aminus"], "B+": g["Bplus"], "B-": g["Bminus"]}
        for name, op in gen.sp4_bilinears().items():
            assert gen._Reader(name).side("") == op, name
            if name.startswith("{"):  # {x,y}/2
                x, y = named[name[1:3]], named[name[4:6]]
                assert op == Fraction(1, 2) * (x * y + y * x), name
            else:
                assert op == named[name[:2]] * named[name[2:]], name

    def test_false_identity_fails_with_its_residual(self):
        report = gen._identity("[T+,T-] == 2*T0")
        assert not report.passed
        assert not report.residual.is_zero
        assert report.residual == -4 * gen.build_T()["T0"]

    def test_each_identity_is_read_once(self):
        first, second = gen.su11_reports(), gen.su11_reports()
        assert first is not second
        assert all(a is b for a, b in zip(first, second))
        assert first[0] is gen._identity("[T0,T+] == T+")

    # a number after a factor needs "*", since names end in a sign: "A+1" is no product
    @pytest.mark.parametrize("text,position", [
        ("A+1", 2), ("[A-,A+] == A+1", 13), ("T0 2", 3), ("[T0,X+] == 0", 4), ("[T0,T+] == t+", 11),
        ("Tplus", 0), ("{A+,A-}/0", 8), ("T0^0", 3), ("(T0", 3), ("[T0 T+] == 0", 6), ("T0 == T0 == T0", 9),
    ], ids=["number-after-name", "number-after-name-rhs", "number-beside-factor", "misspelt-name",
            "lowercase-name", "long-name", "zero-divisor", "zero-power", "open-parenthesis", "missing-comma",
            "two-equals"])
    def test_bad_text_refused_at_its_position(self, text, position):
        with pytest.raises(opdsl.OperatorSyntaxError) as err:
            gen._identity(text) if "==" in text else gen._Reader(text).side("")
        assert err.value.position == position

    def test_a_number_before_or_after_star_is_a_factor(self):
        t0 = gen.build_T()["T0"]
        assert gen._Reader("A+*1").side("") == gen.build_AB()["Aplus"]
        assert gen._Reader("2T0").side("") == gen._Reader("2*T0").side("") == 2 * t0
        assert gen._Reader("(T0 - 1)^2").side("") == t0 * t0 - 2 * t0 + 1

    @pytest.mark.parametrize("text", [
        "[{A+,A-}/4, A+A+/2] == A+A+/2",
        "[A+A+/2, A-A-/2] == -2*{A+,A-}/4",
        "-(A+A+/2)(A-A-/2) + {A+,A-}/4*({A+,A-}/4 - 1) == -3/16",
        "[A+A+, B-B-] == 0",
    ], ids=["raise", "lower", "a-mode-casimir", "modes-commute"])
    def test_a_mode_su11_rows_pass_as_text(self, text):
        assert gen._identity(text).passed


class TestClosure:
    @pytest.mark.parametrize("which,dim", [("su11", 3), ("weyl", 5), ("sp4", 10)])
    def test_dimensions(self, which, dim):
        report = gen.closure_report(which)
        assert report.closed
        assert report.dimension == dim == gen.ALGEBRAS[which].dimension

    def test_bilinears_are_ten(self):
        assert len(gen.sp4_bilinears()) == 10

    def test_unknown_family_rejected(self):
        # a list is unhashable: it must meet the same ValueError, not the dict lookup's TypeError
        for which in ("su2", None, 3, [], ["su11"]):
            with pytest.raises(ValueError, match="^which must be one of 'su11', 'weyl', 'sp4', got "):
                gen.closure_report(which)


class TestStep:
    # the windings (ke, ka, kb) of every sp4 bilinear give (ke + ka, ke + kb)
    SP4_STEPS = {
        "A+A+": (2, 0), "A-A-": (-2, 0), "B+B+": (0, 2), "B-B-": (0, -2),
        "{A+,A-}/2": (0, 0), "{B+,B-}/2": (0, 0),
        "A+B+": (1, 1), "A+B-": (1, -1), "A-B+": (-1, 1), "A-B-": (-1, -1),
    }
    # the independent oracle: (dmu, dnu) on the weyl labels, by hand
    LADDER_STEPS = {"T+": (1, 1), "T-": (-1, -1), "A+": (1, 0), "A-": (-1, 0), "B+": (0, 1), "B-": (0, -1)}

    def test_sp4_bilinear_windings(self):
        assert {name: gen.step(op) for name, op in gen.sp4_bilinears().items()} == self.SP4_STEPS

    def test_ladders_match_the_hand_table(self):
        assert {name: gen.step(lad.operator()) for name, lad in gen.LADDERS.items()} == self.LADDER_STEPS

    # a box of unfolded weyl labels, mu > nu included, which no QuantumState reaches
    BOX = [(mu, nu) for mu in range(8) for nu in range(8)]

    def test_move_targets_are_the_labels_plus_the_step(self):
        for name, lad in gen.LADDERS.items():
            dmu, dnu = gen.step(lad.operator())
            for mu, nu in self.BOX:
                sign, _, target, _ = gen.ladder_move(name, (mu, nu))
                assert (sign, target) == (lad.sign, (mu + dmu, nu + dnu)), (name, mu, nu)

    def test_move_charge_ratio_is_shifted_charge(self):
        # factorizations.shifted_charge is the independent route to n'/n: its label is t = (mu + nu + 1)/2 for
        # T+- and mu + nu + 1 for the Weyl pairs, and it refuses a label below 1, as at T's (0, 0)
        for name, (dmu, dnu) in self.LADDER_STEPS.items():
            for mu, nu in self.BOX:
                label = Fraction(mu + nu + 1, 2 if name[0] == "T" else 1)
                if label >= 1:
                    ratio = fz.shifted_charge(1, label, 1 if dmu + dnu > 0 else -1)
                    assert gen.ladder_move(name, (mu, nu))[3] == ratio, (name, mu, nu)

    def test_move_radicands_at_unfolded_labels(self):
        # n'/n times x + 1 for each raised label x and x for each lowered one, at mu > nu too
        assert gen.ladder_move("A+", (3, 1)) == (1, Fraction(6, 5) * 4, (4, 1), Fraction(6, 5))
        assert gen.ladder_move("B-", (3, 1)) == (-1, Fraction(4, 5), (3, 0), Fraction(4, 5))
        assert gen.ladder_move("T+", (3, 1)) == (-1, Fraction(7, 5) * 4 * 2, (4, 2), Fraction(7, 5))
        assert gen.ladder_move("T-", (3, 1)) == (-1, Fraction(3, 5) * 3, (2, 0), Fraction(3, 5))

    @pytest.mark.parametrize("name,munu,message", [
        ("T+", (-1, 2), "mu must be a nonnegative integer, got -1"),
        ("T-", (2, -1), "nu must be a nonnegative integer, got -1"),
        ("B+", (1.5, 2), "mu must be a nonnegative integer, got 1.5"),
        ("A-", (0, Fraction(5, 2)), "nu must be a nonnegative integer, got Fraction(5, 2)"),
        ("A+", (2,), "weyl labels must be a pair (mu, nu), got (2,)"),
        ("B-", (1, 2, 3), "weyl labels must be a pair (mu, nu), got (1, 2, 3)"),
        ("T+", [1, 2], "weyl labels must be a pair (mu, nu), got [1, 2]"),
    ])
    def test_move_refuses_labels_that_are_not_two_nonnegative_integers(self, name, munu, message):
        # a negative label read a radicand of 0 and a target off the lattice, a float label raised from
        # Fraction and a short pair an IndexError; a target with mu' > nu' stays a move (the radicands above)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gen.ladder_move(name, munu)

    def test_mixed_windings_refused_by_step_and_act(self):
        from ladder_forge import coulomb

        mixed = oa.phase("alpha", 1) + oa.phase("beta", 1)
        with pytest.raises(ValueError, match="^operator mixes phase windings$"):
            gen.step(mixed)
        with pytest.raises(ValueError, match="^operator mixes phase windings$"):
            coulomb.act(mixed, coulomb.state_munu(0, 1), [1.0])


def _random_coulomb_labels(rng):
    """A coupling q < 0 and half-integer labels 0 <= m <= l, as the F maps take them."""
    twice_l = rng.randint(0, 16)
    q = -Fraction(rng.randint(1, 30), rng.randint(1, 7))
    return q, Fraction(twice_l, 2), Fraction(rng.randint(0, twice_l), 2)


def _pulled_back(expr):
    """``expr`` in the type C coordinate x, rewritten in y = 2 sqrt(r): x**n -> 2**n r**(n/2), d/dx -> sqrt(r) d/dr."""
    out = oa.zero()
    for (mono, sp, up), (re, im) in expr.terms():
        assert mono.r2 % 2 == 0 and mono.dr <= 1 and (sp, up, im) == (0, 0, 0)
        assert not any(mono[1:4]) and not any(mono[5:])
        n = mono.r2 // 2
        out += re * Fraction(2) ** n * oa.r_half_power(n) * (oa.sqrt_r() * oa.deriv("r")) ** mono.dr
    return out


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

    def test_tilde_is_the_type_b_ladder_of_f_to_b(self):
        # tilde at (l, m) is the f_to_b target's H+ at mbar + cbar + 1/2 and its H- at mbar + cbar - 1/2,
        # each label read off the map's quantum_map, at s = scale_s
        rng = random.Random(20261019)
        for _ in range(100):
            q, l, m = _random_coulomb_labels(rng)
            result = fz.f_to_b(q, l, m)
            mbar = result.quantum_map["mbar+cbar"]
            plus, minus = gen.transformed_ladders("tilde", l, m)
            assert plus.substitute_s(result.scale_s) == fz.ladder(result.target, mbar + HALF)[0]
            assert minus.substitute_s(result.scale_s) == fz.ladder(result.target, mbar - HALF)[1]

    @pytest.mark.parametrize("kind,eps", [("check1", 1), ("check2", -1)], ids=["check1-eps+1", "check2-eps-1"])
    def test_check_is_the_type_c_ladder_of_f_to_c(self, kind, eps):
        # check1 (eps = +1) and check2 (eps = -1) at (l, m) are the pulled-back TypeC(-scale_s, 0) H+ at
        # mhat + chat - 1/2 and its H- at mhat + chat + 1/2, each label read off the map's quantum_map
        rng = random.Random(20261020)
        for _ in range(60):
            q, l, m = _random_coulomb_labels(rng)
            result = fz.f_to_c(q, l, m, eps)
            assert result.target == fz.TypeC(-result.scale_s, 0)
            mhat = result.quantum_map["mhat+chat"]
            plus, minus = gen.transformed_ladders(kind, l, m)
            assert plus.substitute_s(result.scale_s) == _pulled_back(fz.ladder(result.target, mhat - HALF)[0])
            assert minus.substitute_s(result.scale_s) == _pulled_back(fz.ladder(result.target, mhat + HALF)[1])

    def test_check1_plus_is_not_the_type_c_ladder_one_label_up(self):
        # negative control: the plus member one family label too high leaves a residual
        rng = random.Random(20261021)
        for _ in range(20):
            q, l, m = _random_coulomb_labels(rng)
            result = fz.f_to_c(q, l, m, 1)
            plus = gen.transformed_ladders("check1", l, m)[0].substitute_s(result.scale_s)
            residual = plus - _pulled_back(fz.ladder(result.target, 2 * m + 1)[0])
            assert not residual.is_zero
            assert residual == -Fraction(1, 2) * oa.r_half_power(-1)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            gen.transformed_ladders("hat", 0, 0)
        with pytest.raises(ValueError, match=r"^unknown operator 'T0'$"):
            gen.ladder_move("T0", (0, 1))

    @pytest.mark.parametrize("name", [["A+"], None, 3], ids=["list", "None", "int"])
    def test_non_string_operator_name_refused(self, name):
        # a name that is not a string is refused as an unknown one, before any lookup can raise TypeError
        from ladder_forge import coulomb

        state = coulomb.state_munu(1, 2)
        for call in (lambda: gen.ladder_move(name, state.munu), lambda: coulomb.action_report(state, name),
                     lambda: coulomb.shifted_state(state, name), lambda: coulomb.action_radicand(state, name)):
            with pytest.raises(ValueError, match=rf"^unknown operator {re.escape(repr(name))}$"):
                call()

    @pytest.mark.parametrize("entry", [
        lambda: gen.transformed_ladders("hat", 0, 0), lambda: gen._kind("hat"),
        lambda: gen._number_label("hat", 1), lambda: gen._generator("hat", 1),
    ], ids=["transformed_ladders", "_kind", "_number_label", "_generator"])
    def test_unknown_kind_refused(self, entry):
        # every ladder-kind entry point reads the one lookup, which refuses an unknown kind
        # (the private helpers once read it as check2)
        with pytest.raises(ValueError, match=r"^kind must be 'tilde', 'check1' or 'check2'$"):
            entry()

    def test_shifts_match_bound_state_label_moves(self):
        # A+- (check1) steps mu = l - m and B+- (check2) nu = l + m + 1, as ladder_move and the bound state
        # do; a number operator reads its minus member's label at (l, m) moved by ((dmu + dnu)/2, (dnu - dmu)/2),
        # the bound state's move
        from ladder_forge import coulomb

        def lm(mu, nu):
            return Fraction(mu + nu - 1, 2), Fraction(nu - mu - 1, 2)

        state = coulomb.state_munu(2, 5)
        for op in ("A+", "A-", "B+", "B-"):
            dmu, dnu = gen.step(gen.LADDERS[op].operator())
            target = coulomb.shifted_state(state, op)
            assert gen.ladder_move(op, state.munu)[2] == target.labels
            (l, m), (l2, m2) = lm(*state.munu), lm(*target.labels)
            assert (l2 - l, m2 - m) == (Fraction(dmu + dnu, 2), Fraction(dnu - dmu, 2))

    @pytest.mark.parametrize("ladder", ["tilde", "check1", "check2"])
    @pytest.mark.parametrize("direction", [1, -1])
    def test_generator_prefix_is_built_once(self, ladder, direction, monkeypatch):
        # a generator's constant left factor, u for the Weyl pairs and then its phase, is built once and keyed
        # by value, so a kind record patched onto another axis reads that axis's prefix (the number operator,
        # read before the patch, is cached)
        record = gen._kind(ladder)
        phase = oa.phase(record.axis, direction)
        prefix = gen._prefix(record.axis, record.carries_u, direction)
        assert prefix == (oa.product((oa.u_sym(), phase)) if record.carries_u else phase)
        assert prefix is gen._prefix(record.axis, record.carries_u, direction)
        member = gen._member(record, record.raises * direction, (gen._number_label(ladder, direction)[1], 1))
        assert gen._generator(ladder, direction) == prefix * member
        moved = gen._Kind(**{**vars(record), "axis": "beta" if record.axis == "alpha" else "alpha"})
        monkeypatch.setitem(gen._KINDS, ladder, moved)
        expected = oa.phase(moved.axis, direction) * member
        assert gen._generator(ladder, direction) == (oa.u_sym() * expected if record.carries_u else expected)

    @pytest.mark.parametrize("l,m", LADDER_LABELS)
    def test_generators_rebuilt_from_ladders(self, l, m):
        reports = gen.reconstruction_reports(l, m)
        assert len(reports) == 6
        for rep in reports:
            assert rep.passed, rep.name

    def test_reconstruction_is_the_same_at_every_label(self):
        # every row is label-free: 40 seeded rational (l, m) give the reports at (0, 0), equal in name, lhs, rhs,
        # residual and verdict
        rng = random.Random(20261022)
        at_origin = gen.reconstruction_reports(0, 0)
        for _ in range(40):
            l, m = (Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(2))
            assert gen.reconstruction_reports(l, m) == at_origin, (l, m)

    @pytest.mark.parametrize("ladder,rows", [
        ("tilde", ["casimir-normal-form"]), ("check1", ["[A+,B-] == 0", "[A-,B+] == 0", *B_ROWS]), ("check2", B_ROWS),
    ])
    @pytest.mark.parametrize("delta", [1, -1, HALF], ids=["plus-1", "minus-1", "plus-half"])
    def test_a_shifted_label_fails_the_algebra(self, ladder, rows, delta, fresh_generators):
        # each kind's label is read off its map once: shifted, it moves both members and every number operator
        # read off it, so T0 no longer reads the Casimir's normal form, A+- no longer commute with B-+ and B+- no
        # longer mirror A+-, and check2's own label fails its B rows
        record = gen._KINDS[ladder]
        shifted = gen._Kind(**{**vars(record), "label": lambda l, m: record.label(l, m) + delta})
        fresh_generators.setitem(gen._KINDS, ladder, shifted)
        assert _failed_rows() == rows

    @pytest.mark.parametrize("ladder,route,key,rows", [
        ("check2", partial(fz.f_to_c, -1, eps=1), "mhat+chat", B_ROWS),
        ("tilde", partial(fz.f_to_b, -1), "lbar+cbar", [*SU11_ROWS, *TILDE_ROWS[1:]]),
        ("check1", partial(fz.f_to_c, -1, eps=1), "lhat+chat", [*WEYL_ROWS, *B_ROWS]),
    ], ids=["check2-eps+1", "tilde-lbar", "check1-lhat"])
    def test_a_kind_read_off_the_wrong_map_fails_the_algebra(self, ladder, route, key, rows, fresh_generators):
        # check2 read off the eps = +1 map takes check1's label, so B+- are no longer the alpha <-> beta mirrors
        # of A+-; a kind read off its map's other quantum-map key, whose label moves with the other of l and m
        # or with both, breaks its own algebra
        record = gen._KINDS[ladder]
        misread = gen._read_kind(route, key, record.axis, record.carries_u, record.raises)
        fresh_generators.setitem(gen._KINDS, ladder, misread)
        assert _failed_rows() == rows

    @pytest.mark.parametrize("ladder,rows", [
        ("tilde", TILDE_ROWS), ("check1", [*WEYL_ROWS, *B_ROWS]), ("check2", B_ROWS),
    ])
    def test_a_flipped_raise_fails_the_algebra(self, ladder, rows, fresh_generators):
        # the sign of the member that raises picks each generator's member and places it either side of the
        # label: flipped, every generator takes the member of the other D sign, so T+- no longer close on T0
        # (nor commute with their Casimir), A+- are no Weyl pair, and B+- no longer mirror A+-
        record = gen._KINDS[ladder]
        fresh_generators.setitem(gen._KINDS, ladder, gen._Kind(**{**vars(record), "raises": -record.raises}))
        assert _failed_rows() == rows

    @pytest.mark.parametrize("wrong,rows", [
        (lambda step: lambda op: tuple(-d for d in step(op)),
         ["[T+,T-] == -2*T0", "[A+,B-] == 0", "[A-,B+] == 0", *TILDE_ROWS[1:],
          *(f"{name} from {lad.ladder} ladder" for name, lad in gen.LADDERS.items())]),
        (lambda step: lambda op: step(op)[::-1], ["[A+,B-] == 0", "[A-,B+] == 0"]),
    ], ids=["reversed", "swapped"])
    def test_a_wrong_step_fails_the_algebra(self, wrong, rows, fresh_generators):
        # each number operator reads its minus member's move off the generator's step, and the reconstruction
        # its direction: the reversed step moves every minus member the wrong way and flips every direction;
        # the step with mu and nu swapped keeps every direction and T's symmetric move, but moves the minus
        # members of A- and B- alike, so they stay mirrors of each other and stop commuting with A+ and B+
        fresh_generators.setattr(gen, "step", wrong(gen.step))
        assert _failed_rows() == rows

    @pytest.mark.parametrize("ladder,closed_form", [
        ("tilde", lambda mu, nu, direction: Fraction(mu + nu + 1, 2)),
        ("check1", lambda mu, nu, direction: nu - mu - direction),
        ("check2", lambda mu, nu, direction: mu - nu - direction),
    ], ids=["tilde", "check1", "check2"])
    @pytest.mark.parametrize("direction", [1, -1])
    def test_number_operators_read_their_values(self, ladder, closed_form, direction):
        # on the bound state (mu, nu) each number operator reads the module docstring's closed form, with
        # N = nu - mu: T0 = (mu + nu + 1)/2 for T+-, N -+ 1 for A+- and -N -+ 1 for B+-; the value one off must fail
        from ladder_forge import coulomb

        number = gen._number_label(ladder, direction)[0]
        rho = coulomb.gauss_laguerre(12)[0]
        for nu in range(8):
            for mu in range(nu + 1):
                state = coulomb.state_munu(mu, nu)
                lhs, profile = coulomb.act(number, state, rho), state.scaled_profile(rho)
                value = closed_form(mu, nu, direction)
                scale = max(1, abs(value)) * np.max(np.abs(profile))
                assert np.max(np.abs(lhs - float(value) * profile)) <= 1e-12 * scale, (mu, nu)
                assert np.max(np.abs(lhs - float(value + 1) * profile)) > 0.5 * np.max(np.abs(profile)), (mu, nu)

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

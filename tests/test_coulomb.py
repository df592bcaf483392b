"""Special functions, quadrature, bound states, and ladder-action numerics."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ladder_forge import coulomb as cl
from ladder_forge import factorizations as fz
from ladder_forge import generators as gen
from ladder_forge import opalgebra as oa

from test_opalgebra import _SAL, _SBE, _SETA, _SR, _SS, _sympy_apply

GENERATORS = {
    op[0] + ("+" if op.endswith("plus") else "-"): expr
    for family in (gen.build_T(), gen.build_AB())
    for op, expr in family.items() if op != "T0"
}


def _hand_profile(state, rho):
    """P, P' and P'' written out by hand, with scipy's Laguerre polynomials."""
    n, a, p = state.degree, state.alpha, float(state.power)
    lag = [(-1) ** k * scipy.special.eval_genlaguerre(n - k, a + k, rho) if n >= k
           else np.zeros_like(rho) for k in range(3)]
    N = math.sqrt(state.norm_sq)
    return (
        N * rho**p * lag[0],
        N * (p * rho ** (p - 1) * lag[0] + rho**p * lag[1]),
        N * (p * (p - 1) * rho ** (p - 2) * lag[0] + 2 * p * rho ** (p - 1) * lag[1]
             + rho**p * lag[2]),
    )


def _hand_action(state, operator, rho):
    """The six generator actions on the profile, written out by hand."""
    P, dP, _ = _hand_profile(state, rho)
    if operator == "T+":
        return -rho * dP + (rho - float(state.principal)) * P
    if operator == "T-":
        return rho * dP - float(state.principal) * P
    mu, nu = state.labels
    c = {"A+": nu - mu - 1, "A-": nu - mu + 1, "B+": mu - nu - 1, "B-": mu - nu + 1}[operator] / 2
    if operator.endswith("+"):
        return np.sqrt(rho) * (dP - P + c * P / rho)
    return np.sqrt(rho) * (-dP + c * P / rho)


def _hand_casimir(state, rho):
    """The Casimir on the profile, written out by hand."""
    P, dP, d2P = _hand_profile(state, rho)
    return rho**2 * (d2P - dP) + float(state.principal) * rho * P


class TestLaguerre:
    def test_degree_zero_is_one(self):
        x = np.linspace(0.0, 9.0, 7)
        assert np.all(cl.laguerre(0, 2.5, x) == 1.0)

    def test_textbook_convention(self):
        x = np.array([0.0, 1.0, 3.5])
        assert cl.laguerre(1, 1, x) == pytest.approx(2.0 - x)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            cl.laguerre(-1, 0, 1.0)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 12), st.floats(-0.9, 6.0), st.floats(0.0, 40.0))
    def test_matches_reference_implementation(self, n, alpha, x):
        mine = float(cl.laguerre(n, alpha, x))
        ref = float(scipy.special.eval_genlaguerre(n, alpha, x))
        assert mine == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_derivative_identity(self):
        x = np.linspace(0.1, 20.0, 25)
        for n, alpha, order in [(5, 1, 1), (7, 3, 2), (2, 0.5, 1)]:
            mine = cl.laguerre_deriv(n, alpha, x, order)
            ref = (-1) ** order * scipy.special.eval_genlaguerre(
                n - order, alpha + order, x)
            assert mine == pytest.approx(ref, rel=1e-11)

    def test_derivative_beyond_degree_vanishes(self):
        assert np.all(cl.laguerre_deriv(2, 1, np.array([1.0, 2.0]), 3) == 0.0)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_negative_degree_refused_at_every_order(self, order):
        # the beyond-degree zeros hold only for a degree laguerre itself takes
        with pytest.raises(ValueError, match="^degree must be nonnegative"):
            cl.laguerre_deriv(-1, 0, np.array([1.0, 2.0]), order)


class TestQuadrature:
    def test_matches_reference_nodes_and_weights(self):
        for order in (5, 17, 40):
            x, w = cl.gauss_laguerre(order)
            xr, wr = scipy.special.roots_laguerre(order)
            assert x == pytest.approx(xr, rel=1e-13, abs=1e-13)
            assert w == pytest.approx(wr, rel=1e-12)

    def test_moments_are_factorials(self):
        # exactness bound is degree 2*order - 1
        for order in (8, 40):
            x, w = cl.gauss_laguerre(order)
            for k in (0, 1, order, 2 * order - 1):
                assert float(w @ x**k) == pytest.approx(
                    math.factorial(k), rel=5e-13)

    def test_basic_shape(self):
        x, w = cl.gauss_laguerre(12)
        assert np.all(np.diff(x) > 0) and np.all(x > 0) and np.all(w > 0)
        assert float(w.sum()) == pytest.approx(1.0, rel=1e-14)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            cl.gauss_laguerre(0)

    def test_order_ceiling(self):
        # finite and warning-free up to the limit; one order more overflows
        x, w = cl.gauss_laguerre(cl.MAX_QUAD_ORDER)
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(w))
        with pytest.raises(ValueError, match="order 185 is past the float limit 184"):
            cl.gauss_laguerre(185)

    def test_cached_arrays_are_frozen(self):
        x, _ = cl.gauss_laguerre(12)
        with pytest.raises(ValueError):
            x[0] = 0.0

    def test_float_order_refused_after_an_equal_fraction(self):
        # 3.0 == Fraction(3): only a typed cache keeps the float from the Fraction's entry
        cl.gauss_laguerre(Fraction(3))
        with pytest.raises(TypeError, match="^order must be"):
            cl.gauss_laguerre(3.0)

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_orthogonality_norms(self, alpha):
        x, w = cl.gauss_laguerre(cl.DEFAULT_QUAD_ORDER)
        for n in range(9):
            for m in range(9):
                value = float(w @ (x**alpha
                                   * cl.laguerre(n, alpha, x)
                                   * cl.laguerre(m, alpha, x)))
                expected = math.gamma(n + alpha + 1) / math.factorial(n) if n == m else 0.0
                assert value == pytest.approx(expected, rel=1e-12, abs=1e-10)


class TestEnergy:
    def test_examples(self):
        assert cl.energy(1, 1) == Fraction(-1, 2)
        assert cl.energy(2, 2) == Fraction(-1, 2)

    def test_matches_factorization_rule(self):
        # 2 E(Z, n) equals the class I eigenvalue of the Coulomb-like family
        for Z in (1, 2, 6):
            for n in range(1, 9):
                lam = fz.eigenvalue(fz.TypeF(-Z), n - 1)
                assert 2 * cl.energy(Z, n) == lam

    def test_invalid_principal(self):
        with pytest.raises(ValueError):
            cl.energy(1, 0)


class TestStates:
    def test_ground_state_profile(self):
        state = cl.state_tm(1, 0)
        assert state.gamma == 2 and state.energy == Fraction(-1, 2)
        assert state.norm_sq == 1
        assert float(state.scaled_profile(2.5)) == pytest.approx(2.5)

    @pytest.mark.parametrize("Z", [1, 2])
    def test_ground_state_matches_textbook_radial(self, Z):
        state = cl.state_tm(1, 0, Z)
        r = np.linspace(0.05, 8.0, 40)
        textbook = 2.0 * Z**1.5 * r * np.exp(-Z * r)
        assert state.radial(r) == pytest.approx(textbook, rel=1e-13)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            cl.state_tm(0, 0)
        with pytest.raises(ValueError):
            cl.state_tm(2, 2)
        with pytest.raises(ValueError):
            cl.state_munu(3, 2)
        with pytest.raises(ValueError):
            cl.state_munu(-1, 0)
        with pytest.raises(ValueError):
            cl.make_state("su2", (1, 0))
        with pytest.raises(ValueError):
            cl.state_tm(1, 0, 0)

    def test_charge_range_of_the_float_layer(self):
        for Z in (Fraction(1, 2**64), 2**64):
            assert math.isfinite(cl.normalization_residual(cl.state_tm(3, 1, Z)))
        for Z in (Fraction(1, 2**65), 2**64 + 1, Fraction(10**400)):
            with pytest.raises(ValueError, match=r"charge must lie in \[2\*\*-64, 2\*\*64\]"):
                cl.state_tm(3, 1, Z)

    @pytest.mark.parametrize("sweep", [lambda Z: cl.sweep_su11(2, Z), lambda Z: cl.sweep_weyl(1, 2, Z=Z)],
                             ids=["su11", "weyl"])
    def test_sweep_refuses_a_charge_its_steps_would_drag_out_of_range(self, sweep):
        # a step drags Z by n'/n in [1/2, 2]: the sweep refuses Z up front, naming the charge given
        for Z in (2**64, Fraction(1, 2**64)):
            with pytest.raises(ValueError, match=rf"^a sweep's charge must lie in \[2\*\*-63, 2\*\*63\], .*, got {Z}$"):
                sweep(Z)
        for Z in (2**63, Fraction(1, 2**63)):
            assert all(rep.passed for rep in sweep(Z))

    def test_even_gap_state_is_representable(self):
        # single A/B steps leave the shared grid; labels stay valid
        state = cl.state_munu(1, 1)
        assert state.principal == Fraction(3, 2)
        assert state.gamma == Fraction(4, 3)
        assert cl.normalization_residual(state) <= 1e-12

    def test_exact_bookkeeping_match_between_labelings(self):
        for t in range(1, 13):
            for m in range(t):
                a = cl.state_tm(t, m)
                b = cl.state_munu(t - m - 1, t + m)
                for name in ("principal", "angular", "power", "alpha", "degree",
                             "windings", "gamma", "norm_sq"):
                    assert getattr(a, name) == getattr(b, name), (t, m, name)

    def test_profiles_match_between_labelings(self):
        nodes, _ = cl.gauss_laguerre(24)
        for t, m in [(1, 0), (2, 0), (3, 1), (5, 2)]:
            a = cl.state_tm(t, m).scaled_profile(nodes)
            b = cl.state_munu(t - m - 1, t + m).scaled_profile(nodes)
            assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("t", range(1, 9))
    def test_normalization(self, t):
        for m in range(t):
            assert cl.normalization_residual(cl.state_tm(t, m)) <= 1e-12

    def test_normalization_past_default_order(self):
        # the integrand has degree 2t, past order 40's exact degree 79 from t = 40
        for t in range(40, 61):
            for m in range(t):
                assert cl.normalization_residual(cl.state_tm(t, m)) <= 1e-12, (t, m)

    @pytest.mark.parametrize("t", [90, 100, 120])
    def test_normalization_at_large_labels(self, t):
        # norm_sq is below the smallest float here, and from t = 120 rho**p
        # alone overflows at the top nodes
        for m in (0, 1, t // 2, t - 2, t - 1):
            assert cl.normalization_residual(cl.state_tm(t, m)) <= 1e-12, (t, m)

    def test_normalization_weyl(self):
        for mu in range(6):
            for nu in range(mu, 8):
                assert cl.normalization_residual(cl.state_munu(mu, nu)) <= 1e-12


class TestActionCoefficients:
    def test_frozen_examples(self):
        assert cl.action_coefficient(cl.state_tm(1, 0), "T+") == -2.0
        assert cl.action_coefficient(cl.state_tm(2, 1), "T+") == pytest.approx(
            -math.sqrt(6), rel=1e-15)
        assert cl.action_coefficient(cl.state_munu(0, 1), "A+") == pytest.approx(
            math.sqrt(1.5), rel=1e-15)
        assert cl.action_coefficient(cl.state_munu(1, 2), "A+") == pytest.approx(
            math.sqrt(2.5), rel=1e-15)
        assert cl.action_coefficient(cl.state_munu(0, 1), "B+") == pytest.approx(
            -math.sqrt(3), rel=1e-15)

    def test_step_past_nu_equal_mu_folds_with_the_reflection_sign(self):
        # (mu + 1, mu) folds to (mu, mu + 1) and (mu, mu - 1) to (mu - 1, mu);
        # L^(-1)_n = -(rho/n) L^(1)_(n-1) flips the LADDERS sign
        state = cl.state_munu(2, 2)
        assert cl.action_radicand(state, "A+") == (-1, Fraction(18, 5))
        assert cl.action_radicand(state, "B-") == (1, Fraction(8, 5))
        assert cl.shifted_state(state, "A+").labels == (2, 3)
        assert cl.shifted_state(state, "B-").labels == (1, 2)
        assert cl.action_radicand(state, "A-")[0] == 1
        assert cl.action_radicand(state, "B+")[0] == -1

    def test_lowering_edge_is_exact_zero(self):
        assert cl.action_radicand(cl.state_tm(3, 2), "T-")[1] == 0
        assert cl.action_radicand(cl.state_munu(0, 4), "A-")[1] == 0

    def test_family_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cl.action_coefficient(cl.state_tm(2, 0), "A+")
        with pytest.raises(ValueError):
            cl.action_coefficient(cl.state_munu(0, 1), "T-")
        with pytest.raises(ValueError):
            cl.action_coefficient(cl.state_tm(2, 0), "Q+")


    def test_T_composes_from_A_then_B(self):
        # on the weyl labels T+- steps (mu, nu) by (+-1, +-1), which is A+-
        # followed by B+-; coefficient, target and dragged charge all agree
        for t in range(1, 13):
            for m in range(t):
                state = cl.state_tm(t, m, 3)
                weyl = cl.state_munu(t - m - 1, t + m, 3)
                for d in "+-":
                    sign, radicand = cl.action_radicand(state, "T" + d)
                    sign_a, rad_a = cl.action_radicand(weyl, "A" + d)
                    if rad_a == 0:
                        assert radicand == 0, (t, m, d)
                        continue
                    mid = cl.shifted_state(weyl, "A" + d)
                    sign_b, rad_b = cl.action_radicand(mid, "B" + d)
                    assert sign * radicand == sign_a * rad_a * sign_b * rad_b, (t, m, d)
                    target = cl.shifted_state(state, "T" + d)
                    end = cl.shifted_state(mid, "B" + d)
                    tt, tm = target.labels
                    assert end.labels == (tt - tm - 1, tt + tm), (t, m, d)
                    assert end.Z == target.Z, (t, m, d)


class TestActions:
    def test_su11_sweep(self):
        reports = cl.sweep_su11(6)
        assert len(reports) == 2 * sum(range(1, 7))
        for rep in reports:
            assert rep.passed, rep
            if not rep.annihilation:
                assert rep.coefficient_error <= 1e-10
                assert rep.profile_residual <= 1e-8
                assert rep.target == cl.shifted_state(
                    cl.state_tm(*rep.source), rep.operator).labels

    def test_weyl_sweep(self):
        reports = cl.sweep_weyl(5, 7)
        assert all(rep.passed for rep in reports)
        ops = {rep.operator for rep in reports}
        assert ops == {"A+", "A-", "B+", "B-"}

    def test_weyl_reports_pass_at_every_gap(self):
        # odd and even gaps nu - mu, the nu == mu edge included: report,
        # coefficient and shifted state name the same folded target
        for mu in range(16):
            for nu in range(mu, 16):
                state = cl.state_munu(mu, nu)
                for op in ("A+", "A-", "B+", "B-"):
                    rep = cl.action_report(state, op)
                    assert rep.passed, rep
                    if not rep.annihilation:
                        assert rep.expected == cl.action_coefficient(state, op), rep
                        assert rep.target == cl.shifted_state(state, op).labels
                        assert cl.charge_shift(state, op).target == rep.target

    def test_annihilating_steps_raise_before_building_a_state(self):
        states = [cl.state_tm(t, m) for t in range(1, 9) for m in range(t)]
        states += [cl.state_munu(mu, nu) for mu in range(16) for nu in range(mu, 16)]
        annihilating = 0
        for state in states:
            for op, lad in gen.LADDERS.items():
                if lad.kind != state.family or cl.action_radicand(state, op)[1]:
                    continue
                annihilating += 1
                message = re.escape(f"{op} annihilates {state.family} state {state.labels}")
                for call in (cl.shifted_state, cl.charge_shift):
                    with pytest.raises(ValueError, match=f"^{message}$"):
                        call(state, op)
        assert annihilating == 8 + 16 + 1  # T- at m = t - 1, A- at mu = 0, B- at (0, 0)

    def test_annihilation_norms(self):
        for m in range(6):
            rep = cl.action_report(cl.state_tm(m + 1, m), "T-")
            assert rep.annihilation and rep.target is None
            assert rep.measured <= 1e-10
        for nu in (1, 3, 5):
            rep = cl.action_report(cl.state_munu(0, nu), "A-")
            assert rep.annihilation and rep.measured <= 1e-10

    def test_raising_then_lowering_composes(self):
        state = cl.state_tm(3, 1)
        up = cl.shifted_state(state, "T+")
        product = (cl.action_coefficient(state, "T+")
                   * cl.action_coefficient(up, "T-"))
        t, m = 3, 1
        closed = math.sqrt((t + 1) * (t - m) * (t + m + 1) / t) * math.sqrt(
            t * (t + 1 + m) * (t - m) / (t + 1))
        assert product == pytest.approx(closed, rel=1e-14)
        nodes, w = cl.gauss_laguerre(cl.DEFAULT_QUAD_ORDER)
        stepped = cl.action_coefficient(state, "T+") * cl.act(GENERATORS["T-"], up, nodes)
        src = state.scaled_profile(nodes)
        measured = float(w @ (stepped * src)) / float(w @ src**2)
        assert measured == pytest.approx(product, abs=1e-10)


class TestDerivedActions:
    """``act`` derives every action from the symbolic generators; the hand
    formulas it replaced stay here as the reference."""

    SU11 = [cl.state_tm(t, m) for t in range(1, 13) for m in range(t)]
    # odd and even gaps nu - mu, the nu == mu edge included
    WEYL = [cl.state_munu(mu, nu) for mu in range(7) for nu in range(mu, 11)]

    NODES = cl.gauss_laguerre(cl.DEFAULT_QUAD_ORDER)[0]

    def _deviation(self, state, derived, hand):
        """max |derived - hand| relative to max |P| on the quadrature nodes."""
        return np.max(np.abs(derived - hand)) / np.max(np.abs(state.scaled_profile(self.NODES)))

    @pytest.mark.parametrize("operator", list(GENERATORS))
    def test_actions_match_hand_formulas(self, operator):
        for state in self.SU11 if operator[0] == "T" else self.WEYL:
            derived = cl.act(GENERATORS[operator], state, self.NODES)
            hand = _hand_action(state, operator, self.NODES)
            assert self._deviation(state, derived, hand) <= 1e-12, state

    def test_casimir_matches_hand_formula(self):
        op = gen.casimir()[0]
        for state in self.SU11 + self.WEYL:
            derived = cl.act(op, state, self.NODES)
            hand = _hand_casimir(state, self.NODES)
            assert self._deviation(state, derived, hand) <= 1e-10, state

    def test_windings(self):
        assert cl.state_tm(4, 1).windings == (4, 2, 5)
        assert cl.state_munu(2, 5).windings == (4, 2, 5)
        assert cl.state_munu(1, 1).windings == (Fraction(3, 2), 1, 1)

    def test_rho_form_rejects_what_leaves_the_state_class(self):
        state = cl.state_tm(3, 1)
        rho = np.array([0.5, 2.0])
        with pytest.raises(ValueError, match="gamma-degree"):
            cl.act(oa.s_sym(), state, rho)
        with pytest.raises(ValueError, match="non-real"):
            cl.act(oa.deriv("eta"), state, rho)
        with pytest.raises(ValueError, match="phase"):
            cl.act(oa.identity() + oa.phase("eta", 1), state, rho)


@st.composite
def _state_operator_and_rho(draw):
    """A state with t <= 8, or mu <= 5 and nu <= 9 (nu == mu included), at a
    small rational charge, one of its ladders or the Casimir, and a rho array
    that contains 0."""
    Z = draw(st.fractions(Fraction(1, 8), 8, max_denominator=12))
    if draw(st.booleans()):
        t = draw(st.integers(1, 8))
        state, names = cl.state_tm(t, draw(st.integers(0, t - 1)), Z), ["T+", "T-", "C"]
    else:
        mu = draw(st.integers(0, 5))
        state, names = cl.state_munu(mu, draw(st.integers(mu, 9)), Z), ["A+", "A-", "B+", "B-", "C"]
    name = draw(st.sampled_from(names))
    op = gen.casimir()[0] if name == "C" else GENERATORS[name]
    rest = draw(st.lists(st.floats(1e-6, 30.0), max_size=4))
    rho = np.array(draw(st.permutations([0.0, *rest])))
    return state, op, rho


class TestActionAtZero:
    @settings(max_examples=150, deadline=None)
    @given(_state_operator_and_rho())
    def test_finite_at_zero_and_continuous(self, case):
        state, op, rho = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = cl.act(op, state, rho)
        assert np.all(np.isfinite(out))
        # the entries at rho > 0 are computed exactly as without the zero
        assert np.array_equal(out[rho > 0], cl.act(op, state, rho[rho > 0]))
        near = cl.act(op, state, np.array([1e-9]))[0]
        assert abs(out[rho == 0][0] - near) <= 1e-4

    @settings(max_examples=100, deadline=None)
    @given(_state_operator_and_rho())
    def test_reports_end_in_a_verdict_at_any_charge(self, case):
        state = case[0]
        checks = [(cl.action_report, name) for name, lad in gen.LADDERS.items()
                  if lad.kind == state.family]
        checks += [(cl.casimir_residual,), (cl.schrodinger_residual,), (cl.normalization_residual,)]
        for check, *args in checks:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                verdict = check(state, *args)
            if isinstance(verdict, cl.ActionReport):
                verdict = (verdict.measured, verdict.coefficient_error, verdict.profile_residual)
            assert np.all(np.isfinite(verdict)), (state, check.__name__, *args)

    def test_identity_is_the_profile(self):
        rho = np.array([0.0, 1e-9, 0.3, 2.5, 17.0, 60.0])
        states = [cl.state_tm(t, m) for t in range(1, 9) for m in range(t)]
        states += [cl.state_munu(mu, nu) for mu in range(6) for nu in range(mu, 10)]
        for state in states:
            out = cl.act(oa.identity(), state, rho)
            assert out.tobytes() == state.scaled_profile(rho).tobytes(), state

    def test_reproductions(self):
        aplus = gen.build_AB()["Aplus"]
        out = cl.act(aplus, cl.state_munu(1, 2), [0.0, 0.5])
        assert out[0] == 0.0 and out[1] == cl.act(aplus, cl.state_munu(1, 2), [0.5])[0]
        ground = cl.state_tm(1, 0)
        assert ground.scaled_profile(0.0) == 0.0
        profile = ground.scaled_profile([0.0, 2.5])
        assert profile[0] == 0.0 and profile[1] == ground.scaled_profile(2.5)

    def test_infinite_at_zero_raises(self):
        from ladder_forge import opdsl

        op = opdsl.parse("s^-2*r^-2")
        with pytest.raises(ValueError, match="rho = 0"):
            cl.act(op, cl.state_munu(1, 1), [0.0, 1.0])
        assert np.isfinite(cl.act(op, cl.state_munu(1, 1), [0.5, 1.0])).all()

    @pytest.mark.parametrize("call,message", [
        (lambda rho: cl.act(gen.build_T()["Tplus"], cl.state_tm(2, 0), rho), "rho must be nonnegative, got -1.0"),
        (lambda rho: cl.act(oa.zero(), cl.state_tm(2, 0), rho), "rho must be nonnegative, got -1.0"),
        (lambda rho: cl.state_tm(2, 0).scaled_profile(rho), "rho must be nonnegative, got -1.0"),
        (lambda r: cl.state_tm(2, 0).radial(r), "r must be nonnegative, got -1.0"),
    ], ids=["act", "act-zero", "scaled-profile", "radial"])
    def test_negative_rho_refused(self, call, message):
        # a negative rho is outside the profiles' domain: a rho power of it is NaN;
        # the message names the least value, past a NaN and in any shape
        for rho in ([-1.0], -1.0, [0.0, 2.0, -0.5, -1.0], [[np.nan, 1.0], [-1.0, 0.0]]):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(rho)
        assert np.isfinite(call([0.0, 2.0])).all()

    @pytest.mark.parametrize("call,message", [
        (lambda rho: cl.act(gen.build_T()["Tplus"], cl.state_tm(2, 0), rho), "rho must be nonnegative, got nan"),
        (lambda rho: cl.state_tm(2, 0).scaled_profile(rho), "rho must be nonnegative, got nan"),
        (lambda r: cl.state_tm(2, 0).radial(r), "r must be nonnegative, got nan"),
    ], ids=["act", "scaled-profile", "radial"])
    def test_nan_rho_refused(self, call, message):
        # a NaN rho is no point of the profiles' domain: it is refused as one, not
        # reported as a value past the float range
        for rho in ([np.nan], np.nan, [0.0, np.nan, 2.0], [[1.0, 0.0], [np.nan, 3.0]]):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(rho)

    @pytest.mark.parametrize("call,rho", [
        (lambda rho: cl.act(gen.build_T()["Tplus"], cl.state_tm(2, 0), rho), 1e308),
        (lambda rho: cl.state_tm(2, 0).scaled_profile(rho), 1e200),
        (lambda r: cl.state_tm(2, 0).radial(r), 1e308),  # gamma = 1, so rho = r
    ], ids=["act", "scaled-profile", "radial"])
    def test_rho_past_the_float_range_refused(self, call, rho):
        # N rho**q times the Laguerre values passes the float range at a huge finite rho,
        # where it read -inf or NaN; the message names the first such rho, in any shape,
        # and no RuntimeWarning is raised on the way
        for rhos in ([rho], rho, [0.0, 2.0, rho, 10 * rho], [[1.0, rho], [10 * rho, 0.0]]):
            with pytest.raises(ValueError, match=f"leaves the float range at rho = {re.escape(str(rho))}$"):
                call(rhos)
        assert np.isfinite(call([0.0, 2.0, 100.0])).all()


class TestEigenequationResiduals:
    @pytest.mark.parametrize("t,m", [(1, 0), (3, 1)])
    def test_named_states(self, t, m):
        assert cl.schrodinger_residual(cl.state_tm(t, m)) <= 1e-8

    def test_all_small_states(self):
        for t in range(1, 7):
            for m in range(t):
                assert cl.schrodinger_residual(cl.state_tm(t, m)) <= 1e-8
        for mu in range(4):
            for nu in range(mu + 1, 8, 2):
                assert cl.schrodinger_residual(cl.state_munu(mu, nu)) <= 1e-8

    @pytest.mark.parametrize("Z", [1000, 10**5, 2**63, 2**64])
    def test_large_charge_residual_in_rho_units(self, Z):
        # the residual is measured in rho = gamma r units, so it does not grow as gamma**2
        state = cl.state_tm(3, 1, Z)
        assert cl.schrodinger_residual(state) <= 1e-8
        assert abs(cl.schrodinger_residual(state, 0.1) - 0.1) <= 1e-6

    def test_detuned_eigenvalue_is_detected(self):
        for t, m in [(1, 0), (4, 2)]:
            assert cl.schrodinger_residual(cl.state_tm(t, m), 0.1) >= 1e-2

    def test_casimir_eigenvalue(self):
        # the invariant reads off m(m+1); zero for the ground state
        assert cl.casimir_residual(cl.state_tm(1, 0)) <= 1e-8
        for t in range(1, 7):
            for m in range(t):
                assert cl.casimir_residual(cl.state_tm(t, m)) <= 1e-8
        for mu in range(4):
            for nu in range(mu + 1, 8, 2):
                assert cl.casimir_residual(cl.state_munu(mu, nu)) <= 1e-8


class TestChargeShift:
    def test_example_values(self):
        report = cl.charge_shift(cl.state_tm(2, 0, 6), "T+")
        assert report.charge_out == 9
        assert report.gamma_invariant and report.energy_invariant
        assert report.integer_charge
        assert cl.state_tm(3, 0, 9).energy == Fraction(-9, 2) == cl.state_tm(2, 0, 6).energy

    @pytest.mark.parametrize("state,op,dragged", [
        (cl.state_tm(1, 0, 2**64), "T+", "36893488147419103232"),
        (cl.state_munu(0, 1, Fraction(1, 2**64)), "B-", "1/36893488147419103232"),
    ], ids=["T+", "B-"])
    def test_dragged_charge_refused_before_the_action(self, state, op, dragged, monkeypatch):
        # the target is taken before act runs, and the message names the step, the state and Z n'/n
        monkeypatch.setattr(cl, "act", None)
        message = re.escape(f"{op} drags the charge of {state.family} state {state.labels} at Z = {state.Z} "
                            f"to {dragged}, outside [2**-64, 2**64]")
        for call in (cl.action_report, cl.shifted_state, cl.charge_shift):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call(state, op)

    def test_annihilation_at_the_charge_bound_ends_in_a_verdict(self):
        report = cl.action_report(cl.state_tm(1, 0, 2**64), "T-")
        assert report.annihilation and report.target is None and report.passed

    def test_half_step_keeps_scale(self):
        state = cl.state_munu(1, 2)
        target = cl.shifted_state(state, "A+")
        assert target.principal == state.principal + Fraction(1, 2)
        assert target.gamma == state.gamma
        assert not cl.charge_shift(state, "A+").integer_charge

    def test_matches_coupling_shift_rule(self):
        # dual route through the transform module's q' formula, q = -Z
        for t in range(1, 7):
            for m in range(t):
                state = cl.state_tm(t, m, 3)
                for op, d in (("T+", 1), ("T-", -1)):
                    if cl.action_radicand(state, op)[1] == 0:
                        continue
                    q_shift = fz.shifted_charge(-state.Z, t, d)
                    assert cl.shifted_state(state, op).Z == -q_shift
        for mu in range(4):
            for nu in range(mu + 1, 8, 2):
                state = cl.state_munu(mu, nu, 2)
                for op, d in (("A+", 1), ("A-", -1), ("B+", 1), ("B-", -1)):
                    if cl.action_radicand(state, op)[1] == 0:
                        continue
                    q_shift = fz.shifted_charge(-state.Z, mu + nu + 1, d)
                    assert cl.shifted_state(state, op).Z == -q_shift

    def test_every_sweep_row_preserves_energy_exactly(self):
        for rep in cl.sweep_su11(6) + cl.sweep_weyl():
            if rep.annihilation:
                continue
            state = cl.make_state(rep.family, rep.source)
            shift = cl.charge_shift(state, rep.operator)
            assert shift.gamma_invariant and shift.energy_invariant


# Independent route for the rho-form: apply each ladder, T0 and the Casimir
# with sympy's calculus to a state-like function whose profile F is rho**q
# times a polynomial, all symbolic, and compare with the form's sum.

_RHO, _GAMMA = sympy.symbols("rho gamma", positive=True)
_N, _MU, _NU, _Q = sympy.symbols("n mu nu q")
_F = sympy.Lambda(_RHO, _RHO**_Q * sum(a * _RHO**k for k, a in enumerate(sympy.symbols("a0:3"))))
_FORM_OPS = {**GENERATORS, "T0": gen.build_T()["T0"], "casimir": gen.casimir()[0]}


@pytest.mark.parametrize("name", list(_FORM_OPS))
def test_rho_form_matches_sympy_calculus(name):
    # op on exp(i(n eta + mu alpha + nu beta)) exp(-gamma r/2) F(gamma r), at
    # s = gamma/2 and r = rho/gamma, is op's phase times the state's times
    # exp(-rho/2) sum c n**de mu**da nu**db rho**(k/2) F^(j)(rho)
    op = _FORM_OPS[name]
    (ke, ka, kb), = {mono[1:4] for mono, *_ in op.atoms()}
    phase = sympy.exp(sympy.I * ((_N + ke) * _SETA + (_MU + ka) * _SAL + (_NU + kb) * _SBE))
    state = sympy.exp(sympy.I * (_N * _SETA + _MU * _SAL + _NU * _SBE)) * sympy.exp(-_GAMMA * _SR / 2)
    applied = _sympy_apply(op, state * _F(_GAMMA * _SR)).subs(_SS, _GAMMA / 2).subs(_SR, _RHO / _GAMMA)
    form = sum(sympy.Rational(Fraction(c)) * _N**de * _MU**da * _NU**db * _RHO ** sympy.Rational(k, 2)
               * sympy.diff(_F(_RHO), _RHO, j) for k, j, (de, da, db), c in cl._rho_form(op))
    defect = sympy.expand(applied / (phase * sympy.exp(-_RHO / 2))) - sympy.expand(form)
    assert sympy.simplify(sympy.powsimp(defect, force=True)) == 0

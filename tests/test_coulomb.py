"""Special functions, quadrature, bound states, and ladder-action numerics."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from ladder_forge import coulomb as cl
from ladder_forge import factorizations as fz
from ladder_forge import generators as gen
from ladder_forge import opalgebra as oa

GENERATORS = {
    op[0] + ("+" if op.endswith("plus") else "-"): expr
    for family in (gen.build_T(), gen.build_AB())
    for op, expr in family.members.items() if op != "T0"
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

    def test_cached_arrays_are_frozen(self):
        x, _ = cl.gauss_laguerre(12)
        with pytest.raises(ValueError):
            x[0] = 0.0

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
    """A state with t <= 8, or mu <= 5 and nu <= 9 (nu == mu included), one of
    its ladders or the Casimir, and a rho array that contains 0."""
    if draw(st.booleans()):
        t = draw(st.integers(1, 8))
        state, names = cl.state_tm(t, draw(st.integers(0, t - 1))), ["T+", "T-", "C"]
    else:
        mu = draw(st.integers(0, 5))
        state, names = cl.state_munu(mu, draw(st.integers(mu, 9))), ["A+", "A-", "B+", "B-", "C"]
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

    def test_reproductions(self):
        aplus = gen.build_AB().members["Aplus"]
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
                    q_shift = fz.shifted_charge(-state.Z, t, d, "su11")
                    assert cl.shifted_state(state, op).Z == -q_shift
        for mu in range(4):
            for nu in range(mu + 1, 8, 2):
                state = cl.state_munu(mu, nu, 2)
                for op, d in (("A+", 1), ("A-", -1), ("B+", 1), ("B-", -1)):
                    if cl.action_radicand(state, op)[1] == 0:
                        continue
                    q_shift = fz.shifted_charge(-state.Z, mu + nu + 1, d, "weyl")
                    assert cl.shifted_state(state, op).Z == -q_shift

    def test_every_sweep_row_preserves_energy_exactly(self):
        for rep in cl.sweep_su11(6) + cl.sweep_weyl():
            if rep.annihilation:
                continue
            state = cl.make_state(rep.family, rep.source)
            shift = cl.charge_shift(state, rep.operator)
            assert shift.gamma_invariant and shift.energy_invariant

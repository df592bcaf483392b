"""Every public entry point takes only exact numbers, and names what it rejects."""

from fractions import Fraction

import pytest

from ladder_forge import coulomb as cl
from ladder_forge import factorizations as fz
from ladder_forge import generators as gen
from ladder_forge import opalgebra as oa
from ladder_forge import opdsl

B = fz.TypeB(1, 0, 1)

# (entry point, the parameter it fills, whether that parameter is an integer)
ENTRY_POINTS = [
    (oa.GaussRational.of, "coefficient", False),
    (oa.scalar, "coefficient", False),
    (oa.r_power, "power", False),
    (lambda v: oa.s_sym().substitute_s(v), "value", False),
    (oa.s_sym, "power", True),
    (oa.r_half_power, "halves", True),
    (lambda v: oa.phase("alpha", v), "winding", True),
    (lambda v: oa.deriv("eta", v), "order", True),
    (lambda v: oa.r_power(1) ** v, "exponent", True),
    (lambda v: fz.TypeB(v, 0, 1), "a", False),
    (lambda v: fz.TypeB(1, v, 1), "c", False),
    (lambda v: fz.TypeB(1, 0, v), "d", False),
    (lambda v: fz.TypeC(v, 0), "b", False),
    (lambda v: fz.TypeC(-1, v), "c", False),
    (fz.TypeF, "q", False),
    (lambda v: fz.rkl(fz.TypeF(-1), v), "m", False),
    (lambda v: fz.ladder(fz.TypeC(-1, 0), v), "m", False),
    (lambda v: fz.factorization_residuals(B, v), "m", False),
    (lambda v: fz.eigenvalue(fz.TypeF(-1), v), "l", False),
    (lambda v: fz.f_to_b(v, 1, 0), "q", False),
    (lambda v: fz.f_to_b(-1, v, 0), "l", False),
    (lambda v: fz.f_to_b(-1, 1, v), "m", False),
    (lambda v: fz.f_to_b(-1, 1, 0, v), "a", False),
    (lambda v: fz.f_to_c(-1, v, 0, 1), "l", False),
    (lambda v: fz.f_to_c(-1, 1, 0, v), "eps", True),
    (lambda v: fz.b_to_c(B, v, 0, 1), "lbar", False),
    (lambda v: fz.b_to_c(B, 0, v, 1), "mbar", False),
    (lambda v: fz.b_to_c(B, 0, 0, v), "eps", True),
    (lambda v: fz.shifted_charge(v, 2, 1, "su11"), "q", False),
    (lambda v: fz.shifted_charge(-1, v, 1, "su11"), "label", False),
    (lambda v: fz.shifted_charge(-1, 2, v, "su11"), "direction", True),
    (lambda v: gen.transformed_ladders("tilde", v, 0), "l", False),
    (lambda v: gen.transformed_ladders("check1", 0, v), "m", False),
    (lambda v: gen.reconstruction_reports(v, 0), "l", False),
    (lambda v: gen.reconstruction_reports(0, v), "m", False),
    (lambda v: cl.energy(v, 1), "Z", False),
    (lambda v: cl.energy(1, v), "n", False),
    (lambda v: cl.QuantumState("su11", (3, 1), v), "Z", False),
    (lambda v: cl.make_state("su11", (v, 0)), "t", True),
    (lambda v: cl.make_state("weyl", (1, v), 2), "nu", True),
    (lambda v: cl.state_tm(v, 0), "t", True),
    (lambda v: cl.state_tm(3, v), "m", True),
    (lambda v: cl.state_tm(3, 1, v), "Z", False),
    (lambda v: cl.state_munu(v, 4), "mu", True),
    (lambda v: cl.state_munu(1, v), "nu", True),
    (lambda v: cl.state_munu(1, 2, v), "Z", False),
]
IDS = [f"{index}-{name}" for index, (_, name, _) in enumerate(ENTRY_POINTS)]


@pytest.mark.parametrize("call,name,integer", ENTRY_POINTS, ids=IDS)
def test_float_and_non_integer_rejected(call, name, integer):
    with pytest.raises(TypeError, match=f"^{name} must be"):
        call(2.5)
    with pytest.raises(TypeError, match=f"^{name} must be"):
        call(2.0)
    if integer:
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call(Fraction(5, 2))


@pytest.mark.parametrize("build", [
    lambda: oa.deriv("r", Fraction(2)),
    lambda: oa.phase("beta", Fraction(-3)),
    lambda: oa.s_sym(Fraction(4, 2)) * oa.r_half_power(Fraction(-3)),
    lambda: oa.r_power(Fraction(3, 2)) * oa.u_sym() ** -3,
    lambda: (oa.imag() + Fraction(1, 3)) ** Fraction(-2),
    lambda: oa.phase("eta", 0) + oa.deriv("alpha", 0),
])
def test_integral_fractions_build_round_trippable_operators(build):
    expr = build()
    assert opdsl.parse(opdsl.render(expr)) == expr

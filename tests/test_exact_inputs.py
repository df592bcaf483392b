"""Every public entry point takes only exact numbers, and names what it rejects."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladder_forge import coulomb as cl
from ladder_forge import factorizations as fz
from ladder_forge import generators as gen
from ladder_forge import opalgebra as oa
from ladder_forge import opdsl

B = fz.TypeB(1, 0, 1)
ONE = (oa.Mono(0, 0, 0, 0, 0, 0, 0, 0), 0, 0)

# (entry point, the parameter it fills, whether that parameter is an integer)
ENTRY_POINTS = [
    (lambda v: oa.OperatorExpr({ONE: (v, 0)}), "coefficient", False),
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
    (lambda v: fz.shifted_charge(v, 2, 1), "q", False),
    (lambda v: fz.shifted_charge(-1, v, 1), "label", False),
    (lambda v: fz.shifted_charge(-1, 2, v), "direction", True),
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
    # ids are numbered by position, so new rows go last
    (lambda v: oa.OperatorExpr({ONE: (0, v)}), "coefficient", False),
    (lambda v: oa.commutator(v, oa.deriv("r")), "coefficient", False),
    (lambda v: oa.OperatorExpr({(ONE[0], v, 0): 1}), "s_power", True),
    (lambda v: oa.OperatorExpr({(ONE[0]._replace(dr=v), 0, 0): 1}), "dr", True),
    (cl.gauss_laguerre, "order", True),
    (cl.sweep_su11, "t_max", True),
    (lambda v: cl.sweep_weyl(v, 2), "mu_max", True),
    (lambda v: cl.sweep_weyl(1, v), "nu_max", True),
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


@pytest.mark.parametrize("apply,message", [
    (lambda op, v: op + v, "unsupported operand"), (lambda op, v: v - op, "unsupported operand"),
    (lambda op, v: v * op, "unsupported operand"), (lambda op, v: op * v, "unsupported operand"),
    (lambda op, v: oa.linear_sum(((op, 1), (op, v))), "weight must be an exact rational"),
], ids=["op+v", "v-op", "v*op", "op*v", "linear_sum"])
def test_float_operand_rejected(apply, message):
    # a number is a linear_sum weight: the operators refuse a float before it
    # gets there, and linear_sum names a float weight
    with pytest.raises(TypeError, match=f"^{message}"):
        apply(oa.deriv("r"), 1.5)


# an exact value outside its domain is refused with a message naming it
@pytest.mark.parametrize("call,error,message", [
    (lambda: oa.OperatorExpr({(ONE[0], 0, 2): 1}), ValueError, "u parity must be 0 or 1"),
    (lambda: setattr(oa.identity(), "_den", 2), AttributeError, "OperatorExpr is immutable"),
    (lambda: oa.r_power(Fraction(1, 3)), ValueError, "only half-integer powers of r"),
    (lambda: oa.phase("x", 1), ValueError, "unknown phase axis 'x'"),
    (lambda: oa.deriv("x"), ValueError, "unknown derivative axis 'x'"),
    (lambda: oa.deriv("r", -1), ValueError, "derivative order must be nonnegative"),
    (lambda: cl.laguerre_deriv(2, 0, 1.0, order=-1), ValueError, "derivative order must be nonnegative"),
    (lambda: fz.rkl(object(), 0), TypeError, "unknown family parameters"),
    (lambda: fz.b_to_c(fz.TypeC(-1, 0), 0, 0, 1), TypeError, "b_to_c expects type B parameters"),
    (lambda: gen.ladder_shift("hat", 1), ValueError, "kind must be 'tilde', 'check1' or 'check2'"),
    (lambda: fz.ladder(fz.TypeF(-1), 0), ValueError, "type F requires m != 0"),
    (lambda: fz.factorization_residuals(fz.TypeF(-1), 0), ValueError, "type F requires m != 0"),
    (lambda: fz.ladder(object(), 0), TypeError, "unknown family parameters"),
    (lambda: fz.factorization_residuals(object(), 0), TypeError, "unknown family parameters"),
    (lambda: oa.OperatorExpr({(ONE[0]._replace(dr=-1), 0, 0): 1}), ValueError, "derivative order must be nonnegative"),
    (lambda: oa.OperatorExpr({((1, 2), 0, 0): 1}), TypeError, "mono must be a tuple of the 8 integers"),
    (lambda: oa.OperatorExpr({(ONE[0], 0): 1}), TypeError, "atom key must be a"),
], ids=["u-parity", "setattr", "r-third", "phase-axis", "deriv-axis", "deriv-order", "laguerre-order",
        "rkl-family", "b-to-c-family", "shift-kind", "ladder-f-pole", "residuals-f-pole",
        "ladder-family", "residuals-family", "atom-negative-order", "atom-short-mono", "atom-pair-key"])
def test_out_of_domain_value_rejected(call, error, message):
    with pytest.raises(error, match=f"^{message}"):
        call()


# a well-formed key's 10 fields (8 mono, s power, u parity), one of which may be
# replaced by a value that is out of place in some fields and fine in others
_FIELDS = st.tuples(*[st.integers(-3, 3)] * 4, *[st.integers(0, 3)] * 4, st.integers(-3, 3), st.integers(0, 1))
_ODD = st.sampled_from([-1, 2, Fraction(4, 2), Fraction(1, 2), 1.0])


@settings(max_examples=300, deadline=None)
@given(_FIELDS, st.integers(0, 12), _ODD)
def test_atom_key_refused_or_round_trips(fields, where, odd):
    # where < 10 replaces that field, 10 keeps the key, 11 drops the last mono
    # field and 12 leaves the u parity out; a key the constructor takes is one
    # parse(render(.)) gives back, any other ends in a TypeError or ValueError
    fields = [*fields]
    if where < 10:
        fields[where] = odd
    mono = tuple(fields[:7] if where == 11 else fields[:8])
    key = (mono, fields[8]) if where == 12 else (mono, fields[8], fields[9])
    try:
        expr = oa.OperatorExpr({key: 1})
    except (TypeError, ValueError):
        return
    assert opdsl.parse(opdsl.render(expr)) == expr
    assert oa.OperatorExpr(dict(expr.terms())) == expr


@pytest.mark.parametrize("value", [(1,), (1, 2, 3), (), [1, 2]])
def test_malformed_coefficient_pair_rejected(value):
    with pytest.raises(TypeError, match="^coefficient must be"):
        oa.OperatorExpr({ONE: value})


def test_terms_read_out_fraction_pairs():
    expr = opdsl.parse("(1/2 - 3*i)*s*r*d/dr + 5*u*exp(i*eta)")
    for _, pair in expr.terms():
        assert len(pair) == 2 and all(type(part) is Fraction for part in pair)


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

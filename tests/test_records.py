"""The package's frozen records behave as frozen dataclasses do.

Every record below is built, compared, hashed, printed and read the way a
``@dataclass(frozen=True)`` with the same fields is, so report rows, golden
reprs and cache keys do not depend on how the records are declared.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from ladder_forge import coulomb as cl, factorizations as fz, generators as gen, opalgebra as oa, opdsl

LHS, RHS = opdsl.parse("d/dr*r"), opdsl.parse("r*d/dr + 1")

# class, its fields in order with values already in normal form, the defaults
# left out of a short construction, and attributes held but never compared
RECORDS = {
    "ClosureReport": (oa.ClosureReport, dict(dimension=3, closed=True, max_dim=7, commutators_tested=3), {}, ()),
    "AlgebraReport": (gen.AlgebraReport, dict(name="[d/dr, r] == 1", lhs=LHS, rhs=RHS, residual=LHS - RHS,
                                             passed=True), {}, ()),
    "TypeB": (fz.TypeB, dict(a=Fraction(1), c=Fraction(0), d=Fraction(2)), {}, ()),
    "TypeC": (fz.TypeC, dict(b=Fraction(-1), c=Fraction(1, 2)), {}, ()),
    "TypeF": (fz.TypeF, dict(q=Fraction(-3, 2)), {}, ()),
    "TransformResult": (fz.TransformResult, dict(source=fz.TypeF(-1), target=fz.TypeB(1, 0, 1),
                                                 quantum_map={"mbar+cbar": Fraction(1, 2)}, epsilon=-1,
                                                 scale_s=Fraction(1)),
                        dict(epsilon=None, scale_s=Fraction(0)), ()),
    "QuantumState": (cl.QuantumState, dict(family="su11", labels=(3, 1), Z=Fraction(3, 2)),
                     dict(Z=Fraction(1)), ("munu",)),
    "ActionReport": (cl.ActionReport, dict(operator="T+", family="su11", source=(2, 1), target=(3, 1),
                                           expected=1.5, measured=1.5, coefficient_error=0.0,
                                           profile_residual=1e-12, annihilation=False, passed=True), {}, ()),
    "ChargeShiftReport": (cl.ChargeShiftReport, dict(operator="T+", source=(2, 1), target=(3, 1),
                                                     charge_in=Fraction(1), charge_out=Fraction(3, 2),
                                                     gamma_invariant=True, energy_invariant=False,
                                                     integer_charge=False), {}, ()),
    "Token": (opdsl.Token, dict(kind="symbol", lexeme="r", pos=0), {}, ()),
    "Algebra": (gen.Algebra, dict(generators=gen.build_T, reports=gen.su11_reports, dimension=3), {}, ()),
    "_Kind": (gen._Kind, {key: getattr(gen._KINDS["check1"], key) for key in (
        "d", "k_unit", "k_s", "labels", "axis", "carries_u", "raises")}, {}, ()),
    "_Affine": (gen._Affine, dict(coefficients=(0, 2), constant=1), {}, ()),
    "Ladder": (gen.Ladder, dict(kind="weyl", member="Aplus", ladder="check1", sign=1), {}, ()),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    cls, fields, defaults, hidden = RECORDS[name]
    record = cls(*fields.values())
    assert record == cls(**fields)
    assert all(getattr(record, key) == value for key, value in fields.items())
    short = cls(**{key: value for key, value in fields.items() if key not in defaults})
    assert {key: (getattr(short, key), type(getattr(short, key))) for key in defaults} == {
        key: (value, type(value)) for key, value in defaults.items()}

    assert repr(record) == f"{name}({', '.join(f'{key}={value!r}' for key, value in fields.items())})"

    twin = cls(*fields.values())
    for key in hidden:  # held for the checks, never compared, hashed or printed
        object.__setattr__(twin, key, ("not", key))
    assert twin == record and not twin != record and repr(twin) == repr(record)
    if isinstance(fields.get("quantum_map"), dict):
        with pytest.raises(TypeError):  # unhashable, as its dict field is
            hash(record)
    else:
        assert hash(twin) == hash(record)

    assert record != SimpleNamespace(**fields) and SimpleNamespace(**fields) != record
    assert record != tuple(fields.values()) and not isinstance(record, tuple)

    first = next(iter(fields))
    for key in (first, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, key, fields[first])
    with pytest.raises(AttributeError):
        delattr(record, first)
    assert record == cls(**fields)

    assert set(vars(record)) == set(fields) | set(hidden)
    if name in ("TypeB", "TypeC", "TypeF"):  # cli._transform_rows and perfbench's worker read both
        assert vars(record) == fields
        assert record.family == name[-1] and "family" not in vars(record)

"""Acceptance gate: one test per shipped guarantee, at the pinned tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion; each test also prints an explicit verdict line (visible with -s).
"""

import math
import random
from fractions import Fraction

from ladder_forge import coulomb as cl
from ladder_forge import factorizations as fz
from ladder_forge import generators as gen
from ladder_forge import opalgebra as oa
from ladder_forge import opdsl

from _gen import random_family, random_operator

COEFF_TOL = 1e-10
POINTWISE_TOL = 1e-8
NORM_TOL = 1e-12
ANNIHILATION_TOL = 1e-10
CONTROL_FLOOR = 1e-2


def _verdict(num: int, name: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {name}")
    assert ok, f"criterion {num:02d} failed: {name}"


def test_c01_su11_relations_exact():
    reports = gen.su11_reports()
    ok = len(reports) == 3 and all(r.passed and r.residual.is_zero for r in reports)
    _verdict(1, "su(1,1) commutation relations, zero symbolic residual", ok)


def test_c02_casimir_identity_exact():
    op, report = gen.casimir()
    rhs = (
        oa.r_power(2) * oa.deriv("r", 2)
        - 2 * oa.imag() * oa.s_sym() * oa.r_power(1) * oa.deriv("eta")
        - oa.s_sym(2) * oa.r_power(2)
    )
    ok = report.passed and (op - rhs).is_zero
    _verdict(2, "Casimir normal form, zero symbolic residual", ok)


def test_c03_weyl_relations_exact():
    reports = gen.weyl_reports()
    ok = len(reports) == 6 and all(r.passed for r in reports)
    _verdict(3, "Heisenberg-Weyl pair relations, zero symbolic residual", ok)


def test_c04_closure_dimensions():
    ok = True
    for which, dim in (("su11", 3), ("weyl", 5), ("sp4", 10)):
        report = gen.closure_report(which)
        ok = ok and report.closed and report.dimension == dim
    _verdict(4, "closure dimensions 3 / 5 / 10, exact linear algebra", ok)


def test_c05_factorization_identities():
    rng = random.Random(50505)
    ok = True
    for tag in ("B", "C", "F"):
        for _ in range(20):
            params, m = random_family(rng, tag)
            res_up, res_down = fz.factorization_residuals(params, m)
            ok = ok and res_up.is_zero and res_down.is_zero
    _verdict(5, "factorization identities at 20 random points per family", ok)


def test_c06_coulomb_eigenvalue_rule():
    ok = True
    for Z in (1, 2, 6):
        for n in range(1, 9):
            lam = fz.eigenvalue(fz.TypeF(Fraction(-Z)), n - 1)
            ok = ok and (2 * cl.energy(Z, n) == lam) and lam == Fraction(-Z * Z, n * n)
    _verdict(6, "bound energies equal the class I eigenvalue rule exactly", ok)


def test_c07_su11_action_sweep():
    ok = True
    for rep in cl.sweep_su11(6):
        if rep.annihilation:
            continue
        relative = rep.coefficient_error / abs(rep.expected)
        ok = ok and relative <= COEFF_TOL and rep.profile_residual <= POINTWISE_TOL
    _verdict(7, "T ladder coefficients 1e-10 relative, profiles 1e-8", ok)


def test_c08_weyl_action_sweep():
    ok = True
    for rep in cl.sweep_weyl(5, 7):
        if rep.annihilation:
            continue
        ok = (ok and rep.coefficient_error <= COEFF_TOL
              and rep.profile_residual <= POINTWISE_TOL)
    _verdict(8, "A and B ladder coefficients within 1e-10", ok)


def test_c09_annihilation_edges():
    ok = True
    for m in range(6):
        rep = cl.action_report(cl.state_tm(m + 1, m), "T-")
        ok = ok and rep.annihilation and rep.measured <= ANNIHILATION_TOL
    for nu in (1, 3, 5, 7):
        rep = cl.action_report(cl.state_munu(0, nu), "A-")
        ok = ok and rep.annihilation and rep.measured <= ANNIHILATION_TOL
    _verdict(9, "lowering at the bottom annihilates to 1e-10", ok)


def _tested_states():
    for t in range(1, 9):
        for m in range(t):
            yield cl.state_tm(t, m)
    for mu in range(6):
        for nu in range(mu + 1, 8, 2):
            yield cl.state_munu(mu, nu)


def test_c10_normalization():
    ok = all(cl.normalization_residual(s) <= NORM_TOL for s in _tested_states())
    _verdict(10, "unit norm to 1e-12 for every tested state", ok)


def test_c11_schrodinger_residuals():
    ok = all(cl.schrodinger_residual(s) <= POINTWISE_TOL for s in _tested_states())
    for t, m in ((1, 0), (3, 1), (6, 4)):
        ok = ok and cl.schrodinger_residual(cl.state_tm(t, m), 0.1) >= CONTROL_FLOOR
    _verdict(11, "radial equation residual 1e-8, detuned control above 1e-2", ok)


def test_c12_energy_invariance_of_shifts():
    ok = True
    for rep in cl.sweep_su11(6) + cl.sweep_weyl(5, 7):
        if rep.annihilation:
            continue
        state = cl.make_state(rep.family, rep.source, Fraction(7, 3))
        shift = cl.charge_shift(state, rep.operator)
        ok = ok and shift.gamma_invariant and shift.energy_invariant
        label = (state.labels[0] if rep.family == "su11"
                 else state.labels[0] + state.labels[1] + 1)
        direction = 1 if rep.operator.endswith("+") else -1
        q_rule = fz.shifted_charge(-state.Z, label, direction)
        ok = ok and shift.charge_out == -q_rule
    _verdict(12, "gamma and energy bit-identical under every charge shift", ok)


def test_c13_parser_roundtrip():
    rng = random.Random(13131313)
    ok = True
    for _ in range(1000):
        e = random_operator(rng)
        ok = ok and opdsl.parse(opdsl.render(e)) == e
    _verdict(13, "parse(render(e)) == e for 1000 generated operators", ok)

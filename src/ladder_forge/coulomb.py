"""Coulomb bound states and numerical checks of the generator actions.

Radial eigenfunctions of -psi'' + (l(l+1)/r**2 - 2Z/r) psi = 2E psi are
represented through their scaled profile P:

    psi(r) = exp(-rho/2) P(rho),    rho = gamma r,    gamma = 2Z/n,

with P a normalized generalized-Laguerre profile.  Every state is held in the
weyl labels (mu, nu), integers with 0 <= mu <= nu:

    P = N rho**((nu-mu+1)/2) L^(nu-mu)_{mu}(rho),   N**2 = gamma mu! / ((mu+nu+1) nu!)

at principal label n = (mu+nu+1)/2 and angular momentum l = (nu-mu-1)/2.
The ``su11`` labels (t, m), t >= 1, 0 <= m <= t-1, name the odd-gap states
mu = t-m-1, nu = t+m; such a state keeps (t, m) as its labels, but every
property is computed from (mu, nu).  Each ladder's lattice step (dmu, dnu) is
its generator's phase winding (``generators.step``): A+- moves mu, B+- nu and
T+- both, so T+- acts as A+- followed by B+-, coefficients included.

The symbolic generators act on these states with closed-form coefficients.
Every numeric action here is derived from them: ``act`` rewrites an operator
of ``generators`` into its exact rho-form on exp(-rho/2) P(rho), setting each
angle derivative to i times the state's phase winding, s = gamma/2,
u = gamma**(-1/2) and r = rho/gamma, and drops the phase factors.  The form is
checked once in exact rationals (every atom of gamma-degree 0, every
coefficient real).  Leibniz's rule on N rho**p L then makes the action one
sum of c rho**e L^(i), each e an exact half-integer, evaluated as N times
rho to the least e times nonnegative powers of rho, so rho = 0 needs no
second path.
Inner products of the polynomial profiles are integrated with Gauss-Laguerre
quadrature, exact up to roundoff while the order covers the integrand's
degree; past MAX_QUAD_ORDER the float nodes and weights overflow, and the
quadrature refuses.

Ladder targets keep rho fixed, which means the charge is rescaled: stepping
the principal label from n to n' drags Z to Z n'/n.  The shifted charge is
generally not an integer; reports record this rather than forbidding it.
Each step is derived once, by ``_step``: the move, the fold past nu == mu and
n'/n, which both the action coefficient and the target state read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from . import generators, opalgebra
from .opalgebra import OperatorExpr, exact, exact_int

DEFAULT_QUAD_ORDER = 40
# the highest order whose nodes and weights stay finite in floats; at 185 the
# squared Laguerre tail in the weights overflows
MAX_QUAD_ORDER = 184
# a state's charge lies in [2**-CHARGE_BITS, 2**CHARGE_BITS], far enough inside
# the float range for the numerics: P carries sqrt(gamma) and the radial
# equation gamma**2
CHARGE_BITS = 64
# bounds of the float checks: action coefficients and annihilation norms, profile and
# equation residuals, normalization, and the least residual a detuned control must show
COEFF_TOL, PROFILE_TOL, NORM_TOL, DETUNED_FLOOR = 1e-10, 1e-8, 1e-12, 1e-2

def laguerre(n: int, alpha, x):
    """Generalized Laguerre L^(alpha)_n evaluated by upward recurrence."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    a = float(alpha)
    prev = np.ones(x.shape)
    if n == 0:
        return prev
    cur = 1.0 + a - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + a - x) * cur - (k + a) * prev) / (k + 1)
    return cur


def laguerre_deriv(n: int, alpha, x, order: int = 1):
    """order-th derivative of L^(alpha)_n, via d/dx L^(a)_n = -L^(a+1)_{n-1}."""
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    if 0 <= n < order:  # a negative degree reaches laguerre's refusal
        return np.zeros_like(np.asarray(x, dtype=float))
    sign = -1.0 if order % 2 else 1.0
    return sign * laguerre(n - order, float(alpha) + order, x)


@lru_cache(maxsize=None, typed=True)  # typed, so a float order never hits an equal Fraction's entry
def gauss_laguerre(order: int):
    """Nodes and weights for the weight exp(-x) on (0, inf).

    Eigenvalues of the symmetric Jacobi matrix seed the nodes; a short
    Newton polish then pins each root of L_order to machine precision.
    """
    order = exact_int(order, "order")
    if order < 1:
        raise ValueError("quadrature order must be positive")
    if order > MAX_QUAD_ORDER:
        raise ValueError(f"quadrature order {order} is past the float limit {MAX_QUAD_ORDER}")
    k = np.arange(order, dtype=float)
    jacobi = np.diag(2.0 * k + 1.0)
    if order > 1:
        off = np.arange(1.0, order)
        jacobi += np.diag(off, 1) + np.diag(off, -1)
    x = np.linalg.eigvalsh(jacobi)
    for _ in range(3):
        x = x - laguerre(order, 0.0, x) / laguerre_deriv(order, 0.0, x)
    tail = laguerre(order + 1, 0.0, x)
    w = x / ((order + 1) ** 2 * tail**2)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _nonnegative(x, name: str):
    """``x`` as a float array; a negative or NaN entry, where the profiles turn NaN, raises ``ValueError``."""
    x = np.asarray(x, dtype=float)
    lowest = np.minimum.reduce(x, axis=None, initial=0.0)  # 0.0 for an empty x; NaN if any entry is
    if not lowest >= 0:
        least = np.fmin.reduce(x, axis=None, initial=0.0)  # the least entry past a NaN, on the refusal only
        raise ValueError(f"{name} must be nonnegative, got {least if least < 0 else lowest}")
    return x


def _finite(values, rho, what: str):
    """``values`` at ``rho``; where one leaves the float range, ``ValueError`` naming the first such rho."""
    if not np.isfinite(values).all():
        raise ValueError(f"the {what} leaves the float range at rho = {rho.flat[np.isfinite(values).argmin()]}")
    return values


def energy(Z, n) -> Fraction:
    """Bound energy -Z**2 / (2 n**2), exact."""
    Z, n = exact(Z, "Z"), exact(n, "n")
    if n <= 0:
        raise ValueError("principal label must be positive")
    return -(Z * Z) / (2 * n * n)


def _charge_outside(Z: Fraction, bits: int) -> bool:
    """Whether Z lies outside [2**-bits, 2**bits]; zero and negative charges do."""
    return Z.numerator > Z.denominator << bits or Z.denominator > Z.numerator << bits


@dataclass(frozen=True)
class QuantumState:
    """One radial bound state in either labeling, at exact rational charge.

    ``labels`` stay in the state's own labeling; every property is one
    formula in the weyl labels ``munu`` = (mu, nu), worked out on creation.
    """

    family: str
    labels: tuple[int, int]
    Z: Fraction = Fraction(1)
    munu: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = {"su11": ("t", "m"), "weyl": ("mu", "nu")}.get(self.family)
        if names is None:
            raise ValueError("family must be 'su11' or 'weyl'")
        a, b = self.labels
        a, b = exact_int(a, names[0]), exact_int(b, names[1])
        object.__setattr__(self, "labels", (a, b))
        object.__setattr__(self, "Z", exact(self.Z, "Z"))
        if _charge_outside(self.Z, CHARGE_BITS):
            raise ValueError(f"charge must lie in [2**-{CHARGE_BITS}, 2**{CHARGE_BITS}], got {self.Z}")
        if self.family == "su11":
            if a < 1 or not 0 <= b <= a - 1:
                raise ValueError(f"need t >= 1 and 0 <= m <= t-1, got ({a}, {b})")
            a, b = a - b - 1, a + b
        elif a < 0 or b < 0 or b - a < 0:
            raise ValueError(f"need mu, nu >= 0 and nu >= mu, got ({a}, {b})")
        object.__setattr__(self, "munu", (a, b))

    @property
    def principal(self) -> Fraction:
        mu, nu = self.munu
        return Fraction(mu + nu + 1, 2)

    @property
    def angular(self) -> Fraction:
        mu, nu = self.munu
        return Fraction(nu - mu - 1, 2)

    @property
    def gamma(self) -> Fraction:
        return 2 * self.Z / self.principal

    @property
    def energy(self) -> Fraction:
        return energy(self.Z, self.principal)

    @property
    def norm_sq(self) -> Fraction:
        """Exact square of the profile normalization constant."""
        mu, nu = self.munu
        return self.gamma * Fraction(math.factorial(mu), (mu + nu + 1) * math.factorial(nu))

    @property
    def power(self) -> Fraction:
        """Exponent of rho in the profile prefactor."""
        mu, nu = self.munu
        return Fraction(nu - mu + 1, 2)

    @property
    def alpha(self) -> int:
        return self.munu[1] - self.munu[0]

    @property
    def degree(self) -> int:
        return self.munu[0]

    @property
    def windings(self) -> tuple[Fraction, int, int]:
        """Phase windings (eta, alpha, beta) = (n, mu, nu) of the state."""
        return (self.principal, *self.munu)

    @cached_property
    def _log_norm(self) -> float:
        # log of the exact norm_sq halved; math.log of a tiny Fraction would
        # go through a float that underflows to 0
        norm_sq = self.norm_sq
        return (math.log(norm_sq.numerator) - math.log(norm_sq.denominator)) / 2

    def _prefactor(self, log_rho, q: float):
        """N rho**q in log space, free of over- and underflow; q == 0 skips 0 * log(0) = nan."""
        return np.exp(self._log_norm + q * log_rho) if q else math.exp(self._log_norm)

    def scaled_profile(self, rho):
        rho = _nonnegative(rho, "rho")
        # power >= 1/2, so exp(power * log 0) = 0 is P(0); a value past the float range is refused
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            profile = self._prefactor(np.log(rho), float(self.power)) * laguerre(self.degree, self.alpha, rho)
        return _finite(profile, rho, "profile")

    def radial(self, r):
        """psi(r) for r >= 0, unit L2 norm on (0, inf)."""
        with np.errstate(over="ignore"):  # an infinite rho is refused by scaled_profile
            rho = float(self.gamma) * _nonnegative(r, "r")
        return np.exp(-rho / 2) * self.scaled_profile(rho)


def make_state(family: str, labels, Z=1) -> QuantumState:
    return QuantumState(family, tuple(labels), Z)


def state_tm(t: int, m: int, Z=1) -> QuantumState:
    return QuantumState("su11", (t, m), Z)


def state_munu(mu: int, nu: int, Z=1) -> QuantumState:
    return QuantumState("weyl", (mu, nu), Z)


def _step(state: QuantumState, operator: str) -> tuple[int, tuple[int, int], tuple[int, int], bool, Fraction]:
    """The one derivation of a step: the ``LADDERS`` sign of ``operator``, its ``generators.step`` (dmu, dnu),
    the target (mu', nu') folded past nu == mu by L^(-1)_n = -(rho/n) L^(1)_(n-1), whether it folded, and n'/n."""
    lad = generators.LADDERS.get(operator)
    if lad is None:
        raise ValueError(f"unknown operator {operator!r}")
    if state.family != lad.kind:
        raise ValueError(f"{operator} acts on {lad.kind!r} states")
    (mu, nu), (dmu, dnu) = state.munu, generators.step(lad.operator())
    n2 = mu + nu + 1
    folded = mu + dmu > nu + dnu
    target = (nu + dnu, mu + dmu) if folded else (mu + dmu, nu + dnu)
    return lad.sign, (dmu, dnu), target, folded, Fraction(n2 + dmu + dnu, n2)


def action_radicand(state: QuantumState, operator: str) -> tuple[int, Fraction]:
    """(sign, radicand) with action coefficient sign * sqrt(radicand), exact.

    Every ladder is one expression in the weyl labels, read off the one ``_step``:
    the charge ratio n'/n times, for each moved label x, x + 1 when raised and
    x when lowered; a folded step's reflection flips the sign.
    """
    sign, step, _, folded, ratio = _step(state, operator)
    moved = math.prod(x + (d > 0) for x, d in zip(state.munu, step) if d)
    return (-sign if folded else sign), ratio * moved


def action_coefficient(state: QuantumState, operator: str) -> float:
    sign, radicand = action_radicand(state, operator)
    return sign * math.sqrt(radicand)


def shifted_state(state: QuantumState, operator: str) -> QuantumState:
    """Target state of one ladder step, with the charge dragged along.

    The step keeps rho = gamma r fixed, so gamma and the energy are exactly
    unchanged while Z moves to Z n'/n (n, n' the principal labels).  The folded target and n'/n
    are the one ``_step``'s; a step off the lattice or past the charge range raises ``ValueError``.
    """
    _, _, (mu, nu), _, ratio = _step(state, operator)
    if mu < 0:
        raise ValueError(f"{operator} annihilates {state.family} state {state.labels}")
    Z = state.Z * ratio
    if _charge_outside(Z, CHARGE_BITS):
        raise ValueError(f"{operator} drags the charge of {state.family} state {state.labels} at Z = {state.Z} "
                         f"to {Z}, outside [2**-{CHARGE_BITS}, 2**{CHARGE_BITS}]")
    target = ((mu + nu + 1) // 2, (nu - mu - 1) // 2) if state.family == "su11" else (mu, nu)
    return QuantumState(state.family, target, Z)


_GAUGE = opalgebra.deriv("r") - Fraction(1, 2)


@lru_cache(maxsize=64)
def _rho_form(op: OperatorExpr) -> tuple:
    """Exact rho-form of ``op`` on exp(-rho/2) P(rho).

    Each term (k, j, (de, da, db), c) stands for
    c * n**de * mu**da * nu**db * rho**(k/2) * P^(j), with (n, mu, nu) the
    state's windings.  With s = gamma/2, u = gamma**(-1/2) and r = rho/gamma,
    an atom s**sp u**up r**(k/2) (d/dr)**dr carries gamma**(sp - up/2 - k/2 + dr),
    and past exp(-rho/2) each d/dr is gamma times the gauge operator d/dr - 1/2
    (``_GAUGE``, r and d/dr now standing for rho and d/drho).  The form is one exact
    operator, the sum of each atom's i**(de + da + db), rho power and angle
    derivatives (markers of the windings) times the gauge**dr, weighted by
    (1/2)**sp; only the last line converts it to floats.
    """
    atoms = sorted(op.atoms())
    for (r2, _, _, _, dr, *_), sp, up, *_ in atoms:
        if degree := 2 * sp - up - r2 + 2 * dr:
            raise ValueError(f"atom with s^{sp}, u^{up}, r^({r2}/2), (d/dr)^{dr} "
                             f"has gamma-degree {Fraction(degree, 2)}, not 0")
    generators.step(op)  # refuses an operator whose atoms carry different phase windings
    # each angle derivative brings i times the state's winding; the phase factors are dropped
    form = opalgebra.linear_sum([
        (opalgebra.product((opalgebra.imag() ** (de + da + db), (opalgebra._pack((r2, 0, 0, 0, 0, de, da, db), 0, 0),
                                                                 re, im, den), _GAUGE**dr)), Fraction(1, 2) ** sp)
        for (r2, _, _, _, dr, de, da, db), sp, _, re, im, den in atoms])
    if any(im for *_, im, _ in form.atoms()):
        raise ValueError("operator has a non-real coefficient on the profile")
    return tuple((mono[0], mono[4], mono[5:], re / den) for mono, _, _, re, _, den in sorted(form.atoms()))


def act(op: OperatorExpr, state: QuantumState, rho):
    """``op`` applied to the state, with phases and exp(-rho/2) stripped.

    Leibniz's rule P^(j) = N sum_i C(j, i) (p)_(j-i) rho**(p-j+i) L^(i) turns
    the rho-form into one sum of c rho**e L^(i), keyed by the exact (2e, i);
    terms that cancel are dropped, so an annihilation gives exactly 0.0.  With
    ``low`` the least 2e, the result is one log-space prefactor
    N rho**(low/2) times the sum of c rho**((2e-low)/2) L^(i): one formula for
    every rho, rho = 0 included.  Raises ``ValueError`` when an atom of ``op``
    has nonzero gamma-degree, a coefficient of its rho-form is not real, its
    atoms carry different phases, a rho is negative or NaN, or the result is
    infinite at a rho = 0 entry.
    """
    n, mu, nu = (float(w) for w in state.windings)
    p, degree, alpha = float(state.power), state.degree, state.alpha
    coeffs: dict[tuple[int, int], float] = {}  # (2e, i) -> c
    for k, j, (de, da, db), c in _rho_form(op):
        c *= n**de * mu**da * nu**db
        for i in range(min(j, degree) + 1):
            key = (k + alpha + 1 - 2 * (j - i), i)
            # C(j, i) times the falling power p (p-1) ... (p-j+i+1)
            falling = math.prod(p - q for q in range(j - i))
            coeffs[key] = coeffs.get(key, 0.0) + c * comb(j, i) * falling
    coeffs = {key: c for key, c in coeffs.items() if c}
    rho = _nonnegative(rho, "rho")
    if not coeffs:
        return np.zeros_like(rho)
    low = min(e2 for e2, _ in coeffs)
    if low < 0 and (rho == 0).any():
        raise ValueError(f"the action is infinite at rho = 0 (a term in rho**({Fraction(low, 2)}))")
    # low >= 0 wherever rho has a 0, and exp(q * log 0) = 0; a value past the float range is refused
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lag = [laguerre_deriv(degree, alpha, rho, i) for i in range(max(i for _, i in coeffs) + 1)]
        total = sum(c * lag[i] * rho ** ((e2 - low) / 2) for (e2, i), c in coeffs.items())
        action = state._prefactor(np.log(rho), low / 2) * total
    return _finite(action, rho, "action")


@dataclass(frozen=True)
class ActionReport:
    """Numerical comparison of one ladder action against its closed form."""

    operator: str
    family: str
    source: tuple[int, int]
    target: tuple[int, int] | None
    expected: float
    measured: float
    coefficient_error: float
    profile_residual: float
    annihilation: bool
    passed: bool


def action_report(
    state: QuantumState,
    operator: str,
    coeff_tol: float = COEFF_TOL,
    profile_tol: float = PROFILE_TOL,
) -> ActionReport:
    """Check one generator action by exact-degree quadrature.

    For a nonzero coefficient the projection of the generator's action onto
    the target profile is compared with the closed form, and the residual
    orthogonal to the target is measured in the L2 norm.  A vanishing
    closed-form coefficient instead demands an action norm within
    ``coeff_tol``.  Both sides are compared pointwise at the nodes, so the
    check holds even where the quadrature order is below the integrand's
    degree.
    """
    sign, radicand = action_radicand(state, operator)
    target = shifted_state(state, operator) if radicand else None  # refuses a dragged charge before any work
    nodes, weights = gauss_laguerre(DEFAULT_QUAD_ORDER)
    lhs = act(generators.LADDERS[operator].operator(), state, nodes)
    if target is None:
        src = state.scaled_profile(nodes)
        src_norm = math.sqrt(float(weights @ src**2))
        resid = math.sqrt(float(weights @ lhs**2)) / src_norm
        return ActionReport(
            operator, state.family, state.labels, None,
            0.0, resid, resid, resid, True, resid <= coeff_tol,
        )
    tgt = target.scaled_profile(nodes)
    tgt_norm_sq = float(weights @ tgt**2)
    expected = sign * math.sqrt(radicand)
    measured = float(weights @ (lhs * tgt)) / tgt_norm_sq
    diff = lhs - expected * tgt
    profile_residual = math.sqrt(float(weights @ diff**2) / (expected**2 * tgt_norm_sq))
    coefficient_error = abs(measured - expected)
    passed = coefficient_error <= coeff_tol and profile_residual <= profile_tol
    return ActionReport(
        operator, state.family, state.labels, target.labels,
        expected, measured, coefficient_error, profile_residual, False, passed,
    )


def _sweep(kind: str, states, tols: dict) -> list[ActionReport]:
    ops = [op for op, lad in generators.LADDERS.items() if lad.kind == kind]
    return [action_report(st, op, **tols) for st in states for op in ops]


def _sweep_charge(Z) -> Fraction:
    """Z, refused up front unless every charge Z n'/n a sweep step drags it to, n'/n in [1/2, 2], is in range."""
    Z, bits = exact(Z, "Z"), CHARGE_BITS - 1
    if _charge_outside(Z, bits):
        raise ValueError(f"a sweep's charge must lie in [2**-{bits}, 2**{bits}], so that every charge its steps "
                         f"drag it to stays in [2**-{CHARGE_BITS}, 2**{CHARGE_BITS}], got {Z}")
    return Z


def sweep_su11(t_max: int, Z=1, **tols) -> list[ActionReport]:
    """All T+- actions on states with t <= t_max, annihilations included."""
    t_max, Z = exact_int(t_max, "t_max"), _sweep_charge(Z)
    states = (state_tm(t, m, Z) for t in range(1, t_max + 1) for m in range(t))
    return _sweep("su11", states, tols)


def sweep_weyl(mu_max: int = 5, nu_max: int = 7, Z=1, **tols) -> list[ActionReport]:
    """All A+-, B+- actions over the odd-gap grid mu <= mu_max, nu <= nu_max.

    nu - mu is kept odd so every integrand is polynomial and the quadrature
    exact; these are the states shared with the su11 labeling.
    """
    mu_max, nu_max, Z = exact_int(mu_max, "mu_max"), exact_int(nu_max, "nu_max"), _sweep_charge(Z)
    states = (state_munu(mu, nu, Z) for mu in range(mu_max + 1)
              for nu in range(mu + 1, nu_max + 1, 2))
    return _sweep("weyl", states, tols)


@dataclass(frozen=True)
class ChargeShiftReport:
    operator: str
    source: tuple[int, int]
    target: tuple[int, int]
    charge_in: Fraction
    charge_out: Fraction
    gamma_invariant: bool
    energy_invariant: bool
    integer_charge: bool


def charge_shift(state: QuantumState, operator: str) -> ChargeShiftReport:
    """Exact bookkeeping for the charge dragged by one ladder step."""
    target = shifted_state(state, operator)
    return ChargeShiftReport(
        operator,
        state.labels,
        target.labels,
        state.Z,
        target.Z,
        target.gamma == state.gamma,
        target.energy == state.energy,
        target.Z.denominator == 1,
    )


def normalization_order(n) -> int:
    """Quadrature order of the normalization at principal label n: its integrand has degree 2n,
    so the order is raised from DEFAULT_QUAD_ORDER to floor(n) + 1 where it falls short of that."""
    return max(DEFAULT_QUAD_ORDER, math.floor(n) + 1)


def normalization_residual(state: QuantumState) -> float:
    """|  ||psi||**2 - 1 |, by quadrature of order ``normalization_order``, exact for these profiles."""
    nodes, weights = gauss_laguerre(normalization_order(state.principal))
    P = state.scaled_profile(nodes)
    return abs(float(weights @ P**2) / float(state.gamma) - 1.0)


def _casimir_defect(state: QuantumState):
    """Nodes, P, exp(-rho/2) and C P - l(l+1) P, with C from ``generators``."""
    nodes, _ = gauss_laguerre(DEFAULT_QUAD_ORDER)
    lsq = float(state.angular * (state.angular + 1))
    P = state.scaled_profile(nodes)
    defect = act(generators.casimir()[0], state, nodes) - lsq * P
    return nodes, P, np.exp(-nodes / 2), defect


def schrodinger_residual(state: QuantumState, lambda_shift: float = 0.0) -> float:
    """max |(psi'' + (2Z/r - l(l+1)/r**2 + 2E) psi) / gamma**2 + shift psi| / max |psi|.

    Evaluated on the quadrature nodes.  In units of rho = gamma r the radial
    equation is the Casimir eigenequation divided by rho**2, so the residual
    is (C P - l(l+1) P) / rho**2 + shift P, damped by exp(-rho/2); it does not
    scale with the charge, so a correct state passes up to Z = 2**64.  A
    nonzero ``lambda_shift`` detunes the eigenvalue of that rho-unit equation
    and should push the residual up by about |shift|; this is the negative
    control showing the check has teeth.
    """
    nodes, P, damp, defect = _casimir_defect(state)
    profile = P * damp
    scale = np.max(np.abs(profile))  # first, so a shift near the float limit stays finite
    resid = defect / nodes**2 * damp / scale + lambda_shift * (profile / scale)
    return float(np.max(np.abs(resid)))


def casimir_residual(state: QuantumState) -> float:
    """Residual of the Casimir eigenequation C psi = l(l+1) psi on the profile.

    The max norm is damped by exp(-rho/2) to weight the nodes the way the
    wave function does.
    """
    _, P, damp, defect = _casimir_defect(state)
    return float(np.max(np.abs(defect) * damp) / np.max(np.abs(P) * damp))


"""Coulomb bound states and numerical checks of the generator actions.

Radial eigenfunctions of -psi'' + (l(l+1)/r**2 - 2Z/r) psi = 2E psi are
represented through their scaled profile P:

    psi(r) = exp(-rho/2) P(rho),    rho = gamma r,    gamma = 2Z/n,

with P a normalized generalized-Laguerre profile.  Two labelings cover the
same functions:

* ``su11``  labels (t, m), t >= 1, 0 <= m <= t-1:
      P = N rho**(m+1) L^(2m+1)_{t-m-1}(rho),   N**2 = gamma (t-m-1)! / (2t (t+m)!)
* ``weyl``  labels (mu, nu) >= 0 with nu >= mu:
      P = N rho**((nu-mu+1)/2) L^(nu-mu)_{mu}(rho),
      N**2 = gamma mu! / ((mu+nu+1) nu!)

For integer angular momentum the two match under mu = t-m-1, nu = t+m.

The symbolic generators act on these states with closed-form coefficients.
Every numeric action here is derived from them: ``act`` rewrites an operator
of ``generators`` into its exact rho-form on exp(-rho/2) P(rho), setting each
angle derivative to i times the state's phase winding, s = gamma/2,
u = gamma**(-1/2) and r = rho/gamma, and drops the phase factors.  The form is
checked once in exact rationals (every atom of gamma-degree 0, every
coefficient real) and then evaluated on the profile.  Inner products of the
polynomial profiles are integrated with Gauss-Laguerre quadrature, exact up
to roundoff while the order covers the integrand's degree.

Ladder targets keep rho fixed, which means the charge is rescaled: stepping
the principal label from n to n' drags Z to Z n'/n.  The shifted charge is
generally not an integer; reports record this rather than forbidding it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from . import generators
from .opalgebra import GaussRational, OperatorExpr

DEFAULT_QUAD_ORDER = 40

def laguerre(n: int, alpha, x):
    """Generalized Laguerre L^(alpha)_n evaluated by upward recurrence."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    a = float(alpha)
    prev = np.ones_like(x)
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
    if n < order:
        return np.zeros_like(np.asarray(x, dtype=float))
    sign = -1.0 if order % 2 else 1.0
    return sign * laguerre(n - order, float(alpha) + order, x)


@lru_cache(maxsize=None)
def gauss_laguerre(order: int):
    """Nodes and weights for the weight exp(-x) on (0, inf).

    Eigenvalues of the symmetric Jacobi matrix seed the nodes; a short
    Newton polish then pins each root of L_order to machine precision.
    """
    if order < 1:
        raise ValueError("quadrature order must be positive")
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


def energy(Z, n) -> Fraction:
    """Bound energy -Z**2 / (2 n**2), exact."""
    Z = Fraction(Z)
    n = Fraction(n)
    if n <= 0:
        raise ValueError("principal label must be positive")
    return -(Z * Z) / (2 * n * n)


def _as_int(value, name: str) -> int:
    frac = Fraction(value)
    if frac.denominator != 1:
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(frac)


@dataclass(frozen=True)
class QuantumState:
    """One radial bound state in either labeling, at exact rational charge."""

    family: str
    labels: tuple[int, int]
    Z: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "Z", Fraction(self.Z))
        object.__setattr__(self, "labels", tuple(int(v) for v in self.labels))
        if self.Z <= 0:
            raise ValueError("charge must be positive")
        a, b = self.labels
        if self.family == "su11":
            if a < 1 or not 0 <= b <= a - 1:
                raise ValueError(f"need t >= 1 and 0 <= m <= t-1, got ({a}, {b})")
        elif self.family == "weyl":
            if a < 0 or b < 0 or b - a < 0:
                raise ValueError(f"need mu, nu >= 0 and nu >= mu, got ({a}, {b})")
        else:
            raise ValueError("family must be 'su11' or 'weyl'")

    @property
    def principal(self) -> Fraction:
        if self.family == "su11":
            return Fraction(self.labels[0])
        mu, nu = self.labels
        return Fraction(mu + nu + 1, 2)

    @property
    def angular(self) -> Fraction:
        if self.family == "su11":
            return Fraction(self.labels[1])
        mu, nu = self.labels
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
        if self.family == "su11":
            t, m = self.labels
            return self.gamma * Fraction(
                math.factorial(t - m - 1), 2 * t * math.factorial(t + m)
            )
        mu, nu = self.labels
        return self.gamma * Fraction(
            math.factorial(mu), (mu + nu + 1) * math.factorial(nu)
        )

    @property
    def power(self) -> Fraction:
        """Exponent of rho in the profile prefactor."""
        if self.family == "su11":
            return Fraction(self.labels[1] + 1)
        mu, nu = self.labels
        return Fraction(nu - mu + 1, 2)

    @property
    def alpha(self) -> int:
        if self.family == "su11":
            return 2 * self.labels[1] + 1
        return self.labels[1] - self.labels[0]

    @property
    def degree(self) -> int:
        if self.family == "su11":
            return self.labels[0] - self.labels[1] - 1
        return self.labels[0]

    @property
    def windings(self) -> tuple[Fraction, int, int]:
        """Phase windings (eta, alpha, beta) = (n, mu, nu) of the state."""
        if self.family == "su11":
            t, m = self.labels
            return self.principal, t - m - 1, t + m
        return (self.principal, *self.labels)

    @cached_property
    def norm_constant(self) -> float:
        return math.sqrt(self.norm_sq)

    def scaled_profile(self, rho):
        rho = np.asarray(rho, dtype=float)
        return self.norm_constant * rho ** float(self.power) * laguerre(self.degree, self.alpha, rho)

    def profile_derivs(self, rho, order: int) -> list:
        """[P, P', ..., P^(order)] of the profile, by Leibniz's rule on rho**p L."""
        rho = np.asarray(rho, dtype=float)
        p = float(self.power)
        lag = [laguerre_deriv(self.degree, self.alpha, rho, i) for i in range(order + 1)]
        out = []
        for j in range(order + 1):
            total = 0.0
            for i in range(j + 1):
                # C(j, i) times the falling power p (p-1) ... (p-j+i+1)
                factor = comb(j, i) * math.prod(p - q for q in range(j - i))
                if factor:
                    total = total + factor * rho ** (p - j + i) * lag[i]
            out.append(self.norm_constant * total)
        return out

    def radial(self, r):
        """psi(r) for r > 0, unit L2 norm on (0, inf)."""
        rho = float(self.gamma) * np.asarray(r, dtype=float)
        return np.exp(-rho / 2) * self.scaled_profile(rho)


def make_state(family: str, labels, Z=1) -> QuantumState:
    return QuantumState(family, tuple(labels), Fraction(Z))


def state_tm(t: int, m: int, Z=1) -> QuantumState:
    return make_state("su11", (_as_int(t, "t"), _as_int(m, "m")), Z)


def state_munu(mu: int, nu: int, Z=1) -> QuantumState:
    return make_state("weyl", (_as_int(mu, "mu"), _as_int(nu, "nu")), Z)


def _require_family(state: QuantumState, operator: str):
    if operator in ("T+", "T-"):
        if state.family != "su11":
            raise ValueError(f"{operator} acts on 'su11' states")
    elif operator in ("A+", "A-", "B+", "B-"):
        if state.family != "weyl":
            raise ValueError(f"{operator} acts on 'weyl' states")
    else:
        raise ValueError(f"unknown operator {operator!r}")


def action_radicand(state: QuantumState, operator: str) -> tuple[int, Fraction]:
    """(sign, radicand) with action coefficient sign * sqrt(radicand), exact."""
    _require_family(state, operator)
    d = 1 if operator.endswith("+") else -1
    if operator[0] == "T":
        t, m = state.labels
        return -1, Fraction((t + d) * (t - d * m) * (t + d * m + d), t)
    mu, nu = state.labels
    n2 = mu + nu + 1
    if operator[0] == "A":
        return 1, Fraction((n2 + d) * (mu + (1 + d) // 2), n2)
    return -1, Fraction((n2 + d) * (nu + (1 + d) // 2), n2)


def action_coefficient(state: QuantumState, operator: str) -> float:
    sign, radicand = action_radicand(state, operator)
    return sign * math.sqrt(radicand)


def shifted_state(state: QuantumState, operator: str) -> QuantumState:
    """Target state of one ladder step, with the charge dragged along.

    The step keeps rho = gamma r fixed, so gamma and the energy are exactly
    unchanged while Z moves to Z n'/n (n, n' the principal labels).
    """
    _require_family(state, operator)
    d = 1 if operator.endswith("+") else -1
    if operator[0] == "T":
        t, m = state.labels
        target = (t + d, m)
        z_out = state.Z * Fraction(t + d, t)
    else:
        mu, nu = state.labels
        n2 = mu + nu + 1
        if operator[0] == "A":
            target = (mu + d, nu)
        else:
            target = (mu, nu + d)
        z_out = state.Z * Fraction(n2 + d, n2)
    return QuantumState(state.family, target, z_out)


@lru_cache(maxsize=None)
def _generator(name: str) -> OperatorExpr:
    """The symbolic operator behind a ladder name ("T+", ..., "B-") or "C"."""
    if name == "C":
        return generators.casimir()[0]
    family = generators.build_T() if name[0] == "T" else generators.build_AB()
    return family.members[name[0] + ("plus" if name[1] == "+" else "minus")]


@lru_cache(maxsize=64)
def _rho_form(op: OperatorExpr) -> tuple[tuple, int]:
    """Exact rho-form of ``op`` on exp(-rho/2) P(rho), and its top P-derivative.

    Each term (k, j, (de, da, db), c) stands for
    c * n**de * mu**da * nu**db * rho**(k/2) * P^(j), with (n, mu, nu) the
    state's windings.  With s = gamma/2, u = gamma**(-1/2) and r = rho/gamma,
    an atom s**sp u**up r**(k/2) (d/dr)**dr carries gamma**(sp - up/2 - k/2 + dr),
    and past exp(-rho/2) each d/dr turns into gamma (d/drho - 1/2).
    """
    half = Fraction(1, 2)
    i_unit = GaussRational(Fraction(0), Fraction(1))
    acc: dict[tuple, GaussRational] = {}
    phases = set()
    for mono, sp, up, g in op.flatten():
        degree = 2 * sp - up - mono.r2 + 2 * mono.dr
        if degree:
            raise ValueError(
                f"atom with s^{sp}, u^{up}, r^({mono.r2}/2), (d/dr)^{mono.dr} "
                f"has gamma-degree {Fraction(degree, 2)}, not 0"
            )
        phases.add((mono.ke, mono.ka, mono.kb))
        angle = (mono.de, mono.da, mono.db)
        # each angle derivative brings i times the state's winding
        g = (g * i_unit ** sum(angle)).times(half**sp)
        for j in range(mono.dr + 1):
            key = (mono.r2, j, angle)
            term = g.times(comb(mono.dr, j) * (-half) ** (mono.dr - j))
            acc[key] = acc[key] + term if key in acc else term
    if len(phases) > 1:
        raise ValueError("operator mixes phase windings")
    if any(c.im for c in acc.values()):
        raise ValueError("operator has a non-real coefficient on the profile")
    terms = tuple((k, j, angle, float(c.re)) for (k, j, angle), c in sorted(acc.items()) if c)
    return terms, max((j for _, j, _, _ in terms), default=0)


def act(op: OperatorExpr, state: QuantumState, rho):
    """``op`` applied to the state, with phases and exp(-rho/2) stripped.

    Returns the profile of the result at ``rho``.  Raises ``ValueError`` when
    an atom of ``op`` has nonzero gamma-degree, a coefficient of its rho-form
    is not real, or its atoms carry different phases.
    """
    terms, top = _rho_form(op)
    n, mu, nu = (float(w) for w in state.windings)
    coeffs: dict[tuple[int, int], float] = {}
    for k, j, (de, da, db), c in terms:
        coeffs[k, j] = coeffs.get((k, j), 0.0) + c * n**de * mu**da * nu**db
    rho = np.asarray(rho, dtype=float)
    derivs = state.profile_derivs(rho, top)
    root = np.sqrt(rho)
    out = np.zeros_like(rho)
    for (k, j), c in coeffs.items():
        term = c * derivs[j]
        if k // 2:
            term *= rho ** (k // 2)
        if k % 2:
            term *= root
        out += term
    return out


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
    order: int = DEFAULT_QUAD_ORDER,
    coeff_tol: float = 1e-10,
    profile_tol: float = 1e-8,
    annihilation_tol: float = 1e-10,
) -> ActionReport:
    """Check one generator action by exact-degree quadrature.

    For a nonzero coefficient the projection of the generator's action onto
    the target profile is compared with the closed form, and the residual
    orthogonal to the target is measured in the L2 norm.  A vanishing
    closed-form coefficient instead demands a vanishing action norm.  Both
    sides are compared pointwise at the nodes, so the check holds even where
    ``order`` is below the integrand's degree.
    """
    sign, radicand = action_radicand(state, operator)
    nodes, weights = gauss_laguerre(order)
    lhs = act(_generator(operator), state, nodes)
    src = state.scaled_profile(nodes)
    src_norm = math.sqrt(float(weights @ src**2))
    if radicand == 0:
        resid = math.sqrt(float(weights @ lhs**2)) / src_norm
        return ActionReport(
            operator, state.family, state.labels, None,
            0.0, resid, resid, resid, True, resid <= annihilation_tol,
        )
    target = shifted_state(state, operator)
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


def sweep_su11(t_max: int, Z=1, order: int = DEFAULT_QUAD_ORDER, **tols) -> list[ActionReport]:
    """All T+- actions on states with t <= t_max, annihilations included."""
    reports = []
    for t in range(1, t_max + 1):
        for m in range(t):
            st = state_tm(t, m, Z)
            for op in ("T+", "T-"):
                reports.append(action_report(st, op, order, **tols))
    return reports


def sweep_weyl(mu_max: int = 5, nu_max: int = 7, Z=1,
               order: int = DEFAULT_QUAD_ORDER, **tols) -> list[ActionReport]:
    """All A+-, B+- actions over the odd-gap grid mu <= mu_max, nu <= nu_max.

    nu - mu is kept odd so every integrand is polynomial and the quadrature
    exact; these are the states shared with the su11 labeling.
    """
    reports = []
    for mu in range(mu_max + 1):
        for nu in range(mu + 1, nu_max + 1, 2):
            st = state_munu(mu, nu, Z)
            for op in ("A+", "A-", "B+", "B-"):
                reports.append(action_report(st, op, order, **tols))
    return reports


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


def normalization_residual(state: QuantumState, order: int = DEFAULT_QUAD_ORDER) -> float:
    """|  ||psi||**2 - 1 |, by quadrature exact for these profiles.

    The integrand has degree 2n, so the order is raised to floor(n) + 1
    where ``order`` falls short of it.
    """
    nodes, weights = gauss_laguerre(max(order, math.floor(state.principal) + 1))
    P = state.scaled_profile(nodes)
    return abs(float(weights @ P**2) / float(state.gamma) - 1.0)


def _casimir_defect(state: QuantumState, order: int):
    """Nodes, P, exp(-rho/2) and C P - l(l+1) P, with C from ``generators``."""
    nodes, _ = gauss_laguerre(order)
    lsq = float(state.angular * (state.angular + 1))
    P = state.scaled_profile(nodes)
    defect = act(_generator("C"), state, nodes) - lsq * P
    return nodes, P, np.exp(-nodes / 2), defect


def schrodinger_residual(
    state: QuantumState, lambda_shift: float = 0.0, order: int = DEFAULT_QUAD_ORDER
) -> float:
    """max |psi'' + (2Z/r - l(l+1)/r**2 + 2E + shift) psi| / max |psi|.

    Evaluated on the quadrature nodes.  The radial equation is the Casimir
    eigenequation divided by r**2, so the residual is
    gamma**2 (C P - l(l+1) P) / rho**2 + shift P, damped by exp(-rho/2).  A
    nonzero ``lambda_shift`` detunes the eigenvalue and should push the
    residual up by about |shift|; this is the negative control showing the
    check has teeth.
    """
    nodes, P, damp, defect = _casimir_defect(state, order)
    g = float(state.gamma)
    resid = (g * g * defect / nodes**2 + lambda_shift * P) * damp
    return float(np.max(np.abs(resid)) / np.max(np.abs(P * damp)))


def casimir_residual(state: QuantumState, order: int = DEFAULT_QUAD_ORDER) -> float:
    """Residual of the Casimir eigenequation C psi = l(l+1) psi on the profile.

    The max norm is damped by exp(-rho/2) to weight the nodes the way the
    wave function does.
    """
    _, P, damp, defect = _casimir_defect(state, order)
    return float(np.max(np.abs(defect) * damp) / np.max(np.abs(P) * damp))


def profile_identity_residual(Z=1, order: int = DEFAULT_QUAD_ORDER) -> float:
    """The (mu, nu) = (0, 1) state and the (t, m) = (1, 0) state coincide."""
    nodes, _ = gauss_laguerre(order)
    a = state_munu(0, 1, Z).scaled_profile(nodes)
    b = state_tm(1, 0, Z).scaled_profile(nodes)
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))

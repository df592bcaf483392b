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
coefficient real).  Normal-ordered with rho**p, it makes the action one
sum of c rho**e L^(i), each e an exact half-integer, evaluated as N times
rho to the least e times nonnegative powers of rho, so rho = 0 needs no
second path.  Every L^(i) = (-1)**i L^(alpha+i)_(mu-i) of a state is the last
of i running sums, by L^(a+1)_m = sum_{k<=m} L^(a)_k, over the first mu-i+1
rows of its table L^(alpha)_0 ... L^(alpha)_mu from the upward recurrence, and
P reads row mu.  At the quadrature nodes each (order, alpha) keeps a window of
that table, rows L_lo ... L_hi and each i's running sum carried into lo: a read
in it continues each sum from its carry, one above grows it from its top two
rows, and one below lo rebuilds it from L_0.  A store in read order drops the
least recently read window past COLUMN_BYTES, and each order keeps its log rho,
exp(-rho/2) and rho**2 (``_node_arrays``); any other rho steps the recurrence
afresh, keeping its last two rows and one running sum per i, and takes one log.
The Casimir and Schrodinger residuals read the order-40 nodes, and order 41 at
(40, 40), whose L^(0)_40 vanishes at every order-40 node.
Inner products of the polynomial profiles are integrated with Gauss-Laguerre
quadrature, exact up to roundoff while the order covers the integrand's
degree; past MAX_QUAD_ORDER the float nodes and weights overflow, and the
quadrature refuses.  Its Newton polish of the nodes reads L_n and
L'_n = -L^(1)_(n-1) off one table; ``_recurrence`` is the layer's one recurrence.

Ladder targets keep rho fixed, which means the charge is rescaled: stepping
the principal label from n to n' drags Z to Z n'/n.  The shifted charge is
generally not an integer; reports record this rather than forbidding it.
Each step's radicand, target and n'/n are stated once, on unfolded windings, by
``generators.ladder_move``; ``_step`` only folds its target past nu == mu, and
``action_report`` reads its coefficient and target from it.

Exact values stay at the edges, where a value is reported or checked: Z, gamma,
the dragged charge, the radicand, the energy and norm_sq.  A float check reads its
numbers (n, mu, nu, p, l(l+1), the quadrature order) straight from the integer
labels ``munu``, each the correctly rounded value of the exact rational.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from fractions import Fraction
from functools import lru_cache

# the algebra before numpy: imported after it, the same modules raise a process's peak RSS by about 2 MiB
from . import generators, opalgebra
from .opalgebra import OperatorExpr, Record, exact, exact_int

import numpy as np

DEFAULT_QUAD_ORDER = 40
# a bound on memory, not a tuning: the cached Laguerre windows' bytes in all (the 975 that 1,350 coulomb-checks
# decks read: 2.2 MiB; one pass over every t <= 60 check: 2.8 MiB)
COLUMN_BYTES = 6 << 20
_CARRIED = 2  # running sums a Laguerre window carries, one per derivative order read: the Casimir is second order
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

def _recurrence(n: int, alpha, x, first, start: int):
    """L^(alpha)_k at a float ``x``, k = start + 1 ... n: the upward recurrence continued from the rows ``first``,
    which end in L_start."""
    a, prev, cur = float(alpha), first[-2] if len(first) > 1 else None, first[-1]
    for k in range(start, n):  # prev is first read at k = 1
        prev, cur = cur, (1.0 + a - x if k == 0 else ((2 * k + 1 + a - x) * cur - (k + a) * prev) / (k + 1))
        yield cur


def _table(n: int, alpha, x):
    """L^(alpha)_0 ... L^(alpha)_n at ``x`` on a new first axis: ``_recurrence`` from L_0 = 1."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    first = np.ones((1, *np.shape(x)))
    return np.array([*first, *_recurrence(n, alpha, np.asarray(x, dtype=float), first, 0)])


def _rows(table, n: int, rows: int) -> list:
    """[L^(alpha+i)_(n-i) for i < rows], 0 past the degree, from a ``table`` of L^(alpha)_k, k <= n at least, or a
    ``_Window`` holding n, rows <= ``_CARRIED`` + 1: by L^(a+1)_m = sum_{k<=m} L^(a)_k row i is the last of i sequential running sums, over
    table[:n-i+1] or on from the window's carried S_i at lo - i, the last row's one ``np.add.reduce``: in cumsum's
    order over two or more points (one is summed pairwise past 8 rows)."""
    lo, carried, table = (table.lo, table.sums, table.rows) if isinstance(table, _Window) else (0, (), table)
    out, sums = [table[n - lo]], table
    for i in range(1, rows):  # past lo, S_i at lo - i and then S_(i-1) from lo - i + 1 up to n - i
        sums = np.concatenate((carried[i - 1][None], sums[:n - lo])) if lo else sums[:max(n - i + 1, 0)]
        sums = np.cumsum(sums, axis=0) if i + 1 < rows else np.add.reduce(sums, axis=0)[None]
        out.append(sums[-1] if len(sums) else np.zeros(table.shape[1:]))
    return out


def _fresh_rows(n: int, alpha, x, rows: int) -> list:
    """``_rows(_table(n, alpha, x), n, rows)`` bit for bit, from two recurrence rows and one running sum per order."""
    sums = [np.ones(x.shape)] * min(rows, n + 1)  # sums[i] steps by sums[i - 1] at each k <= n - i
    for k, row in enumerate(_recurrence(n, alpha, x, sums[:1], 0), 1):
        sums[:min(rows, n - k + 1)] = np.cumsum([row, *sums[1:min(rows, n - k + 1)]], axis=0)
    return sums + [np.zeros(x.shape)] * (rows - len(sums))


class _Window(Record):
    """Rows L^(alpha)_lo ... L^(alpha)_hi of one Laguerre table and at lo > 0 the running sums carried into lo:
    ``sums[i - 1]`` is S_i at lo - i, 0 where that is negative, with S_0 = L and S_i the running sum of S_(i-1) from
    k = 0, so that L^(alpha+i)_m = S_i at m.  A plain ``_table`` is the window at lo = 0, carrying none."""

    lo: int
    hi: int
    rows: np.ndarray
    sums: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes + self.sums.nbytes

    def __getitem__(self, n: int):
        """L^(alpha)_n, for lo <= n <= hi."""
        return self.rows[n - self.lo]


def _window(n: int, alpha, x, held: _Window | None) -> _Window:
    """The read-only window of alpha's table at ``x`` that holds degree n and ``held``'s rows: ``held`` grown from its
    top two rows if n is above it, else built from L_0 up to n, or to just below ``held``, keeping the rows from n on
    (from n - 1 on a cold read, so that a window has two rows to grow from or is L_0 alone) and ``_CARRIED`` sums."""
    if held is not None and n > held.hi:
        window = _Window(held.lo, n, np.array([*held.rows, *_recurrence(n, alpha, x, held.rows, held.hi)]), held.sums)
    else:
        top, lo, above = (n, max(n - 1, 0), []) if held is None else (held.lo - 1, n, [held.rows])
        table = _table(top, alpha, x)
        rows = np.concatenate([table[lo:], *above])
        window = _Window(lo, lo + len(rows) - 1, rows, np.array(_rows(table, lo, _CARRIED + 1)[1:] if lo else ()))
    window.rows.setflags(write=False)
    window.sums.setflags(write=False)
    return window


class _Columns(OrderedDict):
    """(order, alpha) -> ``_Window`` at the order's nodes, the least recently read first.  Only a holder of ``lock``
    adds or drops a window, keeping ``nbytes`` the sum of theirs; a read only reorders, so it needs no lock."""
    nbytes, lock = 0, threading.Lock()

    def clear(self):
        with self.lock:
            super().clear()
            self.nbytes = 0


_columns = _Columns()


def _node_table(order: int, state) -> _Window:
    """The window of (order, ``state.alpha``) at ``gauss_laguerre(order)``'s nodes, holding ``state.degree``: the
    one held, or ``_window``'s from it.  A read moves it to the recent end of ``_columns``; storing a new window
    drops the least recently read until all fit ``COLUMN_BYTES``, and a larger one is returned unstored.  Threads
    changing one window at once each return their own: a race costs a regrowth."""
    key, degree = (order, state.alpha), state.degree
    try:
        _columns.move_to_end(key)
    except KeyError:  # not held: the get below misses, as it does if another thread drops the window first
        pass
    if (window := _columns.get(key)) is None or not window.lo <= degree <= window.hi:
        window = _window(degree, state.alpha, gauss_laguerre(order)[0], window)
        with _columns.lock:
            if window.nbytes <= COLUMN_BYTES:
                _columns.nbytes += window.nbytes - getattr(_columns.get(key), "nbytes", 0)
                _columns[key] = window
                while _columns.nbytes > COLUMN_BYTES:
                    _columns.nbytes -= _columns.popitem(last=False)[1].nbytes
    return window


@lru_cache(maxsize=None, typed=True)  # typed, so a float order never hits an equal Fraction's entry
def gauss_laguerre(order: int):
    """Nodes and weights for the weight exp(-x) on (0, inf).

    Eigenvalues of the symmetric Jacobi matrix seed the nodes; three Newton
    steps then pin each root of L_order to machine precision, each reading
    L_order and L'_order = -L^(1)_(order-1) off one ``_table`` (``_rows``), and
    the weights read L_(order+1) off one more table at the polished nodes.
    """
    order = exact_int(order, "order")
    if order < 1:
        raise ValueError("quadrature order must be positive")
    _refuse_past_ceiling(order)
    off = np.arange(1.0, order)
    jacobi = np.diag(np.arange(1.0, 2 * order, 2)) + np.diag(off, 1) + np.diag(off, -1)
    x = np.linalg.eigvalsh(jacobi)
    for _ in range(3):
        lag, lag1 = _rows(_table(order, 0, x), order, 2)
        x = x + lag / lag1  # x - L / L', as L' = -L^(1)_(order-1)
    tail = _table(order + 1, 0, x)[order + 1]
    w = x / ((order + 1) ** 2 * tail**2)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=None)  # one entry per order read, so at most MAX_QUAD_ORDER; only the float checks read it
def _node_arrays(order: int) -> tuple:
    """``gauss_laguerre(order)``'s nodes and weights, then log rho, exp(-rho/2) and rho**2 at the nodes, read-only."""
    nodes, weights = gauss_laguerre(order)
    derived = np.log(nodes), np.exp(-nodes / 2), nodes**2
    for array in derived:
        array.setflags(write=False)
    return nodes, weights, *derived


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


def _refuse_past_ceiling(order: int):
    """A quadrature order past ``MAX_QUAD_ORDER``, where the float nodes and weights overflow, raises ``ValueError``."""
    if order > MAX_QUAD_ORDER:
        raise ValueError(f"quadrature order {order} is past the float limit {MAX_QUAD_ORDER}")


def energy(Z, n) -> Fraction:
    """Bound energy -Z**2 / (2 n**2), exact."""
    Z, n = exact(Z, "Z"), exact(n, "n")
    if n <= 0:
        raise ValueError("principal label must be positive")
    return -(Z * Z) / (2 * n * n)


def _outside(x: Fraction, bits: int) -> bool:
    """Whether x, a charge or a coefficient's size, lies outside [2**-bits, 2**bits]; zero and negative x do."""
    return x.numerator > x.denominator << bits or x.denominator > x.numerator << bits


class QuantumState(Record):
    """One radial bound state in either labeling, at exact rational charge.

    ``labels`` stay in the state's own labeling; every property is one
    formula in the weyl labels ``munu`` = (mu, nu), worked out on creation
    and held beside the fields, never compared or printed.
    The rational properties are exact, for reports; the float checks read
    ``munu`` itself, so no check builds a Fraction to float it.
    """

    family: str
    labels: tuple[int, int]
    Z: Fraction = Fraction(1)

    def __post_init__(self):
        names = {"su11": ("t", "m"), "weyl": ("mu", "nu")}.get(self.family)
        if names is None:
            raise ValueError("family must be 'su11' or 'weyl'")
        a, b = self.labels
        a, b = exact_int(a, names[0]), exact_int(b, names[1])
        object.__setattr__(self, "labels", (a, b))
        object.__setattr__(self, "Z", exact(self.Z, "Z"))
        if _outside(self.Z, CHARGE_BITS):
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

    @property
    def _log_norm(self) -> float:
        # log of norm_sq = 4 Z mu! / ((mu+nu+1)**2 nu!) halved, read off the unreduced
        # integers: no gcd over factorials, and no float of a tiny Fraction, which underflows to 0
        mu, nu = self.munu
        return (math.log(4 * self.Z.numerator * math.factorial(mu))
                - math.log(self.Z.denominator * (mu + nu + 1) ** 2 * math.factorial(nu))) / 2

    def _prefactor(self, log_rho, q: float):
        """N rho**q in log space, free of over- and underflow; q == 0 skips 0 * log(0) = nan."""
        return np.exp(self._log_norm + q * log_rho) if q else math.exp(self._log_norm)

    def scaled_profile(self, rho):
        rho = _nonnegative(rho, "rho")
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return self._profile(rho, np.log(rho), _fresh_rows(self.degree, self.alpha, rho, 1)[0])

    def _profile(self, rho, log_rho, lag):
        """P at a checked ``rho`` from its log and L^(alpha)_degree, under ignored float errors (a 0 or huge rho)."""
        # power >= 1/2, so exp(power * log 0) = 0 is P(0); a value past the float range is refused
        return _finite(self._prefactor(log_rho, (self.alpha + 1) / 2) * lag, rho, "profile")

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


def _step(state: QuantumState, operator: str) -> tuple[int, Fraction, tuple[int, int], Fraction]:
    """``generators.ladder_move`` of ``operator`` on ``state``, its target folded past nu == mu by
    L^(-1)_n = -(rho/n) L^(1)_(n-1): a target with mu' > nu' is swapped, and its sign flipped."""
    lad = generators.LADDERS.get(operator)
    if lad is not None and state.family != lad.kind:
        raise ValueError(f"{operator} acts on {lad.kind!r} states")
    sign, radicand, (mu, nu), ratio = generators.ladder_move(operator, state.munu)
    return (-sign, radicand, (nu, mu), ratio) if mu > nu else (sign, radicand, (mu, nu), ratio)


def action_radicand(state: QuantumState, operator: str) -> tuple[int, Fraction]:
    """(sign, radicand) with action coefficient sign * sqrt(radicand), exact: the one ``_step``'s."""
    return _step(state, operator)[:2]


def action_coefficient(state: QuantumState, operator: str) -> float:
    sign, radicand = action_radicand(state, operator)
    return sign * math.sqrt(radicand)


def shifted_state(state: QuantumState, operator: str) -> QuantumState:
    """Target state of one ladder step, with the charge dragged along.

    The step keeps rho = gamma r fixed, so gamma and the energy are exactly
    unchanged while Z moves to Z n'/n (n, n' the principal labels).  The folded target and n'/n
    are the one ``_step``'s; a step off the lattice or past the charge range raises ``ValueError``.
    """
    return _target(state, operator, _step(state, operator))


def _target(state: QuantumState, operator: str, step: tuple) -> QuantumState:
    """``shifted_state`` of ``operator`` from its ``_step`` on ``state``."""
    *_, (mu, nu), ratio = step
    if mu < 0:
        raise ValueError(f"{operator} annihilates {state.family} state {state.labels}")
    Z = state.Z * ratio
    if _outside(Z, CHARGE_BITS):
        raise ValueError(f"{operator} drags the charge of {state.family} state {state.labels} at Z = {state.Z} "
                         f"to {Z}, outside [2**-{CHARGE_BITS}, 2**{CHARGE_BITS}]")
    target = ((mu + nu + 1) // 2, (nu - mu - 1) // 2) if state.family == "su11" else (mu, nu)
    return QuantumState(state.family, target, Z)


_RHO_IMAGES = {"s_power": opalgebra.scalar(Fraction(1, 2)), "dr": opalgebra.deriv("r") - Fraction(1, 2),
               **dict.fromkeys(("u_parity", "ke", "ka", "kb"), opalgebra.identity()),
               **{d: opalgebra.imag() * opalgebra.deriv(v) for d, v in zip(("de", "da", "db"), opalgebra.PHASE_AXES)}}


@lru_cache(maxsize=64)
def _rho_form(op: OperatorExpr) -> tuple:
    """Exact rho-form of ``op`` on exp(-rho/2) P(rho).

    Each term (k, j, (de, da, db), c) stands for
    c * n**de * mu**da * nu**db * rho**(k/2) * P^(j), with (n, mu, nu) the
    state's windings.  With s = gamma/2, u = gamma**(-1/2) and r = rho/gamma,
    an atom s**sp u**up r**(k/2) (d/dr)**dr carries gamma**(sp - up/2 - k/2 + dr),
    and past exp(-rho/2) each d/dr is gamma times the gauge operator d/dr - 1/2
    (r and d/dr now standing for rho and d/drho).  The form is the exact image
    of ``op`` under the table ``_RHO_IMAGES`` (``opalgebra.rewrite``), each angle
    derivative going to i times itself, a marker of its winding.  Each c is an
    exact ``Fraction``; one outside [2**-1022, 2**1022] is refused.
    """
    for (r2, _, _, _, dr, *_), sp, up, *_ in sorted(op.atoms()):
        if degree := 2 * sp - up - r2 + 2 * dr:
            raise ValueError(f"atom with s^{sp}, u^{up}, r^({r2}/2), (d/dr)^{dr} "
                             f"has gamma-degree {Fraction(degree, 2)}, not 0")
    generators.step(op)  # refuses an operator whose atoms carry different phase windings
    form = sorted(opalgebra.rewrite(op, _RHO_IMAGES).atoms())
    if any(im for *_, im, _ in form):
        raise ValueError("operator has a non-real coefficient on the profile")
    for (k, _, _, _, j, *_), _, _, re, _, den in form:
        if _outside(Fraction(abs(re), den), 1022):
            raise ValueError(f"rho-form atom rho^({k}/2)*(d/drho)^{j}: coefficient outside [2**-1022, 2**1022]")
    return tuple((mono[0], mono[4], mono[5:], Fraction(re, den)) for mono, _, _, re, _, den in form)


@lru_cache(maxsize=512)  # a bound on memory, not a tuning: 1,350 coulomb-checks decks touch 327 (op, alpha)
def _leibniz(op: OperatorExpr, alpha: int) -> tuple:
    """(den, ((2e, i, parts), ...)): ``op`` on rho**p L, p = (alpha+1)/2, is the sum of c rho**e (-1)**i L^(i), c
    the sum of num/den (2n)**de mu**da nu**db over its parts (num, de, da, db).  The keys keep the order in which the
    rho-form's atoms, each times rho**p by ``*``, first reach them, i ascending: the term-by-term Leibniz order."""
    power, acc = opalgebra.r_half_power(alpha + 1), {}
    for k, j, marks, c in _rho_form(op):
        for (m, _, _), (re, _) in (OperatorExpr({((k, 0, 0, 0, j, *marks), 0, 0): c}) * power).terms():
            part = acc.setdefault((m.r2, m.dr), {})
            part[marks] = part.get(marks, 0) + (-1) ** m.dr * re / 2 ** marks[0]
    den = math.lcm(*(c.denominator for part in acc.values() for c in part.values()))
    return den, tuple((*key, tuple((int(c * den), *m) for m, c in part.items() if c)) for key, part in acc.items())


def act(op: OperatorExpr, state: QuantumState, rho):
    """``op`` applied to the state, with phases and exp(-rho/2) stripped.

    ``_leibniz`` normal-orders the rho-form times N rho**p into one sum of c rho**e L^(i), keyed by the exact (2e, i);
    each c is summed in integers and divided once, so an annihilation gives exactly 0.0.  With ``low`` the least 2e,
    the result is one log-space prefactor N rho**(low/2) times the sum of c rho**((2e-low)/2) L^(i): one formula for
    every rho, rho = 0 included.  Raises ``ValueError`` when an atom of ``op`` has nonzero gamma-degree, a coefficient
    of its rho-form is not real or lies outside [2**-1022, 2**1022], its atoms carry different phases, a rho is
    negative or NaN, the result is infinite at a rho = 0 entry, or it leaves the float range.
    """
    return _act(op, state, _nonnegative(rho, "rho"))


def _act(op: OperatorExpr, state: QuantumState, rho, table=None, log_rho=None):
    """``act`` at a checked ``rho``, its Laguerre rows and log read off ``table`` and ``log_rho`` (at the nodes) or
    taken afresh.  One power of rho per 2e, shared by its derivative orders: none for the least 2e and rho itself one
    step up, bit for bit ``rho ** 0.0`` and ``rho ** 1.0``; the sum keeps ``_leibniz``'s term order."""
    (degree, top), (den, terms) = state.munu, _leibniz(op, state.alpha)
    coeffs: dict[tuple[int, int], float] = {}  # (2e, i) -> c, in _leibniz's order, which the sum below keeps
    for e2, i, parts in terms:
        num = sum(c * (degree + top + 1) ** de * degree**da * top**db for c, de, da, db in parts) if i <= degree else 0
        try:  # one int-to-float division per key; past the float range, an infinite term that _finite refuses
            coeffs[e2, i] = num / den
        except OverflowError:
            coeffs[e2, i] = math.inf if num > 0 else -math.inf
    coeffs = {key: c for key, c in coeffs.items() if c}
    low, rows = min((e2 for e2, _ in coeffs), default=0), max((i for _, i in coeffs), default=0) + 1
    if low < 0 and (rho == 0).any():
        raise ValueError(f"the action is infinite at rho = 0 (a term in rho**({Fraction(low, 2)}))")
    # low >= 0 wherever rho has a 0, and exp(q * log 0) = 0; a value past the float range is refused
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if not coeffs:
            return np.zeros_like(rho)
        lag = _fresh_rows(degree, state.alpha, rho, rows) if table is None else _rows(table, degree, rows)
        powers = {e2: rho if e2 == low + 2 else rho ** ((e2 - low) / 2) for e2, _ in coeffs if e2 != low}
        total = sum(c * lag[i] * powers[e2] if e2 != low else c * lag[i] for (e2, i), c in coeffs.items())
        action = state._prefactor(np.log(rho) if log_rho is None else log_rho, low / 2) * total
    return _finite(action, rho, "action")


class ActionReport(Record):
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
    tol: float | None = None,
) -> ActionReport:
    """Check one generator action by exact-degree quadrature.

    For a nonzero coefficient the projection of the generator's action onto
    the target profile is compared with the closed form, and the residual
    orthogonal to the target is measured in the L2 norm.  A vanishing
    closed-form coefficient instead demands an action norm within
    ``COEFF_TOL``.  The order is ``normalization_order`` at the larger
    principal label of source and target.  A pointwise comparison at the nodes
    survives a lower order only while the target's quadrature norm is sound:
    the fold target (k, k) carries L^(0)_k, zero at every order-k node.  A
    norm that is not positive raises ``ValueError`` naming the order and the
    degree; ``gauss_laguerre`` refuses an order past ``MAX_QUAD_ORDER``.  A
    ``tol`` bounds the coefficient error and the profile residual (and an
    annihilation's norm) in place of ``COEFF_TOL`` and ``PROFILE_TOL``; one
    not finite and positive is refused.  The action and P (the target's, or
    the source's for an annihilation) read their (order, alpha) windows, so P
    is ``scaled_profile`` at the nodes bit for bit.
    """
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    coeff_tol, profile_tol = (COEFF_TOL, PROFILE_TOL) if tol is None else (tol, tol)
    sign, radicand, *_ = step = _step(state, operator)
    target = _target(state, operator, step) if radicand else None  # refuses a dragged charge before any work
    ref = state if target is None else target  # the state whose profile P the check divides by
    order = normalization_order((max(sum(state.munu), sum(ref.munu)) + 1) // 2)
    nodes, weights, log_nodes, *_ = _node_arrays(order)
    lhs = _act(generators.LADDERS[operator].operator(), state, nodes, _node_table(order, state), log_nodes)
    P = ref._profile(nodes, log_nodes, _node_table(order, ref)[ref.degree])
    norm_sq = float(weights @ P**2)
    if not norm_sq > 0:
        raise ValueError(f"the quadrature norm of {ref.family} state {ref.labels} is {norm_sq} "
                         f"at order {len(weights)}, integrand degree {2 * ref.principal}")
    if target is None:
        resid = math.sqrt(float(weights @ lhs**2)) / math.sqrt(norm_sq)
        return ActionReport(
            operator, state.family, state.labels, None,
            0.0, resid, resid, resid, True, resid <= coeff_tol,
        )
    expected = sign * math.sqrt(radicand)
    measured = float(weights @ (lhs * P)) / norm_sq
    diff = lhs - expected * P
    profile_residual = math.sqrt(float(weights @ diff**2) / (expected**2 * norm_sq))
    coefficient_error = abs(measured - expected)
    passed = coefficient_error <= coeff_tol and profile_residual <= profile_tol
    return ActionReport(
        operator, state.family, state.labels, target.labels,
        expected, measured, coefficient_error, profile_residual, False, passed,
    )


def _sweep(kind: str, states, tol: float | None) -> list[ActionReport]:
    ops = [op for op, lad in generators.LADDERS.items() if lad.kind == kind]
    return [action_report(st, op, tol) for st in states for op in ops]


def _sweep_charge(Z) -> Fraction:
    """Z, refused up front unless every charge Z n'/n a sweep step drags it to, n'/n in [1/2, 2], is in range."""
    Z, bits = exact(Z, "Z"), CHARGE_BITS - 1
    if _outside(Z, bits):
        raise ValueError(f"a sweep's charge must lie in [2**-{bits}, 2**{bits}], so that every charge its steps "
                         f"drag it to stays in [2**-{CHARGE_BITS}, 2**{CHARGE_BITS}], got {Z}")
    return Z


def sweep_su11(t_max: int, Z=1, tol: float | None = None) -> list[ActionReport]:
    """All T+- actions on states with t <= t_max, annihilations included."""
    t_max, Z = exact_int(t_max, "t_max"), _sweep_charge(Z)
    states = (state_tm(t, m, Z) for t in range(1, t_max + 1) for m in range(t))
    return _sweep("su11", states, tol)


def sweep_weyl(mu_max: int = 5, nu_max: int = 7, Z=1, tol: float | None = None) -> list[ActionReport]:
    """All A+-, B+- actions over the odd-gap grid mu <= mu_max, nu <= nu_max.

    nu - mu is kept odd so every integrand is polynomial and the quadrature
    exact; these are the states shared with the su11 labeling.
    """
    mu_max, nu_max, Z = exact_int(mu_max, "mu_max"), exact_int(nu_max, "nu_max"), _sweep_charge(Z)
    states = (state_munu(mu, nu, Z) for mu in range(mu_max + 1)
              for nu in range(mu + 1, nu_max + 1, 2))
    return _sweep("weyl", states, tol)


class ChargeShiftReport(Record):
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
    order = normalization_order((sum(state.munu) + 1) // 2)
    nodes, weights, log_nodes, *_ = _node_arrays(order)
    P = state._profile(nodes, log_nodes, _node_table(order, state)[state.degree])
    return abs(float(weights @ P**2) / float(state.gamma) - 1.0)


def _casimir_defect(state: QuantumState):
    """rho**2, P, exp(-rho/2) and C P - l(l+1) P, with C from ``generators``, at the order-40 nodes (``_node_arrays``),
    and order 41 at weyl (40, 40), whose L^(0)_40 vanishes at each order-40 node.  A state whose normalization order is
    past ``MAX_QUAD_ORDER`` is refused before its window grows: at order-40 nodes its high-degree P loses precision."""
    _refuse_past_ceiling(normalization_order((sum(state.munu) + 1) // 2))
    order = DEFAULT_QUAD_ORDER + (state.munu == (DEFAULT_QUAD_ORDER, DEFAULT_QUAD_ORDER))
    nodes, _, log_nodes, damp, square = _node_arrays(order)
    lsq = (state.alpha - 1) * (state.alpha + 1) / 4
    table = _node_table(order, state)
    action = _act(generators.casimir()[0], state, nodes, table, log_nodes)
    P = state._profile(nodes, log_nodes, table[state.degree])
    return square, P, damp, action - lsq * P


def schrodinger_residual(state: QuantumState, lambda_shift: float = 0.0) -> float:
    """max |(psi'' + (2Z/r - l(l+1)/r**2 + 2E) psi) / gamma**2 + shift psi| / max |psi|.

    Evaluated on ``_casimir_defect``'s quadrature nodes.  In units of rho = gamma r the radial
    equation is the Casimir eigenequation divided by rho**2, so the residual
    is (C P - l(l+1) P) / rho**2 + shift P, damped by exp(-rho/2); it does not
    scale with the charge, so a correct state passes up to Z = 2**64.  A
    nonzero ``lambda_shift`` detunes the eigenvalue of that rho-unit equation
    and should push the residual up by about |shift|; this is the negative
    control showing the check has teeth.
    """
    if not math.isfinite(lambda_shift):
        raise ValueError(f"lambda_shift must be finite, got {lambda_shift}")
    square, P, damp, defect = _casimir_defect(state)
    profile = P * damp
    scale = np.max(np.abs(profile))  # first, so a shift near the float limit stays finite
    resid = defect / square * damp / scale + lambda_shift * (profile / scale)
    return float(np.max(np.abs(resid)))


def casimir_residual(state: QuantumState) -> float:
    """Residual of the Casimir eigenequation C psi = l(l+1) psi on the profile.

    The max norm is damped by exp(-rho/2) to weight the nodes the way the
    wave function does.
    """
    _, P, damp, defect = _casimir_defect(state)
    return float(np.max(np.abs(defect) * damp) / np.max(np.abs(P) * damp))


"""Exact noncommutative operator algebra with canonical normal ordering.

The algebra is generated by

* half-integer powers of a radial coordinate ``r`` (negative powers included),
* unit phase factors ``exp(i*k*v)`` in the angle variables ``eta``, ``alpha``,
  ``beta`` with integer winding ``k``,
* partial derivatives in ``r`` and in the three angles,

over a coefficient ring of Gaussian rationals extended by a formal positive
symbol ``s`` (Laurent polynomials in ``s``) and a formal unit ``u`` with
``u**2 = 1/(2*s)``.  ``s`` plays the role of ``sqrt(-lambda)`` for a
bound-state eigenvalue ``lambda < 0``; ``u`` is the prefactor ``(2*s)**(-1/2)``
carried by Weyl-pair generators, kept formal so every computation stays in
exact rational arithmetic.

Every value is immutable and held in normal order: within each additive term
the function factors (powers of ``r``, phase factors) stand to the left of all
derivatives.  A value is one flat map from atoms ``(mono, s_power, u_parity)``,
``mono`` the exponent pattern of a normal-ordered monomial, to nonzero
Gaussian-integer numerators ``(re, im)`` over one positive denominator shared
by the whole value.  Equal atoms are always merged and the value is in lowest
terms (the gcd of the denominator and every numerator part is 1; zero is the
empty map over 1).  A key is its atom packed into one ``int`` by ``_pack``,
which ``_unpack`` reverses (no other code lays out the fields): from the top
the ``Mono`` fields and s_power, 32 bits each holding the value plus 2**31,
then two bits of u parity.  Keys sort as atoms do, a leading key is
``k1 + k2 - _BIAS``, and ``u**2`` is a test of bit 1 and one subtraction.
Each exponent lies in ``-EXP_BOUND <= e < EXP_BOUND`` (2**24), so no field
carries into the next (interaction terms reach 4 * EXP_BOUND, a field 2**31):
``_pack`` names a field outside the bound in a ``ValueError``, and each key a
product forms takes one SWAR test, ``(key - _LOW) & _GUARD``, one subtraction
and one AND over all fields.  Products are put in normal order by the rules

    d/dr * r**(p/2)   = r**(p/2) * d/dr + (p/2) * r**((p-2)/2)
    d/dv * exp(i*k*v) = exp(i*k*v) * (d/dv + i*k)     for v in {eta, alpha, beta}

so operator equality is literal equality of canonical forms.  Products, sums
and the fraction-free Lie-closure echelon run on integers; ``Fraction`` appears
only where a library caller's rationals enter and where ``terms()`` reads
coefficients out, never in the DSL (atom forms, below).
A coefficient has one form on both sides of that boundary, the pair
``(re, im)``: integers over the shared denominator inside, ``Fraction`` parts
outside.  ``terms()`` yields ``((mono, s_power, u_parity), (re, im))``, and
``OperatorExpr(mapping)`` takes those pairs back, or plain ``int``/``Fraction``
values for real coefficients.

The integer counterpart of ``terms()`` is ``atoms()``, the 6-tuples
``(mono, s_power, u_parity, re, im, den)`` of one-atom operators
``(re + im*i)/den * s**s_power * u**u_parity * mono``, ``den > 0``.  An *atom
form* ``(key, re, im, den)`` carries the packed key instead; it need not be in
lowest terms, and its coefficient may be zero.  ``product`` takes one as a
factor and ``linear_sum`` as a summand, ``fold`` multiplies a run of them, and
``atom_power`` raises one in closed form.  ``rewrite`` is the one operator
rewrite, by an image of each letter: ``substitute_s``, ``swap_alpha_beta`` and
the rho-form of ``coulomb`` are image tables of it.  ``terms()`` and ``Mono``
are the public read-out only.

A product of two monomials ``f1*D1 * g2*E2`` is its leading term
``f1*g2*D1*E2``, every exponent added, plus interaction terms from commuting
the left derivatives ``D1`` past the right functions ``g2``.  The interaction
terms depend only on the four derivative orders of ``D1`` and the four function
exponents of ``g2``; one bounded cache (``_mono_cross``) holds them under that
key, ``(k1 ^ _BIAS) & _DERIVS | (k2 ^ _BIAS) & _FUNCS``, as offsets from the
leading key.  Each operand keeps, beside its hash, one *table* per *signature*
(derivative orders and u parity: a left u meets a right one as ``u**2``) of a
left atom that met it, at most 64: each interaction term such an atom meets in
it, merged by offset, scanning only atoms that meet the signature's axes
(``_table``).  It also keeps its atoms with a derivative and their largest
``dr``.  A left atom of a product reads its leading terms off the right atoms,
and each left atom with a derivative one table; a table reads the cache once per
class of right atoms (function pattern on those axes and u parity).  The
leading terms of ``a*b`` and ``b*a`` cancel, so ``commutator`` forms both
orders in one pass without them, as tables hold none.
Beside ``EXP_BOUND``, ``PAIR_BOUND`` (2**12) bounds how many terms one pair
forms: on a miss, ``_mono_cross`` counts them from the key, the product over
the axes of d + 1 where a derivative of order d meets a phase winding or an r
power (min(d, p) + 1 for r**p, p a nonnegative integer, where the falling
factorial stops), and raises ``ValueError`` past the bound before it builds
any, so ``d/deta^20000*exp(i*eta)`` is refused at once.  It bounds the terms
of one pair, not the size of their coefficients, nor the products that a
power of a sum makes.
The atom constructors ``r_half_power``, ``r_power``, ``sqrt_r``, ``phase``,
``deriv`` and ``s_sym`` validate their arguments, then return a shared operator
from one bounded cache (``_constant``), and ``identity``, ``zero``, ``imag`` and
``u_sym`` module constants, so a constant keeps its hash and its tables across
calls.
Every product, binary, n-ary or a power, is one ``product`` pass.  ``fold``
is the one place where free single atoms (no derivative meets a function on its
own axis) fold in integers: ``product`` folds each adjacent pair through it, the
DSL a plain term.  Every sum and every rational factor is one ``linear_sum``
pass, linear in the atoms, where a number is a weight, never an operator.

``exact`` and ``exact_int`` are the package's one test of which numbers are
exact: ``int`` and ``Fraction``; a ``float`` raises ``TypeError`` everywhere.
``Record`` is the one base of the package's frozen records; ``Mono``, the
``terms()`` key, is a ``collections.namedtuple``, since a key is a tuple.
``OperatorExpr ** n`` takes any integer, in closed form for a single atom that
commutes with itself (``d/dr**2``, ``r*d/deta``); ``n < 0`` inverts only one
without derivatives (scalar, s, u, r power, phase), so ``u ** -1 == 2*s*u``.
"""

from __future__ import annotations

import struct
import sys
from collections import namedtuple
from collections.abc import Iterator, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm, log10, prod
from operator import attrgetter

Rational = int | Fraction

PHASE_AXES = ("eta", "alpha", "beta")
DERIV_AXES = ("r", "eta", "alpha", "beta")


def exact(value: Rational, name: str) -> Fraction:
    """``value`` as a ``Fraction``; any type but ``int`` and ``Fraction`` raises ``TypeError``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"{name} must be an exact rational (int or Fraction), got {type(value).__name__}")


def exact_int(value: Rational, name: str) -> int:
    """``value`` as an ``int``; a non-integral rational raises ``ValueError`` naming ``name``."""
    frac = value if isinstance(value, int) else exact(value, name)
    if frac.denominator != 1:
        raise ValueError(f"{name} must be an integer, got {frac}")
    return frac.numerator


def _over(*values: Fraction) -> tuple[int, ...]:
    """The numerators of ``values`` over g, the lcm of their denominators, then g."""
    g = lcm(*(v.denominator for v in values))
    return *(v.numerator * (g // v.denominator) for v in values), g


class Record:
    """Base of the package's frozen records, which behave as ``@dataclass(frozen=True)`` ones without importing
    ``dataclasses`` (with ``inspect``, ``ast``, ``dis`` and ``tokenize``, 7-12 ms of each CLI call).

    The fields are a subclass's annotations, in order; a class attribute of a field's name is its default.  The
    ``__init__`` generated for it stores them and calls ``__post_init__``, if any, which sets values with
    ``object.__setattr__``: a write to ``__dict__`` makes each later attribute read about three times slower
    (CPython 3.11).  ``repr``, ``==`` (within one class) and ``hash`` read the fields; no attribute can be set or
    deleted.
    """

    def __init_subclass__(cls):
        fields = cls._fields = tuple(cls.__annotations__)
        cls._key = attrgetter(*fields)
        params = ", ".join(f"{f}=defaults[{f!r}]" if f in vars(cls) else f for f in fields)
        body = "".join(f"\n    store(self, {f!r}, {f})" for f in fields)
        post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        namespace = {"defaults": vars(cls), "store": object.__setattr__}
        exec(f"def __init__(self, {params}):{body}{post}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"  # as a TypeError over its arguments names it

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __eq__(self, other) -> bool:
        return self._key(self) == other._key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


Mono = namedtuple("Mono", "r2 ke ka kb dr de da db")
Mono.__doc__ = """Exponent pattern of one normal-ordered monomial.

``r2`` counts half-powers of r (so r**(r2/2)); ``ke``, ``ka``, ``kb`` are
phase windings; ``dr``, ``de``, ``da``, ``db`` are derivative orders.
"""


# -- packed atom keys (the layout is in the module docstring) ---------------

EXP_BOUND = 2**24
# the interaction terms one atom pair may form (module docstring): one pass of the tests, the goldens and the
# benchmark workloads forms at most 400, and the tests' random triple products can reach 7**4 = 2401
PAIR_BOUND = 2**12
_FIELDS = struct.Struct(">9i")  # r2, ke, ka, kb, dr, de, da, db, s_power
_HALF, _FIELD = 1 << 31, (1 << 32) - 1
_SHIFTS = tuple(2 + 32 * i for i in range(8, -1, -1))
_R2, _, _, _, _DR, _DE, _DA, _DB, _SP = _SHIFTS
_BIAS = sum(_HALF << shift for shift in _SHIFTS)  # the key of the unit atom; ^ flips each int32's sign bit
_FUNCS, _DERIVS = (sum(_FIELD << shift for shift in part) for part in (_SHIFTS[:4], _SHIFTS[4:8]))
_U2 = 2 + (1 << _SP)  # u**2 = 1/(2*s): u parity 2 to 0, one s power down
_LOW = sum(_HALF - EXP_BOUND << shift for shift in _SHIFTS)
_GUARD = sum((_FIELD ^ 2 * EXP_BOUND - 1) << shift for shift in _SHIFTS)
_NONZERO = sum(_HALF - 1 << shift for shift in _SHIFTS[4:8])  # sets bit 31 of each nonzero derivative order
_LETTERS = dict(zip((*Mono._fields, "s_power", "u_parity"), (*_SHIFTS, 0)))  # each letter's shift in a key


def _pack(mono: Sequence[int], sp: int, up: int) -> int:
    """The key of the atom ``(mono, sp, up)``; a ``ValueError`` names a field outside the bound."""
    values = (*mono, sp)
    if not -EXP_BOUND <= min(values) <= max(values) < EXP_BOUND:
        name, value = next((name, v) for name, v in zip(_LETTERS, values) if not -EXP_BOUND <= v < EXP_BOUND)
        raise ValueError(f"{name} = {value} is outside the exponent bound [-2**24, 2**24)")
    return (int.from_bytes(_FIELDS.pack(*values), "big") << 2 ^ _BIAS) + up


def _unpack(key: int) -> tuple[tuple[int, ...], int, int]:
    """The atom ``(mono, sp, up)`` of a key, ``mono`` a plain 8-tuple in ``Mono`` field order."""
    *mono, sp = _FIELDS.unpack(((key ^ _BIAS) >> 2).to_bytes(_FIELDS.size, "big"))
    return tuple(mono), sp, key & 1


def _phase_pass(d: int, k: int) -> tuple[tuple[int, int, int], ...]:
    # (d/dv)**d commuted past exp(i*k*v): sum_j C(d,j) (i*k)**(d-j) (d/dv)**j,
    # as (j, re, im) with i**p = (-1)**(p//2) * (i if p is odd else 1)
    if k == 0 or d == 0:
        return ((d, 1, 0),)
    out = []
    for j in range(d + 1):
        p = d - j
        c = comb(d, j) * k**p * (-1) ** (p // 2)
        out.append((j, 0, c) if p % 2 else (j, c, 0))
    return tuple(out)


# a bound on memory, not a tuning: the paper's sets and seeded DSL streams use
# a few hundred keys
@lru_cache(maxsize=4096)
def _mono_cross(key: int) -> tuple[tuple[int, int, int], ...]:
    """Interaction terms of left derivative orders with right function exponents, ``key`` being
    ``(k1 ^ _BIAS) & _DERIVS | (k2 ^ _BIAS) & _FUNCS`` for left and right atom keys (a zero field reads 0).
    Each entry is ``(delta, re, im)``: the key's offset from the leading term's, and a
    Gaussian-integer coefficient over ``2**dr``.  The leading term is not listed: a free pair gets ``()``.
    A pair that would form more than ``PAIR_BOUND`` terms, the leading one counted, raises ``ValueError``
    before any is built.
    """
    (r2, ke, ka, kb, dr, de, da, db), _, _ = _unpack(key ^ _BIAS)
    # d + 1 terms on a phase axis with a winding, and on r, where an even r2 >= 0 stops the falling factorial
    count = prod(d + 1 for d, k in ((de, ke), (da, ka), (db, kb)) if k)
    count *= (min(dr, r2 // 2) if r2 >= 0 and r2 % 2 == 0 else dr) + 1
    if count > PAIR_BOUND:
        raise ValueError(f"a product of two atoms would form {count} interaction terms, "
                         f"past the pair bound PAIR_BOUND = {PAIR_BOUND}")
    phases = []
    for je, a, b in _phase_pass(de, ke):
        for ja, c, d in _phase_pass(da, ka):
            x, y = a * c - b * d, a * d + b * c
            for jb, e, f in _phase_pass(db, kb):
                # je/ja/jb count the derivatives left over after commuting
                # past the phase factor
                phases.append(((je - de << _DE) + (ja - da << _DA) + (jb - db << _DB), x * e - y * f, x * f + y * e))
    out = []
    # falling = prod(r2 - 2i, i < jr) = 2**jr times the falling factorial of r2/2
    falling = 1
    for jr in range(dr + 1):
        if jr:
            falling *= r2 - 2 * (jr - 1)
            if not falling:
                break
        fr = comb(dr, jr) * falling << (dr - jr)
        for offset, re, im in phases:
            if jr or offset:
                out.append((offset - (2 * jr << _R2) - (jr << _DR), fr * re, fr * im))
    return tuple(out)


Atom = int  # a packed atom key
Gauss = tuple  # (re: int, im: int), a Gaussian integer


def _lowest(acc: dict[Atom, Sequence[int]], den: int) -> tuple[dict[Atom, Gauss], int]:
    """Drop cancelled atoms, then divide ``acc`` and ``den`` by their gcd; each kept pair becomes a tuple.

    With ``den == 0`` this divides ``acc`` by its integer content.
    """
    terms = {}
    g = den
    for key, (re, im) in acc.items():
        if re or im:
            terms[key] = (re, im)
            if g != 1:
                g = gcd(g, re, im)
    if g > 1:
        terms = {key: (re // g, im // g) for key, (re, im) in terms.items()}
        den //= g
    return terms, den


def fold(forms: Sequence[tuple]) -> tuple | None:
    """The atom form of the product of atom forms, in order, or None at the first step that is not free.
    Each step adds keys and tests the bound: a field past it is ``_pack``'s ``ValueError`` before it carries."""
    key, re, im, den = forms[0]
    for k2, a, b, d in forms[1:]:
        derivs = (key ^ _BIAS) & _DERIVS
        if derivs and (funcs := (k2 ^ _BIAS) & _FUNCS) and _mono_cross(derivs | funcs):
            return None
        uu = key & k2 & 1
        key += k2 - _BIAS - uu * _U2  # u**2 = 1/(2*s)
        if key - _LOW & _GUARD:
            _pack(*_unpack(key))  # raises, naming the field outside the bound
        if b or a != d or uu:  # a coefficient other than 1, such as 2/3, i or u^-1 = 2*s*u
            re, im, den = re * a - im * b, re * b + im * a, den * d << uu
    return key, re, im, den


def _table(op: "OperatorExpr", sig: int) -> tuple[tuple[int, int, int], ...]:
    """Every interaction term a left atom of signature ``sig`` (derivative orders | u parity) meets in ``op``, as
    ``(offset, re, im)``: the offset from the left key, ``-_U2`` of u·u in it, over ``2**(dr + 1) * op._den``.  Only
    right atoms with a function on an axis of ``sig``'s derivatives are read; terms at one offset are summed, and a
    zero sum is dropped."""
    # the function fields on the axes of sig's derivatives: adding _NONZERO sets bit 31 of each nonzero order,
    # which * _FIELD spreads over its field and the shift moves to the function field of its axis
    axes = (((sig & _DERIVS) + _NONZERO & _BIAS) >> 31) * _FIELD << _R2 - _DR
    merged, classes = {}, {}  # offset: [re, im]; function exponents | u parity: the class's _mono_cross terms
    get = merged.get
    for k2, (a2, b2) in op._terms.items():
        if funcs := (k2 ^ _BIAS) & axes:  # without a function on a derivative's axis, no interaction
            cross = classes.get(funcs | k2 & 1)
            if cross is None:
                uu = sig & k2 & 1  # u**2 = 1/(2*s): one factor 2 fewer
                cross = classes[funcs | k2 & 1] = [(delta - uu * _U2 - _BIAS, gr << 1 - uu, gi << 1 - uu)
                                                   for delta, gr, gi in _mono_cross(sig & _DERIVS | funcs)]
            for delta, gr, gi in cross:
                offset, cx, cy = delta + k2, gr * a2 - gi * b2, gr * b2 + gi * a2
                if (cur := get(offset)) is None:
                    merged[offset] = [cx, cy]
                else:
                    cur[0] += cx
                    cur[1] += cy
    return tuple((offset, re, im) for offset, (re, im) in merged.items() if re or im)


def _derivative_atoms(op: "OperatorExpr") -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``(top, atoms)``, kept by ``op``: its largest ``dr`` (0 without one) and its atoms with a derivative, as
    ``(key, re, im, sig, dr)``, ``sig`` the signature a table is keyed by."""
    atoms, top = [], 0
    for k1, (a1, b1) in op._terms.items():
        if (sig := (k1 ^ _BIAS) & _DERIVS | k1 & 1) > 1:  # derivative orders | u parity, with a derivative
            dr = (k1 >> _DR & _FIELD) - _HALF
            atoms.append((k1, a1, b1, sig, dr))
            top = max(top, dr)
    kept = top, tuple(atoms)
    _set_lefts(op, kept)
    return kept


def _normal_order(a: "OperatorExpr", b: "OperatorExpr", commute: bool) -> "OperatorExpr":
    """``a*b``, or with ``commute`` the commutator ``a*b - b*a``, in one sum: each left atom of a product adds its
    leading terms off the right atoms, then each left atom with a derivative, as its operand keeps them
    (``_derivative_atoms``), reads the right operand's table for its signature.  All terms go over ``den_a * den_b
    * 2**(top + 1)``, ``top`` the largest left ``dr``: a left numerator is lifted by ``top + 1`` for a leading term
    and by ``top - dr`` for a table's, which is over ``2**(dr + 1) * den_b``."""
    top, atoms = a._lefts or _derivative_atoms(a)
    passes = [(atoms, b, 1)]
    if commute:
        top_b, atoms_b = b._lefts or _derivative_atoms(b)
        top = max(top, top_b)
        passes.append((atoms_b, a, -1))
    acc: dict[Atom, list] = {}  # mutable [re, im] sums, made tuples by _lowest
    get = acc.get
    if not commute:  # the leading terms, which cancel in a commutator
        rights = b._terms.items()
        for k1, (a1, b1) in a._terms.items():
            x, y, u = a1 << top + 1, b1 << top + 1, k1 & 1
            for k2, (a2, b2) in rights:
                key, cx, cy = k1 + k2 - _BIAS, x * a2 - y * b2, x * b2 + y * a2
                if u & k2:  # u**2 = 1/(2*s)
                    key, cx, cy = key - _U2, cx >> 1, cy >> 1
                cur = get(key)
                if cur is None:
                    acc[key] = [cx, cy]
                else:
                    cur[0] += cx
                    cur[1] += cy
    for atoms, right, sign in passes:
        if not atoms:  # no derivative, no interaction
            continue
        if (tables := right._tables) is None:
            _set_tables(right, tables := {})
        for k1, a1, b1, sig, dr in atoms:
            if (table := tables.get(sig)) is None:
                if len(tables) >= 64:  # a bound on memory, not a tuning: a workload operand holds at most 11
                    tables.clear()
                table = tables[sig] = _table(right, sig)
            re, im = sign * a1 << top - dr, sign * b1 << top - dr
            for offset, gr, gi in table:
                key, cx, cy = k1 + offset, re * gr - im * gi, re * gi + im * gr
                cur = get(key)
                if cur is None:
                    acc[key] = [cx, cy]
                else:
                    cur[0] += cx
                    cur[1] += cy
    for key in acc:
        if key - _LOW & _GUARD:
            _pack(*_unpack(key))  # raises, naming the field outside the bound
    return OperatorExpr._wrap(*_lowest(acc, a._den * b._den << top + 1))


def _atom_key(key) -> Atom:
    """The packed key of an atom ``(mono, s_power, u_parity)`` of integers, or a ``TypeError`` or ``ValueError``
    naming the field: a mono of 8 integers, no negative derivative order, no exponent outside the bound."""
    if not isinstance(key, tuple) or len(key) != 3:
        raise TypeError(f"atom key must be a (mono, s_power, u_parity) triple, got {key!r}")
    mono, sp, up = key
    if not isinstance(mono, tuple) or len(mono) != len(Mono._fields):
        raise TypeError(f"mono must be a tuple of the 8 integers {', '.join(Mono._fields)}, got {mono!r}")
    mono = tuple(exact_int(x, name) for x, name in zip(mono, Mono._fields))
    sp, up = exact_int(sp, "s_power"), exact_int(up, "u_parity")
    if min(mono[4:]) < 0:
        raise ValueError("derivative order must be nonnegative")
    if up not in (0, 1):
        raise ValueError("u parity must be 0 or 1")
    return _pack(mono, sp, up)


class OperatorExpr:
    """Immutable normal-ordered sum of atoms ``g * s**s_power * u**u_parity * mono``.

    Stored as one map from the packed key of ``(mono, s_power, u_parity)`` to
    the nonzero Gaussian-integer numerator ``(re, im)`` of ``g``, with
    ``u_parity`` in {0, 1}, plus one positive denominator shared by every atom,
    in lowest terms.  ``terms()`` and ``atoms()`` unpack the keys.
    ``OperatorExpr(mapping)`` takes ``int`` or ``Fraction`` values, or
    ``(re, im)`` pairs of them, checks each key (``_atom_key``) and finds the
    common denominator itself, so ``OperatorExpr(dict(e.terms())) == e``.
    """

    __slots__ = ("_terms", "_den", "_hash", "_tables", "_lefts")

    def __init__(self, terms: Mapping[Atom, "Rational | tuple[Rational, Rational]"] | None = None):
        values: dict[Atom, tuple[Fraction, Fraction]] = {}
        for key, value in (terms or {}).items():
            key = _atom_key(key)
            # a tuple of any other length reaches exact() whole and is refused there
            re, im = value if isinstance(value, tuple) and len(value) == 2 else (value, 0)
            values[key] = (exact(re, "coefficient"), exact(im, "coefficient"))
        den = lcm(1, *(part.denominator for pair in values.values() for part in pair))
        acc = {key: ((re * den).numerator, (im * den).numerator) for key, (re, im) in values.items()}
        clean, den = _lowest(acc, den)
        _set_terms(self, clean)
        _set_den(self, den)
        _set_hash(self, None)
        _set_tables(self, None)
        _set_lefts(self, None)

    @classmethod
    def _wrap(cls, clean: dict[Atom, Gauss], den: int) -> "OperatorExpr":
        # adopt a map and denominator already in lowest terms, skipping the checks
        out = object.__new__(cls)
        _set_terms(out, clean)
        _set_den(out, den)
        _set_hash(out, None)
        _set_tables(out, None)
        _set_lefts(out, None)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("OperatorExpr is immutable")

    # -- inspection ------------------------------------------------------

    def terms(self) -> tuple[tuple[Atom, tuple[Fraction, Fraction]], ...]:
        """The ``((mono, s_power, u_parity), (re, im))`` pairs, sorted by atom.

        ``re`` and ``im`` are the ``Fraction`` parts of the atom's coefficient.
        """
        return tuple(((Mono._make(mono), sp, up), (Fraction(re, den), Fraction(im, den)))
                     for mono, sp, up, re, im, den in sorted(self.atoms()))

    def atoms(self) -> list[tuple]:
        """The atom forms ``(mono, s_power, u_parity, re, im, den)``, in no set order."""
        den = self._den
        return [(*_unpack(key), re, im, den) for key, (re, im) in self._terms.items()]

    def flatten(self) -> Iterator[tuple[Mono, int, int, tuple[Fraction, Fraction]]]:
        """``terms()`` as ``(mono, s_power, u_parity, (re, im))``; read by perfbench/tracer.py."""
        for (mono, sp, up), pair in self.terms():
            yield mono, sp, up, pair

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring operations -------------------------------------------------

    def _combine(self, other, sign: int, other_sign: int) -> "OperatorExpr":
        # sign*self + other_sign*other; a number is a weight on the unit atom
        if isinstance(other, (int, Fraction)):
            other, other_sign = _ONE, other_sign * other
        elif not isinstance(other, OperatorExpr):
            return NotImplemented
        return linear_sum(((self, sign), (other, other_sign)))

    def __add__(self, other) -> "OperatorExpr":
        return self._combine(other, 1, 1)

    __radd__ = __add__

    def __neg__(self) -> "OperatorExpr":
        return OperatorExpr._wrap({key: (-re, -im) for key, (re, im) in self._terms.items()}, self._den)

    def __sub__(self, other) -> "OperatorExpr":
        return self._combine(other, 1, -1)

    def __rsub__(self, other) -> "OperatorExpr":
        return self._combine(other, -1, 1)

    def __mul__(self, other) -> "OperatorExpr":
        if isinstance(other, OperatorExpr):
            return product((self, other))
        return self.__rmul__(other)

    def __rmul__(self, other) -> "OperatorExpr":
        # a number is a weight, and commutes with everything
        if isinstance(other, (int, Fraction)):
            return linear_sum(((self, other),))
        return NotImplemented

    def __pow__(self, exponent: int) -> "OperatorExpr":
        """``self**exponent``; ``exponent < 0`` inverts a single atom without derivatives."""
        e = exact_int(exponent, "exponent")
        if len(self._terms) == 1:
            power = atom_power(_form(self), e)
            if power is not None:
                return _atom(*power)
        elif e < 0:
            raise ValueError("cannot invert a sum of operator terms" if self._terms else "cannot invert zero")
        squares, base = [], self  # self**(2**k) for each set bit k of e, multiplied in one product
        while e:
            if e & 1:
                squares.append(base)
            base = base * base if e > 1 else base
            e >>= 1
        return product(squares)

    # -- substitution ----------------------------------------------------

    def substitute_s(self, value: Rational) -> "OperatorExpr":
        """Replace the formal symbol s by a positive rational, exactly: the atoms weighted by ``value**s_power``."""
        val = exact(value, "value")
        if val <= 0:
            raise ValueError("s stands for sqrt(-lambda) and must be positive")
        if any(key & 1 for key in self._terms):
            raise ValueError("coefficient contains the formal unit u; its value (2*s)**(-1/2) is irrational "
                             "for generic s")
        return rewrite(self, {"s_power": scalar(val)})

    # -- equality --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self._den, frozenset(self._terms.items())))
            _set_hash(self, h)
        return h

    def __repr__(self) -> str:
        try:
            from . import opdsl

            return opdsl.render(self)
        except ValueError:  # render refuses a coefficient past the int string digit limit
            return f"<OperatorExpr {len(self._terms)} terms>"


# the slots' own setters, which the immutability guard in __setattr__ does not see
_set_terms, _set_den, _set_hash, _set_tables, _set_lefts = (OperatorExpr.__dict__[name].__set__
                                                          for name in OperatorExpr.__slots__)
_ONE = OperatorExpr._wrap({_BIAS: (1, 0)}, 1)  # the unit atom: identity(), and a number's atom in a sum
_ZERO = OperatorExpr._wrap({}, 1)  # zero()
_I, _U = OperatorExpr._wrap({_BIAS: (0, 1)}, 1), OperatorExpr._wrap({_BIAS + 1: (1, 0)}, 1)  # imag(), u_sym()


def _operand(value, name: str) -> OperatorExpr:
    """``value``; any value that is no ``OperatorExpr`` raises ``TypeError`` naming ``name`` and its type."""
    if not isinstance(value, OperatorExpr):
        raise TypeError(f"{name} must be an OperatorExpr, got {type(value).__name__}")
    return value


# -- constructors --------------------------------------------------------


def _atom(key: Atom, re: int = 1, im: int = 0, den: int = 1) -> OperatorExpr:
    """The one-atom operator of the atom form ``(key, re, im, den)``: ``(re + im*i)/den`` times the atom."""
    return OperatorExpr._wrap(*_lowest({key: (re, im)}, den))


def _form(expr: OperatorExpr) -> tuple:
    """The atom form ``(key, re, im, den)`` of a one-atom operator."""
    (key, (re, im)), = expr._terms.items()
    return key, re, im, expr._den


def zero() -> OperatorExpr:
    return _ZERO


def identity() -> OperatorExpr:
    return _ONE


# a bound on memory, not a tuning: paper-identities reads 17 constants, and 40
# dsl-stream and 200 coulomb-checks decks (seed 1) add 161 phases and r powers
@lru_cache(maxsize=1024)
def _constant(fields: tuple[int, ...], sp: int, up: int) -> OperatorExpr:
    """The shared operator of the atom ``(fields, sp, up)`` of validated integers; ``_pack``'s error is not cached."""
    return _atom(_pack(fields, sp, up))


def scalar(value: Rational) -> OperatorExpr:
    value = exact(value, "coefficient")
    return _atom(_BIAS, value.numerator, 0, value.denominator)


def imag() -> OperatorExpr:
    return _I


def s_sym(power: int = 1) -> OperatorExpr:
    return _constant((0,) * 8, exact_int(power, "power"), 0)


def u_sym() -> OperatorExpr:
    return _U


def r_half_power(halves: int) -> OperatorExpr:
    """r**(halves/2); use halves=2 for r itself, halves=1 for sqrt(r)."""
    return _constant((exact_int(halves, "halves"), 0, 0, 0, 0, 0, 0, 0), 0, 0)


def r_power(power: Rational) -> OperatorExpr:
    halves = 2 * exact(power, "power")
    if halves.denominator != 1:
        raise ValueError("only half-integer powers of r are representable")
    return r_half_power(halves.numerator)


def sqrt_r() -> OperatorExpr:
    return r_half_power(1)


def phase(axis: str, winding: int) -> OperatorExpr:
    """exp(i*winding*axis) for axis in {eta, alpha, beta}."""
    if axis not in PHASE_AXES:
        raise ValueError(f"unknown phase axis {axis!r}")
    k = [0, 0, 0]
    k[PHASE_AXES.index(axis)] = exact_int(winding, "winding")
    return _constant((0, *k, 0, 0, 0, 0), 0, 0)


def deriv(axis: str, order: int = 1) -> OperatorExpr:
    if axis not in DERIV_AXES:
        raise ValueError(f"unknown derivative axis {axis!r}")
    order = exact_int(order, "order")
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    d = [0, 0, 0, 0]
    d[DERIV_AXES.index(axis)] = order
    return _constant((0, 0, 0, 0, *d), 0, 0)


# -- derived operations --------------------------------------------------


def linear_sum(pairs: Sequence[tuple["OperatorExpr | tuple", Rational]]) -> OperatorExpr:
    """``sum(w * x for x, w in pairs)`` of operators and atom forms, ``w`` an ``int`` or
    ``Fraction``: every numerator is lifted once to the lcm of the denominators and reduced
    once, linear in the atoms."""
    den = 1
    try:
        for x, w in pairs:
            den = lcm(den, (x[3] if type(x) is tuple else x._den) * w.denominator)
    except AttributeError:  # a weight without a denominator, such as a float: exact() names it
        for _, w in pairs:
            exact(w, "weight")
        raise
    acc: dict[Atom, Gauss] = {}
    get = acc.get
    for x, w in pairs:
        if type(x) is tuple:  # an atom form
            key, re, im, d = x
            items = ((key, (re, im)),)
        else:
            items, d = x._terms.items(), x._den
        f = w.numerator * (den // (d * w.denominator))
        for key, (re, im) in items:
            cur = get(key)
            acc[key] = (re * f, im * f) if cur is None else (cur[0] + re * f, cur[1] + im * f)
    return OperatorExpr._wrap(*_lowest(acc, den))


def product(factors: Sequence["OperatorExpr | tuple"]) -> OperatorExpr:
    """``f1 * f2 * ...`` of operators and atom forms, the route of every ``*`` and ``**``:
    a run of free single atoms folds in plain integers to one atom, and other factors
    take the product loop."""
    pieces: list = []  # operators, and atom forms
    last = None  # the last piece as an atom form, while it is one atom
    for f in factors:
        atom = f if type(f) is tuple else None
        if atom is None and len(f._terms) == 1:
            atom = _form(f)
        folded = last and atom and fold((last, atom))
        if folded:
            last = pieces[-1] = folded
            continue
        last = atom
        pieces.append(f)
    out = None
    for piece in pieces:
        piece = _atom(*piece) if type(piece) is tuple else piece
        out = piece if out is None else _normal_order(out, piece, False)
    return identity() if out is None else out


def atom_power(atom: tuple, e: int) -> tuple | None:
    """``atom**e`` for an atom form, as an atom form; None if ``e >= 0`` and the atom does
    not commute with itself.  ``e < 0`` inverts only a nonzero atom without derivatives.  A coefficient
    past int's string digit limit (if one is set), then an exponent outside the bound, raises before it is built."""
    key, re, im, den = atom
    mono, sp, up = _unpack(key)
    if e < 0:
        if not (re or im):
            raise ValueError("cannot invert zero")
        if any(mono[4:]):
            raise ValueError("cannot invert an operator containing derivatives")
        # den/(re + im*i) = den*(re - im*i)/(re**2 + im**2)
        re, im, den = den * re, -den * im, re * re + im * im
    elif _mono_cross((key ^ _BIAS) & (_DERIVS | _FUNCS)):
        return None
    # x*x is free, so x commutes with itself and every exponent scales by e;
    # u**(up*e) = u**((up*e) mod 2) * (2*s)**-((up*e) div 2)
    q, up_e = divmod(up * e, 2)
    g = gcd(re, im, den)  # in lowest terms, (2/2)**e is 1**e
    re, im, den, n = re // g, im // g, den // g, abs(e)
    big, small = sorted((abs(re), abs(im)), reverse=True)
    limit = sys.get_int_max_str_digits()  # 0 when unlimited
    if limit and (_past_digits(big, small, n, -q, limit) or _past_digits(den, 0, n, q, limit)):
        raise ValueError(f"a result coefficient has more than {limit} digits")
    key = _pack([k * e for k in mono], sp * e - q, up_e)
    out_re, out_im = 1, 0
    while n:  # (re + im*i)**abs(e) by repeated squaring
        if n & 1:
            out_re, out_im = out_re * re - out_im * im, out_re * im + out_im * re
        n >>= 1
        if n:  # no square past the last bit
            re, im = re * re - im * im, 2 * re * im
    lift = max(-q, 0)
    return key, out_re << lift, out_im << lift, den ** abs(e) << max(q, 0)


def _past_digits(big: int, small: int, n: int, lift: int, limit: int) -> bool:
    """Whether a nonzero ``|big + small*i|**n * 2**lift`` has more than ``limit`` digits,
    from logs, before it is built (the larger part has at most 0.16 digits fewer)."""
    if not big:
        return False
    # a base past 1 adds at least log10(sqrt(2)) digits a step: past 10 * limit steps the answer is fixed
    n, lift = min(n, 10 * limit), min(max(lift, 0), 10 * limit)
    return n * (log10(big) + log10(1 + (small / big) ** 2) / 2) + lift * log10(2) > limit


def commutator(a: "OperatorExpr | Rational", b: "OperatorExpr | Rational") -> OperatorExpr:
    """``a*b - b*a``, formed without the leading terms that cancel between the two."""
    a, b = (x if isinstance(x, OperatorExpr) else scalar(x) for x in (a, b))
    return _normal_order(a, b, True)


def rewrite(op: OperatorExpr, images: Mapping[str, OperatorExpr]) -> OperatorExpr:
    """``op`` with each letter named in ``images`` (a ``Mono`` field, ``s_power`` or ``u_parity``) standing for its
    image and every other letter for itself: one ``product`` per atom of its coefficient and its letters' images
    raised to their exponents, in normal order (s and u are central), summed in one ``linear_sum``.  A key naming
    no letter is refused with a ``ValueError``, an ``op`` or image that is no operator with a ``TypeError``, each
    naming it."""
    _operand(op, "op")
    for name, image in images.items():
        if name not in _LETTERS:
            raise ValueError(f"image key {name!r} names no letter: the letters are {', '.join(_LETTERS)}")
        _operand(image, f"image of {name!r}")
    parts = []
    for mono, sp, up, re, im, den in op.atoms():
        factors = [images[name] ** e if name in images else (_BIAS + (e << shift), 1, 0, 1)
                   for (name, shift), e in zip(_LETTERS.items(), (*mono, sp, up)) if e]
        parts.append((product([(_BIAS, re, im, den), *factors]), 1))
    return linear_sum(parts)


def swap_alpha_beta(expr: OperatorExpr) -> OperatorExpr:
    """Exchange the alpha and beta angle variables."""
    return rewrite(expr, {"ka": phase("beta", 1), "kb": phase("alpha", 1), "da": deriv("beta"), "db": deriv("alpha")})


# -- linear span and Lie closure ----------------------------------------


class ClosureReport(Record):
    dimension: int
    closed: bool
    max_dim: int
    commutators_tested: int


def _eliminate(vec: dict[Atom, Gauss], p: Gauss, c: Gauss, row: dict[Atom, Gauss]) -> dict[Atom, Gauss]:
    """``p*vec - c*row`` over the Gaussian integers, divided by its integer content."""
    (pr, pi), (cr, ci) = p, c
    out = {key: (pr * a - pi * b, pr * b + pi * a) for key, (a, b) in vec.items()}
    for key, (a, b) in row.items():
        x, y = out.get(key, (0, 0))
        out[key] = (x - cr * a + ci * b, y - cr * b - ci * a)
    return _lowest(out, 0)[0]


def _insert(rows: list[tuple[Atom, dict[Atom, Gauss]]], vec: dict[Atom, Gauss]) -> bool:
    """Append ``vec`` to ``rows``, a fraction-free row echelon of ``(pivot, row)`` over the Gaussian
    integers, if it lies outside their span; never mutates ``vec``.

    Eliminating a row from a vector forms ``p*vec - c*row``, with ``p`` the
    row's pivot entry and ``c`` the vector's entry there, and divides the
    result by its integer content (fraction-free elimination after Bareiss,
    Math. Comp. 22 (1968) 565).  Each row is zero at the pivots of the rows
    before it, so one pass in insertion order reduces a vector.
    """
    for pivot, row in rows:
        c = vec.get(pivot)
        if c:
            vec = _eliminate(vec, row[pivot], c, row)
    if not vec:
        return False
    rows.append((min(vec), vec))
    return True


def closure_check(basis: Sequence["OperatorExpr | Rational"], max_dim: int) -> ClosureReport:
    """Close a set of operators under commutators, tracking span dimension.

    Returns a failure report (closed=False) as soon as the running span
    dimension exceeds ``max_dim``; raises only on invalid arguments.
    """
    ops = [x if isinstance(x, OperatorExpr) else scalar(x) for x in basis]  # a number as commutator reads it
    max_dim = exact_int(max_dim, "max_dim")
    if not ops:
        raise ValueError("closure_check requires a non-empty basis")
    if max_dim < len(ops):
        raise ValueError("max_dim must be at least the basis size")
    rows: list[tuple[Atom, dict[Atom, Gauss]]] = []  # only their number, the dimension, is read
    independent: list[OperatorExpr] = []
    for op in ops:
        if _insert(rows, op._terms):
            independent.append(op)
    tested = 0
    pending = [(i, j) for j in range(len(independent)) for i in range(j)]
    while pending:
        i, j = pending.pop()
        tested += 1
        comm = commutator(independent[i], independent[j])
        if comm.is_zero:
            continue
        if _insert(rows, comm._terms):
            if len(rows) > max_dim:
                return ClosureReport(len(rows), False, max_dim, tested)
            new_index = len(independent)
            independent.append(comm)
            pending.extend((k, new_index) for k in range(new_index))
    return ClosureReport(len(rows), True, max_dim, tested)

"""Sums of r-th roots of unity, compared exactly.

A sum of powers of zeta_r is kept as exponent counts modulo x^r - 1 and
reduced modulo the r-th cyclotomic polynomial Phi_r only to compare, hash or
print.  That is all the root-of-unity kernel identities need: add, scale and
ask whether a sum of powers of zeta_r is zero, as an exact statement instead
of a floating-point approximation.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import isqrt, prod
from operator import sub

from .errors import InstanceTooLarge, InvalidParameters
from .hypergraph import VertexVector, _checked_int
from .linalg import exact_rational

Rationalish = int | Fraction

# list cells, trial divisions and subtractions one reduction may take
REDUCTION_BOUND = 2_000_000


def _prime_factors(r: int) -> list[int]:
    """The distinct primes of r, by trial division up to the square root of
    what is left."""
    primes, rest, p = [], r, 2
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        primes.append(rest)
    return primes


@lru_cache(maxsize=None)
def _phi_coeffs(r: int) -> tuple[int, ...]:
    """Phi_r, low degree first, as Phi_m(x^(r/m)) with m = rad(r) and, for m > 1,
    Phi_m = prod over d | m of (1 - x^d)^mu(m/d) as an integer power series cut
    after degree phi(m): a factor 1 - x^d is one subtraction pass, its inverse
    a prefix sum with stride d."""
    if r == 1:
        return (-1, 1)
    primes = _prime_factors(r)
    degree = prod(p - 1 for p in primes)
    series = [1] + [0] * degree
    for size in range(len(primes) + 1):
        for d in map(prod, itertools.combinations(primes, size)):
            if (len(primes) - size) % 2 == 0:  # mu(m/d) = 1; a no-op for d > phi(m)
                series[d:] = map(sub, series[d:], series[:-d])
            else:
                for s in range(min(d, degree)):
                    series[s::d] = itertools.accumulate(series[s::d])
    step = r // prod(primes)
    spread = [0] * (degree * step + 1)
    spread[::step] = series
    return tuple(spread)


def _remainder(terms: dict, r: int) -> list:
    """The sum of c * x**e over ``terms`` modulo Phi_r, low degree first and
    trimmed, worked out in a list as long as the top exponent plus one.

    Only exponents from phi(r) up are reduced, each through the non-zero
    coefficients of Phi_r below its lead; Phi_r = Phi_m(x^(r/m)) has at most
    phi(m) + 1 of them, m = rad(r).  A top exponent below sqrt(r/2) <= phi(r)
    needs no reduction and no factoring.  The work (the list, the trial
    division, the series of Phi_m and the subtractions) is counted before it
    starts and refused above ``REDUCTION_BOUND``."""
    top = max(terms, default=0)
    phi = work = top + 1  # phi(r) > top, unless r is factored below
    if 2 * top * top >= r:
        work += isqrt(r)
        if work <= REDUCTION_BOUND:
            primes = _prime_factors(r)
            phi_m = prod(p - 1 for p in primes)
            phi = phi_m * (r // prod(primes))
            if top >= phi:
                work += (phi_m + 1 << len(primes)) + (top - phi + 1) * phi_m
    if work > REDUCTION_BOUND:
        raise InstanceTooLarge(
            f"reducing a sum of roots of unity modulo Phi_r takes more than {REDUCTION_BOUND} steps"
        )
    poly = [0] * (top + 1)
    for e, c in terms.items():
        poly[e] = c
    if top >= phi:
        low = [(j, c) for j, c in enumerate(_phi_coeffs(r)[:phi]) if c]
        for shift in range(top - phi, -1, -1):
            c = poly.pop()  # x^(shift + phi) = -(Phi_r below its lead) * x^shift
            if c:
                for j, d in low:
                    poly[shift + j] -= c * d
    while poly and not poly[-1]:
        poly.pop()
    return poly


def cyclotomic_polynomial(r: int) -> tuple[int, ...]:
    """The integer coefficients of Phi_r, low degree first, from the binomials
    1 - x^d over the divisors d of rad(r)."""
    return _phi_coeffs(_checked_int(r, "cyclotomic order", 1))


def _rational(c) -> Rationalish:
    """``c`` as an int when its denominator is 1, as a Fraction otherwise."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _folded(terms: dict) -> dict:
    """Raw sums of coefficients normalized once: a coefficient that cancelled
    is dropped, and a whole Fraction becomes an int."""
    return {e: _rational(c) for e, c in terms.items() if c}


class CyclotomicNumber:
    """A rational sum of powers of zeta_r, an element of Q(zeta_r).

    The stored form maps each exponent in 0..r-1 to its non-zero rational
    coefficient (an int when its denominator is 1), a polynomial modulo
    x^r - 1: adding zeta_r**m to a sum updates one count.  That form is not
    unique, because Phi_r is a proper factor of x^r - 1.  ``coeffs``, the
    remainder modulo Phi_r (a trimmed tuple of Fractions, low degree first),
    is, so equality, hashing and printing go through it; it is computed on
    first use and kept.  ``+``, ``-``, ``*`` and ``==`` take ints, Fractions
    and numbers of the same order, but no bool; a constant equals the rational
    it is at any order.  The order is an int of at least 1, and the
    constructor reads each coefficient by ``exact_rational``, from a sequence
    that is no ``str``, ``bytes`` or ``bytearray``.
    """

    __slots__ = ("order", "_terms", "_coeffs")

    def __init__(self, order: int, coeffs):
        _checked_int(order, "cyclotomic order", 1)
        if isinstance(coeffs, (str, bytes, bytearray)):  # a sequence, but not of coefficients
            raise InvalidParameters(f"coefficients must be a sequence of rationals, got {coeffs!r}")
        terms: dict[int, Rationalish] = {}
        for i, c in enumerate(coeffs):
            terms[i % order] = terms.get(i % order, 0) + exact_rational(c)
        self.order = order
        self._terms = _folded(terms)
        self._coeffs = None

    @classmethod
    def _of_terms(cls, order: int, terms: dict) -> "CyclotomicNumber":
        """Wrap a terms map as it stands; it is never mutated afterwards."""
        x = object.__new__(cls)
        x.order = order
        x._terms = terms
        x._coeffs = None
        return x

    @classmethod
    def _row_sum(cls, products) -> CyclotomicNumber | Fraction:
        """The sum of c * x over the (c, x) pairs of one matrix row, or of the
        two operands of ``+`` or ``-``, c rational and x rational or a
        ``CyclotomicNumber``: every term is added raw into one terms map,
        rationals at exponent 0, which is ``_folded`` and wrapped once.  A row
        with only rational x sums to a Fraction."""
        order, terms = None, {}
        for c, x in products:
            if isinstance(x, CyclotomicNumber):
                if x.order != order:
                    if order is not None:
                        raise InvalidParameters(f"mixing cyclotomic orders {order} and {x.order}")
                    order = x.order
                for e, d in x._terms.items():
                    terms[e] = terms.get(e, 0) + c * d
            else:
                terms[0] = terms.get(0, 0) + c * x
        if order is None:
            return Fraction(terms.get(0, 0))
        return cls._of_terms(order, _folded(terms))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        if self._coeffs is None:
            self._coeffs = tuple(Fraction(c) for c in _remainder(self._terms, self.order))
        return self._coeffs

    def _coerce(self, other):
        """``other``'s terms, or None when ``other`` is not a number; a number
        of another order does not mix."""
        if isinstance(other, CyclotomicNumber):
            if other.order != self.order:
                raise InvalidParameters(
                    f"mixing cyclotomic orders {self.order} and {other.order}"
                )
            return other._terms
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return {0: _rational(other)} if other else {}
        return None

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        # a single term c * zeta**e with c != 0 is a unit, never zero
        return not self._terms if len(self._terms) < 2 else not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def rational_value(self) -> Fraction:
        if not self.is_constant():
            raise InvalidParameters("not a rational constant")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        if self._coerce(other) is None:
            return NotImplemented
        return CyclotomicNumber._row_sum(((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber._of_terms(self.order, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if self._coerce(other) is None:
            return NotImplemented
        return CyclotomicNumber._row_sum(((1, self), (-1, other)))

    def __rsub__(self, other):
        if self._coerce(other) is None:
            return NotImplemented
        return CyclotomicNumber._row_sum(((1, other), (-1, self)))

    def __mul__(self, other):
        terms = self._coerce(other)
        if terms is None:
            return NotImplemented
        order, out = self.order, {}
        for e1, c1 in self._terms.items():
            for e2, c2 in terms.items():
                e = (e1 + e2) % order
                out[e] = out.get(e, 0) + c1 * c2
        return CyclotomicNumber._of_terms(order, _folded(out))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, CyclotomicNumber):
            comparable = other.order == self.order or self.is_constant() and other.is_constant()
            return comparable and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            if not other:
                return self.is_zero()
            return self.is_constant() and self.rational_value() == other
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self.rational_value())
        return hash((self.order, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "Cyc(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z{self.order}")
            else:
                terms.append(f"{c}*z{self.order}^{i}")
        return "Cyc(" + " + ".join(terms) + ")"


def zeta(r: int, power: int = 1) -> CyclotomicNumber:
    """zeta_r**power: one term, at exponent power mod r."""
    _checked_int(r, "cyclotomic order", 1)
    return CyclotomicNumber._of_terms(r, {_checked_int(power, "power") % r: 1})


def zeta_power_table(r: int) -> list[CyclotomicNumber]:
    """zeta_r**m for m = 0..r-1, each built as its one term."""
    return [zeta(r, m) for m in range(r)]


def root_of_unity_vector(n: int, r: int, power: int) -> VertexVector:
    """The vector on residues 0..n-1 whose i-th entry is (zeta_r**power)**i.

    With power == r the root is 1 and this degenerates to the all-ones
    vector; powers 1..r-1 give the non-trivial roots.  One ``zeta`` is built
    per distinct exponent power * i mod r, never a table of all r, and the
    entries at one exponent are that one object.
    """
    _checked_int(n, "length n", 0)
    _checked_int(power, "power", 1, _checked_int(r, "root order", 2))
    exponents = [power * i % r for i in range(n)]
    roots = {e: zeta(r, e) for e in set(exponents)}
    return VertexVector({str(i): roots[e] for i, e in enumerate(exponents)})


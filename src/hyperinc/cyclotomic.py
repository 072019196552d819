"""Exact arithmetic in cyclotomic fields Q(zeta_r).

Elements are sums of powers of zeta_r, kept as exponent counts modulo
x^r - 1 and reduced modulo the r-th cyclotomic polynomial only to compare,
hash or print.  This is enough to check root-of-unity kernel identities
(sums of powers of zeta_r vanishing) as exact statements instead of
floating-point approximations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, prod
from operator import sub
from typing import Union

from .errors import InvalidParameters
from .hypergraph import VertexVector

Rationalish = Union[int, Fraction]


def _poly_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod(num, den):
    """Polynomial division; ``den`` must be monic in its leading coefficient."""
    num = list(num)
    q = [0] * max(0, len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        coeff = num[i + len(den) - 1]
        if coeff == 0:
            continue
        factor = coeff / lead if lead != 1 else coeff
        q[i] = factor
        for j, d in enumerate(den):
            num[i + j] -= factor * d
    return _poly_trim(q), _poly_trim(num)


@dataclass(frozen=True)
class CyclotomicPoly:
    """The r-th cyclotomic polynomial, integer coefficients, low degree first."""

    order: int
    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@lru_cache(maxsize=None)
def _phi_coeffs(r: int) -> tuple[int, ...]:
    """Phi_r, low degree first, as Phi_m(x^(r/m)) with m = rad(r) and, for m > 1,
    Phi_m = prod over d | m of (1 - x^d)^mu(m/d) as an integer power series cut
    after degree phi(m): a factor 1 - x^d is one subtraction pass, its inverse
    a prefix sum with stride d."""
    if r == 1:
        return (-1, 1)
    primes, rest = [], r
    for p in range(2, isqrt(r) + 1):
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
    if rest > 1:
        primes.append(rest)
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


def cyclotomic_polynomial(r: int) -> CyclotomicPoly:
    """Phi_r, from the binomials 1 - x^d over the divisors d of rad(r)."""
    if r < 1:
        raise InvalidParameters(f"cyclotomic order must be >= 1, got {r}")
    return CyclotomicPoly(r, _phi_coeffs(r))


def _rational(c) -> Rationalish:
    """``c`` as an int when its denominator is 1, as a Fraction otherwise."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _add_term(terms: dict, e: int, c: Rationalish) -> None:
    """Add c * x**e to ``terms`` in place, dropping a coefficient that cancels."""
    total = terms.get(e, 0) + c
    if total:
        terms[e] = _rational(total)
    else:
        del terms[e]


class CyclotomicNumber:
    """Element of Q(zeta_r), stored as a sum of powers of zeta_r.

    The stored form maps each exponent in 0..r-1 to its non-zero rational
    coefficient (an int when its denominator is 1), a polynomial modulo
    x^r - 1: adding zeta_r**m to a sum updates one count.  That form is not
    unique, because Phi_r is a proper factor of x^r - 1.  ``coeffs``, the
    reduction modulo Phi_r (a trimmed tuple of Fractions, low degree first),
    is, so equality, hashing and printing go through it; it is computed on
    first use and kept.  Mixed arithmetic with ints and Fractions treats them
    as constants of the same order, and a constant of another order is
    re-expressed at the other operand's.
    """

    __slots__ = ("order", "_terms", "_coeffs")

    def __init__(self, order: int, coeffs):
        if order < 1:
            raise InvalidParameters(f"cyclotomic order must be >= 1, got {order}")
        terms: dict[int, Rationalish] = {}
        for i, c in enumerate(coeffs):
            c = _rational(c)
            if c:
                _add_term(terms, i % order, c)
        self.order = order
        self._terms = terms
        self._coeffs = None

    @classmethod
    def _of_terms(cls, order: int, terms: dict) -> "CyclotomicNumber":
        """Wrap a terms map as it stands; it is never mutated afterwards."""
        x = object.__new__(cls)
        x.order = order
        x._terms = terms
        x._coeffs = None
        return x

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        if self._coeffs is None:
            poly = [0] * self.order
            for e, c in self._terms.items():
                poly[e] = c
            remainder = _poly_divmod(poly, _phi_coeffs(self.order))[1]
            self._coeffs = tuple(Fraction(c) for c in remainder)
        return self._coeffs

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(order: int) -> "CyclotomicNumber":
        return CyclotomicNumber(order, [])

    @staticmethod
    def one(order: int) -> "CyclotomicNumber":
        return CyclotomicNumber(order, [1])

    @staticmethod
    def constant(order: int, value: Rationalish) -> "CyclotomicNumber":
        return CyclotomicNumber(order, [value])

    def _coerce(self, other):
        """``self`` and ``other``'s terms at one order, or (None, None) when
        ``other`` is not a number.  A constant takes the other operand's
        order; two non-constants of different orders do not mix."""
        if isinstance(other, CyclotomicNumber):
            if other.order == self.order:
                return self, other._terms
            if other.is_constant():
                value = other.rational_value()
                return self, {0: _rational(value)} if value else {}
            if self.is_constant():
                return CyclotomicNumber(other.order, [self.rational_value()]), other._terms
            raise InvalidParameters(
                f"mixing cyclotomic orders {self.order} and {other.order}"
            )
        if isinstance(other, (int, Fraction)):
            return self, {0: _rational(other)} if other else {}
        return None, None

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

    def _plus(self, terms: dict, sign: int) -> "CyclotomicNumber":
        if not terms:
            return self
        out = dict(self._terms)
        for e, c in terms.items():
            _add_term(out, e, sign * c)
        return CyclotomicNumber._of_terms(self.order, out)

    def __add__(self, other):
        x, terms = self._coerce(other)
        if x is None:
            return NotImplemented
        return x._plus(terms, 1)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber._of_terms(self.order, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        x, terms = self._coerce(other)
        if x is None:
            return NotImplemented
        return x._plus(terms, -1)

    def __rsub__(self, other):
        x, terms = self._coerce(other)
        if x is None:
            return NotImplemented
        return (-x)._plus(terms, 1)

    def __mul__(self, other):
        x, terms = self._coerce(other)
        if x is None:
            return NotImplemented
        order, out = x.order, {}
        for e1, c1 in x._terms.items():
            for e2, c2 in terms.items():
                _add_term(out, (e1 + e2) % order, c1 * c2)
        return CyclotomicNumber._of_terms(order, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = CyclotomicNumber.one(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse via the extended Euclidean algorithm in Q[x]."""
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse")
        phi = [Fraction(c) for c in _phi_coeffs(self.order)]
        # extended gcd of self.coeffs and phi; phi is irreducible so the gcd
        # is a non-zero constant, and s0 tracks the Bezout factor of self
        r0, r1 = list(self.coeffs), phi
        s0, s1 = [Fraction(1)], []
        while r1:
            q, rem = _poly_divmod(r0, r1)
            qs1 = _poly_mul(q, s1)
            s_new = _poly_trim(a - b for a, b in itertools.zip_longest(s0, qs1, fillvalue=0))
            r0, r1 = r1, rem
            s0, s1 = s1, s_new
        if len(r0) != 1:
            raise ArithmeticError("element shares a factor with the cyclotomic modulus")
        unit = r0[0]
        return CyclotomicNumber(self.order, [c / unit for c in s0])

    def __eq__(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.order == self.order:
                return self.coeffs == other.coeffs
            if self.is_constant() and other.is_constant():
                return self.coeffs == other.coeffs
            return False
        if isinstance(other, (int, Fraction)):
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
    if r < 1:
        raise InvalidParameters(f"order must be >= 1, got {r}")
    return CyclotomicNumber._of_terms(r, {power % r: 1})


def zeta_power_table(r: int) -> list[CyclotomicNumber]:
    """zeta_r**m for m = 0..r-1, each built as its one term."""
    return [zeta(r, m) for m in range(r)]


def root_of_unity_vector(n: int, r: int, power: int) -> VertexVector:
    """The vector on residues 0..n-1 whose i-th entry is (zeta_r**power)**i.

    With power == r the root is 1 and this degenerates to the all-ones
    vector; powers 1..r-1 give the non-trivial roots.
    """
    if r < 2:
        raise InvalidParameters(f"root order must be >= 2, got {r}")
    if not 1 <= power <= r:
        raise InvalidParameters(f"power must lie in 1..{r}, got {power}")
    return VertexVector({str(i): zeta(r, power * i) for i in range(n)})


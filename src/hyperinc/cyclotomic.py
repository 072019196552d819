"""Exact arithmetic in cyclotomic fields Q(zeta_r).

Elements are rational polynomials in zeta_r reduced modulo the r-th
cyclotomic polynomial.  This is enough to check root-of-unity kernel
identities (sums of powers of zeta_r vanishing) as exact statements instead
of floating-point approximations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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
    if r == 1:
        return (-1, 1)
    num = [-1] + [0] * (r - 1) + [1]  # x^r - 1
    den = [1]
    for d in range(1, r):
        if r % d == 0:
            den = _poly_mul(den, _phi_coeffs(d))
    q, rem = _poly_divmod([Fraction(c) for c in num], [Fraction(c) for c in den])
    if rem:
        raise ArithmeticError(f"cyclotomic division left a remainder at r={r}")
    out = []
    for c in q:
        if c.denominator != 1:
            raise ArithmeticError(f"non-integer cyclotomic coefficient at r={r}")
        out.append(int(c))
    return tuple(out)


def cyclotomic_polynomial(r: int) -> CyclotomicPoly:
    """Phi_r, computed by exact division of x^r - 1 by the proper-divisor Phi_d."""
    if r < 1:
        raise InvalidParameters(f"cyclotomic order must be >= 1, got {r}")
    return CyclotomicPoly(r, _phi_coeffs(r))


def euler_phi(r: int) -> int:
    return cyclotomic_polynomial(r).degree


class CyclotomicNumber:
    """Element of Q(zeta_r): a rational polynomial of degree < phi(r).

    Coefficients are stored low degree first with trailing zeros trimmed, so
    structural equality is field equality.  Mixed arithmetic with ints and
    Fractions treats them as constants of the same order.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        phi = _phi_coeffs(order)
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) >= len(phi):
            _, coeffs = _poly_divmod(coeffs, [Fraction(c) for c in phi])
        self.order = order
        self.coeffs = tuple(_poly_trim(coeffs))

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(order: int) -> "CyclotomicNumber":
        return CyclotomicNumber(order, [])

    @staticmethod
    def one(order: int) -> "CyclotomicNumber":
        return CyclotomicNumber(order, [1])

    @staticmethod
    def constant(order: int, value: Rationalish) -> "CyclotomicNumber":
        return CyclotomicNumber(order, [Fraction(value)])

    def _coerce(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.order == self.order:
                return other
            if other.is_constant():
                return CyclotomicNumber(self.order, other.coeffs)
            if self.is_constant():
                return None  # handled by caller swapping orders
            raise InvalidParameters(
                f"mixing cyclotomic orders {self.order} and {other.order}"
            )
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.constant(self.order, other)
        return None

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def rational_value(self) -> Fraction:
        if not self.is_constant():
            raise InvalidParameters("not a rational constant")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = list(self.coeffs), list(o.coeffs)
        n = max(len(a), len(b))
        a += [Fraction(0)] * (n - len(a))
        b += [Fraction(0)] * (n - len(b))
        return CyclotomicNumber(self.order, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CyclotomicNumber(self.order, _poly_mul(list(self.coeffs), list(o.coeffs)))

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
            s_new = _poly_trim([a - b for a, b in _zip_pad(s0, _poly_mul(q, s1))])
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
            return self.is_constant() and self.rational_value() == Fraction(other)
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


def _zip_pad(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return zip(a, b)


def zeta(r: int, power: int = 1) -> CyclotomicNumber:
    """zeta_r**power as a reduced element of Q(zeta_r)."""
    if r < 1:
        raise InvalidParameters(f"order must be >= 1, got {r}")
    power %= r
    coeffs = [Fraction(0)] * power + [Fraction(1)]
    return CyclotomicNumber(r, coeffs)


def zeta_power_table(r: int) -> list[CyclotomicNumber]:
    """zeta_r**m for m = 0..r-1 (each reduced mod Phi_r)."""
    one = CyclotomicNumber.one(r)
    table = [one]
    z = zeta(r)
    for _ in range(r - 1):
        table.append(table[-1] * z)
    return table


def geometric_sum(r: int, j: int) -> CyclotomicNumber:
    """Sum of (zeta_r**j)**s for s = 0..r-1; zero exactly when r does not divide j."""
    table = zeta_power_table(r)
    total = CyclotomicNumber.zero(r)
    for s in range(r):
        total = total + table[(j * s) % r]
    return total


def root_of_unity_vector(n: int, r: int, power: int) -> VertexVector:
    """The vector on residues 0..n-1 whose i-th entry is (zeta_r**power)**i.

    With power == r the root is 1 and this degenerates to the all-ones
    vector; powers 1..r-1 give the non-trivial roots.
    """
    if r < 2:
        raise InvalidParameters(f"root order must be >= 2, got {r}")
    if not 1 <= power <= r:
        raise InvalidParameters(f"power must lie in 1..{r}, got {power}")
    table = zeta_power_table(r)
    return VertexVector({str(i): table[(power * i) % r] for i in range(n)})


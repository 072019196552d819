"""The sparse exponent-count ``CyclotomicNumber`` against the slow reference.

The reference below is the earlier dense implementation, kept verbatim: every
element is reduced modulo Phi_r on construction, and every addition pads both
coefficient lists and rebuilds through the constructor.  Its Phi_r is the
earlier ``_phi_coeffs``, which divides x^r - 1 by the product of every Phi_d
(d | r, d < r); the live one must give the same coefficients.  Both classes
run on the same seeded operands at several orders, and every observable result
(arithmetic, equality, hashing, printing, the reduced coefficients and the
rational value) must agree exactly, as must the residual strings of
``verify_certificate`` on uniform cycles.  The live remainder modulo Phi_r is
also checked against the reference's dense division and against ``sympy``
(test-only) on sparse term maps at larger orders.  The live class sums raw
coefficients and normalizes each terms map once; the per-term normalization
it replaced, ``_add_term``, is kept below as the reference for the stored
terms themselves.  ``+`` and ``-`` now sum their two operands as one row of
``_row_sum``; the two-operand merge they replaced, ``_plus``, is kept below as
their reference.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from typing import Union

import pytest

import hyperinc.cyclotomic as fast
from hyperinc import VertexVector, edge_vertex_incidence, matvec, uniform_cycle
from hyperinc.errors import InvalidParameters
from hyperinc.kernels import root_of_unity_certificate, verify_certificate
from hyperinc.linalg import exact_rational

Rationalish = Union[int, Fraction]

ORDERS = (1, 2, 3, 4, 5, 6, 12, 30, 60)


# -- the reference: dense coefficients, reduced modulo Phi_r on construction ----




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

    @classmethod
    def _row_sum(cls, products):
        """The sum of c * x over one matrix row's (c, x) pairs, by this class's
        own ``*`` and ``+``: what ``matvec`` calls to sum a row of these."""
        return sum((c * x for c, x in products), Fraction(0))

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


# -- seeded operands --------------------------------------------------------------


def random_coeffs(rng: random.Random, r: int) -> list:
    """Mostly zero coefficients, ints and Fractions, sometimes longer than r."""
    length = rng.randint(0, 2 * r + 3)
    out = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.5:
            out.append(0)
        elif roll < 0.8:
            out.append(rng.randint(-3, 3))
        else:
            out.append(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    return out


def root_sum_coeffs(rng: random.Random, r: int) -> list:
    """Counts of a sum of powers of zeta_r: whole cycles over a subgroup (which
    vanish unless the subgroup is trivial) plus a few stray powers."""
    counts = [0] * r
    step = rng.choice([d for d in range(1, r + 1) if r % d == 0])
    for _ in range(rng.randint(1, 3)):
        shift = rng.randrange(r)
        for e in range(0, r, step):
            counts[(e + shift) % r] += 1
    for _ in range(rng.randint(0, 2)):
        counts[rng.randrange(r)] += rng.choice([-1, 1])
    return counts


def operands(r: int, seed: int, count: int = 12):
    """Pairs (new, reference) built from the same coefficient lists."""
    rng = random.Random(f"cyclotomic:{r}:{seed}")
    out = []
    for i in range(count):
        coeffs = random_coeffs(rng, r) if i % 2 else root_sum_coeffs(rng, r)
        out.append((fast.CyclotomicNumber(r, coeffs), CyclotomicNumber(r, coeffs)))
    out.append((fast.zeta(r, 0), zeta(r, 0)))
    m = rng.randrange(r)
    out.append((fast.zeta(r, m), zeta(r, m)))
    return out


def assert_same(new, ref):
    """Every observable of one element agrees with the reference."""
    assert isinstance(new, fast.CyclotomicNumber)
    assert new.coeffs == ref.coeffs
    assert all(type(c) is Fraction for c in new.coeffs)
    assert str(new) == str(ref)
    assert hash(new) == hash(ref)
    assert new.is_zero() == ref.is_zero()
    assert new.is_constant() == ref.is_constant()
    if ref.is_constant():
        assert new.rational_value() == ref.rational_value()
        assert type(new.rational_value()) is Fraction
    else:
        with pytest.raises(InvalidParameters):
            new.rational_value()


# -- agreement -----------------------------------------------------------------------


@pytest.mark.parametrize("r", ORDERS)
def test_construction_and_observables_agree(r):
    for new, ref in operands(r, seed=1):
        assert_same(new, ref)
        assert (new == 0) == (ref == 0)
        assert (new == Fraction(1, 2)) == (ref == Fraction(1, 2))


@pytest.mark.parametrize("r", ORDERS)
def test_arithmetic_agrees(r):
    rng = random.Random(f"arithmetic:{r}")
    ops = operands(r, seed=2)
    for (a, ra), (b, rb) in zip(ops, ops[1:] + ops[:1]):
        assert_same(a + b, ra + rb)
        assert_same(a - b, ra - rb)
        assert_same(a * b, ra * rb)
        assert_same(-a, -ra)
        assert (a == b) == (ra == rb)
        assert (a == a + 0) and (a == a * 1)
        k = rng.randint(-3, 3)
        q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for scalar in (k, q):
            assert_same(a * scalar, ra * scalar)
            assert_same(scalar * a, scalar * ra)
            assert_same(a + scalar, ra + scalar)
            assert_same(scalar + a, scalar + ra)
            assert_same(a - scalar, ra - scalar)
            assert_same(scalar - a, scalar - ra)
            assert (a == scalar) == (ra == scalar)


@pytest.mark.parametrize("r", ORDERS)
def test_sums_of_table_entries_agree(r):
    """The matvec pattern: a running total plus one power of zeta at a time."""
    rng = random.Random(f"table:{r}")
    table, ref_table = fast.zeta_power_table(r), zeta_power_table(r)
    assert len(table) == len(ref_table) == r
    for new, ref in zip(table, ref_table):
        assert_same(new, ref)
    for _ in range(6):
        total, ref_total = Fraction(0), Fraction(0)
        for _ in range(rng.randint(1, 3 * r)):
            m = rng.randrange(r)
            total, ref_total = total + table[m], ref_total + ref_table[m]
        assert_same(total, ref_total)
    # a whole cycle of powers is zero for r >= 2, yet stored as r counts
    cycle, ref_cycle = sum(table, Fraction(0)), sum(ref_table, Fraction(0))
    assert_same(cycle, ref_cycle)
    for new, ref in operands(r, seed=4, count=4):
        assert (new + cycle == new) == (ref + ref_cycle == ref)
        assert hash(new + cycle) == hash(ref + ref_cycle)


@pytest.mark.parametrize("r", (2, 3, 4, 5, 6, 12))
def test_powers_and_inverses_agree(r):
    """Repeated products match the reference's powers, and the reference's
    inverses are inverses under the live product."""
    for new, ref in operands(r, seed=3, count=6):
        assert_same(new * new * new, ref ** 3)
        if not ref.is_zero():
            inverse = fast.CyclotomicNumber(r, ref.inverse().coeffs)
            assert inverse * new == 1
            assert fast.CyclotomicNumber(r, (ref ** -2).coeffs) * new * new == 1


def test_constants_compare_across_orders():
    for r, s in ((3, 5), (4, 12), (1, 60), (6, 2)):
        for value in (0, 2, Fraction(-3, 4)):
            new = fast.CyclotomicNumber(r, [value]) == fast.CyclotomicNumber(s, [value])
            ref = CyclotomicNumber.constant(r, value) == CyclotomicNumber.constant(s, value)
            assert new and ref
        assert fast.zeta(4) != fast.zeta(6) and zeta(4) != zeta(6)
        # zeta_2 is -1 whatever order it is compared at
        assert (fast.zeta(2) == fast.CyclotomicNumber(r, [-1])) == (
            zeta(2) == CyclotomicNumber.constant(r, -1)
        )
        assert hash(fast.zeta(2)) == hash(zeta(2)) == hash(-1)
        assert_same(fast.zeta(r) + fast.zeta(2).rational_value(), zeta(r) + zeta(2))


@pytest.mark.parametrize(
    "n, k, r, power",
    [(12, 8, 4, 1), (12, 8, 4, 4), (12, 8, 5, 2), (12, 8, 6, 6), (36, 24, 12, 5), (36, 24, 12, 12),
     (36, 24, 7, 3), (30, 15, 30, 7), (60, 30, 60, 60), (60, 30, 60, 7), (24, 18, 6, 3)],
)
def test_verify_residual_strings_agree(n, k, r, power):
    """``verify_certificate`` residuals print exactly as the reference's matvec."""
    h = uniform_cycle(n, k)
    check = verify_certificate(h, root_of_unity_certificate(h, r, power))
    table = zeta_power_table(r)
    ref_vector = VertexVector({str(i): table[(power * i) % r] for i in range(n)})
    ref_residual = matvec(edge_vertex_incidence(h), ref_vector)
    assert {e: str(v) for e, v in check.residual.items()} == {
        e: str(v) for e, v in ref_residual.items()
    }
    assert check.valid == all(v == 0 for v in ref_residual.values())


def test_phi_coeffs_agree():
    for r in [*range(1, 200), 360, 1001, 2000, 4096]:
        assert fast._phi_coeffs(r) == _phi_coeffs(r), r


def test_phi_coeffs_do_no_division(monkeypatch):
    """Phi_15015 (15015 = 3*5*7*11*13) comes from the binomials over the
    divisors, with no polynomial remainder; counted instead of timed."""
    calls = []
    remainder = fast._remainder
    monkeypatch.setattr(fast, "_remainder", lambda *a: calls.append(a) or remainder(*a))
    fast._phi_coeffs.cache_clear()
    phi = fast._phi_coeffs(15015)
    assert len(phi) - 1 == 5760
    assert (phi[0], phi[-1]) == (1, 1)
    assert calls == []


# -- one fold per terms map against the per-term normalization ---------------------------


def _rational(c) -> Rationalish:
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


def terms_by_term(order: int, coeffs) -> dict:
    """The constructor's terms, normalized after every coefficient."""
    terms: dict = {}
    for i, c in enumerate(coeffs):
        c = exact_rational(c)
        if c:
            _add_term(terms, i % order, c)
    return terms


def plus_by_term(a: dict, b: dict, sign: int) -> dict:
    out = dict(a)
    for e, c in b.items():
        _add_term(out, e, sign * c)
    return out


def times_by_term(order: int, a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            _add_term(out, (e1 + e2) % order, c1 * c2)
    return out


def scalar_terms(k) -> dict:
    return {0: _rational(k)} if k else {}


FOLD_POOL = (0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(5, 4))


def folding_pair(rng: random.Random, r: int) -> tuple[list, list]:
    """Two coefficient lists up to three times r long, so several entries land
    on one exponent; each entry of the second is minus the first's (sums that
    cancel), one minus it (Fractions that add up to whole numbers) or drawn
    afresh."""
    a = [rng.choice(FOLD_POOL) for _ in range(rng.randint(0, 3 * r))]
    b = [rng.choice([-c, 1 - c, rng.choice(FOLD_POOL)]) for c in a]
    return a, b


def assert_same_terms(new, expected: dict):
    assert new._terms == expected
    assert {e: type(c) for e, c in new._terms.items()} == {e: type(c) for e, c in expected.items()}


@pytest.mark.parametrize("r", ORDERS)
def test_one_fold_stores_the_per_term_terms(r):
    """``CyclotomicNumber(order, coeffs)``, ``+``, ``-``, ``*`` and ``__rsub__``
    store the terms the per-term normalization stores, each coefficient with
    the same int or Fraction type."""
    rng = random.Random(f"fold:{r}")
    cancelled = whole = 0
    for _ in range(40):
        ca, cb = folding_pair(rng, r)
        a, b = fast.CyclotomicNumber(r, ca), fast.CyclotomicNumber(r, cb)
        ta, tb = terms_by_term(r, ca), terms_by_term(r, cb)
        assert_same_terms(a, ta)
        assert_same_terms(b, tb)
        for got, sign in ((a + b, 1), (a - b, -1)):
            expected = plus_by_term(ta, tb, sign)
            assert_same_terms(got, expected)
            cancelled += len(ta.keys() | tb.keys()) - len(expected)
            whole += sum(
                type(c) is int and type(ta.get(e)) is Fraction for e, c in expected.items()
            )
        assert_same_terms(a * b, times_by_term(r, ta, tb))
        for k in (rng.choice(FOLD_POOL), Fraction(rng.randint(-4, 4), 2)):
            tk = scalar_terms(k)
            assert_same_terms(a + k, plus_by_term(ta, tk, 1))
            assert_same_terms(a - k, plus_by_term(ta, tk, -1))
            assert_same_terms(k - a, plus_by_term({e: -c for e, c in ta.items()}, tk, 1))
            assert_same_terms(a * k, times_by_term(r, ta, tk))
    assert cancelled and whole


# -- the remainder modulo Phi_r at larger orders ----------------------------------------


def sparse_terms(rng: random.Random, r: int, phi: int, below: bool) -> dict:
    """A seeded sparse term map whose top exponent lies below phi(r), or from
    phi(r) up to a few dozen above it, with int and Fraction coefficients."""
    if below:
        top = rng.randrange(phi // 2, phi)
    else:
        top = min(r - 1, phi + rng.randint(0, 40))
    exponents = rng.sample(range(top), min(top, rng.randint(0, 10))) + [top]
    return {
        e: rng.choice([rng.randint(1, 3), -1, Fraction(rng.randint(-5, 5) or 1, rng.randint(2, 4))])
        for e in exponents
    }


@pytest.mark.parametrize("r", (360, 1001, 2000, 4096, 15015))
def test_remainder_agrees_with_dense_division_and_sympy(r):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    phi_poly = sympy.cyclotomic_poly(r, x, polys=True).set_domain(sympy.QQ)
    phi = [int(c) for c in reversed(phi_poly.all_coeffs())]
    assert fast._phi_coeffs(r) == tuple(phi)
    rng = random.Random(f"remainder:{r}")
    for below in (False, True, False, True):
        terms = sparse_terms(rng, r, len(phi) - 1, below)
        got = [Fraction(c) for c in fast._remainder(terms, r)]
        dense = [Fraction(0)] * (max(terms) + 1)
        for e, c in terms.items():
            dense[e] = Fraction(c)
        assert got == _poly_divmod(dense, [Fraction(c) for c in phi])[1]
        f = sympy.Poly.from_dict({(e,): sympy.Rational(str(c)) for e, c in terms.items()}, x, domain=sympy.QQ)
        expected = [Fraction(str(c)) for c in reversed(f.rem(phi_poly).all_coeffs())]
        assert got == _poly_trim(expected)


# -- + and - as one row sum against the two-operand merge ------------------------------


def reference_plus(self, terms: dict, sign: int):
    """The earlier ``CyclotomicNumber._plus``: ``self`` plus ``sign`` times the
    terms ``_coerce`` gave, merged into a copy of ``self``'s terms."""
    if not terms:
        return self
    out = dict(self._terms)
    for e, c in terms.items():
        out[e] = out.get(e, 0) + sign * c
    return fast.CyclotomicNumber._of_terms(self.order, fast._folded(out))


def reference_sum(op: str, a, b):
    """``a + b``, ``a - b`` or the reflected ``b - a`` as ``_plus`` built it."""
    terms = a._coerce(b)
    if op == "r-":
        return reference_plus(-a, terms, 1)
    return reference_plus(a, terms, 1 if op == "+" else -1)


LIVE_SUMS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "r-": lambda a, b: a.__rsub__(b)}


@pytest.mark.parametrize("r", range(1, 61))
def test_sums_match_the_plus_reference(r):
    """``+``, ``-`` and the reflected ``-`` store the terms ``_plus`` stored, each
    coefficient with the same int or Fraction type, for int, Fraction and
    cyclotomic right-hand sides, and refuse a number of another order with the
    same ``InvalidParameters``."""
    rng = random.Random(f"plus:{r}")
    for _ in range(6):
        ca, cb = folding_pair(rng, r)
        a = fast.CyclotomicNumber(r, ca)
        for b in (fast.CyclotomicNumber(r, cb), rng.randint(-3, 3), rng.choice(FOLD_POOL),
                  Fraction(rng.randint(-4, 4), 2), fast.zeta(r, rng.randrange(r))):
            for op, live in LIVE_SUMS.items():
                got, expected = live(a, b), reference_sum(op, a, b)
                assert got.order == r
                assert_same_terms(got, expected._terms)
            if not isinstance(b, fast.CyclotomicNumber):
                assert_same_terms(b + a, reference_sum("+", a, b)._terms)
                assert_same_terms(b - a, reference_sum("r-", a, b)._terms)
        other = fast.zeta(r + 1 + rng.randrange(5))
        for op, live in LIVE_SUMS.items():
            with pytest.raises(InvalidParameters) as ref_error:
                reference_sum(op, a, other)
            with pytest.raises(InvalidParameters) as live_error:
                live(a, other)
            assert str(live_error.value) == str(ref_error.value)

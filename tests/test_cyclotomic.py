from fractions import Fraction
from functools import reduce
from math import gcd
from operator import mul

import pytest

from hyperinc import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    edge_vertex_incidence,
    matvec,
    root_of_unity_vector,
    uniform_cycle,
    zeta,
)
from hyperinc.errors import InvalidParameters


def poly_divides(divisor, dividend):
    """Exact polynomial division check over Q (low degree first)."""
    num = [Fraction(c) for c in dividend]
    den = [Fraction(c) for c in divisor]
    while len(num) >= len(den) and any(c != 0 for c in num):
        factor = num[-1] / den[-1]
        shift = len(num) - len(den)
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
        while num and num[-1] == 0:
            num.pop()
    return not num


class TestCyclotomicPolynomial:
    def test_small_orders(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_monic_and_degree(self):
        # Euler phi via direct counting of coprime residues
        for r in range(1, 31):
            poly = cyclotomic_polynomial(r)
            assert poly[-1] == 1
            assert len(poly) - 1 == sum(1 for i in range(1, r + 1) if gcd(i, r) == 1)

    def test_divides_x_r_minus_1(self):
        for r in range(1, 31):
            poly = cyclotomic_polynomial(r)
            x_r_minus_1 = [-1] + [0] * (r - 1) + [1]
            assert poly_divides(poly, x_r_minus_1)

    def test_bad_order(self):
        with pytest.raises(InvalidParameters):
            cyclotomic_polynomial(0)


class TestArithmetic:
    def test_zeta_powers_cycle(self):
        for r in (2, 3, 4, 5, 6, 12):
            z = zeta(r)
            assert reduce(mul, [z] * r) == 1
            assert zeta(r, r - 1) * z == zeta(r, r) == 1

    def test_zeta2_is_minus_one(self):
        assert zeta(2) == Fraction(-1)

    def test_mixed_arithmetic_with_fractions(self):
        z = zeta(4)
        assert (z + Fraction(1, 2)) - z == Fraction(1, 2)
        assert Fraction(2) * z == z + z

    def test_other_orders_do_not_mix(self):
        # a number mixes only with ints, Fractions and numbers of its own order,
        # whichever operand it is; equality still compares constants at any order
        ops = (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b)
        for left, right in ((zeta(5), zeta(3)), (CyclotomicNumber(5, [2]), zeta(3)),
                            (zeta(3), CyclotomicNumber(5, [2])), (zeta(2), zeta(4))):
            for op in ops:
                with pytest.raises(InvalidParameters):
                    op(left, right)
        assert CyclotomicNumber(5, [2]) == CyclotomicNumber(3, [2]) == 2
        assert zeta(2) == CyclotomicNumber(7, [-1]) and zeta(4) != zeta(6)

    def test_equality_refuses_a_bool(self):
        # a bool is no number to the arithmetic, so it equals no number either,
        # whichever side it is on, though it hashes as the int it subclasses
        one = zeta(4, 0)
        assert not one == True  # noqa: E712
        assert not True == one  # noqa: E712
        assert one != True and zeta(4, 2) != False  # noqa: E712
        assert len({one, True}) == 2
        assert one == 1 and zeta(4, 2) == -1 and CyclotomicNumber(3, []) == 0

    def test_string_or_bytes_is_no_coefficient_list(self):
        # each is a sequence, but "12" was once read as 1 + 2*z3 and b"12" as 49 + 50*z3
        for coeffs in ("12", b"12", bytearray(b"12"), ""):
            with pytest.raises(InvalidParameters, match="sequence of rationals"):
                CyclotomicNumber(3, coeffs)
        assert CyclotomicNumber(3, ["1", "2"]) == 1 + 2 * zeta(3)

    def test_geometric_sum_identity(self):
        # full cycles of any non-trivial root sum to zero, exactly
        def geometric_sum(r, j):
            return sum((zeta(r, j * s) for s in range(r)), CyclotomicNumber(r, []))

        for r in range(2, 15):
            for j in range(1, r):
                assert geometric_sum(r, j).is_zero()
            assert geometric_sum(r, r) == r


class TestRootOfUnityVectors:
    def test_order_two_alternates(self):
        vec = root_of_unity_vector(6, 2, 1)
        for i in range(6):
            assert vec.value(str(i)) == Fraction((-1) ** i)

    def test_power_r_is_all_ones(self):
        vec = root_of_unity_vector(5, 4, 4)
        assert all(vec.value(str(i)) == 1 for i in range(5))

    def test_c84_kernel_vector(self):
        b = edge_vertex_incidence(uniform_cycle(8, 4))
        vec = root_of_unity_vector(8, 4, 1)
        assert all(v == 0 for v in matvec(b, vec).values())

    def test_cycle_kernel_sweep(self):
        # gcd-many roots of unity annihilate the window sums
        for n in range(2, 11):
            for k in range(2, n + 1):
                r = gcd(k, n)
                if r < 2:
                    continue
                b = edge_vertex_incidence(uniform_cycle(n, k))
                for j in range(1, r):
                    vec = root_of_unity_vector(n, r, j)
                    assert all(v == 0 for v in matvec(b, vec).values())

    def test_bad_parameters(self):
        with pytest.raises(InvalidParameters):
            root_of_unity_vector(6, 1, 1)
        with pytest.raises(InvalidParameters):
            root_of_unity_vector(6, 4, 5)

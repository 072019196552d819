from fractions import Fraction
from math import gcd

import pytest

from hyperinc import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    edge_vertex_incidence,
    euler_phi,
    geometric_sum,
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
        assert cyclotomic_polynomial(1).coeffs == (-1, 1)
        assert cyclotomic_polynomial(2).coeffs == (1, 1)
        assert cyclotomic_polynomial(3).coeffs == (1, 1, 1)
        assert cyclotomic_polynomial(4).coeffs == (1, 0, 1)
        assert cyclotomic_polynomial(6).coeffs == (1, -1, 1)
        assert cyclotomic_polynomial(12).coeffs == (1, 0, -1, 0, 1)

    def test_monic_and_degree(self):
        # Euler phi via direct counting of coprime residues
        for r in range(1, 31):
            poly = cyclotomic_polynomial(r)
            assert poly.coeffs[-1] == 1
            assert poly.degree == sum(1 for i in range(1, r + 1) if gcd(i, r) == 1)
            assert euler_phi(r) == poly.degree

    def test_divides_x_r_minus_1(self):
        for r in range(1, 31):
            poly = cyclotomic_polynomial(r)
            x_r_minus_1 = [-1] + [0] * (r - 1) + [1]
            assert poly_divides(poly.coeffs, x_r_minus_1)

    def test_bad_order(self):
        with pytest.raises(InvalidParameters):
            cyclotomic_polynomial(0)


class TestArithmetic:
    def test_zeta_powers_cycle(self):
        for r in (2, 3, 4, 5, 6, 12):
            z = zeta(r)
            assert z ** r == 1
            assert z ** (r - 1) * z == 1

    def test_zeta2_is_minus_one(self):
        assert zeta(2) == Fraction(-1)

    def test_inverse(self):
        for r, power in [(5, 2), (8, 3), (12, 5)]:
            x = zeta(r, power) + 2
            assert x.inverse() * x == 1

    def test_mixed_arithmetic_with_fractions(self):
        z = zeta(4)
        assert (z + Fraction(1, 2)) - z == Fraction(1, 2)
        assert Fraction(2) * z == z + z

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            CyclotomicNumber.zero(4).inverse()

    def test_geometric_sum_identity(self):
        # full cycles of any non-trivial root sum to zero, exactly
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

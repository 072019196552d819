"""One rule for every public entry point that takes a number.

An ``int`` or a ``Fraction`` is taken as it is and a fraction string is read
without an exponent; a float, a bool, a complex number, a ``Decimal``, an
exponent string or a cyclotomic number raises a ``HyperincError`` at every
entry point, instead of being converted (0.1 would become
3602879701896397/36028797018963968) or escaping as a raw ``TypeError``.
"""

from decimal import Decimal
from fractions import Fraction

import pytest

from hyperinc import (
    CyclotomicNumber,
    EdgeWeighting,
    RationalMatrix,
    VertexVector,
    custom_weighting,
    dual_side_certificate,
    general_combination_certificate,
    ratio_partition_certificate,
    span_dimension,
    three_set_certificate,
    zeta,
)
from hyperinc import linalg
from hyperinc.errors import HyperincError, ParseError
from hyperinc.formats import parse_fraction

# entry point -> the number it took from x, as it stores it (span_dimension:
# the dimension of x next to 3/4, 1 only when x is 3/4 exactly)
ENTRY_POINTS = {
    "RationalMatrix": lambda h, x: RationalMatrix([[x]], ["r"], ["c"]).entry(0, 0),
    "span_dimension": lambda h, x: span_dimension(
        [VertexVector({"a": x, "b": 1}), VertexVector({"a": Fraction(3, 4), "b": 1})]
    ),
    "EdgeWeighting": lambda h, x: EdgeWeighting("custom", (x,)).weights[0],
    "custom_weighting": lambda h, x: custom_weighting(h, [x] * h.n_edges).weights[0],
    "ratio_partition_certificate": lambda h, x: ratio_partition_certificate(h, ["1"], ["2"], x).ratio,
    "three_set_certificate": lambda h, x: three_set_certificate(h, ["1"], ["2"], ["3"], x).ratio,
    "general_combination_certificate": lambda h, x: general_combination_certificate(
        h, [(["1"], x), (["2"], 1)]
    ).coefficients[0],
    "dual_side_certificate": lambda h, x: dual_side_certificate(h, ["e1"], ["e2"], x).ratio,
    "CyclotomicNumber": lambda h, x: CyclotomicNumber(5, [x]).rational_value(),
    "parse_fraction": lambda h, x: parse_fraction(x),
}

BAD = [0.1, 2.5, True, 1j, Decimal("0.5"), "1e-5", zeta(3)]
GOOD = [(3, Fraction(3)), (Fraction(3, 4), Fraction(3, 4)), ("3/4", Fraction(3, 4))]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("bad", BAD, ids=repr)
def test_entry_point_refuses_inexact_numbers(unit_example, entry, bad):
    with pytest.raises(HyperincError):
        ENTRY_POINTS[entry](unit_example, bad)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("good, value", GOOD, ids=repr)
def test_entry_point_takes_exact_numbers(unit_example, entry, good, value):
    taken = ENTRY_POINTS[entry](unit_example, good)
    assert taken == ENTRY_POINTS[entry](unit_example, value) and type(taken) in (int, Fraction)
    if entry != "span_dimension":
        assert taken == value


def test_parse_fraction_refuses_with_a_parse_error():
    for bad in BAD:
        with pytest.raises(ParseError, match="bad fraction"):
            parse_fraction(bad)


def test_ints_and_fractions_are_returned_as_the_same_object():
    for x in (3, 10**40, Fraction(3, 4)):
        assert linalg.exact_rational(x) is x
    for text, value in (("3/4", Fraction(3, 4)), (" -0.25 ", Fraction(-1, 4)), ("+7", 7)):
        assert linalg.exact_rational(text) == value


def test_refusal_names_the_value_and_its_type():
    for bad in (0.1, True, None, Decimal("0.5")):
        with pytest.raises(HyperincError, match=type(bad).__name__):
            linalg.exact_rational(bad)
    for bad in ("1/0", "1" * 5000, "1e-1000000", "0x10"):
        with pytest.raises(HyperincError):
            linalg.exact_rational(bad)

"""Every theorem-level cross-check fails in some test.

A ``raise ArithmeticError`` in ``hyperinc`` guards an identity that the
mathematics proves, so no correct input reaches it, and deleting it would
leave every other test green.  The tests below inject the fault each of four
checks exists for and pin its message; the rule at the end asks that every
such message in the package be matched by a literal
``pytest.raises(ArithmeticError, match=...)`` somewhere in ``tests/``.
"""

import ast
import importlib.util
import re
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from hyperinc import kernels, spectra, uniform_cycle
from hyperinc.kernels import root_of_unity_certificate, sw_subspace, verify_certificate
from hyperinc.spectra import predict_unit_eigenpairs, unit_weighting

PACKAGE = Path(importlib.util.find_spec("hyperinc").origin).parent
TESTS = Path(__file__).resolve().parent


def non_zero_first_row(monkeypatch):
    """``kernels.matvec`` with its first row made 1: the product of a kernel
    vector that is not zero."""
    matvec = kernels.matvec

    def faulty(m, x):
        product = matvec(m, x)
        product[m.row_labels[0]] = Fraction(1)
        return product

    monkeypatch.setattr(kernels, "matvec", faulty)


def test_window_premise_with_a_non_zero_product_raises(monkeypatch):
    h = uniform_cycle(12, 8)
    cert = root_of_unity_certificate(h, 4, 1)
    check = verify_certificate(h, cert)
    assert check.valid and check.combinatorial
    non_zero_first_row(monkeypatch)
    with pytest.raises(ArithmeticError, match="window premise held but the product was non-zero"):
        verify_certificate(h, cert)


def test_unit_outside_the_kernel_raises(monkeypatch, unit_example):
    report = sw_subspace(unit_example, ["1", "2"])
    assert report.contained_in_kernel and report.maximal
    non_zero_first_row(monkeypatch)
    with pytest.raises(ArithmeticError, match="star equality and kernel membership disagree"):
        sw_subspace(unit_example, ["1", "2"])


def test_unit_missing_from_the_partition_raises(monkeypatch, unit_example):
    """A unit partition that lost every unit: {1, 2} is contained and maximal,
    yet no unit."""
    monkeypatch.setattr(kernels, "compute_units", lambda h: SimpleNamespace(units=()))
    with pytest.raises(
        ArithmeticError, match="maximality characterization disagrees with the unit partition"
    ):
        sw_subspace(unit_example, ["1", "2"])


def test_dependent_eigenvectors_raise(monkeypatch, unit_example):
    w = unit_weighting(unit_example)
    assert all(pair.verified for pair in predict_unit_eigenpairs(unit_example, w))
    span_dimension = spectra.span_dimension
    monkeypatch.setattr(spectra, "span_dimension", lambda vectors: span_dimension(vectors) - 1)
    with pytest.raises(ArithmeticError, match="eigenvectors are not linearly independent"):
        predict_unit_eigenpairs(unit_example, w)


# -- the rule ---------------------------------------------------------------------


def literal(node) -> str | None:
    """A string literal's text; an f-string's with each replacement field read
    as "..."; None for anything else."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(literal(part) or "..." for part in node.values)
    return None


def is_arithmetic_error(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "ArithmeticError"


def raised_messages() -> list[tuple[str, str | None]]:
    """(module:line, message) of every ``raise ArithmeticError(...)`` in the package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                if is_arithmetic_error(node.exc.func):
                    message = literal(node.exc.args[0]) if node.exc.args else None
                    out.append((f"{path.stem}:{node.lineno}", message))
    return out


def matched_patterns() -> set[str]:
    """The literal ``match=`` patterns of every ``pytest.raises(ArithmeticError, ...)`` in the tests."""
    out = set()
    for path in sorted(TESTS.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "raises"
                and node.args
                and is_arithmetic_error(node.args[0])
            ):
                out.update(
                    kw.value.value
                    for kw in node.keywords
                    if kw.arg == "match" and isinstance(kw.value, ast.Constant)
                )
    return out


def test_every_arithmetic_check_is_matched_by_a_test():
    raised = raised_messages()
    assert raised
    patterns = matched_patterns()
    unmatched = [
        f"{where}: {message!r}"
        for where, message in raised
        if message is None or not any(re.search(pattern, message) for pattern in patterns)
    ]
    assert unmatched == []

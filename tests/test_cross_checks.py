"""Every theorem-level cross-check fails in some test.

A ``raise ArithmeticError`` in ``hyperinc`` guards an identity that the
mathematics proves, so no correct input reaches it, and deleting it would
leave every other test green.  The tests below inject the fault each of four
checks exists for and pin its message; the rule at the end asks that every
such message in the package be matched by a literal
``pytest.raises(ArithmeticError, match=...)`` somewhere in ``tests/``.

``verify_certificates`` multiplies many certificates in one packed pass; each
part of that pass is shown to fail here too: a wrong counting verdict, a row
total lost, and fields at the sign boundary of their width.
"""

import ast
import functools
import importlib.util
import re
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from hyperinc import build_hypergraph, kernels, linalg, spectra, uniform_cycle
from hyperinc.kernels import (
    equal_partition_certificate,
    general_combination_certificate,
    ratio_partition_certificate,
    root_of_unity_certificate,
    sw_subspace,
    verify_certificate,
    verify_certificates,
)
from hyperinc.spectra import predict_unit_eigenpairs, unit_weighting

from test_verify_reference import verify_certificate_reference

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


# -- the packed pass of verify_certificates --------------------------------------


def test_a_wrong_counting_verdict_raises(monkeypatch, equal_partition_example):
    """Counting patched to the opposite verdict, on a valid and on an
    invalid certificate among others, raises the disagreement."""
    h = equal_partition_example
    valid = equal_partition_certificate(h, ["1", "5"], ["2", "3", "4"])
    invalid = equal_partition_certificate(h, ["1", "5"], ["2", "3"])
    assert [c.valid for c in verify_certificates(h, [valid, invalid])] == [True, False]
    counting = kernels._combinatorial_side
    for wrong in (valid, invalid):
        monkeypatch.setattr(
            kernels, "_combinatorial_side", lambda g, c, masks: (c == wrong) != counting(g, c, masks)
        )
        with pytest.raises(ArithmeticError, match="counting and algebra disagree"):
            verify_certificates(h, [valid, invalid, valid])
        monkeypatch.undo()


# vertices a and b lie only in e1, c and d only in e2, w in no edge
BOUNDARY_H = build_hypergraph(["a", "b", "c", "d", "w"], [["a", "b"], ["c", "d"]], ["e1", "e2"])


def test_a_lost_row_total_is_caught(monkeypatch):
    """The one non-zero row total of a pass, where one certificate is
    non-zero, patched to 0 raises the disagreement."""
    h = BOUNDARY_H
    certs = [ratio_partition_certificate(h, u, v, 1) for u, v in ((["a"], ["b"]), (["b"], ["w"]), (["c"], ["d"]))]
    checks = verify_certificates(h, certs)
    assert [c.valid for c in checks] == [True, False, True]
    assert [label for label, v in checks[1].residual.items() if v] == ["e1"]
    row_totals = linalg._row_totals

    def losing(m, packed):
        return [0 if label == "e1" else t for label, t in zip(m.row_labels, row_totals(m, packed))]

    monkeypatch.setattr(linalg, "_row_totals", losing)
    with pytest.raises(ArithmeticError, match="counting and algebra disagree"):
        verify_certificates(h, certs)


def boundary_lists():
    """Certificate lists whose only non-zero row is e1: a ratio-2**64
    certificate beside ratio-1 ones, and general combinations whose products
    are +-(2**127 - 1) or +-(2**128 - 1), each the largest its field holds."""
    h = BOUNDARY_H
    ratio = functools.partial(ratio_partition_certificate, h)
    combination = functools.partial(general_combination_certificate, h)
    yield [ratio(["a"], ["b"], 1), ratio(["a"], ["b"], 2**64), ratio(["b"], ["w"], 1), ratio(["c"], ["d"], 1)]
    yield [ratio(["b"], ["w"], 1), ratio(["a"], ["b"], 2**64), ratio(["a"], ["b"], 1)]
    for top in (2**127 - 1, 2**128 - 1):
        yield [
            combination([(["a"], top)]),
            ratio(["c"], ["d"], 1),
            combination([(["b"], -top)]),
            ratio(["b"], ["w"], 1),
            ratio(["a"], ["b"], 2**64),
        ]


@pytest.mark.parametrize("certs", list(boundary_lists()))
def test_fields_at_the_sign_boundary_decode_exactly(certs):
    h = BOUNDARY_H
    checks = verify_certificates(h, certs)
    assert checks == [verify_certificate_reference(h, c) for c in certs]
    assert all(check.residual["e2"] == 0 for check in checks)
    assert any(not check.valid for check in checks) and any(check.valid for check in checks)


def test_the_boundary_products_fill_their_width():
    """2**127 - 1 is the largest product a 128-bit field holds, and
    2**128 - 1 the largest a 129-bit one holds."""
    assert linalg._pack([{0: 2**127 - 1}], 1, 1)[0] == 128
    assert linalg._pack([{0: 2**128 - 1}], 1, 1)[0] == 129


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

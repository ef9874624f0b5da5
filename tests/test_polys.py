"""String and JSON forms of the sparse polynomial classes."""

import pytest

from footprint_lab.errors import AmbientMismatch
from footprint_lab.polys import make_affine_poly, make_poly


@pytest.mark.parametrize("poly, text, data", [
    (make_poly(2, 2, {(0, 1, 1): 2, (2, 0, 0): 1, (1, 0, 1): 0}),
     "x0^2 + 2*x1*x2",
     [{"monomial": "x0^2", "coeff": 1}, {"monomial": "x1*x2", "coeff": 2}]),
    (make_poly(1, 0, {(0, 0): 1}), "1*1", [{"monomial": "1", "coeff": 1}]),
    (make_poly(1, 3, {}), "0", []),
    (make_affine_poly(2, {(0, 0): 3, (1, 2): 1, (2, 0): 4}),
     "4*x0^2 + x0*x1^2 + 3*1",
     [{"monomial": "x0^2", "coeff": 4}, {"monomial": "x0*x1^2", "coeff": 1},
      {"monomial": "1", "coeff": 3}]),
    (make_affine_poly(3, {(0, 0, 1): 0}), "0", []),
])
def test_str_and_json(poly, text, data):
    assert str(poly) == text
    assert poly.to_json() == data
    assert poly.is_zero == (text == "0")


@pytest.mark.parametrize("call, exc, message", [
    (lambda: make_affine_poly(2, {(1, 0, 0): 1}), AmbientMismatch,
     "monomial (1, 0, 0) not in 2 variables"),
    (lambda: make_poly(2, 1, {(1, 0): 1}), AmbientMismatch,
     "monomial (1, 0) not in ambient x0..x2"),
    (lambda: make_poly(2, 2, {(1, 0, 0): 1}), ValueError, "monomial x0 has degree 1, not 2"),
], ids=["affine-ambient", "form-ambient", "form-degree"])
def test_constructor_errors(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert info.type is exc
    assert str(info.value) == message

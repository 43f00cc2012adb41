"""Integer polynomial arithmetic tests."""

import pytest

from integra.polys import IntPolynomial


def test_trailing_zeros_trimmed():
    p = IntPolynomial.from_coeffs((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1


def test_zero_and_one():
    z = IntPolynomial.zero()
    assert z.is_zero()
    assert z.degree == -1
    one = IntPolynomial.one()
    assert one.coeffs == (1,)
    assert one.is_monic()


def test_linear_root_and_eval():
    p = IntPolynomial.linear_root(3)
    assert p.coeffs == (-3, 1)
    assert p(3) == 0
    assert p(0) == -3


def test_product_of_conjugate_linears():
    p = IntPolynomial.linear_root(1) * IntPolynomial.linear_root(-1)
    assert p.coeffs == (-1, 0, 1)


def test_add_sub_pow():
    p = IntPolynomial.from_coeffs((1, 1)) ** 2
    assert p.coeffs == (1, 2, 1)
    assert p ** 0 == IntPolynomial.one()
    assert (IntPolynomial.linear_root(2) ** 3).coeffs == (-8, 12, -6, 1)


def test_divmod_exact():
    # (x^2 + 2x - 1)^2 split back into its square root factor
    d = IntPolynomial.from_coeffs((-1, 2, 1))
    p = d * d
    q, r = p.divmod_by(d)
    assert q == d
    assert r.is_zero()


def test_divmod_with_remainder():
    p = IntPolynomial.from_coeffs((1, 0, 1))
    d = IntPolynomial.from_coeffs((1, 1))
    q, r = p.divmod_by(d)
    assert q.coeffs == (-1, 1)
    assert r.coeffs == (2,)


def test_divmod_requires_monic():
    p = IntPolynomial.from_coeffs((1, 0, 1))
    d = IntPolynomial.from_coeffs((1, 2))
    with pytest.raises(ValueError):
        p.divmod_by(d)


def test_divides_monic():
    d = IntPolynomial.from_coeffs((-2, 2, 1))
    p = d * IntPolynomial.from_coeffs((5, -3, 1))
    assert p.coeffs == (-10, 16, -3, -1, 1)
    assert d.divides(p)
    assert not d.divides(IntPolynomial.from_coeffs((-9, 16, -3, -1, 1)))


def test_divides_non_monic():
    # only monic divisors are supported; a non-monic one is rejected, not guessed
    for d in (IntPolynomial.from_coeffs((2, 2)), IntPolynomial.from_coeffs((1, -1))):
        with pytest.raises(ValueError):
            d.divides(d * IntPolynomial.from_coeffs((1, 1)))


def test_str_format():
    p = IntPolynomial.from_coeffs((-1, 2, 1))
    assert str(p) == "x^2 + 2*x - 1"

"""Integer polynomial arithmetic tests."""

import pytest

from integra.polys import IntPolynomial


def test_trailing_zeros_trimmed():
    # (x + 1)(x + 2) leaves an all-zero remainder, trimmed to the zero polynomial
    q, r = IntPolynomial((2, 3, 1)).divmod_by(IntPolynomial((1, 1)))
    assert q.coeffs == (2, 1)
    assert r.coeffs == ()
    assert r.degree == -1


def test_zero_and_one():
    z = IntPolynomial(())
    assert z.degree == -1
    assert str(z) == "0"
    assert (z * IntPolynomial((1, 1))).coeffs == ()
    assert IntPolynomial((3, 1)) ** 0 == IntPolynomial((1,))


def test_product_of_conjugate_linears():
    p = IntPolynomial((-1, 1)) * IntPolynomial((1, 1))
    assert p.coeffs == (-1, 0, 1)


def test_add_sub_pow():
    p = IntPolynomial((1, 1)) ** 2
    assert p.coeffs == (1, 2, 1)
    assert p ** 0 == IntPolynomial((1,))
    assert (IntPolynomial((-2, 1)) ** 3).coeffs == (-8, 12, -6, 1)
    with pytest.raises(ValueError, match="^negative polynomial power$"):
        p ** -1


def test_divmod_exact():
    # (x^2 + 2x - 1)^2 split back into its square root factor
    d = IntPolynomial((-1, 2, 1))
    p = d * d
    q, r = p.divmod_by(d)
    assert q == d
    assert r.coeffs == ()


def test_divmod_with_remainder():
    p = IntPolynomial((1, 0, 1))
    d = IntPolynomial((1, 1))
    q, r = p.divmod_by(d)
    assert q.coeffs == (-1, 1)
    assert r.coeffs == (2,)
    # A dividend of lower degree than the divisor, zero included, is its
    # own remainder.
    for low in (d, IntPolynomial((5,)), IntPolynomial(())):
        assert low.divmod_by(p) == (IntPolynomial(()), low)


def test_divmod_requires_monic():
    # only monic divisors are supported; any other one is rejected, not guessed
    p = IntPolynomial((1, 0, 1))
    for d in (IntPolynomial((1, 2)), IntPolynomial((2, 2)), IntPolynomial((1, -1)), IntPolynomial(())):
        with pytest.raises(ValueError):
            p.divmod_by(d)


def test_str_format():
    p = IntPolynomial((-1, 2, 1))
    assert str(p) == "x^2 + 2*x - 1"


def test_value_is_the_remainder_of_dividing_by_a_linear_factor():
    p = IntPolynomial((6, -5, -2, 1))  # (x - 1)(x + 2)(x - 3)
    for lam in range(-4, 5):
        _q, r = p.divmod_by(IntPolynomial((-lam, 1)))
        assert p(lam) == (r.coeffs[0] if r.coeffs else 0), lam
    assert [lam for lam in range(-4, 5) if p(lam) == 0] == [-2, 1, 3]
    assert IntPolynomial(())(7) == 0

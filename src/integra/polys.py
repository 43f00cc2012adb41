"""Exact integer polynomial arithmetic (ascending-coefficient lists)."""

from __future__ import annotations

from dataclasses import dataclass


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial with big-integer coefficients, coeffs[i] multiplying x**i.

    The zero polynomial is the empty coefficient tuple; any other value has a
    nonzero leading coefficient.
    """

    coeffs: tuple[int, ...]

    @staticmethod
    def from_coeffs(coeffs: list[int] | tuple[int, ...]) -> IntPolynomial:
        return IntPolynomial(_trim(list(coeffs)))

    @staticmethod
    def zero() -> IntPolynomial:
        return IntPolynomial(())

    @staticmethod
    def one() -> IntPolynomial:
        return IntPolynomial((1,))

    @staticmethod
    def linear_root(r: int) -> IntPolynomial:
        """The monic linear polynomial x - r."""
        return IntPolynomial((-r, 1))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __mul__(self, other: IntPolynomial) -> IntPolynomial:
        if self.is_zero() or other.is_zero():
            return IntPolynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def __pow__(self, n: int) -> IntPolynomial:
        if n < 0:
            raise ValueError("negative polynomial power")
        result = IntPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def divmod_by(self, divisor: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
        """Exact division over the rationals with an integer quotient check.

        Valid for monic divisors (the only case used here); raises if a
        non-integer quotient coefficient would be produced.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if not divisor.is_monic():
            raise ValueError("divisor must be monic for exact integer division")
        rem = list(self.coeffs)
        dd = divisor.degree
        if self.degree < dd:
            return IntPolynomial.zero(), self
        quot = [0] * (self.degree - dd + 1)
        for k in range(len(quot) - 1, -1, -1):
            q = rem[k + dd]
            quot[k] = q
            if q == 0:
                continue
            for i, c in enumerate(divisor.coeffs):
                rem[k + i] -= q * c
        return IntPolynomial(_trim(quot)), IntPolynomial(_trim(rem))

    def divides(self, other: IntPolynomial) -> bool:
        """True iff the monic polynomial self divides other exactly.

        Raises ValueError, through divmod_by, when self is not monic.
        """
        _, rem = other.divmod_by(self)
        return rem.is_zero()

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if k == 0:
                term = str(mag)
            else:
                xs = "x" if k == 1 else f"x^{k}"
                term = xs if mag == 1 else f"{mag}*{xs}"
            parts.append(f"{sign}{term}" if not parts else f" {sign} {term}")
        return "".join(parts)

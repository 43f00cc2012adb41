"""Exact integer polynomial arithmetic (ascending-coefficient lists)."""

from __future__ import annotations


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class IntPolynomial:
    """Polynomial with big-integer coefficients, coeffs[i] multiplying x**i.

    The zero polynomial is the empty coefficient tuple; any other value has a
    nonzero leading coefficient. Two polynomials are equal, and hash alike,
    when their coefficients are.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        self.coeffs = coeffs

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial(coeffs={self.coeffs!r})"

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def __mul__(self, other: IntPolynomial) -> IntPolynomial:
        if not self.coeffs or not other.coeffs:
            return IntPolynomial(())
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
        result = IntPolynomial((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __call__(self, x: int) -> int:
        """The value at x, by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod_by(self, divisor: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
        """Quotient and remainder; the divisor must be monic, which keeps both integral."""
        if not divisor.coeffs or divisor.coeffs[-1] != 1:
            raise ValueError("divisor must be monic for exact integer division")
        rem = list(self.coeffs)
        dd = divisor.degree
        if self.degree < dd:
            return IntPolynomial(()), self
        # The monic leading term cancels rem[k + dd]; only lower terms are subtracted.
        low = divisor.coeffs[:-1]
        quot = [0] * (self.degree - dd + 1)
        for k in range(len(quot) - 1, -1, -1):
            q = rem[k + dd]
            quot[k] = q
            if q == 0:
                continue
            for i, c in enumerate(low):
                rem[k + i] -= q * c
        return IntPolynomial(_trim(quot)), IntPolynomial(_trim(rem[:dd]))

    def __str__(self) -> str:
        if not self.coeffs:
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

"""Univariate polynomials with exact rational coefficients."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, slots=True)
class Poly:
    """Univariate polynomial with exact rational coefficients, low to high.

    The trailing coefficient is nonzero; the zero polynomial stores no
    coefficients. CLI grammar: comma-separated rationals low to high, e.g.
    ``0,0,0,1`` for the cube.
    """

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("trailing coefficient must be nonzero")

    @classmethod
    def from_coeffs(cls, coefficients) -> "Poly":
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return cls(tuple(coeffs))

    @classmethod
    def x_power(cls, k: int) -> "Poly":
        if k < 0:
            raise ValueError("power must be >= 0")
        return cls(tuple([Fraction(0)] * k + [Fraction(1)]))

    @classmethod
    def parse(cls, text: str) -> "Poly":
        try:
            return cls.from_coeffs(Fraction(part.strip()) for part in text.split(","))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in polynomial {text!r}") from None

    def format(self) -> str:
        if not self.coeffs:
            return "0"
        return ",".join(str(c) for c in self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        size = max(len(self.coeffs), len(other.coeffs))
        return Poly.from_coeffs(
            self.coefficient(k) + other.coefficient(k) for k in range(size)
        )

    def __rmul__(self, scalar) -> "Poly":
        return Poly.from_coeffs(Fraction(scalar) * c for c in self.coeffs)

    def __call__(self, x: float) -> float:
        value = 0.0
        for c in reversed(self.coeffs):
            value = value * x + float(c)
        return value

"""Exact arithmetic in rings of cyclotomic integers Z[zeta_m].

A value is stored in the group-algebra representation Z[x]/(x^m - 1): a
length-m integer vector whose j-th entry is the coefficient of zeta^j.
Sums of roots of unity (character sums) are then plain exponent counters,
addition is vector addition and multiplication is cyclic convolution, all
exact.  Two vectors represent the same algebraic number iff their
difference is divisible by the m-th cyclotomic polynomial Phi_m, which is
an exact integer polynomial division.

reduction_matrix(m) maps exponent vectors to their coordinates in the
power basis 1, zeta, ..., zeta^(phi(m)-1) (CycloNum.coordinates), which the
tests and the benchmark's tracer read; every character sum of a verdict is
chartab.class_sums, modulo primes r = 1 mod m.  prime_divisors(m),
unit_generators(m), generators of the Galois group (Z/m)^x, and
root_of_unity(m, r), the image of zeta_m in F_r, serve those sums and the
checks of character tables.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np


class IntegralityError(ArithmeticError):
    """An exact character sum failed to be integral: internal arithmetic fault."""


class NonRationalError(IntegralityError, ValueError):
    """Raised when a rational value is requested from a non-rational number."""


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials; den must be monic-led and divide num."""
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        q, r = divmod(num[i], lead)
        if r != 0:
            raise ArithmeticError("non-exact polynomial division")
        out[i - dn] = q
        if q:
            for j, c in enumerate(den):
                num[i - dn + j] -= q * c
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial."""
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    for d in range(1, m):
        if m % d == 0:
            num = _poly_divexact(num, list(cyclotomic_poly(d)))
    return tuple(num)


@lru_cache(maxsize=None)
def reduction_matrix(m: int) -> np.ndarray:
    """Read-only (m, phi(m)) matrix sending a length-m exponent vector to its
    canonical residue mod Phi_m, in the basis 1, zeta, ..., zeta^(phi(m)-1)."""
    phi = cyclotomic_poly(m)
    deg = len(phi) - 1
    out = np.zeros((m, deg), dtype=np.int64)
    for j in range(m):
        if j < deg:
            out[j, j] = 1
            continue
        # x^j mod Phi_m = x * (x^(j-1) mod Phi_m) mod Phi_m
        lead = int(out[j - 1, deg - 1])
        out[j, 1:] = out[j - 1, :-1]
        out[j] -= lead * np.array(phi[:deg], dtype=np.int64)
    if np.abs(out).max() > 1 << 31:
        raise OverflowError("reduction matrix entries too large")
    out.flags.writeable = False
    return out


def prime_divisors(m: int) -> list[int]:
    """The primes dividing m, ascending."""
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    return out + [m] if m > 1 else out


def unit_generators(m: int) -> list[int]:
    """Units w of Z/m, ascending, each outside the subgroup of (Z/m)^x that
    the ones before it generate: together they generate (Z/m)^x, the Galois
    group of Q(zeta_m), w acting as sigma_w: zeta_m -> zeta_m^w."""
    span, gens = {1 % m}, []
    for w in range(2, m):
        if gcd(w, m) == 1 and w not in span:
            gens.append(w)
            grown, x = set(span), w
            while x not in span:  # add the cosets span w^j until w^j is in span
                grown |= {s * x % m for s in span}
                x = x * w % m
            span = grown
    return gens


def root_of_unity(m: int, r: int) -> int:
    """A zeta of order m in F_r, r a prime = 1 mod m, so that zeta_m -> zeta
    maps Z[zeta_m] onto F_r: x^((r-1)/m) for the first x = 2, 3, ... whose
    power is no (m/p)-th root of 1 for a prime p | m."""
    ps = prime_divisors(m)
    for x in range(2, r):
        z = pow(x, (r - 1) // m, r)
        if all(pow(z, m // p, r) != 1 for p in ps):
            return z
    raise AssertionError(f"no root of unity of order {m} mod {r}")


class CycloNum:
    """An element of Z[zeta_m], immutable, with exact ring operations."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs=None):
        if m < 1:
            raise ValueError("m must be positive")
        self.m = m
        if coeffs is None:
            self.coeffs = (0,) * m
        else:
            coeffs = tuple(int(c) for c in coeffs)
            if len(coeffs) != m:
                raise ValueError("coefficient vector must have length m")
            self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(m: int) -> "CycloNum":
        return CycloNum(m)

    @staticmethod
    def integer(m: int, value: int) -> "CycloNum":
        c = [0] * m
        c[0] = int(value)
        return CycloNum(m, c)

    @staticmethod
    def from_counter(m: int, counter) -> "CycloNum":
        """Build sum_j counter[j] * zeta^j from an exponent-count vector."""
        return CycloNum(m, list(counter))

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "CycloNum"):
        if not isinstance(other, CycloNum):
            raise TypeError("expected CycloNum")
        if other.m != self.m:
            raise ValueError(f"mixed cyclotomic orders {self.m} and {other.m}")

    def __add__(self, other: "CycloNum") -> "CycloNum":
        self._check(other)
        return CycloNum(self.m, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "CycloNum") -> "CycloNum":
        self._check(other)
        return CycloNum(self.m, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "CycloNum":
        return CycloNum(self.m, [-a for a in self.coeffs])

    def __mul__(self, other) -> "CycloNum":
        if isinstance(other, int):
            return CycloNum(self.m, [a * other for a in self.coeffs])
        self._check(other)
        m = self.m
        out = [0] * m
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    k = i + j
                    if k >= m:
                        k -= m
                    out[k] += a * b
        return CycloNum(m, out)

    __rmul__ = __mul__

    def conj(self) -> "CycloNum":
        """Complex conjugation, zeta^j -> zeta^(-j)."""
        m = self.m
        return CycloNum(m, [self.coeffs[(-j) % m] for j in range(m)])

    def norm_squared(self) -> "CycloNum":
        return self * self.conj()

    # -- identity tests ----------------------------------------------------

    def coordinates(self) -> np.ndarray:
        """Exact power-basis coordinates (Python ints) of the residue mod Phi_m."""
        return np.array(self.coeffs, dtype=object) @ reduction_matrix(self.m)

    def is_zero(self) -> bool:
        """True iff the represented algebraic number is 0 (reduction mod Phi_m)."""
        return not any(self.coordinates())

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return (self - CycloNum.integer(self.m, other)).is_zero()
        if not isinstance(other, CycloNum) or other.m != self.m:
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("CycloNum is not hashable (equality is up to Phi_m)")

    def __repr__(self):
        terms = [f"{c}*z{self.m}^{j}" for j, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"

    # -- rational extraction ------------------------------------------------

    def rational_value(self) -> Fraction:
        """Exact rational value; raises NonRationalError for non-rational input."""
        coords = self.coordinates()
        if any(coords[1:]):
            raise NonRationalError("value is not Galois-invariant")
        return Fraction(coords[0])

    def complex_value(self) -> complex:
        """Floating approximation, for diagnostics only."""
        ang = 2j * np.pi / self.m
        return complex(sum(c * np.exp(ang * j) for j, c in enumerate(self.coeffs)))


"""Exact arithmetic in rings of cyclotomic integers Z[zeta_m].

A value is stored in the group-algebra representation Z[x]/(x^m - 1): a
length-m integer vector whose j-th entry is the coefficient of zeta^j.
Sums of roots of unity (character sums) are then plain exponent counters,
addition is vector addition and multiplication is cyclic convolution, all
exact.  Two vectors represent the same algebraic number iff their
difference is divisible by the m-th cyclotomic polynomial Phi_m, which is
an exact integer polynomial division.

reduction_matrix(m) is the map from exponent vectors to canonical
coordinates in the power basis 1, zeta, ..., zeta^(phi(m)-1), and
CycloNum.coordinates applies it.  A value is rational iff all its
coordinates but the first vanish, so every exact sum is turned into an
integer here: one CycloNum by is_zero/rational_value, a stack of exponent
vectors at once by integer_values, which reduces through the radical
s = rad(m) with the smaller reduction_matrix(s), as Phi_m(x) = Phi_s(x^(m/s)).
An inner product of class functions (every character sum) is pairings, then
integer_values.  prime_divisors(m), unit_generators(m), generators of the
Galois group (Z/m)^x, and root_of_unity(m, r), the image of zeta_m in F_r
for a prime r = 1 mod m, serve the modular checks of character tables.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

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


def integer_values(acc: np.ndarray, m: int, divisor: int = 1) -> np.ndarray:
    """Exact integers acc / divisor for a stack (..., m) of exponent vectors.

    The reduction runs through s = rad(m): Phi_m(x) = Phi_s(x^(m/s)), so
    exponent c (m/s) + b reduces by reduction_matrix(s) acting on c alone.
    Each vector is read as an (s, m/s) block, and reduction_matrix(s) maps
    its s rows to phi(s) rows, the canonical coordinates of
    reduction_matrix(m) with m/s times fewer products.  Raises NonRationalError when a vector is
    not rational, IntegralityError when it is not divisible by divisor or
    when the int64 reduction could overflow: every partial sum of the product
    is bounded by the row L1 norm, at most m * max |entry|, times
    max |reduction entry| (the same for reduction_matrix(s) and
    reduction_matrix(m)), and that bound must stay below 2^63.
    """
    s = prod(prime_divisors(m))
    red = reduction_matrix(s)
    flat = np.asarray(acc, dtype=np.int64).reshape(-1, s, m // s)
    bound = m * _max_abs(flat) * _max_abs(red)
    if bound >= 1 << 63:
        raise IntegralityError(f"reducing sums bounded by {bound} could overflow int64")
    # reduced[n, b, c'] is the coordinate of zeta^(c' m/s + b)
    reduced = flat.transpose(0, 2, 1) @ red
    if np.any(reduced.reshape(len(flat), -1)[:, 1:]):
        raise NonRationalError("character sum is not rational")
    vals, rem = np.divmod(reduced[:, 0, 0], divisor)
    if np.any(rem):
        raise IntegralityError(f"character sum is not divisible by {divisor}")
    return vals.reshape(np.shape(acc)[:-1])


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


def pairings(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Exponent vectors (X, T, m) of sum_c f[x, c] * conj(g[t, c]) for stacks
    f (X, k, m) and g (T, k, m) of class functions with values in Z[zeta_m].

    Only the live classes, where f is nonzero, are read from g: they are paired
    in the smallest subring Z[zeta_m^d] holding their values (d = gcd of m and
    the exponents used), grouped by d.  Only the exponents that f uses enter
    the contiguous inner axis of the int64 matmuls, one per output exponent.
    Raises IntegralityError unless k' * m * max|f| * max|g'|, with k' live
    classes and g' the columns of g on them, is below 2^63: it bounds every
    partial sum, and g may exceed it on a class that f does not touch.
    g may be of any integer dtype, such as a CharTable's narrow values: it is
    only read by gathers and comparisons, and what the products gather from
    it is widened to int64 first; f is taken as int64.
    """
    f = np.asarray(f, dtype=np.int64)
    g = np.asarray(g)
    X, k, m = f.shape
    T = g.shape[0]
    f_used = f.any(axis=0)
    live = np.flatnonzero(f_used.any(axis=1))
    g_live = g[:, live] if len(live) < k else g  # a row orthogonality has every class live
    bound = len(live) * m * _max_abs(f) * _max_abs(g_live)
    if bound >= 1 << 63:
        raise IntegralityError(f"pairing sums bounded by {bound} could overflow int64")
    used = f_used[live] | g_live.any(axis=0)
    del g_live  # the pairs below gather from g itself
    steps = np.gcd(np.gcd.reduce(np.where(used, np.arange(m), 0), axis=1), m)
    out = np.zeros((X, T, m), dtype=np.int64)
    for d in np.flatnonzero(np.bincount(steps)).tolist():
        cls = live[steps == d]
        mm = m // d
        expos = np.flatnonzero(f_used[cls, ::d].any(axis=0))
        # f over (x; exponent a, class c), and conj(g) as hc[j, c, t] = g[t, c, -j d],
        # each gathered in that layout by one index
        fa = np.take(f.reshape(X, k * m), (cls * m + d * expos[:, None]).ravel(), axis=1)
        hc = g.transpose(2, 1, 0)[(-np.arange(mm) % mm * d)[:, None], cls].astype(np.int64)
        for w in range(mm):
            # zeta^a * conj(zeta^j) lands on zeta^(d w) when j = w - a (mod mm)
            out[:, :, w * d] += fa @ hc[(w - expos) % mm].reshape(-1, T)
    return out


def _max_abs(a: np.ndarray) -> int:
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


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


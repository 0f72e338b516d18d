"""Finite local rings o_l of two families, with exact element arithmetic.

Supported rings:

* ``mixed`` characteristic: Z/p^l (residue degree f = 1),
* ``equal`` characteristic: F_q[t]/(t^l) with q = p^f.

Both are local with maximal ideal (pi), pi = p resp. t, residue field of
size q, and |o_l| = q^l.  Elements are stored as canonical integer codes
in [0, q^l): the code of an integer residue for the mixed family, and
sum_i c_i q^i for the coefficient vector (c_0, ..., c_{l-1}) over F_q in
the equal-characteristic family (F_q elements are themselves coded in
[0, q) by base-p digits relative to a fixed modulus polynomial).

This uniform coding gives family-independent formulas: projection to o_i
is code mod q^i, x is a unit iff code mod q != 0, the valuation is the
q-adic valuation of the code, and pi has code q.

The canonical enumeration order of o_l is ascending code.  For the equal
family this is the lexicographic order on coefficient vectors read from
the t^(l-1) coefficient down to the constant term.

Ring is the one arithmetic object of both families at every level, the
residue field F_q (l = 1) included.  The mixed family computes mod p^l.
The equal family reads every scalar and vectorized operation off
add/mul/neg tables that each ring builds once, by array arithmetic on
digits: F_q = F_p[x]/(modulus) on base-p digits, and o_l = F_q[t]/(t^l)
on base-q digits over the residue field's tables.  A ring of either family
above TABLE_GATE elements raises CapExceeded instead of building any
per-element table or vector (the tables, the unit list, the inverse,
valuation and phi vectors).

Elements are these int codes, and numpy arrays of them in the vectorized
operations; there is no element object.  The canonical primitive additive
character phi is one exponent map, Ring.phi_exponents(): phi(x) is
zeta_m^phi_exponents()[x] with m = char_order, and its twist phi_a(x) =
phi(a x) by a unit a is phi_exponents()[a x].
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

# ---------------------------------------------------------------------------
# fixed modulus polynomials for F_{p^f}, f >= 2 (coefficients ascending)

CONWAY_POLYS: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 2): (2, 4, 1),
    (7, 2): (3, 6, 1),
}

# element-wise code tables are only built for rings up to this size
TABLE_GATE = 1 << 12


class CapExceeded(RuntimeError):
    """A requested computation exceeds a configured size cap."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def all_tuples(base: int, length: int) -> np.ndarray:
    """Every tuple in [0, base)^length as a (base^length, length) array: row i
    holds the base-`base` digits of i, coordinate 0 fastest."""
    idx = np.arange(base**length, dtype=np.int64)
    return (idx[:, None] // base ** np.arange(length, dtype=np.int64)) % base


class RingKind(Enum):
    MIXED = "mixed"
    EQUAL = "equal"


@dataclass(frozen=True)
class RingDesc:
    """Descriptor of a finite local ring; validate via ring_make."""

    kind: RingKind
    p: int
    f: int
    ell: int

    @property
    def q(self) -> int:
        return self.p**self.f

    @property
    def size(self) -> int:
        return self.q**self.ell

    def key(self) -> str:
        """Compact serialization used in CLI flags and cache keys."""
        if self.kind is RingKind.MIXED:
            return f"mixed:{self.p}^{self.ell}"
        return f"equal:{self.q}^{self.ell}"

    def __str__(self) -> str:
        return self.key()


def ring_make(kind, p: int, f: int, ell: int) -> RingDesc:
    """Validated ring descriptor for Z/p^ell (mixed) or F_{p^f}[t]/(t^ell) (equal)."""
    if isinstance(kind, str):
        kind = RingKind(kind)
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if f < 1 or ell < 1:
        raise ValueError("f and ell must be positive")
    if kind is RingKind.MIXED and f != 1:
        raise ValueError("unsupported: mixed-characteristic rings require f = 1")
    if kind is RingKind.EQUAL and f > 1 and (p, f) not in CONWAY_POLYS:
        raise ValueError(f"no modulus polynomial on record for q = {p}^{f}")
    return RingDesc(kind, p, f, ell)


def parse_ring(text: str) -> RingDesc:
    """Parse 'mixed:p^ell' or 'equal:q^ell'."""
    try:
        family, rest = text.split(":")
        base, ell = rest.split("^")
        base, ell = int(base), int(ell)
    except ValueError:
        raise ValueError(f"bad ring string {text!r}, expected e.g. 'mixed:3^2'")
    if family == "mixed":
        return ring_make(RingKind.MIXED, base, 1, ell)
    if family == "equal":
        p, f = _factor_prime_power(base)
        return ring_make(RingKind.EQUAL, p, f, ell)
    raise ValueError(f"unknown ring family {family!r}")


def _factor_prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            f = 0
            while q % p == 0:
                q //= p
                f += 1
            if q != 1:
                raise ValueError("q is not a prime power")
            return p, f
    raise ValueError("q is not a prime power")


# ---------------------------------------------------------------------------
# ring context


class Ring:
    """Runtime arithmetic context for a RingDesc, on integer codes.

    The mixed family computes mod p^l; the equal family reads every
    operation off its add/mul/neg tables.
    """

    def __init__(self, desc: RingDesc):
        self.desc = desc
        self.kind = desc.kind
        self._mixed = desc.kind is RingKind.MIXED  # an enum compare costs more than a lookup
        self.p, self.f, self.ell = desc.p, desc.f, desc.ell
        self.q = desc.q
        self.size = desc.size
        self.zero, self.one = 0, 1
        self.varpi = self.q if self.ell > 1 else 0  # pi = 0 in o_1
        # order of the canonical primitive additive character's values
        self.char_order = self.p**self.ell if self._mixed else self.p
        self._inv_vec = None
        self._expo_vec = None

    def __repr__(self):
        return f"Ring({self.desc.key()})"

    # -- scalar arithmetic on codes ----------------------------------------

    def add(self, a: int, b: int) -> int:
        if self._mixed:
            return (a + b) % self.size
        return self.tables[0].item(a, b)

    def neg(self, a: int) -> int:
        if self._mixed:
            return (-a) % self.size
        return self.tables[2].item(a)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self._mixed:
            return (a * b) % self.size
        return self.tables[1].item(a, b)

    def is_unit(self, a: int) -> bool:
        return a % self.q != 0

    def inv(self, a: int) -> int:
        if not self.is_unit(a):
            raise ValueError(f"{a} is not a unit in {self.desc.key()}")
        if self._mixed:
            return pow(a, -1, self.size)
        return self.v_inv().item(a)

    def project_code(self, a: int, i: int) -> int:
        if not 1 <= i <= self.ell:
            raise ValueError(f"projection level {i} out of range [1, {self.ell}]")
        return a % self.q**i

    def subring(self, i: int) -> "Ring":
        """The quotient o_i with the same family and q."""
        if not 1 <= i <= self.ell:
            raise ValueError(f"level {i} out of range")
        return get_ring(RingDesc(self.kind, self.p, self.f, i))

    def residue_field(self) -> "Ring":
        return self.subring(1)

    def unit_codes(self) -> list[int]:
        self._gate()
        return [a for a in range(self.size) if a % self.q != 0]

    def _gate(self) -> None:
        """CapExceeded above TABLE_GATE, before a per-element vector is built."""
        if self.size > TABLE_GATE:
            raise CapExceeded(f"ring {self.desc.key()} of size {self.size} exceeds the "
                              f"element-table gate {TABLE_GATE}")

    # -- vectorized arithmetic on numpy code arrays -------------------------

    @cached_property
    def tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The equal family's (add, mul, neg) code tables, built on first use.

        A ring is K[x]/(modulus) on base-|K| digits over a coefficient field
        K: F_q = F_p[x]/(Conway polynomial) over F_p (F_p itself is
        F_p[x]/(x)), and o_l = F_q[t]/(t^l) over the residue field's tables.
        Digit k of a product a b is the sum over i, j of red[i+j][k] a_i b_j,
        red[d] being the digits of x^d mod the modulus.  The tables are
        built one output digit plane at a time.
        """
        self._gate()
        p = self.p
        if self.ell == 1:
            x = np.arange(p)
            f_add, f_mul = (x[:, None] + x) % p, (x[:, None] * x) % p
            base, modulus = p, CONWAY_POLYS.get((p, self.f), (0, 1))
        else:
            f_add, f_mul, _ = self.residue_field().tables
            base, modulus = self.q, (0,) * self.ell + (1,)
        f_neg = np.argmax(f_add == 0, axis=1)
        L = len(modulus) - 1
        red = [[int(i == d) for i in range(L)] for d in range(L)]
        for _ in range(L - 1):  # x^d = x x^(d-1), and x^L = -(modulus below x^L)
            top, low = red[-1][-1], [0] + red[-1][:-1]
            red.append([int(f_add[c, f_mul[f_neg[top], m]]) for c, m in zip(low, modulus)])
        # int16 digit planes: a quarter of the size of an int64 table
        f_add, f_mul = f_add.astype(np.int16), f_mul.astype(np.int16)
        codes = np.arange(self.size)
        digits = [(codes // base**i % base).astype(np.int16) for i in range(L)]
        add = np.zeros((self.size, self.size), dtype=np.int64)
        mul = np.zeros((self.size, self.size), dtype=np.int64)
        neg = np.zeros(self.size, dtype=np.int64)
        for k in reversed(range(L)):  # Horner on the digits, top digit first
            add *= base
            add += f_add[digits[k][:, None], digits[k]]
            neg *= base
            neg += f_neg[digits[k]]
            mul *= base
            plane = None
            for i in range(L):
                for j in range(L):
                    c = red[i + j][k]
                    if c:
                        term = f_mul[digits[i][:, None], digits[j]]
                        term = term if c == 1 else f_mul[c, term]
                        plane = term if plane is None else f_add[plane, term]
            if plane is not None:
                mul += plane
        return add, mul, neg

    def v_add(self, A, B):
        if self._mixed:
            return (np.asarray(A, dtype=np.int64) + np.asarray(B, dtype=np.int64)) % self.size
        return self.tables[0][np.asarray(A, dtype=np.intp), np.asarray(B, dtype=np.intp)]

    def v_mul(self, A, B):
        if self._mixed:
            return (np.asarray(A, dtype=np.int64) * np.asarray(B, dtype=np.int64)) % self.size
        return self.tables[1][np.asarray(A, dtype=np.intp), np.asarray(B, dtype=np.intp)]

    def v_neg(self, A):
        if self._mixed:
            return (-np.asarray(A, dtype=np.int64)) % self.size
        return self.tables[2][np.asarray(A, dtype=np.intp)]

    def v_sub(self, A, B):
        return self.v_add(A, self.v_neg(B))

    def v_inv(self) -> np.ndarray:
        """Unit-inverse lookup vector; 0 at non-units."""
        if self._inv_vec is None:
            self._gate()
            if self._mixed:
                self._inv_vec = np.array([pow(a, -1, self.size) if a % self.q else 0
                                          for a in range(self.size)], dtype=np.int64)
            else:  # the first 1 in each row of the mul table; a non-unit row has none
                self._inv_vec = np.argmax(self.tables[1] == 1, axis=1).astype(np.int64)
        return self._inv_vec

    @cached_property
    def valuations(self) -> np.ndarray:
        """Valuation lookup vector: the lowest nonzero base-q digit of each code, l at 0."""
        self._gate()
        return sum(np.arange(self.size) % self.q**k == 0 for k in range(1, self.ell + 1))

    def v_is_unit(self, A) -> np.ndarray:
        return np.asarray(A, dtype=np.int64) % self.q != 0

    # -- primitive character support ----------------------------------------

    def phi_exponents(self) -> np.ndarray:
        """Exponent of the canonical primitive character phi on every code.

        mixed: phi(x) = zeta_{p^l}^x.  equal: phi(x) = zeta_p^Tr(c_{l-1}(x)).
        """
        if self._expo_vec is None:
            self._gate()
            if self._mixed:
                self._expo_vec = np.arange(self.size, dtype=np.int64)
            else:  # Tr(c) = c + c^p + ... + c^(p^(f-1)) on F_q's tables
                add, mul, _ = self.residue_field().tables
                codes = np.arange(self.q)
                frobenius = codes  # c -> c^p
                for _ in range(self.p - 1):
                    frobenius = mul[frobenius, codes]
                trace, power = np.zeros(self.q, dtype=np.int64), codes
                for _ in range(self.f):
                    trace, power = add[trace, power], frobenius[power]
                top = np.arange(self.size, dtype=np.int64) // self.q ** (self.ell - 1)
                self._expo_vec = trace[top]
        return self._expo_vec


@lru_cache(maxsize=None)
def get_ring(desc: RingDesc) -> Ring:
    return Ring(desc)

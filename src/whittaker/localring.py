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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator

import numpy as np

from .cyclotomic import CycloNum

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
# residue field code arithmetic (codes 0..q-1, base-p digits)


class _FqOps:
    """Raw F_q arithmetic on integer codes; tables of size q x q."""

    def __init__(self, p: int, f: int):
        self.p, self.f = p, f
        self.q = q = p**f
        if f == 1:
            self.modulus = None
            add = (np.arange(q)[:, None] + np.arange(q)[None, :]) % p
            mul = (np.arange(q)[:, None] * np.arange(q)[None, :]) % p
        else:
            self.modulus = CONWAY_POLYS[(p, f)]
            add = np.zeros((q, q), dtype=np.int64)
            mul = np.zeros((q, q), dtype=np.int64)
            for a in range(q):
                for b in range(q):
                    add[a, b] = self._poly_add(a, b)
                    mul[a, b] = self._poly_mul(a, b)
        self.add_table = add
        self.mul_table = mul
        self.neg_table = np.array([self._neg(a) for a in range(q)], dtype=np.int64)
        inv = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            for b in range(1, q):
                if mul[a, b] == 1:
                    inv[a] = b
                    break
        self.inv_table = inv
        # absolute trace F_q -> F_p; codes of F_p elements are 0..p-1
        tr = []
        for a in range(q):
            s, x = 0, a
            for _ in range(f):
                s = int(add[s, x])
                x = self._pow(x, p)
            tr.append(s)
        self.trace_table = np.array(tr, dtype=np.int64)

    def _digits(self, a: int) -> list[int]:
        return [(a // self.p**i) % self.p for i in range(self.f)]

    def _encode(self, digits) -> int:
        return sum(int(d) % self.p * self.p**i for i, d in enumerate(digits))

    def _poly_add(self, a: int, b: int) -> int:
        return self._encode(x + y for x, y in zip(self._digits(a), self._digits(b)))

    def _neg(self, a: int) -> int:
        return self._encode(-x % self.p for x in self._digits(a))

    def _poly_mul(self, a: int, b: int) -> int:
        p, f = self.p, self.f
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * f - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] += x * y
        mod = self.modulus
        for i in range(len(prod) - 1, f - 1, -1):
            c = prod[i] % p
            prod[i] = 0
            if c:
                for j in range(f):
                    prod[i - f + j] -= c * mod[j]
        return self._encode(prod[:f])

    def _pow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = int(self.mul_table[r, a])
            a = int(self.mul_table[a, a])
            e >>= 1
        return r


@lru_cache(maxsize=None)
def _fq_ops(p: int, f: int) -> _FqOps:
    return _FqOps(p, f)


# ---------------------------------------------------------------------------
# ring context


class Ring:
    """Runtime arithmetic context for a RingDesc, on integer codes."""

    def __init__(self, desc: RingDesc):
        self.desc = desc
        self.kind = desc.kind
        self.p, self.f, self.ell = desc.p, desc.f, desc.ell
        self.q = desc.q
        self.size = desc.size
        self.zero, self.one = 0, 1
        self.varpi = self.q if self.ell > 1 else 0  # pi = 0 in o_1
        # order of the canonical primitive additive character's values
        self.char_order = self.p**self.ell if self.kind is RingKind.MIXED else self.p
        self._fq = _fq_ops(self.p, self.f) if self.kind is RingKind.EQUAL else None
        self._tables = None
        self._inv_vec = None
        self._expo_vec = None

    def __repr__(self):
        return f"Ring({self.desc.key()})"

    # -- scalar arithmetic on codes ----------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.kind is RingKind.MIXED:
            return (a + b) % self.size
        fq = self._fq
        return sum(
            int(fq.add_table[(a // self.q**i) % self.q, (b // self.q**i) % self.q])
            * self.q**i
            for i in range(self.ell)
        )

    def neg(self, a: int) -> int:
        if self.kind is RingKind.MIXED:
            return (-a) % self.size
        fq = self._fq
        return sum(
            int(fq.neg_table[(a // self.q**i) % self.q]) * self.q**i
            for i in range(self.ell)
        )

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.kind is RingKind.MIXED:
            return (a * b) % self.size
        fq = self._fq
        q, ell = self.q, self.ell
        da = [(a // q**i) % q for i in range(ell)]
        db = [(b // q**i) % q for i in range(ell)]
        out = 0
        for i, x in enumerate(da):
            if x == 0:
                continue
            for j, y in enumerate(db):
                if i + j < ell and y:
                    k = i + j
                    cur = (out // q**k) % q
                    new = int(fq.add_table[cur, int(fq.mul_table[x, y])])
                    out += (new - cur) * q**k
        return out

    def is_unit(self, a: int) -> bool:
        return a % self.q != 0

    def inv(self, a: int) -> int:
        if not self.is_unit(a):
            raise ValueError(f"{a} is not a unit in {self.desc.key()}")
        if self.kind is RingKind.MIXED:
            return pow(a, -1, self.size)
        # Newton-free: the unit group has exponent dividing (q-1)*p^ceil(log_p ell)
        e = self.unit_group_exponent() - 1
        return self.pow(a, e)

    def pow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def unit_group_exponent(self) -> int:
        k = 1
        while self.p**k < self.ell:
            k += 1
        if self.kind is RingKind.MIXED:
            # exponent of (Z/p^l)^x
            if self.p == 2 and self.ell >= 3:
                return 2 ** (self.ell - 2) * 2
            return (self.p - 1) * self.p ** max(self.ell - 1, 0)
        return (self.q - 1) * self.p**k if self.ell > 1 else self.q - 1

    def valuation(self, a: int) -> int:
        """q-adic valuation of the code; valuation(0) = ell by convention."""
        if a == 0:
            return self.ell
        v = 0
        while a % self.q == 0:
            a //= self.q
            v += 1
        return v

    def project_code(self, a: int, i: int) -> int:
        if not 1 <= i <= self.ell:
            raise ValueError(f"projection level {i} out of range [1, {self.ell}]")
        return a % self.q**i

    def mul_varpi_pow(self, a: int, k: int) -> int:
        """a * pi^k; in code terms (a mod q^(l-k)) * q^k for both families."""
        if k >= self.ell:
            return 0
        return (a % self.q ** (self.ell - k)) * self.q**k

    def div_varpi_pow(self, a: int, k: int) -> int:
        """Exact division by pi^k; the result is well defined mod pi^(ell-k)."""
        if a % self.q**k != 0:
            raise ValueError("element not divisible by pi^k")
        return a // self.q**k

    def subring(self, i: int) -> "Ring":
        """The quotient o_i with the same family and q."""
        if not 1 <= i <= self.ell:
            raise ValueError(f"level {i} out of range")
        return get_ring(RingDesc(self.kind, self.p, self.f, i))

    def residue_field(self) -> "Ring":
        return self.subring(1)

    def elements(self) -> range:
        return range(self.size)

    def unit_codes(self) -> list[int]:
        return [a for a in range(self.size) if a % self.q != 0]

    # -- vectorized arithmetic on numpy code arrays -------------------------

    def _build_tables(self):
        if self.size > TABLE_GATE:
            raise ValueError(
                f"ring of size {self.size} exceeds the element-table gate"
            )
        R = self.size
        add = np.zeros((R, R), dtype=np.int64)
        mul = np.zeros((R, R), dtype=np.int64)
        for a in range(R):
            for b in range(R):
                add[a, b] = self.add(a, b)
                mul[a, b] = self.mul(a, b)
        neg = np.array([self.neg(a) for a in range(R)], dtype=np.int64)
        self._tables = (add, mul, neg)

    def v_add(self, A, B):
        if self.kind is RingKind.MIXED:
            return (np.asarray(A, dtype=np.int64) + np.asarray(B, dtype=np.int64)) % self.size
        if self._tables is None:
            self._build_tables()
        return self._tables[0][np.asarray(A, dtype=np.intp), np.asarray(B, dtype=np.intp)]

    def v_mul(self, A, B):
        if self.kind is RingKind.MIXED:
            return (np.asarray(A, dtype=np.int64) * np.asarray(B, dtype=np.int64)) % self.size
        if self._tables is None:
            self._build_tables()
        return self._tables[1][np.asarray(A, dtype=np.intp), np.asarray(B, dtype=np.intp)]

    def v_neg(self, A):
        if self.kind is RingKind.MIXED:
            return (-np.asarray(A, dtype=np.int64)) % self.size
        if self._tables is None:
            self._build_tables()
        return self._tables[2][np.asarray(A, dtype=np.intp)]

    def v_sub(self, A, B):
        return self.v_add(A, self.v_neg(B))

    def v_inv(self) -> np.ndarray:
        """Unit-inverse lookup vector; 0 at non-units."""
        if self._inv_vec is None:
            self._inv_vec = np.array(
                [self.inv(a) if self.is_unit(a) else 0 for a in range(self.size)],
                dtype=np.int64,
            )
        return self._inv_vec

    def v_is_unit(self, A) -> np.ndarray:
        return np.asarray(A, dtype=np.int64) % self.q != 0

    # -- primitive character support ----------------------------------------

    def phi_exponents(self) -> np.ndarray:
        """Exponent of the canonical primitive character phi on every code.

        mixed: phi(x) = zeta_{p^l}^x.  equal: phi(x) = zeta_p^Tr(c_{l-1}(x)).
        """
        if self._expo_vec is None:
            if self.kind is RingKind.MIXED:
                self._expo_vec = np.arange(self.size, dtype=np.int64)
            else:
                top = np.arange(self.size, dtype=np.int64) // self.q ** (self.ell - 1)
                self._expo_vec = self._fq.trace_table[top]
        return self._expo_vec


@lru_cache(maxsize=None)
def get_ring(desc: RingDesc) -> Ring:
    return Ring(desc)


# ---------------------------------------------------------------------------
# element and character wrappers


@dataclass(frozen=True)
class RingElem:
    """An element of o_l in canonical representation."""

    desc: RingDesc
    code: int

    def __post_init__(self):
        if not 0 <= self.code < self.desc.size:
            raise ValueError("code out of range")

    @property
    def ring(self) -> Ring:
        return get_ring(self.desc)

    @property
    def repr_value(self):
        """Canonical residue: an integer (mixed) or coefficient tuple (equal)."""
        if self.desc.kind is RingKind.MIXED:
            return self.code
        q = self.desc.q
        return tuple((self.code // q**i) % q for i in range(self.desc.ell))

    def __add__(self, other: "RingElem") -> "RingElem":
        self._same(other)
        return RingElem(self.desc, self.ring.add(self.code, other.code))

    def __sub__(self, other: "RingElem") -> "RingElem":
        self._same(other)
        return RingElem(self.desc, self.ring.sub(self.code, other.code))

    def __mul__(self, other: "RingElem") -> "RingElem":
        self._same(other)
        return RingElem(self.desc, self.ring.mul(self.code, other.code))

    def __neg__(self) -> "RingElem":
        return RingElem(self.desc, self.ring.neg(self.code))

    def inverse(self) -> "RingElem":
        return RingElem(self.desc, self.ring.inv(self.code))

    def _same(self, other: "RingElem"):
        if self.desc != other.desc:
            raise ValueError("elements of different rings")

    def __repr__(self):
        return f"RingElem({self.desc.key()}, {self.repr_value})"


def elem(desc: RingDesc, code: int) -> RingElem:
    return RingElem(desc, code % desc.size)


def project(x: RingElem, i: int) -> RingElem:
    """Natural projection o_l -> o_i, a ring homomorphism."""
    ring = x.ring
    code = ring.project_code(x.code, i)
    return RingElem(ring.subring(i).desc, code)


def is_unit(x: RingElem) -> bool:
    return x.ring.is_unit(x.code)


def valuation(x: RingElem) -> int:
    return x.ring.valuation(x.code)


def units(desc: RingDesc) -> Iterator[RingElem]:
    """All units of o_l in canonical enumeration order."""
    ring = get_ring(desc)
    for code in ring.unit_codes():
        yield RingElem(desc, code)


class AdditiveChar:
    """Primitive additive character phi_a(x) = phi(a*x) of o_l, a a unit.

    Values are roots of unity of order m = p^l (mixed) or p (equal); the
    character is represented by its exponent map into Z/m.
    """

    def __init__(self, ring: Ring, a_code: int):
        if not ring.is_unit(a_code):
            raise ValueError("character twist must be a unit")
        self.ring = ring
        self.a_code = a_code
        self.m = ring.char_order
        self._base = ring.phi_exponents()

    def exponent(self, x_code: int) -> int:
        return int(self._base[self.ring.mul(self.a_code, x_code)])

    def exponents(self, codes) -> np.ndarray:
        prod = self.ring.v_mul(np.full_like(np.asarray(codes), self.a_code), codes)
        return self._base[np.asarray(prod, dtype=np.intp)]

    def value(self, x) -> CycloNum:
        code = x.code if isinstance(x, RingElem) else int(x)
        c = [0] * self.m
        c[self.exponent(code)] = 1
        return CycloNum(self.m, c)

    def is_primitive(self) -> bool:
        """Check nontriviality on pi^(l-1) o_l (exhaustive)."""
        top = self.ring.q ** (self.ring.ell - 1)
        return any(self.exponent(c * top) != 0 for c in range(1, self.ring.q))

    def table(self) -> tuple[int, ...]:
        """Exponent of phi_a on every element, in enumeration order."""
        return tuple(self.exponent(x) for x in range(self.ring.size))


def primitive_char(desc: RingDesc, a: RingElem | int = 1) -> AdditiveChar:
    """The primitive character phi_a; phi_1 is the canonical base character."""
    ring = get_ring(desc)
    a_code = a.code if isinstance(a, RingElem) else int(a)
    return AdditiveChar(ring, a_code)

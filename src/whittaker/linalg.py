"""Linear and polynomial algebra over F_q and over the local rings o_l.

Provides exact determinants and inverses, characteristic and minimal
polynomials over the residue field, irreducible factorization against a
sieve of monic irreducibles, and exact solution counting for linear
systems over o_l via valuation-tracking diagonalization (Smith/Howell
style reduction over a chain ring).

Matrices are stored as numpy arrays of integer element codes; batched
variants of multiply / det / inverse operate on stacks of matrices and
are the workhorses of group enumeration and character sums.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .localring import Ring, RingDesc, RingKind, _fq_ops, _factor_prime_power, get_ring, ring_make


# ---------------------------------------------------------------------------
# residue field contexts


class Fq:
    """Finite field F_q on integer codes 0..q-1 (base-p digits, fixed modulus)."""

    def __init__(self, q: int):
        p, f = _factor_prime_power(q)
        self.q, self.p, self.f = q, p, f
        self._ops = _fq_ops(p, f)
        self.zero, self.one = 0, 1

    @property
    def modulus(self) -> tuple[int, ...] | None:
        """Modulus polynomial coefficients (ascending), None for prime q."""
        return self._ops.modulus

    def add(self, a, b):
        return int(self._ops.add_table[a, b])

    def sub(self, a, b):
        return int(self._ops.add_table[a, self._ops.neg_table[b]])

    def neg(self, a):
        return int(self._ops.neg_table[a])

    def mul(self, a, b):
        return int(self._ops.mul_table[a, b])

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_q")
        return int(self._ops.inv_table[a])

    def pow(self, a, e):
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def elements(self):
        return range(self.q)

    def __repr__(self):
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def GF(q: int) -> Fq:
    return Fq(q)


# ---------------------------------------------------------------------------
# polynomials over F_q


class Poly:
    """Polynomial over F_q, coefficients ascending, no trailing zeros."""

    __slots__ = ("q", "coeffs")

    def __init__(self, q: int, coeffs):
        c = list(int(x) for x in coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.q = q
        self.coeffs = tuple(c)

    @property
    def field(self) -> Fq:
        return GF(self.q)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @staticmethod
    def x(q: int) -> "Poly":
        return Poly(q, (0, 1))

    def __eq__(self, other):
        return isinstance(other, Poly) and self.q == other.q and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.q, self.coeffs))

    def __add__(self, other: "Poly") -> "Poly":
        F = self.field
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return Poly(self.q, [
            F.add(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)
            for i in range(n)
        ])

    def __neg__(self) -> "Poly":
        F = self.field
        return Poly(self.q, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly(self.q, ())
        F = self.field
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = F.add(out[i + j], F.mul(a, b))
        return Poly(self.q, out)

    def scale(self, c: int) -> "Poly":
        F = self.field
        return Poly(self.q, [F.mul(c, a) for a in self.coeffs])

    def divmod(self, den: "Poly") -> tuple["Poly", "Poly"]:
        if den.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        d = den.degree
        lead_inv = F.inv(den.coeffs[-1])
        quot = [0] * max(len(rem) - d, 0)
        for i in range(len(rem) - 1, d - 1, -1):
            c = F.mul(rem[i], lead_inv)
            if c:
                quot[i - d] = c
                for j, dc in enumerate(den.coeffs):
                    rem[i - d + j] = F.sub(rem[i - d + j], F.mul(c, dc))
        return Poly(self.q, quot), Poly(self.q, rem)

    def __mod__(self, den: "Poly") -> "Poly":
        return self.divmod(den)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def evaluate(self, x: int) -> int:
        F = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*t^{i}" if i else f"{c}")
        return "Poly(" + " + ".join(terms) + f" over GF({self.q}))"


def companion(poly: Poly) -> np.ndarray:
    """Companion matrix (codes) of a monic polynomial over F_q."""
    if not poly.is_monic:
        raise ValueError("companion matrix requires a monic polynomial")
    n = poly.degree
    F = poly.field
    a = np.zeros((n, n), dtype=np.int64)
    for i in range(1, n):
        a[i, i - 1] = 1
    for i in range(n):
        a[i, n - 1] = F.neg(poly.coeffs[i])
    return a


# ---------------------------------------------------------------------------
# irreducible sieve and factorization

FACTOR_DEGREE_CAP = 8

# (q, max_deg) -> sieve, kept for the life of the process
_SIEVE_MEMO: dict[tuple[int, int], tuple] = {}


def monic_irreducibles(q: int, max_deg: int) -> tuple[tuple[Poly, ...], ...]:
    """All monic irreducibles over F_q of degree 1..max_deg, by trial division."""
    got = _SIEVE_MEMO.get((q, max_deg))
    if got is not None:
        return got
    by_degree: list[list[Poly]] = [[]]  # degree 0 slot unused
    for d in range(1, max_deg + 1):
        found = []
        for tail in _tuples(q, d):
            cand = Poly(q, list(tail) + [1])
            if _is_irreducible(cand, by_degree):
                found.append(cand)
        by_degree.append(found)
    sieve = tuple(tuple(lst) for lst in by_degree)
    _SIEVE_MEMO[(q, max_deg)] = sieve
    return sieve


def _tuples(q: int, d: int):
    idx = [0] * d
    while True:
        yield tuple(idx)
        i = 0
        while i < d:
            idx[i] += 1
            if idx[i] < q:
                break
            idx[i] = 0
            i += 1
        else:
            return


def _is_irreducible(cand: Poly, by_degree) -> bool:
    d = cand.degree
    if d == 1:
        return True
    for e in range(1, d // 2 + 1):
        for p in by_degree[e]:
            if (cand % p).is_zero():
                return False
    return True


def factor_poly(poly: Poly, cap: int = FACTOR_DEGREE_CAP) -> list[tuple[Poly, int]]:
    """Factor a monic polynomial into (irreducible, exponent) pairs.

    Deterministic trial division against the sieve of monic irreducibles of
    degree <= cap; degrees above the cap are rejected.
    """
    if not poly.is_monic:
        raise ValueError("factor_poly requires a monic polynomial")
    if poly.degree > cap:
        raise ValueError(f"degree {poly.degree} above factorization cap {cap}")
    sieve = monic_irreducibles(poly.q, max(poly.degree, 1))
    out = []
    rem = poly
    for d in range(1, poly.degree + 1):
        if rem.degree < d:
            break
        for p in sieve[d]:
            e = 0
            while rem.degree >= d:
                quot, r = rem.divmod(p)
                if not r.is_zero():
                    break
                rem, e = quot, e + 1
            if e:
                out.append((p, e))
    if rem.degree != 0:
        raise AssertionError("factorization did not terminate")  # unreachable
    return out


# ---------------------------------------------------------------------------
# matrices over o_r (and over F_q as the r = 1 case)


class Mat:
    """Square matrix over a local ring, entries as an (n, n) code array."""

    __slots__ = ("desc", "a")

    def __init__(self, desc: RingDesc, a):
        arr = np.asarray(a, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("Mat requires a square array")
        self.desc = desc
        self.a = arr

    def __repr__(self):
        return f"Mat({self.desc.key()}, {self.a.tolist()})"

    @property
    def ring(self) -> Ring:
        return get_ring(self.desc)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @staticmethod
    def identity(desc: RingDesc, n: int) -> "Mat":
        return Mat(desc, np.eye(n, dtype=np.int64))

    def __mul__(self, other: "Mat") -> "Mat":
        return Mat(self.desc, mat_mul(self.ring, self.a, other.a))

    def __add__(self, other: "Mat") -> "Mat":
        return Mat(self.desc, self.ring.v_add(self.a, other.a))

    def __sub__(self, other: "Mat") -> "Mat":
        return Mat(self.desc, self.ring.v_sub(self.a, other.a))

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.desc == other.desc
            and self.a.shape == other.a.shape
            and bool(np.all(self.a == other.a))
        )

    def __hash__(self):
        return hash((self.desc, self.a.tobytes()))

    def trace(self) -> int:
        t = 0
        for i in range(self.n):
            t = self.ring.add(t, int(self.a[i, i]))
        return t

    def power(self, e: int) -> "Mat":
        r = Mat.identity(self.desc, self.n)
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def project(self, i: int) -> "Mat":
        ring = self.ring
        sub = ring.subring(i)
        return Mat(sub.desc, self.a % ring.q**i)


def det(M: Mat) -> int:
    """Exact determinant (code) by cofactor expansion."""
    return _det_scalar(M.ring, M.a)


def _det_scalar(ring: Ring, a: np.ndarray) -> int:
    n = a.shape[0]
    if n == 1:
        return int(a[0, 0])
    if n == 2:
        return ring.sub(ring.mul(int(a[0, 0]), int(a[1, 1])),
                        ring.mul(int(a[0, 1]), int(a[1, 0])))
    acc = 0
    sign_pos = True
    for j in range(n):
        c = int(a[0, j])
        if c:
            minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
            term = ring.mul(c, _det_scalar(ring, minor))
            acc = ring.add(acc, term if sign_pos else ring.neg(term))
        sign_pos = not sign_pos
    return acc


def inverse(M: Mat) -> Mat:
    """Exact inverse via Gaussian elimination with unit pivots."""
    ring = M.ring
    n = M.n
    work = [[int(c) for c in row] for row in M.a]
    aug = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if ring.is_unit(work[i][col])), None)
        if piv is None:
            raise ValueError("matrix is not invertible (no unit pivot)")
        work[col], work[piv] = work[piv], work[col]
        aug[col], aug[piv] = aug[piv], aug[col]
        pinv = ring.inv(work[col][col])
        work[col] = [ring.mul(pinv, c) for c in work[col]]
        aug[col] = [ring.mul(pinv, c) for c in aug[col]]
        for i in range(n):
            if i != col and work[i][col]:
                f = work[i][col]
                work[i] = [ring.sub(c, ring.mul(f, d)) for c, d in zip(work[i], work[col])]
                aug[i] = [ring.sub(c, ring.mul(f, d)) for c, d in zip(aug[i], aug[col])]
    return Mat(M.desc, np.array(aug, dtype=np.int64))


# -- batched kernels ---------------------------------------------------------


def mat_mul(ring: Ring, A, B) -> np.ndarray:
    """Batched matrix product of code arrays; shapes broadcast on the left."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    if ring.kind is RingKind.MIXED:
        return (A @ B) % ring.size
    k = A.shape[-1]
    out = None
    for t in range(k):
        term = ring.v_mul(A[..., :, t][..., :, None], B[..., t, :][..., None, :])
        out = term if out is None else ring.v_add(out, term)
    return out


def mat_det_batch(ring: Ring, A) -> np.ndarray:
    """Batched determinant for n <= 3."""
    A = np.asarray(A, dtype=np.int64)
    n = A.shape[-1]
    if ring.kind is RingKind.MIXED:
        if n == 1:
            return A[..., 0, 0] % ring.size
        if n == 2:
            return (A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]) % ring.size
        if n == 3:
            a, b, c = A[..., 0, 0], A[..., 0, 1], A[..., 0, 2]
            d, e, f = A[..., 1, 0], A[..., 1, 1], A[..., 1, 2]
            g, h, i = A[..., 2, 0], A[..., 2, 1], A[..., 2, 2]
            return (a * e * i + b * f * g + c * d * h
                    - c * e * g - b * d * i - a * f * h) % ring.size
    else:
        mul, add, neg = ring.v_mul, ring.v_add, ring.v_neg
        if n == 1:
            return A[..., 0, 0]
        if n == 2:
            return add(mul(A[..., 0, 0], A[..., 1, 1]), neg(mul(A[..., 0, 1], A[..., 1, 0])))
        if n == 3:
            def m3(x, y, z):
                return mul(mul(x, y), z)
            pos = add(add(m3(A[..., 0, 0], A[..., 1, 1], A[..., 2, 2]),
                          m3(A[..., 0, 1], A[..., 1, 2], A[..., 2, 0])),
                      m3(A[..., 0, 2], A[..., 1, 0], A[..., 2, 1]))
            negt = add(add(m3(A[..., 0, 2], A[..., 1, 1], A[..., 2, 0]),
                           m3(A[..., 0, 1], A[..., 1, 0], A[..., 2, 2])),
                       m3(A[..., 0, 0], A[..., 1, 2], A[..., 2, 1]))
            return add(pos, neg(negt))
    # fallback: scalar loop
    flat = A.reshape(-1, n, n)
    return np.array([_det_scalar(ring, m) for m in flat], dtype=np.int64).reshape(A.shape[:-2])


def mat_inv_batch(ring: Ring, A) -> np.ndarray:
    """Batched inverse for stacks of invertible n <= 3 matrices."""
    A = np.asarray(A, dtype=np.int64)
    n = A.shape[-1]
    dets = mat_det_batch(ring, A)
    if not np.all(ring.v_is_unit(dets)):
        raise ValueError("batch contains a non-invertible matrix")
    dinv = ring.v_inv()[dets]
    if n == 1:
        return dinv[..., None, None]
    adj = np.empty_like(A)
    if n == 2:
        adj[..., 0, 0] = A[..., 1, 1]
        adj[..., 1, 1] = A[..., 0, 0]
        adj[..., 0, 1] = ring.v_neg(A[..., 0, 1])
        adj[..., 1, 0] = ring.v_neg(A[..., 1, 0])
    elif n == 3:
        mul, sub = ring.v_mul, ring.v_sub
        for i in range(3):
            for j in range(3):
                r = [k for k in range(3) if k != j]
                c = [k for k in range(3) if k != i]
                minor = sub(mul(A[..., r[0], c[0]], A[..., r[1], c[1]]),
                            mul(A[..., r[0], c[1]], A[..., r[1], c[0]]))
                adj[..., i, j] = minor if (i + j) % 2 == 0 else ring.v_neg(minor)
    else:
        flat = A.reshape(-1, n, n)
        out = np.stack([inverse(Mat(ring.desc, m)).a for m in flat])
        return out.reshape(A.shape)
    return ring.v_mul(dinv[..., None, None], adj)


# ---------------------------------------------------------------------------
# characteristic / minimal polynomials over F_q


def char_poly(mat, q: int | None = None) -> Poly:
    """Characteristic polynomial det(tI - x) of a matrix over F_q."""
    a, q = _as_field_matrix(mat, q)
    F = GF(q)
    n = a.shape[0]
    entries = [[Poly(q, (F.neg(int(a[i, j])),)) if i != j
                else Poly(q, (F.neg(int(a[i, j])), 1))
                for j in range(n)] for i in range(n)]
    return _poly_det(entries, q)


def _poly_det(rows: list[list[Poly]], q: int) -> Poly:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = Poly(q, ())
    for j in range(n):
        c = rows[0][j]
        if c.is_zero():
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = c * _poly_det(minor, q)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def min_poly(mat, q: int | None = None) -> Poly:
    """Minimal polynomial: least-degree monic annihilator of the matrix."""
    a, q = _as_field_matrix(mat, q)
    F = GF(q)
    n = a.shape[0]
    dim = n * n
    # echelon rows over F_q with their expression in powers of the matrix
    pivots: dict[int, tuple[list[int], list[int]]] = {}
    power = np.eye(n, dtype=np.int64)
    for k in range(n + 1):
        vec = [int(c) for c in power.reshape(dim)]
        combo = [0] * (n + 1)
        combo[k] = 1
        for col in sorted(pivots):
            if vec[col]:
                cvec, ccombo = pivots[col]
                f = vec[col]
                vec = [F.sub(x, F.mul(f, y)) for x, y in zip(vec, cvec)]
                combo = [F.sub(x, F.mul(f, y)) for x, y in zip(combo, ccombo)]
        lead = next((i for i, c in enumerate(vec) if c), None)
        if lead is None:
            return Poly(q, combo).monic()
        linv = F.inv(vec[lead])
        pivots[lead] = ([F.mul(linv, c) for c in vec], [F.mul(linv, c) for c in combo])
        power = mat_mul(GF_ring(q), power, a)
    raise AssertionError("no annihilator of degree <= n")  # unreachable


@lru_cache(maxsize=None)
def GF_ring(q: int) -> Ring:
    """The field F_q as the r = 1 local ring (equal family)."""
    p, f = _factor_prime_power(q)
    return get_ring(ring_make(RingKind.EQUAL, p, f, 1))


def _as_field_matrix(mat, q):
    if isinstance(mat, Mat):
        if mat.ring.ell != 1:
            raise ValueError("field-level operation requires a matrix over o_1")
        return mat.a, mat.ring.q
    if q is None:
        raise ValueError("q required for a raw code array")
    return np.asarray(mat, dtype=np.int64), q


# ---------------------------------------------------------------------------
# linear systems over o_l: exact kernels via Smith-style diagonalization


def smith_diagonal(ring: Ring, A, track_cols: bool = False):
    """Diagonalize A by unimodular row/column operations over o_l.

    Returns (valuations of diagonal pivots, V) where V is the accumulated
    column transform (A_new = U A V); V is None unless track_cols.
    """
    rows = [[int(c) for c in r] for r in np.asarray(A, dtype=np.int64)]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    V = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)] if track_cols else None
    pivots = []
    s = 0
    while s < min(nr, nc):
        best = None
        for i in range(s, nr):
            for j in range(s, nc):
                v = ring.valuation(rows[i][j])
                if v < ring.ell and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        e, bi, bj = best
        rows[s], rows[bi] = rows[bi], rows[s]
        if bj != s:
            for r in rows:
                r[s], r[bj] = r[bj], r[s]
            if track_cols:
                for r in V:
                    r[s], r[bj] = r[bj], r[s]
        # normalize pivot to pi^e
        u = ring.div_varpi_pow(rows[s][s], e) if e else rows[s][s]
        uinv = ring.inv(u)
        for j in range(nc):
            rows[s][j] = ring.mul(uinv, rows[s][j])
        # clear column s below, then row s to the right
        for i in range(nr):
            if i != s and rows[i][s]:
                f = ring.div_varpi_pow(rows[i][s], e)
                for j in range(nc):
                    rows[i][j] = ring.sub(rows[i][j], ring.mul(f, rows[s][j]))
        for j in range(nc):
            if j != s and rows[s][j]:
                f = ring.div_varpi_pow(rows[s][j], e)
                for i in range(nr):
                    rows[i][j] = ring.sub(rows[i][j], ring.mul(f, rows[i][s]))
                if track_cols:
                    for i in range(nc):
                        V[i][j] = ring.sub(V[i][j], ring.mul(f, V[i][s]))
        pivots.append(e)
        s += 1
    return pivots, V


def solve_count(ring: Ring, A) -> tuple[int, list[np.ndarray]]:
    """Exact count and spanning set for {v | A v = 0} over o_l.

    The count is q^(sum of pivot valuations) * q^(l * #free coordinates),
    always a power of p.
    """
    A = np.asarray(A, dtype=np.int64)
    nc = A.shape[1]
    pivots, V = smith_diagonal(ring, A, track_cols=True)
    rank = len(pivots)
    count = ring.q ** (sum(pivots) + ring.ell * (nc - rank))
    basis = []
    for s, e in enumerate(pivots):
        if e > 0:
            col = np.array([V[i][s] for i in range(nc)], dtype=np.int64)
            basis.append(np.array([ring.mul_varpi_pow(int(c), ring.ell - e) for c in col],
                                  dtype=np.int64))
    for j in range(rank, nc):
        basis.append(np.array([V[i][j] for i in range(nc)], dtype=np.int64))
    return count, basis


def span_size(ring: Ring, gens) -> int:
    """Number of elements of the o_l-module spanned by the given row vectors."""
    G = np.asarray(gens, dtype=np.int64)
    if G.size == 0:
        return 1
    pivots, _ = smith_diagonal(ring, G)
    return ring.q ** sum(ring.ell - e for e in pivots)


def commutant_matrix(ring: Ring, x: np.ndarray) -> np.ndarray:
    """Matrix of y -> xy - yx on the n^2 coordinates of y, over o_l."""
    x = np.asarray(x, dtype=np.int64)
    n = x.shape[0]
    out = np.zeros((n * n, n * n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            row = i * n + j
            for k in range(n):
                out[row, k * n + j] = ring.add(int(out[row, k * n + j]), int(x[i, k]))
                out[row, i * n + k] = ring.sub(int(out[row, i * n + k]), int(x[k, j]))
    return out

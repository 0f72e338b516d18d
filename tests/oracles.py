"""Reference implementations that only the tests call.

Most are an independent route to a fact that `whittaker` computes another
way: the scalar determinant and the characteristic polynomial by cofactor
expansion, the factorization type read off the characteristic polynomial,
exact kernel counting over o_l by Smith-style diagonalization, group
centralizers by filtering a full table, conjugacy classes by one full
conjugation sweep per class, the cyclic-vector search over o_r,
restriction norms one row at a time, the induced norm by the Frobenius
double sum over G/ZU and U (all units at once) and unit by unit over a G/U
transversal, and the closed forms of the type combinatorics.  A few
(`is_regular`, `verify_checks`) are thin conveniences over `whittaker` that
only tests use.
Matrices are code arrays with their Ring (or q) alongside, as in
`whittaker` itself.
"""

from __future__ import annotations

import numpy as np

from whittaker.chartab import CharTable, ClassData, class_data, sl_class_profile
from whittaker.cli import JobConfig, run
from whittaker.cyclotomic import CycloNum, integer_values, pairings
from whittaker.groups import (GroupSpec, GroupTable, central_units, coset_representatives,
                              element_keys, enumerate_group, matrix_powers,
                              unipotent_matrices)
from whittaker.linalg import (GF_ring, Poly, factor_poly, mat_det_batch, mat_inv_batch,
                              mat_mul, monic_irreducibles)
from whittaker.localring import Ring, RingDesc, all_tuples, get_ring
from whittaker.regular import TypeMatrix, type_of
from whittaker.whittaker_verify import NonDegenChar


# ---------------------------------------------------------------------------
# scalars, polynomials and cyclotomic numbers


def valuation(ring: Ring, a: int) -> int:
    """q-adic valuation of the code; valuation(0) = ell by convention."""
    if a == 0:
        return ring.ell
    v = 0
    while a % ring.q == 0:
        a //= ring.q
        v += 1
    return v


def mul_varpi_pow(ring: Ring, a: int, k: int) -> int:
    """a * pi^k; in code terms (a mod q^(l-k)) * q^k for both families."""
    if k >= ring.ell:
        return 0
    return (a % ring.q ** (ring.ell - k)) * ring.q**k


def div_varpi_pow(ring: Ring, a: int, k: int) -> int:
    """Exact division by pi^k; the result is well defined mod pi^(ell-k)."""
    if a % ring.q**k != 0:
        raise ValueError("element not divisible by pi^k")
    return a // ring.q**k


def poly_value(poly: Poly, x: int) -> int:
    """The polynomial evaluated at x in F_q, by Horner's rule."""
    F = poly.field
    acc = 0
    for c in reversed(poly.coeffs):
        acc = F.add(F.mul(acc, x), c)
    return acc


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


def euler_phi(m: int) -> int:
    result = m
    d = 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


def root_of_unity(m: int, j: int) -> CycloNum:
    """zeta_m^j as a CycloNum."""
    c = [0] * m
    c[j % m] = 1
    return CycloNum(m, c)


def char_poly(a: np.ndarray, q: int) -> Poly:
    """Characteristic polynomial det(tI - a) of a code matrix over F_q."""
    F = GF_ring(q)
    n = a.shape[0]
    entries = [[Poly(q, (F.neg(int(a[i, j])),)) if i != j
                else Poly(q, (F.neg(int(a[i, j])), 1))
                for j in range(n)] for i in range(n)]
    return _poly_det(entries, q)


def _poly_det(rows: list[list[Poly]], q: int) -> Poly:
    """Determinant of a matrix of polynomials by cofactor expansion."""
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


# ---------------------------------------------------------------------------
# matrices over o_l


def det_scalar(ring: Ring, a: np.ndarray) -> int:
    """Exact determinant (code) by cofactor expansion."""
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
            term = ring.mul(c, det_scalar(ring, minor))
            acc = ring.add(acc, term if sign_pos else ring.neg(term))
        sign_pos = not sign_pos
    return acc


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
                v = valuation(ring, rows[i][j])
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
        u = div_varpi_pow(ring, rows[s][s], e) if e else rows[s][s]
        uinv = ring.inv(u)
        for j in range(nc):
            rows[s][j] = ring.mul(uinv, rows[s][j])
        # clear column s below, then row s to the right
        for i in range(nr):
            if i != s and rows[i][s]:
                f = div_varpi_pow(ring, rows[i][s], e)
                for j in range(nc):
                    rows[i][j] = ring.sub(rows[i][j], ring.mul(f, rows[s][j]))
        for j in range(nc):
            if j != s and rows[s][j]:
                f = div_varpi_pow(ring, rows[s][j], e)
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
            basis.append(np.array([mul_varpi_pow(ring, int(c), ring.ell - e) for c in col],
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


def lie_centralizer_count(spec: GroupSpec, x: np.ndarray) -> int:
    """|C_{g(o_r)}(x)| by exact kernel counting (gl: all y; sl: tr y = 0)."""
    ring = get_ring(spec.ring)
    sys_rows = commutant_matrix(ring, np.asarray(x, dtype=np.int64))
    if spec.family == "SL":
        n = spec.n
        tr = np.zeros((1, n * n), dtype=np.int64)
        for i in range(n):
            tr[0, i * n + i] = 1
        sys_rows = np.concatenate([sys_rows, tr])
    count, _ = solve_count(ring, sys_rows)
    return count


def centralizer(table: GroupTable, x: np.ndarray) -> np.ndarray:
    """Sorted ids of the group centralizer of a code matrix over the group's
    ring, by table filtering."""
    ring = table.ring
    x = np.asarray(x, dtype=np.int64)
    left = mat_mul(ring, table.elems, x)
    right = mat_mul(ring, x[None], table.elems)
    mask = (left == right).all(axis=(1, 2))
    return np.flatnonzero(mask)


def is_regular(ring: Ring, xs: np.ndarray) -> list[bool]:
    """Whether each code matrix of an (X, n, n) stack over o_r is regular:
    `type_of` gives its residue a type."""
    return [tau is not None for tau in type_of(np.asarray(xs) % ring.q, ring.q)]


def is_cyclic(ring: Ring, x: np.ndarray) -> bool:
    """Cyclic-vector search over o_r itself (independent oracle for is_regular).

    Looks for v with det([v, xv, ..., x^(n-1)v]) a unit, over all q^(rn)
    candidate vectors.
    """
    n = x.shape[0]
    pows = matrix_powers(ring, np.asarray(x, dtype=np.int64), n)
    vecs = all_tuples(ring.size, n)
    # columns of the Krylov matrix: x^j v
    kry = np.empty((len(vecs), n, n), dtype=np.int64)
    for j in range(n):
        col = None
        for k in range(n):
            term = ring.v_mul(pows[j][:, k][None, :], vecs[:, k][:, None])
            col = term if col is None else ring.v_add(col, term)
        kry[:, :, j] = col
    dets = mat_det_batch(ring, kry)
    return bool(ring.v_is_unit(dets).any())


# ---------------------------------------------------------------------------
# counts and types


def count_a_regular_classes(family: str, n: int, desc: RingDesc) -> int:
    """Number of a-regular conjugacy classes of g(o_r) for a fixed unit a:
    q^(n r) for gl_n, q^((n-1) r) for sl_n.  For sl_n the count holds where
    (p,2) = (p,n) = 1 (whittaker_verify.predictions_supported)."""
    d = n if family == "GL" else n - 1
    return desc.q ** (d * desc.ell)


def centralizer_order_residue(tau: TypeMatrix, q: int) -> int:
    """|C_{GL_n(F_q)}(x)| for tau-regular x: the centralizer is the unit group
    of a product of rings F_{q^d}[t]/(t^e)."""
    out = 1
    for d, e, c in tau.entries:
        out *= (q ** (d * e) - q ** (d * (e - 1))) ** c
    return out


def all_n_typical(n: int) -> list[TypeMatrix]:
    """All n-typical type matrices (multisets of (d, e) blocks)."""
    blocks = [(d, e) for d in range(1, n + 1) for e in range(1, n + 1) if d * e <= n]
    out: list[TypeMatrix] = []

    def rec(rem: int, idx: int, counts: dict):
        if rem == 0:
            out.append(TypeMatrix.make(n, dict(counts)))
            return
        if idx == len(blocks):
            return
        d, e = blocks[idx]
        cost = d * e
        maxc = rem // cost
        for c in range(maxc, -1, -1):
            if c:
                counts[(d, e)] = c
            rec(rem - c * cost, idx + 1, counts)
            counts.pop((d, e), None)

    rec(n, 0, {})
    return out


def tau_regular_companion(tau: TypeMatrix, q: int) -> np.ndarray | None:
    """A tau-regular companion matrix (codes) over F_q, or None when F_q has
    too few irreducibles of some degree to realize tau."""
    need: dict[int, int] = {}
    for d, _, c in tau.entries:
        need[d] = need.get(d, 0) + c
    maxd = max(need) if need else 1
    sieve = monic_irreducibles(q, maxd)
    for d, cnt in need.items():
        if len(sieve[d]) < cnt:
            return None
    poly = Poly(q, (1,))
    cursor = {d: 0 for d in need}
    for d, e, c in tau.entries:
        for _ in range(c):
            f = sieve[d][cursor[d]]
            cursor[d] += 1
            for _ in range(e):
                poly = poly * f
    return companion(poly)


def type_of_charpoly(a: np.ndarray, q: int) -> TypeMatrix:
    """Type of a regular code matrix over F_q from its characteristic
    polynomial's factorization; ValueError unless a has a cyclic vector."""
    if not is_cyclic(GF_ring(q), a):
        raise ValueError("type_of_charpoly requires a regular matrix")
    cp = char_poly(a, q)
    counts: dict[tuple[int, int], int] = {}
    for f, e in factor_poly(cp):
        key = (f.degree, e)
        counts[key] = counts.get(key, 0) + 1
    return TypeMatrix.make(a.shape[-1], counts)


# ---------------------------------------------------------------------------
# conjugacy classes


def conjugacy_classes_sweep(table: GroupTable) -> ClassData:
    """The classes by full conjugation sweeps: the orbit of the smallest id
    not yet in a class, conjugated by every element of G at once."""
    ring, elems, invs = table.ring, table.elems, table.inverses()
    class_of = np.full(len(table), -1, dtype=np.int64)
    k = 0
    for i in range(len(table)):
        if class_of[i] < 0:
            orbit = mat_mul(ring, mat_mul(ring, elems, elems[i]), invs)
            class_of[table.ids_of(orbit)] = k
            k += 1
    return class_data(table, class_of)


# ---------------------------------------------------------------------------
# character sums


def restriction_norm_row(ct_gl: CharTable, t: int, sl_table: GroupTable,
                         sl_class_counts: np.ndarray | None = None) -> int:
    """<Res chi_t, Res chi_t>_SL for one row, by its own pairings call."""
    if sl_class_counts is None:
        sl_class_counts = sl_class_profile(ct_gl, sl_table)
    row = ct_gl.rows[t][None]
    acc = pairings(row * sl_class_counts[None, :, None], row)
    return int(integer_values(acc, ct_gl.e, len(sl_table))[0, 0])


# ---------------------------------------------------------------------------
# verdicts


def gu_transversal(table: GroupTable) -> np.ndarray:
    """A transversal of G/U read off the full table: the member of smallest
    key in each coset g U."""
    ring = table.ring
    keys = np.full(len(table), np.iinfo(np.int64).max)
    for u in unipotent_matrices(table.spec):
        keys = np.minimum(keys, element_keys(ring, mat_mul(ring, table.elems, u)))
    _, first = np.unique(keys, return_index=True)
    return table.elems[first]


def unipotent_mask(batch: np.ndarray, n: int) -> np.ndarray:
    """Which matrices of a stack are in U: unit diagonal, zero below it."""
    mask = np.ones(batch.shape[:-2], dtype=bool)
    for i in range(n):
        mask &= batch[..., i, i] == 1
        for j in range(i):
            mask &= batch[..., i, j] == 0
    return mask


def induced_norm_by_loop(spec: GroupSpec, units) -> list[int]:
    """<Ind_U^G theta_a, Ind_U^G theta_a> for each unit a of `units` by the
    Frobenius sum over a G/ZU transversal r and u in U with r u r^-1 in U:
    |Z| sum of theta_a(r u r^-1) conj(theta_a(u)) / |U|, one pass over U for
    every unit, accumulated as exponent counters and finalized in Z[zeta_m]."""
    thetas = [NonDegenChar(spec, a) for a in units]
    ring = get_ring(spec.ring)
    m = ring.char_order
    reps = coset_representatives(spec)
    invs = mat_inv_batch(ring, reps)
    u_mats = unipotent_matrices(spec, 0)
    u_expos = np.array([theta.exponents_on(u_mats) for theta in thetas])
    offsets = m * np.arange(len(thetas))[:, None]  # row a of the (units, m) counter
    counter = np.zeros(len(thetas) * m, dtype=np.int64)
    for u, eu in zip(u_mats, u_expos.T):
        v = mat_mul(ring, mat_mul(ring, reps, u), invs)
        v = v[unipotent_mask(v, spec.n)]
        if len(v):
            ev = np.array([theta.exponents_on(v) for theta in thetas])
            counter += np.bincount(((ev - eu[:, None]) % m + offsets).ravel(),
                                   minlength=len(counter))
    counter = counter.reshape(len(thetas), m) * len(central_units(spec))
    return integer_values(counter, m, len(u_mats)).tolist()


def induced_norm_by_unit(spec: GroupSpec, a: int) -> int:
    """<Ind_U^G theta_a, Ind_U^G theta_a> by the Frobenius sum over a G/U
    transversal, one pass over U for the one unit a: (1/|U|) sum over r in
    G/U and u in U with r u r^-1 in U of theta_a(r u r^-1) conj(theta_a(u))."""
    theta = NonDegenChar(spec, a)
    ring = theta.ring
    m = theta.m
    reps = gu_transversal(enumerate_group(spec))
    invs = mat_inv_batch(ring, reps)
    u_mats = unipotent_matrices(spec, 0)
    counter = np.zeros(m, dtype=np.int64)
    for u, eu in zip(u_mats, theta.exponents_on(u_mats)):
        v = mat_mul(ring, mat_mul(ring, reps, u), invs)
        mask = unipotent_mask(v, spec.n)
        if mask.any():
            counter += np.bincount((theta.exponents_on(v[mask]) - int(eu)) % m, minlength=m)
    return int(integer_values(counter, m, len(u_mats)))


def verify_checks(family: str, n: int, ring: str, a: str = "1") -> dict:
    """The checks of a passing `verify` report at --a `a`, by name."""
    env = run(JobConfig("verify", ring=ring, family=family, n=n, a_select=a, no_cache=True))
    assert env.passed
    return {c.name: c for c in env.checks}

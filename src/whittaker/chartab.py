"""Exact conjugacy classes and complex character tables for small groups.

The classes are the orbits of conjugation by a few generators of G, each
conjugation one permutation of the table's ids; the generators are proved to
generate G by the left multiplications they induce, which must connect the
table.

Tables are computed by the Dixon-Schneider method: the class-sum matrices
M_j (structure constants of the class algebra) commute and are split over
a prime field F_r with r = 1 mod exponent(G) and r > 2 sqrt(|G|).  The
first split is on a central class, whose M_z permutes the classes and
splits in closed form (central_eigen_rows).  Then each unsplit eigenspace
is split on its own restricted action A of M_j^T, which reads only the
rows of M_j at its pivot columns (class_matrix makes just those rows,
Schneider's restriction), and whose eigen-rows are the row spaces of the
projectors mu_i(A) / mu_i(lam_i) (eigen_rows).  The common eigenvectors,
normalized at the identity class, are the central character vectors,
degrees are recovered from the second orthogonality relation, which gives
d^2 mod r, as the one divisor of |G| below r/2 with that square, and the
character values are lifted to exact cyclotomic integers through
eigenvalue multiplicities, one discrete Fourier transform over the power
classes per element order (class_data reads them, the orders and the
inverse classes off one stack of powers).  Every character sum is one
class_sums call: the power map on the classes it reads makes it an integer,
read off its residues mod a few primes r' = 1 mod e (CharTable.moduli).
CharTable.verify checks the power map at each prime p | e, then the row
relation R H R* = |G| I as the class sums of the values weighted by the
class sizes; the verdicts downstream (induced multiplicities, the regular
classification, restriction norms) are such sums too.

The values are held in the narrowest signed integer dtype that holds the
largest degree (value_dtype), from the lift or the disk cache to every
verdict.  numpy array arithmetic on such a dtype wraps without a warning, so
every operation on the values is one of: a gather or a comparison; a sum
along one (row, class) vector, which is at most its degree; or arithmetic on
a gathered block widened to int64 first.  The group codes (table.elems, in
groups.code_dtype) follow the same rule without the sums: conjugacy_classes
widens the whole table once, and the linalg kernels widen what they get.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate
from math import gcd, isqrt, prod

import numpy as np

from .cyclotomic import IntegralityError, prime_divisors, root_of_unity, unit_generators
from .localring import is_prime
from .linalg import mat_det_batch, mat_inv_batch, mat_mul
from .groups import CapExceeded, GroupSpec, GroupTable, congruence_subgroup, unipotent_subgroup
from .whittaker_verify import NonDegenChar, phi_x_exponents, predictions_supported
from .regular import TypeMatrix, iota, type_of

CHARTAB_CAP = 100_000
ROOT_SCAN_BOUND = 1_000_000
CLASSIFY_PAIR_CAP = 1 << 22
VERIFY_BLOCK = 1 << 16  # values widened to int64 at a time by at_roots
POWER_MAP_BLOCK = 1 << 22  # values gathered at a time by power_map_holds


# ---------------------------------------------------------------------------
# conjugacy classes


@dataclass
class ClassData:
    """Conjugacy partition of a fully tabulated group; class_data derives
    every field from class_of and one stack of the representatives' powers."""

    table: GroupTable
    class_of: np.ndarray  # element id -> class id
    reps: np.ndarray      # class id -> representative element id
    sizes: np.ndarray
    inverse_perm: np.ndarray  # class id -> class of inverse
    orders: np.ndarray        # element order of the class
    powers: np.ndarray        # (k, o) classes of g_i^s, s < o the largest order

    @property
    def k(self) -> int:
        return len(self.reps)

    def exponent(self) -> int:
        return int(np.lcm.reduce(self.orders))

    @cached_property
    def members(self) -> np.ndarray:
        """The element ids sorted by class, stably: class j is the slice of
        sizes[j] ids after the sizes[:j].sum() of the classes before it."""
        return np.argsort(self.class_of, kind="stable")


def generator_candidates(table: GroupTable) -> np.ndarray:
    """Every non-identity id once, in a fixed order: the stride walk j w mod |G|
    for j = 1 .. |G| - 1, w the first integer prime to |G| from
    |G| (sqrt 5 - 1) / 2 up, which spreads the first picks over the table."""
    size = len(table)
    w = max(1, round(size * 0.6180339887498949))
    while gcd(w, size) != 1:
        w += 1
    return np.arange(1, size, dtype=np.int64) * w % size


def components(perms: list[np.ndarray], label: np.ndarray) -> np.ndarray:
    """The smallest id of each id's component in the graph of the edges
    i -> p[i] of the permutations p.

    `label` starts the propagation: each entry an id of its own id's component
    (np.arange, or the labels of a finer partition).  A round takes the
    minimum along every p in both directions, then jumps pointers,
    label <- label[label].  At the fixed point the two ends of every edge
    agree and each label is an id of its own component: its smallest id.
    """
    while True:
        before = label
        for p in perms:
            label = np.minimum(label, label[p])
            label[p] = np.minimum(label[p], label)
        while not np.array_equal(jumped := label[label], label):
            label = jumped
        if np.array_equal(label, before):
            return label


def conjugacy_classes(table: GroupTable) -> ClassData:
    """The classes as the orbits of conjugation by a checked generating set.

    Each candidate s of generator_candidates that lies outside the subgroup S
    the kept ones generate is kept.  One product s G gives two permutations
    of the ids: the left multiplication g -> s g, whose components are the
    right cosets of S, and the conjugation g -> s g s^-1.  Once the left
    multiplications connect the whole table, S = G: that is the proof, and
    AssertionError is raised if the candidates run out first.  The classes
    are the components of the conjugations, numbered in order of their
    smallest ids, the numbering class_data asks for.  The extra memory is the
    codes widened to int64 once and two int64 permutations per kept generator.
    """
    N = len(table)
    ring, elems = table.ring, table.elems.astype(np.int64)
    lefts, conjugations = [], []
    coset = np.arange(N)  # smallest id of each right coset of S; S = {g : coset[g] = 0}
    for s in generator_candidates(table):
        if not coset.any():
            break
        if coset[s]:
            products = mat_mul(ring, elems[s], elems)
            lefts.append(table.ids_of(products))
            conjugations.append(
                table.ids_of(mat_mul(ring, products, mat_inv_batch(ring, elems[s]))))
            coset = components(lefts, coset)
    if coset.any():
        raise AssertionError(f"the generator candidates of {table.spec.key()} span a "
                             f"proper subgroup of order {np.count_nonzero(coset == 0)}")
    label = components(conjugations, np.arange(N))
    return class_data(table, (np.cumsum(label == np.arange(N)) - 1)[label])


def class_data(table: GroupTable, class_of: np.ndarray) -> ClassData:
    """The ClassData of a class numbering of the table's elements.

    The classes must be numbered in order of their smallest id, as
    conjugacy_classes numbers them (so class 0 holds the identity);
    AssertionError otherwise.  The sizes are counts, and each representative
    is the smallest id of its class.  One loop stacks the powers
    [I, g_i, ..., g_i^(o-1)] of the representatives, o the largest order;
    the element orders, the power classes and the inverse classes (those of
    g_i^(o_i - 1)) are read off it.
    """
    class_of = np.asarray(class_of, dtype=np.int64)
    labels, reps = np.unique(class_of, return_index=True)
    if (len(class_of) != len(table) or not np.array_equal(labels, np.arange(len(labels)))
            or np.any(np.diff(reps) <= 0)):
        raise AssertionError(f"the classes of {table.spec.key()} are not numbered "
                             "in order of their smallest id")
    k, n = len(reps), table.n
    x = table.elems[reps]
    eye = np.eye(n, dtype=np.int64)
    orders = np.zeros(k, dtype=np.int64)
    stack, power = [np.broadcast_to(eye, x.shape)], x
    while True:
        orders[(orders == 0) & (power == eye).all(axis=(1, 2))] = len(stack)
        if orders.all():
            break
        stack.append(power)
        power = mat_mul(table.ring, power, x)
    powers = class_of[table.ids_of(np.stack(stack).reshape(-1, n, n))].reshape(-1, k).T
    return ClassData(table, class_of, reps, np.bincount(class_of),
                     powers[np.arange(k), orders - 1], orders, powers)


# ---------------------------------------------------------------------------
# arithmetic mod the Dixon prime r


def dixon_prime(exponent: int, order: int) -> int:
    """Smallest prime r = 1 mod exponent with r > 2 sqrt(order)."""
    floor = 2 * isqrt(order)
    r = exponent + 1
    while r <= ROOT_SCAN_BOUND:
        if r > floor and is_prime(r):
            return r
        r += exponent
    raise CapExceeded(f"no Dixon prime below {ROOT_SCAN_BOUND} for exponent {exponent}")


@cache
def verify_primes(e: int, bound: int) -> list[int]:
    """Primes r = 1 mod e, descending from ROOT_SCAN_BOUND, until their
    product exceeds 2 bound; CapExceeded if the candidates run out first.
    Memoized on (e, bound): callers share the list and must not edit it."""
    out, product = [], 1
    r = (ROOT_SCAN_BOUND - 1) // e * e + 1
    while product <= 2 * bound:
        if r <= e:
            raise CapExceeded(f"the primes = 1 mod {e} below {ROOT_SCAN_BOUND} do not "
                              f"exceed 2 B = {2 * bound} in product")
        if is_prime(r):
            out.append(r)
            product *= r
        r -= e
    return out


def rref_mod(A: np.ndarray, r: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of A mod r without its zero rows, and its
    pivot columns; the column walk stops once the rows below are zero."""
    A = np.array(A, dtype=np.int64) % r
    nrows, ncols = A.shape
    piv = []
    row = 0
    for col in range(ncols):
        nz = np.flatnonzero(A[row:, col])
        if nz.size == 0:
            continue
        i = row + int(nz[0])
        if i != row:
            A[[row, i]] = A[[i, row]]
        A[row] = A[row] * pow(int(A[row, col]), r - 2, r) % r
        others = np.flatnonzero(A[:, col])
        others = others[others != row]
        if others.size:
            A[others] = (A[others] - np.outer(A[others, col], A[row])) % r
        piv.append(col)
        row += 1
        if not A[row:].any():
            break
    return A[:row], piv


def nullspace_mod(A: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Row basis of the right kernel of A mod r, and its free columns: the
    basis is the identity there."""
    R, piv = rref_mod(A, r)
    ncols = A.shape[1]
    is_pivot = np.zeros(ncols, dtype=bool)
    is_pivot[piv] = True
    free = np.flatnonzero(~is_pivot)
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, piv] = -R[:, free].T % r
    return basis, free


def charpoly_mod(A: np.ndarray, r: int) -> np.ndarray:
    """Characteristic polynomial of A mod r (coefficients ascending, monic)."""
    H = np.array(A, dtype=np.int64) % r
    n = H.shape[0]
    # similarity reduction to upper Hessenberg: column j is cleared below the
    # subdiagonal by L H L^-1, L = I - f e_{j+1}^T on the rows j+2.. (the
    # elementary factors of L commute, so this is one rank-1 update each way)
    for j in range(n - 2):
        if H[j + 1, j] == 0:
            nz = np.flatnonzero(H[j + 2:, j])
            if nz.size == 0:
                continue
            i = j + 2 + int(nz[0])
            H[[j + 1, i]] = H[[i, j + 1]]
            H[:, [j + 1, i]] = H[:, [i, j + 1]]
        f = H[j + 2:, j] * pow(int(H[j + 1, j]), r - 2, r) % r
        H[j + 2:] = (H[j + 2:] - np.outer(f, H[j + 1])) % r
        H[:, j + 1] = (H[:, j + 1] + H[:, j + 2:] @ f) % r
    # p_i(x) = (x - H[i,i]) p_{i-1} - sum_{k<i} H[k,i] sub[k] p_{k-1}, with
    # sub[k] the product of the subdiagonal entries H[k+1,k] .. H[i,i-1];
    # row t of P holds the coefficients of p_{t-1}
    P = np.zeros((n + 1, n + 1), dtype=np.int64)
    P[0, 0] = 1
    sub = np.zeros(0, dtype=np.int64)
    for i in range(n):
        if i:
            sub = np.append(sub, 1) * H[i, i - 1] % r
        P[i + 1, 1:] = P[i, :-1]
        P[i + 1] = (P[i + 1] - H[i, i] * P[i] - (H[:i, i] * sub % r) @ P[:i]) % r
    return P[n]


def eigen_rows(A: np.ndarray, r: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each root lam of charpoly_mod(A), ascending: a row basis C of the
    rows c with c A = lam c mod r, and columns p with C[:, p] = I.

    With mu = prod (x - lam_i) over the roots, A must satisfy mu(A) = 0,
    which holds iff A is diagonalizable over F_r: AssertionError otherwise.
    Then Q_i = mu_i(A) / mu_i(lam_i), mu_i = mu / (x - lam_i), projects onto
    the lam_i rows, and its rank m_i = tr Q_i (d < r).  The rows are the row
    space of Q_i, reduced from Q_i itself when 2 m_i <= d and otherwise as
    the left kernel of I - Q_i, so a root costs min(m_i, d - m_i) pivots.
    Once mu(A) = 0, the Q_i are idempotents that sum to I with Q_i Q_j = 0
    for i != j, so their ranks m_i sum to d: the rows found number d, and
    no check of that count could fail.
    """
    d = len(A)
    lams = poly_roots_mod(charpoly_mod(A, r), r).tolist()
    s = len(lams)
    mu = np.ones(1, dtype=np.int64)
    for lam in lams:
        mu = (np.append(0, mu) - lam * np.append(mu, 0)) % r
    powers = [np.eye(d, dtype=np.int64)]
    for _ in range(s):
        powers.append(powers[-1] @ A % r)
    powers = np.stack(powers).reshape(s + 1, d * d)
    if (mu @ powers % r).any():
        raise AssertionError("class matrix failed to act semisimply")
    # the coefficients of every mu_i / mu_i(lam_i), by synthetic division
    coeffs = np.zeros((s, s), dtype=np.int64)
    for i, lam in enumerate(lams):
        coeffs[i, s - 1] = 1
        for t in range(s - 1, 0, -1):
            coeffs[i, t - 1] = (mu[t] + lam * coeffs[i, t]) % r
        value = 1
        for other in lams[:i] + lams[i + 1:]:
            value = value * (lam - other) % r
        coeffs[i] = coeffs[i] * pow(value, r - 2, r) % r
    projectors = (coeffs @ powers[:s] % r).reshape(s, d, d)
    out = []
    for Q in projectors:
        if 2 * (int(np.trace(Q)) % r) <= d:
            C, p = rref_mod(Q, r)
        else:
            C, p = nullspace_mod((np.eye(d, dtype=np.int64) - Q).T % r, r)
        out.append((C, np.asarray(p, dtype=np.int64)))
    return out


def poly_roots_mod(coeffs: np.ndarray, r: int) -> np.ndarray:
    """All roots in F_r by full scan (sorted)."""
    if r > ROOT_SCAN_BOUND:
        raise CapExceeded(f"root scan refused for r = {r}")
    lam = np.arange(r, dtype=np.int64)
    acc = np.zeros(r, dtype=np.int64)
    for c in reversed(list(coeffs)):
        acc = (acc * lam + int(c)) % r
    return np.flatnonzero(acc == 0).astype(np.int64)


# ---------------------------------------------------------------------------
# the character table


def value_dtype(hi: int) -> type:
    """The narrowest signed integer dtype that holds 0..hi."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if hi <= np.iinfo(t).max)


def power_map_holds(a: np.ndarray, to: np.ndarray, u: int) -> bool:
    """Whether the exponent vectors a[x, c, :] of an (X, C, e) array keep the
    power map g -> g^u: exponent x m + b (m = e / gcd(u, e)) lands on u b, so
    the vector at to[c], the class of g_c^u, read at the exponents u b must be
    the one at c summed over x, and zero elsewhere when both have one sum.
    Checked on blocks of leading rows of about POWER_MAP_BLOCK values."""
    X, C, e = a.shape
    m = e // gcd(u, e)
    at = (to[:, None] * e + u * np.arange(m) % e).ravel()
    step = max(1, POWER_MAP_BLOCK // (C * e))
    return all(np.array_equal(np.take(b.reshape(len(b), -1), at, axis=1),
                              sum((b[..., x:x + m] for x in range(m, e, m)),
                                  b[..., :m]).reshape(len(b), -1))
               for b in (a[i:i + step] for i in range(0, X, step)))


def at_roots(a: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """The exponent vectors a (..., e) at each row of powers Z (P, e),
    unreduced, as int64 (..., P), widened VERIFY_BLOCK values at a time."""
    flat = a.reshape(-1, a.shape[-1])
    out = np.empty((len(flat), len(Z)), dtype=np.int64)
    step = max(1, VERIFY_BLOCK // a.shape[-1])
    for i in range(0, len(flat), step):
        out[i:i + step] = flat[i:i + step].astype(np.int64) @ Z.T
    return out.reshape(*a.shape[:-1], len(Z))


class CharTable:
    """Exact character table: rows[t, i, u] is the multiplicity of the
    eigenvalue zeta_e^u of chi_t at class i, a (k, k, e) array in
    value_dtype of its largest entry, the largest degree (int8 while every
    degree is below 128).  The exponent e, the Dixon prime r and the int64
    degrees rows[:, 0, 0] are derived.  AssertionError unless the shape is
    (k, k, e), every entry lies in 0..|G| (checked in the incoming dtype,
    before a wider array is narrowed, so the narrowing is exact), every
    (row, class) vector sums to the degree (so the identity class holds
    exponent 0 only, |chi_t(g)| <= d_t, and every partial sum of a vector
    fits the dtype), and the degrees divide |G| with squares summing to |G|;
    verify adds the power map and row orthogonality."""

    def __init__(self, cd: ClassData, rows: np.ndarray):
        self.cd, self.e = cd, cd.exponent()
        order = len(cd.table)
        self.r = dixon_prime(self.e, order)
        self.loaded = False  # True when read from the disk cache
        if rows.shape != (cd.k, cd.k, self.e):
            raise AssertionError(f"the values have shape {rows.shape}, not (k, k, e)")
        hi = int(rows.max())
        if int(rows.min()) < 0 or hi > order:
            raise AssertionError("a multiplicity lies outside 0..|G|")
        self.rows = rows = rows.astype(value_dtype(hi), copy=False)
        self.degrees = d = rows[:, 0, 0].astype(np.int64)
        if not (rows.sum(axis=2, dtype=np.int64) == d[:, None]).all():
            raise AssertionError("eigenvalue multiplicities do not sum to degree")
        if (d < 1).any() or (order % d).any() or (d**2).sum() != order:
            raise AssertionError("the degrees are not divisors of |G| whose squares sum to |G|")

    @property
    def k(self) -> int:
        return self.cd.k

    @property
    def table(self) -> GroupTable:
        return self.cd.table

    def verify(self) -> None:
        """The power map at each prime p | e, then the row relation;
        AssertionError on failure.

        Power map (power_map_holds): the values of the class of g^p are those
        of the class of g with every eigenvalue raised to the p-th power;
        class_sums checks it at the unit generators, which must also permute
        the classes with their sizes.  It ties the values to the classes,
        which the row relation cannot: it is blind to two swapped columns of
        equal class size.

        Row relation: R H R* = |G| I, R the k x k values and H the diagonal of
        the class sizes, is one class_sums call, the rows against themselves
        weighted by the sizes.  Then R^-1 = H R* / |G|, and the column
        relation R* R = |G| H^-1 follows.
        """
        cd, k = self.cd, self.k
        for p in prime_divisors(self.e):
            if not power_map_holds(self.rows, cd.powers[np.arange(k), p % cd.orders], p):
                raise AssertionError(f"the values break the power map g -> g^{p}")
        if not np.array_equal(class_sums(self, self.rows, np.arange(k), range(k), 1, cd.sizes),
                              len(self.table) * np.eye(k, dtype=np.int64)):
            raise AssertionError("row orthogonality fails")

    @cached_property
    def moduli(self) -> tuple[list[int], np.ndarray]:
        """verify_primes(e, B), B = |G| (d_max^2 + 1), and Z[j, u] = zeta_j^u
        mod r'_j (u < e), zeta_j of order e mod r'_j, made once per table.
        B bounds every class sum read: the row relation's |G| d_max^2, and
        the verdicts' |U| d_max, |K^(l-1)| d_max and |SL| d_max^2."""
        primes = verify_primes(self.e, len(self.table) * (int(self.degrees.max())**2 + 1))
        return primes, np.array([list(accumulate([root_of_unity(self.e, r)] * (self.e - 1),
                                                 lambda a, z: a * z % r, initial=1))
                                 for r in primes], dtype=np.int64)


def class_matrix(cd: ClassData, j: int, r: int, rows: np.ndarray) -> np.ndarray:
    """The rows `rows` of the class-sum structure constants mod r,
    M_j[i, l] = #{x in C_j : x^-1 z_l in C_i}, as a (len(rows), k) array.

    The pairs (x, y) in C_j x C_i with x y in C_l number h_l M_j[i, l], as
    each element of C_l is such a product M_j[i, l] times, and by
    conjugation h_i #{x in C_j : x z_i in C_l}, the same count for every y
    in C_i.  So M_j[i, l] = h_i #{x in C_j : x z_i in C_l} / h_l, a quotient
    exact over Z, and row i costs the |C_j| products x z_i: one product of
    the class by the representatives of `rows`, one lookup and one count,
    with no inverses.
    """
    table, k = cd.table, cd.k
    start = int(cd.sizes[:j].sum())
    xs = table.elems[cd.members[start:start + cd.sizes[j]]]
    products = mat_mul(table.ring, xs[:, None], table.elems[cd.reps[rows]][None])
    classes = cd.class_of[table.ids_of(products.reshape(-1, table.n, table.n))]
    at = np.arange(len(classes)) % len(rows) * k + classes
    counts = np.bincount(at, minlength=len(rows) * k).reshape(len(rows), k)
    return counts * cd.sizes[rows, None] // cd.sizes[None] % r


def central_eigen_rows(cd: ClassData, z: int, r: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """eigen_rows of the transposed class matrix of a central class z (of
    size 1), in closed form.

    With pi(i) the class of z z_i, M_z[i, l] = 1 if l = pi(i) and 0
    otherwise, so w M_z^T = lam w reads w[pi(i)] = lam w[i]: pi permutes the
    classes.  On a cycle c_0, c_1 = pi(c_0), ... of length L, c_0 its
    smallest class, each lam with lam^L = 1 gives the eigen-row
    w[c_t] = lam^t, zero off the cycle, with pivot c_0.  L divides the order
    o of z, so the lam are among the roots of x^o - 1, taken from
    poly_roots_mod in ascending order as eigen_rows takes them.  Over all
    cycles these are sum L = k independent rows, one basis of F_r^k.
    """
    table, k = cd.table, cd.k
    ring, elems = table.ring, table.elems
    pi = cd.class_of[table.ids_of(mat_mul(ring, elems[cd.reps[z]], elems[cd.reps]))]
    cycles, seen = [], np.zeros(k, dtype=bool)
    for c in range(k):
        if not seen[c]:
            cycle = [c]
            while (c := int(pi[c])) != cycle[0]:
                cycle.append(c)
            seen[cycle] = True
            cycles.append(cycle)
    o = int(cd.orders[z])
    out = []
    for lam in poly_roots_mod(np.array([r - 1] + [0] * (o - 1) + [1]), r).tolist():
        mine = [cycle for cycle in cycles if pow(lam, len(cycle), r) == 1]
        C = np.zeros((len(mine), k), dtype=np.int64)
        for row, cycle in zip(C, mine):
            row[cycle] = [pow(lam, t, r) for t in range(len(cycle))]
        out.append((C, np.array([cycle[0] for cycle in mine], dtype=np.int64)))
    return out


def character_table(table: GroupTable, cap: int = CHARTAB_CAP) -> CharTable:
    """Dixon-Schneider character table with exact cyclotomic lifting.

    The first split is on the central class of largest order, in closed form
    (central_eigen_rows); the other central classes follow, then the rest in
    index order, until every space is a line.  Each unsplit space W, kept as
    rows that are the identity on its pivot columns piv, is split by
    eigen_rows of the d x d action A = W M_j[piv]^T of M_j^T on it
    (d = dim W), never of the k x k M_j^T; class_matrix makes only the rows
    of M_j in the pivots of the unsplit spaces.

    |G| is compared with the cap before the classes are built, so a refused
    table costs no class work.
    """
    order = len(table)
    if order > cap:
        raise CapExceeded(f"|G| = {order} beyond character-table cap {cap}")
    cd = conjugacy_classes(table)
    k = cd.k
    e = cd.exponent()
    r = dixon_prime(e, order)
    # every mod-r product below sums at most max(k + 1, e) terms below r^2:
    # W @ M_j[piv]^T and C @ W sum k, the split's powers, projectors and
    # charpoly_mod at most d <= k, mu(A) its s + 1 <= k + 1 coefficients,
    # and the lift's DFT o <= e; k, e <= CHARTAB_CAP and r <= ROOT_SCAN_BOUND
    # keep this under 10^17, so it holds within the caps
    if max(k + 1, e) * (r - 1) ** 2 >= 1 << 63:
        raise CapExceeded(f"Dixon prime r = {r} breaks the bound max(k + 1, e) (r - 1)^2 "
                          f"< 2^63 (k = {k}, e = {e})")
    h = cd.sizes % r
    hinv = np.array([pow(int(x), r - 2, r) for x in h], dtype=np.int64)

    # split F_r^k into common eigen-rows of the transposed class matrices; an
    # unsplit space is its rows W with columns piv where W[:, piv] = I, and
    # is split on its restricted action A (W @ M_j^T = A @ W), which reads
    # the rows piv of M_j only.  The identity class 0 splits nothing
    central = np.flatnonzero(cd.sizes == 1)[1:]
    spaces = [(np.eye(k, dtype=np.int64), np.arange(k))]
    if len(central):
        z = int(central[np.argmax(cd.orders[central])])
        spaces = central_eigen_rows(cd, z, r)  # C @ I = C, and piv[p] = p
        central = central[central != z]
    for j in np.concatenate([central, np.flatnonzero(cd.sizes > 1)]).tolist():
        wide = np.zeros(k, dtype=bool)  # the pivots of the unsplit spaces
        for W, piv in spaces:
            if len(W) > 1:
                wide[piv] = True
        if not wide.any():
            break
        M = class_matrix(cd, j, r, np.flatnonzero(wide))
        at = np.cumsum(wide) - 1  # class -> its row of M
        nxt = []
        for W, piv in spaces:
            d = len(W)
            if d == 1:
                nxt.append((W, piv))
                continue
            A = W @ M[at[piv]].T % r
            if np.array_equal(A, A[0, 0] * np.eye(d, dtype=np.int64)):
                nxt.append((W, piv))  # W is already an eigenspace of M_j^T
                continue
            # row w = c W is an eigen-row iff c A = lam c, and C[:, p] = I
            # gives (C @ W)[:, piv[p]] = I
            nxt.extend((C @ W % r, piv[p]) for C, p in eigen_rows(A, r))
        spaces = nxt
    if [len(W) for W, _ in spaces] != [1] * k:
        raise AssertionError(f"class matrices did not separate all characters into k = {k} "
                             "lines")

    # normalized eigen-rows are the central characters: row 0 of M_j is the
    # indicator of class j, so the eigenvalue (w M_j^T)[0] of w is w[j]
    W = np.concatenate([W for W, _ in spaces])
    norm = np.array([pow(int(x), r - 2, r) for x in W[:, 0]], dtype=np.int64)
    omega = W * norm[:, None] % r

    # degrees from sum_j omega(j) omega(j*) / h_j = |G| / d^2: a degree d
    # divides |G| and d <= isqrt|G| < r/2 (dixon_prime), and d^2 mod r tells
    # those divisors apart (d^2 = d'^2 mod r forces d = +-d'), so d is the
    # divisor whose square is |G| / s mod r; 0 if none is (or if w[0] = 0),
    # which CharTable refuses
    s = (omega * omega[:, cd.inverse_perm] % r * hinv % r).sum(axis=1) % r
    by_square = {d * d % r: d for d in range(1, isqrt(order) + 1) if order % d == 0}
    degrees = np.array([by_square.get(order * pow(int(st), r - 2, r) % r, 0) for st in s],
                       dtype=np.int64)

    # character values mod r, then the exact lift: the multiplicity of the
    # eigenvalue zeta_o^u of a class of order o is (1/o) sum_s chi(g^s)
    # zeta_o^(-us), one DFT per element order over the classes of that order,
    # read off the classes of all the representatives' powers; CharTable
    # checks the lift, whose rows[:, 0, 0] are the degrees since they are < r.
    # The rows are made in CharTable's dtype, and each block is checked to
    # be at most its row's degree before it is cast, which would otherwise
    # wrap a wrong value silently
    chibar = degrees[:, None] * omega % r * hinv[None, :] % r
    z = root_of_unity(e, r)
    rows = np.zeros((k, k, e), dtype=value_dtype(int(degrees.max())))
    for o in sorted(set(cd.orders.tolist())):
        of_order = np.flatnonzero(cd.orders == o)
        zo = pow(z, e // o, r)
        # dft[s, u] = zeta_o^(-us), a symmetric matrix
        dft = np.array([pow(zo, -t % o, r) for t in range(o)], dtype=np.int64)[
            np.outer(np.arange(o), np.arange(o)) % o]
        cbar = chibar[:, cd.powers[of_order, :o]] @ dft % r * pow(o, r - 2, r) % r
        if (cbar > degrees[:, None, None]).any():
            raise AssertionError(f"a lifted multiplicity at element order {o} exceeds "
                                 "its row's degree")
        rows[:, of_order, :: e // o] = cbar
    # canonical row order: ascending degree, then coefficient data
    ct = CharTable(cd, rows[sorted(range(k), key=lambda t: (int(degrees[t]), rows[t].tobytes()))])
    ct.verify()
    return ct


# ---------------------------------------------------------------------------
# induced-character decomposition and regular classification


def class_sums(ct: CharTable, f: np.ndarray, classes: np.ndarray, ts,
               divisor: int, weights: np.ndarray) -> np.ndarray:
    """The exact (X, T) integers S / divisor, S[x, t] = sum_c w_c f[x, c]
    conj(chi_t(classes[c])), for exponent vectors f (X, C, e) on the ascending
    classes `classes`, integer weights w (C,) and the rows ts; AssertionError
    when a check fails, IntegralityError when a quotient is not an integer.

    For each unit generator u, g -> g^u must permute the classes (pi_u) with
    their weights, and f and the values must keep the power map:
    sigma_u f(c) = f(pi_u c), the same for chi_t, so sigma_u S = S for
    generators of Gal(Q(zeta_e)/Q): S is in Z.  This also refuses faults that
    leave S rational.  Mod each r' of ct.moduli, S is f at zeta' times w
    times the values at zeta'^-1, one (X, C) @ (C, T) product, and Garner's
    CRT lifts the residues to S, as |S| <= L d and 2 L d < prod r' < 2^63:
    d the largest degree of ts, L the largest sum_c max(|w_c|, 1) |f[x, c]|.
    The int64 sums stay below 2^63: f at zeta' (times w) is at most
    L (r' - 1), a value at most d (r' - 1), and a product of residues (and
    Garner's) at most C (r' - 1)^2.
    """
    ts = np.asarray(ts, dtype=np.int64)
    # L before the gather of the values, so that |f| and g are not held at once
    L = int((np.abs(f).sum(axis=2) * np.maximum(np.abs(weights), 1)).sum(axis=1).max(initial=0))
    d = int(ct.degrees[ts].max(initial=0))
    g = ct.rows[np.ix_(ts, classes)]
    for u in unit_generators(ct.e):
        to = ct.cd.powers[classes, u % ct.cd.orders[classes]]
        at = np.searchsorted(classes, to)
        if not (np.array_equal(np.sort(to), classes) and np.array_equal(weights[at], weights)):
            raise AssertionError(f"g -> g^{u} does not permute the classes of the sum "
                                 "with their weights")
        for a, name in ((g, "values"), (f, "summands")):
            if not power_map_holds(a, at, u):
                raise AssertionError(f"the {name} break the power map g -> g^{u}")
    primes, Z = ct.moduli
    top = max(primes) - 1
    if (not 2 * L * d < prod(primes) < 1 << 63 or max(L, d) * top >= 1 << 63
            or max(len(classes), 1) * top ** 2 >= 1 << 63):
        raise AssertionError(f"the primes {primes} break the bounds 2 L d = {2 * L * d} < "
                             "prod r' < 2^63 and max(L, d) (r' - 1), C (r' - 1)^2 < 2^63")
    F = at_roots(f, Z) * weights[:, None] % primes
    G = at_roots(g, Z[:, -np.arange(ct.e) % ct.e]) % primes
    S, M = np.zeros((len(f), len(ts)), dtype=np.int64), 1
    for j, r in enumerate(primes):  # Garner: 0 <= S < M, S = S_j mod each r'_j so far
        S += (F[..., j] @ G[..., j].T - S) % r * pow(M, -1, r) % r * M
        M *= r
    S[S > M // 2] -= M
    out, rem = np.divmod(S, divisor)
    if rem.any():
        raise IntegralityError(f"a character sum is not divisible by {divisor}")
    return out


def restriction_multiplicities(ct: CharTable, ids: np.ndarray, expos: np.ndarray,
                               m: int) -> np.ndarray:
    """The (X, k) multiplicities <Res_D chi_t, lambda_x>_D of the linear
    characters lambda_x(ids[i]) = zeta_m^expos[x, i] of the subgroup D of the
    ids: their class_sums over D, divided by |D|.  Exact: y -> y^v maps D
    onto itself and lambda_x(y^v) = lambda_x(y)^v; |S| <= |D| d_max."""
    expos, rem = np.divmod(np.asarray(expos) * ct.e, m)
    if rem.any():
        raise AssertionError(f"a linear character takes values outside Q(zeta_{ct.e})")
    classes, at = np.unique(ct.cd.class_of[ids], return_inverse=True)
    X, C = len(expos), len(classes)
    cells = (np.arange(X)[:, None] * C + at[None, :]) * ct.e + expos
    f = np.bincount(cells.ravel(), minlength=X * C * ct.e).reshape(X, C, ct.e)
    mults = class_sums(ct, f, classes, range(ct.k), len(ids), np.ones(C, dtype=np.int64))
    if np.any(mults < 0):
        raise IntegralityError("negative multiplicity")
    return mults


def decompose_induced(ct: CharTable, theta: NonDegenChar,
                      u_ids: np.ndarray | None = None) -> np.ndarray:
    """Multiplicities <Ind_U^G theta, chi_t> = <Res_U chi_t, theta>_U
    (Frobenius), the restriction_multiplicities of the linear character theta."""
    table = ct.table
    if theta.spec.key() != table.spec.key():
        raise ValueError("theta and table are over different groups")
    if u_ids is None:
        u_ids = unipotent_subgroup(table, 0)
    mults = restriction_multiplicities(
        ct, u_ids, theta.exponents_on(table.elems[u_ids])[None], theta.m)[0]
    if int(np.sum(mults * ct.degrees)) != len(table) // len(u_ids):
        raise AssertionError("multiplicities do not sum to the induced dimension")
    return mults


@dataclass
class RegularFlag:
    index: int
    degree: int
    regular: bool
    tau: TypeMatrix | None
    label: str | None


def classify_regular(ct: CharTable) -> list[RegularFlag]:
    """Classify irreducibles by their restriction to K^(l-1).

    chi is regular iff every x in g(F_q) with <chi|_{K^(l-1)}, phi_x> != 0 is
    regular, and the common factorization type of those x gives the label;
    phi_x is whittaker_verify.phi_x_exponents.  The pairing is constant on
    each orbit of G(F_q) acting on g(F_q) by conjugation: phi_{g x g^-1} is
    phi_x composed with conjugation by a lift of g^-1, and chi is a class
    function.  So it is computed exactly on one x per orbit, read off the
    conjugacy classes: y' -> I + pi^(l-1) y' maps g(F_q) onto K^(l-1) (trace 0
    for sl) and commutes with conjugation by G, so the classes that meet
    K^(l-1) are the orbits.  Each lies inside the normal K^(l-1) (AssertionError
    otherwise), and its representative, its smallest id, gives its x as the
    level y' of that element.

    The multiplicities are restriction_multiplicities of the phi_x, linear
    characters of K^(l-1).

    ValueError for l < 2, and for SL with p | n: the identity then lies in
    sl_n(F_q) and is orthogonal to it under the trace form, so x -> phi_x is
    not the duality of sl_n(F_q) with the characters of K^(l-1).
    """
    cd, table = ct.cd, ct.table
    spec = table.spec
    ring = table.ring
    ell = ring.ell
    if ell < 2:
        raise ValueError("regular classification needs l >= 2")
    n = spec.n
    if spec.family == "SL" and n % ring.p == 0:
        raise ValueError(f"regular classification of SL_{n} needs p not dividing n: at "
                         f"p = {ring.p} the trace form does not make sl_{n}(F_q) the "
                         "dual of K^(l-1)")
    k_ids = congruence_subgroup(table, ell - 1)
    # |g(F_q)| = |K^(l-1)|: the cap counts the pairs (x, y) of all of g(F_q) with K^(l-1)
    if len(k_ids) ** 2 > CLASSIFY_PAIR_CAP:
        raise CapExceeded("classification pair count beyond cap")
    meet = np.bincount(cd.class_of[k_ids], minlength=cd.k)
    classes = np.flatnonzero(meet)
    if not np.array_equal(meet[classes], cd.sizes[classes]):
        raise AssertionError("the classes that meet K^(l-1) do not lie inside it")
    q = ring.q
    # levels y' of the kernel elements: y = I + pi^(l-1) y'; a residue code
    # is its own lift to o_l, so the levels of the representatives are the x
    yprimes = (table.elems[k_ids].astype(np.int64) - np.eye(n, dtype=np.int64)) // q**(ell - 1) % q
    xs = yprimes[np.searchsorted(k_ids, cd.reps[classes])]
    # phi_x is in Q(zeta_e) though p^l may not divide e (GL1): p-th roots on K^(l-1), p | e
    mults = restriction_multiplicities(ct, k_ids, phi_x_exponents(ring, ell - 1, xs, yprimes),
                                       ring.char_order)
    # regularity and type depend on x only: one type_of call for every
    # supported representative.  Its (X, q^n, n, n) stack is within n^2 times
    # the pair cap above, since X <= |K^(l-1)| (one x per class that meets
    # it) and q^n <= |K^(l-1)| for n >= 2.
    supported = np.flatnonzero(mults.any(axis=1))
    types = dict(zip(supported.tolist(), type_of(xs[supported], q)))
    flags = []
    for t in range(ct.k):
        support = np.flatnonzero(mults[:, t])
        if len(support) == 0:
            raise AssertionError("restriction to the kernel has empty support")
        taus = {types[xi] for xi in support.tolist()}
        reg = None not in taus
        if reg and len(taus) != 1:
            raise AssertionError("factorization type is not orbit-constant")
        tau = taus.pop() if reg else None
        flags.append(RegularFlag(t, int(ct.degrees[t]), reg, tau,
                                 tau.label() if tau else None))
    return flags


def restriction_norm(ct_gl: CharTable, ts) -> np.ndarray:
    """<Res chi_t, Res chi_t>_SL = (1/|SL|) sum over SL of |chi_t|^2, exact,
    for each row t of the sequence ts, as an int64 array.

    One class_sums call of the values chi_s(c) on the classes that meet SL,
    weighted by the SL elements in each (sl_class_profile), checks the whole
    (T, T) block.  Exact: det(g^v) = det(g)^v, so g -> g^v maps the det-1
    classes onto themselves with their sizes; |S| <= |SL| d_max^2.
    """
    profile = sl_class_profile(ct_gl)
    meet = np.flatnonzero(profile)
    f = ct_gl.rows[np.ix_(ts, meet)]
    return np.diagonal(class_sums(ct_gl, f, meet, ts, int(profile.sum()), profile[meet])).copy()


def sl_class_profile(ct_gl: CharTable) -> np.ndarray:
    """How many SL elements lie in each GL conjugacy class: its size where the
    representative has det 1 (det is a class function), 0 elsewhere.
    AssertionError unless the profile sums to |SL|."""
    table = ct_gl.table
    dets = mat_det_batch(table.ring, table.elems[ct_gl.cd.reps])
    profile = np.where(dets == 1, ct_gl.cd.sizes, 0)
    sl_order = GroupSpec("SL", table.spec.n, table.spec.ring).order()
    if profile.sum() != sl_order:
        raise AssertionError(f"the det-1 classes of {table.spec.key()} hold "
                             f"{profile.sum()} elements, not |SL| = {sl_order}")
    return profile


@dataclass
class SpecialRegularRecord:
    index: int
    degree: int
    label: str | None
    tau: TypeMatrix | None
    units_with_model: tuple[int, ...]
    all_units: bool
    predicted_all_units: bool | None  # iota(tau, q-1) == 1, when available


def special_regular_scan(ct: CharTable,
                         flags: list[RegularFlag] | None = None) -> list[SpecialRegularRecord]:
    """For each regular irreducible of an SL table, which theta_a contain it.

    The prediction (has a model for every unit a iff iota(tau, q-1) = 1)
    applies when (p,2) = (p,n) = 1.  At p = 2 with n odd the observed sets
    are reported without it; at p | n there are no flags to scan, and
    classify_regular raises ValueError.
    """
    table = ct.table
    spec = table.spec
    if spec.family != "SL":
        raise ValueError("special-regular scan applies to SL tables")
    ring = table.ring
    if flags is None:
        flags = classify_regular(ct)
    u_ids = unipotent_subgroup(table, 0)
    units = ring.unit_codes()
    mult_by_a = {a: decompose_induced(ct, NonDegenChar(spec, a), u_ids) for a in units}
    if any((m > 1).any() for m in mult_by_a.values()):
        raise AssertionError("multiplicity above one")
    predok = predictions_supported(spec)
    out = []
    for fl in flags:
        if not fl.regular:
            continue
        with_model = tuple(a for a in units if mult_by_a[a][fl.index] == 1)
        out.append(SpecialRegularRecord(
            index=fl.index,
            degree=fl.degree,
            label=fl.label,
            tau=fl.tau,
            units_with_model=with_model,
            all_units=len(with_model) == len(units),
            predicted_all_units=(iota(fl.tau, ring.q - 1) == 1) if predok else None,
        ))
    return out

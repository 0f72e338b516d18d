"""Exact conjugacy classes and complex character tables for small groups.

The classes are the orbits of conjugation by a few generators of G, each
conjugation one permutation of the table's ids; the generators are proved to
generate G by the left multiplications they induce, which must connect the
table.

Tables are computed by the Dixon-Schneider method: the class-sum matrices
M_j (structure constants of the class algebra) commute and are split over
a prime field F_r with r = 1 mod exponent(G) and r > 2 sqrt(|G|), each
unsplit eigenspace on its own restricted action of M_j^T; their common
eigenvectors, normalized at the identity class, are the central
character vectors, degrees are recovered from the second orthogonality
relation, which gives d^2 mod r, as the one divisor of |G| below r/2 with
that square, and the character values are lifted to exact cyclotomic
integers through eigenvalue-multiplicity discrete sums.
Every character sum downstream (orthogonality, induced multiplicities, the
regular classification, restriction norms) is one cyclotomic.pairings call
read by integer_values.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

from .cyclotomic import IntegralityError, integer_values, pairings
from .localring import all_tuples, get_ring, is_prime
from .linalg import mat_inv_batch, mat_mul
from .groups import (CapExceeded, GroupTable, congruence_subgroup, matrix_powers,
                     unipotent_subgroup)
from .whittaker_verify import NonDegenChar, phi_x_exponents, predictions_supported
from .regular import TypeMatrix, iota, type_of

CHARTAB_CAP = 100_000
CLASS_CAP = 100_000
ROOT_SCAN_BOUND = 1_000_000
CLASSIFY_PAIR_CAP = 1 << 22


# ---------------------------------------------------------------------------
# conjugacy classes


@dataclass
class ClassData:
    """Conjugacy partition of a fully tabulated group; class_data derives
    every field from class_of."""

    table: GroupTable
    class_of: np.ndarray  # element id -> class id
    reps: np.ndarray      # class id -> representative element id
    sizes: np.ndarray
    inverse_perm: np.ndarray  # class id -> class of inverse
    orders: np.ndarray        # element order of the class

    @property
    def k(self) -> int:
        return len(self.reps)

    def exponent(self) -> int:
        return int(np.lcm.reduce(self.orders))

    def power_classes(self, i: int) -> list[int]:
        """Classes of rep_i^s for s = 0 .. ord-1."""
        table = self.table
        pows = matrix_powers(table.ring, table.elems[self.reps[i]], int(self.orders[i]))
        return self.class_of[table.ids_of(pows)].tolist()


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
    smallest ids, the numbering class_data asks for.  The extra memory is two
    |G|-long int64 permutations per kept generator.
    """
    N = len(table)
    if N > CLASS_CAP:
        raise CapExceeded(f"|G| = {N} beyond the class cap {CLASS_CAP}")
    ring, elems = table.ring, table.elems
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
    AssertionError otherwise.  The sizes are counts, each representative is
    the smallest id of its class, and the inversion permutation and the
    element orders are read off the representatives, their orders by one
    batched power loop.
    """
    class_of = np.asarray(class_of, dtype=np.int64)
    labels, reps = np.unique(class_of, return_index=True)
    if (len(class_of) != len(table) or not np.array_equal(labels, np.arange(len(labels)))
            or np.any(np.diff(reps) <= 0)):
        raise AssertionError(f"the classes of {table.spec.key()} are not numbered "
                             "in order of their smallest id")
    ring = table.ring
    x = table.elems[reps]
    inverse_perm = class_of[table.ids_of(mat_inv_batch(ring, x))]
    orders = np.zeros(len(reps), dtype=np.int64)
    eye = np.eye(table.n, dtype=np.int64)
    power, s = x, 1
    while True:
        orders[(orders == 0) & (power == eye).all(axis=(1, 2))] = s
        if orders.all():
            break
        power = mat_mul(ring, power, x)
        s += 1
    return ClassData(table, class_of, reps, np.bincount(class_of), inverse_perm, orders)


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


def primitive_root(r: int) -> int:
    fac = []
    m = r - 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            fac.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        fac.append(m)
    for g in range(2, r):
        if all(pow(g, (r - 1) // f, r) != 1 for f in fac):
            return g
    raise AssertionError("no primitive root found")


def rref_mod(A: np.ndarray, r: int) -> tuple[np.ndarray, list[int]]:
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
        if row == nrows:
            break
    return A[:row], piv


def nullspace_mod(A: np.ndarray, r: int) -> np.ndarray:
    """Row basis of the right kernel of A mod r."""
    R, piv = rref_mod(A, r)
    ncols = A.shape[1]
    is_pivot = np.zeros(ncols, dtype=bool)
    is_pivot[piv] = True
    free = np.flatnonzero(~is_pivot)
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, piv] = -R[:, free].T % r
    return basis


def charpoly_mod(A: np.ndarray, r: int) -> np.ndarray:
    """Characteristic polynomial of A mod r (coefficients ascending, monic)."""
    H = np.array(A, dtype=np.int64) % r
    n = H.shape[0]
    # similarity reduction to upper Hessenberg
    for j in range(n - 2):
        if H[j + 1, j] == 0:
            nz = np.flatnonzero(H[j + 2:, j])
            if nz.size == 0:
                continue
            i = j + 2 + int(nz[0])
            H[[j + 1, i]] = H[[i, j + 1]]
            H[:, [j + 1, i]] = H[:, [i, j + 1]]
        inv = pow(int(H[j + 1, j]), r - 2, r)
        for i in range(j + 2, n):
            f = int(H[i, j]) * inv % r
            if f:
                H[i] = (H[i] - f * H[j + 1]) % r
                H[:, j + 1] = (H[:, j + 1] + f * H[:, i]) % r
    # p_i(x) = (x - H[i,i]) p_{i-1} - sum_k H[k,i] (prod subdiag) p_{k-1}
    polys = [np.array([1], dtype=np.int64)]
    for i in range(n):
        prev = polys[i]
        cur = np.zeros(i + 2, dtype=np.int64)
        cur[1:] = prev
        cur[:-1] = (cur[:-1] - int(H[i, i]) * prev) % r
        cur %= r
        subprod = 1
        for k in range(i - 1, -1, -1):
            subprod = subprod * int(H[k + 1, k]) % r
            coef = int(H[k, i]) * subprod % r
            if coef:
                cur[: k + 1] = (cur[: k + 1] - coef * polys[k]) % r
        polys.append(cur)
    return polys[n]


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


class CharTable:
    """Exact character table: degrees plus Z[zeta_e] values per (row, class)."""

    def __init__(self, cd: ClassData, e: int, r: int, degrees: np.ndarray,
                 rows: np.ndarray):
        self.cd = cd
        self.e = e
        self.r = r
        self.degrees = degrees
        self.rows = rows  # (k, k, e) int64: coeff vectors of chi_t(class_i)
        self.loaded = False  # True when read from the disk cache

    @property
    def k(self) -> int:
        return self.cd.k

    @property
    def table(self) -> GroupTable:
        return self.cd.table

    def verify(self) -> None:
        """Exact completeness and row orthogonality; raises on failure.

        The column relation follows and is not computed.  The values form a
        square k x k matrix R over Z[zeta_e], and with H the diagonal of the
        class sizes the row relation says R H R* = |G| I.  So R is invertible
        with R^-1 = H R* / |G|, and R* R = |G| H^-1 holds exactly: that is
        sum_t chi_t(i) conj(chi_t(j)) = delta_ij |C(g_i)|.
        """
        k, order = self.k, len(self.table)
        rows, e, h = self.rows, self.e, self.cd.sizes
        if rows.shape != (k, k, e) or len(self.degrees) != k:
            raise AssertionError("the table is not square in its k classes")
        if int(np.sum(self.degrees**2)) != order:
            raise AssertionError("sum of squared degrees differs from |G|")
        if any(order % int(d) for d in self.degrees):
            raise AssertionError("a degree does not divide |G|")
        # row orthogonality: sum_i h_i chi_s(i) conj(chi_t(i)) = delta |G|
        prods = integer_values(pairings(rows * h[None, :, None], rows), e)
        if not np.array_equal(prods, order * np.eye(k, dtype=np.int64)):
            raise AssertionError("row orthogonality fails")
        if not (np.array_equal(rows[:, 0, 0], self.degrees) and not np.any(rows[:, 0, 1:])):
            raise AssertionError("degrees differ from the identity-class values")


def class_matrix(cd: ClassData, j: int, r: int) -> np.ndarray:
    """Class-sum structure constants M_j[i, l] = #{x in C_j : x^-1 z_l in C_i}."""
    table = cd.table
    k = cd.k
    inv_j = table.inverses()[cd.class_of == j]
    # the (|C_j|, k) stack of x^-1 z_l: one product, one lookup, one count
    prod = mat_mul(table.ring, inv_j[:, None], table.elems[cd.reps][None])
    classes = cd.class_of[table.ids_of(prod.reshape(-1, table.n, table.n))]
    M = np.bincount(classes * k + np.arange(len(classes)) % k, minlength=k * k)
    return M.reshape(k, k) % r


def character_table(table: GroupTable, cap: int = CHARTAB_CAP) -> CharTable:
    """Dixon-Schneider character table with exact cyclotomic lifting.

    The classes j are tried in order until every space is a line.  Each
    unsplit space W, kept as reduced rows, is split by the eigenvalues of
    the d x d action A of M_j^T on it (d = dim W), never of the k x k M_j^T.

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
    # every mod-r product below (W @ M_j^T, ker @ W, the lift's chibar @ zmat^T)
    # sums at most max(k, e) terms below r^2; k, e <= CHARTAB_CAP and
    # r <= ROOT_SCAN_BOUND keep this under 10^17, so it holds within the caps
    if max(k, e) * (r - 1) ** 2 >= 1 << 63:
        raise CapExceeded(f"Dixon prime r = {r} breaks the bound max(k, e) (r - 1)^2 < 2^63 "
                          f"(k = {k}, e = {e})")
    h = cd.sizes % r
    hinv = np.array([pow(int(x), r - 2, r) for x in h], dtype=np.int64)

    # split F_r^k into common eigen-rows of the transposed class matrices; an
    # unsplit space is its reduced rows W with pivot columns piv, and is split
    # on its restricted action A (W @ M_j^T = A @ W)
    spaces = [(np.eye(k, dtype=np.int64), list(range(k)))]
    for j in range(1, k):
        if all(len(W) == 1 for W, _ in spaces):
            break
        MT = class_matrix(cd, j, r).T
        nxt = []
        for W, piv in spaces:
            d = len(W)
            if d == 1:
                nxt.append((W, piv))
                continue
            A = W @ MT[:, piv] % r
            if np.array_equal(A, A[0, 0] * np.eye(d, dtype=np.int64)):
                nxt.append((W, piv))  # W is already an eigenspace of M_j^T
                continue
            found = 0
            for lam in poly_roots_mod(charpoly_mod(A, r), r):
                # row w = c W is an eigen-row iff c A = lam c
                ker = nullspace_mod((A.T - int(lam) * np.eye(d, dtype=np.int64)) % r, r)
                nxt.append(rref_mod(ker @ W % r, r))
                found += len(ker)
            if found != d:
                raise AssertionError("class matrix failed to act semisimply")
        spaces = nxt
    if any(len(W) != 1 for W, _ in spaces):
        raise AssertionError("class matrices did not separate all characters")

    # normalized eigen-rows are the central characters: row 0 of M_j is the
    # indicator of class j, so the eigenvalue (w M_j^T)[0] of w is w[j]
    W = np.concatenate([W for W, _ in spaces])
    if np.any(W[:, 0] == 0):
        raise AssertionError("eigenvector has zero identity coordinate")
    norm = np.array([pow(int(x), r - 2, r) for x in W[:, 0]], dtype=np.int64)
    omega = W * norm[:, None] % r

    # degrees from sum_j omega(j) omega(j*) / h_j = |G| / d^2: a degree d
    # divides |G| and d <= isqrt|G| < r/2 (dixon_prime), and d^2 mod r tells
    # those divisors apart (d^2 = d'^2 mod r forces d = +-d'), so d is the
    # divisor whose square is |G| / s mod r; 0 if none is
    s = (omega * omega[:, cd.inverse_perm] % r * hinv % r).sum(axis=1) % r
    by_square = {d * d % r: d for d in range(1, isqrt(order) + 1) if order % d == 0}
    degrees = np.array([by_square.get(order * pow(int(st), r - 2, r) % r, 0) for st in s],
                       dtype=np.int64)
    if int(np.sum(degrees**2)) != order:
        raise AssertionError("degree recovery failed")

    # character values mod r, then exact lifting class by class
    chibar = degrees[:, None] * omega % r * hinv[None, :] % r
    g = primitive_root(r)
    z = pow(g, (r - 1) // e, r)
    rows = np.zeros((k, k, e), dtype=np.int64)
    for i in range(k):
        o = int(cd.orders[i])
        pcs = cd.power_classes(i)
        zi = pow(z, e // o, r)
        zmat = np.array([[pow(zi, (-u * s) % o, r) for s in range(o)] for u in range(o)],
                        dtype=np.int64)
        oinv = pow(o, r - 2, r)
        cbar = chibar[:, pcs] @ zmat.T % r * oinv % r
        if not np.array_equal(cbar.sum(axis=1), degrees):
            raise IntegralityError("eigenvalue multiplicities do not sum to degree")
        step = e // o
        rows[:, i, ::step][:, : o] = cbar
    # canonical row order: ascending degree, then coefficient data
    order_keys = sorted(range(k), key=lambda t: (int(degrees[t]), rows[t].tobytes()))
    degrees = degrees[order_keys]
    rows = rows[order_keys]

    ct = CharTable(cd, e, r, degrees, rows)
    ct.verify()
    return ct


# ---------------------------------------------------------------------------
# induced-character decomposition and regular classification


def decompose_induced(ct: CharTable, theta: NonDegenChar,
                      u_ids: np.ndarray | None = None) -> np.ndarray:
    """Multiplicities <Ind_U^G theta, chi_t> by Frobenius reciprocity:
    (1/|U|) sum_u chi_t(u) conj(theta(u))."""
    table = ct.table
    if theta.spec.key() != table.spec.key():
        raise ValueError("theta and table are over different groups")
    if u_ids is None:
        u_ids = unipotent_subgroup(table, 0)
    e, m = ct.e, theta.m
    if e % m:
        raise AssertionError("character field does not contain the theta values")
    # theta summed class by class over U: f[0, class, exponent]
    u_classes = ct.cd.class_of[u_ids]
    u_expos = theta.exponents_on(table.elems[u_ids]) * (e // m)
    f = np.bincount(u_classes * e + u_expos, minlength=ct.k * e).reshape(1, ct.k, e)
    mults = integer_values(pairings(f, ct.rows), e, len(u_ids))[0]
    if np.any(mults < 0):
        raise IntegralityError("negative multiplicity")
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

    For each chi and each x in g(F_q), computes <chi|_{K^(l-1)}, phi_x>
    exactly, with phi_x from whittaker_verify.phi_x_exponents; chi is regular
    iff every x with nonzero pairing is regular, and the common factorization
    type of those x gives the label.
    """
    table = ct.table
    spec = table.spec
    ring = table.ring
    ell = ring.ell
    if ell < 2:
        raise ValueError("regular classification needs l >= 2")
    k_ids = congruence_subgroup(table, ell - 1)
    n = spec.n
    q = ring.q
    # levels y' of the kernel elements: y = I + pi^(l-1) y'
    vpk = ring.q ** (ell - 1)
    yprimes = (table.elems[k_ids] - np.eye(n, dtype=np.int64)[None]) // vpk % q
    y_classes = ct.cd.class_of[k_ids]
    # all x in g(F_q) (trace 0 for sl); a residue code is its own lift to o_l
    xs = _lie_algebra_residue(spec)
    if len(xs) * len(yprimes) > CLASSIFY_PAIR_CAP:
        raise CapExceeded("classification pair count beyond cap")
    e, k, X = ct.e, ct.k, len(xs)
    # phi_x(y) as exponents of zeta_e
    expo = phi_x_exponents(ring, ell - 1, xs, yprimes) * (e // ring.char_order)
    # phi_x summed class by class over K^(l-1), f[x, class, exponent], is
    # passed inline so that it is freed before integer_values
    cells = (np.arange(X)[:, None] * k + y_classes[None, :]) * e + expo
    acc = pairings(np.bincount(cells.ravel(), minlength=X * k * e).reshape(X, k, e), ct.rows)
    mults = integer_values(acc, e, len(k_ids))
    if np.any(mults < 0):
        raise IntegralityError("negative restriction multiplicity")

    # regularity and type depend on x only: one type_of call for every
    # supported x.  Its (X, q^n, n, n) stack is within n^2 times the pair cap
    # above, since q^n <= |K^(l-1)| = len(yprimes) for n >= 2.
    supported = np.flatnonzero(mults.any(axis=1))
    types = dict(zip(supported.tolist(), type_of(xs[supported], q)))
    flags = []
    for t in range(k):
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


def _lie_algebra_residue(spec) -> np.ndarray:
    """All elements of g(F_q): full matrix algebra for gl, trace zero for sl."""
    res = get_ring(spec.ring).residue_field()
    n, free = spec.n, spec.lie_dim  # sl: the last diagonal entry is -(the others)
    out = np.zeros((res.size**free, n * n), dtype=np.int64)
    out[:, :free] = all_tuples(res.size, free)
    out = out.reshape(-1, n, n)
    if spec.family == "SL":
        diag_sum = np.zeros(len(out), dtype=np.int64)
        for i in range(n - 1):
            diag_sum = res.v_add(diag_sum, out[:, i, i])
        out[:, n - 1, n - 1] = res.v_neg(diag_sum)
    return out


def restriction_norm(ct_gl: CharTable, ts, sl_table: GroupTable,
                     sl_class_counts: np.ndarray | None = None) -> np.ndarray:
    """<Res chi_t, Res chi_t>_SL = (1/|SL|) sum over SL of |chi_t|^2, exact,
    for each row t of the sequence ts, as an int64 array.

    One pairings call covers the block of rows, and integer_values checks the
    whole (T, T, e) result: its off-diagonal entries are |SL| times
    <Res chi_s, Res chi_t>_SL, integers as well.  The block is T^2 e int64,
    so callers pass a few dozen rows at a time (cli: one factorization label).
    """
    if sl_class_counts is None:
        sl_class_counts = sl_class_profile(ct_gl, sl_table)
    rows = ct_gl.rows[np.asarray(ts, dtype=np.int64)]
    acc = pairings(rows * sl_class_counts[None, :, None], rows)
    return np.diagonal(integer_values(acc, ct_gl.e, len(sl_table))).copy()


def sl_class_profile(ct_gl: CharTable, sl_table: GroupTable) -> np.ndarray:
    """How many SL elements land in each GL conjugacy class."""
    classes = ct_gl.cd.class_of[ct_gl.table.ids_of(sl_table.elems)]
    return np.bincount(classes, minlength=ct_gl.k)


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
    applies when (p,2) = (p,n) = 1; otherwise observed sets are reported
    without an asserted classification.
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
    mult_by_a = {}
    for a in units:
        mult_by_a[a] = decompose_induced(ct, NonDegenChar(spec, a), u_ids)
        if np.any(mult_by_a[a] > 1):
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

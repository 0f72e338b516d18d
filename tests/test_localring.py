import itertools

import numpy as np
import pytest

from whittaker.localring import CONWAY_POLYS, RingKind, get_ring, is_prime, parse_ring, ring_make
from oracles import prime_sieve, valuation

Z4 = ring_make("mixed", 2, 1, 2)
Z8 = ring_make("mixed", 2, 1, 3)
Z9 = ring_make("mixed", 3, 1, 2)
F3T2 = ring_make("equal", 3, 1, 2)
F4T2 = ring_make("equal", 2, 2, 2)
F2T3 = ring_make("equal", 2, 1, 3)


def test_is_prime_matches_a_sieve():
    assert [is_prime(n) for n in range(-2, 10**5)] == [False] * 2 + prime_sieve(10**5).tolist()


def test_ring_make_examples():
    assert Z9.q == 3 and Z9.size == 9
    assert F4T2.q == 4 and F4T2.size == 16
    with pytest.raises(ValueError):
        ring_make("mixed", 3, 2, 2)
    with pytest.raises(ValueError):
        ring_make("mixed", 4, 1, 2)


def test_ring_key_round_trip():
    for desc in (Z4, Z8, Z9, F3T2, F4T2, F2T3):
        assert parse_ring(desc.key()) == desc
    assert Z9.key() == "mixed:3^2"
    assert F4T2.key() == "equal:4^2"


def test_projection_examples():
    assert get_ring(Z9).project_code(7, 1) == 1
    assert get_ring(F3T2).project_code(2 + 3, 1) == 2  # 2 + t -> 2
    assert get_ring(Z8).project_code(6, 2) == 2
    with pytest.raises(ValueError):
        get_ring(Z9).project_code(1, 3)


def test_projection_is_ring_homomorphism():
    for desc in (Z8, F3T2, F4T2):
        ring = get_ring(desc)
        for x, y in itertools.product(range(ring.size), repeat=2):
            for i in range(1, desc.ell + 1):
                sub = ring.subring(i)
                assert ring.project_code(ring.add(x, y), i) == sub.add(
                    ring.project_code(x, i), ring.project_code(y, i))
                assert ring.project_code(ring.mul(x, y), i) == sub.mul(
                    ring.project_code(x, i), ring.project_code(y, i))


def test_projection_composition_law():
    ring = get_ring(Z8)
    for x in range(ring.size):
        assert ring.project_code(x, 3) == x
        via_two = ring.subring(2).project_code(ring.project_code(x, 2), 1)
        assert via_two == ring.project_code(x, 1)


def test_units_and_valuation():
    assert get_ring(Z4).unit_codes() == [1, 3]
    assert valuation(get_ring(Z9), 6) == 1
    assert len(get_ring(F2T3).unit_codes()) == 4
    for desc in (Z4, Z9, Z8, F3T2, F4T2, F2T3):
        q, ell = desc.q, desc.ell
        assert len(get_ring(desc).unit_codes()) == q ** (ell - 1) * (q - 1)
        assert valuation(get_ring(desc), 0) == ell


def test_unit_inverses_everywhere():
    for desc in (Z8, Z9, F3T2, F4T2):
        ring = get_ring(desc)
        for u in ring.unit_codes():
            assert ring.mul(u, ring.inv(u)) == 1
        with pytest.raises(ValueError):
            ring.inv(ring.q)  # the code of pi


def test_scalar_arithmetic_examples():
    ring = get_ring(Z9)
    assert ring.mul(4, 7) == 1
    assert ring.add(4, 7) == 2
    assert ring.sub(4, 7) == 6
    assert ring.neg(4) == 5
    assert ring.inv(4) == 7
    assert ring.is_unit(4) and not ring.is_unit(3)
    ring = get_ring(F3T2)  # codes c_0 + 3 c_1 for c_0 + c_1 t
    assert ring.mul(5, 5) == 1 + 3 * 1  # (2 + t)^2 = 4 + 4t = 1 + t
    assert ring.add(5, 4) == 0 + 3 * 2  # (2 + t) + (1 + t) = 2t
    assert ring.inv(5) == 2 + 3 * 2  # (2 + t)(2 + 2t) = 4 + 6t = 1


def _twist_table(ring, a):
    """Exponent of phi_a(x) = phi(a x) on every code x."""
    return ring.phi_exponents()[ring.v_mul(a, np.arange(ring.size))]


def _is_primitive(ring, expo):
    """phi_a is primitive iff it is nontrivial on pi^(l-1) o_l."""
    top = ring.q ** (ring.ell - 1)
    return any(expo[c * top] != 0 for c in range(1, ring.q))


def test_primitive_char_mixed_examples():
    ring = get_ring(Z9)
    phi = ring.phi_exponents()
    assert ring.char_order == 9
    assert phi[3] == 3
    assert phi[[0, 3, 6]].tolist() == [0, 3, 6]
    assert _is_primitive(ring, phi)


def test_primitive_char_equal_examples():
    ring = get_ring(F3T2)
    phi = ring.phi_exponents()
    assert ring.char_order == 3
    assert phi[3] == 1  # t
    assert phi[1] == 0
    assert _is_primitive(ring, phi)


def test_every_twist_is_primitive():
    for desc in (Z4, Z9, Z8, F3T2, F4T2, F2T3):
        ring = get_ring(desc)
        for a in ring.unit_codes():
            assert _is_primitive(ring, _twist_table(ring, a))


def _all_additive_characters(desc):
    """Brute-force dual of (o_l, +): every F_p-linear exponent functional."""
    ring = get_ring(desc)
    p, q, ell, f = desc.p, desc.q, desc.ell, desc.f
    dim = f * ell

    def coords(x):
        out = []
        for i in range(ell):
            c = (x // q**i) % q
            for j in range(f):
                out.append((c // p**j) % p)
        return out

    table = [coords(x) for x in range(ring.size)]
    for dual in itertools.product(range(p), repeat=dim):
        yield tuple(sum(d * c for d, c in zip(dual, cs)) % p for cs in table)


def test_primitive_characters_are_exactly_the_unit_twists():
    # every primitive character equals phi_a for exactly one unit a (q<=3, l<=3)
    for desc in (Z4, Z8, Z9, ring_make("mixed", 3, 1, 3), F3T2, F2T3,
                 ring_make("equal", 3, 1, 3)):
        ring = get_ring(desc)
        twists = {}
        for a in ring.unit_codes():
            tab = tuple(_twist_table(ring, a).tolist())
            assert tab not in twists.values(), "twists must be pairwise distinct"
            twists[a] = tab
        if desc.kind is RingKind.MIXED:
            # mixed characters have exponents mod p^l; compare on the mod-p socle map
            prim = set()
            size = desc.size
            for c in range(size):
                tab = tuple((c * x) % size for x in range(size))
                if any(tab[x] for x in range(0, size, size // desc.q)):
                    prim.add(tab)
        else:
            prim = set()
            top = desc.size // desc.q
            for tab in _all_additive_characters(desc):
                if any(tab[c * top] for c in range(1, desc.q)):
                    prim.add(tab)
        assert prim == set(twists.values()), desc.key()


def test_enumeration_order_is_fixed():
    ring = get_ring(F3T2)
    codes = list(range(ring.size))
    assert codes == sorted(codes)
    # ascending code = lexicographic with the top t-coefficient most significant
    reprs = [(c % 3, c // 3) for c in codes]  # (c_0, c_1) of c_0 + c_1 t
    assert reprs == sorted(reprs, key=lambda t: t[::-1])


# -- independent oracle for the equal family ---------------------------------
# F_q = F_p[x]/(modulus) on coefficient lists, o_l = F_q[t]/(t^l) on lists of
# F_q coefficients; codes are read off the lists as the module documents.


def _oracle_ring(p, f, ell):
    modulus = CONWAY_POLYS[(p, f)] if f > 1 else (0, 1)
    q = p**f

    def fq_add(x, y):
        return [(a + b) % p for a, b in zip(x, y)]

    def fq_mul(x, y):
        prod = [0] * (2 * f - 1)
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                prod[i + j] += a * b
        for d in range(2 * f - 2, f - 1, -1):  # x^f = -(modulus without its top term)
            c = prod[d] % p
            prod[d] = 0
            for j in range(f):
                prod[d - f + j] -= c * modulus[j]
        return [c % p for c in prod[:f]]

    def decode(code):
        coeffs = [(code // q**i) % q for i in range(ell)]
        return [[(c // p**j) % p for j in range(f)] for c in coeffs]

    def encode(elem):
        return sum(sum(d * p**j for j, d in enumerate(c)) * q**i for i, c in enumerate(elem))

    def add(a, b):
        return encode([fq_add(x, y) for x, y in zip(decode(a), decode(b))])

    def neg(a):
        return encode([[-d % p for d in c] for c in decode(a)])

    def mul(a, b):
        x, y = decode(a), decode(b)
        out = [[0] * f for _ in range(ell)]
        for i in range(ell):
            for j in range(ell - i):
                out[i + j] = fq_add(out[i + j], fq_mul(x[i], y[j]))
        return encode(out)

    def trace(c):  # Tr_{F_q/F_p}(c) = c + c^p + ... + c^(p^(f-1)), a constant
        s, power = [0] * f, c
        for _ in range(f):
            s = fq_add(s, power)
            frob = [1] + [0] * (f - 1)
            for _ in range(p):
                frob = fq_mul(frob, power)
            power = frob
        assert not any(s[1:])
        return s[0]

    def phi_exponent(a):
        return trace(decode(a)[ell - 1])

    return add, neg, mul, phi_exponent


# every equal ring the tests and the benchmark use, their residue fields, and
# one ring of each residue degree on record
@pytest.mark.parametrize("key", [
    "equal:2^1", "equal:2^2", "equal:2^3", "equal:3^1", "equal:3^2", "equal:3^3",
    "equal:4^1", "equal:4^2", "equal:4^3", "equal:5^1", "equal:5^2", "equal:7^1",
    "equal:8^1", "equal:8^2", "equal:9^1", "equal:16^1", "equal:25^1", "equal:27^1",
    "equal:32^1", "equal:49^1", "equal:64^1",
])
def test_equal_family_matches_coefficient_list_oracle(key):
    desc = parse_ring(key)
    ring = get_ring(desc)
    add, neg, mul, phi_exponent = _oracle_ring(desc.p, desc.f, desc.ell)
    R = ring.size
    codes = np.arange(R)
    want_add = np.array([[add(a, b) for b in range(R)] for a in range(R)])
    want_mul = np.array([[mul(a, b) for b in range(R)] for a in range(R)])
    want_neg = np.array([neg(a) for a in range(R)])
    want_inv = np.array([next((b for b in range(R) if want_mul[a, b] == 1), 0)
                         for a in range(R)])
    assert [[ring.add(a, b) for b in range(R)] for a in range(R)] == want_add.tolist()
    assert [[ring.mul(a, b) for b in range(R)] for a in range(R)] == want_mul.tolist()
    assert [ring.neg(a) for a in range(R)] == want_neg.tolist()
    assert [ring.inv(a) for a in ring.unit_codes()] == want_inv[ring.unit_codes()].tolist()
    assert np.array_equal(ring.v_add(codes[:, None], codes[None, :]), want_add)
    assert np.array_equal(ring.v_mul(codes[:, None], codes[None, :]), want_mul)
    assert np.array_equal(ring.v_neg(codes), want_neg)
    assert np.array_equal(ring.v_sub(codes[:, None], codes[None, :]), want_add[:, want_neg])
    assert np.array_equal(ring.v_inv(), want_inv)
    assert np.array_equal(ring.phi_exponents(), [phi_exponent(a) for a in range(R)])

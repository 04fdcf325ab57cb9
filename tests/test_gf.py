import random
from collections import Counter

import numpy as np
import pytest

from chevperm.gf import (
    MAX_ORDER,
    additive_transversal,
    embedding_table,
    factor_prime_power,
    irreducible_factors,
    is_prime,
    make_field,
    poly_divmod,
    poly_gcd,
    poly_powmod,
)

# every field the package can build, (p, k) for p^k <= 256
PRIME_POWERS = sorted(
    ((p, k) for p in range(2, MAX_ORDER + 1) if is_prime(p) for k in range(1, 9) if p**k <= MAX_ORDER),
    key=lambda pk: pk[0] ** pk[1],
)


# -- reference arithmetic: digit vectors and polynomial products mod the
# modulus, no tables; coefficient lists ascending by degree


def _digits(v, p, k):
    return [v // p**i % p for i in range(k)]


def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        shift = len(a) - 1 - dm
        factor = (a[-1] * inv_lead) % p
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * mi) % p
        _poly_trim(a)
    return a


def _monic_polys(p, deg):
    """Every monic polynomial of a degree, by the integer code of its
    non-leading coefficients."""
    for code in range(p**deg):
        yield _digits(code, p, deg) + [1]


def _irreducible(m, p):
    """Trial division by every monic polynomial of degree 1..deg/2."""
    return all(_poly_mod(m, c, p) for d in range(1, (len(m) - 1) // 2 + 1) for c in _monic_polys(p, d))


def _undigits(c, p):
    return sum(ci * p**i for i, ci in enumerate(c))


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_add(a, b, p):
    n = max(len(a), len(b))
    return [(x + y) % p for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))]


def _ref_mul(F, a, b):
    prod = _poly_mul(_digits(a, F.p, F.k), _digits(b, F.p, F.k), F.p)
    return _undigits(_poly_mod(prod, list(reversed(F.modulus)), F.p), F.p)


def test_modulus_is_smallest_irreducible():
    # exhaustive oracle: x^2+x+1 is the only monic irreducible quadratic mod 2
    assert make_field(2, 2).modulus == (1, 1, 1)
    assert make_field(2, 3).modulus == (1, 0, 1, 1)
    assert make_field(2, 4).modulus == (1, 0, 0, 1, 1)
    assert make_field(3, 2).modulus == (1, 0, 1)
    assert make_field(2, 1).modulus == (1, 0)  # x, the smallest of degree 1
    assert make_field(7, 1).modulus == (1, 0)


def test_every_modulus_is_the_smallest_irreducible_by_trial_division():
    for p, k in PRIME_POWERS:
        ref = next(m for m in _monic_polys(p, k) if _irreducible(m, p))
        assert make_field(p, k).modulus == tuple(reversed(ref)), (p, k)


@pytest.mark.parametrize("p,max_deg", [(2, 6), (3, 6), (5, 4)])
def test_irreducible_factors_match_trial_division(p, max_deg):
    # every monic f: the factors yielded, in order, are the distinct
    # irreducible factors whose degree no other distinct factor shares
    irreducibles = [m for d in range(1, max_deg + 1) for m in _monic_polys(p, d) if _irreducible(m, p)]
    for deg in range(1, max_deg + 1):
        for f in _monic_polys(p, deg):
            factors = [m for m in irreducibles if len(m) <= len(f) and not _poly_mod(f, m, p)]
            degrees = Counter(len(m) for m in factors)
            got = [g.tolist() for g in irreducible_factors(np.array(f), p)]
            assert got == [m for m in factors if degrees[len(m)] == 1], f


@pytest.mark.parametrize("p", [2, 3, 5])
def test_poly_divmod_gcd_powmod(p):
    rng = np.random.default_rng(p)
    for _ in range(40):
        f = rng.integers(0, p, size=int(rng.integers(1, 10)))
        g = np.append(rng.integers(0, p, size=int(rng.integers(1, 5))), 1)
        q, r = poly_divmod(f, g, p)
        assert r.tolist() == _poly_trim(_poly_mod(f.tolist(), g.tolist(), p))
        qg = _poly_mul(q.tolist(), g.tolist(), p) if len(q) else []
        assert _poly_trim(_poly_add(qg, r.tolist(), p)) == _poly_trim(f.tolist())
        h = poly_gcd(f, g, p)
        assert h[-1] == 1 and not len(poly_divmod(f, h, p)[1]) and not len(poly_divmod(g, h, p)[1])
        e = int(rng.integers(1, 20))
        power = [1]
        for _ in range(e):
            power = _poly_mod(_poly_mul(power, f.tolist() or [0], p), g.tolist(), p)
        assert poly_powmod(f, e, g, p).tolist() == _poly_trim(_poly_mod(power, g.tolist(), p))


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)])
def test_field_laws_exhaustive(p, k):
    F = make_field(p, k)
    els = list(F.elements())
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)


def test_gf4_arithmetic_values():
    F = make_field(2, 2)
    g = 2  # the class of x
    assert F.add(g, 1) == 3
    assert F.mul(g, g) == 3  # x^2 = x + 1
    assert F.mul(g, 3) == 1  # x * (x+1) = x^2 + x = 1
    assert F.inv(g) == 3
    assert F.fp_basis() == [1, 2]


def _ref_pow(F, a, n):
    out = 1
    for bit in bin(n)[2:]:
        out = _ref_mul(F, out, out)
        if bit == "1":
            out = _ref_mul(F, out, a)
    return out


@pytest.mark.parametrize("p,k", PRIME_POWERS)
def test_tables_match_reference_arithmetic(p, k):
    """The tables against digit-wise addition, the polynomial product mod the
    modulus and the Fermat inverse a^(q-2).  ADD and MUL are checked whole up
    to order 64 and on a seeded sample of rows above; NEG and INV whole."""
    F = make_field(p, k)
    q = F.order
    ADD, MUL, NEG, INV = F.tables()
    assert all(t.dtype == "uint8" for t in (ADD, MUL, NEG, INV))
    assert ADD.shape == MUL.shape == (q, q) and NEG.shape == INV.shape == (q,)
    digits = [_digits(v, p, k) for v in range(q)]
    rows = range(q) if q <= 64 else sorted({0, 1, q - 1} | set(random.Random(q).sample(range(q), 13)))
    for a in rows:
        sums = [_undigits([(x + y) % p for x, y in zip(digits[a], digits[b])], p) for b in range(q)]
        assert [int(v) for v in ADD[a]] == sums, a
        assert [int(v) for v in MUL[a]] == [_ref_mul(F, a, b) for b in range(q)], a
    assert [int(v) for v in NEG] == [_undigits([-x % p for x in d], p) for d in digits]
    assert INV[0] == 0
    assert [int(v) for v in INV[1:]] == [_ref_pow(F, a, q - 2) for a in range(1, q)]
    assert F.add(q - 1, 1) == ADD[q - 1, 1] and type(F.add(q - 1, 1)) is int


def test_field_guards():
    with pytest.raises(ValueError):
        make_field(4, 1)  # 4 is not prime
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(9) == (3, 2)
    with pytest.raises(ValueError):
        factor_prime_power(12)
    # trial division stops at isqrt(q): about 31 623 divisions, not 10^9
    assert factor_prime_power(1_000_000_007) == (1_000_000_007, 1)
    assert factor_prime_power(2) == (2, 1) and factor_prime_power(3) == (3, 1)
    assert factor_prime_power(1_000_003**2) == (1_000_003, 2)
    with pytest.raises(ValueError):
        factor_prime_power(1_000_003 * 1_000_033)


def test_order_cap_is_256():
    assert MAX_ORDER == 256
    assert make_field(2, 8).order == 256
    with pytest.raises(ValueError):
        make_field(2, 9)
    with pytest.raises(ValueError):
        make_field(257)


# reference embedding and transversal: element-at-a-time scalar arithmetic
# on the big field, with a seen set for the cosets


def ref_embedding_table(p, k_small, k_big):
    small, big = make_field(p, k_small), make_field(p, k_big)
    root = None
    for cand in big.elements():
        acc = 0
        for c in small.modulus:
            acc = big.add(big.mul(acc, cand), c)
        if acc == 0:
            root = cand
            break
    table = []
    for v in small.elements():
        acc, rpow = 0, 1
        for c in _digits(v, p, k_small):
            acc = big.add(acc, big.mul(c, rpow))
            rpow = big.mul(rpow, root)
        table.append(acc)
    return tuple(table)


def ref_additive_transversal(p, k_small, k_big):
    table = ref_embedding_table(p, k_small, k_big)
    big = make_field(p, k_big)
    seen = set()
    reps = []
    for v in big.elements():
        if v not in seen:
            reps.append(v)
            for w in table:
                seen.add(big.add(v, w))
    return tuple(reps)


# every (p, k_small, k_big) with k_small | k_big and p^k_big <= 256
EMBEDDINGS = [(p, ks, kb) for p, kb in PRIME_POWERS for ks in range(1, kb + 1) if kb % ks == 0]


def test_embeddings_and_transversals_match_the_scalar_loops():
    assert len(EMBEDDINGS) == 92
    for p, ks, kb in EMBEDDINGS:
        table = embedding_table(p, ks, kb)
        assert table == ref_embedding_table(p, ks, kb)
        assert all(type(v) is int for v in table)
        assert additive_transversal(p, ks, kb) == ref_additive_transversal(p, ks, kb)


def test_embedding_gf2_in_gf4():
    table = embedding_table(2, 1, 2)
    assert table == (0, 1)


def test_embedding_gf4_in_gf16_is_field_hom():
    # embedding_table asserts the homomorphism property internally; also check
    # the image is closed under multiplication and has the right size
    table = embedding_table(2, 2, 4)
    big = make_field(2, 4)
    img = set(table)
    assert len(img) == 4
    for a in img:
        for b in img:
            assert big.mul(a, b) in img
    with pytest.raises(ValueError):
        embedding_table(2, 2, 3)  # GF(4) does not sit inside GF(8)


def test_additive_transversal_gf2_in_gf4():
    assert additive_transversal(2, 1, 2) == (0, 2)


def test_transversal_covers_gf4_in_gf16():
    reps = additive_transversal(2, 2, 4)
    table = embedding_table(2, 2, 4)
    big = make_field(2, 4)
    seen = {big.add(r, v) for r in reps for v in table}
    assert len(reps) == 4
    assert seen == set(range(16))


def test_primitive_element():
    F = make_field(2, 2)
    g = F.primitive_element()
    assert F.multiplicative_order(g) == 3
    assert make_field(7, 1).primitive_element() == 3  # 3 generates GF(7)^x

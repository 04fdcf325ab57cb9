import pytest

from chevperm.gf import (
    additive_transversal,
    embedding_table,
    factor_prime_power,
    make_field,
)


def test_modulus_is_smallest_irreducible():
    # exhaustive oracle: x^2+x+1 is the only monic irreducible quadratic mod 2
    assert make_field(2, 2).modulus == (1, 1, 1)
    assert make_field(2, 3).modulus == (1, 0, 1, 1)
    assert make_field(2, 4).modulus == (1, 0, 0, 1, 1)
    assert make_field(3, 2).modulus == (1, 0, 1)
    assert make_field(2, 1).modulus is None


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


def test_tables_match_scalar_ops():
    F = make_field(2, 3)
    ADD, MUL, NEG, INV = F.tables()
    for a in F.elements():
        assert NEG[a] == F.neg(a)
        if a:
            assert INV[a] == F.inv(a)
        for b in F.elements():
            assert ADD[a, b] == F.add(a, b)
            assert MUL[a, b] == F.mul(a, b)


def test_field_guards():
    with pytest.raises(ValueError):
        make_field(4, 1)  # 4 is not prime
    with pytest.raises(ValueError):
        make_field(2, 17)  # 2^17 over the order cap
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(9) == (3, 2)
    with pytest.raises(ValueError):
        factor_prime_power(12)


def test_large_field_fermat_inverse():
    F = make_field(2, 16)
    assert F.order == 65536
    for a in [1, 2, 7, 501, 65535]:
        assert F.mul(a, F.inv(a)) == 1


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

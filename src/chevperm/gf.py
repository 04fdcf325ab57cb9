"""Arithmetic in small finite fields GF(p^k).

Elements are plain integers 0 <= v < p^k encoding the coefficient vector of
a polynomial in a generator g: v = sum(c_i * p**i), i.e. base-p digits, with
c_0 the constant term.  The modulus is the monic irreducible polynomial of
degree k over GF(p) whose non-leading coefficient word (read from degree
k-1 down to 0) is smallest as a base-p integer; it is found by exhaustive
search, so two builds of GF(p^k) always agree.  The element order used for
every downstream tie-break (embedding roots, transversal representatives,
product enumeration) is plain integer order on the encoding, which is
lexicographic order on the (c_{k-1}, ..., c_0) coefficient word.

Every field has order at most MAX_ORDER = 256, and all of its arithmetic is
four dense numpy uint8 lookup tables (add, mul, neg, inv), so matrix work
over the field is vectorized and scalar operations are single lookups.  The
tables are built from the base-p digit matrix of the elements and the
companion matrix of the modulus: sums are digit sums mod p, the product
with b applies sum(b_i X^i) to the digits, and inverses are read off the
product table.

Polynomials over GF(p) are int64 coefficient arrays, ascending by degree.
Division by a monic polynomial, gcd and modular powers make up the
distinct-degree factorization `irreducible_factors`, which the modulus
search uses as its irreducibility test and linrep's MeatAxe uses to factor
minimal polynomials.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, List, Tuple

import numpy as np

__all__ = [
    "MAX_ORDER",
    "Field",
    "make_field",
    "is_prime",
    "factor_prime_power",
    "embedding_table",
    "additive_transversal",
    "poly_divmod",
    "poly_gcd",
    "poly_powmod",
    "irreducible_factors",
]

MAX_ORDER = 256


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factor_prime_power(q: int) -> Tuple[int, int]:
    """Return (p, e) with q = p**e, or raise ValueError.  Trial division
    stops at isqrt(q): a q with no divisor up to there is prime."""
    if q < 2:
        raise ValueError("not a prime power: %r" % (q,))
    for p in range(2, math.isqrt(q) + 1):
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                raise ValueError("not a prime power: %r" % (q,))
            return p, e
    return q, 1


# -- polynomials over GF(p): int64 coefficient arrays, ascending by degree,
# entries in [0, p) and no trailing zeros, so the zero polynomial is empty


def _trim(f: np.ndarray) -> np.ndarray:
    n = len(f)
    while n and not f[n - 1]:
        n -= 1
    return f[:n]


def _monic(f: np.ndarray, p: int) -> np.ndarray:
    return f if f[-1] == 1 else f * pow(int(f[-1]), -1, p) % p


def poly_divmod(f: np.ndarray, g: np.ndarray, p: int) -> Tuple[np.ndarray, np.ndarray]:
    """Quotient and remainder of f by a monic g."""
    r = np.array(f, dtype=np.int64)
    dg = len(g) - 1
    q = np.zeros(max(len(r) - dg, 0), dtype=np.int64)
    for i in range(len(q) - 1, -1, -1):
        q[i] = c = r[i + dg] % p
        if c:
            r[i : i + dg + 1] -= c * g  # reduced mod p once, below
    return q, _trim(r[:dg] % p)


def poly_gcd(f: np.ndarray, g: np.ndarray, p: int) -> np.ndarray:
    """The monic gcd of two polynomials, at least one of them nonzero."""
    f, g = _trim(np.asarray(f, dtype=np.int64) % p), _trim(np.asarray(g, dtype=np.int64) % p)
    while len(g):
        g = _monic(g, p)
        f, g = g, poly_divmod(f, g, p)[1]
    return _monic(f, p)


def poly_powmod(f: np.ndarray, e: int, m: np.ndarray, p: int) -> np.ndarray:
    """f^e mod a monic m of degree >= 1, for e >= 1, by square and multiply
    from the leading bit of e."""

    def mulmod(a, b):
        return poly_divmod(np.convolve(a, b), m, p)[1] if len(a) and len(b) else a[:0]

    out = f = poly_divmod(f, m, p)[1]
    for bit in bin(e)[3:]:
        out = mulmod(out, out)
        if bit == "1":
            out = mulmod(out, f)
    return out


def irreducible_factors(f: np.ndarray, p: int) -> Iterator[np.ndarray]:
    """Monic irreducible factors of a monic f over GF(p), in ascending degree,
    by distinct-degree factorization with no equal-degree split.

    With every factor of degree < d stripped from f, g = gcd(f, x^(p^d) - x)
    is the product of the distinct irreducible factors of degree d; it is
    yielded when that is one factor (deg g = d), and then stripped with all
    its powers.  Once deg f < 2(d + 1), what is left has no factor of degree
    <= d, so it is 1 or irreducible, and is yielded if irreducible.  So the
    factors yielded are exactly those whose degree no other distinct factor
    shares.
    """
    f = _trim(np.asarray(f, dtype=np.int64) % p)
    h, d = np.array([0, 1], dtype=np.int64), 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        # x^(p^d) mod f; powmod reduces h, held mod an earlier multiple of f
        h = poly_powmod(h, p, f, p)
        hx = np.zeros(max(len(h), 2), dtype=np.int64)
        hx[: len(h)] = h
        hx[1] -= 1
        g = poly_gcd(f, hx, p)  # with x^(p^d) - x
        if len(g) == d + 1:
            yield g
        while len(g) > 1:
            f = poly_divmod(f, g, p)[0]
            g = poly_gcd(f, g, p)
    if len(f) > 1:
        yield f


def _digits(v: int, p: int, k: int) -> List[int]:
    out = []
    for _ in range(k):
        out.append(v % p)
        v //= p
    return out


class Field:
    """GF(p^k) with integer-encoded elements.  Build via make_field()."""

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise ValueError("characteristic must be prime, got %r" % (p,))
        if k < 1 or p**k > MAX_ORDER:
            raise ValueError("field order %d out of range" % (p**k,))
        self.p = p
        self.k = k
        self.order = p**k
        self.modulus = self._find_modulus()
        self._tables = None

    def _find_modulus(self) -> Tuple[int, ...]:
        # smallest non-leading coefficient word, degree k-1 digit most
        # significant = smallest integer code (for k = 1 that is x itself),
        # of an irreducible polynomial: one whose first factor yielded by
        # irreducible_factors is itself
        for code in range(self.order):
            cand = np.array(_digits(code, self.p, self.k) + [1], dtype=np.int64)
            if len(next(irreducible_factors(cand, self.p), ())) == self.k + 1:
                return tuple(int(c) for c in reversed(cand))  # store descending by degree
        raise AssertionError("no irreducible polynomial found")

    # -- element arithmetic on integer encodings, read from the tables

    def add(self, a: int, b: int) -> int:
        return int(self.tables()[0][a, b])

    def neg(self, a: int) -> int:
        return int(self.tables()[2][a])

    def mul(self, a: int, b: int) -> int:
        return int(self.tables()[1][a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero in GF(%d)" % self.order)
        return int(self.tables()[3][a])

    def pow(self, a: int, n: int) -> int:
        n %= self.order - 1 if a else 1
        out, base = 1, a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def elements(self) -> range:
        return range(self.order)

    def units(self) -> range:
        return range(1, self.order)

    def fp_basis(self) -> List[int]:
        """1, g, ..., g^{k-1} where g is the class of x mod the modulus."""
        return [self.p**i for i in range(self.k)]

    def primitive_element(self) -> int:
        for a in range(1, self.order):
            if self.multiplicative_order(a) == self.order - 1:
                return a
        raise AssertionError("no primitive element")

    def multiplicative_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("zero has no multiplicative order")
        n, x = 1, a
        while x != 1:
            x = self.mul(x, a)
            n += 1
        return n

    def tables(self):
        """(ADD, MUL, NEG, INV) dense uint8 tables indexed by encodings,
        built on first use; INV[0] is 0."""
        if self._tables is None:
            p, k, q = self.p, self.k, self.order
            D = np.array([_digits(v, p, k) for v in range(q)], dtype=np.int64)
            weights = p ** np.arange(k, dtype=np.int64)
            # X maps the digits of v to those of g*v: g^j -> g^(j+1) for
            # j < k-1, and g^(k-1) -> g^k = -(m_0 + m_1 g + ... + m_(k-1) g^(k-1))
            X = np.eye(k, k=-1, dtype=np.int64)
            X[:, -1] = [-c % p for c in reversed(self.modulus[1:])]
            powers = [np.eye(k, dtype=np.int64)]
            for _ in range(1, k):
                powers.append(X @ powers[-1] % p)
            mats = np.tensordot(D, np.stack(powers), axes=1) % p  # b -> sum b_i X^i
            add = (D[:, None, :] + D[None, :, :]) % p @ weights
            mul = weights @ (mats @ D.T % p)  # [b, a]: digits of b*a, encoded
            neg = -D % p @ weights
            inv = np.zeros(q, dtype=np.int64)
            units, inverses = np.nonzero(mul == 1)
            inv[units] = inverses
            self._tables = tuple(t.astype(np.uint8) for t in (add, mul, neg, inv))
        return self._tables

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self) -> int:
        return hash((self.p, self.k))

    def __repr__(self) -> str:
        return "GF(%d)" % self.order if self.k == 1 else "GF(%d^%d)" % (self.p, self.k)


@lru_cache(maxsize=None)
def make_field(p: int, k: int = 1) -> Field:
    return Field(p, k)


@lru_cache(maxsize=None)
def embedding_table(p: int, k_small: int, k_big: int) -> Tuple[int, ...]:
    """Embedding GF(p^k_small) -> GF(p^k_big) as a lookup tuple.

    Requires k_small | k_big.  The image of g_small is the smallest root (in
    element order) of the small modulus inside the big field, so the table is
    reproducible.  The map is checked to be a ring homomorphism.  All of it
    is gathers on the two fields' tables: the modulus is evaluated at every
    big element at once by Horner's rule, and the image of v is the sum of
    its base-p digits times the powers of the root.
    """
    if k_big % k_small != 0:
        raise ValueError("GF(%d^%d) does not embed in GF(%d^%d)" % (p, k_small, p, k_big))
    small, big = make_field(p, k_small), make_field(p, k_big)
    ADD, MUL = big.tables()[:2]
    x = np.arange(big.order)
    acc = np.zeros(big.order, dtype=np.uint8)
    for c in small.modulus:  # descending degree, entries in GF(p)
        acc = ADD[MUL[acc, x], c]
    roots = np.flatnonzero(acc == 0)
    assert len(roots), "modulus has no root in the big field"
    digits = np.arange(small.order)[:, None] // np.array(small.fp_basis()) % p
    table = np.zeros(small.order, dtype=np.uint8)
    for i, column in enumerate(digits.T):
        table = ADD[table, MUL[column, big.pow(int(roots[0]), i)]]
    assert len(set(table.tolist())) == small.order
    small_add, small_mul = small.tables()[:2]
    assert np.array_equal(table[small_add], ADD[table[:, None], table[None, :]])
    assert np.array_equal(table[small_mul], MUL[table[:, None], table[None, :]])
    return tuple(table.tolist())


def additive_transversal(p: int, k_small: int, k_big: int) -> Tuple[int, ...]:
    """Coset representatives of the embedded additive group of GF(p^k_small)
    inside GF(p^k_big), greedily smallest in element order (so reps[0] = 0):
    the elements that are the minimum of their coset, in ascending order."""
    table = embedding_table(p, k_small, k_big)
    big = make_field(p, k_big)
    coset_min = big.tables()[0][:, list(table)].min(axis=1)
    reps = np.flatnonzero(coset_min == np.arange(big.order))
    assert len(reps) * len(table) == big.order
    return tuple(reps.tolist())

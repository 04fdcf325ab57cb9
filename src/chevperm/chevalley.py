"""Matrix realizations of small Chevalley groups and their flag cosets.

Types A1-A3 are SL_2..SL_4: the root subgroup for e_i - e_j is c |-> I + c E_ij.
Type B2 is Sp_4 preserving the antidiagonal Gram matrix with sign pattern
(+1, +1, -1, -1), chosen so that the Borel subgroup is exactly the
upper-triangular part of the group.  Matrices are numpy uint8 arrays of
field-element encodings, multiplied through dense field tables.

Coset canonicalization.  A coset gB is represented by the unique member in
"bottom-pivot column echelon" form: columns are processed left to right,
entries in earlier pivot rows are cleared (allowed: that adds an earlier
column to a later one, i.e. right-multiplies by an upper unipotent), the
bottom-most nonzero entry becomes the pivot and is scaled to 1.  Right
multiplication by any invertible upper-triangular matrix is exactly the
group of moves used, so the form is constant on cosets and distinct cosets
get distinct forms.  The same form also separates Sp_4 Borel cosets: if two
symplectic matrices share the echelon form, they differ by an
upper-triangular invertible matrix which, lying in the group, belongs to
the upper-triangular part of Sp_4 -- and that is precisely the symplectic
Borel for this Gram matrix.

G/B is enumerated in closed form by the Bruhat decomposition: G is the
disjoint union over the Weyl group of the cells U_w w' B, w' = weyl_rep(w),
and the cell of w holds the cosets u w' B, u running over the product of
the root subgroups of the positive roots that w^-1 makes negative,
q^length(w) of them.  Two checks stand in for a search: `FlagIndex`
asserts that the forms of its N = sum of q^length(w) cosets are distinct,
so the form separates the enumerated cosets; and `permmod.LevelModule`
looks up the image of every coset under every root element in the index,
where `perm_of` raises KeyError on an image outside it, so the enumerated
set is G-stable.

Forms are computed on stacks (N, n, n) of matrices in one numpy pass: the
loops run over the n columns and their earlier pivots, never over N, and a
single matrix is a stack of one.  `mat_mul`, `mat_inv`, `mat_det` and
`in_group` work on stacks the same way.  `FlagIndex.perm_of` takes a stack
of elements, and the structure sweeps (`check_structure_facts`) build the
matrices of the cases they draw as one stack.  Stacked intermediates run in
chunks under the byte cap `STACK_BYTES`.

Only G/B is enumerated.  The cosets of a standard parabolic P_K are blocks
of Borel cosets, and their module is built from the Borel permutations
(`permmod.LevelModule.parabolic`).
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .gf import Field, factor_prime_power, make_field
from .rootsys import RootDatum, WeylElement, root_datum

__all__ = [
    "BudgetError",
    "MatrixGroup",
    "FlagIndex",
    "matrix_group",
    "check_structure_facts",
    "decompose_simple_conjugate",
]

MATRIX_KINDS = {"A1": ("SL", 2), "A2": ("SL", 3), "A3": ("SL", 4), "B2": ("Sp", 4)}


class BudgetError(RuntimeError):
    """An enumeration or search would exceed its configured budget."""


# -- dense-table matrix arithmetic ------------------------------------------

# Byte cap on the intermediates of one chunk of a stack: `mat_mul` splits its
# gather, `perm_of` its products with the coset representatives and their
# bytes keys, and `permmod.LevelModule.filtration` its labels' triples in the
# translate basis, into chunks that stay under it.
STACK_BYTES = 1 << 16


def mat_mul(field: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A*B for stacks (..., n, k) and (..., k, m), broadcast over the leading
    axes: one MUL gather, then k-1 ADD gathers, on chunks of the stack."""
    ADD, MUL, _, _ = field.tables()
    lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    (n, k), m = A.shape[-2:], B.shape[-1]
    A = np.broadcast_to(A, lead + (n, k)).reshape(-1, n, k)
    B = np.broadcast_to(B, lead + (k, m)).reshape(-1, k, m)
    out = np.empty((len(A), n, m), dtype=np.uint8)
    step = max(1, STACK_BYTES // (n * k * m))
    for s in range(0, len(A), step):
        prod = MUL[A[s:s + step, :, :, None], B[s:s + step, None, :, :]]
        acc = prod[:, :, 0, :]
        for j in range(1, k):
            acc = ADD[acc, prod[:, :, j, :]]
        out[s:s + step] = acc
    return out.reshape(lead + (n, m))


def _swap_pivots(M: np.ndarray, col: int, piv: np.ndarray) -> None:
    """Swap row `col` of each matrix of the stack with its row `piv`."""
    if (piv != col).any():
        at = np.arange(len(M))
        top, rows = M[:, col].copy(), M[at, piv]
        M[at, piv] = top
        M[:, col] = rows


def mat_inv(field: Field, A: np.ndarray) -> np.ndarray:
    """The inverses of a stack (..., n, n) by one Gauss-Jordan pass over the
    stack, the pivot of each column the first nonzero entry on or below the
    diagonal; a singular matrix raises ValueError."""
    ADD, MUL, NEG, INV = field.tables()
    n = A.shape[-1]
    M = A.reshape(-1, n, n)
    M = np.concatenate([M, np.broadcast_to(identity_matrix(n), M.shape)], axis=2)
    for col in range(n):
        nonzero = M[:, col:, col] != 0
        if not nonzero.any(axis=1).all():
            raise ValueError("singular matrix: column %d has no pivot" % col)
        _swap_pivots(M, col, col + np.argmax(nonzero, axis=1))
        M[:, col] = MUL[INV[M[:, col, col]][:, None], M[:, col]]
        f = NEG[M[:, :, col]]
        f[:, col] = 0  # every row but the pivot's loses its entry in the column
        M = ADD[M, MUL[f[:, :, None], M[:, None, col]]]
    return np.ascontiguousarray(M[:, :, n:]).reshape(A.shape)


def identity_matrix(n: int) -> np.ndarray:
    M = np.zeros((n, n), dtype=np.uint8)
    np.fill_diagonal(M, 1)
    return M


def mat_det(field: Field, A: np.ndarray) -> np.ndarray:
    """The determinants of a stack (..., n, n), by elimination below the
    pivots; a column with no pivot leaves its zero on the diagonal, which
    zeroes the product."""
    ADD, MUL, NEG, INV = field.tables()
    n = A.shape[-1]
    M = A.reshape(-1, n, n).copy()
    det = np.ones(len(M), dtype=np.uint8)
    for col in range(n):
        piv = col + np.argmax(M[:, col:, col] != 0, axis=1)
        _swap_pivots(M, col, piv)
        det = MUL[np.where(piv != col, NEG[det], det), M[:, col, col]]
        f = NEG[MUL[M[:, col + 1:, col], INV[M[:, col, col]][:, None]]]
        M[:, col + 1:] = ADD[M[:, col + 1:], MUL[f[:, :, None], M[:, None, col]]]
    return det.reshape(A.shape[:-2])


# -- the groups --------------------------------------------------------------

# Sp_4 positive root patterns by (e1, e2)-coordinates; sign -1 is taken in
# the field.  Verified against X^t J + J X = 0 for the Gram matrix below.
_SP4_PATTERNS = {
    (1, -1): ((0, 1, 1), (2, 3, -1)),
    (-1, 1): ((1, 0, 1), (3, 2, -1)),
    (0, 2): ((1, 2, 1),),
    (0, -2): ((2, 1, 1),),
    (1, 1): ((0, 2, 1), (1, 3, 1)),
    (-1, -1): ((2, 0, 1), (3, 1, 1)),
    (2, 0): ((0, 3, 1),),
    (-2, 0): ((3, 0, 1),),
}


class MatrixGroup:
    """SL_n or Sp_4 over a small finite field, driven by a root datum."""

    def __init__(self, kind: str, field: Field):
        if kind not in MATRIX_KINDS:
            raise ValueError("unsupported type %r" % (kind,))
        self.kind = kind
        self.family, self.n = MATRIX_KINDS[kind]
        self.field = field
        self.datum = root_datum(kind)
        self._euclidean = [self._euclidean_coords(r) for r in self.datum.roots]
        self._weyl_cache: Dict[Tuple[int, ...], np.ndarray] = {}
        self._root_elements: Optional[np.ndarray] = None
        if self.family == "Sp":
            J = np.zeros((4, 4), dtype=np.uint8)
            J[0, 3] = J[1, 2] = 1
            J[2, 1] = J[3, 0] = field.neg(1)
            self.gram = J

    def _euclidean_coords(self, root: Tuple[int, ...]) -> Tuple[int, ...]:
        if self.family == "SL":
            c = root
            n = self.n
            out = [c[0]] + [c[m] - c[m - 1] for m in range(1, n - 1)] + [-c[-1]]
            return tuple(out)
        c1, c2 = root
        return (c1, 2 * c2 - c1)

    # -- element constructors

    def root_element(self, root_index: int, c: int) -> np.ndarray:
        M = identity_matrix(self.n)
        if c == 0:
            return M
        eu = self._euclidean[root_index]
        if self.family == "SL":
            i = eu.index(1)
            j = eu.index(-1)
            M[i, j] = c
        else:
            for (i, j, sign) in _SP4_PATTERNS[eu]:
                M[i, j] = c if sign == 1 else self.field.neg(c)
        return M

    def root_elements(self) -> np.ndarray:
        """The stack (roots, q, n, n) of every root_element(r, c), c running
        over the field's encodings."""
        if self._root_elements is None:
            self._root_elements = np.stack([
                np.stack([self.root_element(ri, c) for c in self.field.elements()])
                for ri in range(len(self.datum.roots))
            ])
            self._root_elements.flags.writeable = False
        return self._root_elements

    def from_word(self, word: Iterable[Tuple[int, int]]) -> np.ndarray:
        out = identity_matrix(self.n)
        for root_index, c in word:
            out = mat_mul(self.field, out, self.root_element(root_index, c))
        return out

    def from_words(self, roots: Sequence[int], coeffs: np.ndarray) -> np.ndarray:
        """from_word on a stack of words over one sequence of roots: row s of
        coeffs (N, len(roots)) holds the coefficients of word s."""
        table = self.root_elements()
        out = np.repeat(self.identity()[None], len(coeffs), axis=0)
        for ri, c in zip(roots, np.asarray(coeffs).T):
            out = mat_mul(self.field, out, table[ri, c])
        return out

    def simple_rep(self, i: int) -> np.ndarray:
        return self.from_word(simple_reflection_word(self, i))

    def weyl_rep(self, w: WeylElement) -> np.ndarray:
        """The product of the simple reflection representatives along a
        reduced word of w; they satisfy the braid relations, so every
        reduced word gives the same matrix."""
        M = self._weyl_cache.get(w.perm)
        if M is None:
            if w.length <= 1:
                M = self.from_word(weyl_word(self, w))
            else:
                s = self.datum.simple_reflection(w.word[-1])
                M = mat_mul(self.field, self.weyl_rep(w * s), self.weyl_rep(s))
            self._weyl_cache[w.perm] = M
        return M

    def torus_elements(self, params) -> np.ndarray:
        """The torus elements h_1(c_1) ... h_r(c_r) of coroot elements
        (`coroot_word`), one for each row (c_1, ..., c_r) of units in params,
        as a stack (len(params), n, n): one `from_words` over the
        concatenated coroot words."""
        roots = [ri for i in range(self.datum.rank) for ri, _ in coroot_word(self, i, 1)]
        coeffs = [[x for i, c in enumerate(row) for _, x in coroot_word(self, i, int(c))] for row in params]
        return self.from_words(roots, np.reshape(coeffs, (-1, len(roots))))

    def root_character(self, root_index: int, diag: np.ndarray) -> np.ndarray:
        """alpha(t) for each diagonal torus matrix t of a stack (..., n, n)."""
        _, MUL, _, INV = self.field.tables()
        d = np.diagonal(diag, axis1=-2, axis2=-1)
        out = np.ones(d.shape[:-1], dtype=np.uint8)
        for m, e in enumerate(self._euclidean[root_index]):
            x = d[..., m] if e >= 0 else INV[d[..., m]]
            for _ in range(abs(e)):
                out = MUL[out, x]
        return out

    # -- predicates

    def mul(self, *mats: np.ndarray) -> np.ndarray:
        out = mats[0]
        for M in mats[1:]:
            out = mat_mul(self.field, out, M)
        return out

    def inv(self, M: np.ndarray) -> np.ndarray:
        return mat_inv(self.field, M)

    def identity(self) -> np.ndarray:
        return identity_matrix(self.n)

    def in_group(self, M: np.ndarray) -> np.ndarray:
        """Whether each matrix of a stack (..., n, n) lies in the group."""
        if self.family == "SL":
            return mat_det(self.field, M) == 1
        form = mat_mul(self.field, np.swapaxes(M, -1, -2), mat_mul(self.field, self.gram, M))
        return np.all(form == self.gram, axis=(-2, -1))

    def is_upper_triangular(self, M: np.ndarray) -> bool:
        return not np.any(np.tril(M, -1))

    def is_diagonal(self, M: np.ndarray) -> bool:
        return not np.any(M - np.diag(np.diagonal(M)))

    # -- coset canonical forms

    def borel_canonical(self, M: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The Borel echelon forms of a stack (..., n, n) and their pivot rows
        (..., n).  A matrix with no pivot in some column (a singular one)
        raises ValueError."""
        ADD, MUL, NEG, INV = self.field.tables()
        n = self.n
        A = M.reshape(-1, n, n).copy()
        at = np.arange(len(A))
        pivots = np.empty((len(A), n), dtype=np.intp)
        for j in range(n):
            col = A[:, :, j]
            # no per-matrix branch: a zero entry in an earlier pivot row adds
            # MUL[NEG[0], .] = 0, and a pivot already 1 is scaled by INV[1] = 1
            for pj in range(j):
                f = col[at, pivots[:, pj]]
                col[...] = ADD[col, MUL[NEG[f][:, None], A[:, :, pj]]]
            nonzero = col != 0
            if not nonzero.any(axis=1).all():
                raise ValueError("singular matrix: column %d has no pivot" % j)
            r = n - 1 - np.argmax(nonzero[:, ::-1], axis=1)
            pivots[:, j] = r
            col[...] = MUL[INV[col[at, r]][:, None], col]
        return A.reshape(M.shape), pivots.reshape(M.shape[:-1])


def matrix_group(kind: str, q: int) -> MatrixGroup:
    p, e = factor_prime_power(q)
    return MatrixGroup(kind, make_field(p, e))


# -- word constructors (shared with the module layer) ------------------------


def simple_reflection_word(group: MatrixGroup, i: int) -> List[Tuple[int, int]]:
    datum, F = group.datum, group.field
    pos = datum.simple_indices[i]
    neg = pos + datum.n_pos
    return [(pos, 1), (neg, F.neg(1)), (pos, 1)]


def weyl_word(group: MatrixGroup, w: WeylElement) -> List[Tuple[int, int]]:
    out: List[Tuple[int, int]] = []
    for i in w.word:
        out.extend(simple_reflection_word(group, i))
    return out


def invert_word(group: MatrixGroup, word: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    return [(r, group.field.neg(c)) for r, c in reversed(word)]


def coroot_word(group: MatrixGroup, i: int, c: int) -> List[Tuple[int, int]]:
    """Word for the coroot torus element h_i(c)."""
    datum, F = group.datum, group.field
    pos = datum.simple_indices[i]
    neg = pos + datum.n_pos
    sc = [(pos, c), (neg, F.neg(F.inv(c))), (pos, c)]
    return sc + invert_word(group, simple_reflection_word(group, i))


# -- flag-variety index ------------------------------------------------------


def _keys(forms: np.ndarray) -> List[bytes]:
    """`tobytes()` of each matrix of a stack (N, n, n)."""
    flat = np.ascontiguousarray(forms).reshape(len(forms), forms.shape[1] * forms.shape[2])
    return flat.view(np.dtype((np.void, flat.shape[1]))).ravel().tolist()


class FlagIndex:
    """All cosets of the Borel subgroup, indexed 0..N-1 by Bruhat cell: the
    cells in the length order of `datum.elements`, so coset 0 is B, and
    inside the cell of w the cosets u * weyl_rep(w) * B, u running over the
    product of the root subgroups of the positive roots that w^-1 makes
    negative, the last root's coefficient varying fastest."""

    K = frozenset()  # the benchmark's tracer (perfbench/tracing.py) tags spans by obj.K

    def __init__(self, group: MatrixGroup, budget: int = 200_000):
        self.group = group
        datum, F = group.datum, group.field
        predicted = datum.poincare_sum((), F.order)
        if predicted > budget:
            raise BudgetError(
                "coset space of size %d exceeds budget %d" % (predicted, budget)
            )
        cells = [
            mat_mul(F, group.from_words(datum.phi_minus(w.inverse()), _all_coeffs(F, w.length)), group.weyl_rep(w))
            for w in datum.elements
        ]
        self.reps = np.concatenate(cells)  # (N, n, n): a group element in each coset
        self._bruhat = [w for w, cell in zip(datum.elements, cells) for _ in range(len(cell))]
        # canonical form -> coset index
        self._index = {key: x for x, key in enumerate(_keys(group.borel_canonical(self.reps)[0]))}
        assert len(self._index) == len(self.reps) == predicted, (len(self._index), len(self.reps), predicted)

    def __len__(self) -> int:
        return len(self.reps)

    def index_of(self, M: np.ndarray) -> int:
        # keyed in the dtype of the representatives, whatever the input's
        return self._index[self.group.borel_canonical(M)[0].astype(self.reps.dtype).tobytes()]

    def perm_of(self, M: np.ndarray) -> np.ndarray:
        """The coset permutations (..., N) of a stack of elements (..., n, n).
        The products with the reps are formed only at the entries nonzero
        somewhere in the stack, each as a row operation on the matrices
        where it is nonzero: a root element, the identity plus one or two
        entries, costs a few row operations, not a matrix product.  Chunks
        of the stack, counting each image's form and its bytes key, stay
        under STACK_BYTES."""
        ADD, MUL, _, _ = self.group.field.tables()
        reps, n = self.reps, self.group.n
        stack = M.reshape(-1, n, n)
        out = np.empty((len(stack), len(reps)), dtype=np.int64)
        step = max(1, STACK_BYTES // (len(reps) * (n * n + 64)))  # a key: ~64 bytes of Python object
        for s in range(0, len(stack), step):
            chunk = stack[s:s + step]
            prods = np.zeros((len(chunk), len(reps), n, n), dtype=np.uint8)
            for i, k in zip(*np.nonzero(chunk.any(axis=0))):
                at = np.flatnonzero(chunk[:, i, k])
                c = chunk[at, i, k]
                row = reps[:, k] if (c == 1).all() else MUL[c[:, None, None], reps[:, k]]
                prods[at, :, i] = ADD[prods[at, :, i], row]
            forms = self.group.borel_canonical(prods.reshape(-1, n, n))[0]
            # a KeyError here is an image outside the enumerated cosets
            out[s:s + step] = np.reshape([self._index[key] for key in _keys(forms)], (len(chunk), -1))
        return out.reshape(M.shape[:-2] + (len(reps),))

    def bruhat_labels(self) -> List[WeylElement]:
        """The Weyl element of the cell of every coset."""
        return self._bruhat


# -- Bruhat-cell decomposition of a simple-reflection conjugate --------------


def decompose_simple_conjugate(group: MatrixGroup, i: int, c: int) -> int:
    """Split s_i u s_i^{-1} (u a nonzero simple root element) as x * s_i * t * y
    with x, y in the simple root subgroup and t in the torus.

    Everything happens in the SL_2 embedded along alpha_i.  Only the
    x-parameter, -1/c, is returned: the case identities downstream consume
    it; the decomposition itself is asserted here.
    """
    if c == 0:
        raise ValueError("needs a nonzero root-subgroup parameter")
    F = group.field
    pos = group.datum.simple_indices[i]
    s = group.simple_rep(i)
    lhs = group.mul(s, group.root_element(pos, c), group.inv(s))
    f_param = F.neg(F.inv(c))
    x = group.root_element(pos, f_param)
    y = group.root_element(pos, f_param)
    t = group.mul(group.inv(s), group.inv(x), lhs, group.inv(y))
    assert group.is_diagonal(t), "torus part of the decomposition is not diagonal"
    assert np.array_equal(group.mul(x, s, t, y), lhs)
    return f_param


# -- structure sweeps --------------------------------------------------------


def _sweep_cases(count: int, cap: int, samples: int, rng) -> Tuple[np.ndarray, str]:
    """The indices of all `count` cases with mode "exhaustive", or of
    `samples` of them drawn, with the generator `rng()`, when there are more
    than both `cap` and `samples`."""
    if count <= max(cap, samples):
        return np.arange(count), "exhaustive"
    return rng().choice(count, size=samples, replace=False), "sampled"


def _all_coeffs(F: Field, k: int) -> np.ndarray:
    """Every coefficient vector over F of length k, (q^k, k), the last
    coordinate varying fastest."""
    return np.array(list(itertools.product(F.elements(), repeat=k)), dtype=np.intp).reshape(F.order**k, k)


def _equal(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix-wise equality of two stacks (..., n, n)."""
    return np.all(A == B, axis=(-2, -1))


def check_structure_facts(group: MatrixGroup, cap: int = 20_000, samples: int = 1000, seed: int = 0):
    """Exact sweeps of the basic structure of the group: root-subgroup
    homomorphisms, torus normalization with the right character, Weyl
    conjugation between root subgroups, unique factored form of the
    unipotent radical and its w-split, and commutator relations with
    structure constants solved from the data.

    The root-homomorphism sweep is exhaustive: it checks every root
    element and every sum of two, so additivity is never sampled.
    `_sweep_cases` draws the cases of every other sweep: a sweep with no
    more than max(cap, draws) cases is exhaustive, a larger one draws
    `draws` distinct cases with one seeded generator that the sweeps share,
    made on the first draw, so a run of exhaustive sweeps never imports
    numpy.random.  `draws` is `samples` for the torus and Weyl sweeps and
    the factored form of U, samples // |W| for each w-split, and
    samples // pairs for each commutator pair of positive roots, whose cap
    is cap // pairs.  Each sweep then builds only the matrices of the cases
    it drew, as one stack (`root_elements`, `torus_elements`, `from_words`),
    multiplies the stacks with `mat_mul` and inverts them with `mat_inv`,
    and reads the failures off the compared stacks in case order.  The
    commutator sweep makes one pass per pair of positive roots: it builds
    the pair's commutators as one stack from one table of inverted root
    elements, tries every candidate constant tuple on the pair's first case
    only, then only the tuples that pass it on all the pair's cases.  No
    stack spans two pairs, and each grows with the cases drawn, not with
    p^combos times the cases.

    Returns {fact: {"checked", "vacuous", "failures", "mode", "notes"}}.
    """

    @cache
    def rng():
        return np.random.default_rng(seed)

    datum, F, n = group.datum, group.field, group.n
    ADD, MUL, _, _ = F.tables()
    R = group.root_elements()  # R[ri, c] = x_ri(c)
    n_roots, q = R.shape[:2]
    units = np.array(F.units())
    report = {}

    def entry(checked=0, vacuous=0, failures=None, mode="exhaustive", notes=None):
        return {
            "checked": checked,
            "vacuous": vacuous,
            "failures": failures if failures is not None else [],
            "mode": mode,
            "notes": notes or {},
        }

    # (a) each root map is an injective homomorphism into the group
    e = entry()
    member = group.in_group(R)
    additive = _equal(mat_mul(F, R[:, :, None], R[:, None, :]), R[:, ADD])
    for ri in range(n_roots):
        e["checked"] += q + q * q
        e["failures"] += [("membership", ri, int(c)) for c in np.flatnonzero(~member[ri])]
        e["failures"] += [("additivity", ri, int(c1), int(c2)) for c1, c2 in np.argwhere(~additive[ri])]
        if len(set(_keys(R[ri]))) != F.order:
            e["failures"].append(("injectivity", ri))
    report["root-homomorphism"] = e

    # (b) torus normalizes each root subgroup, scaling by the root character
    e = entry()
    rank = datum.rank
    idx, e["mode"] = _sweep_cases(len(units)**rank * n_roots * len(units), cap, samples, rng)
    ti, ri, ci = np.unravel_index(idx, (len(units)**rank, n_roots, len(units)))
    drawn, ti = np.unique(ti, return_inverse=True)  # only the drawn torus elements are built
    torus = group.torus_elements(units[np.stack(np.unravel_index(drawn, (len(units),) * rank), axis=-1)])
    c = units[ci]
    lhs = mat_mul(F, mat_mul(F, torus[ti], R[ri, c]), mat_inv(F, torus)[ti])
    character = np.stack([group.root_character(r, torus) for r in range(n_roots)])
    ok = _equal(lhs, R[ri, MUL[character[ri, ti], c]])
    e["checked"] = len(idx)
    e["failures"] = [("torus", int(r), int(x)) for r, x in zip(ri[~ok], c[~ok])]
    report["torus-action"] = e

    # (c) Weyl conjugation maps the root subgroup of alpha onto that of w(alpha)
    e = entry()
    W = datum.elements
    wds = np.stack([group.weyl_rep(w) for w in W])
    idx, e["mode"] = _sweep_cases(len(W) * n_roots * len(units), cap, samples, rng)
    wi, ri, ci = np.unravel_index(idx, (len(W), n_roots, len(units)))
    c = units[ci]
    M = mat_mul(F, mat_mul(F, wds[wi], R[ri, c]), mat_inv(F, wds)[wi])
    target = np.array([w.perm for w in W])[wi, ri]
    subgroups = [set(_keys(R[r])) for r in range(n_roots)]
    e["checked"] = len(idx)
    e["failures"] = [
        ("weyl-conjugation", W[w].word, int(r), int(x))
        for w, r, x, t, key in zip(wi, ri, c, target, _keys(M))
        if key not in subgroups[t]
    ]
    report["weyl-conjugation"] = e

    # (d) unique factored form of U and the w-split U = U_w x U'_w: each root
    # order's products are distinct, the coefficients read as base-q digits
    # of the case index (`_all_coeffs` order); left x right of a w-split is
    # the word over phi_w + phi_c
    e = entry()
    orders = [(None, datum.phi_minus(datum.longest_element(range(datum.rank))), samples)]
    for w in W:
        phi_w = datum.phi_minus(w)
        # the complementary piece: positive roots kept positive by w, tallest first
        phi_c = [r for r in datum.positive_indices if r not in set(phi_w)]
        phi_c.sort(key=lambda r: (-sum(datum.roots[r]), datum.roots[r]))
        orders.append((w, phi_w + phi_c, max(1, samples // len(W))))
    for w, order, draws in orders:
        idx, mode = _sweep_cases(q ** len(order), cap, draws, rng)
        coeffs = np.stack(np.unravel_index(idx, (q,) * len(order)), axis=-1)
        distinct = len(set(_keys(group.from_words(order, coeffs))))
        e["checked"] += len(idx)
        if mode == "sampled":
            e["mode"] = mode
        if distinct != len(idx):
            e["failures"].append(("factored-form-collision", distinct) if w is None else ("split-collision", w.word, distinct))
    report["unipotent-factorization"] = e

    # (e) commutator relations with structure constants solved from the data,
    # not presumed: one pass per pair
    e = entry()
    constants = {}
    pairs = [(a, b) for a in datum.positive_indices for b in datum.positive_indices if a != b]
    if not pairs:
        e["vacuous"] += 1
        e["notes"]["vacuous"] = "rank 1: no distinct positive root pairs"
    R_inv = mat_inv(F, R[:, 1:])  # R_inv[ri, c - 1] = x_ri(c)^-1
    for a, b in pairs:
        ra, rb = datum.roots[a], datum.roots[b]
        combos = []
        for m in range(1, 4):
            for nn in range(1, 4):
                target = tuple(m * x + nn * y for x, y in zip(ra, rb))
                if target in datum.root_index:
                    combos.append((m, nn, datum.root_index[target]))
        combos.sort(key=lambda t: (t[0] + t[1], t[0]))
        # the value cases (x, y) over units x units, y varying fastest
        idx, mode = _sweep_cases(len(units)**2, cap // len(pairs), max(1, samples // len(pairs)), rng)
        if mode == "sampled":
            e["mode"] = mode
        x, y = units[idx // len(units)], units[idx % len(units)]
        lhs = mat_mul(F, mat_mul(F, mat_mul(F, R_inv[a, x - 1], R_inv[b, y - 1]), R[a, x]), R[b, y])
        x_pow, y_pow = [None, x, MUL[x, x], MUL[MUL[x, x], x]], [None, y, MUL[y, y], MUL[MUL[y, y], y]]

        def holds(cands, k):
            """Whether the product over combos with each constant tuple of
            cands equals the commutator on each case of the slice k, as one
            (tuples, cases) stack."""
            rhs = np.broadcast_to(group.identity(), (len(cands), 1, n, n))
            for j, (m, nn, rc) in enumerate(combos):
                rhs = mat_mul(F, rhs, R[rc, MUL[MUL[cands[:, j, None], x_pow[m][k]], y_pow[nn][k]]])
            return _equal(rhs, lhs[k])

        # every candidate constant tuple on the first case, then only the
        # tuples that pass it (the survivors) on all the cases
        cands = np.array(list(itertools.product(range(F.p), repeat=len(combos))), dtype=np.intp)
        survivors = cands[holds(cands, slice(0, 1))[:, 0]]
        # a tuple survives case k if it matches on cases 0..k
        alive = np.logical_and.accumulate(holds(survivors, slice(None)), axis=1)
        dead = np.flatnonzero(~alive.any(axis=0))  # cases left with no survivor
        if len(dead):
            e["checked"] += int(dead[0]) + 1
            e["failures"].append(("commutator", ra, rb, int(x[dead[0]]), int(y[dead[0]])))
        else:
            e["checked"] += len(idx)
            constants["%s,%s" % (ra, rb)] = tuple(int(v) for v in survivors[int(np.argmax(alive[:, -1]))])
    e["notes"]["constants"] = constants
    report["commutator-relations"] = e

    return report

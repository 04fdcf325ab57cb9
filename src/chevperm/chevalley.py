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
Borel for this Gram matrix.  The enumeration cross-checks the orbit count
against the q-power sum over Weyl-group lengths, which would catch any
failure of this argument.

Forms are computed on stacks (N, n, n) of matrices in one numpy pass: the
loops run over the n columns and their earlier pivots, never over N, and a
single matrix is a stack of one.  `mat_mul` multiplies stacks the same way.

Only G/B is enumerated.  The cosets of a standard parabolic P_K are blocks
of Borel cosets, and their module is built from the Borel permutations
(`permmod.LevelModule.parabolic`).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .gf import Field, factor_prime_power, make_field
from .rootsys import RootDatum, WeylElement, root_datum

__all__ = [
    "BudgetError",
    "MatrixGroup",
    "FlagIndex",
    "matrix_group",
    "unipotent_words",
    "check_structure_facts",
    "decompose_simple_conjugate",
]

MATRIX_KINDS = {"A1": ("SL", 2), "A2": ("SL", 3), "A3": ("SL", 4), "B2": ("Sp", 4)}


class BudgetError(RuntimeError):
    """An enumeration or search would exceed its configured budget."""


# -- dense-table matrix arithmetic ------------------------------------------


def mat_mul(field: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A*B for stacks (..., n, k) and (..., k, m), broadcast over the leading
    axes: one MUL gather, then k-1 ADD gathers."""
    ADD, MUL, _, _ = field.tables()
    prod = MUL[A[..., :, :, None], B[..., None, :, :]]
    acc = prod[..., 0, :]
    for k in range(1, A.shape[-1]):
        acc = ADD[acc, prod[..., k, :]]
    return acc


def mat_inv(field: Field, A: np.ndarray) -> np.ndarray:
    ADD, MUL, NEG, INV = field.tables()
    n = A.shape[0]
    M = np.concatenate([A.copy(), identity_matrix(field, n)], axis=1)
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r, col])
        if piv != col:
            M[[col, piv]] = M[[piv, col]]
        M[col] = MUL[INV[M[col, col]], M[col]]
        for r in range(n):
            if r != col and M[r, col]:
                M[r] = ADD[M[r], MUL[NEG[M[r, col]], M[col]]]
    return np.ascontiguousarray(M[:, n:])


def identity_matrix(field: Field, n: int) -> np.ndarray:
    M = np.zeros((n, n), dtype=np.uint8)
    np.fill_diagonal(M, 1)
    return M


def mat_det(field: Field, A: np.ndarray) -> int:
    ADD, MUL, NEG, INV = field.tables()
    M = A.copy()
    n = A.shape[0]
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r, col]), None)
        if piv is None:
            return 0
        if piv != col:
            M[[col, piv]] = M[[piv, col]]
            det = NEG[det]
        det = MUL[det, M[col, col]]
        inv = INV[M[col, col]]
        for r in range(col + 1, n):
            if M[r, col]:
                M[r] = ADD[M[r], MUL[NEG[MUL[M[r, col], inv]], M[col]]]
    return int(det)


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
        M = identity_matrix(self.field, self.n)
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

    def from_word(self, word: Iterable[Tuple[int, int]]) -> np.ndarray:
        out = identity_matrix(self.field, self.n)
        for root_index, c in word:
            out = mat_mul(self.field, out, self.root_element(root_index, c))
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

    def coroot_element(self, i: int, c: int) -> np.ndarray:
        """Image of diag(c, 1/c) under the SL_2 embedded along alpha_i."""
        return self.from_word(coroot_word(self, i, c))

    def torus_matrix(self, params: Sequence[int]) -> np.ndarray:
        out = identity_matrix(self.field, self.n)
        for i, c in enumerate(params):
            out = mat_mul(self.field, out, self.coroot_element(i, c))
        return out

    def torus_elements(self) -> List[np.ndarray]:
        return [
            self.torus_matrix(params)
            for params in itertools.product(self.field.units(), repeat=self.datum.rank)
        ]

    def root_character(self, root_index: int, diag: np.ndarray) -> int:
        """alpha(t) for a diagonal torus matrix t."""
        eu = self._euclidean[root_index]
        out = 1
        for m, e in enumerate(eu):
            d = int(diag[m, m])
            out = self.field.mul(out, self.field.pow(d if e >= 0 else self.field.inv(d), abs(e)))
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
        return identity_matrix(self.field, self.n)

    def in_group(self, M: np.ndarray) -> bool:
        if self.family == "SL":
            return mat_det(self.field, M) == 1
        return bool(np.array_equal(mat_mul(self.field, M.T.copy(), mat_mul(self.field, self.gram, M)), self.gram))

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


def unipotent_words(group: MatrixGroup, w: WeylElement) -> List[Tuple[Tuple[int, int], ...]]:
    """All members of the unipotent piece attached to w, as root-element words.

    Factors run over the positive roots sent negative by w, tallest first;
    coefficients run over the whole field with the last factor varying
    fastest.  The factored form is unique, so the list has q**length
    entries, all distinct as group elements.
    """
    phi = group.datum.phi_minus(w)
    out = []
    for coeffs in itertools.product(group.field.elements(), repeat=len(phi)):
        out.append(tuple(zip(phi, coeffs)))
    return out


# -- flag-variety index ------------------------------------------------------


def _keys(forms: np.ndarray) -> List[bytes]:
    """`tobytes()` of each matrix of a stack (N, n, n)."""
    flat = np.ascontiguousarray(forms).reshape(len(forms), forms.shape[1] * forms.shape[2])
    return flat.view(np.dtype((np.void, flat.shape[1]))).ravel().tolist()


class FlagIndex:
    """All cosets of the Borel subgroup, indexed 0..N-1 with deterministic
    BFS order."""

    K = frozenset()  # the benchmark's tracer (perfbench/tracing.py) tags spans by obj.K

    def __init__(self, group: MatrixGroup, budget: int = 200_000):
        self.group = group
        datum = group.datum
        predicted = datum.poincare_sum((), group.field.order)
        if predicted > budget:
            raise BudgetError(
                "coset space of size %d exceeds budget %d" % (predicted, budget)
            )
        # each Bruhat cell, keyed by the pivot rows of its Borel echelon
        # forms: its Weyl element w and the entries of w's representative at
        # those pivots
        wds = np.stack([group.weyl_rep(w) for w in datum.elements])
        pivots = group.borel_canonical(wds)[1]
        self._cells: Dict[Tuple[int, ...], Tuple[WeylElement, np.ndarray]] = {
            tuple(piv.tolist()): (w, wd[piv, range(group.n)])
            for w, wd, piv in zip(datum.elements, wds, pivots)
        }
        assert len(self._cells) == len(datum.elements)
        self._index: Dict[bytes, int] = {}  # canonical form -> coset index
        self._bruhat: Optional[List[WeylElement]] = None
        self.reps = self._build(predicted)  # (N, n, n): a group element in each coset

    def _build(self, predicted: int) -> np.ndarray:
        """Breadth-first enumeration, one frontier at a time: every queued
        coset times every generator in one batch, the new forms numbered in
        base-major, generator-minor order."""
        datum, group, n = self.group.datum, self.group, self.group.n
        gens = []
        for i in range(datum.rank):
            pos = datum.simple_indices[i]
            for root in (pos, pos + datum.n_pos):
                for b in group.field.fp_basis():
                    gens.append(group.root_element(root, b))
        gens = np.stack(gens)
        _, MUL, _, _ = group.field.tables()

        def visit(M):
            forms, pivots = group.borel_canonical(M)
            new = []
            for t, key in enumerate(_keys(forms)):
                if key not in self._index:
                    self._index[key] = len(self._index)
                    new.append(t)
            # a form is u*P_w, u upper unitriangular: column-scaled, so at
            # odd q it can lie outside Sp_4.  Scaling each column by the
            # entry of w's representative at its pivot gives u*w, a group
            # element as sparse as the form.
            signs = [self._cells[piv][1] for piv in map(tuple, pivots[new].tolist())]
            return MUL[forms[new], np.array(signs, dtype=np.uint8).reshape(len(new), 1, n)]

        frontier = visit(group.identity()[None])
        levels = [frontier]
        while len(frontier):
            frontier = visit(mat_mul(group.field, gens, frontier[:, None]).reshape(-1, n, n))
            levels.append(frontier)
        reps = np.concatenate(levels)
        assert len(reps) == predicted, (len(reps), predicted)
        return reps

    def __len__(self) -> int:
        return len(self.reps)

    def index_of(self, M: np.ndarray) -> int:
        # keyed in the dtype of the representatives, whatever the input's
        return self._index[self.group.borel_canonical(M)[0].astype(self.reps.dtype).tobytes()]

    def perm_of(self, M: np.ndarray) -> np.ndarray:
        # a KeyError here is an image outside the enumerated cosets
        forms = self.group.borel_canonical(mat_mul(self.group.field, M, self.reps))[0]
        return np.array([self._index[k] for k in _keys(forms)], dtype=np.int64)

    def bruhat_labels(self) -> List[WeylElement]:
        """The Weyl stratum of every point."""
        if self._bruhat is None:
            pivots = self.group.borel_canonical(self.reps)[1]
            self._bruhat = [self._cells[piv][0] for piv in map(tuple, pivots.tolist())]
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


def _match_root_element(group: MatrixGroup, root_index: int, M: np.ndarray) -> Optional[int]:
    for c in group.field.elements():
        if np.array_equal(group.root_element(root_index, c), M):
            return c
    return None


def _sweep_cases(cases: list, cap: int, samples: int, rng) -> Tuple[list, str]:
    """All the cases with mode "exhaustive", or `samples` of them drawn
    when there are more than both `cap` and `samples`."""
    if len(cases) <= max(cap, samples):
        return cases, "exhaustive"
    idx = rng.choice(len(cases), size=samples, replace=False)
    return [cases[int(k)] for k in idx], "sampled"


def check_structure_facts(group: MatrixGroup, cap: int = 20_000, samples: int = 1000, seed: int = 0):
    """Exact sweeps of the basic structure of the group: root-subgroup
    homomorphisms, torus normalization with the right character, Weyl
    conjugation between root subgroups, unique factored form of the
    unipotent radical and its w-split, and commutator relations with
    structure constants solved from the data.  Sweeps whose index set
    exceeds `cap` are sampled (`samples` cases) with a seeded generator;
    the torus and Weyl sweeps stay exhaustive when they have no more than
    `samples` cases.

    Returns {fact: {"checked", "vacuous", "failures", "mode", "notes"}}.
    """
    rng = np.random.default_rng(seed)
    datum, F = group.datum, group.field
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
    for ri in range(len(datum.roots)):
        seen = set()
        for c in F.elements():
            M = group.root_element(ri, c)
            seen.add(M.tobytes())
            e["checked"] += 1
            if not group.in_group(M):
                e["failures"].append(("membership", ri, c))
        for c1 in F.elements():
            for c2 in F.elements():
                e["checked"] += 1
                lhs = group.mul(group.root_element(ri, c1), group.root_element(ri, c2))
                if not np.array_equal(lhs, group.root_element(ri, F.add(c1, c2))):
                    e["failures"].append(("additivity", ri, c1, c2))
        if len(seen) != F.order:
            e["failures"].append(("injectivity", ri))
    report["root-homomorphism"] = e

    # (b) torus normalizes each root subgroup, scaling by the root character
    e = entry()
    torus = group.torus_elements()
    cases, e["mode"] = _sweep_cases([
        (t, ri, c)
        for t in torus
        for ri in range(len(datum.roots))
        for c in F.units()
    ], cap, samples, rng)
    for t, ri, c in cases:
        e["checked"] += 1
        lhs = group.mul(t, group.root_element(ri, c), group.inv(t))
        want = group.root_element(ri, F.mul(group.root_character(ri, t), c))
        if not np.array_equal(lhs, want):
            e["failures"].append(("torus", ri, c))
    report["torus-action"] = e

    # (c) Weyl conjugation maps the root subgroup of alpha onto that of w(alpha)
    e = entry()
    cases, e["mode"] = _sweep_cases([
        (w, ri, c)
        for w in datum.elements
        for ri in range(len(datum.roots))
        for c in F.units()
    ], cap, samples, rng)
    for w, ri, c in cases:
        e["checked"] += 1
        wd = group.weyl_rep(w)
        M = group.mul(wd, group.root_element(ri, c), group.inv(wd))
        if _match_root_element(group, w.perm[ri], M) is None:
            e["failures"].append(("weyl-conjugation", w.word, ri, c))
    report["weyl-conjugation"] = e

    # (d) unique factored form of U and the w-split U = U_w x U'_w
    e = entry()
    w0 = datum.longest_element(range(datum.rank))
    size_u = F.order**datum.n_pos
    if size_u <= cap:
        words = unipotent_words(group, w0)
        seen = {group.from_word(wd).tobytes() for wd in words}
        e["checked"] += len(words)
        if len(seen) != size_u:
            e["failures"].append(("factored-form-collision", len(seen)))
    else:
        e["mode"] = "sampled"
        seen = {}
        phi = datum.phi_minus(w0)
        for _ in range(samples):
            coeffs = tuple(int(x) for x in rng.integers(F.order, size=len(phi)))
            key = group.from_word(tuple(zip(phi, coeffs))).tobytes()
            e["checked"] += 1
            if seen.setdefault(key, coeffs) != coeffs:
                e["failures"].append(("factored-form-collision", coeffs))
    for w in datum.elements:
        phi_w = datum.phi_minus(w)
        # the complementary piece: positive roots kept positive by w, tallest first
        phi_c = [r for r in datum.positive_indices if r not in set(phi_w)]
        phi_c.sort(key=lambda r: (-sum(datum.roots[r]), datum.roots[r]))
        size = F.order ** len(phi_w) * F.order ** len(phi_c)
        if size <= cap:
            rights = [
                group.from_word(tuple(zip(phi_c, cv)))
                for cv in itertools.product(F.elements(), repeat=len(phi_c))
            ]
            lefts = unipotent_words(group, w)
            prods = set()
            for w1 in lefts:
                left = group.from_word(w1)
                for right in rights:
                    prods.add(group.mul(left, right).tobytes())
            e["checked"] += len(lefts) * len(rights)
            if len(prods) != size:
                e["failures"].append(("split-collision", w.word, len(prods)))
        else:
            e["mode"] = "sampled"
            pairs: Dict[bytes, tuple] = {}
            for _ in range(max(1, samples // len(datum.elements))):
                cu = tuple(int(x) for x in rng.integers(F.order, size=len(phi_w)))
                cv = tuple(int(x) for x in rng.integers(F.order, size=len(phi_c)))
                left = group.from_word(tuple(zip(phi_w, cu)))
                right = group.from_word(tuple(zip(phi_c, cv)))
                key = group.mul(left, right).tobytes()
                e["checked"] += 1
                if pairs.setdefault(key, (cu, cv)) != (cu, cv):
                    e["failures"].append(("split-collision", w.word, (cu, cv)))
    report["unipotent-factorization"] = e

    # (e) commutator relations with solved structure constants
    e = entry()
    constants = {}
    pairs = [
        (a, b)
        for a in datum.positive_indices
        for b in datum.positive_indices
        if a != b
    ]
    if not pairs:
        e["vacuous"] += 1
        e["notes"]["vacuous"] = "rank 1: no distinct positive root pairs"
    for a, b in pairs:
        ra, rb = datum.roots[a], datum.roots[b]
        combos = []
        for m in range(1, 4):
            for nn in range(1, 4):
                target = tuple(m * x + nn * y for x, y in zip(ra, rb))
                if target in datum.root_index:
                    combos.append((m, nn, datum.root_index[target]))
        combos.sort(key=lambda t: (t[0] + t[1], t[0]))
        value_cases = [(x, y) for x in F.units() for y in F.units()]
        mode_pair = "exhaustive"
        if len(pairs) * len(value_cases) > cap:
            mode_pair = "sampled"
            take = max(1, samples // len(pairs))
            idx = rng.choice(len(value_cases), size=min(take, len(value_cases)), replace=False)
            value_cases = [value_cases[int(k)] for k in idx]
            e["mode"] = "sampled"

        def commutator(x, y):
            Ma = group.root_element(a, x)
            Mb = group.root_element(b, y)
            return group.mul(group.inv(Ma), group.inv(Mb), Ma, Mb)

        # keep every constant tuple consistent with all swept values; the
        # constants are recorded from the data, not presumed
        def rhs_for(cand, x, y):
            out = group.identity()
            for (m, nn, rc), cv in zip(combos, cand):
                coeff = F.mul(F.mul(cv, F.pow(x, m)), F.pow(y, nn))
                out = group.mul(out, group.root_element(rc, coeff))
            return out

        survivors = list(itertools.product(range(F.p), repeat=len(combos)))
        for x, y in value_cases:
            e["checked"] += 1
            lhs = commutator(x, y)
            survivors = [cand for cand in survivors if np.array_equal(lhs, rhs_for(cand, x, y))]
            if not survivors:
                e["failures"].append(("commutator", datum.roots[a], datum.roots[b], x, y))
                break
        if survivors:
            constants["%s,%s" % (ra, rb)] = survivors[0]
    e["notes"]["constants"] = constants
    report["commutator-relations"] = e

    return report

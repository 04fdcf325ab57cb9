"""Permutation modules on flag varieties and their verification suites.

A SuiteRunner is one configuration: a group type, a prime power q (the
module lives over GF(q)), a second level b (2 by default, b = 1 for none:
the two-level operator suites work in GF(q) inside GF(q^b)), a
coefficient characteristic, and the coset budget, seed and sample count of
a run.  It checks every value once, when it is built, and builds the
LevelModule at each level on first use.  A LevelModule materialises, on top
of the coset enumeration:

  * the coset permutation module with labelled root-element actions,
  * the Weyl translates the paper's bases are made of, on any handle:
    signed sums over W_J (`signed_sum`), blocks of translates by a
    unipotent piece (`translates`) and the translates by Y_J (`y_translates`),
  * the alternating Weyl sums over a subset J of simple reflections and
    the submodule lattice they generate, with its subquotients,
  * parabolic coset modules k[G/P_K] and the corresponding alternating
    sums; a coset of P_K is a block of cosets of B, the fibre of
    G/B -> G/P_K, so these modules are built from the Borel permutations,
  * the U-fixed space of each k[G/P_K], spanned by the U-orbit sums,
  * unipotent subgroup sums applied to vectors, at one field level or
    mixed across two levels, plus coset-transversal sums between levels;
    each is a chain of root-subgroup sums, each of those a sum of coset
    permutations, so no operator is formed as a matrix,
  * candidate socle generators built from longest-element factorizations.

Every suite takes the runner and a seed and returns a SuiteReport of exact
checks: the per-case identities are vector equalities over GF(l) with zero
tolerance.  Suites whose arguments only make sense in defining
characteristic (the coefficient prime equal to the matrix-entry
characteristic) declare that and are skipped or refused elsewhere.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import chevalley
from .chevalley import (
    FlagIndex,
    MatrixGroup,
    check_structure_facts,
    coroot_word,
    decompose_simple_conjugate,
    matrix_group,
    simple_reflection_word,
    weyl_word,
)
from .gf import MAX_ORDER, additive_transversal, embedding_table, factor_prime_power, is_prime
from .linrep import (
    ModuleHandle,
    Subspace,
    TriangularBasis,
    composition_series,
    fixed_space,
    fixed_vector,
    meataxe_irreducible,
    restrict,
    socle_simple_check,
    spin,
)
from .report import SuiteReport
from .rootsys import RootDatum, WeylElement, check_reflection_transfer, check_stability_separation, root_datum

__all__ = [
    "LevelModule",
    "FiltrationPiece",
    "SUITES",
    "SuiteRunner",
    "subset_tag",
    "parse_subset",
]


def subset_tag(J: Iterable[int]) -> str:
    """Display form of a set of simple indices, 1-based: {0,2} -> "13"; the
    empty set prints as "-"."""
    return "".join(str(i + 1) for i in sorted(J)) or "-"


def parse_subset(text: str, rank: int) -> FrozenSet[int]:
    """Inverse of subset_tag; accepts 1-based digit strings like "12"."""
    if text in ("", "-"):
        return frozenset()
    out = set()
    for ch in text:
        if not ch.isdigit() or not (1 <= int(ch) <= rank):
            raise ValueError("bad simple-reflection index %r (rank %d)" % (ch, rank))
        out.add(int(ch) - 1)
    return frozenset(out)


def word_tag(w: WeylElement) -> str:
    return " ".join("s%d" % (i + 1) for i in w.word) if w.word else "e"


# -- one field level ----------------------------------------------------------


@dataclass
class FiltrationPiece:
    J: FrozenSet[int]
    sub_dim: int                # dimension of M_J, the submodule generated by the alternating sum
    handle: ModuleHandle        # the subquotient as a module over the spin labels only
    inverse_t: np.ndarray       # (T^-1)^T, shared by the pieces
    outside: List[slice]        # the rows of T outside M_J, as runs of whole blocks
    own: slice                  # the rows of T in block J, a basis of the subquotient
    C: Optional[np.ndarray] = None  # image of the alternating sum, set by `filtration`
    _series: Optional[List[int]] = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.handle.dim

    def coords(self, x: np.ndarray, rows: slice) -> np.ndarray:
        """The coordinates of x T^-1 at the given rows of T: (T^-1)^T x,
        reading only those rows of (T^-1)^T."""
        return (self.inverse_t[rows] @ x.T).T % self.handle.l

    def contains(self, x: np.ndarray) -> bool:  # is the vector (every row of the block) in M_J?
        return not any(self.coords(x, rows).any() for rows in self.outside)

    def project(self, x: np.ndarray) -> np.ndarray:  # the vector (each row), asserted in M_J, in block J's basis
        assert self.contains(x), "vector outside the subspace"
        return self.coords(x, self.own)

    def composition_series(self, seed: int) -> List[int]:
        """The subquotient's sorted composition factor dimensions, computed
        once, with the seed of the first caller: by Jordan-Holder the
        multiset does not depend on the seed."""
        if self._series is None:
            self._series = composition_series(self.handle, seed=seed)
        return self._series


class LevelModule:
    """The coset permutation module of one group over one finite field.

    Labels of the form ("r", root_index, c) act by the precomputed coset
    permutations of the root elements; everything else (Weyl
    representatives, torus elements, subgroup sums) is expressed through
    them.  Operators act on vectors: a subgroup sum applied to v is a chain
    of root sums, each a sum of permutation gathers of v.  The actions
    read each row of a block as a vector, so passing the identity matrix as
    v returns the operator's transpose.
    """

    def __init__(self, kind: str, order: int, ell: int, budget: int = 200_000):
        self.group: MatrixGroup = matrix_group(kind, order)
        self.datum: RootDatum = self.group.datum
        self.field = self.group.field
        self.ell = ell
        self.flags = FlagIndex(self.group, budget=budget)
        self.dim = len(self.flags)
        self.handle = self._build_handle()
        self._parabolic_handles: Dict[FrozenSet[int], ModuleHandle] = {frozenset(): self.handle}
        self._filtration: Optional[Dict[FrozenSet[int], FiltrationPiece]] = None
        self._fixed_spaces: Dict[FrozenSet[int], Subspace] = {}

    def _build_handle(self) -> ModuleHandle:
        handle = ModuleHandle(self.dim, self.ell, [])
        perms = self.flags.perm_of(self.group.root_elements()[:, 1:])  # every root, every c != 0
        for ri in range(len(self.datum.roots)):
            for c in self.field.units():
                handle.add_perm(("r", ri, c), perms[ri, c - 1])
        for si in self.datum.simple_indices:
            for ri in (si, si + self.datum.n_pos):
                for c in self.field.fp_basis():
                    handle.spin_labels.append(("r", ri, c))
        return handle

    # -- words and vectors

    def act(self, word: Sequence[Tuple[int, int]], v: np.ndarray, handle: Optional[ModuleHandle] = None) -> np.ndarray:
        """The word's root elements x_ri(c) applied to v, rightmost first."""
        handle = handle or self.handle
        for ri, c in reversed(word):
            if c:
                v = handle.images(("r", ri, c), v)
        return v

    def act_weyl(self, w: WeylElement, v: np.ndarray, handle: Optional[ModuleHandle] = None) -> np.ndarray:
        return self.act(weyl_word(self.group, w), v, handle)

    def unit(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.int64)
        v[0] = 1
        return v

    def sign(self, w: WeylElement) -> int:
        return 1 if w.length % 2 == 0 else self.ell - 1

    def values(self) -> List[int]:
        return list(self.field.elements())

    def alternating_sum(self, J: Iterable[int]) -> np.ndarray:
        """Signed sum of Weyl translates of the base coset over W_J."""
        return self.signed_sum(J, self.unit())

    # -- Weyl translates: the vectors the paper's bases are made of

    def signed_sum(self, J: Iterable[int], v: np.ndarray, handle: Optional[ModuleHandle] = None) -> np.ndarray:
        """The signed sum over W_J of the Weyl translates of v."""
        out = np.zeros_like(v)
        for w in self.datum.subgroup_elements(J):
            out = (out + self.sign(w) * self.act_weyl(w, v, handle)) % self.ell
        return out

    def translates(self, w: WeylElement, v: np.ndarray, handle: Optional[ModuleHandle] = None) -> np.ndarray:
        """The block of rows u.v, one per member u of the unipotent piece
        attached to w: the collected counterpart of u_sum.  It is built one
        root subgroup at a time, innermost factor first, each step stacking
        the block with its images under the nonzero elements of that root
        subgroup, so the rows come in the order of FlagIndex's cells: the
        last root's coefficient varies fastest."""
        handle = handle or self.handle
        block = np.asarray(v, dtype=np.int64).reshape(1, -1)
        for ri in reversed(self.datum.phi_minus(w)):
            block = np.vstack([block] + [handle.images(("r", ri, c), block) for c in self.field.units()])
        return block

    def y_translates(self, J: Iterable[int], v: np.ndarray,
                     handle: Optional[ModuleHandle] = None) -> List[Tuple[WeylElement, WeylElement, np.ndarray]]:
        """(w, w_J w^-1, the Weyl translate of v by w) for each w in Y_J: the
        translate and the element whose unipotent piece spans its orbit."""
        wJ = self.datum.longest_element(J)
        return [(w, wJ * w.inverse(), self.act_weyl(w, v, handle)) for w in self.datum.y_set(J)]

    # -- operators, applied to vectors

    def root_sum(self, root_index: int, values: Sequence[int], v: np.ndarray,
                 handle: Optional[ModuleHandle] = None) -> np.ndarray:
        """Sum over the values c of the root element x_root(c) applied to v;
        c = 0 is the identity."""
        handle = handle or self.handle
        out = np.zeros_like(v)
        for c in values:
            out += v if c == 0 else handle.images(("r", root_index, c), v)
        return out % self.ell

    def root_chain(self, roots: Sequence[int], values: Sequence[int], v: np.ndarray,
                   handle: Optional[ModuleHandle] = None) -> np.ndarray:
        """The product of the root sums over `roots`, leftmost factor
        outermost, applied to v."""
        for ri in reversed(roots):
            v = self.root_sum(ri, values, v, handle)
        return v

    def u_sum(self, w: WeylElement, values: Sequence[int], v: np.ndarray,
              handle: Optional[ModuleHandle] = None) -> np.ndarray:
        """Group sum of the unipotent piece attached to w, applied to v.

        The factorization over the inversion set (tallest roots first) hits
        every subgroup element exactly once, so the product of per-root sums
        is the subgroup sum regardless of the chosen order.
        """
        return self.root_chain(self.datum.phi_minus(w), values, v, handle)

    def theta(self, w_tail: WeylElement, d: int, hi_values: Sequence[int], lo_values: Sequence[int],
              v: np.ndarray) -> np.ndarray:
        """Mixed-level product over the inversion set of w_tail, heights
        descending, applied to v: the first d root sums use hi_values, the
        rest lo_values."""
        roots = self.datum.phi_minus(w_tail)
        if not 0 <= d <= len(roots):
            raise ValueError("split point %d outside 0..%d" % (d, len(roots)))
        return self.root_chain(roots[:d], hi_values, self.root_chain(roots[d:], lo_values, v))

    # -- distinguished vectors

    def _blocks(self, K: FrozenSet[int]) -> np.ndarray:
        """The coset of P_K holding each coset of B.  The base block is
        P_K/B, the cosets whose Bruhat label lies in W_K; the others are its
        translates, found breadth-first with the spin labels x_{+-a_i}(b),
        so the cosets of P_K are numbered as a breadth-first enumeration of
        G/P_K would number them, whatever the order of the Borel cosets."""
        W_K = {w.perm for w in self.datum.subgroup_elements(K)}
        base = np.array([x for x, w in enumerate(self.flags.bruhat_labels()) if w.perm in W_K])
        block = np.full(self.dim, -1, dtype=np.int64)
        block[base] = 0
        members = [base]
        for cosets in members:  # members grows inside the loop: a FIFO queue
            for label in self.handle.spin_labels:
                image = self.handle.perm(label)[cosets]
                if block[image[0]] < 0:
                    block[image] = len(members)
                    members.append(image)
        # with disjoint blocks of equal size, every coset lies in exactly one
        assert len(members) * len(base) == self.dim and block.min() >= 0
        return block

    def parabolic(self, K: Iterable[int]) -> ModuleHandle:
        """The coset module k[G/P_K] over every label of the Borel module.
        Each label's permutation of the blocks is read off its permutation
        of the Borel cosets, and is asserted to map every block onto one."""
        K = frozenset(K)
        if K not in self._parabolic_handles:
            block = self._blocks(K)
            handle = ModuleHandle(int(block.max()) + 1, self.ell, self.handle.spin_labels)
            for label in self.handle.actions:
                fwd = self.handle.perm(label)
                perm = np.empty(handle.dim, dtype=np.int64)
                perm[block] = block[fwd]
                assert np.array_equal(perm[block], block[fwd]), ("label does not permute the cosets of P_K", label)
                handle.add_perm(label, perm)
            self._parabolic_handles[K] = handle
        return self._parabolic_handles[K]

    def parabolic_alternating_sum(self, J: Iterable[int]) -> np.ndarray:
        """Signed W_J-sum over the base coset of the opposite-subset
        parabolic module (the module induced from the complement of J)."""
        handle = self.parabolic(frozenset(range(self.datum.rank)) - frozenset(J))
        return self.signed_sum(J, handle.basis_vector(0), handle)

    def _u_sum_translates(self, ws: Iterable[WeylElement]) -> np.ndarray:
        """The sum over w in ws of the u_sum of w^-1, over the whole field,
        applied to the Weyl translate of the base coset by w."""
        values = self.values()
        out = np.zeros(self.dim, dtype=np.int64)
        for w in ws:
            out = (out + self.u_sum(w.inverse(), values, self.act_weyl(w, self.unit()))) % self.ell
        return out

    def parabolic_invariant_vector(self, K: Iterable[int]) -> np.ndarray:
        """Sum over W_K of unipotent-sum translates of the base coset; the
        canonical parabolic-invariant vector of the coset module."""
        return self._u_sum_translates(self.datum.subgroup_elements(K))

    def socle_generator(self, J: Iterable[int]) -> np.ndarray:
        """Sum of unipotent-sum translates over the longest-element coset of
        W_J; the candidate generator of a simple submodule."""
        w0 = self.datum.longest_element(range(self.datum.rank))
        return self._u_sum_translates((w0 * v).inverse() for v in self.datum.subgroup_elements(J))

    def unipotent_labels(self) -> List[tuple]:
        """Generator labels for the full upper unipotent subgroup."""
        return [("r", ri, c) for ri in self.datum.positive_indices for c in self.field.fp_basis()]

    def unipotent_fixed_space(self, K: Iterable[int] = ()) -> Subspace:
        """The vectors of k[G/P_K] fixed by the upper unipotent subgroup U:
        the sums over U-orbits, which on G/B are the Bruhat cells."""
        K = frozenset(K)
        if K not in self._fixed_spaces:
            self._fixed_spaces[K] = fixed_space(self.parabolic(K), self.unipotent_labels())
        return self._fixed_spaces[K]

    def parabolic_test_words(self, K: Iterable[int]) -> List[Tuple[str, list]]:
        """Labelled generator words of the standard parabolic attached to K:
        the Borel part plus the negative simple root subgroups and
        reflections inside K."""
        K = sorted(set(K))
        words: List[Tuple[str, list]] = []
        for ri in self.datum.positive_indices:
            for c in self.field.fp_basis():
                words.append(("u+%d" % ri, [(ri, c)]))
        g = self.field.primitive_element()
        if g != 1:
            for i in range(self.datum.rank):
                words.append(("t%d" % (i + 1), coroot_word(self.group, i, g)))
        for i in K:
            neg = self.datum.simple_indices[i] + self.datum.n_pos
            for c in self.field.fp_basis():
                words.append(("u-s%d" % (i + 1), [(neg, c)]))
            words.append(("w-s%d" % (i + 1), simple_reflection_word(self.group, i)))
        return words

    # -- the submodule lattice of the alternating sums

    def filtration(self) -> Dict[FrozenSet[int], FiltrationPiece]:
        """The submodules M_J = kG.eta_J, eta_J the alternating sum over
        W_J, and the pieces M_J / M_{>J}, M_{>J} the sum of the M_K, K > J,
        read off one basis T of k[G/B], nothing spun or row-reduced.  Each
        eta_{J+i} is asserted to be the signed sum of the x.eta_J, x the
        minimal coset representatives of W_J in W_{J+i}: M_K lies in M_J for
        K > J.  Block J of T is the rows of `translates(tail, w.eta_J)` over
        `y_translates(J, eta_J)`: translates u.w.eta_J, each the signed sum
        of the cosets u w x B, x in W_J, whose longest is u w w_J B (w is
        shortest in w W_J), with sign(w_J).  Asserting that, and that these
        leading cosets cover G/B, makes T triangular (`TriangularBasis`).
        V_J, the span of the blocks K >= J, lies in M_J; every label, spin or
        not, is asserted to map block J into V_J (on the T-coordinates of
        its images, solved for a chunk of labels at a time), and `project`
        asserts that eta_J lies in V_J: V_J is the submodule M_J.  So block J is a basis of the piece, on which a
        label acts by the J x J block of its images' coordinates."""
        if self._filtration is not None:
            return self._filtration
        subsets, n, l = self.datum.all_subsets(), self.dim, self.ell
        etas = {J: self.alternating_sum(J) for J in subsets}
        for J in subsets:
            for i in sorted(set(range(self.datum.rank)) - J):
                xs = [x for x in self.datum.min_coset_reps(J) if set(x.word) <= J | {i}]  # x in W_{J+i}
                image = sum(self.sign(x) * self.act_weyl(x, etas[J]) for x in xs) % l
                assert np.array_equal(image, etas[J | {i}]), "eta_K is not the signed coset sum of eta_J"
        parts, block = [], []  # T as triples (row, coset, value), and each row's block
        for j, J in enumerate(subsets):
            for _, tail, weta in self.y_translates(J, etas[J]):
                translates = self.translates(tail, weta)
                r, c = np.nonzero(translates)
                parts.append((r + len(block), c, translates[r, c]))
                block += [j] * len(translates)
        lengths = np.array([w.length for w in self.flags.bruhat_labels()])
        T, block = TriangularBasis(l, *(np.concatenate(p) for p in zip(*parts)), lengths), np.array(block)
        signs = np.array([self.sign(self.datum.longest_element(J)) for J in subsets])
        assert np.array_equal(T.lead_value, signs[block]), "a leading coefficient is not sign(w_J)"
        inside = np.array([[K >= J for K in subsets] for J in subsets])  # inside[J, K]: M_K in M_J
        sizes, starts = np.bincount(block), np.searchsorted(block, np.arange(len(subsets)))
        handles = [ModuleHandle(int(k), l, self.handle.spin_labels) for k in sizes]
        # the labels in chunks, a label's triples (3 int64s per entry of T)
        # under the byte cap; slot s holds the image of row r as vector s*n + r
        labels = list(self.handle.actions)
        step = max(1, chevalley.STACK_BYTES // (24 * len(T.row)))
        for start in range(0, len(labels), step):
            chunk = labels[start:start + step]
            vec = (np.arange(len(chunk))[:, None] * n + T.row).ravel()
            col = np.concatenate([self.handle.perm(label)[T.col] for label in chunk])
            slots, r, y = T.coords(vec, col, np.tile(T.val, len(chunk)))
            slots, v = np.divmod(slots, n)
            assert inside[block[v], block[r]].all(), "vector outside the subspace"
            for slot, label in enumerate(chunk):
                if label not in self.handle.spin_labels:
                    continue
                at = slots == slot
                vi, ri, yi = v[at], r[at], y[at]
                for j, handle in enumerate(handles):
                    mine = (block[vi] == j) & (block[ri] == j)
                    M = np.zeros((handle.dim, handle.dim), dtype=np.int64)
                    M[ri[mine] - starts[j], vi[mine] - starts[j]] = yi[mine]  # column i: the image of row i
                    handle.add_matrix(label, M)
        v, r, y = T.coords(np.arange(n), np.arange(n), np.ones(n, dtype=np.int64))
        inverse_t = np.zeros((n, n), dtype=np.int64)
        inverse_t[r, v] = y
        pieces: Dict[FrozenSet[int], FiltrationPiece] = {}
        for j, J in enumerate(subsets):
            # the runs of consecutive blocks K not containing J: the blocks
            # are contiguous, so each run is a slice of rows
            edges = np.flatnonzero(np.diff(np.concatenate([[0], ~inside[j], [0]])))
            outside = [slice(starts[a], starts[b - 1] + sizes[b - 1]) for a, b in zip(edges[::2], edges[1::2])]
            own = slice(starts[j], starts[j] + sizes[j])
            sub_dim = int(sizes[inside[j]].sum())
            piece = pieces[J] = FiltrationPiece(J, sub_dim, handles[j], inverse_t, outside, own)
            piece.C = piece.project(etas[J])
            assert np.any(piece.C), "alternating-sum image vanished in the subquotient"
        self._filtration = pieces
        return pieces


# -- closure hypotheses for the mixed-level operator identities ---------------


def _landings(datum: RootDatum, ids: Sequence[int], mins: Sequence[int]) -> Set[int]:
    """The roots that nonnegative integer combinations of the given positive
    roots land on, with the i-th root taken at least mins[i] times and at
    most as often as its height fits in the tallest root's.  A positive
    combination of positive roots never lands on a negative root."""
    R = np.array([datum.roots[i] for i in ids], dtype=np.int64).reshape(len(ids), datum.rank)
    cap = max(sum(r) for r in datum.positive_roots)
    ranges = [range(m, cap // h + 1) for m, h in zip(mins, R.sum(axis=1))]
    sums = np.array(list(itertools.product(*ranges)), dtype=np.int64) @ R
    return {datum.root_index.get(tuple(s)) for s in sums.tolist()} - {None}


def closed_under_addition(datum: RootDatum, A: Sequence[int]) -> bool:
    """Positive-root combinations of members of A stay in A."""
    return _landings(datum, A, [0] * len(A)) <= set(A)


def commutes_into(datum: RootDatum, A: Sequence[int], beta: int) -> bool:
    """Combinations of beta (at least once) with members of A (at least one)
    that land on a positive root land in A: the condition letting a
    beta-element pass through the A-sums.  A combination with no A-part
    lands only on beta."""
    return _landings(datum, [beta] + list(A), [1] + [0] * len(A)) - {beta} <= set(A)


def absorbs_from(datum: RootDatum, A: Sequence[int], B: Sequence[int], gamma: int,
                 inversion: Sequence[int]) -> bool:
    """Combinations of gamma (at least once) with A- and B-members that land
    in the given inversion set must land in A: the condition making
    gamma-elements act trivially on the mixed product."""
    ids = [gamma] + list(A) + list(B)
    return _landings(datum, ids, [1] + [0] * (len(A) + len(B))) & set(inversion) <= set(A)


# -- suites -------------------------------------------------------------------

# sizes of the two random sweeps
SOCLE_RANDOM_VECTORS = 20
FIXED_POINT_TRIALS = 100


def suite_combinatorics(runner: SuiteRunner, seed: int) -> SuiteReport:
    rep = SuiteReport(
        "combinatorics",
        "Weyl-group sweeps: descent criteria, reflection transfer, inversion-set separation, longest-element factorizations",
    )
    datum = root_datum(runner.kind)
    n_pos = datum.n_pos
    for w in datum.elements:
        right_by_root = frozenset(i for i in range(datum.rank)
                                  if w.perm[datum.simple_indices[i]] >= n_pos)
        left_by_root = frozenset(i for i in range(datum.rank)
                                 if w.inverse().perm[datum.simple_indices[i]] >= n_pos)
        rep.check(datum.right_descents(w) == right_by_root, what="right-descent-criterion", w=word_tag(w))
        rep.check(datum.left_descents(w) == left_by_root, what="left-descent-criterion", w=word_tag(w))
        rep.check(w.length == len(datum.phi_minus(w)), what="length-inversions", w=word_tag(w))
    checked, vacuous, bad = check_reflection_transfer(datum)
    rep.checked += checked
    rep.vacuous += vacuous
    for item in bad:
        rep.check(False, what="reflection-transfer", detail=str(item))
    checked, vacuous, bad = check_stability_separation(datum)
    rep.checked += checked
    rep.vacuous += vacuous
    for item in bad:
        rep.check(False, what="inversion-separation", detail=str(item))
    for J in datum.all_subsets():
        vJ, wJ, wJp = datum.w0_factorization(J)
        w0 = datum.longest_element(range(datum.rank))
        rep.check(vJ * wJ * wJp == w0 and vJ.length + wJ.length + wJp.length == w0.length,
                  what="w0-factorization", J=subset_tag(J))
        ys = datum.y_set(J)
        rep.check(all(frozenset(datum.right_descents(y * wJ)) == frozenset(J) for y in ys),
                  what="y-set-descents", J=subset_tag(J))
    return rep


def suite_structure(runner: SuiteRunner, seed: int) -> SuiteReport:
    rep = SuiteReport(
        "structure",
        "matrix-level root-subgroup facts: homomorphism, torus weights, reflection conjugation, factorization, commutators",
    )
    group = matrix_group(runner.kind, runner.q)
    facts = check_structure_facts(group, samples=runner.samples, seed=seed)
    for name in sorted(facts):
        entry = facts[name]
        rep.checked += entry["checked"]
        rep.vacuous += entry["vacuous"]
        n_bad = len(entry["failures"])
        if n_bad:
            rep.failed += n_bad
            rep.failures.append({"fact": name, "failures": entry["failures"][:5]})
        rep.witness(fact=name, mode=entry["mode"], checked=entry["checked"])
    return rep


def suite_reflection_cases(runner: SuiteRunner, seed: int) -> SuiteReport:
    rep = SuiteReport(
        "reflection-cases",
        "simple-reflection action on alternating-sum translates lands in the predicted closed form, case by case",
    )
    lm = runner.base
    datum = lm.datum
    case_counts = {"transfer": 0, "absorb": 0, "split": 0}
    x_params: Dict[Tuple[int, int], int] = {}  # one asserted decomposition per (i, c)
    for J in datum.all_subsets():
        eta = lm.alternating_sum(J)
        wJ = datum.longest_element(J)
        for w in datum.min_coset_reps(J):
            weta = lm.act_weyl(w, eta)
            for i in range(datum.rank):
                s = datum.simple_reflection(i)
                sw = s * w
                case2 = (s * (w * wJ)).length > (w * wJ).length
                case3 = sw.length < w.length
                case4 = sw.length > w.length and (s * (w * wJ)).length < (w * wJ).length
                rep.check(case2 + case3 + case4 == 1, what="case-coverage",
                          J=subset_tag(J), w=word_tag(w), i=i + 1)
                ri = datum.simple_indices[i]
                s_word = simple_reflection_word(lm.group, i)
                for c in lm.field.elements():
                    if c == 0:
                        continue
                    lhs = lm.act(s_word + [(ri, c)], weta)
                    if case2:
                        case_counts["transfer"] += 1
                        rhs = lm.act_weyl(sw, eta)
                    else:
                        if (i, c) not in x_params:
                            x_params[i, c] = decompose_simple_conjugate(lm.group, i, c)
                        x_param = x_params[i, c]
                        x_weta = lm.act([(ri, x_param)], weta)
                        if case3:
                            case_counts["absorb"] += 1
                            rhs = x_weta
                        else:
                            case_counts["split"] += 1
                            rhs = (x_weta - weta) % lm.ell
                    rep.check(np.array_equal(lhs, rhs), what="case-identity",
                              J=subset_tag(J), w=word_tag(w), i=i + 1, c=c,
                              case="transfer" if case2 else ("absorb" if case3 else "split"))
    rep.witness(**case_counts)
    return rep


def suite_filtration(runner: SuiteRunner, seed: int) -> SuiteReport:
    rep = SuiteReport(
        "filtration",
        "alternating-sum submodule lattice: inclusions, strictness, and subquotient dimension accounting",
    )
    lm = runner.base
    datum = lm.datum
    pieces = lm.filtration()
    subsets = datum.all_subsets()
    # strict-inclusion, all-pieces-nonzero and dimension-sum restate what
    # `filtration` asserts (eta_K in M_K, nonzero blocks, T covering G/B), so
    # a wrong filtration exits 4 before they run; quotient-dim below is the
    # check from outside T
    for J in subsets:
        for K in subsets:
            if J < K:
                # M_K = kG.eta_K lies in M_J if eta_K does
                rep.check(pieces[J].contains(lm.alternating_sum(K)) and pieces[K].sub_dim < pieces[J].sub_dim,
                          what="strict-inclusion", small=subset_tag(K), large=subset_tag(J))
    # the paper's counts, from W, not T: dim M_K = q^l(w_K) [G : P_K], and the
    # M_K span parts of one basis, so a piece's is the alternating sum over K >= J
    q = lm.field.order
    paper = {K: q ** datum.longest_element(K).length * datum.poincare_sum(K, q) for K in subsets}
    for J in subsets:
        count = sum((-1) ** len(K - J) * paper[K] for K in subsets if K >= J)
        rep.check(pieces[J].dim == count, what="quotient-dim", J=subset_tag(J))
        rep.witness(J=subset_tag(J), dim=pieces[J].dim, sub_dim=pieces[J].sub_dim)
    nonzero, total = sum(pieces[J].dim > 0 for J in subsets), sum(pieces[J].dim for J in subsets)
    rep.check(nonzero == len(subsets), what="all-pieces-nonzero", found=nonzero)
    rep.check(total == lm.dim, what="dimension-sum", total=total, module=lm.dim)
    full = frozenset(range(datum.rank))
    w0 = datum.longest_element(range(datum.rank))
    rep.check(pieces[full].dim == lm.field.order ** w0.length, what="top-piece-dimension",
              dim=pieces[full].dim)
    empty_piece = pieces[frozenset()]
    rep.check(empty_piece.dim == 1, what="bottom-piece-dimension", dim=empty_piece.dim)
    # the piece is spanned by the image of the unit coset, which every root
    # label of the module must fix
    base = empty_piece.project(lm.unit())
    identity_like = all(
        np.array_equal(empty_piece.project(lm.handle.images(lbl, lm.unit())), base)
        for lbl in lm.handle.actions
    )
    rep.check(identity_like and empty_piece.dim == 1, what="bottom-piece-trivial")
    return rep


def suite_subquotient_basis(runner: SuiteRunner, seed: int) -> SuiteReport:
    rep = SuiteReport(
        "subquotient-basis",
        "translated generator vectors with unipotent prefixes form a basis of each subquotient",
    )
    lm = runner.base
    datum = lm.datum
    pieces = lm.filtration()
    q_a = lm.field.order
    for J in datum.all_subsets():
        piece = pieces[J]
        candidates = []
        predicted = 0
        for w, tail, weta in lm.y_translates(J, lm.alternating_sum(J)):
            predicted += q_a ** tail.length
            candidates.append(piece.project(lm.translates(tail, weta)))
            for ri in datum.positive_indices:
                if ri in set(datum.phi_minus(tail)):
                    continue
                for c in lm.field.elements():
                    if c == 0:
                        continue
                    fixed = np.array_equal(piece.project(lm.act([(ri, c)], weta)), piece.project(weta))
                    rep.check(fixed, what="complement-fixes-translate",
                              J=subset_tag(J), w=word_tag(w), root=ri, c=c)
        candidates = np.vstack(candidates)
        rank = Subspace(piece.dim, lm.ell, candidates).dim
        rep.check(rank == len(candidates), what="independence", J=subset_tag(J),
                  rank=rank, count=len(candidates))
        rep.check(len(candidates) == predicted, what="predicted-count", J=subset_tag(J))
        rep.check(rank == piece.dim, what="spanning", J=subset_tag(J),
                  rank=rank, dim=piece.dim)
        rep.witness(J=subset_tag(J), count=len(candidates), dim=piece.dim)
    return rep


def suite_parabolic_model(runner: SuiteRunner, seed: int) -> SuiteReport:
    rep = SuiteReport(
        "parabolic-model",
        "parabolic invariant vectors model each subquotient inside an induced module of the same size",
    )
    lm = runner.base
    datum = lm.datum
    pieces = lm.filtration()
    q_a = lm.field.order
    for K in datum.all_subsets():
        cosets = lm.parabolic(K).dim
        rep.check(cosets == datum.poincare_sum(K, q_a), what="coset-count", K=subset_tag(K))
        fK = lm.parabolic_invariant_vector(K)
        for name, word in lm.parabolic_test_words(K):
            rep.check(np.array_equal(lm.act(word, fK), fK), what="invariance",
                      K=subset_tag(K), generator=name)
        spun = spin(lm.handle, [fK])
        rep.check(spun.dim == cosets, what="generated-dimension",
                  K=subset_tag(K), dim=spun.dim, cosets=cosets)
        translates = np.vstack([lm.translates(w.inverse(), lm.act_weyl(w, fK))
                                for w in datum.min_coset_reps(K)])
        rank = Subspace(lm.dim, lm.ell, translates).dim
        rep.check(rank == len(translates) == cosets, what="translate-basis",
                  K=subset_tag(K), rank=rank)
    for J in datum.all_subsets():
        Jp = frozenset(range(datum.rank)) - J
        handle = lm.parabolic(Jp)
        D = lm.parabolic_alternating_sum(J)
        EpJ = spin(handle, [D])
        piece = pieces[J]
        rep.check(EpJ.dim == piece.dim, what="model-dimension",
                  J=subset_tag(J), model=EpJ.dim, subquotient=piece.dim)
        yD = lm.y_translates(J, D, handle)
        predicted = sum(q_a ** tail.length for _, tail, _ in yD)
        translates = np.vstack([lm.translates(tail, wD, handle) for _, tail, wD in yD])
        rank = Subspace(handle.dim, lm.ell, translates).dim
        rep.check(rank == len(translates) == predicted == EpJ.dim, what="model-basis",
                  J=subset_tag(J), rank=rank, predicted=predicted)
        model_series = composition_series(restrict(handle, EpJ), seed=seed)
        piece_series = piece.composition_series(seed)
        rep.check(model_series == piece_series, what="factor-multiset",
                  J=subset_tag(J), model=model_series, subquotient=piece_series)
        rep.witness(J=subset_tag(J), dim=EpJ.dim, factors=piece_series)
    return rep


def suite_steinberg(runner: SuiteRunner, seed: int) -> SuiteReport:
    rep = SuiteReport(
        "steinberg",
        "signed Weyl translates of full unipotent sums fix the subquotient generator; the top piece is irreducible",
    )
    lm = runner.base
    datum = lm.datum
    pieces = lm.filtration()
    values = lm.values()
    for J in datum.all_subsets():
        piece = pieces[J]
        wJ = datum.longest_element(J)
        eta = lm.alternating_sum(J)
        out = lm.signed_sum(J, lm.u_sum(wJ, values, eta))
        rep.check(np.array_equal(piece.project(out), piece.C), what="signed-sum-identity",
                  J=subset_tag(J))
    full = frozenset(range(datum.rank))
    top = pieces[full]
    w0 = datum.longest_element(range(datum.rank))
    rep.check(top.dim == lm.field.order ** w0.length, what="top-dimension", dim=top.dim)
    verdict = meataxe_irreducible(top.handle, seed=seed)
    rep.check(verdict.irreducible, what="top-irreducible", certificate=str(verdict.certificate.get("method")))
    rep.witness(dim=top.dim, certificate=str(verdict.certificate.get("method")))
    return rep


def suite_level_steps(runner: SuiteRunner, seed: int) -> SuiteReport:
    rep = SuiteReport(
        "level-steps",
        "mixed-level operator products: commutation, absorption steps, and extension-degree vanishing",
    )
    lm = runner.ext
    datum = lm.datum
    pieces = lm.filtration()
    lo = runner.sub_values()
    hi = lm.values()
    reps = runner.transversal_reps()
    rep.check(len(reps) % lm.ell == 0, what="transversal-size-vanishes", size=len(reps))
    mixed_difference_seen = False
    for J in datum.all_subsets():
        piece = pieces[J]
        for w, tail, weta in lm.y_translates(J, lm.alternating_sum(J)):
            roots = datum.phi_minus(tail)
            t = len(roots)
            if t == 0:
                rep.vacuous += 1
                continue
            thetas = [lm.theta(tail, d, hi, lo, weta) for d in range(t + 1)]
            if not np.array_equal(piece.project(thetas[0]), piece.project(thetas[t])):
                mixed_difference_seen = True
            for d in range(t + 1):
                A, B = roots[:d], roots[d:]
                if not closed_under_addition(datum, A):
                    rep.vacuous += 1
                    continue
                delta = thetas[d]
                if B:
                    beta1 = B[0]
                    if commutes_into(datum, A, beta1):
                        post = lm.root_chain(B, lo, weta)
                        for c in hi:
                            if c == 0:
                                continue
                            lhs = lm.act([(beta1, c)], delta)
                            rhs = lm.root_chain(A, hi, lm.act([(beta1, c)], post))
                            rep.check(np.array_equal(piece.project(lhs), piece.project(rhs)),
                                      what="commutation", J=subset_tag(J), w=word_tag(w), d=d, c=c)
                    else:
                        rep.vacuous += 1
                for gamma in datum.positive_indices:
                    if gamma in set(roots):
                        continue
                    if not absorbs_from(datum, A, B, gamma, roots):
                        rep.vacuous += 1
                        continue
                    ok_fix = all(
                        np.array_equal(piece.project(lm.act([(gamma, c)], delta)), piece.project(delta))
                        for c in hi if c != 0
                    )
                    rep.check(ok_fix, what="complement-absorption", J=subset_tag(J),
                              w=word_tag(w), d=d, root=gamma)
                    vanish = piece.project(lm.root_sum(gamma, reps, delta))
                    rep.check(not np.any(vanish), what="transversal-vanishing",
                              J=subset_tag(J), w=word_tag(w), d=d, root=gamma)
            for d in range(t):
                lhs = lm.root_sum(roots[d], reps, thetas[d])
                rep.check(np.array_equal(piece.project(lhs), piece.project(thetas[d + 1])),
                          what="transversal-step", J=subset_tag(J), w=word_tag(w), d=d)
            if t >= 2 and datum.rank >= 2 and tail == datum.longest_element(range(datum.rank)):
                # dropping only the tallest root from the inversion set leaves
                # two members summing to it, so the closure test must reject it
                rep.check(not closed_under_addition(datum, roots[1:]),
                          what="inadmissible-split-detected", J=subset_tag(J), w=word_tag(w))
    rep.check(mixed_difference_seen, what="levels-distinguishable")
    return rep


def suite_separation(runner: SuiteRunner, seed: int) -> SuiteReport:
    rep = SuiteReport(
        "separation",
        "spinning a mixed-level combination recovers a pure unipotent-sum translate",
    )
    lm = runner.ext
    datum = lm.datum
    pieces = lm.filtration()
    lo = runner.sub_values()
    hi = lm.values()
    for J in datum.all_subsets():
        piece = pieces[J]
        ys = lm.y_translates(J, lm.alternating_sum(J))
        translates = {w.perm: piece.project(lm.theta(tail, 0, hi, lo, weta)) for w, tail, weta in ys}
        # the pure translates at both levels, in the order they are searched;
        # theta at split 0 is u_sum over GF(q), the level tagged "a", so that
        # translate is the one just projected
        targets = [target for w, tail, weta in ys for target in (
            ((word_tag(w), "a"), translates[w.perm]),
            ((word_tag(w), "b"), piece.project(lm.u_sum(tail, hi, weta))))]
        configs = [("all", [w for w, _, _ in ys])]
        if len(ys) > 1:
            configs += [("single:%s" % word_tag(w), [w]) for w, _, _ in ys]
        for tag, Y in configs:
            xi = np.zeros(piece.dim, dtype=np.int64)
            for w in Y:
                xi = (xi + translates[w.perm]) % lm.ell
            if not np.any(xi):
                rep.vacuous += 1
                rep.note("combination vanished for J=%s (%s)" % (subset_tag(J), tag))
                continue
            M = spin(piece.handle, [xi])
            found = next((where for where, target in targets if np.any(target) and M.contains(target)), None)
            rep.check(found is not None, what="witness-found", J=subset_tag(J), Y=tag)
            if found:
                rep.witness(J=subset_tag(J), Y=tag, w=found[0], level=found[1])
    return rep


def suite_induction(runner: SuiteRunner, seed: int) -> SuiteReport:
    rep = SuiteReport(
        "induction",
        "membership transfers down along simple reflections between admissible translates",
    )
    lm = runner.ext
    datum = lm.datum
    pieces = lm.filtration()
    lo = runner.sub_values()
    hi = lm.values()
    pairs = []
    for J in datum.all_subsets():
        ys = {w.perm: (w, tail, weta) for w, tail, weta in lm.y_translates(J, lm.alternating_sum(J))}
        for w, tail, weta in ys.values():
            for i in range(datum.rank):
                sw = datum.simple_reflection(i) * w
                if sw.length > w.length and sw.perm in ys:
                    pairs.append((J, i, ys[sw.perm], (w, tail, weta)))
    if not pairs:
        return rep.skip("no admissible translate pairs exist for this configuration")
    for J, i, (_, sw_tail, sw_eta), (w, tail, weta) in pairs:
        piece = pieces[J]
        seed_vec = piece.project(lm.u_sum(sw_tail, lo, sw_eta))
        M = spin(piece.handle, [seed_vec])
        target = piece.project(lm.u_sum(tail, hi, weta))
        rep.check(np.any(target) and M.contains(target), what="membership",
                  J=subset_tag(J), w=word_tag(w), s=i + 1)
        rep.witness(J=subset_tag(J), w=word_tag(w), s=i + 1, generated_dim=M.dim)
    return rep


def suite_socle(runner: SuiteRunner, seed: int) -> SuiteReport:
    rep = SuiteReport(
        "socle",
        "socle analysis: closed-form generator identities, irreducibility, fixed lines, and unique minimal submodules",
    )
    lm = runner.base
    datum = lm.datum
    values = lm.values()
    rank = datum.rank
    full = frozenset(range(rank))
    w0 = datum.longest_element(range(rank))
    sigma = datum.sigma()
    rng = np.random.default_rng(seed)
    u_fixed = lm.unipotent_fixed_space()
    for J in datum.all_subsets():
        Jp = full - J
        vJ, wJ, wJp = datum.w0_factorization(J)
        sigma_Jp = frozenset(sigma[i] for i in Jp)
        frak = lm.parabolic_invariant_vector(Jp)
        lead = wJ * vJ.inverse()
        # (a) the closed form of the opposite-subset generator
        lhs = lm.socle_generator(sigma_Jp)
        rhs = lm.u_sum(lead, values, lm.act_weyl(vJ, lm.act_weyl(wJ, frak)))
        rep.check(np.array_equal(lhs, rhs), what="generator-closed-form", J=subset_tag(J))
        # (b) annihilation below the longest subgroup element, and (a') the
        # signed sum over the subgroup collapsing to the closed form
        signed = np.zeros(lm.dim, dtype=np.int64)
        for w in datum.subgroup_elements(J):
            img = lm.u_sum(lead, values, lm.act_weyl(vJ, lm.act_weyl(w, frak)))
            signed = (signed + lm.sign(w) * img) % lm.ell
            if w != wJ:
                rep.check(not np.any(img), what="annihilation", J=subset_tag(J), w=word_tag(w))
        rep.check(np.array_equal(signed, (lm.sign(wJ) * lhs) % lm.ell),
                  what="signed-collapse", J=subset_tag(J))
        # (c) the generator spans the unique fixed line of its submodule
        fJ = lm.socle_generator(J)
        SJ = spin(lm.handle, [fJ])
        verdict = meataxe_irreducible(restrict(lm.handle, SJ), seed=seed)
        rep.check(verdict.irreducible, what="generated-irreducible", J=subset_tag(J), dim=SJ.dim)
        fixed_in = SJ.intersect(u_fixed)
        rep.check(fixed_in.dim == 1 and u_fixed.contains(fJ), what="unique-fixed-line",
                  J=subset_tag(J), dim=fixed_in.dim)
        pivot = int(np.flatnonzero(fJ)[0])

        def on_line(img):
            """Is img a multiple of fJ?"""
            lam = img[pivot] * pow(int(fJ[pivot]), lm.ell - 2, lm.ell) % lm.ell
            return np.array_equal(img, lam * fJ % lm.ell)

        for name, word in lm.parabolic_test_words(J):
            rep.check(on_line(lm.act(word, fJ)), what="line-stabilized", J=subset_tag(J), generator=name)
        for j in sorted(full - J):
            neg = datum.simple_indices[j] + datum.n_pos
            rep.check(not on_line(lm.act([(neg, 1)], fJ)), what="line-moved-outside", J=subset_tag(J), j=j + 1)
        # (d) unique minimal submodule of the parabolic model
        phandle = lm.parabolic(Jp)
        D = lm.parabolic_alternating_sum(J)
        EpJ = spin(phandle, [D])
        sub = restrict(phandle, EpJ)
        vec = lm.act_weyl(vJ, D, phandle)
        cand_amb = lm.sign(wJ) * lm.u_sum(lead, values, vec, handle=phandle) % lm.ell
        rep.check(np.any(cand_amb), what="candidate-nonzero", J=subset_tag(J))
        cand = EpJ.coords(cand_amb)
        # the U-fixed vectors of EpJ, in its coordinates
        fixed = EpJ.intersect(lm.unipotent_fixed_space(Jp))
        fixed = Subspace(EpJ.dim, lm.ell, EpJ.coords(fixed.rows))
        socle_res = socle_simple_check(sub, cand, fixed, seed=seed)
        rep.check(bool(socle_res["ok"]) and bool(socle_res["candidate_fixed"]),
                  what="simple-socle", J=subset_tag(J),
                  socle_dim=int(socle_res["socle_dim"]), lines=int(socle_res["lines_checked"]))
        # (e) the candidate lies in every randomly generated submodule
        hits = 0
        for _ in range(SOCLE_RANDOM_VECTORS):
            x = rng.integers(0, lm.ell, size=sub.dim)
            while not np.any(x):
                x = rng.integers(0, lm.ell, size=sub.dim)
            if spin(sub, [x % lm.ell]).contains(cand):
                hits += 1
        rep.check(hits == SOCLE_RANDOM_VECTORS, what="random-generation", J=subset_tag(J),
                  hits=hits, trials=SOCLE_RANDOM_VECTORS)
        rep.witness(J=subset_tag(J), socle_dim=int(socle_res["socle_dim"]),
                    generated_dim=SJ.dim, random_hits=hits)
    return rep


def suite_composition(runner: SuiteRunner, seed: int) -> SuiteReport:
    rep = SuiteReport(
        "composition",
        "composition factor multisets of the permutation module and its subquotients agree",
    )
    lm = runner.base
    series = composition_series(lm.handle, seed=seed)
    rep.check(sum(series) == lm.dim, what="factors-sum", total=sum(series))
    rep.witness(module="full", factors=series, count=len(series))
    merged: List[int] = []
    for J in lm.datum.all_subsets():
        piece = lm.filtration()[J]
        sub_series = piece.composition_series(seed)
        merged.extend(sub_series)
        rep.check(sum(sub_series) == piece.dim, what="piece-factors-sum", J=subset_tag(J))
        rep.witness(module="piece:%s" % subset_tag(J), factors=sub_series, count=len(sub_series))
    rep.check(sorted(merged) == series, what="refinement-multiset",
              pieces=sorted(merged), full=series)
    return rep


def suite_fixed_points(runner: SuiteRunner, seed: int) -> SuiteReport:
    rep = SuiteReport(
        "fixed-points",
        "every randomly generated nonzero submodule has nonzero unipotent-fixed vectors",
    )
    lm = runner.base
    rng = np.random.default_rng(seed)
    fixed, labels = lm.unipotent_fixed_space(), lm.unipotent_labels()
    for k in range(FIXED_POINT_TRIALS):
        v = rng.integers(0, lm.ell, size=lm.dim)
        while not np.any(v):
            v = rng.integers(0, lm.ell, size=lm.dim)
        # x = (u_t - 1)...(u_1 - 1).v lies in kG.v: a witness that kG.v meets F
        x = fixed_vector(lm.handle, labels, v)
        rep.check(x is not None and bool(np.any(x)) and fixed.contains(x), what="fixed-vector-exists", trial=k)
    rep.witness(trials=FIXED_POINT_TRIALS, ambient_fixed_dim=fixed.dim)
    return rep


# -- the registry and runner --------------------------------------------------


@dataclass(frozen=True)
class SuiteSpec:
    fn: Callable[[SuiteRunner, int], SuiteReport]
    scope: str              # what it reads: "datum" | "group" | "base" | "ext"
    defining_only: bool
    claim: str


SUITES: Dict[str, SuiteSpec] = {
    "combinatorics": SuiteSpec(suite_combinatorics, "datum", False,
                               "Weyl-group descent, transfer, separation, and factorization sweeps"),
    "structure": SuiteSpec(suite_structure, "group", False,
                           "matrix root-subgroup homomorphism, torus, conjugation, factorization, commutator facts"),
    "reflection-cases": SuiteSpec(suite_reflection_cases, "base", False,
                                  "case-by-case closed form of simple-reflection actions on alternating-sum translates"),
    "filtration": SuiteSpec(suite_filtration, "base", False,
                            "submodule lattice of alternating sums with exact dimension accounting"),
    "subquotient-basis": SuiteSpec(suite_subquotient_basis, "base", False,
                                   "unipotent-translate bases of the filtration subquotients"),
    "parabolic-model": SuiteSpec(suite_parabolic_model, "base", False,
                                 "induced-module models of the subquotients via invariant vectors"),
    "steinberg": SuiteSpec(suite_steinberg, "base", True,
                           "signed unipotent-sum identity and irreducibility of the top subquotient"),
    "level-steps": SuiteSpec(suite_level_steps, "ext", True,
                             "mixed-level operator commutation, stepping, and vanishing identities"),
    "separation": SuiteSpec(suite_separation, "ext", True,
                            "recovery of pure unipotent-sum translates from mixed-level combinations"),
    "induction": SuiteSpec(suite_induction, "ext", True,
                           "downward membership transfer along simple reflections"),
    "socle": SuiteSpec(suite_socle, "base", True,
                       "socle generators: closed forms, fixed lines, unique minimal submodules, random generation"),
    "composition": SuiteSpec(suite_composition, "base", False,
                             "composition factor multisets of the module and its subquotients"),
    "fixed-points": SuiteSpec(suite_fixed_points, "base", True,
                              "nonzero unipotent-fixed vectors in random submodules"),
}


class SuiteRunner:
    """One configuration of the suites: checked once, modules built lazily.

    The seven arguments are the whole configuration: the group type, the
    field order q of the module (a prime power), the second level b >= 1 of
    the two-level suites (GF(q) inside GF(q^b); b = 1 for none), the
    coefficient characteristic (a prime; the field characteristic by
    default), the coset budget (>= 1), the run seed (>= 0) and the sample
    count of the sampled structure sweeps (>= 1).  A
    bad value raises ValueError here, and so does a characteristic with
    (budget + 1)(char - 1)^2 >= 2^63: the kernels sum int64 products of
    entries < char over inner dimensions up to n + 1, n <= budget.
    Construction builds no module, and nothing is reassigned afterwards.
    """

    def __init__(self, kind: str, q: int, b: int = 2, char: Optional[int] = None,
                 budget: int = 200_000, seed: int = 0, samples: int = 1000):
        root_datum(kind)  # raises ValueError for an unknown type
        p, e = factor_prime_power(q)
        if b < 1:
            raise ValueError("level b must be positive")
        char = p if char is None else char
        if budget < 1:
            raise ValueError("budget must be positive")
        if (budget + 1) * (char - 1) ** 2 >= 2**63:
            raise ValueError("coefficient characteristic %d is too large for exact int64 products "
                             "at budget %d: (budget + 1)(char - 1)^2 must be below 2^63" % (char, budget))
        if not is_prime(char):
            raise ValueError("coefficient characteristic must be prime")
        if seed < 0:
            raise ValueError("seed must be non-negative")
        if samples < 1:
            raise ValueError("samples must be positive")
        self.kind, self.q, self.b, self.char = kind, q, b, char
        self.budget, self.seed, self.samples = budget, seed, samples
        self.p, self.e = p, e
        self.defining = char == p

    @property
    def has_ext(self) -> bool:
        return self.b != 1

    @cached_property
    def base(self) -> LevelModule:
        """The coset module over GF(q)."""
        return LevelModule(self.kind, self.q, self.char, self.budget)

    @cached_property
    def ext(self) -> LevelModule:
        """The same module family over the level-b field."""
        if not self.has_ext:
            raise ValueError("configuration has no extension level")
        return LevelModule(self.kind, self.q**self.b, self.char, self.budget)

    def sub_values(self) -> List[int]:
        """GF(q), embedded in the level-b field."""
        table = embedding_table(self.p, self.e, self.e * self.b)
        return sorted(set(table))

    def transversal_reps(self) -> List[int]:
        """Additive coset representatives of the embedded GF(q)."""
        return list(additive_transversal(self.p, self.e, self.e * self.b))

    def context(self) -> SuiteRunner:
        """Build the base module now and return the runner.

        Otherwise the first suite that reads a module builds it, and the
        build is timed as part of that suite.  A caller that times module
        construction on its own (the benchmark's setup phase) calls this,
        then reads `.ext` when an ext suite applies, before the first suite.
        """
        self.base
        return self

    def applicable(self, name: str) -> Tuple[bool, str]:
        spec = SUITES[name]
        if spec.defining_only and not self.defining:
            return False, "requires defining characteristic (coefficient prime = field characteristic)"
        if spec.scope == "ext" and not self.has_ext:
            # the report's wording: GF(q) is level a = 1
            return False, "requires an extension level b strictly above a"
        if spec.scope != "datum":
            reason = self.field_too_large(self.b if spec.scope == "ext" else 1)
            if reason:
                return False, reason
        return True, ""

    def field_too_large(self, level: int) -> str:
        """Why the matrices cannot be built over GF(q^level), or "" when
        they can."""
        order = self.q**level
        if order > MAX_ORDER:
            return "field order %d exceeds the matrix-arithmetic bound %d" % (order, MAX_ORDER)
        return ""

    def run(self, name: str) -> SuiteReport:
        spec = SUITES[name]
        ok, reason = self.applicable(name)
        if not ok:
            return SuiteReport(name, spec.claim).skip(reason)
        start = time.perf_counter()
        rep = spec.fn(self, self.seed + sorted(SUITES).index(name))
        rep.seconds = time.perf_counter() - start
        return rep

"""Permutation modules on flag varieties and their verification suites.

A SuiteRunner is one configuration: a group type, a prime power q, a field
level a (the module lives over GF(q^a)), optionally a second level b (a
multiple of a) used by the two-level operator suites, a coefficient
characteristic, and the coset budget, seed and sample count of a run.  It
checks every value once, when it is built, and builds the LevelModule at
each level on first use.  A LevelModule materialises, on top of the coset
enumeration:

  * the coset permutation module with labelled root-element actions,
  * the alternating Weyl sums over a subset J of simple reflections and
    the submodule lattice they generate, with its subquotients,
  * parabolic coset modules and the corresponding alternating sums,
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
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .chevalley import (
    FlagIndex,
    MatrixGroup,
    check_structure_facts,
    coroot_word,
    decompose_simple_conjugate,
    matrix_group,
    simple_reflection_word,
    unipotent_words,
    weyl_word,
)
from .gf import MAX_ORDER, additive_transversal, embedding_table, factor_prime_power, is_prime
from .linrep import (
    ModuleHandle,
    Subspace,
    composition_series,
    fixed_space,
    meataxe_irreducible,
    quotient,
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
    sub: Subspace               # the submodule generated by the alternating sum
    prime_dim: int              # dimension of the sum of the strictly-larger pieces
    handle: ModuleHandle        # the subquotient as a module over the spin labels only
    project: Callable[[np.ndarray], np.ndarray]   # ambient vector (in sub) -> subquotient coords
    C: np.ndarray               # image of the alternating sum

    @property
    def dim(self) -> int:
        return self.handle.dim


class LevelModule:
    """The coset permutation module of one group over one finite field.

    Labels of the form ("r", root_index, c) act by the precomputed coset
    permutations of the root elements; everything else (Weyl
    representatives, torus elements, subgroup sums) is expressed through
    them.  Operators act on vectors: a subgroup sum applied to v is a chain
    of root sums, each a sum of permutation gathers of v.  The actions
    permute along axis 0, so passing the identity matrix as v returns the
    operator as a matrix.
    """

    def __init__(self, kind: str, order: int, ell: int, budget: int = 200_000):
        self.group: MatrixGroup = matrix_group(kind, order)
        self.datum: RootDatum = self.group.datum
        self.field = self.group.field
        self.ell = ell
        self.budget = budget
        self.flags = FlagIndex(self.group, budget=budget)
        self.dim = len(self.flags)
        self.handle = self._build_handle(self.flags)
        self._parabolic: Dict[FrozenSet[int], Tuple[FlagIndex, ModuleHandle]] = {}
        self._filtration: Optional[Dict[FrozenSet[int], FiltrationPiece]] = None
        self._fixed_space: Optional[Subspace] = None

    def _build_handle(self, flags: FlagIndex) -> ModuleHandle:
        handle = ModuleHandle(len(flags), self.ell, [])
        for ri in range(len(self.datum.roots)):
            for c in self.field.elements():
                if c == 0:
                    continue
                handle.add_perm(("r", ri, c), flags.perm_of_word([(ri, c)]))
        for i in range(self.datum.rank):
            si = self.datum.simple_indices[i]
            neg = self.datum.root_index[tuple(-x for x in self.datum.roots[si])]
            for ri in (si, neg):
                for c in self.field.fp_basis():
                    handle.spin_labels.append(("r", ri, c))
        return handle

    # -- words and vectors

    @staticmethod
    def labels(word: Sequence[Tuple[int, int]]) -> List[tuple]:
        return [("r", ri, c) for ri, c in word if c != 0]

    def act(self, word: Sequence[Tuple[int, int]], v: np.ndarray, handle: Optional[ModuleHandle] = None) -> np.ndarray:
        return (handle or self.handle).apply_word(self.labels(word), v)

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
        out = np.zeros(self.dim, dtype=np.int64)
        for w in self.datum.subgroup_elements(J):
            out = (out + self.sign(w) * self.act_weyl(w, self.unit())) % self.ell
        return out

    # -- operators, applied to vectors

    def root_sum(self, root_index: int, values: Sequence[int], v: np.ndarray,
                 handle: Optional[ModuleHandle] = None) -> np.ndarray:
        """Sum over the values c of the root element x_root(c) applied to v;
        c = 0 is the identity."""
        handle = handle or self.handle
        out = np.zeros_like(v)
        for c in values:
            out += v if c == 0 else handle.apply(("r", root_index, c), v)
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

    def parabolic(self, K: Iterable[int]) -> Tuple[FlagIndex, ModuleHandle]:
        K = frozenset(K)
        if K not in self._parabolic:
            if not K:
                self._parabolic[K] = (self.flags, self.handle)
            else:
                flags = FlagIndex(self.group, K, budget=self.budget)
                self._parabolic[K] = (flags, self._build_handle(flags))
        return self._parabolic[K]

    def parabolic_alternating_sum(self, J: Iterable[int]) -> np.ndarray:
        """Signed W_J-sum over the base coset of the opposite-subset
        parabolic module (the module induced from the complement of J)."""
        J = frozenset(J)
        Jp = frozenset(range(self.datum.rank)) - J
        flags, handle = self.parabolic(Jp)
        out = np.zeros(len(flags), dtype=np.int64)
        base = np.zeros(len(flags), dtype=np.int64)
        base[0] = 1
        for w in self.datum.subgroup_elements(J):
            out = (out + self.sign(w) * self.act(weyl_word(self.group, w), base, handle)) % self.ell
        return out

    def parabolic_invariant_vector(self, K: Iterable[int], values: Sequence[int]) -> np.ndarray:
        """Sum over W_K of unipotent-sum translates of the base coset; the
        canonical parabolic-invariant vector of the coset module."""
        out = np.zeros(self.dim, dtype=np.int64)
        for w in self.datum.subgroup_elements(K):
            out = (out + self.u_sum(w.inverse(), values, self.act_weyl(w, self.unit()))) % self.ell
        return out

    def socle_generator(self, J: Iterable[int], values: Sequence[int]) -> np.ndarray:
        """Sum of unipotent-sum translates over the longest-element coset of
        W_J; the candidate generator of a simple submodule."""
        w0 = self.datum.longest_element(range(self.datum.rank))
        out = np.zeros(self.dim, dtype=np.int64)
        for v in self.datum.subgroup_elements(J):
            w = w0 * v
            out = (out + self.u_sum(w, values, self.act_weyl(w.inverse(), self.unit()))) % self.ell
        return out

    def unipotent_labels(self) -> List[tuple]:
        """Generator labels for the full upper unipotent subgroup."""
        out = []
        for ri in self.datum.positive_indices:
            for c in self.field.fp_basis():
                out.append(("r", ri, c))
        return out

    def unipotent_fixed_space(self) -> Subspace:
        if self._fixed_space is None:
            self._fixed_space = fixed_space(self.handle, self.unipotent_labels())
        return self._fixed_space

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
            si = self.datum.simple_indices[i]
            neg = self.datum.root_index[tuple(-x for x in self.datum.roots[si])]
            for c in self.field.fp_basis():
                words.append(("u-s%d" % (i + 1), [(neg, c)]))
            words.append(("w-s%d" % (i + 1), simple_reflection_word(self.group, i)))
        return words

    # -- the submodule lattice of the alternating sums

    def filtration(self) -> Dict[FrozenSet[int], FiltrationPiece]:
        if self._filtration is not None:
            return self._filtration
        subsets = self.datum.all_subsets()
        generated = {J: spin(self.handle, [self.alternating_sum(J)]) for J in subsets}
        pieces: Dict[FrozenSet[int], FiltrationPiece] = {}
        for J in subsets:
            # the sum over every K > J is the sum over the minimal ones,
            # J + {i}: each larger K lies in some J + {i}, and coords asserts
            # generated[K] <= generated[J + {i}] when J + {i} is processed
            rows = [generated[J | {i}].rows for i in range(self.datum.rank) if i not in J]
            above = Subspace(self.dim, self.ell, np.vstack(rows) if rows else None)
            sub = generated[J]
            # coords asserts that above lies in sub.  restrict checks every
            # generated submodule under every label of the module, so above,
            # a sum of them, is invariant too; the quotient checks only the
            # spin labels the restricted handle carries.  That handle is
            # dropped before the next one is built.
            inner = Subspace(sub.dim, self.ell, sub.coords(above.rows))
            e_handle, qproj = quotient(restrict(self.handle, sub), inner)

            def project(v, _sub=sub, _qproj=qproj):
                return _qproj(_sub.coords(v))

            C = project(self.alternating_sum(J))
            assert np.any(C), "alternating-sum image vanished in the subquotient"
            pieces[J] = FiltrationPiece(J, sub, above.dim, e_handle, project, C)
        self._filtration = pieces
        return pieces


# -- closure hypotheses for the mixed-level operator identities ---------------


def _max_height(datum: RootDatum) -> int:
    return max(sum(r) for r in datum.positive_roots)


def _combos(datum: RootDatum, root_ids: Sequence[int], mins: Sequence[int]):
    """Nonnegative integer combinations of the given positive roots with the
    listed per-slot minimum coefficients, up to the tallest root height.
    Yields (coeffs, root_id or None) for the summed coordinate."""
    cap = _max_height(datum)
    heights = [sum(datum.roots[i]) for i in root_ids]
    ranges = [range(mn, cap // h + 1) for mn, h in zip(mins, heights)]
    for coeffs in itertools.product(*ranges):
        total = sum(c * h for c, h in zip(coeffs, heights))
        if total == 0 or total > cap:
            continue
        coord = tuple(
            sum(c * datum.roots[i][k] for c, i in zip(coeffs, root_ids))
            for k in range(datum.rank)
        )
        yield coeffs, datum.root_index.get(coord)


def closed_under_addition(datum: RootDatum, A: Sequence[int]) -> bool:
    """Positive-root combinations of members of A stay in A."""
    for _, rid in _combos(datum, A, [0] * len(A)):
        if rid is not None and rid in datum.positive_indices and rid not in A:
            return False
    return True


def commutes_into(datum: RootDatum, A: Sequence[int], beta: int) -> bool:
    """Combinations of beta (at least once) with members of A (at least one)
    that land on a positive root land in A: the condition letting a
    beta-element pass through the A-sums."""
    ids = [beta] + list(A)
    for coeffs, rid in _combos(datum, ids, [1] + [0] * len(A)):
        if sum(coeffs[1:]) == 0:
            continue
        if rid is not None and rid in datum.positive_indices and rid not in A:
            return False
    return True


def absorbs_from(datum: RootDatum, A: Sequence[int], B: Sequence[int], gamma: int,
                 inversion: Sequence[int]) -> bool:
    """Combinations of gamma (at least once) with A- and B-members that land
    in the given inversion set must land in A: the condition making
    gamma-elements act trivially on the mixed product."""
    ids = [gamma] + list(A) + list(B)
    inv = set(inversion)
    for _, rid in _combos(datum, ids, [1] + [0] * (len(A) + len(B))):
        if rid is not None and rid in inv and rid not in A:
            return False
    return True


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
    group = matrix_group(runner.kind, runner.q**runner.a)
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
                        x_param = decompose_simple_conjugate(lm.group, i, c)
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
    generated = {J: pieces[J].sub for J in subsets}
    for J in subsets:
        for K in subsets:
            if J < K:
                merged = generated[J].sum(generated[K])
                rep.check(merged.dim == generated[J].dim and generated[K].dim < generated[J].dim,
                          what="strict-inclusion", small=subset_tag(K), large=subset_tag(J))
    total = 0
    nonzero = 0
    for J in subsets:
        piece = pieces[J]
        total += piece.dim
        nonzero += piece.dim > 0
        rep.check(piece.dim == generated[J].dim - piece.prime_dim, what="quotient-dim", J=subset_tag(J))
        rep.witness(J=subset_tag(J), dim=piece.dim, sub_dim=generated[J].dim)
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
        np.array_equal(empty_piece.project(lm.handle.apply(lbl, lm.unit())), base)
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
        eta = lm.alternating_sum(J)
        wJ = datum.longest_element(J)
        candidates = []
        predicted = 0
        for w in datum.y_set(J):
            tail = wJ * w.inverse()
            predicted += q_a ** tail.length
            weta = lm.act_weyl(w, eta)
            for u_word in unipotent_words(lm.group, tail):
                candidates.append(piece.project(lm.act(u_word, weta)))
            for ri in datum.positive_indices:
                if ri in set(datum.phi_minus(tail)):
                    continue
                for c in lm.field.elements():
                    if c == 0:
                        continue
                    fixed = np.array_equal(piece.project(lm.act([(ri, c)], weta)), piece.project(weta))
                    rep.check(fixed, what="complement-fixes-translate",
                              J=subset_tag(J), w=word_tag(w), root=ri, c=c)
        rank = Subspace(piece.dim, lm.ell, np.array(candidates)).dim
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
    values = lm.values()
    pieces = lm.filtration()
    q_a = lm.field.order
    for K in datum.all_subsets():
        flags, _ = lm.parabolic(K)
        rep.check(len(flags) == datum.poincare_sum(K, q_a), what="coset-count", K=subset_tag(K))
        fK = lm.parabolic_invariant_vector(K, values)
        for name, word in lm.parabolic_test_words(K):
            rep.check(np.array_equal(lm.act(word, fK), fK), what="invariance",
                      K=subset_tag(K), generator=name)
        spun = spin(lm.handle, [fK])
        rep.check(spun.dim == len(flags), what="generated-dimension",
                  K=subset_tag(K), dim=spun.dim, cosets=len(flags))
        translates = []
        for w in datum.min_coset_reps(K):
            wfK = lm.act_weyl(w, fK)
            for u_word in unipotent_words(lm.group, w.inverse()):
                translates.append(lm.act(u_word, wfK))
        rank = Subspace(lm.dim, lm.ell, np.array(translates)).dim
        rep.check(rank == len(translates) == len(flags), what="translate-basis",
                  K=subset_tag(K), rank=rank)
    for J in datum.all_subsets():
        Jp = frozenset(range(datum.rank)) - J
        flags, handle = lm.parabolic(Jp)
        D = lm.parabolic_alternating_sum(J)
        EpJ = spin(handle, [D])
        piece = pieces[J]
        rep.check(EpJ.dim == piece.dim, what="model-dimension",
                  J=subset_tag(J), model=EpJ.dim, subquotient=piece.dim)
        wJ = datum.longest_element(J)
        translates = []
        predicted = 0
        for w in datum.y_set(J):
            tail = wJ * w.inverse()
            predicted += q_a ** tail.length
            wD = lm.act(weyl_word(lm.group, w), D, handle)
            for u_word in unipotent_words(lm.group, tail):
                translates.append(lm.act(u_word, wD, handle))
        rank = Subspace(len(flags), lm.ell, np.array(translates)).dim
        rep.check(rank == len(translates) == predicted == EpJ.dim, what="model-basis",
                  J=subset_tag(J), rank=rank, predicted=predicted)
        model_series = composition_series(restrict(handle, EpJ), seed=seed)
        piece_series = composition_series(piece.handle, seed=seed)
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
        base_vec = lm.u_sum(wJ, values, eta)
        out = np.zeros(lm.dim, dtype=np.int64)
        for w in datum.subgroup_elements(J):
            out = (out + lm.sign(w) * lm.act_weyl(w, base_vec)) % lm.ell
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
        eta = lm.alternating_sum(J)
        wJ = datum.longest_element(J)
        for w in datum.y_set(J):
            tail = wJ * w.inverse()
            roots = datum.phi_minus(tail)
            t = len(roots)
            if t == 0:
                rep.vacuous += 1
                continue
            weta = lm.act_weyl(w, eta)
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
        eta = lm.alternating_sum(J)
        wJ = datum.longest_element(J)
        ys = datum.y_set(J)
        translates = {
            w.perm: piece.project(lm.theta(wJ * w.inverse(), 0, hi, lo, lm.act_weyl(w, eta)))
            for w in ys
        }
        configs = [("all", list(ys))]
        if len(ys) > 1:
            configs += [("single:%s" % word_tag(w), [w]) for w in ys]
        for tag, Y in configs:
            xi = np.zeros(piece.dim, dtype=np.int64)
            for w in Y:
                xi = (xi + translates[w.perm]) % lm.ell
            if not np.any(xi):
                rep.vacuous += 1
                rep.note("combination vanished for J=%s (%s)" % (subset_tag(J), tag))
                continue
            M = spin(piece.handle, [xi])
            found = None
            for w in ys:
                for level_name, vals in (("a", lo), ("b", hi)):
                    target = piece.project(lm.u_sum(wJ * w.inverse(), vals, lm.act_weyl(w, eta)))
                    if np.any(target) and M.contains(target):
                        found = (word_tag(w), level_name)
                        break
                if found:
                    break
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
        ys = {y.perm: y for y in datum.y_set(J)}
        for w in ys.values():
            for i in range(datum.rank):
                sw = datum.simple_reflection(i) * w
                if sw.length > w.length and sw.perm in ys:
                    pairs.append((J, w, i))
    if not pairs:
        return rep.skip("no admissible translate pairs exist for this configuration")
    for J, w, i in pairs:
        piece = pieces[J]
        eta = lm.alternating_sum(J)
        wJ = datum.longest_element(J)
        sw = datum.simple_reflection(i) * w
        seed_vec = piece.project(lm.u_sum(wJ * sw.inverse(), lo, lm.act_weyl(sw, eta)))
        M = spin(piece.handle, [seed_vec])
        target = piece.project(lm.u_sum(wJ * w.inverse(), hi, lm.act_weyl(w, eta)))
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
        frak = lm.parabolic_invariant_vector(Jp, values)
        lead = wJ * vJ.inverse()
        # (a) the closed form of the opposite-subset generator
        lhs = lm.socle_generator(sigma_Jp, values)
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
        fJ = lm.socle_generator(J, values)
        SJ = spin(lm.handle, [fJ])
        verdict = meataxe_irreducible(restrict(lm.handle, SJ), seed=seed)
        rep.check(verdict.irreducible, what="generated-irreducible", J=subset_tag(J), dim=SJ.dim)
        fixed_in = SJ.intersect(u_fixed)
        rep.check(fixed_in.dim == 1 and u_fixed.contains(fJ), what="unique-fixed-line",
                  J=subset_tag(J), dim=fixed_in.dim)
        for name, word in lm.parabolic_test_words(J):
            img = lm.act(word, fJ)
            pivot = int(np.flatnonzero(fJ)[0])
            lam = img[pivot] * pow(int(fJ[pivot]), lm.ell - 2, lm.ell) % lm.ell
            rep.check(np.array_equal(img, lam * fJ % lm.ell), what="line-stabilized",
                      J=subset_tag(J), generator=name)
        for j in sorted(full - J):
            sj = datum.simple_indices[j]
            neg = datum.root_index[tuple(-x for x in datum.roots[sj])]
            img = lm.act([(neg, 1)], fJ)
            pivot = int(np.flatnonzero(fJ)[0])
            lam = img[pivot] * pow(int(fJ[pivot]), lm.ell - 2, lm.ell) % lm.ell
            rep.check(not np.array_equal(img, lam * fJ % lm.ell), what="line-moved-outside",
                      J=subset_tag(J), j=j + 1)
        # (d) unique minimal submodule of the parabolic model
        _, phandle = lm.parabolic(Jp)
        D = lm.parabolic_alternating_sum(J)
        EpJ = spin(phandle, [D])
        # socle_simple_check reads the fixed space of the unipotent labels
        sub = restrict(phandle, EpJ, phandle.spin_labels + lm.unipotent_labels())
        vec = lm.act(weyl_word(lm.group, vJ), D, phandle)
        cand_amb = lm.sign(wJ) * lm.u_sum(lead, values, vec, handle=phandle) % lm.ell
        rep.check(np.any(cand_amb), what="candidate-nonzero", J=subset_tag(J))
        cand = EpJ.coords(cand_amb)
        socle_res = socle_simple_check(sub, cand, lm.unipotent_labels(), seed=seed)
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
        sub_series = composition_series(piece.handle, seed=seed)
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
    fixed = lm.unipotent_fixed_space()
    for k in range(FIXED_POINT_TRIALS):
        v = rng.integers(0, lm.ell, size=lm.dim)
        while not np.any(v):
            v = rng.integers(0, lm.ell, size=lm.dim)
        S = spin(lm.handle, [v % lm.ell])
        # S meets the fixed space iff dim(S + F) < dim S + dim F
        rep.check(S.sum(fixed).dim < S.dim + fixed.dim, what="fixed-vector-exists", trial=k)
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

    The eight arguments are the whole configuration: the group type, the
    base field order q (a prime power), the field level a >= 1 of the
    module, the second level b of the two-level suites (a multiple of a, at
    least a; None for none), the coefficient characteristic (a prime; the
    field characteristic by default), the coset budget (>= 1), the run seed
    (>= 0) and the sample count of the sampled structure sweeps (>= 1).  A
    bad value raises ValueError here.  Construction builds no module, and
    nothing is reassigned afterwards.
    """

    def __init__(self, kind: str, q: int, a: int = 1, b: Optional[int] = None,
                 char: Optional[int] = None, budget: int = 200_000, seed: int = 0,
                 samples: int = 1000):
        root_datum(kind)  # raises ValueError for an unknown type
        p, e = factor_prime_power(q)
        if a < 1:
            raise ValueError("level a must be positive")
        if b is not None and (b < a or b % a):
            raise ValueError("level b must be a multiple of a, at least a")
        char = p if char is None else char
        if not is_prime(char):
            raise ValueError("coefficient characteristic must be prime")
        if budget < 1:
            raise ValueError("budget must be positive")
        if seed < 0:
            raise ValueError("seed must be non-negative")
        if samples < 1:
            raise ValueError("samples must be positive")
        self.kind, self.q, self.a, self.b, self.char = kind, q, a, b, char
        self.budget, self.seed, self.samples = budget, seed, samples
        self.p, self.e = p, e
        self.defining = char == p

    @property
    def has_ext(self) -> bool:
        return self.b is not None and self.b != self.a

    @cached_property
    def base(self) -> LevelModule:
        """The coset module over the level-a field."""
        return LevelModule(self.kind, self.q**self.a, self.char, self.budget)

    @cached_property
    def ext(self) -> LevelModule:
        """The same module family over the level-b field."""
        if not self.has_ext:
            raise ValueError("configuration has no extension level")
        return LevelModule(self.kind, self.q**self.b, self.char, self.budget)

    def sub_values(self) -> List[int]:
        """The level-a field, embedded in the level-b field."""
        table = embedding_table(self.p, self.e * self.a, self.e * self.b)
        return sorted(set(table))

    def transversal_reps(self) -> List[int]:
        """Additive coset representatives of the embedded level-a field."""
        return list(additive_transversal(self.p, self.e * self.a, self.e * self.b))

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
            return False, "requires an extension level b strictly above a"
        if spec.scope != "datum":
            order = self.q ** (self.b if spec.scope == "ext" else self.a)
            if order > MAX_ORDER:
                return False, "field order %d exceeds the matrix-arithmetic bound %d" % (order, MAX_ORDER)
        return True, ""

    def run(self, name: str) -> SuiteReport:
        spec = SUITES[name]
        ok, reason = self.applicable(name)
        if not ok:
            return SuiteReport(name, spec.claim).skip(reason)
        start = time.perf_counter()
        rep = spec.fn(self, self.seed + sorted(SUITES).index(name))
        rep.seconds = time.perf_counter() - start
        return rep

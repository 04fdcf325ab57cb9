"""Root systems of types A1, A2, A3, B2 and their Weyl groups.

Roots are integer coordinate vectors in the simple-root basis.  A Weyl
element is stored as a permutation of the full root list together with one
cached reduced word (the shortlex-smallest one: breadth-first by length,
then lexicographic in the generator indices).  Lengths are read off as
#(positive roots sent negative), and right descents are computed literally
as l(w s) < l(w); the root-sign test w(alpha_s) < 0 picks out the same set,
which a test asserts, but the length comparison is what the code trusts.

For B2 the first simple root is short (e1 - e2) and the second long (2 e2),
matching the symplectic matrix realization used elsewhere in the package.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

__all__ = ["root_datum", "RootDatum", "WeylElement", "CARTAN"]

# cartan[i][j] = pairing of alpha_j against the coroot of alpha_i, so that
# s_i(alpha_j) = alpha_j - cartan[i][j] * alpha_i.
CARTAN: Dict[str, List[List[int]]] = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B2": [[2, -2], [-1, 2]],
}


def _reflect(cartan, i: int, root: Tuple[int, ...]) -> Tuple[int, ...]:
    pair = sum(c * cartan[i][j] for j, c in enumerate(root))
    out = list(root)
    out[i] -= pair
    return tuple(out)


class WeylElement:
    """One Weyl group element: a permutation of the root list."""

    __slots__ = ("datum", "perm", "word", "length", "_hash")

    def __init__(self, datum: "RootDatum", perm: Tuple[int, ...], word: Tuple[int, ...]):
        self.datum = datum
        self.perm = perm
        self.word = word
        self.length = sum(1 for i in datum.positive_indices if perm[i] >= datum.n_pos)
        self._hash = hash(perm)
        assert self.length == len(word)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return self.datum.from_perm(tuple(self.perm[j] for j in other.perm))

    def inverse(self) -> "WeylElement":
        inv = [0] * len(self.perm)
        for i, j in enumerate(self.perm):
            inv[j] = i
        return self.datum.from_perm(tuple(inv))

    def __eq__(self, other) -> bool:
        return self.perm == other.perm

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "w[%s]" % ("".join(str(i + 1) for i in self.word) or "e")


class RootDatum:
    def __init__(self, kind: str):
        if kind not in CARTAN:
            raise ValueError("unsupported type %r (have %s)" % (kind, sorted(CARTAN)))
        self.kind = kind
        self.cartan = CARTAN[kind]
        self.rank = len(self.cartan)

        simples = [tuple(1 if j == i else 0 for j in range(self.rank)) for i in range(self.rank)]
        roots = set(simples)
        while True:
            new = {_reflect(self.cartan, i, r) for r in roots for i in range(self.rank)}
            if new <= roots:
                break
            roots |= new
        pos = sorted((r for r in roots if sum(r) > 0), key=lambda r: (sum(r), r))
        self.positive_roots: List[Tuple[int, ...]] = pos
        self.roots: List[Tuple[int, ...]] = pos + [tuple(-c for c in r) for r in pos]
        self.n_pos = len(pos)
        self.positive_indices = range(self.n_pos)
        self.root_index = {r: i for i, r in enumerate(self.roots)}
        self.simple_indices = [self.root_index[s] for s in simples]

        self._refl_perms = [
            tuple(self.root_index[_reflect(self.cartan, i, r)] for r in self.roots)
            for i in range(self.rank)
        ]
        self._by_perm: Dict[Tuple[int, ...], WeylElement] = {}
        self.identity = self.from_perm(tuple(range(len(self.roots))))
        self.elements: List[WeylElement] = self._enumerate()
        self._longest_cache: Dict[FrozenSet[int], WeylElement] = {}

    def from_perm(self, perm: Tuple[int, ...]) -> WeylElement:
        el = self._by_perm.get(perm)
        if el is None:
            el = WeylElement(self, perm, self._shortlex_word(perm))
            self._by_perm[perm] = el
        return el

    def _shortlex_word(self, perm: Tuple[int, ...]) -> Tuple[int, ...]:
        # Greedily peel the smallest left descent: i is a left descent of w
        # exactly when w^{-1}(alpha_i) is negative, and taking the smallest
        # admissible first letter at every step yields the lexicographically
        # smallest reduced word (read left to right).
        word = []
        cur = list(perm)
        while True:
            inv_at = {r: j for j, r in enumerate(cur)}
            for i in range(self.rank):
                if inv_at[self.simple_indices[i]] >= self.n_pos:
                    break
            else:
                break
            word.append(i)
            refl = self._refl_perms[i]
            cur = [refl[r] for r in cur]  # cur := s_i * cur
        assert cur == list(range(len(self.roots)))
        return tuple(word)

    def simple_reflection(self, i: int) -> WeylElement:
        return self.from_perm(self._refl_perms[i])

    def _enumerate(self) -> List[WeylElement]:
        perms = {self.identity.perm}
        frontier = [self.identity.perm]
        while frontier:
            nxt = []
            for p in frontier:
                for refl in self._refl_perms:
                    cand = tuple(p[j] for j in refl)
                    if cand not in perms:
                        perms.add(cand)
                        nxt.append(cand)
            frontier = nxt
        out = [self.from_perm(p) for p in perms]
        out.sort(key=lambda w: (w.length, w.word))
        return out

    # -- descents and distinguished coset representatives

    def right_descents(self, w: WeylElement) -> FrozenSet[int]:
        return frozenset(
            i for i in range(self.rank) if (w * self.simple_reflection(i)).length < w.length
        )

    def left_descents(self, w: WeylElement) -> FrozenSet[int]:
        return frozenset(
            i for i in range(self.rank) if (self.simple_reflection(i) * w).length < w.length
        )

    def subgroup_elements(self, J: Iterable[int]) -> List[WeylElement]:
        J = frozenset(J)
        return [w for w in self.elements if set(w.word) <= J]

    def longest_element(self, J: Iterable[int]) -> WeylElement:
        J = frozenset(J)
        if J not in self._longest_cache:
            sub = self.subgroup_elements(J)
            top = max(sub, key=lambda w: w.length)
            assert sum(1 for w in sub if w.length == top.length) == 1
            self._longest_cache[J] = top
        return self._longest_cache[J]

    def min_coset_reps(self, J: Iterable[int]) -> List[WeylElement]:
        """Minimal-length representatives of the cosets w W_J."""
        J = frozenset(J)
        reps = [w for w in self.elements if not (self.right_descents(w) & J)]
        assert len(reps) * len(self.subgroup_elements(J)) == len(self.elements)
        return reps

    def y_set(self, J: Iterable[int]) -> List[WeylElement]:
        """Members w of W^J whose translate w*w_J has right descent set exactly J."""
        J = frozenset(J)
        wJ = self.longest_element(J)
        return [w for w in self.min_coset_reps(J) if self.right_descents(w * wJ) == J]

    def phi_minus(self, w: WeylElement) -> List[int]:
        """Positive-root indices sent negative by w, tallest first (lex tie-break)."""
        idx = [i for i in self.positive_indices if w.perm[i] >= self.n_pos]
        idx.sort(key=lambda i: (-sum(self.roots[i]), self.roots[i]))
        return idx

    def w0_factorization(self, J: Iterable[int]):
        """Split w_0 = v_J * w_J * w_{J'}, lengths adding; returns (v_J, w_J, w_J')."""
        J = frozenset(J)
        w0 = self.longest_element(range(self.rank))
        wJ = self.longest_element(J)
        Jp = frozenset(range(self.rank)) - J
        wJp = self.longest_element(Jp)
        vJ = w0 * wJp.inverse() * wJ.inverse()
        assert vJ * wJ * wJp == w0
        assert vJ.length + wJ.length + wJp.length == w0.length
        return vJ, wJ, wJp

    def sigma(self) -> Dict[int, int]:
        """The permutation of simple indices induced by conjugation with w_0."""
        w0 = self.longest_element(range(self.rank))
        out = {}
        for i, si in enumerate(self.simple_indices):
            image = w0.perm[si]
            assert image >= self.n_pos
            out[i] = self.roots.index(tuple(-c for c in self.roots[image]))
            out[i] = self.simple_indices.index(out[i])
        return out

    def poincare_sum(self, J: Iterable[int], q: int) -> int:
        """Sum of q^l(w) over minimal coset representatives of W/W_J."""
        return sum(q**w.length for w in self.min_coset_reps(J))

    def all_subsets(self) -> List[FrozenSet[int]]:
        out = []
        for mask in range(1 << self.rank):
            out.append(frozenset(i for i in range(self.rank) if mask >> i & 1))
        return sorted(out, key=lambda s: (len(s), sorted(s)))


@lru_cache(maxsize=None)
def root_datum(kind: str) -> RootDatum:
    return RootDatum(kind)


# -- combinatorial sweeps ----------------------------------------------------


def check_reflection_transfer(datum: RootDatum):
    """Sweep: if s fixes the set of positives sent negative by w and ws > w,
    then ws = tw for a simple reflection t.  Returns (checked, vacuous, bad)."""
    checked = vacuous = 0
    bad = []
    for w in datum.elements:
        phi = set(datum.phi_minus(w))
        for i in range(datum.rank):
            s = datum.simple_reflection(i)
            if (w * s).length <= w.length:
                vacuous += 1
                continue
            if {s.perm[r] for r in phi} != phi:
                vacuous += 1
                continue
            checked += 1
            ws = w * s
            if not any(datum.simple_reflection(t) * w == ws for t in range(datum.rank)):
                bad.append((w.word, i))
    return checked, vacuous, bad


def check_stability_separation(datum: RootDatum):
    """Sweep over J: for w, sw both in Y^J with sw > w, the reflection s must
    move the set of positives sent negative by w_J w^{-1}."""
    checked = vacuous = 0
    bad = []
    for J in datum.all_subsets():
        wJ = datum.longest_element(J)
        yset = set(datum.y_set(J))
        for w in sorted(yset, key=lambda w: w.word):
            base = wJ * w.inverse()
            phi = set(datum.phi_minus(base))
            for i in range(datum.rank):
                s = datum.simple_reflection(i)
                sw = s * w
                if sw not in yset or sw.length <= w.length:
                    vacuous += 1
                    continue
                checked += 1
                if {s.perm[r] for r in phi} == phi:
                    bad.append((sorted(J), w.word, i))
    return checked, vacuous, bad

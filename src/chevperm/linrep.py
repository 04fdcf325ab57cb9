"""Exact module arithmetic over prime fields GF(l).

Vectors are numpy int64 arrays mod l; subspaces are canonical reduced
row-echelon bases, so equal subspaces have equal representations.  One
incremental routine, `Subspace._add`, keeps that canonical RREF as vectors
arrive; spinning and kernels (`nullspace`) are built on it.  A
ModuleHandle bundles an ambient dimension with invertible labelled actions
(permutations of a basis, or dense matrices) plus the sublist of labels
used for submodule closure.  An action is applied only through `images`
(one vector, or each row of a block: x A^T; on a permutation an index
gather), and a permutation label's point map is read through `perm`.
`transpose` gives the transpose module.  On top of that: spinning, fixed
spaces of permutation labels (orbit sums), one fixed vector in the
submodule that a vector generates under an l-group (a walk
x <- (u - 1).x that ends because the augmentation ideal of that group
algebra is nilpotent; `fixed_vector` argues it), submodules, an
irreducibility test with certified verdicts,
recursive composition series, and a socle check that enumerates the lines
of a p-group fixed space.

`restrict(h, S)`, the module on an invariant subspace S checked under every
label, is the one construction of a smaller module; it stores spin-label
actions only.  No quotient is built: composition series reads M/W as its
dual, the submodule W^perp of the transpose module, which has composition
factors of the same dimensions.  `TriangularBasis` gives coordinates with
no elimination in a basis whose rows have distinct leading columns, such as
the filtration's basis of k[G/B].

The irreducibility test is the Holt-Rees MeatAxe: a random algebra element
A, an irreducible factor p of the minimal polynomial of a vector under A
with dim ker p(A) = deg p (a good factor), one spin of a vector of
ker p(A) and one of ker p(A)^T in the transpose module decide, and a
proper spin gives a witness submodule.  `meataxe_irreducible` argues why;
`gf.irreducible_factors` supplies the factors.
"""

from __future__ import annotations

import bisect
import collections
import itertools
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .gf import irreducible_factors

__all__ = [
    "MeatAxeBudgetError",
    "Subspace",
    "ModuleHandle",
    "spin",
    "fixed_space",
    "fixed_vector",
    "restrict",
    "TriangularBasis",
    "meataxe_irreducible",
    "composition_series",
    "socle_simple_check",
    "Verdict",
]


class MeatAxeBudgetError(RuntimeError):
    """The random search exhausted its budget without a usable element."""


# the MeatAxe draws algebra elements as sums of words of at most this many
# labels
MEATAXE_MAX_WORD = 8


def nullspace(M: np.ndarray, l: int) -> np.ndarray:
    """Basis (rows) of the right kernel of M mod l."""
    M = np.asarray(M, dtype=np.int64)
    return _annihilator(Subspace(M.shape[1], l, M))


def _annihilator(S: "Subspace") -> np.ndarray:
    """Rows spanning {x : S.rows x = 0}: the identity on the free columns
    and -R^T on the pivot columns, R the basis rows restricted to the free
    columns."""
    free = S.free
    out = np.zeros((len(free), S.n), dtype=np.int64)
    out[:, free] = np.eye(len(free), dtype=np.int64)
    out[:, list(S.pivots)] = (-S.rows[:, free].T) % S.l
    return out


class Subspace:
    """A subspace of GF(l)^n held as a canonical RREF basis.

    `_add` is the one elimination routine: it reduces a vector against the
    basis, scales it to a leading 1, clears its pivot column from the other
    rows and inserts it at its sorted pivot position, so `rows` and `pivots`
    are the canonical RREF after every step.  The reduction is skipped for a
    vector that is zero on every pivot and the clearing for a column that is
    zero already, so rows that are an RREF already go in without products.  The rows live in a buffer that
    grows by doubling, capped at n rows, and is trimmed to the basis once
    the subspace is built; an intp array of the pivots is kept in step with
    it, for the gathers of `reduce` and `coords`.  Vectors are reduced mod l
    once where they enter (the rows given here, the seeds of `spin`), so
    `_add` takes entries in [0, l): the images of such vectors under the
    actions stay in [0, l).
    """

    def __init__(self, n: int, l: int, rows: Optional[np.ndarray] = None):
        self.n = n
        self.l = l
        self.pivots: Tuple[int, ...] = ()
        rows = np.zeros((0, n), dtype=np.int64) if rows is None else np.asarray(rows, dtype=np.int64) % l
        self._buf = np.zeros((min(n, len(rows)), n), dtype=np.int64)
        self._piv = np.zeros(len(self._buf), dtype=np.intp)
        for v in rows:
            self._add(v)
        self._trim()

    def _add(self, v: np.ndarray) -> Optional[np.ndarray]:
        """Add a vector with entries in [0, l) to the span; returns its new
        basis row (not a view of the buffer), or None if the vector was
        already in the span."""
        k = self.dim
        c = v[self._piv[:k]]
        if c.any():
            v = (v - c @ self._buf[:k]) % self.l
        nz = v.nonzero()[0]
        if not len(nz):
            return None
        p = int(nz[0])
        if v[p] != 1:
            v = (v * pow(int(v[p]), -1, self.l)) % self.l
        R = self._buf[:k]
        if R[:, p].any():
            R -= np.outer(R[:, p], v)
            R -= (R // self.l) * self.l  # R %= l, but numpy's int64 remainder is slower
        if k == len(self._buf):
            size = min(self.n, max(1, 2 * k))
            grown = np.zeros((size, self.n), dtype=np.int64)
            grown[:k] = R
            self._buf = grown
            grown = np.zeros(size, dtype=np.intp)
            grown[:k] = self._piv[:k]
            self._piv = grown
        i = bisect.bisect(self.pivots, p)
        self._buf[i + 1 : k + 1] = self._buf[i:k]
        self._buf[i] = v
        self._piv[i + 1 : k + 1] = self._piv[i:k]
        self._piv[i] = p
        self.pivots = self.pivots[:i] + (p,) + self.pivots[i:]
        return v

    def _trim(self) -> "Subspace":
        """Release the unused buffer rows once no more vectors will arrive."""
        if len(self._buf) > self.dim:
            self._buf = self.rows.copy()
            self._piv = self._piv[: self.dim].copy()
        return self

    @property
    def rows(self) -> np.ndarray:
        return self._buf[: self.dim]

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def free(self) -> List[int]:
        """The non-pivot columns, ascending."""
        pivots = set(self.pivots)
        return [j for j in range(self.n) if j not in pivots]

    # reduce, contains and coords take one vector or a block of row vectors

    def reduce(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.int64) % self.l
        if self.dim:
            v = (v - v[..., self._piv[: self.dim]] @ self.rows) % self.l
        return v

    def contains(self, v) -> bool:
        """Is the vector (every row of the block) in the subspace?"""
        return not np.any(self.reduce(v))

    def coords(self, v: np.ndarray) -> np.ndarray:
        assert self.contains(v), "vector outside the subspace"
        return np.asarray(v, dtype=np.int64)[..., self._piv[: self.dim]] % self.l

    def intersect(self, other: "Subspace") -> "Subspace":
        stacked = np.vstack([self.rows, other.rows])
        left_kernel = nullspace(stacked.T, self.l)
        return Subspace(self.n, self.l, (left_kernel[:, : self.dim] @ self.rows) % self.l)

    def perp(self) -> "Subspace":
        return Subspace(self.n, self.l, _annihilator(self))

    def __eq__(self, other) -> bool:
        return self.dim == other.dim and np.array_equal(self.rows, other.rows)

    def __repr__(self) -> str:
        return "Subspace(dim=%d of %d, mod %d)" % (self.dim, self.n, self.l)


class TriangularBasis:
    """n vectors of GF(l)^n, the rows of T, and a grade, an integer >= 0,
    on each column.  Each row is asserted to have a unique column of
    greatest grade, its lead, and the leads to be the n columns: so the rows
    are a basis, triangular in the leads' order by grade.  `coords` solves
    Y T = X by substitution, a grade at a time from the top: X's entries at
    the top grade are Y's at the rows led there times the leads' values;
    those rows times Y are subtracted, and the next grade is the top one.
    Vectors are triples (vector or row, column, value), values in [0, l)."""

    def __init__(self, l: int, row: np.ndarray, col: np.ndarray, val: np.ndarray, grade: np.ndarray):
        n, order = len(grade), np.lexsort((grade[col], row))
        self.row, self.col, self.val = row, col, val = row[order], col[order], val[order]
        top = np.flatnonzero(np.append(row[1:] != row[:-1], True))  # each row's last entry
        tie = (row[1:] == row[:-1]) & (grade[col[1:]] == grade[col[:-1]])  # entry i + 1 ties with entry i
        assert not tie[top[top > 0] - 1].any(), "a row has no unique leading column"
        assert np.array_equal(row[top], np.arange(n)) and np.all(np.bincount(col[top], minlength=n) == 1), \
            "the leading columns do not cover the columns"
        self.l, self.grade, self.lead_value = l, grade, val[top]
        self.row_of = np.argsort(col[top], kind="stable")
        self.scale = np.array([pow(u, -1, l) for u in self.lead_value.tolist()], dtype=np.int64)
        rest = np.delete(np.arange(len(row)), top)  # row r's are rest[indptr[r]:indptr[r + 1]]
        self.rest_col, self.rest_val, self.indptr = col[rest], val[rest], np.append(0, top - np.arange(n))
        self.grades = np.flatnonzero(np.bincount(grade))[::-1]

    def coords(self, vec: np.ndarray, col: np.ndarray, val: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """X -> Y, Y T = X, as triples: (vector, row, value) for Y's nonzero entries."""
        l, n = self.l, len(self.grade)
        out = [(vec[:0], col[:0], val[:0])]
        for g in self.grades:
            at = self.grade[col] == g
            key = vec[at] * n + col[at]
            order = np.argsort(key, kind="stable")
            key, x = key[order], val[at][order]
            first = np.flatnonzero(np.diff(key, prepend=-1))
            x = np.add.reduceat(x, first) % l
            key, x = key[first][x != 0], x[x != 0]
            v, r = key // n, self.row_of[key % n]
            y = x * self.scale[r] % l
            out.append((v, r, y))
            # less y times the rows' entries below their leads (the leads cancel)
            lo, counts = self.indptr[r], self.indptr[r + 1] - self.indptr[r]
            idx = np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)
            vec = np.concatenate([vec[~at], np.repeat(v, counts)])
            col = np.concatenate([col[~at], self.rest_col[idx]])
            val = np.concatenate([val[~at], np.repeat(l - y, counts) * self.rest_val[idx] % l])
        return tuple(np.concatenate(parts) for parts in zip(*out))


def line_representatives(basis: np.ndarray, l: int):
    """One representative per 1-dimensional subspace of the row span: the
    combinations c @ basis whose first nonzero coefficient is 1, in
    lexicographic order of c.  So the lines led by the last row come first,
    and the first (l^j - 1)/(l - 1) lines are those of the span of the last
    j rows."""
    basis = np.asarray(basis, dtype=np.int64)
    for i in reversed(range(len(basis))):
        for tail in itertools.product(range(l), repeat=len(basis) - 1 - i):
            yield (basis[i] + np.array(tail, dtype=np.int64) @ basis[i + 1 :]) % l


class ModuleHandle:
    """An exact GF(l)-module with labelled invertible actions.

    `actions` maps label -> ("perm", fwd, inv) with index arrays, or
    ("mat", M, None) with a dense matrix, and only the handle's methods
    unpack it: `images` applies an action, `perm` reads a permutation
    label's point map and `transpose` builds the transpose module.
    `spin_labels` names the actions that generate the acting group; closure
    operations use exactly those.
    """

    def __init__(self, dim: int, l: int, spin_labels: Sequence[Hashable]):
        self.dim = dim
        self.l = l
        self.actions: Dict[Hashable, tuple] = {}
        self.spin_labels = list(spin_labels)

    def add_perm(self, label: Hashable, perm: np.ndarray) -> None:
        perm = np.asarray(perm, dtype=np.int64)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(len(perm))
        assert len(perm) == self.dim and np.array_equal(perm[inv], np.arange(self.dim))
        self.actions[label] = ("perm", perm, inv)

    def add_matrix(self, label: Hashable, M: np.ndarray) -> None:
        M = np.asarray(M, dtype=np.int64) % self.l
        assert M.shape == (self.dim, self.dim)
        self.actions[label] = ("mat", M, None)

    def images(self, label: Hashable, x: np.ndarray) -> np.ndarray:
        """x A^T: the image of a vector, or of each row of a block."""
        kind, fwd, inv = self.actions[label]
        if kind == "perm":
            return x[inv] if x.ndim == 1 else x[:, inv]  # x[..., inv] is slower on one vector
        return (x @ fwd.T) % self.l

    def perm(self, label: Hashable) -> np.ndarray:
        """The point map of a permutation label: e_i goes to e_perm[i]."""
        kind, fwd, _ = self.actions[label]
        assert kind == "perm", "%r is not one of the permutation labels" % (label,)
        return fwd

    def transpose(self) -> "ModuleHandle":
        """The transpose module: each spin label acts by A^T.  A permutation
        P has P^T = P^-1, so its label keeps the arrays with fwd and inv
        swapped; a matrix label keeps a view of A^T (no action matrix is
        ever written), so `images` reads x A on A itself."""
        out = ModuleHandle(self.dim, self.l, self.spin_labels)
        for label in self.spin_labels:
            kind, fwd, inv = self.actions[label]
            out.actions[label] = ("perm", inv, fwd) if kind == "perm" else ("mat", fwd.T, None)
        return out

    def basis_vector(self, i: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.int64)
        v[i] = 1
        return v


# -- closure & friends -------------------------------------------------------


def spin(handle: ModuleHandle, seeds: Iterable[np.ndarray]) -> Subspace:
    """Smallest subspace containing the seed vectors and closed under the
    spin labels (hence under the group they generate).  Deterministic."""
    S = Subspace(handle.dim, handle.l)
    queue = collections.deque()
    for s in seeds:
        added = S._add(np.asarray(s, dtype=np.int64) % handle.l)
        if added is not None:
            queue.append(added)
    while queue:
        v = queue.popleft()
        for label in handle.spin_labels:
            added = S._add(handle.images(label, v))
            if added is not None:
                queue.append(added)
            if S.dim == S.n:
                return S._trim()
    return S._trim()


def fixed_space(handle: ModuleHandle, labels: Sequence[Hashable]) -> Subspace:
    """The fixed space of the group that the labels, each a permutation,
    generate: the span of its orbit indicators.  Minima propagate along the
    labels' index arrays until stable; then root is constant on each label's
    cycles, hence on orbits, and root[x] <= x is the orbit's smallest point.
    Disjoint indicators led by their smallest points are already the RREF."""
    fwds = [handle.perm(label) for label in labels]
    points = np.arange(handle.dim)
    root, before = points.copy(), None
    while not np.array_equal(root, before):
        before = root.copy()
        for fwd in fwds:
            np.minimum(root, root[fwd], out=root)
    smallest = points[root == points]
    return Subspace(handle.dim, handle.l, (root == smallest[:, None]).astype(np.int64))


def fixed_vector(handle: ModuleHandle, labels: Sequence[Hashable], v: np.ndarray) -> Optional[np.ndarray]:
    """A vector of kU.v fixed by every label, U the group that the labels
    generate; None if the walk does not stop.

    The walk sets x <- (u - 1).x for the first label u that moves x, until
    no label moves x, starting from x = v; so x = (u_t - 1)...(u_1 - 1).v
    lies in kU.v, and it is nonzero whenever v is.  Each factor u - 1 lies
    in the augmentation ideal I of kU, so x_t lies in I^t.W, W = kU.v.  When
    U is an l-group, I is the radical of kU (the trivial module is its only
    simple module), so by Nakayama the chain W > I.W > I^2.W > ... falls
    strictly until it reaches 0, and I^t.W = 0 for t >= dim W.  A moved x_t
    gives x_{t+1} != 0, so the walk stops within dim W - 1 <= dim - 1
    steps, with no elimination.  When U is not an l-group it may cycle: it
    gives up, and returns None, after dim + 1 steps.  A zero v returns zero.
    The argument needs only that U is an l-group, not that its labels are
    permutations, so matrix labels are walked alike.
    """
    x = np.asarray(v, dtype=np.int64) % handle.l
    for _ in range(handle.dim + 1):
        for label in labels:
            ux = handle.images(label, x)
            if not np.array_equal(ux, x):
                x = (ux - x) % handle.l
                break
        else:
            return x
    return None


def restrict(handle: ModuleHandle, sub: Subspace) -> ModuleHandle:
    """The module on an invariant subspace S = sub, in its basis coords.

    Every label's images img of S's rows, spin label or not, are asserted
    to satisfy C S == img on the free columns, C = img[:, pivots] (on the
    pivots S is the identity), and C is the action.  Actions are stored for
    the spin labels only, the ones spinning and the MeatAxe read.  S the
    whole space returns the handle itself.
    """
    if sub.dim == handle.dim:
        return handle
    l, pivots, free = handle.l, sub._piv[: sub.dim], sub.free
    R = sub.rows[:, free]
    coords = {}
    for label in handle.actions:
        img = handle.images(label, sub.rows)
        C = img[:, pivots]
        assert np.array_equal(C @ R % l, img[:, free]), "vector outside the subspace"
        if label in handle.spin_labels:
            coords[label] = C
    out = ModuleHandle(sub.dim, l, handle.spin_labels)
    for label in handle.spin_labels:
        out.add_matrix(label, coords.pop(label).T)  # pop: hold one matrix twice at most
    return out


# -- irreducibility ----------------------------------------------------------


@dataclass
class Verdict:
    irreducible: bool
    witness: Optional[Subspace] = None
    certificate: Dict[str, object] = field(default_factory=dict)


def _random_algebra_element(handle: ModuleHandle, rng) -> Tuple[np.ndarray, list]:
    """A random sum of up to three words of at most MEATAXE_MAX_WORD spin
    labels, each with a nonzero coefficient; returns the matrix and its
    (coefficient, labels) spec.  A word A_1...A_k is read back as its
    transpose A_k^T...A_1^T: the rows of the identity through `images`,
    last label first."""
    gens = handle.spin_labels
    nterms = int(rng.integers(1, 4))
    A = np.zeros((handle.dim, handle.dim), dtype=np.int64)
    spec = []
    for _ in range(nterms):
        coeff = int(rng.integers(1, handle.l))
        length = int(rng.integers(1, MEATAXE_MAX_WORD + 1))
        picks = [gens[int(k)] for k in rng.integers(len(gens), size=length)]
        term = np.eye(handle.dim, dtype=np.int64)
        for label in reversed(picks):
            term = handle.images(label, term)
        A = (A + coeff * term.T) % handle.l
        spec.append((coeff, [str(lbl) for lbl in picks]))
    return A, spec


def _min_poly(A: np.ndarray, v: np.ndarray, l: int) -> np.ndarray:
    """The minimal polynomial of v under A: the monic f of least degree with
    f(A) v = 0, ascending by degree.  The Krylov rows [A^i v | e_i] go into
    one Subspace of GF(l)^(2d+1); the first whose reduction vanishes on the
    left block, so that its pivot lies on the right, holds there the
    coefficients of f, up to a scalar."""
    d = len(A)
    S = Subspace(2 * d + 1, l)
    x = np.asarray(v, dtype=np.int64) % l
    for i in range(d + 1):
        row = np.zeros(2 * d + 1, dtype=np.int64)
        row[:d], row[d + i] = x, 1
        added = S._add(row)
        if S.pivots[-1] >= d:
            f = added[d : d + i + 1]
            return f * pow(int(f[-1]), -1, l) % l
        x = A @ x % l
    raise AssertionError("no annihilating polynomial of degree <= dim")


def _poly_at(A: np.ndarray, f: np.ndarray, l: int) -> np.ndarray:
    """f(A) mod l for a monic f of degree >= 1, by Horner's rule."""
    eye = np.eye(len(A), dtype=np.int64)
    B = (A + f[-2] * eye) % l
    for c in f[-3::-1]:
        B = (B @ A + c * eye) % l
    return B


def meataxe_irreducible(handle: ModuleHandle, seed: int = 0, budget: int = 200) -> Verdict:
    """Certified irreducibility test (Holt and Rees, "Testing modules for
    irreducibility", J. Austral. Math. Soc. 57, 1994).

    Each attempt draws a random algebra element A and factors m, the minimal
    polynomial of the first basis vector under A (`gf.irreducible_factors`).
    For each irreducible factor p, in ascending degree, with B = p(A): the
    last row of ker B is spun, and a proper spin is a witness (method
    `kernel-spin`).  Otherwise, if dim ker B = deg p, p is good: the last row
    of ker B^T is spun in the transpose module, and if that spin is proper
    its perp is (and is checked to be) an invariant witness
    (`transpose-kernel`); if not, the module is irreducible
    (`singular-element`).  A factor that is not good sends the attempt on to
    the next factor, and the last factor to the next attempt.  Every verdict
    from an attempt carries the element and the factor.

    Why one vector on each side decides.  Let p be good.  A acts on ker B
    as x on GF(l)[x]/(p), and ker B is one-dimensional over that field, so
    every nonzero A-invariant subspace of ker B is all of it.  A proper
    submodule N that meets ker B therefore contains it, and the kernel spin,
    inside N, is proper.  If the kernel spin is the module, no proper N
    meets ker B, so B, which maps each N into itself, is bijective on it;
    then w^T n = w^T B n' = 0 for w in ker B^T and n = B n' in N, so ker B^T
    lies in N^perp, a proper submodule of the transpose module when N != 0.
    So the spin of one nonzero vector of ker B^T is proper if and only if
    the module is reducible (Norton's criterion).  Nor can the row spun
    change the witness: ker B^T != 0 lies in the perp of every proper N,
    hence in R^perp for R the sum of them all, so R is proper, the unique
    maximal submodule; R^perp is simple in the transpose module, so every
    nonzero vector of ker B^T spins to R^perp and the witness is R.
    """
    d, l = handle.dim, handle.l
    if d == 0:
        raise ValueError("cannot test the zero module")
    if d == 1:
        return Verdict(True, certificate={"method": "dimension-1"})
    rng = np.random.default_rng(seed)
    tr = None
    for _ in range(budget):
        A, spec = _random_algebra_element(handle, rng)
        for p in irreducible_factors(_min_poly(A, handle.basis_vector(0), l), l):
            certificate = {"element": spec, "factor": p.tolist()}
            B = _poly_at(A, p, l)
            ker = nullspace(B, l)
            S = spin(handle, [ker[-1]])
            if S.dim < d:
                return Verdict(False, witness=S, certificate={"method": "kernel-spin", **certificate})
            if len(ker) != len(p) - 1:
                continue
            if tr is None:
                tr = handle.transpose()
            S = spin(tr, [nullspace(B.T, l)[-1]])
            if S.dim < d:
                witness = S.perp()
                for lbl in handle.spin_labels:
                    assert witness.contains(handle.images(lbl, witness.rows))
                assert 0 < witness.dim < d
                return Verdict(False, witness=witness, certificate={"method": "transpose-kernel", **certificate})
            return Verdict(True, certificate={"method": "singular-element", **certificate})
    raise MeatAxeBudgetError("no element with a good factor in %d attempts" % budget)


def composition_series(handle: ModuleHandle, seed: int = 0) -> List[int]:
    """Multiset (sorted list) of composition factor dimensions: those of a
    MeatAxe witness W, then those of the quotient by W, read off W^perp in
    the transpose module."""
    if handle.dim == 0:
        return []
    verdict = meataxe_irreducible(handle, seed=seed)
    if verdict.irreducible:
        return [handle.dim]
    # restrict(handle, sub) checks the witness W under every label, spin or
    # not, before the transpose side is built.  W invariant under each A
    # makes W^perp invariant under each A^T, and (M/W)^* is W^perp in the
    # transpose module; duality keeps dimensions and simplicity, so the
    # factors of W^perp have the dimensions of the quotient's
    sub = verdict.witness
    below = composition_series(restrict(handle, sub), seed=seed + 1)
    out = sorted(below + composition_series(restrict(handle.transpose(), sub.perp()), seed=seed + 1))
    assert sum(out) == handle.dim
    return out


def socle_simple_check(
    handle: ModuleHandle,
    candidate: np.ndarray,
    fixed: Subspace,
    seed: int = 0,
) -> Dict[str, object]:
    """Does the candidate vector generate the unique minimal submodule?

    Valid when `fixed` is the fixed space of a p-group acting on the module
    and l = p: every nonzero submodule then meets that fixed space in a
    nonzero vector (`fixed_vector` finds one from any generator), so
    spinning each fixed line sweeps all minimal submodules.  The caller is
    responsible for both requirements.
    """
    assert np.any(np.asarray(candidate) % handle.l), "zero socle candidate"
    C = spin(handle, [candidate])
    lines = 0
    all_contain = True
    for v in line_representatives(fixed.rows, handle.l):
        lines += 1
        S = spin(handle, [v])
        if not S.contains(C.rows):
            all_contain = False
            break
    verdict = meataxe_irreducible(restrict(handle, C), seed=seed)
    return {
        "candidate_fixed": fixed.contains(candidate),
        "fixed_dim": fixed.dim,
        "socle_dim": C.dim,
        "lines_checked": lines,
        "all_contain": all_contain,
        "irreducible": verdict.irreducible,
        "ok": bool(all_contain and verdict.irreducible),
    }

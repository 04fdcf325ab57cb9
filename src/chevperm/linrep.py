"""Exact module arithmetic over prime fields GF(l).

Vectors are numpy int64 arrays mod l; subspaces are canonical reduced
row-echelon bases, so equal subspaces have equal representations.  One
incremental routine, `Subspace._add`, keeps that canonical RREF as vectors
arrive; spinning and kernels (`nullspace`) are built on it.  A
ModuleHandle bundles an ambient dimension with invertible labelled actions
(permutations of a basis, or dense matrices) plus the sublist of labels
used for submodule closure.  An action is read only through `images` (one
vector, or each row of a block: x A^T) and `pullback` (rows A); on a
permutation each is an index gather.  `transpose` gives the transpose
module.  On top of that: spinning, fixed spaces of permutation labels (orbit
sums), one fixed vector in the submodule that a vector generates under an
l-group of permutation labels (a walk x <- (u - 1).x that ends because the
augmentation ideal of that group algebra is nilpotent; `fixed_vector`
argues it), subquotients, an irreducibility test with certified verdicts,
recursive composition series, and a socle check that enumerates the lines
of a p-group fixed space.

`restrict` is the one subquotient construction, on whole matrices, exact
mod l: restrict(h, S) is the submodule S, restrict(h, S, N) is S / N, and
restrict(h, None, N) is the quotient by N, S = None being the whole space.
It checks that the images of S's rows lie in S for every label in the
input handle's `actions`, spin or not, on the columns where that does not
hold by construction (the whole space has none, so it checks nothing), but
builds and stores an action only for the spin labels, the only ones that
spinning, the MeatAxe and composition series read.  That N lies in S is
checked too, but N's invariance is a precondition: composition series
restricts to N, which checks it, before it divides by N, and the
filtration argues it by downward induction.

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
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

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
    "subquotient_coords",
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
        return subquotient_coords(self)(v)

    def extend(self, rows: np.ndarray) -> "Subspace":
        """The span of this subspace and the given rows, as a new Subspace:
        a copy of the RREF rows and pivots in a buffer of dim + len(rows)
        rows (at most n), then one `_add` per row, reduced mod l."""
        rows = np.asarray(rows, dtype=np.int64) % self.l
        out = Subspace(self.n, self.l)
        size = min(self.n, self.dim + len(rows))
        out._buf = np.zeros((size, self.n), dtype=np.int64)
        out._buf[: self.dim] = self.rows
        out._piv = np.zeros(size, dtype=np.intp)
        out._piv[: self.dim] = self._piv[: self.dim]
        out.pivots = self.pivots
        for v in rows:
            out._add(v)
        return out._trim()

    def sum(self, other: "Subspace") -> "Subspace":
        """The sum, as the larger operand's RREF extended by the other's rows."""
        assert (self.n, self.l) == (other.n, other.l)
        big, small = (self, other) if self.dim >= other.dim else (other, self)
        return big.extend(small.rows)

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
    ("mat", M, None) with a dense matrix.  `spin_labels` names the actions
    that generate the acting group; closure operations use exactly those.
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

    def pullback(self, label: Hashable, rows: np.ndarray) -> np.ndarray:
        """The row vectors of a block, read as functionals, composed with one
        action: rows A."""
        kind, fwd, _ = self.actions[label]
        if kind == "perm":
            return rows[:, fwd]
        return (rows @ fwd) % self.l

    def transpose(self) -> "ModuleHandle":
        """The transpose module: each spin label acts by A^T.  A permutation
        P has P^T = P^-1, so its label keeps the arrays with fwd and inv
        swapped."""
        out = ModuleHandle(self.dim, self.l, self.spin_labels)
        for label in self.spin_labels:
            kind, fwd, inv = self.actions[label]
            out.actions[label] = ("perm", inv, fwd) if kind == "perm" else ("mat", fwd.T.copy(), None)
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
    actions = [handle.actions[label] for label in labels]
    assert all(kind == "perm" for kind, _, _ in actions), "fixed_space needs permutation labels"
    points = np.arange(handle.dim)
    root, before = points.copy(), None
    while not np.array_equal(root, before):
        before = root.copy()
        for _, fwd, _ in actions:
            np.minimum(root, root[fwd], out=root)
    smallest = points[root == points]
    return Subspace(handle.dim, handle.l, (root == smallest[:, None]).astype(np.int64))


def fixed_vector(handle: ModuleHandle, labels: Sequence[Hashable], v: np.ndarray) -> Optional[np.ndarray]:
    """A vector of kU.v fixed by every label, U the group that the labels,
    each a permutation, generate; None if the walk does not stop.

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
    """
    actions = [handle.actions[label] for label in labels]
    assert all(kind == "perm" for kind, _, _ in actions), "fixed_vector needs permutation labels"
    x = np.asarray(v, dtype=np.int64) % handle.l
    for _ in range(handle.dim + 1):
        for _, _, inv in actions:
            ux = x[inv]
            if not np.array_equal(ux, x):
                x = (ux - x) % handle.l
                break
        else:
            return x
    return None


def subquotient_coords(sub: Subspace, modulo: Optional[Subspace] = None) -> Callable[[np.ndarray], np.ndarray]:
    """x in S = sub (asserted), or each row of a block -> the coordinates of
    x + N in S / N, N = modulo (zero by default), in the basis of `restrict`."""
    classes = _classes(sub, modulo)

    def project(x: np.ndarray) -> np.ndarray:
        assert sub.contains(x), "vector outside the subspace"
        return classes(np.asarray(x, dtype=np.int64) % sub.l)

    return project


def _classes(sub: Optional[Subspace], N: Optional[Subspace]) -> Callable[[np.ndarray], np.ndarray]:
    """x -> x[cols] - x[N's pivots] N[:, cols] for x in S = sub and N in S
    (x[pivots] for N = 0), cols the pivots of S that N lacks: x less the
    vector of N that agrees with it on N's pivots is the combination, with
    its entries on cols, of the rows of S with pivots cols.  sub = None is
    the whole space, whose pivots are all the columns, so cols = N.free."""
    if N is None or not N.dim:
        return lambda x: x[..., sub._piv[: sub.dim]]
    gone = set(N.pivots)
    pivots = range(N.n) if sub is None else sub.pivots
    cols = np.array([p for p in pivots if p not in gone], dtype=np.intp)
    N_cols, npiv, l = N.rows[:, cols], N._piv[: N.dim], N.l  # the closure keeps no Subspace alive
    return lambda x: (x[..., cols] - x[..., npiv] @ N_cols) % l


def restrict(handle: ModuleHandle, sub: Optional[Subspace], modulo: Optional[Subspace] = None) -> ModuleHandle:
    """The module structure on an invariant subspace S = sub, in its basis
    coords, or with modulo = N, an invariant subspace of S, on S / N in the
    basis of the classes of the rows of S whose pivots N lacks.  sub = None
    is the whole space, whose rows are the unit vectors: restrict(h, None, N)
    is the quotient h / N, on the classes of the e_j, j not a pivot of N.

    For every label the images img of those rows, with C = img[:, pivots],
    are asserted to satisfy C S == img on the free columns (on the pivot
    columns S is the identity), and N's rows are checked the same way.  N's
    invariance is a precondition; given it, S is invariant.  That costs
    k' k (n - k) per label, k' = k - dim N.  The whole space has no free
    columns, so there is nothing to check, and only the spin labels are
    read.  The action, the images' classes' coordinates transposed, is
    built only for the spin labels, in their order.  The full space with
    N = 0 returns the handle itself.
    """
    gone = set() if modulo is None else set(modulo.pivots)
    if (sub is None or sub.dim == handle.dim) and not gone:
        return handle
    l = handle.l
    if sub is None:
        # the rows e_j, j not a pivot of N, and no free column: the check is empty
        keep = modulo.free
        rows = np.zeros((len(keep), handle.dim), dtype=np.int64)
        rows[np.arange(len(keep)), keep] = 1
        labels, pivots, free, R = handle.spin_labels, [], [], np.zeros((0, 0), dtype=np.int64)
    else:
        labels, pivots, free = handle.actions, list(sub.pivots), sub.free
        R, rows = sub.rows[:, free], sub.rows
        if gone:
            assert np.array_equal(modulo.rows[:, pivots] @ R % l, modulo.rows[:, free]), "vector outside the subspace"
            rows = rows[[p not in gone for p in pivots]]
    classes, coords = _classes(sub, modulo), {}
    for label in labels:
        img = handle.images(label, rows)
        assert np.array_equal(img[:, pivots] @ R % l, img[:, free]), "vector outside the subspace"
        if label in handle.spin_labels:
            coords[label] = classes(img)
    out = ModuleHandle(len(rows), l, handle.spin_labels)
    for label in handle.spin_labels:
        out.add_matrix(label, coords.pop(label).T)  # pop: hold one matrix twice at most
    return out


# -- irreducibility ----------------------------------------------------------


@dataclass
class Verdict:
    irreducible: bool
    witness: Optional[Subspace] = None
    certificate: Dict[str, object] = field(default_factory=dict)


def _random_algebra_element(handle: ModuleHandle, rng, max_word: int) -> Tuple[np.ndarray, list]:
    """A random sum of up to three words in the spin labels, each with a
    nonzero coefficient; returns the matrix and its (coefficient, labels)
    spec.  A word of permutation labels is a permutation matrix: its index
    arrays are composed and the coefficient is scattered into A, with no
    dense product; any other word is built as rows pulled back through each
    label in turn from the identity."""
    gens = handle.spin_labels
    nterms = int(rng.integers(1, 4))
    A = np.zeros((handle.dim, handle.dim), dtype=np.int64)
    points = np.arange(handle.dim)
    spec = []
    for _ in range(nterms):
        coeff = int(rng.integers(1, handle.l))
        length = int(rng.integers(1, max_word + 1))
        picks = [gens[int(k)] for k in rng.integers(len(gens), size=length)]
        actions = [handle.actions[lbl] for lbl in picks]
        if all(kind == "perm" for kind, _, _ in actions):
            # pulling I[:, idx] back through fwd gives I[:, idx[fwd]]
            idx = points
            for _, fwd, _ in actions:
                idx = idx[fwd]
            A[idx, points] = (A[idx, points] + coeff) % handle.l
        else:
            term = np.eye(handle.dim, dtype=np.int64)
            for lbl in picks:
                term = handle.pullback(lbl, term)
            A = (A + coeff * term) % handle.l
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
        A, spec = _random_algebra_element(handle, rng, MEATAXE_MAX_WORD)
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
    """Multiset (sorted list) of composition factor dimensions."""
    if handle.dim == 0:
        return []
    verdict = meataxe_irreducible(handle, seed=seed)
    if verdict.irreducible:
        return [handle.dim]
    # restrict(handle, sub) checks sub's invariance under every label, spin
    # or not, which the quotient takes as given: so it is built first, and
    # before either recursion
    sub = verdict.witness
    below, above = restrict(handle, sub), restrict(handle, None, sub)
    out = sorted(composition_series(below, seed=seed + 1) + composition_series(above, seed=seed + 1))
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

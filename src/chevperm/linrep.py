"""Exact module arithmetic over prime fields GF(l).

Vectors are numpy int64 arrays mod l; subspaces are canonical reduced
row-echelon bases, so equal subspaces have equal representations.  One
incremental routine, `Subspace._add`, keeps that canonical RREF as vectors
arrive; spinning and kernels (`nullspace`) are built on it.  A
ModuleHandle bundles an ambient dimension with invertible labelled actions
(permutations of a basis, or dense matrices) plus the sublist of labels
used for submodule closure.  An action is read only through `apply` (one
vector), `images` (a block of rows, rows A^T) and `pullback` (rows A); on a
permutation each is an index gather.  `transpose` gives the transpose
module.  On top of that: spinning, fixed spaces of permutation labels (orbit
sums), restriction and quotient, an irreducibility test in the random-
singular-element style with certified verdicts, recursive composition
series, and a socle check that enumerates the lines of a p-group fixed space.

Restriction and quotient work on whole matrices, exact mod l.  Each checks
one identity for every label in the input handle's `actions`, spin or not,
but builds and stores an action only for the spin labels, the only ones that
spinning, the MeatAxe and composition series read:

  restrict  S (k x n, RREF rows) invariant: with img = S A^T (the images of
            the rows) and C = img[:, pivots], assert C S == img on the free
            (non-pivot) columns; on the pivot columns S is the identity, so
            there it holds by construction.  The restricted action is C^T.
  quotient  P ((n-k) x n) the projection onto the free coordinates: with
            Q = (P A)[:, free], assert P A == Q P on the pivot columns; on
            the free columns P is the identity, so there it holds by
            construction.  Together that is equivariance on every ambient
            basis vector.  The quotient action is Q.

The irreducibility criterion used: for a singular algebra element A, if
some proper submodule exists then either a vector of ker A generates a
proper submodule, or every functional in ker A^T generates a proper
submodule of the transpose module.  So if every line of ker A and one line
of ker A^T generate, the module is irreducible; the search keeps drawing
random short algebra words until a kernel small enough to enumerate appears.

The primal side checks every line of ker A, but not one by one: for c != 0,
pi_c : M^j -> M, (x_i) -> sum c_i x_i, is a module map onto M, so if the
last j kernel rows, stacked as one vector of M^j, spin to all of M^j, every
line of their span generates M.  Those lines are groups 1..j in
`line_representatives` order, group g holding the l^(g-1) lines led by row
nu - g (nu = dim ker A).  Projecting a stack onto its first g blocks is a
module map too, so the pivots of one stacked spin say which leading groups
it certifies, and a stack that falls short still certifies the groups it
fills.  With groups 1..c certified, the stack of min(nu, 2c) rows is spun
when a cost model (`_stack_cost`) puts it below the lines it would newly
certify, each spun alone; otherwise group c + 1 is spun line by line.
After a stack falls short every remaining line is spun on its own.

The transpose side needs one vector (Norton's criterion, argued in
`meataxe_irreducible`): once every line of ker A generates M, either every
line of ker A^T generates M^T or none does.
"""

from __future__ import annotations

import bisect
import collections
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "MeatAxeBudgetError",
    "Subspace",
    "ModuleHandle",
    "spin",
    "fixed_space",
    "restrict",
    "quotient",
    "meataxe_irreducible",
    "composition_series",
    "socle_simple_check",
    "Verdict",
]


class MeatAxeBudgetError(RuntimeError):
    """The random search exhausted its budget without a usable element."""


# the MeatAxe draws algebra elements as sums of words of at most this many
# labels, and enumerates a kernel's lines only when it has at most this many
MEATAXE_MAX_WORD = 8
MEATAXE_LINE_BUDGET = 2000


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
    are the canonical RREF after every step.  The rows live in a buffer that
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
        if k:
            v = (v - v[self._piv[:k]] @ self._buf[:k]) % self.l
        nz = v.nonzero()[0]
        if not len(nz):
            return None
        p = int(nz[0])
        if v[p] != 1:
            v = (v * pow(int(v[p]), -1, self.l)) % self.l
        R = self._buf[:k]
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
        v = np.asarray(v, dtype=np.int64) % self.l
        c = v[..., self._piv[: self.dim]]
        assert not np.any((v - c @ self.rows) % self.l), "vector outside the subspace"
        return c

    def sum(self, other: "Subspace") -> "Subspace":
        """The sum, as the larger operand's RREF extended by the other's rows:
        a copy of its rows and pivots in a buffer of dim + dim' rows (at most
        n), then one `_add` per row of the smaller operand."""
        assert (self.n, self.l) == (other.n, other.l)
        big, small = (self, other) if self.dim >= other.dim else (other, self)
        out = Subspace(self.n, self.l)
        size = min(self.n, big.dim + small.dim)
        out._buf = np.zeros((size, self.n), dtype=np.int64)
        out._buf[: big.dim] = big.rows
        out._piv = np.zeros(size, dtype=np.intp)
        out._piv[: big.dim] = big._piv[: big.dim]
        out.pivots = big.pivots
        for v in small.rows:
            out._add(v)
        return out._trim()

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
    lexicographic order of c.

    That order groups the lines by the row of their leading 1, last row
    first: group j (j = 1..k) holds the l^(j-1) lines led by row k - j.  So
    the first (l^j - 1)/(l - 1) lines are exactly the lines of the span of
    the last j rows, and a stack of those rows, group 1 first, certifies
    groups in the same order as its leading blocks fill: the prefix
    property `_first_proper_spin` relies on.
    """
    basis = np.asarray(basis, dtype=np.int64)
    for i in reversed(range(len(basis))):
        yield from _lines_led_by(basis, l, i)


def _lines_led_by(basis: np.ndarray, l: int, i: int):
    """The lines whose leading 1 sits on row i, later coefficients in
    lexicographic order."""
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

    def apply(self, label: Hashable, v: np.ndarray) -> np.ndarray:
        kind, fwd, _ = self.actions[label]
        if kind == "perm":
            out = np.empty_like(v)
            out[fwd] = v
            return out
        return (fwd @ v) % self.l

    def images(self, label: Hashable, rows: np.ndarray) -> np.ndarray:
        """The images of the row vectors of a block under one action: rows A^T."""
        kind, fwd, inv = self.actions[label]
        if kind == "perm":
            return rows[:, inv]
        return (rows @ fwd.T) % self.l

    def pullback(self, label: Hashable, rows: np.ndarray) -> np.ndarray:
        """The row vectors of a block, read as functionals, composed with one
        action: rows A."""
        kind, fwd, _ = self.actions[label]
        if kind == "perm":
            return rows[:, fwd]
        return (rows @ fwd) % self.l

    def apply_word(self, word: Sequence[Hashable], v: np.ndarray) -> np.ndarray:
        """Apply a product of labelled actions, rightmost factor first."""
        for label in reversed(word):
            v = self.apply(label, v)
        return v

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
    """Smallest subspace containing the seeds and closed under the spin
    labels (hence under the group they generate).  Deterministic.

    A seed is a vector of M = GF(l)^d or an (m x d) block, read as one
    vector of M^m = GF(l)^(m d), row i in coordinates i d .. i d + d - 1,
    on which each label acts row by row (`images`); all seeds have one
    shape, and the result is a subspace of GF(l)^(m d).
    """
    blocks = [np.asarray(s, dtype=np.int64).reshape(-1, handle.dim) % handle.l for s in seeds]
    m = len(blocks[0]) if blocks else 1
    if m == 1:
        act = handle.apply  # the same map as below; on one vector a scatter beats a 2-D gather
    else:

        def act(label, v):
            return handle.images(label, v.reshape(m, handle.dim)).ravel()

    S = Subspace(m * handle.dim, handle.l)
    queue = collections.deque()
    for b in blocks:
        added = S._add(b.ravel())
        if added is not None:
            queue.append(added)
    while queue:
        v = queue.popleft()
        for label in handle.spin_labels:
            added = S._add(act(label, v))
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


def restrict(handle: ModuleHandle, sub: Subspace) -> ModuleHandle:
    """The module structure on an invariant subspace, in its basis coords.

    For every label of the handle, the images S A^T of the basis rows S have
    coordinates C = (S A^T)[:, pivots], and C S == S A^T is asserted on the
    free columns; on the pivot columns S is the identity, so there it holds
    by construction.  That costs k^2 (n - k) per label, not k^2 n.  The
    restricted action C^T is built only for the spin labels, in their
    order.  The full space returns the handle itself.
    """
    if sub.dim == handle.dim:
        return handle
    pivots, free = list(sub.pivots), sub.free
    R = sub.rows[:, free]
    coords = {}
    for label in handle.actions:
        img = handle.images(label, sub.rows)
        C = img[:, pivots]
        assert np.array_equal((C @ R) % handle.l, img[:, free]), "vector outside the subspace"
        if label in handle.spin_labels:
            coords[label] = C
    out = ModuleHandle(sub.dim, handle.l, handle.spin_labels)
    for label in handle.spin_labels:
        out.add_matrix(label, coords.pop(label).T)  # pop: hold one matrix twice at most
    return out


def quotient(handle: ModuleHandle, sub: Subspace) -> Tuple[ModuleHandle, Callable[[np.ndarray], np.ndarray]]:
    """The quotient module by an invariant subspace with its projection.

    The projection reduces mod the subspace then reads off the free
    coordinates, of one vector or of each row of a block; as a matrix P it
    is the identity on those columns and -R^T on the pivot columns (R the
    basis rows restricted to the free ones).
    For every label of the handle, with Q = (P A)[:, free], P A == Q P is
    asserted on the pivot columns; on the free columns it holds by
    construction.  That is equivariance on the full ambient basis, the
    dropped pivots included.  The quotient action Q is built only for the
    spin labels, in their order.  The zero subspace returns the handle
    itself.
    """
    if sub.dim == 0:
        return handle, lambda v: np.asarray(v, dtype=np.int64) % handle.l
    l = handle.l
    pivots, keep = list(sub.pivots), sub.free

    def project(v: np.ndarray) -> np.ndarray:
        return sub.reduce(v)[..., keep]

    P = _annihilator(sub)
    P_pivots = P[:, pivots]
    actions = {}
    for label in handle.actions:
        PA = handle.pullback(label, P)
        Q = PA[:, keep]
        assert np.array_equal((Q @ P_pivots) % l, PA[:, pivots]), "projection is not equivariant"
        if label in handle.spin_labels:
            actions[label] = Q
    out = ModuleHandle(len(keep), l, handle.spin_labels)
    for label in handle.spin_labels:
        out.add_matrix(label, actions.pop(label))
    return out, project


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


# One `Subspace._add` costs about a + b k n (k basis rows, n columns), so a
# spin in M^j = GF(l)^(j d), j d vectors of j d columns against d of d, costs
# about j (j^2 d^2 + C) / (d^2 + C) single-line spins, C = 2 a / b.  Measured
# on 2 cores, CPython 3.11.7, numpy 2.4.6, with MeatAxe kernels of A2 q=3,
# q=4, B2 q=2, q=3 and A3 q=2 at b = 1, l = 2 and 3: 127 timed stacks that
# fill M^j (d = 10..105, j = 2..10), against lines that generate M, fit
# C = 2.1e3 to 2.6e3 when each is weighted by its time (6.4e3 unweighted in
# log ratio, where the many small stacks dominate).  Replaying the 632
# kernels of the ladder and benchmark runs, `_first_proper_spin` took 11.4 s
# in all at C = 2.5e3, 11.6 s at 4e3, 15.0 s at 6.4e3, 15.7 s at 1e4 and
# 11.9 s at 1.7e4.
STACK_OVERHEAD = 2.5e3


def _stack_cost(j: int, d: int) -> float:
    """The cost of one spin of j stacked rows in dimension d, in single-line
    spins (see STACK_OVERHEAD)."""
    return j * (j * j * d * d + STACK_OVERHEAD) / (d * d + STACK_OVERHEAD)


def _filled_blocks(T: Subspace, d: int) -> int:
    """The number g of leading d-column blocks whose columns are all pivots of
    T's RREF.  The rank of an RREF on a prefix of its columns is its number
    of pivots there, so g is the largest g for which T projects onto all of
    M^g."""
    pivots = np.array(T.pivots)
    return int(np.count_nonzero(pivots == np.arange(len(pivots)))) // d


def _first_proper_spin(handle: ModuleHandle, basis: np.ndarray) -> Optional[Subspace]:
    """The spin of the first line of the row span, in `line_representatives`
    order, that generates a proper subspace; None when every line generates
    the module.

    Group g holds the l^(g-1) lines led by row k - g.  A stack of the last j
    rows, group 1 first (seed `basis[k-j:][::-1]`), certifies the groups
    1..g that its closure T in M^j fills on the first g blocks: projecting
    onto those blocks is a module map, whose image, the closure of the stack
    of groups 1..g, is all of M^g exactly when the first g d columns of T's
    RREF are pivots, and then every line of those groups generates M (the
    module docstring says why).  So one stacked spin certifies several
    groups, and a stack that falls short still certifies the groups it
    fills.

    With groups 1..c certified (c = 0 at first), the stack of j = min(k, 2c)
    rows is spun when `_stack_cost(j, d)` is below the (l^j - l^c)/(l - 1)
    lines of groups c+1..j; otherwise group c+1 is spun line by line.  Once
    a stack falls short at g < j no later stack is tried: the first g+1
    blocks of any later stack have the same closure as this one's, which
    does not fill M^(g+1), so it reads at most g too.  The remaining groups
    are then spun line by line.
    """
    l, k, d = handle.l, len(basis), handle.dim
    c, stacking = 0, True
    while c < k:
        j = min(k, 2 * c)
        if stacking and j > c and _stack_cost(j, d) < (l**j - l**c) // (l - 1):
            g = _filled_blocks(spin(handle, [basis[k - j :][::-1]]), d)
            stacking = g == j
            c = max(c, g)
            continue
        for v in _lines_led_by(basis, l, k - c - 1):
            S = spin(handle, [v])
            if S.dim < d:
                return S
        c += 1
    return None


def meataxe_irreducible(handle: ModuleHandle, seed: int = 0, budget: int = 200) -> Verdict:
    """Certified irreducibility test.

    Draws random short algebra elements until one has a small nonzero
    kernel, then checks that every line of the kernel generates the module
    (`_first_proper_spin`: stacked spins where they pay, single-line spins
    elsewhere); the spin of the first line that does not, in
    `line_representatives` order, is a witness submodule.  Once every line
    of ker A generates, one spin of the last row of ker A^T in the transpose
    module settles the transpose side (Norton's criterion, argued below): if
    it falls short, its perp is (and is checked to be) an invariant witness.
    If both sides only produce the full space the module is irreducible and
    the verdict carries the certifying data.  A final fallback checks every
    line of the whole space, as on the primal side, when that is affordable.
    """
    d = handle.dim
    if d == 0:
        raise ValueError("cannot test the zero module")
    if d == 1:
        return Verdict(True, certificate={"method": "dimension-1"})
    rng = np.random.default_rng(seed)
    tr = None
    for attempt in range(budget):
        A, spec = _random_algebra_element(handle, rng, MEATAXE_MAX_WORD)
        ker = nullspace(A, handle.l)
        nu = len(ker)
        if nu == 0 or nu == d:
            continue
        n_lines = (handle.l**nu - 1) // (handle.l - 1)
        if n_lines > MEATAXE_LINE_BUDGET:
            continue
        S = _first_proper_spin(handle, ker)
        if S is not None:
            return Verdict(False, witness=S, certificate={"method": "kernel-spin", "element": spec})
        if tr is None:
            tr = handle.transpose()
        kerT = nullspace(A.T, handle.l)
        assert len(kerT) == nu
        # Norton's criterion: every line of ker A generates M, so a proper
        # submodule N != 0 meets ker A in 0 and A is bijective on N; then
        # w^T (A n') = 0 for w in ker A^T, so ker A^T lies in N^perp, a proper
        # submodule of M^T.  Either every line of ker A^T generates M^T or
        # none does, and the first line in `line_representatives` order,
        # the last kernel row, decides.  Nor can the row change the
        # witness: ker A^T != 0 lies in the perp of every proper N, hence
        # in R^perp for R the sum of them all, so R is proper: the unique
        # maximal submodule.  By the perp correspondence R^perp is simple
        # in M^T, so every nonzero vector of ker A^T spins to R^perp and
        # the witness is R whichever row is spun.
        S = spin(tr, [kerT[-1]])
        if S.dim < d:
            witness = S.perp()
            for lbl in handle.spin_labels:
                assert witness.contains(handle.images(lbl, witness.rows))
            assert 0 < witness.dim < d
            return Verdict(False, witness=witness, certificate={"method": "transpose-kernel", "element": spec})
        return Verdict(
            True,
            certificate={
                "method": "singular-element",
                "element": spec,
                "nullity": nu,
                "lines": n_lines,
                "attempt": attempt,
            },
        )
    n_lines = (handle.l**d - 1) // (handle.l - 1)
    if n_lines <= MEATAXE_LINE_BUDGET:
        S = _first_proper_spin(handle, np.eye(d, dtype=np.int64))
        if S is not None:
            return Verdict(False, witness=S, certificate={"method": "exhaustive-lines"})
        return Verdict(True, certificate={"method": "exhaustive-lines", "lines": n_lines})
    raise MeatAxeBudgetError("no usable singular element in %d attempts" % budget)


def composition_series(handle: ModuleHandle, seed: int = 0) -> List[int]:
    """Multiset (sorted list) of composition factor dimensions."""
    if handle.dim == 0:
        return []
    verdict = meataxe_irreducible(handle, seed=seed)
    if verdict.irreducible:
        return [handle.dim]
    sub = verdict.witness
    below = composition_series(restrict(handle, sub), seed=seed + 1)
    above = composition_series(quotient(handle, sub)[0], seed=seed + 1)
    out = sorted(below + above)
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
    nonzero vector, so spinning each fixed line sweeps all minimal
    submodules.  The caller is responsible for both requirements.
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

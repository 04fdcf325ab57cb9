"""Exact linear algebra and module machinery, checked against small
hand-computable oracles and a brute-forced submodule lattice."""

import collections
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevperm import linrep
from chevperm.chevalley import FlagIndex, matrix_group
from chevperm.gf import irreducible_factors
from chevperm.linrep import (
    MeatAxeBudgetError,
    ModuleHandle,
    Subspace,
    TriangularBasis,
    _min_poly,
    _poly_at,
    _random_algebra_element,
    composition_series,
    fixed_space,
    fixed_vector,
    line_representatives,
    meataxe_irreducible,
    nullspace,
    restrict,
    socle_simple_check,
    spin,
)
from chevperm.permmod import LevelModule


# -- row echelon / nullspace --------------------------------------------------


def rref(rows, l):
    """Reference: column-by-column reduced row echelon form mod l; returns
    (basis, pivot columns)."""
    M = np.array(rows, dtype=np.int64).reshape(len(rows), -1) % l
    n = M.shape[1]
    r = 0
    pivots = []
    for col in range(n):
        k = next((i for i in range(r, M.shape[0]) if M[i, col]), None)
        if k is None:
            continue
        M[[r, k]] = M[[k, r]]
        M[r] = (M[r] * pow(int(M[r, col]), l - 2, l)) % l
        fac = M[:, col].copy()
        fac[r] = 0
        M = (M - np.outer(fac, M[r])) % l
        pivots.append(col)
        r += 1
        if r == M.shape[0]:
            break
    return M[:r], tuple(pivots)


def test_rref_frozen_mod2():
    S = Subspace(3, 2, np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
    assert S.pivots == (0, 1)
    assert S.rows.tolist() == [[1, 0, 1], [0, 1, 1]]


def test_rref_frozen_mod5():
    S = Subspace(2, 5, np.array([[2, 4], [1, 2]]))
    # 2x + 4y: scale by inverse of 2 (=3): x + 2y; second row is dependent
    assert S.pivots == (0,)
    assert S.rows.tolist() == [[1, 2]]


def test_nullspace_annihilates_and_rank_nullity():
    rng = np.random.default_rng(5)
    for l in (2, 3, 5):
        for _ in range(20):
            M = rng.integers(0, l, size=(4, 6))
            N = nullspace(M, l)
            rank = len(rref(M, l)[0])
            assert rank + len(N) == 6
            if len(N):
                assert not np.any((M @ N.T) % l)


@st.composite
def matrices_mod_l(draw):
    """A matrix mod l in one of five shapes: wide, tall, square, rank
    deficient (a product through a thinner middle) or zero."""
    l = draw(st.sampled_from([2, 3, 5]))
    shape = draw(st.sampled_from(["wide", "tall", "square", "deficient", "zero"]))
    if shape == "wide":
        m, n = draw(st.integers(1, 4)), draw(st.integers(5, 8))
    elif shape == "tall":
        m, n = draw(st.integers(5, 8)), draw(st.integers(1, 4))
    elif shape == "square":
        m = n = draw(st.integers(1, 7))
    else:
        m, n = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if shape == "zero":
        M = np.zeros((m, n), dtype=np.int64)
    elif shape == "deficient":
        r = draw(st.integers(0, max(0, min(m, n) - 1)))
        M = (rng.integers(0, l, size=(m, r)) @ rng.integers(0, l, size=(r, n))) % l
    else:
        M = rng.integers(0, l, size=(m, n))
    perm = draw(st.permutations(range(m)))
    return l, M, np.array(perm, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(matrices_mod_l())
def test_subspace_matches_rref_oracle(case):
    l, M, perm = case
    m, n = M.shape
    R, piv = rref(M, l)
    for order in (np.arange(m), perm):
        S = Subspace(n, l, M[order])
        assert S.pivots == piv
        assert np.array_equal(S.rows, R)
    # the incremental form is canonical after every step, as spin reads it
    S = Subspace(n, l)
    for i in range(m):
        before = S.dim
        added = S._add(M[perm[i]])
        R_i, piv_i = rref(M[perm[: i + 1]], l)
        assert S.pivots == piv_i and np.array_equal(S.rows, R_i)
        assert (added is None) == (S.dim == before)
    N = nullspace(M, l)
    assert N.shape[1] == n and len(R) + len(N) == n
    assert not np.any((M @ N.T) % l)
    assert Subspace(n, l, N).dim == len(N)


# -- subspaces ----------------------------------------------------------------


def test_subspace_membership_and_coords():
    S = Subspace(4, 3, np.array([[1, 0, 2, 0], [0, 1, 1, 0]]))
    assert S.dim == 2 and S.pivots == (0, 1)
    v = (2 * S.rows[0] + S.rows[1]) % 3
    assert S.contains(v)
    assert S.coords(v).tolist() == [2, 1]
    assert np.array_equal(S.coords(v) @ S.rows % 3, v)
    assert not S.contains([0, 0, 0, 1])


def test_subspace_block_membership_and_coords():
    S = Subspace(4, 3, np.array([[1, 0, 2, 0], [0, 1, 1, 0]]))
    block = np.array([(2 * S.rows[0] + S.rows[1]) % 3, S.rows[1], np.zeros(4, dtype=np.int64)])
    assert S.contains(block)
    assert S.coords(block).tolist() == [[2, 1], [0, 1], [0, 0]]
    assert not S.contains(np.vstack([block, [0, 0, 0, 1]]))
    with pytest.raises(AssertionError, match="outside the subspace"):
        S.coords(np.vstack([block, [0, 0, 0, 1]]))


def test_subspace_sum_intersect_frozen():
    A = Subspace(3, 2, np.array([[1, 1, 0]]))
    B = Subspace(3, 2, np.array([[0, 1, 1]]))
    assert Subspace(3, 2, np.vstack([A.rows, B.rows])).dim == 2
    assert A.intersect(B).dim == 0
    C = Subspace(3, 2, np.array([[1, 1, 0], [0, 0, 1]]))
    meet = A.intersect(C)
    assert meet.dim == 1 and meet.rows.tolist() == [[1, 1, 0]]


def test_perp_dimensions_and_double_perp():
    S = Subspace(5, 3, np.array([[1, 0, 0, 1, 2], [0, 1, 0, 0, 1]]))
    P = S.perp()
    assert P.dim == 3
    assert not np.any((S.rows @ P.rows.T) % 3)
    assert P.perp() == S


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2), min_size=4, max_size=4), min_size=1, max_size=4),
       st.lists(st.lists(st.integers(0, 2), min_size=4, max_size=4), min_size=1, max_size=4))
def test_dimension_formula(rows_a, rows_b):
    A = Subspace(4, 3, np.array(rows_a))
    B = Subspace(4, 3, np.array(rows_b))
    assert Subspace(4, 3, np.vstack([A.rows, B.rows])).dim + A.intersect(B).dim == A.dim + B.dim


@st.composite
def subspace_rows(draw, l, n):
    """Rows mod l spanning a zero, full, random or rank-deficient subspace
    of GF(l)^n, shifted by multiples of l: Subspace reduces them on entry."""
    kind = draw(st.sampled_from(["zero", "full", "random", "deficient"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(0, n + 2))
    if kind == "zero":
        M = np.zeros((m, n), dtype=np.int64)
    elif kind == "full":
        M = np.vstack([rng.permutation(np.eye(n, dtype=np.int64)), rng.integers(0, l, size=(m, n))])
    elif kind == "deficient":
        r = draw(st.integers(0, max(0, n - 1)))
        M = (rng.integers(0, l, size=(m, r)) @ rng.integers(0, l, size=(r, n))) % l
    else:
        M = rng.integers(0, l, size=(m, n))
    return M + l * rng.integers(-2, 3, size=M.shape)


@st.composite
def subspace_triples(draw):
    l = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 8))
    return l, n, [draw(subspace_rows(l, n)) for _ in range(3)]


def assert_same_rref(S, ref):
    assert (S.n, S.l) == (ref.n, ref.l)
    assert S.pivots == ref.pivots and np.array_equal(S.rows, ref.rows)
    assert len(S._buf) == len(S._piv) == S.dim  # trimmed
    assert S._piv.tolist() == list(S.pivots)


@settings(max_examples=300, deadline=None)
@given(subspace_triples())
def test_sum_matches_the_stacked_rref(case):
    l, n, (MA, MB, MC) = case
    A, B, C = (Subspace(n, l, M) for M in (MA, MB, MC))
    for S, M in ((A, MA), (B, MB), (C, MC)):
        assert_same_rref(S, Subspace(n, l, M % l))
        # RREF rows, in either order, need no reduction and clear nothing
        assert_same_rref(Subspace(n, l, S.rows[::-1]), S)
    # either operand larger, zero or full: the sum of the spans, stacked as
    # RREF rows or as the rows given, in either order, has one canonical RREF
    AB = Subspace(n, l, np.vstack([A.rows, B.rows]))
    assert_same_rref(Subspace(n, l, np.vstack([B.rows, A.rows])), AB)
    assert_same_rref(Subspace(n, l, np.vstack([MB, MA])), AB)
    # a sum summed again, on either side
    ABC = Subspace(n, l, np.vstack([MA, MB, MC]))
    assert_same_rref(Subspace(n, l, np.vstack([AB.rows, C.rows])), ABC)
    assert_same_rref(Subspace(n, l, np.vstack([C.rows, B.rows, A.rows])), ABC)
    # the operands are left as they were
    assert_same_rref(A, Subspace(n, l, MA % l))
    assert_same_rref(B, Subspace(n, l, MB % l))


@st.composite
def triangular_bases(draw):
    """n rows mod l with distinct leads of greatest grade, units there, and
    random entries at the columns of lower grade; and a block X of vectors."""
    l = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grade = rng.integers(0, draw(st.integers(1, 4)), size=n)
    lead = rng.permutation(n)
    T = rng.integers(0, l, size=(n, n)) * (grade[None, :] < grade[lead][:, None])
    T[np.arange(n), lead] = rng.integers(1, l, size=n)
    return l, grade, T, rng.integers(0, l, size=(draw(st.integers(0, 4)), n))


@settings(max_examples=200, deadline=None)
@given(triangular_bases())
def test_triangular_coords_solve_y_t_equals_x(case):
    # Y T = X, one nonzero triple per entry of Y, and Y = X T^-1 with T^-1
    # read off the RREF [I | T^-1] of the rows [T | I]
    l, grade, T, X = case
    n = len(grade)
    r, c = np.nonzero(T)
    basis = TriangularBasis(l, r, c, T[r, c], grade)
    assert np.array_equal(basis.lead_value[basis.row_of], T[basis.row_of, np.arange(n)])
    v, c = np.nonzero(X)
    vec, row, val = basis.coords(v, c, X[v, c])
    assert np.all(val != 0) and len(set(zip(vec.tolist(), row.tolist()))) == len(vec)
    Y = np.zeros(X.shape, dtype=np.int64)
    Y[vec, row] = val
    assert np.array_equal(Y @ T % l, X)
    augmented = Subspace(2 * n, l, np.hstack([T, np.eye(n, dtype=np.int64)]))
    assert augmented.pivots == tuple(range(n))
    assert np.array_equal(Y, X @ augmented.rows[:, n:] % l)


def test_triangular_basis_refuses_a_tie_at_the_top_or_leads_that_miss_a_column():
    grade = np.array([0, 1, 1])
    # row 1 is e1 + e2, two columns of grade 1
    with pytest.raises(AssertionError, match="no unique leading column"):
        TriangularBasis(2, np.array([0, 1, 1, 2]), np.array([0, 1, 2, 2]), np.array([1, 1, 1, 1]), grade)
    # two rows, e0 and e1, for three columns; or e0, e0 + e1 and e1, two led by column 1
    for row, col in (([0, 1], [0, 1]), ([0, 1, 1, 2], [0, 0, 1, 1])):
        with pytest.raises(AssertionError, match="do not cover"):
            TriangularBasis(2, np.array(row), np.array(col), np.ones(len(row), dtype=np.int64), grade)


def test_line_representatives_count():
    basis = np.eye(2, dtype=np.int64)
    lines = list(line_representatives(basis, 3))
    assert len(lines) == 4  # (3^2-1)/(3-1)
    as_tuples = {tuple(v) for v in lines}
    assert as_tuples == {(1, 0), (0, 1), (1, 1), (1, 2)}


# -- module handles -----------------------------------------------------------


def dense_matrix(handle, label):
    """Reference: the action of one label as a dense matrix, a permutation
    scattered into the columns of the identity."""
    kind, fwd, _ = handle.actions[label]
    if kind == "mat":
        return fwd
    M = np.zeros((handle.dim, handle.dim), dtype=np.int64)
    M[fwd, np.arange(handle.dim)] = 1
    return M


def cyclic_shift_module(l, n=3):
    # the label sends basis vector i to basis vector i+1 (mod n)
    h = ModuleHandle(n, l, ["c"])
    h.add_perm("c", np.roll(np.arange(n), -1))
    return h


def mat_cyclic_shift_module(l, n=3):
    """The same module with the shift stored as a dense matrix."""
    h = ModuleHandle(n, l, ["c"])
    h.add_matrix("c", dense_matrix(cyclic_shift_module(l, n), "c"))
    return h


def test_perm_action_matches_matrix():
    h = cyclic_shift_module(5)
    v = np.array([1, 2, 3])
    shifted = h.images("c", v)
    assert shifted.tolist() == [3, 1, 2]
    assert np.array_equal((dense_matrix(h, "c") @ v) % 5, shifted)
    # the transpose of a permutation is its inverse
    assert np.array_equal(h.transpose().images("c", shifted), v)


def test_spin_oracles_for_cyclic_shift():
    h = cyclic_shift_module(2)
    assert spin(h, [h.basis_vector(0)]).dim == 3
    assert spin(h, [np.array([1, 1, 1])]).dim == 1
    # e0 + e1 spins to the coordinate-sum-zero plane
    S = spin(h, [np.array([1, 1, 0])])
    assert S.dim == 2
    assert all(int(row.sum()) % 2 == 0 for row in S.rows)


def test_fixed_space_of_cyclic_shift():
    # one orbit, so one orbit sum; a matrix label is refused by fixed_space,
    # while fixed_vector walks it as it walks the permutation
    for l in (2, 3, 5):
        F = fixed_space(cyclic_shift_module(l), ["c"])
        assert F.dim == 1 and F.rows.tolist() == [[1, 1, 1]]
        with pytest.raises(AssertionError, match="permutation labels"):
            fixed_space(mat_cyclic_shift_module(l), ["c"])
        mat_x, perm_x = (fixed_vector(h, ["c"], np.array([1, 0, 0]))
                         for h in (mat_cyclic_shift_module(l), cyclic_shift_module(l)))
        assert mat_x is perm_x is None or np.array_equal(mat_x, perm_x)


def test_fixed_vector_walk_on_cyclic_shift():
    # at l = 3 the shift generates an l-group: e0 -> e1 - e0 -> e0 + e2 - 2 e1
    # = e0 + e1 + e2 (mod 3), which the shift fixes.  At l = 2 it does not:
    # the walk from e0 cycles through the three weight-2 vectors and gives up
    e0 = np.array([1, 0, 0])
    assert fixed_vector(cyclic_shift_module(3), ["c"], e0).tolist() == [1, 1, 1]
    assert fixed_vector(cyclic_shift_module(2), ["c"], e0) is None
    assert fixed_vector(cyclic_shift_module(2), ["c"], np.array([1, 1, 1])).tolist() == [1, 1, 1]
    assert fixed_vector(cyclic_shift_module(5), ["c"], np.zeros(3, dtype=np.int64)).tolist() == [0, 0, 0]


def test_fixed_space_no_labels_is_everything():
    h = cyclic_shift_module(3)
    assert fixed_space(h, []).dim == 3


# -- integration: the rank-one flag module ------------------------------------


def borel_perm_module(kind, q, l):
    """Permutation module on the full flag variety as a ModuleHandle, with
    one labelled generator per simple root-subgroup element."""
    group = matrix_group(kind, q)
    fi = FlagIndex(group)
    datum = group.datum
    handle = ModuleHandle(len(fi), l, [])
    for si in datum.simple_indices:
        neg = si + datum.n_pos
        for root in (si, neg):
            for c in group.field.fp_basis():
                label = ("u", root, c)
                handle.add_perm(label, fi.perm_of(group.root_element(root, c)))
                handle.spin_labels.append(label)
    return group, fi, handle


def brute_force_invariant_subspaces(handle):
    """All invariant subspaces, by spanning every subset of F_l^n.  Only
    usable for tiny modules; this is the oracle the fast path must match."""
    l, n = handle.l, handle.dim
    vectors = [np.array(t) for t in itertools.product(range(l), repeat=n) if any(t)]
    seen = {}
    for size in range(len(vectors) + 1):
        for combo in itertools.combinations(range(len(vectors)), min(size, 3)):
            S = Subspace(n, l, np.array([vectors[i] for i in combo]) if combo else None)
            seen[S.rows.tobytes() + bytes([S.dim])] = S
        if size >= 3:
            break
    invariant = []
    for S in seen.values():
        if all(
            S.contains(handle.images(lbl, row))
            for lbl in handle.spin_labels
            for row in S.rows
        ):
            invariant.append(S)
    return invariant


def test_flag_module_lattice_matches_brute_force():
    _, _, handle = borel_perm_module("A1", 2, 2)
    assert handle.dim == 3
    lattice = brute_force_invariant_subspaces(handle)
    dims = sorted(S.dim for S in lattice)
    # zero, the constants line, the sum-zero plane, everything
    assert dims == [0, 1, 2, 3]
    for S in lattice:
        if S.dim == 1:
            assert S.rows.tolist() == [[1, 1, 1]]
        if S.dim == 2:
            assert all(int(r.sum()) % 2 == 0 for r in S.rows)


def test_spin_finds_the_same_lattice():
    _, _, handle = borel_perm_module("A1", 2, 2)
    spun = {spin(handle, [v]).rows.tobytes() for v in line_representatives(np.eye(3, dtype=np.int64), 2)}
    spun_dims = sorted(
        spin(handle, [v]).dim for v in line_representatives(np.eye(3, dtype=np.int64), 2)
    )
    # the constants line, the three lines inside the sum-zero plane, and the
    # three point masses (which generate everything)
    assert spun_dims == [1, 2, 2, 2, 3, 3, 3]
    assert len(spun) == 3


def test_restrict_quotient_roundtrip():
    _, _, handle = borel_perm_module("A1", 2, 2)
    plane = spin(handle, [np.array([1, 1, 0])])
    sub = restrict(handle, plane)
    assert sub.dim == 2
    assert_dual_is_the_quotient(handle, plane)
    # the quotient of a transitive permutation module by the sum-zero part
    # is the trivial module, and so is its dual, the constants line of the
    # transpose module
    dual = restrict(handle.transpose(), plane.perp())
    assert dual.dim == 1
    for lbl in dual.actions:
        assert dense_matrix(dual, lbl).tolist() == [[1]]


def test_restrict_rejects_non_invariant():
    _, _, handle = borel_perm_module("A1", 2, 2)
    not_invariant = Subspace(3, 2, np.array([[1, 0, 0]]))
    with pytest.raises(AssertionError):
        restrict(handle, not_invariant)


# -- irreducibility verdicts --------------------------------------------------


def test_meataxe_dim1_and_zero():
    h = ModuleHandle(1, 2, ["c"])
    h.add_perm("c", np.array([0]))
    assert meataxe_irreducible(h).irreducible
    z = ModuleHandle(0, 2, [])
    with pytest.raises(ValueError):
        meataxe_irreducible(z)


def test_meataxe_on_flag_module():
    _, _, handle = borel_perm_module("A1", 2, 2)
    verdict = meataxe_irreducible(handle, seed=1)
    assert not verdict.irreducible
    assert 0 < verdict.witness.dim < 3
    # the witness really is invariant
    W = verdict.witness
    for lbl in handle.spin_labels:
        for row in W.rows:
            assert W.contains(handle.images(lbl, row))


def test_meataxe_irreducible_plane():
    h = cyclic_shift_module(2)
    plane = spin(h, [np.array([1, 1, 0])])
    sub = restrict(h, plane)
    verdict = meataxe_irreducible(sub, seed=0)
    # x^2 + x + 1 has no root mod 2, so the shift plane is irreducible
    assert verdict.irreducible
    assert verdict.certificate["method"] == "singular-element"


@pytest.mark.parametrize("d", [2, 12])
def test_meataxe_trivial_action_splits_on_a_kernel_spin(d):
    # A is a scalar c, so m = x - c is never good (nullity d), but the spin of
    # a kernel row is its own line
    h = ModuleHandle(d, 2, ["e"])
    h.add_perm("e", np.arange(d))
    verdict = meataxe_irreducible(h, seed=0, budget=5)
    assert not verdict.irreducible
    assert verdict.certificate["method"] == "kernel-spin"
    assert verdict.witness.dim == 1


def test_meataxe_budget_error():
    h = ModuleHandle(12, 2, ["e"])
    h.add_perm("e", np.arange(12))
    with pytest.raises(MeatAxeBudgetError):
        meataxe_irreducible(h, seed=0, budget=0)


# -- composition series -------------------------------------------------------


def test_composition_series_flag_module_mod2():
    _, _, handle = borel_perm_module("A1", 2, 2)
    assert composition_series(handle, seed=0) == [1, 2]


def test_composition_series_flag_module_mod5():
    # 5 does not divide |SL_2(F_2)| = 6, so the module is semisimple with
    # the same factor dimensions
    _, _, handle = borel_perm_module("A1", 2, 5)
    assert composition_series(handle, seed=0) == [1, 2]


def test_composition_series_trivial_action():
    h = ModuleHandle(3, 3, ["e"])
    h.add_perm("e", np.arange(3))
    assert composition_series(h, seed=2) == [1, 1, 1]


def test_composition_series_seed_stable():
    _, _, handle = borel_perm_module("A2", 2, 2)
    first = composition_series(handle, seed=0)
    second = composition_series(handle, seed=0)
    assert first == second
    assert sum(first) == 21


def test_composition_series_checks_the_witness_before_any_quotient(monkeypatch):
    # a witness that is no submodule: the restriction to it, built first,
    # refuses it, and neither the transpose module nor the perp that stands
    # for the quotient is ever taken
    _, _, handle = borel_perm_module("A1", 2, 2)
    e0 = Subspace(3, 2, np.array([[1, 0, 0]]))
    monkeypatch.setattr(linrep, "meataxe_irreducible", lambda h, seed=0: linrep.Verdict(False, witness=e0))
    calls = []

    def record(name, real):
        def wrapped(*args):
            calls.append((name, args[1] is e0) if name == "restrict" else name)
            return real(*args)
        return wrapped

    monkeypatch.setattr(linrep, "restrict", record("restrict", linrep.restrict))
    monkeypatch.setattr(ModuleHandle, "transpose", record("transpose", ModuleHandle.transpose))
    monkeypatch.setattr(Subspace, "perp", record("perp", Subspace.perp))
    with pytest.raises(AssertionError, match="vector outside the subspace"):
        composition_series(handle)
    assert calls == [("restrict", True)]


# -- socle --------------------------------------------------------------------


def test_socle_check_unique_minimal():
    # GF(3)[C_3] is uniserial: the constants line is the whole socle
    h = cyclic_shift_module(3)
    res = socle_simple_check(h, np.array([1, 1, 1]), fixed_space(h, ["c"]))
    assert res["ok"] and res["socle_dim"] == 1
    assert res["fixed_dim"] == 1 and res["lines_checked"] == 1
    assert res["candidate_fixed"]


def test_socle_check_detects_split_socle():
    # mod 2 the flag module for SL_2(F_2) has two minimal submodules, so no
    # single vector generates the socle
    _, _, handle = borel_perm_module("A1", 2, 2)
    u_labels = [lbl for lbl in handle.spin_labels if lbl[1] == 0]  # one root subgroup
    res = socle_simple_check(handle, np.array([1, 1, 1]), fixed_space(handle, u_labels))
    assert not res["ok"]
    assert not res["all_contain"]


def test_socle_check_rejects_zero_candidate():
    h = cyclic_shift_module(3)
    with pytest.raises(AssertionError):
        socle_simple_check(h, np.zeros(3, dtype=np.int64), fixed_space(h, ["c"]))


# -- restrict, and quotients read by duality, against per-vector references ---


def loop_restrict(handle, sub):
    """Reference: one membership check per image of a basis row."""
    if sub.dim == handle.dim:
        return handle
    out = ModuleHandle(sub.dim, handle.l, handle.spin_labels)
    for label in handle.actions:
        cols = [sub.coords(handle.images(label, row)) for row in sub.rows]
        out.add_matrix(label, np.array(cols, dtype=np.int64).T if cols else np.zeros((0, 0), np.int64))
    return out


def loop_quotient(handle, sub):
    """Reference: one equivariance check per ambient basis vector."""
    if sub.dim == 0:
        return handle, lambda v: np.asarray(v, dtype=np.int64) % handle.l
    keep = [j for j in range(handle.dim) if j not in set(sub.pivots)]

    def project(v):
        return sub.reduce(v)[..., keep]

    out = ModuleHandle(len(keep), handle.l, handle.spin_labels)
    for label in handle.actions:
        cols = []
        for j in keep:
            cols.append(project(handle.images(label, handle.basis_vector(j))))
        M = np.array(cols, dtype=np.int64).T if cols else np.zeros((0, 0), np.int64)
        out.add_matrix(label, M)
    for label in handle.actions:
        M = dense_matrix(out, label)
        for j in range(handle.dim):
            lhs = project(handle.images(label, handle.basis_vector(j)))
            rhs = (M @ project(handle.basis_vector(j))) % handle.l
            assert np.array_equal(lhs, rhs), "projection is not equivariant"
    return out, project


def assert_dual_is_the_quotient(handle, W, quot=None):
    """The quotient by W as composition series reads it, the module D on
    W^perp in the transpose module, is the dual of the per-vector quotient Q
    (by default `loop_quotient(handle, W)`): D^T P == P Q for every spin
    label, where P[i, j] = <y_i, e_j + W> pairs W^perp's rows y_i with Q's
    basis, the classes of e_j for j not a pivot of W, and is asserted
    invertible.  (<y_i, A e_j> reads (D^T P)[i, j] on the left, A^T y_i in
    W^perp's basis, and (P Q)[i, j] on the right, A e_j modulo W in Q's.)"""
    l, perp = handle.l, W.perp()
    dual = restrict(handle.transpose(), perp)
    quot = loop_quotient(handle, W)[0] if quot is None else quot
    P = perp.rows[:, W.free]
    assert dual.dim == quot.dim == handle.dim - W.dim == Subspace(len(P), l, P).dim
    for label in handle.spin_labels:
        lhs = dense_matrix(dual, label).T @ P % l
        assert np.array_equal(lhs, P @ dense_matrix(quot, label) % l), label


def uniserial_module(l):
    """The regular module of a cyclic l-group over GF(l): uniserial, with one
    submodule of each dimension.  Label "c" is the shift and spins; "c2", its
    square, does not, so the checks must cover non-spin labels too."""
    n = l * l if l < 5 else l
    h = cyclic_shift_module(l, n)
    h.add_perm("c2", np.roll(np.arange(n), -2))
    return h


def submodule_of_dim(handle, d):
    """The unique d-dimensional submodule of a uniserial cyclic module: the
    span of (c - 1)^(n-d) applied to the first basis vector."""
    v = handle.basis_vector(0)
    for _ in range(handle.dim - d):
        v = (handle.images("c", v) - v) % handle.l
    S = spin(handle, [v]) if d else Subspace(handle.dim, handle.l)
    assert S.dim == d
    return S


def uniserial_hyperplane(l):
    """The uniserial module and its submodule of codimension one."""
    h = uniserial_module(l)
    return h, submodule_of_dim(h, h.dim - 1)


def mat_uniserial_module(l):
    """A restricted handle: every action, spin or not, is a dense matrix."""
    sub = loop_restrict(*uniserial_hyperplane(l))
    assert all(kind == "mat" for kind, _, _ in sub.actions.values())
    return sub


def assert_same_handle(new, ref, labels=None):
    """new carries exactly `labels` (by default every label of ref), each
    with ref's matrix."""
    labels = list(ref.actions) if labels is None else labels
    assert new.dim == ref.dim and list(new.actions) == labels
    assert new.spin_labels == ref.spin_labels
    for label in labels:
        assert np.array_equal(dense_matrix(new, label), dense_matrix(ref, label)), label


@pytest.mark.parametrize("l", [2, 3, 5])
@pytest.mark.parametrize("build", [uniserial_module, mat_uniserial_module], ids=["perm", "mat"])
def test_restrict_quotient_match_per_vector_reference(l, build):
    handle = build(l)
    n = handle.dim
    for d in (0, 1, n - 1, n):
        S = submodule_of_dim(handle, d)
        # a proper restriction stores the spin labels only; the full space
        # returns the handle itself
        assert_same_handle(restrict(handle, S), loop_restrict(handle, S),
                           None if d == n else handle.spin_labels)
    for d in range(1, n):
        assert_dual_is_the_quotient(handle, submodule_of_dim(handle, d))


@pytest.mark.parametrize("build", [uniserial_module, mat_uniserial_module], ids=["perm", "mat"])
def test_restrict_quotient_reject_non_invariant(build):
    handle = build(3)
    e0 = Subspace(handle.dim, 3, handle.basis_vector(0)[None, :])
    assert spin(handle, [e0.rows[0]]).dim > 1
    with pytest.raises(AssertionError, match="outside the subspace"):
        restrict(handle, e0)


def test_restrict_quotient_check_non_spin_labels():
    # span{e0 + e2, e1 + e3} is invariant under the spin label only; the
    # non-spin label "flip" moves it, and restrict must notice
    handle = uniserial_module(2)
    S = submodule_of_dim(handle, 2)
    handle.add_perm("flip", np.array([1, 0, 2, 3]))
    assert S.contains(handle.images("c", S.rows))
    assert not S.contains(handle.images("flip", S.rows))
    with pytest.raises(AssertionError, match="outside the subspace"):
        restrict(handle, S)


@pytest.mark.parametrize("build", [uniserial_module, mat_uniserial_module], ids=["perm", "mat"])
def test_restrict_quotient_store_only_the_asked_labels(build):
    # the checks reach every label, but only the spin labels are built
    handle = build(3)
    assert handle.spin_labels == ["c"] and list(handle.actions) == ["c", "c2"]
    S = submodule_of_dim(handle, 2)
    assert_same_handle(restrict(handle, S), loop_restrict(handle, S), ["c"])


@pytest.mark.parametrize("l", [2, 3, 5])
@pytest.mark.parametrize("build", [uniserial_module, mat_uniserial_module], ids=["perm", "mat"])
def test_restrict_modulo_matches_the_two_stage_oracle(l, build):
    # the quotient by N, read as its dual W^perp in the transpose module,
    # against the restriction to the whole space (as its RREF), then the
    # per-vector quotient by N's coordinates, for every submodule N, N = 0
    # and the whole space included
    handle = build(l)
    subs = [submodule_of_dim(handle, d) for d in range(handle.dim + 1)]
    space = subs[-1]
    for N in subs:
        ref, _ = loop_quotient(restrict(handle, space), Subspace(space.dim, l, space.coords(N.rows)))
        assert ref.dim == space.dim - N.dim
        assert_dual_is_the_quotient(handle, N, ref)


@pytest.mark.parametrize("build", [uniserial_module, mat_uniserial_module], ids=["perm", "mat"])
def test_restrict_modulo_rejects_a_moved_space_or_a_modulus_outside_it(build):
    # a subquotient S / N is no longer one call: restrict takes one subspace,
    # refuses a moved S, and refuses the dual of a quotient by a moved space
    handle = build(3)
    N = submodule_of_dim(handle, 1)
    # N plus e0 is no submodule: the only 2-dimensional one is another space
    S = Subspace(handle.dim, 3, np.vstack([N.rows, handle.basis_vector(0)]))
    assert S.dim == 2 and S != submodule_of_dim(handle, 2)
    with pytest.raises(AssertionError, match="vector outside the subspace") as err:
        restrict(handle, S)
    assert err.traceback[-1].name == "restrict"
    # S moved by some A means S^perp moved by A^T: no quotient by S is read
    with pytest.raises(AssertionError, match="vector outside the subspace") as err:
        restrict(handle.transpose(), S.perp())
    assert err.traceback[-1].name == "restrict"
    with pytest.raises(TypeError):
        restrict(handle, submodule_of_dim(handle, 2), modulo=N)


@pytest.mark.parametrize("kind,q,l", [("A1", 4, 2), ("A2", 2, 2), ("A2", 2, 3), ("B2", 2, 2)])
def test_quotient_by_a_meataxe_witness_matches_the_per_vector_reference(kind, q, l):
    # the quotients that composition series takes, each read as its dual: by
    # the MeatAxe witness of the flag module (reducible: it holds the
    # constants) and of each reducible filtration piece
    lm = LevelModule(kind, q, l)
    handles = [lm.handle] + [piece.handle for piece in lm.filtration().values()]
    quotients = 0
    for handle in handles:
        verdict = meataxe_irreducible(handle, seed=0)
        if not verdict.irreducible:
            assert_dual_is_the_quotient(handle, verdict.witness)
            quotients += 1
    assert quotients >= 1


# -- action reads against the dense-matrix reference ---------------------------


def dense_algebra_element(handle, rng, max_word):
    """Reference: the random algebra element as a sum of dense matrix words,
    drawing from the generator in the same order."""
    gens = handle.spin_labels
    nterms = int(rng.integers(1, 4))
    A = np.zeros((handle.dim, handle.dim), dtype=np.int64)
    spec = []
    for _ in range(nterms):
        coeff = int(rng.integers(1, handle.l))
        length = int(rng.integers(1, max_word + 1))
        picks = [gens[int(k)] for k in rng.integers(len(gens), size=length)]
        term = np.eye(handle.dim, dtype=np.int64)
        for lbl in picks:
            term = (term @ dense_matrix(handle, lbl)) % handle.l
        A = (A + coeff * term) % handle.l
        spec.append((coeff, [str(lbl) for lbl in picks]))
    return A, spec


def dense_fixed_space(handle, labels):
    """Reference: the kernel of the stacked dense (A - 1) over the labels."""
    if not labels:
        return Subspace(handle.dim, handle.l, np.eye(handle.dim, dtype=np.int64))
    eye = np.eye(handle.dim, dtype=np.int64)
    stacked = np.vstack([(dense_matrix(handle, lbl) - eye) % handle.l for lbl in labels])
    return Subspace(handle.dim, handle.l, nullspace(stacked, handle.l))


def flag_module(l):
    """The flag module of SL_2(F_2) (the symmetric group on three points):
    its spin labels do not commute, so word order shows."""
    return borel_perm_module("A1", 2, l)[2]


def flag_augmentation(l):
    """The flag module and its augmentation submodule."""
    h = flag_module(l)
    return h, spin(h, [np.array([1, l - 1, 0])])


def mat_flag_module(l):
    """Its augmentation submodule, every action a dense matrix."""
    sub = restrict(*flag_augmentation(l))
    assert sub.dim == 2 and all(kind == "mat" for kind, _, _ in sub.actions.values())
    return sub


HANDLES = [uniserial_module, mat_uniserial_module, flag_module, mat_flag_module]
HANDLE_IDS = ["perm", "mat", "flag-perm", "flag-mat"]


@pytest.mark.parametrize("l", [2, 3, 5])
@pytest.mark.parametrize("build", HANDLES, ids=HANDLE_IDS)
def test_random_algebra_element_matches_dense_words(l, build):
    handle = build(l)
    rng, ref_rng = np.random.default_rng(l), np.random.default_rng(l)
    for _ in range(20):
        A, spec = _random_algebra_element(handle, rng)
        ref_A, ref_spec = dense_algebra_element(handle, ref_rng, 8)
        assert np.array_equal(A, ref_A) and spec == ref_spec
    # both consumed the generator alike
    assert rng.integers(1 << 30) == ref_rng.integers(1 << 30)


@pytest.mark.parametrize("l", [2, 3])
@pytest.mark.parametrize("kind", ["A2", "B2"])
def test_permutation_words_match_dense_words_on_borel_modules(kind, l):
    # every label is a permutation, so every word is read back through index
    # gathers of the rows of the identity
    handle = borel_perm_module(kind, 2, l)[2]
    assert all(action[0] == "perm" for action in handle.actions.values())
    for seed in range(6):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            A, spec = _random_algebra_element(handle, rng)
            ref_A, ref_spec = dense_algebra_element(handle, ref_rng, 8)
            assert np.array_equal(A, ref_A) and spec == ref_spec
        assert rng.integers(1 << 30) == ref_rng.integers(1 << 30)


@pytest.mark.parametrize("l", [2, 3, 5])
@pytest.mark.parametrize("build", HANDLES, ids=HANDLE_IDS)
def test_images_read_a_vector_or_each_row_of_a_block(l, build):
    # images is x A^T, for one vector A x
    handle = build(l)
    block = np.random.default_rng(l).integers(0, l, size=(4, handle.dim))
    for label in handle.actions:
        M = dense_matrix(handle, label)
        assert np.array_equal(handle.images(label, block), block @ M.T % l)
        for v in block:
            assert np.array_equal(handle.images(label, v), M @ v % l)


@pytest.mark.parametrize("l", [2, 3, 5])
@pytest.mark.parametrize("build", [uniserial_module, flag_module], ids=["perm", "flag-perm"])
def test_perm_is_the_point_map_that_images_applies(l, build):
    # images(label, e_i) = e_perm[i], and the transpose reads the inverse map
    handle = build(l)
    tr = handle.transpose()
    for label in handle.actions:
        fwd = handle.perm(label)
        for i in range(handle.dim):
            assert np.array_equal(handle.images(label, handle.basis_vector(i)), handle.basis_vector(int(fwd[i])))
        if label in handle.spin_labels:
            assert np.array_equal(tr.perm(label)[fwd], np.arange(handle.dim))
    with pytest.raises(AssertionError, match="permutation labels"):
        mat_uniserial_module(l).perm("c")


@pytest.mark.parametrize("l", [2, 3, 5])
def test_fixed_vector_walks_matrix_labels(l):
    # a restricted handle of a cyclic l-group: every label a dense matrix
    handle = mat_uniserial_module(l)
    labels = list(handle.actions)
    rng = np.random.default_rng(l)
    for _ in range(10):
        v = np.zeros(handle.dim, dtype=np.int64)
        while not v.any():
            v = rng.integers(0, l, size=handle.dim)
        x = fixed_vector(handle, labels, v)
        assert x is not None and np.any(x)
        assert all(np.array_equal(handle.images(label, x), x) for label in labels)
        assert spin(handle, [v]).contains(x)


@pytest.mark.parametrize("l", [2, 3, 5])
@pytest.mark.parametrize("build", HANDLES, ids=HANDLE_IDS)
def test_transpose_acts_as_the_transposed_matrix(l, build):
    handle = build(l)
    tr = handle.transpose()
    assert tr.dim == handle.dim and tr.l == handle.l
    assert tr.spin_labels == handle.spin_labels and list(tr.actions) == handle.spin_labels
    for label in handle.spin_labels:
        # a permutation stays a permutation
        assert tr.actions[label][0] == handle.actions[label][0]
        MT = dense_matrix(handle, label).T
        assert np.array_equal(dense_matrix(tr, label), MT)
        for i in range(handle.dim):
            e = handle.basis_vector(i)
            assert np.array_equal(tr.images(label, e), MT @ e % l)


@pytest.mark.parametrize("l", [2, 3, 5])
@pytest.mark.parametrize("build", HANDLES, ids=HANDLE_IDS)
def test_fixed_space_matches_dense_stack(l, build):
    # a matrix handle here is a restriction: its fixed space is the ambient
    # orbit sums met with the subspace, read in the subspace's coordinates
    handle = build(l)
    ambient = {mat_uniserial_module: uniserial_hyperplane, mat_flag_module: flag_augmentation}.get(build)
    for labels in (handle.spin_labels, list(handle.actions), list(handle.actions)[-1:]):
        ref = dense_fixed_space(handle, labels)
        if ambient is None:
            assert fixed_space(handle, labels) == ref
            continue
        amb, S = ambient(l)
        met = S.intersect(fixed_space(amb, labels))
        assert Subspace(S.dim, l, S.coords(met.rows)) == ref
        with pytest.raises(AssertionError, match="permutation labels"):
            fixed_space(handle, labels)


# -- lines of a span, and the modules the MeatAxe tests run on ----------------


def product_and_skip_lines(basis, l):
    """Reference: scan every coefficient tuple in lexicographic order and keep
    those whose first nonzero entry is 1."""
    for combo in itertools.product(range(l), repeat=len(basis)):
        if next((c for c in combo if c), None) == 1:
            yield (np.array(combo, dtype=np.int64) @ basis) % l


def first_proper_spin_per_line(handle, basis):
    """Reference: spin every line of the row span one at a time, in line
    order, and return the first proper spin."""
    for v in product_and_skip_lines(basis, handle.l):
        S = spin(handle, [v])
        if S.dim < handle.dim:
            return S
    return None


@pytest.mark.parametrize("l", [2, 3, 5])
def test_line_representatives_match_product_and_skip(l):
    rng = np.random.default_rng(l)
    for k in range(5):
        for basis in (np.eye(k, 6, dtype=np.int64), rng.integers(0, l, size=(k, 6))):
            lines = [v.tolist() for v in line_representatives(basis, l)]
            assert lines == [v.tolist() for v in product_and_skip_lines(basis, l)]
        # the prefix property: the first (l^j - 1)/(l - 1) lines are the
        # lines of the span of the last j rows
        lines = list(line_representatives(np.eye(k, 6, dtype=np.int64), l))
        assert len(lines) == (l**k - 1) // (l - 1)
        for j in range(k + 1):
            head = lines[: (l**j - 1) // (l - 1)]
            assert all(not np.any(v[: k - j]) for v in head)


def matrix_module(l, mats):
    h = ModuleHandle(len(mats[0]), l, [])
    for i, M in enumerate(mats):
        h.add_matrix(i, M)
        h.spin_labels.append(i)
    return h


def transvections(l, d):
    """1 + E(i, i+1 mod d) for every i: generators of SL_d(l), whose words
    span the full matrix algebra, so GF(l)^d is absolutely irreducible."""
    out = []
    for i in range(d):
        T = np.eye(d, dtype=np.int64)
        T[i, (i + 1) % d] = 1
        out.append(T)
    return out


def mat_pow(M, e, l):
    out = np.eye(len(M), dtype=np.int64)
    while e:
        if e & 1:
            out = (out @ M) % l
        M, e = (M @ M) % l, e >> 1
    return out


def field_module(l, e):
    """GF(l^e) as an e-dimensional GF(l)-module under multiplication by a
    primitive element: the first companion matrix of order l^e - 1.  It is
    irreducible with endomorphism ring GF(l^e), so not absolutely
    irreducible for e > 1."""
    N = l**e - 1
    primes = [p for p in range(2, N + 1) if N % p == 0 and all(p % r for r in range(2, p))]
    eye = np.eye(e, dtype=np.int64)
    for tail in itertools.product(range(l), repeat=e):
        C = np.zeros((e, e), dtype=np.int64)
        C[1:, :-1] = eye[:-1, :-1]
        C[:, -1] = tail
        if np.array_equal(mat_pow(C, N, l), eye) and all(
            not np.array_equal(mat_pow(C, N // p, l), eye) for p in primes
        ):
            return matrix_module(l, [C])
    raise AssertionError("no primitive element")


def dual_sum_module(l):
    """V + V* for V = GF(l)^3 under SL_3(l): two non-isomorphic simples,
    each generator acting as diag(T, T^-T), with T^-1 = 2 - T."""
    mats = []
    for T in transvections(l, 3):
        M = np.zeros((6, 6), dtype=np.int64)
        M[:3, :3], M[3:, 3:] = T, (2 * np.eye(3, dtype=np.int64) - T).T % l
        mats.append(M)
    return matrix_module(l, mats)


@pytest.mark.parametrize("l", [2, 3, 5])
@pytest.mark.parametrize("build", HANDLES, ids=HANDLE_IDS)
def test_spin_reduces_its_seeds_on_entry(l, build):
    # _add takes entries in [0, l); spin reduces its seeds
    handle = build(l)
    rng = np.random.default_rng(l)
    seed = rng.integers(0, l, size=handle.dim)
    shifted = seed + l * rng.integers(-3, 4, size=handle.dim)
    S, ref = spin(handle, [shifted]), spin(handle, [seed])
    assert S.pivots == ref.pivots and np.array_equal(S.rows, ref.rows)


# -- Holt-Rees against every line of a kernel ---------------------------------

# the reference enumerates a kernel's lines only when it has at most this many
LINE_BUDGET = 2000


def every_line_meataxe(handle, seed=0, budget=200):
    """Reference: the line-certifying MeatAxe.  For a random algebra element
    with a kernel of at most LINE_BUDGET lines, every line of ker A and of
    ker A^T is spun one at a time; if every line of the whole space fits the
    budget, they are the fallback."""
    d = handle.dim
    if d == 1:
        return linrep.Verdict(True, certificate={"method": "dimension-1"})
    rng = np.random.default_rng(seed)
    for attempt in range(budget):
        A, spec = _random_algebra_element(handle, rng)
        ker = nullspace(A, handle.l)
        nu = len(ker)
        n_lines = (handle.l**nu - 1) // (handle.l - 1)
        if nu in (0, d) or n_lines > LINE_BUDGET:
            continue
        S = first_proper_spin_per_line(handle, ker)
        if S is not None:
            return linrep.Verdict(False, witness=S, certificate={"method": "kernel-spin", "element": spec})
        S = first_proper_spin_per_line(handle.transpose(), nullspace(A.T, handle.l))
        if S is not None:
            return linrep.Verdict(False, witness=S.perp(),
                                  certificate={"method": "transpose-kernel", "element": spec})
        return linrep.Verdict(True, certificate={"method": "singular-element", "element": spec,
                                                 "nullity": nu, "lines": n_lines, "attempt": attempt})
    n_lines = (handle.l**d - 1) // (handle.l - 1)
    assert n_lines <= LINE_BUDGET
    S = first_proper_spin_per_line(handle, np.eye(d, dtype=np.int64))
    if S is not None:
        return linrep.Verdict(False, witness=S, certificate={"method": "exhaustive-lines"})
    return linrep.Verdict(True, certificate={"method": "exhaustive-lines", "lines": n_lines})


def deciding_element(handle, seed, verdict):
    """Redraw the algebra element named in a verdict's certificate, with the
    same generator in the same order; returns A and p(A) for its factor p."""
    rng = np.random.default_rng(seed)
    while True:
        A, spec = _random_algebra_element(handle, rng)
        if spec == verdict.certificate["element"]:
            return A, _poly_at(A, np.array(verdict.certificate["factor"]), handle.l)


def assert_good_factor(handle, seed, verdict):
    """The factor that decided an irreducible verdict is good."""
    A, B = deciding_element(handle, seed, verdict)
    assert len(nullspace(B, handle.l)) == len(verdict.certificate["factor"]) - 1


def assert_invariant_witness(handle, verdict):
    W = verdict.witness
    assert 0 < W.dim < handle.dim
    restrict(handle, W)  # asserts that every label maps W into itself


def krylov_rank(A, v, k, l):
    rows = [np.asarray(v) % l]
    for _ in range(k - 1):
        rows.append(A @ rows[-1] % l)
    return Subspace(len(A), l, np.array(rows)).dim


@pytest.mark.parametrize("l", [2, 3, 5])
def test_min_poly_annihilates_minimally(l):
    rng = np.random.default_rng(l)
    for d in (1, 2, 4, 6):
        for _ in range(20):
            A = rng.integers(0, l, size=(d, d))
            if rng.integers(2):  # a scalar plus a nilpotent part, so m repeats a factor
                A = (rng.integers(l) * np.eye(d, dtype=np.int64) + np.triu(A, 1)) % l
            v = rng.integers(0, l, size=d)
            f = _min_poly(A, v, l)
            assert f[-1] == 1 and len(f) - 1 <= d
            if len(f) == 1:  # m = 1 only for v = 0
                assert not np.any(v % l)
                continue
            assert not np.any(_poly_at(A, f, l) @ v % l)
            # no polynomial of lower degree, so no proper monic divisor of f,
            # annihilates v
            assert krylov_rank(A, v, len(f) - 1, l) == len(f) - 1


@pytest.mark.parametrize("l,d", [(2, 4), (3, 6), (5, 4), (11, 3)])
def test_meataxe_absolutely_irreducible(l, d):
    # GF(l)^d under SL_d(l): End = GF(l), and the verdict comes from a good
    # factor, as the every-line reference agrees
    h = matrix_module(l, transvections(l, d))
    for seed in range(4):
        verdict = meataxe_irreducible(h, seed=seed)
        assert verdict.irreducible and verdict.certificate["method"] == "singular-element"
        assert_good_factor(h, seed, verdict)
        assert every_line_meataxe(h, seed=seed).irreducible


@pytest.mark.parametrize("l", [2, 3, 5, 11])
def test_meataxe_reducible(l):
    # V + V*: two non-isomorphic simples, so the only proper submodules are
    # V and V*, and every witness is one of them
    h = dual_sum_module(l)
    V, Vstar = Subspace(6, l, np.eye(3, 6, dtype=np.int64)), Subspace(6, l, np.eye(3, 6, k=3, dtype=np.int64))
    methods = set()
    for seed in range(8):
        verdict = meataxe_irreducible(h, seed=seed)
        assert not verdict.irreducible
        assert verdict.witness in (V, Vstar)
        methods.add(verdict.certificate["method"])
    assert methods <= {"kernel-spin", "transpose-kernel"}


@pytest.mark.parametrize("l", [2, 3, 5, 11])
def test_good_factors_on_field_modules(l):
    # GF(l^e) under multiplication: End = GF(l^e), so every kernel of p(A) is
    # a GF(l^e)-space and a good factor has degree a multiple of e
    for e in (2, 3):
        h = field_module(l, e)
        good = collections.Counter()
        for seed in range(6):
            verdict = meataxe_irreducible(h, seed=seed)
            assert verdict.irreducible
            assert_good_factor(h, seed, verdict)
            rng = np.random.default_rng(seed)
            for _ in range(10):
                A, _ = _random_algebra_element(h, rng)
                for p in irreducible_factors(_min_poly(A, h.basis_vector(0), l), l):
                    if len(nullspace(_poly_at(A, p, l), l)) == len(p) - 1:
                        good[len(p) - 1] += 1
        assert good and all(deg % e == 0 for deg in good), good


def norton_modules(l):
    """The brute-forced lattice modules, the field extension, and the flag
    module of A2 q=2 and q=3 with every piece of its filtration."""
    yield "flag", flag_module(l)
    yield "uniserial", uniserial_module(l)
    yield "dual-sum", dual_sum_module(l)
    yield "field", field_module(l, 2)
    for q in (2, 3):
        lm = LevelModule("A2", q, l)
        yield "A2-%d" % q, lm.handle
        for J, piece in lm.filtration().items():
            yield "A2-%d-piece-%s" % (q, "".join(str(i + 1) for i in sorted(J))), piece.handle


@pytest.mark.parametrize("l", [2, 3, 5])
def test_norton_transpose_spin_matches_every_line(l):
    methods = collections.Counter()
    for name, handle in norton_modules(l):
        for seed in range(6):
            got = meataxe_irreducible(handle, seed=seed)
            assert got.irreducible == every_line_meataxe(handle, seed=seed).irreducible, (name, seed)
            if got.irreducible:
                assert got.witness is None
            else:
                assert_invariant_witness(handle, got)
            methods[got.certificate["method"]] += 1
    assert methods["kernel-spin"] and methods["singular-element"]
    # the transpose side decides some of these at l = 2 and 3
    assert methods["transpose-kernel"] or l == 5, methods


def test_norton_decides_a_reducible_piece_on_the_transpose_side():
    # A2 q=2 at l = 3, the top piece: with seed 0, the kernel spin of the
    # good factor generates, and the one transposed spin finds the submodule
    handle = LevelModule("A2", 2, 3).filtration()[frozenset({0, 1})].handle
    got = meataxe_irreducible(handle, seed=0)
    assert got.certificate["method"] == "transpose-kernel" and not got.irreducible
    assert_invariant_witness(handle, got)
    assert not every_line_meataxe(handle, seed=0).irreducible


def test_norton_witness_does_not_depend_on_the_row_spun():
    # A2 q=2 at l = 3, the top piece, seed 3: the kernel spin of the good
    # factor p generates, so ker p(A)^T lies in R^perp for R the unique
    # maximal submodule, and every nonzero vector of it spins to R^perp
    handle = LevelModule("A2", 2, 3).filtration()[frozenset({0, 1})].handle
    got = meataxe_irreducible(handle, seed=3)
    assert got.certificate["method"] == "transpose-kernel"
    _, B = deciding_element(handle, 3, got)
    kerT = nullspace(B.T, 3)
    assert len(kerT) == len(got.certificate["factor"]) - 1 == 3
    combo = np.random.default_rng(0).integers(1, 3, size=len(kerT)) @ kerT % 3
    tr = handle.transpose()
    for w in list(kerT) + [combo]:
        assert spin(tr, [w]).perp() == got.witness
    assert meataxe_irreducible(restrict(tr, got.witness.perp())).irreducible  # R^perp, dual to M/R, is simple

"""Oracle tests for the permutation-module layer and its verification suites.

The frozen dimensions below (flag counts, subquotient dimensions,
composition multisets, case tallies) were computed independently by
counting cosets and Bruhat cells by hand; see test_chevalley.py for the
cell-level counts they rest on.
"""

import itertools
from functools import lru_cache

import numpy as np
import pytest

from chevperm.chevalley import weyl_word
from chevperm.gf import make_field
from chevperm.linrep import Subspace, TriangularBasis, fixed_vector, restrict, spin
from chevperm import chevalley, permmod
from chevperm.permmod import (
    FIXED_POINT_TRIALS,
    SUITES,
    LevelModule,
    SuiteRunner,
    absorbs_from,
    closed_under_addition,
    commutes_into,
    parse_subset,
    subset_tag,
    suite_combinatorics,
    suite_composition,
    suite_filtration,
    suite_fixed_points,
    suite_induction,
    suite_level_steps,
    suite_parabolic_model,
    suite_reflection_cases,
    suite_separation,
    suite_socle,
    suite_steinberg,
    suite_structure,
    suite_subquotient_basis,
)
from chevperm.rootsys import root_datum

from test_chevalley import unipotent_words
from test_linrep import dense_fixed_space, dense_matrix, loop_quotient, loop_restrict


@lru_cache(maxsize=None)
def ctx(kind, q, a=1, b=None, char=None):
    # one shared runner per configuration; tests only read from them
    return SuiteRunner(kind, q, a=a, b=b, char=char)


def suite_dict(rep):
    return {"ok": rep.ok, "checked": rep.checked, "failed": rep.failed}


# -- construction oracles -----------------------------------------------------


def test_flag_module_sizes():
    assert ctx("A1", 2).base.dim == 3
    assert ctx("A1", 3).base.dim == 4
    assert ctx("A2", 2).base.dim == 21
    assert ctx("B2", 2).base.dim == 45


def test_alternating_sums_small():
    lm = ctx("A1", 2).base
    assert np.array_equal(lm.alternating_sum(frozenset()), lm.unit())
    eta = lm.alternating_sum({0})
    # 1 - (reflection translate), reduced mod 2: two unit coefficients
    assert eta[0] == 1 and np.count_nonzero(eta) == 2
    eta3 = ctx("A1", 3).base.alternating_sum({0})
    assert eta3[0] == 1 and sorted(eta3[eta3 != 0].tolist()) == [1, 2]


def test_filtration_dims_a1():
    pieces = ctx("A1", 2).base.filtration()
    assert {subset_tag(J): p.dim for J, p in pieces.items()} == {"-": 1, "1": 2}
    pieces3 = ctx("A1", 3).base.filtration()
    assert {subset_tag(J): p.dim for J, p in pieces3.items()} == {"-": 1, "1": 3}


def test_filtration_dims_a2():
    pieces = ctx("A2", 2).base.filtration()
    assert {subset_tag(J): p.dim for J, p in pieces.items()} == {
        "-": 1, "1": 6, "2": 6, "12": 8,
    }
    assert {subset_tag(J): p.sub_dim for J, p in pieces.items()} == {
        "-": 21, "1": 14, "2": 14, "12": 8,
    }


def test_filtration_dims_b2():
    pieces = ctx("B2", 2).base.filtration()
    dims = sorted(p.dim for p in pieces.values())
    assert dims == [1, 14, 14, 16] and sum(dims) == 45


def test_filtration_checks_non_spin_labels(monkeypatch):
    # a transposition of two cosets is no group element; the pieces carry
    # only the spin labels, but the filtration must still check every label:
    # as the last label of the one chunk, as the first, and in a later chunk
    # (a cap of one byte puts each label in a chunk of its own)
    for first, cap in [(False, None), (True, None), (False, 1)]:
        lm = LevelModule("A2", 2, 2)
        swap = np.arange(lm.dim)
        swap[[1, 2]] = [2, 1]
        lm.handle.add_perm(("bogus",), swap)
        assert ("bogus",) not in lm.handle.spin_labels
        if first:
            lm.handle.actions = {("bogus",): lm.handle.actions.pop(("bogus",)), **lm.handle.actions}
        if cap is not None:
            monkeypatch.setattr(chevalley, "STACK_BYTES", cap)
        with pytest.raises(AssertionError, match="outside the subspace") as err:
            lm.filtration()
        assert err.traceback[-1].name == "filtration", (first, cap)


def test_filtration_dims_survive_coefficient_change():
    # the translate bases do not depend on the coefficient prime, so the
    # subquotient dimensions must match the defining-characteristic ones
    pieces = ctx("A2", 2, char=5).base.filtration()
    assert sorted(p.dim for p in pieces.values()) == [1, 6, 6, 8]


# -- the filtration is spanned, not spun: spinning is its oracle ---------------


def spin_filtration(lm):
    """The filtration as spinning builds it, {J: (M_J, dim M_{>J}, C, E_J,
    project)}: M_J = spin(eta_J), M_{>J} the span of the M_{J+i}, E_J the
    two-stage subquotient, the restriction to M_J then the per-vector
    quotient by M_{>J}'s coordinates, project its projection and C the image
    of eta_J."""
    subsets = lm.datum.all_subsets()
    spun = {J: spin(lm.handle, [lm.alternating_sum(J)]) for J in subsets}
    out = {}
    for J in subsets:
        rows = [spun[J | {i}].rows for i in range(lm.datum.rank) if i not in J]
        above = Subspace(lm.dim, lm.ell, np.vstack(rows) if rows else None)
        sub = spun[J]
        E, qproj = loop_quotient(restrict(lm.handle, sub), Subspace(sub.dim, lm.ell, sub.coords(above.rows)))

        def project(v, sub=sub, qproj=qproj):
            return qproj(sub.coords(v))

        out[J] = (sub, above.dim, project(lm.alternating_sum(J)), E, project)
    return out


def translate_rows(lm):
    """The paper's basis T, dense: the rows of `translates(tail, w.eta_J)`
    for each J and each entry of `y_translates(J, eta_J)`, in the
    filtration's order; and each row's block J."""
    rows, blocks = [], []
    for J in lm.datum.all_subsets():
        for _, tail, weta in lm.y_translates(J, lm.alternating_sum(J)):
            rows.append(lm.translates(tail, weta))
            blocks += [J] * len(rows[-1])
    return np.vstack(rows), blocks


@pytest.mark.parametrize("kind,q,b,char,level", [
    ("A1", 2, None, None, "base"), ("A1", 3, None, None, "base"),
    ("A1", 4, None, None, "base"), ("A1", 5, None, None, "base"),
    ("A2", 2, None, None, "base"), ("A2", 3, None, None, "base"),
    ("B2", 2, None, None, "base"), ("B2", 3, None, None, "base"), ("A3", 2, None, None, "base"),
    ("A2", 2, None, 3, "base"), ("B2", 2, None, 3, "base"),  # cross characteristic
    ("A1", 2, 3, None, "ext"), ("A2", 2, None, None, "ext"),  # A1 over GF(8), A2 over GF(4)
    ("A1", 2, 7, None, "ext"),  # A1 over GF(128): 254 labels, several chunks
])
def test_filtration_equals_the_spin_built_one(kind, q, b, char, level):
    # the pieces are read off the translate basis T: each M_J is the span of
    # T's rows that it contains, the spin-built submodule, and each piece is
    # the spin-built, two-stage one in the basis of block J's classes: P, the
    # oracle's projection of block J, is the change of basis, so a vector's
    # coordinates times P are the oracle's and P intertwines the actions
    lm = getattr(ctx(kind, q, b=b, char=char), level)
    pieces = lm.filtration()
    oracle = spin_filtration(lm)
    T, blocks = translate_rows(lm)
    assert list(pieces) == lm.datum.all_subsets()
    for J, (sub, prime_dim, C, E, project) in oracle.items():
        piece, tag = pieces[J], subset_tag(J)
        inside = [piece.contains(row) for row in T]
        assert Subspace(lm.dim, lm.ell, T[inside]) == sub and piece.sub_dim == sub.dim, tag
        assert piece.sub_dim - piece.dim == prime_dim and piece.dim == E.dim, tag
        P = project(T[[K == J for K in blocks]])
        assert Subspace(E.dim, lm.ell, P).dim == E.dim, tag
        assert np.array_equal(piece.C @ P % lm.ell, C), tag
        for label in lm.handle.spin_labels:
            lhs = dense_matrix(piece.handle, label).T @ P % lm.ell
            assert np.array_equal(lhs, P @ dense_matrix(E, label).T % lm.ell), (tag, label)
        for _, tail, weta in lm.y_translates(J, lm.alternating_sum(J)):
            block = lm.translates(tail, weta)
            assert np.array_equal(piece.project(block) @ P % lm.ell, project(block)), tag


def per_label_filtration(lm):
    """The filtration's pieces solved one label at a time: T's rows from
    `translate_rows`, one `TriangularBasis.coords` call per label, each
    asserted to map block J into the blocks K >= J.  Returns (T^-1)^T and
    {J: (sub_dim, C, {spin label: J x J action})}."""
    subsets, n, l = lm.datum.all_subsets(), lm.dim, lm.ell
    rows, blocks = translate_rows(lm)
    row, col = np.nonzero(rows)
    T = TriangularBasis(l, row, col, rows[row, col], np.array([w.length for w in lm.flags.bruhat_labels()]))
    block = np.array([subsets.index(J) for J in blocks])
    inside = np.array([[K >= J for K in subsets] for J in subsets])
    starts, sizes = np.searchsorted(block, np.arange(len(subsets))), np.bincount(block)
    actions = [{} for _ in subsets]
    for label in lm.handle.actions:
        v, r, y = T.coords(T.row, lm.handle.perm(label)[T.col], T.val)
        assert inside[block[v], block[r]].all(), label
        for j in range(len(subsets) if label in lm.handle.spin_labels else 0):
            mine = (block[v] == j) & (block[r] == j)
            M = np.zeros((sizes[j], sizes[j]), dtype=np.int64)
            M[r[mine] - starts[j], v[mine] - starts[j]] = y[mine]
            actions[j][label] = M
    v, r, y = T.coords(np.arange(n), np.arange(n), np.ones(n, dtype=np.int64))
    inverse_t = np.zeros((n, n), dtype=np.int64)
    inverse_t[r, v] = y
    return inverse_t, {
        J: (int(sizes[inside[j]].sum()), inverse_t[block == j] @ lm.alternating_sum(J) % l, actions[j])
        for j, J in enumerate(subsets)
    }


@pytest.mark.parametrize("kind,order,ell", [("A1", 128, 2), ("A2", 4, 2), ("B2", 2, 3), ("A3", 2, 2)])
def test_stacked_filtration_equals_the_per_label_one(monkeypatch, kind, order, ell):
    # the labels are solved in chunks under STACK_BYTES: the default cap, one
    # label per chunk and one chunk for all must all give the per-label pieces
    lm = LevelModule(kind, order, ell)
    inverse_t, oracle = per_label_filtration(lm)
    for cap in (chevalley.STACK_BYTES, 1, 1 << 40):
        monkeypatch.setattr(chevalley, "STACK_BYTES", cap)
        lm._filtration = None
        pieces = lm.filtration()
        assert list(pieces) == list(oracle), cap
        for J, (sub_dim, C, actions) in oracle.items():
            piece = pieces[J]
            assert np.array_equal(piece.inverse_t, inverse_t), (cap, J)
            assert piece.sub_dim == sub_dim and np.array_equal(piece.C, C), (cap, J)
            assert list(piece.handle.actions) == list(actions), (cap, J)
            for label, M in actions.items():
                assert np.array_equal(dense_matrix(piece.handle, label), M), (cap, J, label)


def test_filtration_refuses_a_translate_span_missing_a_row(monkeypatch):
    # dropping one non-first row of one block leaves n - 1 rows that still
    # hold eta_J; their leading cosets cannot cover G/B
    real = LevelModule.translates
    dropped = []

    def translates(self, w, v, handle=None):
        block = real(self, w, v, handle)
        if not dropped and len(block) > 1:
            dropped.append(block[1])
            return np.delete(block, 1, axis=0)
        return block

    monkeypatch.setattr(LevelModule, "translates", translates)
    lm = LevelModule("A2", 2, 2)
    with pytest.raises(AssertionError, match="leading columns do not cover") as err:
        lm.filtration()
    assert dropped and err.traceback[-1].name == "__init__"


def test_filtration_refuses_a_row_with_two_top_cosets(monkeypatch):
    # row 1 of a block plus row 0: u.w.eta_J + w.eta_J has two cosets of the
    # greatest length, u w w_J B and w w_J B
    real = LevelModule.translates
    doubled = []

    def translates(self, w, v, handle=None):
        block = real(self, w, v, handle)
        if not doubled and len(block) > 1:
            doubled.append(w)
            block[1] = (block[1] + block[0]) % self.ell
        return block

    monkeypatch.setattr(LevelModule, "translates", translates)
    lm = LevelModule("A2", 2, 2)
    with pytest.raises(AssertionError, match="no unique leading column") as err:
        lm.filtration()
    assert doubled and err.traceback[-1].name == "__init__"


def test_filtration_refuses_a_leading_coefficient_other_than_sign_wJ(monkeypatch):
    # at l = 3, -1 != 1: one row negated keeps its leading coset, with
    # coefficient -sign(w_J)
    real = LevelModule.translates
    flipped = []

    def translates(self, w, v, handle=None):
        block = real(self, w, v, handle)
        if not flipped and w.length:
            flipped.append(w)
            block[-1] = (-block[-1]) % self.ell
        return block

    monkeypatch.setattr(LevelModule, "translates", translates)
    lm = LevelModule("A2", 2, 3)
    with pytest.raises(AssertionError, match="not sign") as err:
        lm.filtration()
    assert flipped and err.traceback[-1].name == "filtration"


def test_filtration_checks_the_coset_sum_identity(monkeypatch):
    # one term of the signed coset sum counted twice, so scaled by 2; the
    # coset enumeration reads the representatives too, so build it first
    lm = LevelModule("A2", 3, 3)
    real = type(lm.datum).min_coset_reps

    def min_coset_reps(self, J):
        reps = real(self, J)
        return reps + [x for x in reps if x.length][:1]

    monkeypatch.setattr(type(lm.datum), "min_coset_reps", min_coset_reps)
    with pytest.raises(AssertionError, match="signed coset sum") as err:
        lm.filtration()
    assert err.traceback[-1].name == "filtration"


def test_operator_levels_interpolate():
    c = ctx("A1", 3, b=2)
    lm = c.ext
    assert lm.dim == 10
    # the operators read each row as a vector, so the identity comes back as
    # the transposed matrix
    I = np.eye(lm.dim, dtype=np.int64)
    s = lm.datum.simple_reflection(0)
    lo, hi = c.sub_values(), lm.values()
    assert np.array_equal(lm.theta(s, 0, hi, lo, I), lm.u_sum(s, lo, I))
    assert np.array_equal(lm.theta(s, 1, hi, lo, I), lm.u_sum(s, hi, I))
    assert np.array_equal(lm.u_sum(lm.datum.identity, hi, I), I)
    with pytest.raises(ValueError):
        lm.theta(s, 2, hi, lo, I)
    # a full-field sum has every column summing to the field order = 0 mod 3
    M = lm.root_sum(lm.datum.simple_indices[0], hi, I)
    assert (M.sum(axis=0) % lm.ell == 0).all()


@pytest.mark.parametrize("kind,q", [("A2", 2), ("B2", 3)])
def test_act_applies_the_word_rightmost_first(kind, q):
    # the dense product, leftmost factor outermost, applied to v; on the
    # Borel module and on the top piece, whose actions are dense matrices;
    # a letter with c = 0 is the identity
    lm = ctx(kind, q).base
    top = lm.filtration()[frozenset(range(lm.datum.rank))].handle
    letters = [(ri, c) for _, ri, c in lm.handle.spin_labels] + [(0, 0)]
    rng = np.random.default_rng(q)
    for handle in (lm.handle, top):
        v = rng.integers(0, lm.ell, size=handle.dim)
        for _ in range(5):
            word = [letters[i] for i in rng.integers(len(letters), size=4)]
            product = np.eye(handle.dim, dtype=np.int64)
            for ri, c in word:
                if c:
                    product = product @ dense_matrix(handle, ("r", ri, c)) % lm.ell
            assert np.array_equal(lm.act(word, v, handle), product @ v % lm.ell)


def dense_root_sum(handle, ri, values):
    M = np.zeros((handle.dim, handle.dim), dtype=np.int64)
    for c in values:
        M += np.eye(handle.dim, dtype=np.int64) if c == 0 else dense_matrix(handle, ("r", ri, c))
    return M % handle.l


def dense_chain(handle, factors):
    """Product of dense root sums, leftmost factor first in the product."""
    M = np.eye(handle.dim, dtype=np.int64)
    for ri, values in factors:
        M = (M @ dense_root_sum(handle, ri, values)) % handle.l
    return M


@pytest.mark.parametrize("kind,q", [("A2", 2), ("A1", 3), ("A1", 5)])
def test_vector_operators_match_dense_products(kind, q):
    c = ctx(kind, q, b=2)
    lm = c.ext
    datum = lm.datum
    lo, hi, reps = c.sub_values(), lm.values(), c.transversal_reps()
    phandle = lm.parabolic(frozenset({0}))
    for handle in (lm.handle, phandle):
        basis = np.eye(handle.dim, dtype=np.int64)
        for ri in range(len(datum.roots)):
            for values in (hi, lo, reps):
                M = dense_root_sum(handle, ri, values)
                for i, e in enumerate(basis):
                    assert np.array_equal(lm.root_sum(ri, values, e, handle), M[:, i])
        for w in datum.elements:
            for values in (hi, lo):
                M = dense_chain(handle, [(ri, values) for ri in datum.phi_minus(w)])
                for i, e in enumerate(basis):
                    assert np.array_equal(lm.u_sum(w, values, e, handle), M[:, i])
    # the order of the factors shows only for some level pairs (for A2 q=2:
    # the small level on top of the big one), so both pairs are compared
    for top, bottom in ((hi, lo), (lo, hi)):
        for w in datum.elements:
            roots = datum.phi_minus(w)
            for d in range(len(roots) + 1):
                M = dense_chain(lm.handle, [(ri, top if pos < d else bottom) for pos, ri in enumerate(roots)])
                for i, e in enumerate(np.eye(lm.dim, dtype=np.int64)):
                    assert np.array_equal(lm.theta(w, d, top, bottom, e), M[:, i])


# -- Weyl translates against explicit loops -------------------------------------


@pytest.mark.parametrize("kind,q", [("A2", 2), ("A2", 3), ("B2", 3)])
def test_translates_match_unipotent_words(kind, q):
    # the word-by-word path is the oracle; B2 q=3 is Sp_4 at odd q
    lm = ctx(kind, q).base
    rng = np.random.default_rng(q)
    for handle in (lm.handle, lm.parabolic(frozenset({0}))):
        v = rng.integers(0, lm.ell, size=handle.dim)
        for w in lm.datum.elements:
            block = lm.translates(w, v, handle)
            oracle = [lm.act(u, v, handle) for u in unipotent_words(lm.group, w)]
            # the same rows, in the words' order, summing to the collected operator
            assert len(block) == q ** w.length
            assert np.array_equal(block, np.array(oracle))
            assert np.array_equal(block.sum(axis=0) % lm.ell, lm.u_sum(w, lm.values(), v, handle))


@pytest.mark.parametrize("kind,q", [("A2", 2), ("B2", 3)])
def test_signed_sum_and_y_translates_match_explicit_loops(kind, q):
    lm = ctx(kind, q).base
    datum = lm.datum
    rng = np.random.default_rng(q)
    for handle in (lm.handle, lm.parabolic(frozenset({1}))):
        v = rng.integers(0, lm.ell, size=handle.dim)
        for J in datum.all_subsets():
            total = np.zeros(handle.dim, dtype=np.int64)
            for w in datum.subgroup_elements(J):
                total += (-1) ** w.length * lm.act(weyl_word(lm.group, w), v, handle)
            assert np.array_equal(lm.signed_sum(J, v, handle), total % lm.ell)
            wJ = datum.longest_element(J)
            ys = lm.y_translates(J, v, handle)
            assert [w for w, _, _ in ys] == datum.y_set(J)
            for w, tail, wv in ys:
                assert tail == wJ * w.inverse()
                assert np.array_equal(wv, lm.act(weyl_word(lm.group, w), v, handle))


def test_pieces_project_translate_blocks_row_by_row():
    lm = ctx("A2", 2).base
    for J, piece in lm.filtration().items():
        for _, tail, weta in lm.y_translates(J, lm.alternating_sum(J)):
            block = lm.translates(tail, weta)
            assert np.array_equal(piece.project(block), np.array([piece.project(v) for v in block]))


# -- U-fixed spaces: orbit sums ----------------------------------------------


@pytest.mark.parametrize("kind,q", [("A2", 2), ("A2", 3), ("B2", 2), ("B2", 3), ("A3", 2)])
def test_unipotent_fixed_space_is_the_bruhat_cells(kind, q):
    # the U-orbits on G/B are the Bruhat cells; on G/P_K there is one per
    # coset of W_K
    lm = ctx(kind, q).base
    cells = {}
    for x, w in enumerate(lm.flags.bruhat_labels()):
        cells.setdefault(w.perm, []).append(x)
    indicators = np.zeros((len(cells), lm.dim), dtype=np.int64)
    for row, members in zip(indicators, cells.values()):
        row[members] = 1
    assert lm.unipotent_fixed_space() == Subspace(lm.dim, lm.ell, indicators)
    for K in lm.datum.all_subsets():
        assert lm.unipotent_fixed_space(K).dim == len(lm.datum.min_coset_reps(K))


@pytest.mark.parametrize("kind,q", [("A2", 3), ("B2", 2)])
def test_socle_fixed_space_matches_the_restricted_dense_stack(kind, q):
    # the fixed space suite_socle hands to socle_simple_check, the ambient
    # orbit sums met with EpJ in its coordinates, against the kernel of the
    # restricted module's stacked (A - 1)
    lm = ctx(kind, q).base
    full = frozenset(range(lm.datum.rank))
    for J in lm.datum.all_subsets():
        phandle = lm.parabolic(full - J)
        EpJ = spin(phandle, [lm.parabolic_alternating_sum(J)])
        met = EpJ.intersect(lm.unipotent_fixed_space(full - J))
        ref = dense_fixed_space(loop_restrict(phandle, EpJ), lm.unipotent_labels())
        assert Subspace(EpJ.dim, lm.ell, EpJ.coords(met.rows)) == ref


@pytest.mark.parametrize("kind,q", [("A1", 2), ("A1", 3), ("A1", 4), ("A2", 2), ("A2", 3), ("B2", 2)])
def test_fixed_vector_lies_in_the_spin_and_the_fixed_space(kind, q):
    # l = p: the walk's witness is a U-fixed vector of kG.v, checked against
    # the spin of v, which also still decides the old way that kG.v meets F
    lm = ctx(kind, q).base
    labels, F = lm.unipotent_labels(), lm.unipotent_fixed_space()
    rng = np.random.default_rng(18)
    for _ in range(30):
        v = rng.integers(0, lm.ell, size=lm.dim)
        if not np.any(v):
            v[rng.integers(lm.dim)] = 1
        x = fixed_vector(lm.handle, labels, v)
        assert x is not None and np.any(x)
        assert all(np.array_equal(lm.handle.images(u, x), x) for u in labels)
        S = spin(lm.handle, [v])
        assert F.contains(x) and S.contains(x)
        assert Subspace(lm.dim, lm.ell, np.vstack([S.rows, F.rows])).dim < S.dim + F.dim


def test_fixed_vector_gives_up_when_u_is_no_l_group():
    # A1 q=2 at l=3: U has order 2 and swaps e_1 and e_2, so the walk from
    # e_1 reaches e_2 - e_1, on which u - 1 acts as -2 = 1, stays there and
    # gives up; U fixes e_0
    lm = ctx("A1", 2, char=3).base
    labels = lm.unipotent_labels()
    e0, e1 = lm.handle.basis_vector(0), lm.handle.basis_vector(1)
    assert fixed_vector(lm.handle, labels, e1) is None
    assert np.array_equal(fixed_vector(lm.handle, labels, e0), e0)


def test_embedded_values_and_transversal():
    c = ctx("A1", 3, b=2)
    vals, reps = c.sub_values(), c.transversal_reps()
    assert len(vals) == 3 and 0 in vals and 1 in vals
    assert len(reps) == 3
    F9 = make_field(3, 2)
    # the embedded subfield plus the transversal tiles the big field exactly
    assert {F9.add(v, r) for v in vals for r in reps} == set(range(9))


# -- closure hypotheses -------------------------------------------------------


def test_closure_helpers_a2():
    datum = root_datum("A2")
    a1, a2 = datum.simple_indices
    top = datum.root_index[(1, 1)]
    assert closed_under_addition(datum, [top])
    assert closed_under_addition(datum, [top, a1])
    assert not closed_under_addition(datum, [a1, a2])  # their sum escapes
    assert commutes_into(datum, [top], a1)
    inv = datum.phi_minus(datum.simple_reflection(0) * datum.simple_reflection(1))
    assert absorbs_from(datum, [top], [a2], a1, inv)
    assert not absorbs_from(datum, [], [a2, top], a1, inv)


def test_closure_helpers_b2():
    datum = root_datum("B2")
    s, long_ = datum.simple_indices
    mid = datum.root_index[(1, 1)]
    tall = datum.root_index[(2, 1)]
    assert closed_under_addition(datum, [mid, long_])
    assert not closed_under_addition(datum, [s, mid])  # s + mid = tall escapes
    assert closed_under_addition(datum, [tall, mid, long_])


# reference closure predicates: the per-combination loops, with the
# positive-root filter, that the landing-set inclusions replace


def ref_combos(datum, root_ids, mins):
    cap = max(sum(r) for r in datum.positive_roots)
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


def ref_closed_under_addition(datum, A):
    for _, rid in ref_combos(datum, A, [0] * len(A)):
        if rid is not None and rid in datum.positive_indices and rid not in A:
            return False
    return True


def ref_commutes_into(datum, A, beta):
    ids = [beta] + list(A)
    for coeffs, rid in ref_combos(datum, ids, [1] + [0] * len(A)):
        if sum(coeffs[1:]) == 0:
            continue
        if rid is not None and rid in datum.positive_indices and rid not in A:
            return False
    return True


def ref_absorbs_from(datum, A, B, gamma, inversion):
    ids = [gamma] + list(A) + list(B)
    inv = set(inversion)
    for _, rid in ref_combos(datum, ids, [1] + [0] * (len(A) + len(B))):
        if rid is not None and rid in inv and rid not in A:
            return False
    return True


@pytest.mark.parametrize("kind", ["A1", "A2", "A3", "B2"])
def test_closure_predicates_match_the_loops_on_level_step_splits(kind):
    # every split A = roots[:d], B = roots[d:] of an inversion set, with
    # beta = B[0] and every gamma outside the set, as suite_level_steps
    # forms them; over the inversion sets of all of W, a superset of its tails
    datum = root_datum(kind)
    answers = set()
    for w in datum.elements:
        roots = datum.phi_minus(w)
        for d in range(len(roots) + 1):
            A, B = roots[:d], roots[d:]
            got = closed_under_addition(datum, A)
            assert got == ref_closed_under_addition(datum, A)
            answers.add(got)
            if B:
                got = commutes_into(datum, A, B[0])
                assert got == ref_commutes_into(datum, A, B[0])
                answers.add(got)
            for gamma in datum.positive_indices:
                if gamma not in roots:
                    got = absorbs_from(datum, A, B, gamma, roots)
                    assert got == ref_absorbs_from(datum, A, B, gamma, roots)
                    answers.add(got)
    assert answers == ({True, False} if datum.rank > 1 else {True})


@pytest.mark.parametrize("kind", ["A1", "A2", "A3", "B2"])
def test_closure_predicates_match_the_loops_on_every_root_subset(kind):
    datum = root_datum(kind)
    pos = list(datum.positive_indices)
    for size in range(len(pos) + 1):
        for A in itertools.combinations(pos, size):
            A = list(A)
            assert closed_under_addition(datum, A) == ref_closed_under_addition(datum, A)
            for beta in pos:
                if beta not in A:
                    assert commutes_into(datum, A, beta) == ref_commutes_into(datum, A, beta)


def test_subset_tags_roundtrip():
    assert subset_tag(frozenset()) == "-"
    assert subset_tag({0, 2}) == "13"
    assert parse_subset("13", 3) == frozenset({0, 2})
    assert parse_subset("-", 3) == frozenset()
    with pytest.raises(ValueError):
        parse_subset("4", 3)


# -- suites: combinatorial and matrix levels ----------------------------------


def test_combinatorics_suite():
    for kind in ("A1", "A2", "A3", "B2"):
        rep = suite_combinatorics(ctx(kind, 2), 0)
        assert rep.ok and rep.failed == 0, (kind, rep.failures)
    assert suite_combinatorics(ctx("A2", 2), 0).checked > 30


def test_structure_suite():
    rep = suite_structure(SuiteRunner("A1", 3, samples=200), 0)
    assert rep.ok and rep.failed == 0, rep.failures
    rep2 = suite_structure(SuiteRunner("A2", 2, samples=200), 1)
    assert rep2.ok and rep2.checked > 100


def test_reflection_cases_frozen_counts():
    rep = suite_reflection_cases(ctx("A1", 3), 0)
    assert rep.ok and rep.failed == 0, rep.failures
    assert rep.checked == 9  # 3 coverage + 6 identity checks
    assert rep.witnesses[-1] == {"transfer": 2, "absorb": 2, "split": 2}

    rep2 = suite_reflection_cases(ctx("A2", 2), 0)
    assert rep2.ok and rep2.checked == 52, rep2.failures
    tallies = rep2.witnesses[-1]
    assert tallies["transfer"] + tallies["absorb"] + tallies["split"] == 26


# -- suites: one-level module -------------------------------------------------


def test_filtration_suite():
    rep = suite_filtration(ctx("A2", 2), 0)
    assert rep.ok and rep.failed == 0, rep.failures
    rep_b2 = suite_filtration(ctx("B2", 2), 0)
    assert rep_b2.ok and rep_b2.failed == 0, rep_b2.failures


def test_subquotient_basis_suite():
    rep = suite_subquotient_basis(ctx("A2", 2), 0)
    assert rep.ok and rep.failed == 0, rep.failures
    # every subset contributes independence + count + spanning
    assert rep.checked > 10


def test_parabolic_model_suite():
    rep = suite_parabolic_model(ctx("A1", 3), 0)
    assert rep.ok and rep.failed == 0, rep.failures
    rep2 = suite_parabolic_model(ctx("A2", 2), 0)
    assert rep2.ok and rep2.failed == 0, rep2.failures
    by_J = {w["J"]: w for w in rep2.witnesses if "factors" in w}
    assert by_J["12"]["factors"] == [8]
    assert by_J["-"]["factors"] == [1]


def test_steinberg_suite():
    rep = suite_steinberg(ctx("A1", 2), 0)
    assert rep.ok and rep.failed == 0, rep.failures
    rep2 = suite_steinberg(ctx("A2", 2), 0)
    assert rep2.ok and rep2.failed == 0, rep2.failures
    assert rep2.witnesses[-1]["dim"] == 8


def test_socle_suite():
    for kind, q in (("A1", 2), ("A1", 3)):
        rep = suite_socle(ctx(kind, q), 0)
        assert rep.ok and rep.failed == 0, (kind, q, rep.failures)
    rep3 = suite_socle(ctx("A1", 3), 0)
    gen_dims = {w["J"]: w["generated_dim"] for w in rep3.witnesses}
    # the empty-set generator spans the top simple piece, the full-set one
    # the invariant line
    assert gen_dims == {"-": 3, "1": 1}
    rep_a2 = suite_socle(ctx("A2", 2), 0)
    assert rep_a2.ok and rep_a2.failed == 0, rep_a2.failures


def test_composition_suite():
    rep = suite_composition(ctx("A2", 2), 0)
    assert rep.ok and rep.failed == 0, rep.failures
    full = [w for w in rep.witnesses if w["module"] == "full"][0]
    assert full["factors"] == [1, 3, 3, 3, 3, 8]
    rep5 = suite_composition(ctx("A1", 2, char=5), 0)
    assert rep5.ok, rep5.failures
    full5 = [w for w in rep5.witnesses if w["module"] == "full"][0]
    assert full5["factors"] == [1, 2]


def test_piece_composition_series_is_computed_once(monkeypatch):
    # composition and parabolic-model both read each piece's series; the
    # multiset does not depend on the seed, so the first caller's is kept
    runner = SuiteRunner("A2", 2)
    real = permmod.composition_series
    calls = []
    monkeypatch.setattr(permmod, "composition_series", lambda h, seed=0: calls.append(h) or real(h, seed=seed))
    assert suite_composition(runner, 3).ok
    pieces = runner.base.filtration()
    assert len(calls) == 1 + len(pieces)
    assert suite_parabolic_model(runner, 5).ok
    assert len(calls) == 1 + 2 * len(pieces)
    assert not any(h is piece.handle for h in calls[1 + len(pieces):] for piece in pieces.values())
    for piece in pieces.values():
        assert piece.composition_series(9) == real(piece.handle, seed=9)


def test_fixed_points_suite():
    rep = suite_fixed_points(ctx("A1", 3), 0)
    assert rep.ok and rep.failed == 0 and rep.checked == FIXED_POINT_TRIALS == 100


# -- suites: two field levels -------------------------------------------------


def test_level_steps_suite():
    rep = suite_level_steps(ctx("A2", 2, b=2), 0)
    assert rep.ok and rep.failed == 0, rep.failures
    assert rep.checked > 20


def test_separation_suite():
    rep = suite_separation(ctx("A2", 2, b=2), 0)
    assert rep.ok and rep.failed == 0, rep.failures
    assert rep.checked + rep.vacuous == 8 and rep.checked >= 6
    levels = {w["level"] for w in rep.witnesses}
    assert levels <= {"a", "b"} and levels


def test_theta_at_split_zero_is_the_level_a_unipotent_sum():
    # separation reads its level-a targets from the theta translates
    c = ctx("A2", 2, b=2)
    lm = c.ext
    lo, hi = c.sub_values(), lm.values()
    seen = 0
    for J in lm.datum.all_subsets():
        for w, tail, weta in lm.y_translates(J, lm.alternating_sum(J)):
            for v in (weta, lm.unit(), lm.handle.basis_vector(lm.dim - 1)):
                assert np.array_equal(lm.theta(tail, 0, hi, lo, v), lm.u_sum(tail, lo, v))
            seen += 1
    assert seen == 6


def test_induction_suite_and_skip():
    rep = suite_induction(ctx("A2", 2, b=2), 0)
    assert rep.ok and rep.failed == 0, rep.failures
    assert rep.checked == 2  # one admissible pair per one-element subset
    rep_a1 = suite_induction(ctx("A1", 2, b=2), 0)
    assert rep_a1.skipped and "no admissible" in rep_a1.skip_reason
    assert rep_a1.ok


# -- the registry and runner --------------------------------------------------


def test_registry_names():
    assert sorted(SUITES) == [
        "combinatorics", "composition", "filtration", "fixed-points",
        "induction", "level-steps", "parabolic-model", "reflection-cases",
        "separation", "socle", "steinberg", "structure", "subquotient-basis",
    ]
    for name, spec in SUITES.items():
        assert spec.scope in ("datum", "group", "base", "ext"), name
        assert spec.claim


def test_runner_applicability():
    cross = SuiteRunner("A1", 2, char=5)
    ok, reason = cross.applicable("socle")
    assert not ok and "defining" in reason
    assert cross.applicable("composition")[0]

    no_ext = SuiteRunner("A1", 2, b=1)
    ok, reason = no_ext.applicable("level-steps")
    assert not ok and "extension" in reason
    default = SuiteRunner("A1", 2)
    assert default.b == 2 and default.has_ext and default.applicable("level-steps")[0]

    big = SuiteRunner("A2", 4, a=2, b=6)
    ok, reason = big.applicable("separation")
    assert not ok and "exceeds" in reason
    assert big.applicable("combinatorics")[0]


def test_runner_runs_and_skips():
    runner = SuiteRunner("A1", 2, char=5)
    rep = runner.run("socle")
    assert rep.skipped and rep.ok and "defining" in rep.skip_reason
    rep2 = runner.run("combinatorics")
    assert rep2.ok and rep2.checked > 0 and rep2.seconds >= 0
    rep3 = runner.run("composition")
    assert rep3.ok and not rep3.skipped


@pytest.mark.parametrize("kwargs", [
    {"kind": "C3"},
    {"q": 6},
    {"q": 1},
    {"a": 0},
    {"b": 1, "a": 2},
    {"b": 3, "a": 2},
    {"char": 9},
    {"budget": 0},
    {"seed": -1},
    {"samples": 0},
])
def test_runner_rejects_invalid_input(kwargs):
    config = {"kind": "A1", "q": 2, **kwargs}
    with pytest.raises(ValueError):
        SuiteRunner(**config)


def test_runner_builds_modules_lazily():
    # the B2 flag module over GF(16) has far more than 10 cosets, so building
    # it would raise BudgetError; the structure suite never reads it
    runner = SuiteRunner("B2", 16, b=1, budget=10)
    assert runner.run("structure").ok

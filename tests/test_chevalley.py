import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from chevperm import chevalley
from chevperm.chevalley import (
    BudgetError,
    FlagIndex,
    MatrixGroup,
    check_structure_facts,
    decompose_simple_conjugate,
    matrix_group,
    mat_det,
    mat_inv,
    mat_mul,
    identity_matrix,
    _keys,
    coroot_word,
)
from chevperm.permmod import LevelModule


def unipotent_words(group, w):
    """Reference: all members of the unipotent piece attached to w, as
    root-element words.  Factors run over the positive roots sent negative
    by w, tallest first; coefficients run over the whole field with the last
    factor varying fastest.  The factored form is unique, so the list has
    q**length entries, all distinct as group elements."""
    phi = group.datum.phi_minus(w)
    return [tuple(zip(phi, coeffs)) for coeffs in itertools.product(group.field.elements(), repeat=len(phi))]


def whole_torus(group):
    """Every torus element, the parameters in itertools.product order."""
    return group.torus_elements(itertools.product(group.field.units(), repeat=group.datum.rank))


def closure(group, extra=()):
    """All group elements, by breadth-first closure over root generators."""
    gens = []
    for i in range(group.datum.rank):
        pos = group.datum.simple_indices[i]
        for root in (pos, pos + group.datum.n_pos):
            for c in group.field.units():
                gens.append(group.root_element(root, c))
    gens.extend(extra)
    return generated(group, gens)


def generated(group, gens):
    """The subgroup generated by gens, by breadth-first closure."""
    seen = {group.identity().tobytes(): group.identity()}
    frontier = list(seen.values())
    while frontier:
        nxt = []
        for M in frontier:
            for g in gens:
                P = group.mul(M, g)
                key = P.tobytes()
                if key not in seen:
                    seen[key] = P
                    nxt.append(P)
        frontier = nxt
    return list(seen.values())


def parabolic(group, K):
    """P_K: the Borel (every positive root element and the torus) together
    with x_{-a_i}(c) for i in K."""
    datum = group.datum
    units = group.field.units()
    gens = [group.root_element(r, c) for r in datum.positive_indices for c in units]
    gens += list(whole_torus(group))
    gens += [group.root_element(datum.simple_indices[i] + datum.n_pos, c) for i in sorted(K) for c in units]
    return generated(group, gens)


# -- scalar reference oracles for the batched coset kernels -------------------


def borel_canonical_scalar(group, M):
    """The Borel echelon form of one matrix, one column operation at a time."""
    ADD, MUL, NEG, INV = group.field.tables()
    A = M.copy()
    n = group.n
    pivots = []
    for j in range(n):
        for pj, pr in enumerate(pivots):
            f = A[pr, j]
            if f:
                A[:, j] = ADD[A[:, j], MUL[NEG[f], A[:, pj]]]
        r = max(i for i in range(n) if A[i, j])
        pivots.append(r)
        f = A[r, j]
        if f != 1:
            A[:, j] = MUL[INV[f], A[:, j]]
    return A, tuple(pivots)


def parabolic_reps(group, K):
    """Representatives of the Borel cosets in P_K: BwB/B = U_{Phi(w^-1)} w B
    for w in W_K (the unipotent factor runs over the inversion set of w^-1,
    not of w)."""
    return [
        group.mul(group.from_word(word), group.weyl_rep(w))
        for w in group.datum.subgroup_elements(K)
        for word in unipotent_words(group, w.inverse())
    ]


def coset_form_scalar(group, pk_reps, M):
    """The form of the coset M*P_K: the first byte-order minimum of the
    Borel forms of M*r over the P_K/B representatives r."""
    forms = (borel_canonical_scalar(group, group.mul(M, r)) for r in pk_reps)
    return min(forms, key=lambda form: form[0].tobytes())


def flag_index_scalar(group, K=frozenset()):
    """reps and index of the breadth-first enumeration of G/P_K, one coset
    and one generator at a time, the generators x_{+-a_i}(b) for the simple
    roots a_i and b over an F_p-basis of the field.  A form is u*P_w, u upper
    unitriangular and P_w a permutation matrix; scaling each column by the
    entry of w's representative at its pivot gives u*w', a group element."""
    datum = group.datum
    pk_reps = parabolic_reps(group, K)
    _, MUL, _, _ = group.field.tables()
    scales = {}
    for w in datum.elements:
        wd = group.weyl_rep(w)
        piv = borel_canonical_scalar(group, wd)[1]
        scales[piv] = wd[list(piv), range(group.n)]
    gens = [
        group.root_element(root, b)
        for i in range(datum.rank)
        for root in (datum.simple_indices[i], datum.simple_indices[i] + datum.n_pos)
        for b in group.field.fp_basis()
    ]
    reps, index = [], {}

    def visit(M):
        form, piv = coset_form_scalar(group, pk_reps, M)
        if form.tobytes() not in index:
            index[form.tobytes()] = len(reps)
            reps.append(MUL[form, scales[piv]])

    visit(group.identity())
    head = 0
    while head < len(reps):
        base = reps[head]
        head += 1
        for g in gens:
            visit(group.mul(g, base))
    return reps, index, pk_reps


def bfs_numbering(flags):
    """The index in flag_index_scalar's breadth-first numbering of every
    coset of the Borel index."""
    _, index, _ = flag_index_scalar(flags.group)
    return np.array([index[key] for key in _keys(flags.group.borel_canonical(flags.reps)[0])])


def mat_det_scalar(field, A):
    """The determinant of one matrix, one row operation at a time."""
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


def mat_inv_scalar(field, A):
    """The inverse of one matrix by Gauss-Jordan, one row operation at a time."""
    ADD, MUL, NEG, INV = field.tables()
    n = A.shape[0]
    M = np.concatenate([A.copy(), identity_matrix(n)], axis=1)
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r, col])
        if piv != col:
            M[[col, piv]] = M[[piv, col]]
        M[col] = MUL[INV[M[col, col]], M[col]]
        for r in range(n):
            if r != col and M[r, col]:
                M[r] = ADD[M[r], MUL[NEG[M[r, col]], M[col]]]
    return np.ascontiguousarray(M[:, n:])


def perm_of_scalar(flags, M):
    """The coset permutation of one element: the dense products M * rep, then
    their Borel forms looked up in the index."""
    forms = flags.group.borel_canonical(mat_mul(flags.group.field, M, flags.reps))[0]
    return np.array([flags._index[k] for k in _keys(forms)], dtype=np.int64)


def structure_facts_per_case(group, cap=20_000, samples=1000, seed=0):
    """check_structure_facts one case and one matrix at a time: the
    reference for the stacked sweeps, with the same draws in the same order."""
    rng = np.random.default_rng(seed)
    datum, F = group.datum, group.field
    report = {}

    def entry(checked=0, vacuous=0, failures=None, mode="exhaustive", notes=None):
        return {"checked": checked, "vacuous": vacuous, "failures": failures if failures is not None else [],
                "mode": mode, "notes": notes or {}}

    def sweep_cases(cases, cap=cap, draws=samples):
        if len(cases) <= max(cap, draws):
            return cases, "exhaustive"
        idx = rng.choice(len(cases), size=draws, replace=False)
        return [cases[int(k)] for k in idx], "sampled"

    def match_root_element(root_index, M):
        for c in F.elements():
            if np.array_equal(group.root_element(root_index, c), M):
                return c
        return None

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

    e = entry()
    torus = [group.from_word([wc for i, c in enumerate(params) for wc in coroot_word(group, i, c)])
             for params in itertools.product(F.units(), repeat=datum.rank)]
    cases, e["mode"] = sweep_cases([(t, ri, c) for t in torus for ri in range(len(datum.roots)) for c in F.units()])
    for t, ri, c in cases:
        e["checked"] += 1
        lhs = group.mul(t, group.root_element(ri, c), group.inv(t))
        character = 1
        for m, ex in enumerate(group._euclidean[ri]):
            d = int(t[m, m])
            character = F.mul(character, F.pow(d if ex >= 0 else F.inv(d), abs(ex)))
        if not np.array_equal(lhs, group.root_element(ri, F.mul(character, c))):
            e["failures"].append(("torus", ri, c))
    report["torus-action"] = e

    e = entry()
    cases, e["mode"] = sweep_cases([(w, ri, c) for w in datum.elements for ri in range(len(datum.roots))
                                    for c in F.units()])
    for w, ri, c in cases:
        e["checked"] += 1
        wd = group.weyl_rep(w)
        M = group.mul(wd, group.root_element(ri, c), group.inv(wd))
        if match_root_element(w.perm[ri], M) is None:
            e["failures"].append(("weyl-conjugation", w.word, ri, c))
    report["weyl-conjugation"] = e

    e = entry()
    q, W = F.order, datum.elements
    w0 = datum.longest_element(range(datum.rank))
    splits = [(None, datum.phi_minus(w0), [], samples)]
    for w in W:
        phi_w = datum.phi_minus(w)
        phi_c = [r for r in datum.positive_indices if r not in set(phi_w)]
        phi_c.sort(key=lambda r: (-sum(datum.roots[r]), datum.roots[r]))
        splits.append((w, phi_w, phi_c, max(1, samples // len(W))))
    for w, left_roots, right_roots, draws in splits:
        width = len(left_roots) + len(right_roots)
        cases, mode = sweep_cases(range(q**width), draws=draws)
        prods = set()
        for k in cases:
            coeffs = [int(k) // q ** (width - 1 - j) % q for j in range(width)]  # base-q digits, last fastest
            left = group.from_word(tuple(zip(left_roots, coeffs)))
            right = group.from_word(tuple(zip(right_roots, coeffs[len(left_roots):])))
            prods.add(group.mul(left, right).tobytes())
            e["checked"] += 1
        if mode == "sampled":
            e["mode"] = mode
        if len(prods) != len(cases):
            e["failures"].append(("factored-form-collision", len(prods)) if w is None
                                 else ("split-collision", w.word, len(prods)))
    report["unipotent-factorization"] = e

    e = entry()
    constants = {}
    pairs = [(a, b) for a in datum.positive_indices for b in datum.positive_indices if a != b]
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
        value_cases, mode = sweep_cases([(x, y) for x in F.units() for y in F.units()],
                                        cap // len(pairs), max(1, samples // len(pairs)))
        if mode == "sampled":
            e["mode"] = mode

        def commutator(x, y):
            Ma = group.root_element(a, x)
            Mb = group.root_element(b, y)
            return group.mul(group.inv(Ma), group.inv(Mb), Ma, Mb)

        def rhs_for(cand, x, y):
            out = group.identity()
            for (m, nn, rc), cv in zip(combos, cand):
                out = group.mul(out, group.root_element(rc, F.mul(F.mul(cv, F.pow(x, m)), F.pow(y, nn))))
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


@functools.lru_cache(maxsize=None)
def level_module(kind, q):
    """The coset module over GF(q) with coefficients in its characteristic."""
    return LevelModule(kind, q, matrix_group(kind, q).field.p)


def random_elements(group, count, seed, length=12):
    """Seeded products of random root elements."""
    rng = np.random.default_rng(seed)
    n_roots, order = len(group.datum.roots), group.field.order
    return [
        group.from_word([(int(r), int(c)) for r, c in zip(rng.integers(n_roots, size=length),
                                                           rng.integers(order, size=length))])
        for _ in range(count)
    ]


@pytest.mark.parametrize("kind,q", [("A2", 4), ("A2", 3), ("A3", 2), ("B2", 5)])
def test_stacked_det_and_inv_match_the_scalar_loops(kind, q):
    F = matrix_group(kind, q).field
    n = matrix_group(kind, q).n
    rng = np.random.default_rng(q)
    A = rng.integers(0, q, size=(200, n, n)).astype(np.uint8)
    A[:20, :, 1] = 0  # some certainly singular
    det = mat_det(F, A)
    assert det.shape == (200,)
    assert det.tolist() == [mat_det_scalar(F, M) for M in A]
    good = A[det != 0]
    assert len(good) > 50
    assert np.array_equal(mat_inv(F, good), np.stack([mat_inv_scalar(F, M) for M in good]))
    assert np.array_equal(mat_inv(F, good[0]), mat_inv_scalar(F, good[0]))  # a stack of one
    assert mat_det(F, good[0]) == mat_det_scalar(F, good[0])
    with pytest.raises(ValueError):
        mat_inv(F, A[:21])


def test_matrix_helpers_gf4():
    group = matrix_group("A2", 4)
    F = group.field
    rng = np.random.default_rng(5)
    for _ in range(20):
        A = rng.integers(0, 4, size=(3, 3)).astype(np.uint8)
        if mat_det(F, A) == 0:
            continue
        assert np.array_equal(mat_mul(F, A, mat_inv(F, A)), identity_matrix(3))


def test_sl2_simple_reflection_matrix():
    g2 = matrix_group("A1", 2)
    assert g2.simple_rep(0).tolist() == [[0, 1], [1, 0]]
    g3 = matrix_group("A1", 3)
    assert g3.simple_rep(0).tolist() == [[0, 1], [2, 0]]


def test_sl3_root_element_positions():
    group = matrix_group("A2", 2)
    a1, a2 = group.datum.simple_indices
    tall = group.datum.root_index[(1, 1)]
    assert group.root_element(a1, 1)[0, 1] == 1
    assert group.root_element(a2, 1)[1, 2] == 1
    assert group.root_element(tall, 1)[0, 2] == 1
    neg = a1 + group.datum.n_pos
    assert group.root_element(neg, 1)[1, 0] == 1


@pytest.mark.parametrize("kind,q", [("A1", 2), ("A2", 2), ("A2", 3), ("B2", 2), ("B2", 3), ("A3", 2)])
def test_constructors_land_in_group(kind, q):
    group = matrix_group(kind, q)
    for ri in range(len(group.datum.roots)):
        for c in group.field.elements():
            assert group.in_group(group.root_element(ri, c))
    for w in group.datum.elements:
        assert group.in_group(group.weyl_rep(w))
    for t in whole_torus(group):
        assert group.in_group(t)
        assert group.is_diagonal(t)


def test_sp4_positive_roots_upper_triangular():
    group = matrix_group("B2", 3)
    for ri in group.datum.positive_indices:
        assert group.is_upper_triangular(group.root_element(ri, 2))
        low = group.root_element(ri + group.datum.n_pos, 2)
        assert not group.is_upper_triangular(low)


@pytest.mark.parametrize("kind,q", [("A2", 2), ("A2", 3), ("B2", 2), ("B2", 3)])
def test_braid_relations_exact(kind, q):
    # the chosen reflection representatives satisfy the braid relations on
    # the nose, so products along any reduced word agree
    group = matrix_group(kind, q)
    s0, s1 = group.simple_rep(0), group.simple_rep(1)
    if kind == "A2":
        assert np.array_equal(group.mul(s0, s1, s0), group.mul(s1, s0, s1))
    else:
        assert np.array_equal(group.mul(s0, s1, s0, s1), group.mul(s1, s0, s1, s0))


GROUP_ORDERS = {("A1", 2): 6, ("A1", 3): 24, ("A2", 2): 168, ("B2", 2): 720}


@pytest.mark.parametrize("kind,q", sorted(GROUP_ORDERS))
def test_group_order_by_closure(kind, q):
    group = matrix_group(kind, q)
    assert len(closure(group)) == GROUP_ORDERS[(kind, q)]


@pytest.mark.parametrize("kind,q", [("A1", 2), ("A1", 3), ("A2", 2)])
def test_borel_canonical_separates_cosets_exhaustively(kind, q):
    group = matrix_group(kind, q)
    els = closure(group)
    inv = {M.tobytes(): group.inv(M) for M in els}
    canon = {M.tobytes(): group.borel_canonical(M)[0].tobytes() for M in els}
    for M in els:
        for N in els:
            same_coset = group.is_upper_triangular(
                group.mul(inv[M.tobytes()], N)
            )
            assert same_coset == (canon[M.tobytes()] == canon[N.tobytes()])


def test_sp4_canonical_separates_cosets():
    group = matrix_group("B2", 2)
    els = closure(group)
    classes = {}
    for M in els:
        classes.setdefault(group.borel_canonical(M)[0].tobytes(), []).append(M)
    assert len(classes) == 45
    assert all(len(v) == 16 for v in classes.values())
    reps = [v[0] for v in classes.values()]
    for rep, members in zip(reps, classes.values()):
        ri = group.inv(rep)
        for M in members:
            assert group.is_upper_triangular(group.mul(ri, M))
    for i, r1 in enumerate(reps):
        r1i = group.inv(r1)
        for r2 in reps[i + 1 :]:
            assert not group.is_upper_triangular(group.mul(r1i, r2))


def assert_blocks_are_parabolic_cosets(kind, K, size, cosets):
    """Two Borel cosets share a block of LevelModule.parabolic(K) iff their
    representatives r_x, r_y have r_x^-1 r_y in the brute-force P_K."""
    lm = level_module(kind, 2)
    group, reps = lm.group, lm.flags.reps
    P = {M.tobytes() for M in parabolic(group, K)}
    assert len(P) == size
    block = lm._blocks(K)
    assert lm.parabolic(K).dim == block.max() + 1 == cosets
    for x, rx in enumerate(reps):
        rxi = group.inv(rx)
        for y, ry in enumerate(reps):
            assert (group.mul(rxi, ry).tobytes() in P) == (block[x] == block[y]), (x, y)


@pytest.mark.parametrize("K", [frozenset({0}), frozenset({1})])
def test_parabolic_canonical_separates_cosets_exhaustively(K):
    assert_blocks_are_parabolic_cosets("A2", K, 24, 7)  # |SL_3(F_2)| / 7


@pytest.mark.parametrize("K", [frozenset({0}), frozenset({1})])
def test_sp4_parabolic_canonical_separates_cosets(K):
    assert_blocks_are_parabolic_cosets("B2", K, 48, 15)  # |Sp_4(F_2)| / 15


def test_parabolic_rejects_a_label_that_splits_a_block():
    lm = LevelModule("A2", 2, 2)
    w0 = lm.datum.longest_element(range(2))
    far = lm.flags.bruhat_labels().index(w0)  # outside the base block P_{0}/B
    swap = np.arange(lm.dim)
    swap[[0, far]] = far, 0
    lm.handle.add_perm("swap", swap)
    with pytest.raises(AssertionError):
        lm.parabolic({0})


FLAG_SIZES = [
    ("A1", 2, frozenset(), 3),
    ("A1", 3, frozenset(), 4),
    ("A2", 2, frozenset(), 21),
    ("A2", 4, frozenset(), 105),
    ("B2", 2, frozenset(), 45),
    ("B2", 3, frozenset(), 160),
    ("A3", 2, frozenset(), 315),
    ("A2", 2, frozenset({0}), 7),
    ("A2", 2, frozenset({0, 1}), 1),
    # every parabolic of A3 q=2 and B2 q=3: W_K with non-involutions, and
    # the odd-q Sp_4 cosets that column-scaled echelon forms over-count
    ("A3", 2, frozenset({0}), 105),
    ("A3", 2, frozenset({1}), 105),
    ("A3", 2, frozenset({2}), 105),
    ("A3", 2, frozenset({0, 1}), 15),
    ("A3", 2, frozenset({0, 2}), 35),
    ("A3", 2, frozenset({1, 2}), 15),
    ("A3", 2, frozenset({0, 1, 2}), 1),
    ("B2", 3, frozenset({0}), 40),
    ("B2", 3, frozenset({1}), 40),
    ("B2", 3, frozenset({0, 1}), 1),
]


@pytest.mark.parametrize("kind,q,K,size", FLAG_SIZES)
def test_flag_index_sizes(kind, q, K, size):
    if K:
        assert level_module(kind, q).parabolic(K).dim == size
    else:
        assert len(FlagIndex(matrix_group(kind, q))) == size


@pytest.mark.parametrize("kind,q", [("A3", 2), ("B2", 3)])
def test_parabolic_reps_and_perm_of_every_root(kind, q):
    lm = level_module(kind, q)
    group, flags = lm.group, lm.flags
    for i, rep in enumerate(flags.reps):
        assert group.in_group(rep) and flags.index_of(rep) == i, i
    for r in range(len(group.datum.roots)):
        perm = flags.perm_of(group.root_element(r, 1))
        assert sorted(perm) == list(range(len(flags))), r
    for K in group.datum.all_subsets():
        handle = lm.parabolic(K)
        for r in range(len(group.datum.roots)):
            perm = handle.actions[("r", r, 1)][1]
            assert sorted(perm) == list(range(handle.dim)), (sorted(K), r)


@pytest.mark.parametrize("kind,q", [("A2", 2), ("B2", 3)])
def test_index_of_keys_any_integer_dtype(kind, q):
    # an int64 matrix of a coset is the same coset as its uint8 form
    flags = FlagIndex(matrix_group(kind, q))
    assert flags.reps.dtype == np.uint8
    for i, rep in enumerate(flags.reps):
        assert flags.index_of(rep) == flags.index_of(rep.astype(np.int64)) == i, i


def test_batched_borel_canonical_matches_scalar_sl2_gf4():
    group = matrix_group("A1", 4)
    els = np.stack(closure(group))
    assert len(els) == 60
    forms, pivots = group.borel_canonical(els)
    for M, form, piv in zip(els, forms, pivots):
        want_form, want_piv = borel_canonical_scalar(group, M)
        assert np.array_equal(form, want_form) and tuple(piv.tolist()) == want_piv


@pytest.mark.parametrize("kind,q,seed", [("B2", 3, 1), ("A3", 2, 2)])
def test_batched_borel_canonical_matches_scalar_sample(kind, q, seed):
    group = matrix_group(kind, q)
    els = np.stack(random_elements(group, 300, seed))
    forms, pivots = group.borel_canonical(els)
    assert len({piv.tobytes() for piv in pivots}) > 1
    for M, form, piv in zip(els, forms, pivots):
        want_form, want_piv = borel_canonical_scalar(group, M)
        assert np.array_equal(form, want_form) and tuple(piv.tolist()) == want_piv
    # a single matrix is a stack of one
    form, piv = group.borel_canonical(els[0])
    assert np.array_equal(form, forms[0]) and np.array_equal(piv, pivots[0])


def test_borel_canonical_singular_raises():
    group = matrix_group("A2", 3)
    M = group.simple_rep(0).copy()
    M[:, 1] = 0
    with pytest.raises(ValueError):
        group.borel_canonical(M)
    with pytest.raises(ValueError):
        group.borel_canonical(np.stack([group.identity(), M]))


@pytest.mark.parametrize("kind,q", [("A2", 3), ("B2", 3), ("A3", 2)])
def test_flag_index_and_perm_of_match_scalar_oracle(kind, q):
    # the Borel index against the scalar BFS, as sets of forms and through
    # the map between the two numberings, and every label of every
    # parabolic module against the P_K/B byte-order-minimum oracle
    lm = level_module(kind, q)
    group, flags = lm.group, lm.flags
    to_bfs = bfs_numbering(flags)
    for K in group.datum.all_subsets():
        reps, index, pk_reps = flag_index_scalar(group, K)
        if not K:
            assert set(flags._index) == set(index)
            assert sorted(to_bfs) == list(range(len(reps)))
        handle = lm.parabolic(K)
        for ri in range(len(group.datum.roots)):
            for c in group.field.units():
                M = group.root_element(ri, c)
                want = [index[coset_form_scalar(group, pk_reps, group.mul(M, rep))[0].tobytes()] for rep in reps]
                got = handle.actions[("r", ri, c)][1]
                if not K:
                    assert np.array_equal(flags.perm_of(M), got), (ri, c)
                    got, want = to_bfs[got], [want[x] for x in to_bfs]
                assert got.tolist() == want, (sorted(K), ri, c)


def test_flag_budget():
    with pytest.raises(BudgetError):
        FlagIndex(matrix_group("A2", 4), budget=50)


@pytest.mark.parametrize("kind,q", [("A2", 2), ("A2", 4), ("B2", 3), ("A3", 2)])
def test_bruhat_cell_sizes_sl3(kind, q):
    # every rep a group element with the echelon pivots of the Weyl
    # representative of its cell, found at its own index; q^length(w)
    # cosets per cell; B2 q=3 is Sp_4 at odd q, where a column-scaled form
    # lies outside the group
    group = matrix_group(kind, q)
    flags = FlagIndex(group)
    labels = flags.bruhat_labels()
    assert len(labels) == len(flags) and group.in_group(flags.reps).all()
    pivots = group.borel_canonical(flags.reps)[1]
    sizes = {}
    for i, (rep, piv, w) in enumerate(zip(flags.reps, pivots, labels)):
        assert np.array_equal(piv, group.borel_canonical(group.weyl_rep(w))[1]), i
        assert flags.index_of(rep) == i, i
        sizes[w.perm] = sizes.get(w.perm, 0) + 1
    assert sizes == {w.perm: q**w.length for w in group.datum.elements}
    assert labels[0].length == 0 and flags.index_of(group.identity()) == 0


@pytest.mark.parametrize("kind,q", [("A2", 3), ("B2", 3), ("A3", 2)])
def test_stacked_perm_of_matches_per_element(kind, q):
    # every root label at once, against the dense product per element; B2
    # at odd q has root elements with entries -1
    flags = FlagIndex(matrix_group(kind, q))
    roots = flags.group.root_elements()[:, 1:]
    perms = flags.perm_of(roots)
    assert perms.shape == roots.shape[:2] + (len(flags),)
    for ri, row in enumerate(roots):
        for j, M in enumerate(row):
            want = perm_of_scalar(flags, M)
            assert np.array_equal(perms[ri, j], want) and np.array_equal(flags.perm_of(M), want), (ri, j)


def test_chunked_stacks_give_the_same_results(monkeypatch):
    # a cap of a few matrices splits every product and every perm_of stack
    group = matrix_group("B2", 3)
    flags = FlagIndex(group)
    roots = group.root_elements()[:, 1:]
    perms, facts = flags.perm_of(roots), check_structure_facts(group)
    monkeypatch.setattr(chevalley, "STACK_BYTES", 200)
    assert np.array_equal(flags.perm_of(roots), perms)
    assert check_structure_facts(group) == facts
    assert np.array_equal(FlagIndex(group).reps, flags.reps)


def test_sampled_sweeps_draw_from_one_seeded_generator(monkeypatch):
    # the generator is made on the first sampled draw and shared: the sampled
    # sweeps' draws, in sweep order, are those of one default_rng(seed), and
    # a run of exhaustive sweeps makes no generator
    calls, made = [], []
    real_sweep, real_rng = chevalley._sweep_cases, np.random.default_rng

    def sweep(count, cap, samples, rng):
        idx, mode = real_sweep(count, cap, samples, rng)
        calls.append((count, samples, mode, idx))
        return idx, mode

    monkeypatch.setattr(chevalley, "_sweep_cases", sweep)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(seed) or real_rng(seed))
    group = matrix_group("B2", 3)
    facts = check_structure_facts(group, cap=50, samples=40, seed=7)
    assert {mode for _, _, mode, _ in calls} == {"exhaustive", "sampled"} and made == [7]
    assert all(not entry["failures"] for entry in facts.values())
    ref = real_rng(7)
    for count, samples, mode, idx in calls:
        if mode == "sampled":
            assert np.array_equal(idx, ref.choice(count, size=samples, replace=False)), (count, samples)
    calls.clear()
    made.clear()
    check_structure_facts(group)
    assert {mode for _, _, mode, _ in calls} == {"exhaustive"} and made == []


def test_perm_of_is_action():
    group = matrix_group("A2", 2)
    flags = FlagIndex(group)
    a1 = group.datum.simple_indices[0]
    g = group.root_element(a1, 1)
    h = group.simple_rep(1)
    pg, ph = flags.perm_of(g), flags.perm_of(h)
    assert sorted(pg) == list(range(21))
    assert np.array_equal(flags.perm_of(group.identity()), np.arange(21))
    assert np.array_equal(flags.perm_of(group.mul(g, h)), pg[ph])


def test_unipotent_words_sl3():
    group = matrix_group("A2", 2)
    w0 = group.datum.longest_element(range(2))
    words = unipotent_words(group, w0)
    mats = {group.from_word(wd).tobytes() for wd in words}
    assert len(words) == 8 and len(mats) == 8
    e = group.datum.identity
    assert unipotent_words(group, e) == [()]


def test_decompose_simple_conjugate_bijection():
    group = matrix_group("A1", 4)
    F = group.field
    params = {decompose_simple_conjugate(group, 0, c) for c in F.units()}
    assert params == set(F.units())  # c -> -1/c permutes the units
    with pytest.raises(ValueError):
        decompose_simple_conjugate(group, 0, 0)


def test_decompose_unique_over_gf2():
    # scan all candidate (x, t, y) triples in SL_2(F_2): only one works
    group = matrix_group("A1", 2)
    s = group.simple_rep(0)
    lhs = group.mul(s, group.root_element(0, 1), group.inv(s))
    hits = []
    for cx in group.field.units():
        for cy in group.field.units():
            x = group.root_element(0, cx)
            y = group.root_element(0, cy)
            for t in whole_torus(group):
                if np.array_equal(group.mul(x, s, t, y), lhs):
                    hits.append((cx, t.tobytes(), cy))
    assert len(hits) == 1


@pytest.mark.parametrize("kind,q", [("A1", 2), ("A1", 3), ("A2", 2), ("A2", 3), ("A3", 2), ("B2", 2), ("B2", 3),
                                    # the commutator sweep's table index rc * q + c once wrapped in uint8
                                    # (false failures) or overflowed (rc * q >= 256) at these orders
                                    ("A2", 125), ("B2", 81), ("A2", 128), ("A3", 64)])
def test_structure_facts_clean(kind, q):
    report = check_structure_facts(matrix_group(kind, q))
    for fact, data in report.items():
        assert data["failures"] == [], (fact, data["failures"][:3])
    if kind == "A1":
        assert report["commutator-relations"]["vacuous"] == 1
    else:
        assert report["commutator-relations"]["checked"] > 0
        assert report["commutator-relations"]["notes"]["constants"]


def test_structure_facts_sampled_gf16():
    group = matrix_group("A2", 16)
    report = check_structure_facts(group, cap=20_000, samples=1000, seed=11)
    total = 0
    sampled = False
    for fact, data in report.items():
        assert data["failures"] == [], (fact, data["failures"][:3])
        total += data["checked"]
        sampled = sampled or data["mode"] == "sampled"
    assert sampled and total >= 1000


def test_structure_facts_more_samples_than_cases():
    # the torus and Weyl sweeps of A1 over GF(4) exceed a cap of 5 but have
    # fewer cases than the samples asked for, so they stay exhaustive
    group = matrix_group("A1", 4)
    report = check_structure_facts(group, cap=5, samples=1000)
    n_cases = (group.field.order - 1) * 2 * 3
    for fact, n in (("torus-action", n_cases), ("weyl-conjugation", 2 * 2 * 3)):
        assert report[fact]["mode"] == "exhaustive" and report[fact]["checked"] == n, fact
        assert report[fact]["failures"] == []
    sampled = check_structure_facts(group, cap=5, samples=6)
    assert sampled["torus-action"]["mode"] == sampled["weyl-conjugation"]["mode"] == "sampled"
    assert sampled["torus-action"]["checked"] == sampled["weyl-conjugation"]["checked"] == 6


STRUCTURE_GROUPS = [("A1", 2), ("A1", 3), ("A2", 2), ("A2", 3), ("A3", 2), ("B2", 2), ("B2", 3)]


@pytest.mark.parametrize("kind,q,kw", [(kind, q, {}) for kind, q in STRUCTURE_GROUPS] + [
    ("A2", 16, {"seed": 11}),  # torus sweep sampled
    ("B2", 16, {}),  # torus sweep, factored form and every w-split sampled
    ("A1", 4, {"cap": 5, "samples": 6}),  # torus and Weyl sweeps sampled
    ("A2", 8, {"cap": 50, "samples": 40, "seed": 2}),  # commutator value cases sampled too
    ("B2", 13, {}),  # 169 candidate constant tuples for the pairs with two combos
    ("A3", 4, {"cap": 5, "samples": 60}),  # rank-3 pairs with sampled value cases: 30 pairs, 2 cases each
])
def test_stacked_structure_facts_match_the_per_case_sweeps(kind, q, kw):
    group = matrix_group(kind, q)
    assert check_structure_facts(group, **kw) == structure_facts_per_case(group, **kw)


def test_commutator_sweep_memory_is_bounded_by_the_drawn_cases():
    # B2 over GF(127): the pairs with two combos have 127^2 candidate
    # constant tuples and 83 drawn value cases.  Stacking every tuple
    # against every case peaked at 191.4 MiB of traced allocations; trying
    # the tuples on the first case and only the survivors on the rest
    # peaks at 6.2 MiB.
    group = matrix_group("B2", 127)
    tracemalloc.start()
    try:
        facts = check_structure_facts(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak
    commutators = facts["commutator-relations"]
    assert commutators["failures"] == [] and commutators["mode"] == "sampled"
    assert commutators["notes"]["constants"]["(0, 1),(1, 0)"] == (126, 1)


class OneWrongRootElement(MatrixGroup):
    """A2 over GF(3) whose x_r(1), r the highest root, is replaced by `wrong`."""

    def __init__(self, wrong):
        super().__init__("A2", matrix_group("A2", 3).field)
        self.wrong = np.array(wrong, dtype=np.uint8)
        self.tall = self.datum.root_index[(1, 1)]

    def root_element(self, root_index, c):
        if (root_index, c) == (self.tall, 1):
            return self.wrong.copy()
        return super().root_element(root_index, c)


@pytest.mark.parametrize("wrong", [
    [[1, 1, 1], [0, 1, 0], [0, 0, 1]],  # in SL_3, not a root element
    [[1, 0, 1], [0, 2, 0], [0, 0, 1]],  # determinant 2: outside SL_3
])
def test_stacked_structure_facts_report_the_per_case_failures(wrong):
    # the highest root is not simple, so the Weyl and torus elements stay
    # right and only the sweeps that read x_r(1) fail
    group = OneWrongRootElement(wrong)
    assert group.tall not in group.datum.simple_indices
    for kw in ({}, {"cap": 5, "samples": 20}):  # exhaustive, then every sweep sampled
        stacked, per_case = check_structure_facts(group, **kw), structure_facts_per_case(group, **kw)
        assert stacked == per_case
        for fact in ("root-homomorphism", "torus-action", "weyl-conjugation", "commutator-relations"):
            assert stacked[fact]["failures"], (fact, kw)
    assert {stacked[fact]["mode"] for fact in stacked} == {"exhaustive", "sampled"}
    assert [f[0] for f in stacked["root-homomorphism"]["failures"]].count("membership") == (wrong[1][1] != 1)


def test_structure_facts_sampled_w_split():
    # |U| = 16^4 > the default cap of 20 000, so both the factored form over
    # w0 and every w-split U = U_w x U'_w are sampled
    group = matrix_group("B2", 16)
    fact = check_structure_facts(group)["unipotent-factorization"]
    assert fact["mode"] == "sampled"
    assert fact["failures"] == []
    n_w = len(group.datum.elements)
    assert fact["checked"] == 1000 + n_w * (1000 // n_w)


def test_torus_sweep_builds_only_the_drawn_elements(monkeypatch):
    # A3 over GF(32) has 31^3 = 29 791 torus elements; the sweep draws 1000
    # cases and builds the torus elements of those cases only
    group = matrix_group("A3", 32)
    rows = []
    build = MatrixGroup.torus_elements

    def recording(self, params):
        params = [tuple(int(c) for c in row) for row in params]
        rows.extend(params)
        return build(self, params)

    monkeypatch.setattr(MatrixGroup, "torus_elements", recording)
    fact = check_structure_facts(group)["torus-action"]
    assert fact["mode"] == "sampled" and fact["checked"] == 1000 and fact["failures"] == []
    assert 0 < len(rows) <= 1000 and len(set(rows)) == len(rows)
    assert all(len(row) == 3 and 0 not in row for row in rows)

import functools

import numpy as np
import pytest

from chevperm.chevalley import (
    BudgetError,
    FlagIndex,
    check_structure_facts,
    decompose_simple_conjugate,
    matrix_group,
    mat_det,
    mat_inv,
    mat_mul,
    identity_matrix,
    unipotent_words,
)
from chevperm.permmod import LevelModule


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
    gens += group.torus_elements()
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


def flag_index_scalar(flags, K=frozenset()):
    """reps and index of the breadth-first enumeration of G/P_K, one coset
    and one generator at a time, with the generators of FlagIndex._build;
    `flags` is the Borel index, whose cells turn forms into group elements."""
    group, datum = flags.group, flags.group.datum
    pk_reps = parabolic_reps(group, K)
    _, MUL, _, _ = group.field.tables()
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
            reps.append(MUL[form, flags._cells[piv][1]])

    visit(group.identity())
    head = 0
    while head < len(reps):
        base = reps[head]
        head += 1
        for g in gens:
            visit(group.mul(g, base))
    return reps, index, pk_reps


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


def test_matrix_helpers_gf4():
    group = matrix_group("A2", 4)
    F = group.field
    rng = np.random.default_rng(5)
    for _ in range(20):
        A = rng.integers(0, 4, size=(3, 3)).astype(np.uint8)
        if mat_det(F, A) == 0:
            continue
        assert np.array_equal(mat_mul(F, A, mat_inv(F, A)), identity_matrix(F, 3))


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
    for t in group.torus_elements():
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
    # the Borel index against the scalar BFS, and every label of every
    # parabolic module against the P_K/B byte-order-minimum oracle
    lm = level_module(kind, q)
    group, flags = lm.group, lm.flags
    for K in group.datum.all_subsets():
        reps, index, pk_reps = flag_index_scalar(flags, K)
        if not K:
            assert np.array_equal(flags.reps, np.stack(reps))
            assert flags._index == index
        handle = lm.parabolic(K)
        for ri in range(len(group.datum.roots)):
            for c in group.field.units():
                M = group.root_element(ri, c)
                want = [index[coset_form_scalar(group, pk_reps, group.mul(M, rep))[0].tobytes()] for rep in reps]
                assert handle.actions[("r", ri, c)][1].tolist() == want, (sorted(K), ri, c)
                if not K:
                    assert flags.perm_of(M).tolist() == want, (ri, c)


def test_flag_budget():
    with pytest.raises(BudgetError):
        FlagIndex(matrix_group("A2", 4), budget=50)


def test_bruhat_cell_sizes_sl3():
    flags = FlagIndex(matrix_group("A2", 2))
    labels = flags.bruhat_labels()
    sizes = {}
    for w in labels:
        sizes[w.word] = sizes.get(w.word, 0) + 1
    assert sorted(sizes.values()) == [1, 2, 2, 4, 4, 8]
    for word, count in sizes.items():
        assert count == 2 ** len(word)


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
            for t in group.torus_elements():
                if np.array_equal(group.mul(x, s, t, y), lhs):
                    hits.append((cx, t.tobytes(), cy))
    assert len(hits) == 1


@pytest.mark.parametrize("kind,q", [("A1", 2), ("A1", 3), ("A2", 2), ("A2", 3), ("A3", 2), ("B2", 2), ("B2", 3)])
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
    n_cases = len(group.torus_elements()) * 2 * 3
    for fact, n in (("torus-action", n_cases), ("weyl-conjugation", 2 * 2 * 3)):
        assert report[fact]["mode"] == "exhaustive" and report[fact]["checked"] == n, fact
        assert report[fact]["failures"] == []
    sampled = check_structure_facts(group, cap=5, samples=6)
    assert sampled["torus-action"]["mode"] == sampled["weyl-conjugation"]["mode"] == "sampled"
    assert sampled["torus-action"]["checked"] == sampled["weyl-conjugation"]["checked"] == 6


def test_structure_facts_sampled_w_split():
    # |U| = 16^4 > the default cap of 20 000, so both the factored form over
    # w0 and every w-split U = U_w x U'_w are sampled
    group = matrix_group("B2", 16)
    fact = check_structure_facts(group)["unipotent-factorization"]
    assert fact["mode"] == "sampled"
    assert fact["failures"] == []
    n_w = len(group.datum.elements)
    assert fact["checked"] == 1000 + n_w * (1000 // n_w)

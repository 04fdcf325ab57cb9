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
    weyl_word,
)


def closure(group, extra=()):
    """All group elements, by breadth-first closure over root generators."""
    gens = []
    for i in range(group.datum.rank):
        pos = group.datum.simple_indices[i]
        for root in (pos, pos + group.datum.n_pos):
            for c in group.field.units():
                gens.append(group.root_element(root, c))
    gens.extend(extra)
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
    assert len(FlagIndex(matrix_group(kind, q), K)) == size


@pytest.mark.parametrize("kind,q", [("A3", 2), ("B2", 3)])
def test_parabolic_reps_and_perm_of_every_root(kind, q):
    group = matrix_group(kind, q)
    for K in group.datum.all_subsets():
        flags = FlagIndex(group, K)
        for i, rep in enumerate(flags.reps):
            assert group.in_group(rep) and flags.index_of(rep) == i, (sorted(K), i)
        for r in range(len(group.datum.roots)):
            perm = flags.perm_of(group.root_element(r, 1))
            assert sorted(perm) == list(range(len(flags))), (sorted(K), r)


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
    word = weyl_word(group, group.datum.longest_element(range(2)))
    assert np.array_equal(flags.perm_of_word(word), flags.perm_of(group.from_word(word)))


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
    params = {decompose_simple_conjugate(group, 0, c)[3] for c in F.units()}
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

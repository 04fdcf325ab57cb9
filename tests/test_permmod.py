"""Oracle tests for the permutation-module layer and its verification suites.

The frozen dimensions below (flag counts, subquotient dimensions,
composition multisets, case tallies) were computed independently by
counting cosets and Bruhat cells by hand; see test_chevalley.py for the
cell-level counts they rest on.
"""

from functools import lru_cache

import numpy as np
import pytest

from chevperm.gf import make_field
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

from test_linrep import dense_matrix


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
    assert {subset_tag(J): p.sub.dim for J, p in pieces.items()} == {
        "-": 21, "1": 14, "2": 14, "12": 8,
    }


def test_filtration_dims_b2():
    pieces = ctx("B2", 2).base.filtration()
    dims = sorted(p.dim for p in pieces.values())
    assert dims == [1, 14, 14, 16] and sum(dims) == 45


def test_filtration_checks_non_spin_labels():
    # a transposition of two cosets is no group element; the pieces carry
    # only the spin labels, but the filtration must still check every label
    lm = LevelModule("A2", 2, 2)
    swap = np.arange(lm.dim)
    swap[[1, 2]] = [2, 1]
    lm.handle.add_perm(("bogus",), swap)
    assert ("bogus",) not in lm.handle.spin_labels
    with pytest.raises(AssertionError, match="outside the subspace|not equivariant") as err:
        lm.filtration()
    assert err.traceback[-1].name in ("restrict", "quotient")


def test_filtration_dims_survive_coefficient_change():
    # the translate bases do not depend on the coefficient prime, so the
    # subquotient dimensions must match the defining-characteristic ones
    pieces = ctx("A2", 2, char=5).base.filtration()
    assert sorted(p.dim for p in pieces.values()) == [1, 6, 6, 8]


def test_operator_levels_interpolate():
    c = ctx("A1", 3, b=2)
    lm = c.ext
    assert lm.dim == 10
    # the operators act along axis 0, so the identity comes back as the matrix
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
    _, phandle = lm.parabolic(frozenset({0}))
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

    no_ext = SuiteRunner("A1", 2)
    ok, reason = no_ext.applicable("level-steps")
    assert not ok and "extension" in reason

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

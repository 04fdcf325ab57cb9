"""Acceptance gate: ten end-to-end criteria, each a single test.

Every criterion is exact (zero tolerance) and carries the runtime budget it
was specified with.  Run with `pytest -v` to get the one pass/fail line per
criterion.
"""

import json
import time
from functools import lru_cache

import numpy as np

from chevperm.cli import main as cli_main
from chevperm.linrep import composition_series, meataxe_irreducible
from chevperm.permmod import (
    SuiteRunner,
    subset_tag,
    suite_combinatorics,
    suite_fixed_points,
    suite_induction,
    suite_level_steps,
    suite_reflection_cases,
    suite_separation,
    suite_socle,
    suite_structure,
)


@lru_cache(maxsize=None)
def ctx(kind, q, b=2, char=None):
    return SuiteRunner(kind, q, b=b, char=char)


def test_criterion_01_six_composition_factors_dim21():
    start = time.perf_counter()
    lm = ctx("A2", 2).base
    assert lm.dim == 21
    factors = composition_series(lm.handle, seed=0)
    assert len(factors) == 6, factors
    assert sum(factors) == 21, factors
    assert time.perf_counter() - start < 5.0


def test_criterion_02_filtration_counts():
    expected = {("A1", 2): 3, ("A2", 2): 21, ("B2", 2): 45}
    for (kind, q), total in expected.items():
        start = time.perf_counter()
        lm = ctx(kind, q).base
        pieces = lm.filtration()
        assert len(pieces) == 2 ** lm.datum.rank
        assert all(p.dim > 0 for p in pieces.values())
        assert sum(p.dim for p in pieces.values()) == total == lm.dim
        assert time.perf_counter() - start < 10.0, (kind, q)


def test_criterion_03_steinberg_dimension_and_irreducibility():
    start = time.perf_counter()
    for kind, q in (("A1", 2), ("A1", 3), ("A2", 2), ("B2", 2)):
        lm = ctx(kind, q).base
        top = lm.filtration()[frozenset(range(lm.datum.rank))]
        w0 = lm.datum.longest_element(range(lm.datum.rank))
        assert top.dim == q ** w0.length, (kind, q, top.dim)
        verdict = meataxe_irreducible(top.handle, seed=0)
        assert verdict.irreducible, (kind, q, verdict.witness)
    assert time.perf_counter() - start < 30.0


def test_criterion_04_reflection_case_sweep():
    start = time.perf_counter()
    for kind, q in (("A1", 2), ("A1", 3), ("A2", 2)):
        rep = suite_reflection_cases(ctx(kind, q), 0)
        assert rep.ok and rep.failed == 0, (kind, q, rep.failures)
        assert rep.checked > 0
    assert time.perf_counter() - start < 60.0


def test_criterion_05_structure_and_combinatorial_sweeps():
    for kind in ("A1", "A2", "A3", "B2"):
        rep = suite_combinatorics(ctx(kind, 2), 0)
        assert rep.ok and rep.failed == 0, (kind, rep.failures)
    # exhaustive matrix sweeps at small field orders
    for kind, q in (("A1", 9), ("A2", 3), ("A3", 2), ("B2", 2)):
        rep = suite_structure(ctx(kind, q), 0)
        assert rep.ok and rep.failed == 0, (kind, q, rep.failures)
        assert all(w["mode"] == "exhaustive" for w in rep.witnesses), (kind, q)
    # sampled sweeps at field order 16, at least 1000 cases apiece
    rep16 = suite_structure(ctx("B2", 16), 0)
    assert rep16.ok and rep16.failed == 0, rep16.failures
    sampled = [w for w in rep16.witnesses if w["mode"] == "sampled"]
    assert sampled and all(w["checked"] >= 1000 for w in sampled)


def test_criterion_06_two_level_machinery():
    start = time.perf_counter()
    c = ctx("A2", 2, b=2)
    induction = suite_induction(c, 0)
    assert induction.ok and induction.failed == 0, induction.failures
    assert not induction.skipped and induction.checked == 2  # every admissible pair

    separation = suite_separation(c, 0)
    assert separation.ok and separation.failed == 0, separation.failures
    full_runs = {w["J"] for w in separation.witnesses if w["Y"] == "all"}
    assert full_runs == {subset_tag(J) for J in c.ext.datum.all_subsets()}

    steps = suite_level_steps(c, 0)
    assert steps.ok and steps.failed == 0, steps.failures
    assert time.perf_counter() - start < 600.0


def test_criterion_07_socle_suite():
    for kind, q in (("A1", 2), ("A1", 3), ("A2", 2)):
        rep = suite_socle(ctx(kind, q), 0)
        assert rep.ok and rep.failed == 0, (kind, q, rep.failures)
        hits = [w for w in rep.witnesses if "random_hits" in w]
        assert len(hits) == 2 ** ctx(kind, q).base.datum.rank
        assert all(w["random_hits"] == 20 for w in hits), (kind, q, hits)


def test_criterion_08_fixed_points_100_of_100():
    for kind, q in (("A1", 2), ("A1", 3), ("A2", 2)):
        rep = suite_fixed_points(ctx(kind, q), 0)
        assert rep.checked == 100 and rep.failed == 0, (kind, q, rep.failures)


def test_criterion_09_cross_characteristic_count():
    lm = ctx("A1", 2, char=5).base
    factors = composition_series(lm.handle, seed=0)
    assert len(factors) == 2, factors
    assert sum(factors) == 3


def test_criterion_10_byte_identical_reports(tmp_path):
    args = ["run", "--type", "A1", "--q", "3",
            "--suites", "combinatorics,structure,filtration,socle,composition"]
    first, second = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli_main(args + ["--out", str(first)]) == 0
    assert cli_main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert payload["summary"]["ok"] is True

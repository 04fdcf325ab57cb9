"""Flag-coset permutation modules of small finite Chevalley groups.

The package builds k[G/B] for G of type A1-A3 or B2 over a small finite
field, the filtration of k[G/B] by alternating Weyl-translate sums, its
subquotients with their distinguished bases, and runs exact verification
suites over them (structure sweeps, basis checks, socle identification,
composition series).  Everything is exact arithmetic: no floats anywhere.
"""

from .gf import make_field, embedding_table, additive_transversal
from .rootsys import root_datum
from .chevalley import matrix_group, FlagIndex, BudgetError
from .linrep import MeatAxeBudgetError
from .permmod import SuiteRunner, SUITES

__all__ = [
    "make_field",
    "embedding_table",
    "additive_transversal",
    "root_datum",
    "matrix_group",
    "FlagIndex",
    "BudgetError",
    "MeatAxeBudgetError",
    "SuiteRunner",
    "SUITES",
]

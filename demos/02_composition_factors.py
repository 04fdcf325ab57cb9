"""Composition factors of the flag module, defining vs cross characteristic.

Over GF(2) the 21-dimensional SL_3(F_2) flag module has six factors, and
the factor multiset refines along the alternating-sum subquotients.  Far
from the defining prime the same module falls apart after the pattern of
the group-algebra of the Weyl group instead (shown here for SL_2).
"""

from chevperm.linrep import composition_series
from chevperm.permmod import SuiteRunner, subset_tag


def factor_table(kind, q, char=None):
    lm = SuiteRunner(kind, q, char=char).base
    full = composition_series(lm.handle, seed=0)
    print(f"{kind} over GF({q}), coefficients GF({lm.ell}):")
    print(f"   full module dim {lm.dim}: factors {full}")
    merged = []
    for J, piece in lm.filtration().items():
        factors = composition_series(piece.handle, seed=0)
        merged += factors
        print(f"   piece J={subset_tag(J):3s} dim {piece.dim:2d}: factors {factors}")
    assert sorted(merged) == full, "refinement must preserve the multiset"
    print(f"   multisets agree: {sorted(merged)}")
    print()


factor_table("A2", 2)
factor_table("A1", 2)          # defining characteristic: 1 + Steinberg
factor_table("A1", 2, char=5)  # cross characteristic: two factors, like kS_2

"""Socle generators of SL_2(F_3): fixed lines and unique minimal submodules.

For each subset J, summing unipotent-translates over the longest coset of
W_J produces a vector generating a simple submodule whose unipotent-fixed
subspace is exactly one line.  Inside the induced-module model of each
subquotient, the matching candidate lies in every nonzero submodule — the
unique minimal submodule witness.
"""

import numpy as np

from chevperm.linrep import meataxe_irreducible, restrict, spin
from chevperm.permmod import SuiteRunner, subset_tag

lm = SuiteRunner("A1", 3).base
datum = lm.datum
values = lm.values()
u_fixed = lm.unipotent_fixed_space()
print("module dim %d, ambient unipotent-fixed space dim %d" % (lm.dim, u_fixed.dim))

for J in datum.all_subsets():
    fJ = lm.socle_generator(J)
    S = spin(lm.handle, [fJ])
    verdict = meataxe_irreducible(restrict(lm.handle, S), seed=0)
    line = S.intersect(u_fixed)
    print("J=%s: generator support %d, generates dim %d, irreducible=%s, fixed lines=%d"
          % (subset_tag(J), int((fJ != 0).sum()), S.dim, verdict.irreducible, line.dim))
    assert verdict.irreducible and line.dim == 1

rng = np.random.default_rng(1)
full = frozenset(range(datum.rank))
vJ, wJ, _ = datum.w0_factorization(full)
D = lm.parabolic_alternating_sum(full)
phandle = lm.parabolic(frozenset())
EpJ = spin(phandle, [D])
sub = restrict(phandle, EpJ)
cand = EpJ.coords(lm.sign(wJ) * lm.u_sum(wJ * vJ.inverse(), values, D, handle=phandle) % lm.ell)
print()
print("top subquotient model dim %d; candidate socle vector found" % sub.dim)
hits = 0
for _ in range(25):
    x = rng.integers(0, lm.ell, size=sub.dim)
    while not np.any(x):
        x = rng.integers(0, lm.ell, size=sub.dim)
    if spin(sub, [x]).contains(cand):
        hits += 1
print("candidate lies in %d/25 randomly generated submodules" % hits)
assert hits == 25

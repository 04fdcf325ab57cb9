"""Mixed-level operators: GF(2) sitting inside GF(4).

The module is built over the big field; unipotent sums can run over the
embedded small field, the big field, or a mix (the first d factors big,
the rest small).  Transversal sums step the mix one factor at a time, and
spinning any nonzero mixed combination recovers a pure translate.
"""

import numpy as np

from chevperm.permmod import SuiteRunner, subset_tag

runner = SuiteRunner("A2", 2, a=1, b=2)
lm = runner.ext
print("extension-level module: dim %d over GF(%d)" % (lm.dim, lm.field.order))
lo, hi = runner.sub_values(), lm.values()
reps = runner.transversal_reps()
print("embedded subfield values: %s   transversal: %s" % (lo, reps))

datum = lm.datum
J = frozenset({0})
piece = lm.filtration()[J]
eta = lm.alternating_sum(J)
wJ = datum.longest_element(J)
w = datum.y_set(J)[0]
tail = wJ * w.inverse()
t = len(datum.phi_minus(tail))
print("working at J=%s, translate w=e, %d unipotent factor(s)" % (subset_tag(J), t))

weta = lm.act_weyl(w, eta)
for d in range(t):
    lhs = lm.root_sum(datum.phi_minus(tail)[d], reps, lm.theta(tail, d, hi, lo, weta))
    rhs = lm.theta(tail, d + 1, hi, lo, weta)
    same = np.array_equal(piece.project(lhs), piece.project(rhs))
    print("   transversal step d=%d -> d=%d: %s" % (d, d + 1, "exact" if same else "BROKEN"))
    assert same

# a mixed combination spins up to something containing a pure translate
from chevperm.linrep import spin

xi = piece.project(lm.theta(tail, 0, hi, lo, weta))
M = spin(piece.handle, [xi])
pure = piece.project(lm.u_sum(tail, lo, weta))
print("spin of the all-small-level combination: dim %d; contains the pure translate: %s"
      % (M.dim, M.contains(pure)))
assert M.contains(pure)

"""The top subquotient: dimension count and an irreducibility certificate.

For each small group the subquotient attached to the full set of simple
reflections has dimension q^(number of positive roots), and the MeatAxe
confirms it is irreducible in defining characteristic.  Also checks the
signed identity: summing the signed Weyl translates of the full
unipotent-sum image of the generator returns the generator.
"""

import numpy as np

from chevperm.linrep import meataxe_irreducible
from chevperm.permmod import SuiteRunner

for kind, q in (("A1", 2), ("A1", 3), ("A2", 2), ("B2", 2)):
    lm = SuiteRunner(kind, q).base
    datum = lm.datum
    full = frozenset(range(datum.rank))
    piece = lm.filtration()[full]
    w0 = datum.longest_element(range(datum.rank))
    predicted = q ** w0.length
    verdict = meataxe_irreducible(piece.handle, seed=0)
    method = verdict.certificate.get("method")
    print("%s q=%d: top piece dim %d (= q^%d), irreducible=%s via %s"
          % (kind, q, piece.dim, w0.length, verdict.irreducible, method))
    assert piece.dim == predicted and verdict.irreducible

    # the signed unipotent-sum identity on the generator image
    eta = lm.alternating_sum(full)
    base = lm.u_sum(w0, lm.values(), eta)
    acc = np.zeros(lm.dim, dtype=np.int64)
    for w in datum.subgroup_elements(full):
        acc = (acc + lm.sign(w) * lm.act_weyl(w, base)) % lm.ell
    assert np.array_equal(piece.project(acc), piece.C)
    print("   signed translate sum reproduces the generator exactly")

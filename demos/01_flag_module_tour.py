"""A guided tour of the flag-coset module for SL_3 over GF(2).

Builds the 21-point flag variety, shows how the points split into Bruhat
cells, then assembles the alternating Weyl sums and the submodule lattice
they generate, ending with the subquotient dimension table.
"""

from chevperm.permmod import SuiteRunner, subset_tag

lm = SuiteRunner("A2", 2).base
datum = lm.datum

print("group type A2 over GF(%d), coefficients GF(%d)" % (lm.field.order, lm.ell))
print("flag count: %d" % lm.dim)

cells = {}
for w in lm.flags.bruhat_labels():
    cells[w.word] = cells.get(w.word, 0) + 1
print("Bruhat cell sizes (word -> count):")
for word in sorted(cells, key=lambda w: (len(w), w)):
    print("   %-8s %d" % ("".join("s%d" % (i + 1) for i in word) or "e", cells[word]))
assert sum(cells.values()) == lm.dim

print()
print("alternating sums and the lattice they generate:")
pieces = lm.filtration()
for J in datum.all_subsets():
    eta = lm.alternating_sum(J)
    piece = pieces[J]
    print("   J=%-3s |support(eta)|=%-3d submodule dim=%-3d subquotient dim=%d"
          % (subset_tag(J), int((eta != 0).sum()), piece.sub.dim, piece.dim))

total = sum(p.dim for p in pieces.values())
print()
print("subquotient dimensions sum to %d = module dimension" % total)
assert total == lm.dim

"""A two-dimensional (6,14)-regular square complex from the primes 5 and 13.

Every vertex lies on six direction-1 edges, fourteen direction-2 edges, and
eighty-four squares.  Each direction set I and transverse direction j gives
a link graph whose twisted adjacency (star) operator is certified against
the tree bound 2*sqrt(r_j - 1).
"""

import ramcube as rc
from ramcube.complexes import dirs_of

n1, X = rc.find_valid_level([5, 13])
print(f"smallest admissible level: N1 = {n1}")

print(f"regularities: {X.regularities}")
print(f"vertices: {X.n_vertices} "
      f"(group order {X.arith.group.order} x parity cover {X.arith.cover_index})")
for mask, count in sorted(X.unoriented_counts().items()):
    name = ",".join(map(str, dirs_of(mask))) or "vertices"
    print(f"  {name:>8}: {count}")

print(f"\ncube axioms: {'pass' if rc.verify_axioms(X).passed else 'FAIL'}")
print(f"parities:    {'pass' if rc.verify_parities(X)[0] else 'FAIL'}")

print("\nstar spectra per (direction j, cube directions I):")
sp = rc.spectrum_report(X)
for e in sp.entries:
    v = e.verdict
    print(f"  j={e.j} I={e.dirs or '()'}: dim={e.dim:4d}  mu={v.mu:.4f} "
          f"<= {v.bound:.4f}  ramanujan={v.is_ramanujan}")
print(f"overall: {sp.overall_ramanujan}")

print("\nlink connectivity (pure single-direction links split along the")
print("other parity; mixed links are connected):")
for (j, dirs), c in sorted(rc.irreducibility_report(X).items()):
    print(f"  j={j} I={dirs or '()'}: {c} component(s)")

rc.export_dot(X, "square_complex.dot")
print("\n1-skeleton written to square_complex.dot")

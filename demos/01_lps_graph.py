"""Build the classical 6-regular expander on 2184 vertices and certify it.

The vertex set is a projective matrix group modulo 13; the six edges at
each vertex come from the six integer quaternions of norm 5 with odd scalar
part.  The graph is bipartite, and every eigenvalue of the adjacency matrix
other than +-6 lies within the tree bound 2*sqrt(5).
"""

import math

import ramcube as rc

X = rc.build_complex([5], 13)
print(f"vertices: {X.n_vertices}")
print(f"edges:    {X.unoriented_counts()[1]}")
print(f"regular:  {X.regularities[0]}")

report = rc.verify_axioms(X)
print(f"cube axioms: {'pass' if report.passed else report.failures}")

_, top, bot = X.link_edges(1, 0)
n_comp, _ = rc.connected_components(X.n_vertices, top, bot)
print(f"connected components: {n_comp}")

sp = rc.spectrum_report(X)
v = sp.entries[0].verdict
print(f"\nadjacency spectrum: top {sp.entries[0].eigenvalues[:4].round(6)}")
print(f"  +6 multiplicity: {v.trivial_plus} (connectedness)")
print(f"  -6 multiplicity: {v.trivial_minus} (bipartite)")
print(f"  largest nontrivial |eigenvalue|: {v.mu:.6f}")
print(f"  tree bound 2*sqrt(5):            {2 * math.sqrt(5):.6f}")
print(f"  ramanujan: {v.is_ramanujan}   spectral gap: {v.gap:.6f}")

res = rc.girth(X)
print(f"\ngirth: {res.girth} (level bound {res.bound})")

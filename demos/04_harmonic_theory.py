"""Boundary operators, Laplacians, Hodge decomposition, cohomology.

Cochains live on one canonical orientation per cube; the boundary operator
in direction j compares the value across the j-top and j-bottom faces.  In
these coordinates the adjoint is the plain conjugate transpose, the partial
Laplacian is r_j minus the star operator, and a cochain splits into its
harmonic part plus exact and coexact parts.
"""

import numpy as np

import ramcube as rc

X = rc.build_complex([5, 13], 3)
H = rc.Harmonics(X)
print(f"cochain dimensions per level: "
      f"{[H.level_dim(i) for i in range(X.g + 1)]}")

d0, d1 = H.total_d(0), H.total_d(1)
print(f"d composed with d: max entry {abs(d1 @ d0).max():.1e}")

box = H.laplacian(1, 0).toarray()
S = H.star_matrix(1, 0)
print(f"Laplacian identity: max |box - (6 - S)| = "
      f"{np.abs(box - (6 * np.eye(len(S)) - S)).max():.1e}")

eigs = rc.spectrum(box)
print(f"box spectrum within [0, 2r]: min {eigs.min():.2e}, max {eigs.max():.4f}")

ok, info = H.eigenspace_transfer_check(1, 0)
print(f"nonzero spectra transfer across the boundary map: {ok} "
      f"(max mismatch {info['max_mismatch']:.1e} over {info['count']} eigenvalues)")

rng = np.random.default_rng(0)
c = rng.normal(size=H.level_dim(1))
h, pd, pds = H.hodge_project(1, c)
print("\nHodge split of a random 1-cochain:")
print(f"  |harmonic| = {np.linalg.norm(h):.4f}, |exact| = {np.linalg.norm(pd):.4f}, "
      f"|coexact| = {np.linalg.norm(pds):.4f}")
print(f"  reconstruction error: {np.linalg.norm(h + pd + pds - c):.1e}")
print(f"  orthogonality: <h,pd>={abs(np.vdot(h, pd)):.1e} "
      f"<h,pds>={abs(np.vdot(h, pds)):.1e} <pd,pds>={abs(np.vdot(pd, pds)):.1e}")

dims = H.cohomology_dims()
print(f"\ncohomology dimensions: {dims}")
print(f"euler characteristic from cube counts: {H.euler_characteristic()}")
print("harmonic 1-forms vanish: the complex is connected with cohomology")
print("concentrated in degrees 0 and 2")

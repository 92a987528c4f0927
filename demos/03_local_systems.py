"""Metrized local systems: unitary fibers over the complex.

The weight-k system puts the space of degree-k binary forms over every
vertex; an edge acts by its generator quaternion scaled to unit
determinant, times a sign read off from a section between the fine and the
coarse vertex groups.  The sign enters as epsilon^k: invisible for even k,
essential for odd k.
"""

import numpy as np

import ramcube as rc

# --- even weight on a small graph ------------------------------------
X = rc.build_complex([5], 3)
L = rc.build_symm_system(X, 2)
print(f"complex on {X.n_vertices} vertices, fiber dimension {L.fiber_dim}")
print(f"unitarity residual: {rc.verify_unitarity(X, L):.2e}")

sp = rc.spectrum_report(X, L)
v = sp.entries[0].verdict
print(f"weight-2 star spectrum: mu={v.mu:.6f} <= {v.bound:.6f} "
      f"ramanujan={v.is_ramanujan}")

# --- odd weight needs the sign twist ----------------------------------
X = rc.build_complex([5], 11)
print(f"\nodd weight on the level-11 double cover ({X.n_vertices} vertices)")
print(f"admissible: {rc.central_condition_check([5], 11, 1)}")
L = rc.build_symm_system(X, 1)
eps = L.epsilons[0]
print(f"edge signs: {np.sum(eps > 0)} plus, {np.sum(eps < 0)} minus")

e1 = rc.spectrum(rc.Harmonics(X, L).star_matrix(1, 0))
v = rc.classify_ramanujan(e1, 6)
print(f"weight-1 star spectrum: mu={v.mu:.6f} <= {v.bound:.6f} "
      f"ramanujan={v.is_ramanujan}")

# a different section gives different matrices but the same spectrum
flip = np.zeros(X.arith.group.order, dtype=bool)
flip[::2] = True
L2 = rc.build_symm_system(X, 1, perturb_section=flip)
e2 = rc.spectrum(rc.Harmonics(X, L2).star_matrix(1, 0))
print(f"perturbed section: spectra agree to {np.abs(e1 - e2).max():.2e}")

# --- flatness around squares ------------------------------------------
X = rc.build_complex([5, 13], 3)
L = rc.build_symm_system(X, 2)
fl = rc.verify_flatness(X, L)
print(f"\nweight-2 system on the square complex: flatness residual "
      f"{fl.max_residual:.2e} over {fl.n_squares} oriented squares")

# --- external products --------------------------------------------------
A = rc.build_complex([5], 3)
B = rc.build_complex([13], 3)
XP, LP = rc.external_product(A, rc.build_symm_system(A, 2),
                             B, rc.build_symm_system(B, 2))
print(f"\nexternal product: {XP.regularities}-regular complex, "
      f"fiber dimension {LP.fiber_dim}")
print(f"product flatness residual: {rc.verify_flatness(XP, LP).max_residual:.2e}")

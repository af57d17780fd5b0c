"""Tour of the model layer: profiles, lattices, and the smallness report.

The model has three physical inputs (the charge e, the trap frequency nu0,
the profile width xi) and two regulators (box period L, momentum cutoff
Lambda).  Every expansion downstream is licensed by the constraint report
computed here.
"""

import numpy as np

from cplab import (ModelParams, build_lattice, check_constraints,
                   form_factor, lattice_norm, make_gaussian_profile,
                   polarization, profile_norm)

profile = make_gaussian_profile(xi=1.0)
print("Gaussian profile, width 1:")
print(f"  value at the origin        {profile.radial(0.0):.7f}"
      f"   (normalized charge: (2 pi)^-1.5)")
for p in (-1, 0, 1):
    print(f"  continuum norm, p = {p:+d}     {profile_norm(profile, p):.7f}")
print(f"  implied trap scale         "
      f"{profile.trap_frequency_equivalent():.7f}  (informational only)")

print("\nWidth scaling of the norms (p = 0 column should fall like xi^-1.5):")
for xi in (0.5, 1.0, 2.0, 4.0):
    prof = make_gaussian_profile(xi)
    print(f"  xi = {xi:3.1f}: " + "  ".join(
        f"n({p:+d}) = {profile_norm(prof, p):.6f}" for p in (-1, 0, 1)))

print("\nMomentum lattices (count is (2 floor(Lambda L) + 1)^3 - 1):")
for box, cut in ((1.0, 1.0), (2.0, 1.0), (2.0, 2.0)):
    lat = build_lattice(box, cut)
    print(f"  L = {box}, Lambda = {cut}: {lat.count:5d} modes, "
          f"cell weight {lat.cell_weight:.5f}")

lat = build_lattice(2.0, 1.0)
print("\nDiscrete norms approach the continuum ones from below "
      "(origin cell excluded):")
for size in (1.0, 2.0, 4.0, 8.0):
    ladder = build_lattice(size, size)
    print(f"  L = Lambda = {size:3.0f}: n*(0) = "
          f"{lattice_norm(profile, ladder, 0):.6f}  vs  "
          f"{profile_norm(profile, 0):.6f}")

k = np.array([1.0, 1.0, 0.0])
pair = polarization(k)
print(f"\nPolarization pair at k = {k}:")
print(f"  eps1 = {pair.eps1}")
print(f"  eps2 = {pair.eps2}")
mode = (2 * np.pi / lat.box_period) * np.array([1.0, 0.0, 0.0])
print(f"  mode coupling of k = {mode} at x = 0, cosine channel: "
      f"{form_factor(np.zeros(3), mode, 1, lat, profile):.3e}")

params = ModelParams(e=0.5, nu0=2.0)
report = check_constraints(params, profile, lat)
print(f"\nConstraint report for e = {params.e}, nu0 = {params.nu0}:")
print(f"  c_inf = {report.c_inf:.5f}  (needs < 1/2)")
print(f"  a     = {report.a:.3e}  (binding series needs < 1/4)")
print(f"  D_rho = {report.D_rho:.3e},  c_L = {report.c_L:.3e}")
print(f"  all satisfied: {report.all_satisfied}")

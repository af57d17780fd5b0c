"""The central cross-check: zero-point trace formula against the trace series.

The exact ground energy is the zero-point trace
0.5 * (sum sqrt(eig) - sum sqrt(free)) + 1.5 e nu, evaluated without any
eigendecomposition as the imaginary-frequency integral
(1/2 pi) Int_0^inf ds log det(1 - X(s)) of a 3x3 matrix built from per-mode
sums.  The same number has a perturbative expansion whose truncation error
is bounded analytically by a geometric tail.  Two independent routes, one
number.
"""

from cplab import (ModelParams, TraceSeries, assemble_one_electron,
                   build_lattice, check_constraints, ground_energy,
                   make_gaussian_profile, series_one_electron)

params = ModelParams(e=0.5, nu0=3.0)
profile = make_gaussian_profile(0.25)
lattice = build_lattice(1.0, 1.0)

report = check_constraints(params, profile, lattice)
print(f"expansion parameter a = {report.a:.5f} (series converges, a < 1)")

result = ground_energy(assemble_one_electron(params, profile=profile,
                                             lattice=lattice))
print(f"\nexact ground energy     {result.energy:.15f}")
print(f"  trace difference      {result.trace_difference:.3e}")
print(f"  zero-point shift      {result.zero_point_shift:.15f}")
print(f"  smallest eigenvalue   {result.min_eigenvalue:.5f}")

series: TraceSeries = series_one_electron(params, lattice, profile,
                                          max_order=8)
print("\norder-by-order series:")
partial = series.zero_point_shift
for order, term in zip(series.orders, series.contributions):
    partial -= term
    print(f"  order {order}: term {term:.6e}   partial {partial:.15f}")
print(f"series value            {series.value:.15f}")
print(f"analytic tail bound     {series.tail_bound:.3e}")
print(f"|exact - series|        {abs(result.energy - series.value):.3e}"
      f"   (must not exceed the tail)")
assert abs(result.energy - series.value) <= series.tail_bound + 1e-8
print("dual-oracle agreement holds")

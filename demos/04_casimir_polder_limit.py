"""The headline number: R^7 times the fourth-order term tends to
23 / (256 pi^3 nu0^4).

The continuum fourth-order term is evaluated by two independent routes and
swept over a geometric separation ladder; a log-log fit recovers the -7
exponent and the scaled column converges onto the constant.  The crossed
term decays one power faster squared (R^-9) and is the leading correction.
"""

from cplab import (ModelParams, cp_constant, fit_power_law,
                   fourth_order_error, fourth_order_main,
                   make_gaussian_profile, sweep_R)

params = ModelParams(e=0.5, nu0=2.0)
profile = make_gaussian_profile(1.0)
reference = cp_constant(params.nu0)

print(f"limiting constant 23/(256 pi^3 nu0^4) = {reference:.6e}\n")

grid = [30.0, 42.0, 60.0, 84.0, 120.0]
sweep = sweep_R(grid, lambda R: fourth_order_main(R, params, profile).value)
print("      R      main term        R^7-scaled     deviation")
for r, v, s7 in zip(sweep.R, sweep.value, sweep.r7_scaled):
    print(f"  {r:5.0f}   {v:.6e}   {s7:.6e}   {abs(s7-reference)/reference:8.2%}")

fit = fit_power_law((sweep.R, sweep.value))
print(f"\nfitted exponent {fit.exponent:+.4f} (expected -7), "
      f"coefficient {fit.coefficient:.4e}")

both = fourth_order_main(50.0, params, profile)
check = fourth_order_main(50.0, params, profile, route="direct-quadrature")
print(f"\nroute cross-check at R = 50:")
print(f"  exponential decoupling  {both.value:.10e}")
print(f"  continuum mode table    {check.value:.10e}")
print(f"  retarded / remainder split: {both.retarded_part:.3e} "
      f"/ {both.remainder_part:.3e}")

err_sweep = sweep_R(grid,
                    lambda R: fourth_order_error(R, params, profile).value)
err_fit = fit_power_law((err_sweep.R, err_sweep.value))
crossed = 2.0 * fourth_order_error(120.0, params, profile).value
print(f"\ncrossed-term exponent {err_fit.exponent:+.4f} (expected -9)")
print(f"crossed/main at R = 120: {abs(crossed/sweep.value[-1]):.2e}"
      f"  (subdominant)")

"""Binding energy of two coupled dipoles, word by word.

The binding 2E - E(R) expands over products of the two coupling blocks
indexed by words over {1, 2}.  Odd-weight words vanish identically, the
order-4 mixed words carry the leading physics, and everything longer is
squeezed by geometric a-priori bounds.
"""

from cplab import (Geometry, ModelParams, TraceSystem, binding_energy_exact,
                   build_lattice, check_constraints, make_gaussian_profile,
                   mixed_even_words, series_binding, trace_word, word_bound,
                   word_class)

params = ModelParams(e=0.5, nu0=3.0)
profile = make_gaussian_profile(0.25)
lattice = build_lattice(1.0, 1.0)
R = 0.35

report = check_constraints(params, profile, lattice)
print(f"a = {report.a:.5f} < 1/4: binding series tail bound available")

exact = binding_energy_exact(params, lattice, profile, R)
print(f"\nexact binding 2E - E(R) at R = {R}:  {exact:.10e}")

system = TraceSystem(params, lattice, profile, Geometry(R))
print("\nindividual order-4 words:")
for word in mixed_even_words(4):
    print(f"  <{''.join(map(str, word))}>  {trace_word(word, system):+.6e}")
print("  (the alternating words vanish structurally)")

for word in ((1, 2), (2, 1)):
    assert trace_word(word, system) == 0.0
print("order-2 crossed words are exactly zero (odd weight)")

series = series_binding(params, lattice, profile, R, max_order=6)
print(f"\nseries through order 6:  {series.value:.10e}")
print(f"per-order sums: " + ", ".join(f"{c:.3e}" for c in series.contributions))
print(f"tail bound {series.tail_bound:.3e};  "
      f"|exact - series| = {abs(exact - series.value):.3e}")

print("\na-priori multipliers for longer words:")
for word in ((1, 1, 2, 2, 2, 2), (1, 1, 2, 2, 2, 2, 1, 1)):
    print(f"  {''.join(map(str, word))}: class {word_class(word):6s} "
          f"multiplier {word_bound(word, report):.3e}")

reference = trace_word((2, 1, 1, 2), system)
worst = 0.0
for word in mixed_even_words(6):
    if word_class(word) == "case2":
        worst = max(worst, abs(trace_word(word, system))
                    / (report.c_L ** 2 * reference))
print(f"\nmeasured case-2 ratio vs c_L^2 reference: worst {worst:.3f} <= 1")

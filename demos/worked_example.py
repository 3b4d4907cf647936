"""Walk the curve y^2 + y = x^3 - x^2 - 7820x - 263580 through the whole
pipeline at p = 5, over Q and then over Q(mu_5).

Run: python3 demos/worked_example.py
"""

from fineselmer import (
    WeierstrassModel,
    compute_lambda_bound,
    compute_place_sets,
    delta_v,
    finite_level_place_count,
    g_v,
    is_regular,
    tate_reduction,
)
from fineselmer.cli import JobSpec, render_text

E = WeierstrassModel(0, -1, 1, -7820, -263580)
p = 5

print("curve:", E.a_invariants, " j =", E.j_invariant)
print("discriminant:", E.discriminant)
print()

# Step 1: where does the curve degenerate, and how badly?
red = tate_reduction(E, 11)
print(f"at 11: Kodaira {red.kodaira}, {red.category}, "
      f"split={red.split}, v(Delta_min)={red.v_disc}")
print(f"at {p}:", tate_reduction(E, p).category, "reduction")
print()

# Step 2: sort the places into S, S_0 and S_p. The bad prime 11 is 1 mod 5,
# so mu_5 lives in Q_11 and 11 enters S_0.
places = compute_place_sets(E, p, "Q")
print("bad places:", [(r.residue_char, "S0" if r.in_S0 else "S")
                      for r in places.bad_places])
print(f"good reduction at the place above {p}:", places.good_above_p)
print()

# Step 3: how many places of the tower sit over 11? The closed form counts
# them from v_5(11^4 - 1); the finite-level count confirms it stabilizes.
g = g_v(11, p, "Q")
levels = [str(finite_level_place_count(11, p, n)) for n in range(7)]
print(f"g_11 = {g}   (levels 0..6: {' '.join(levels)})")
print()

# Step 4: the local defect at p. For this curve the 5-division polynomial
# has no 5-adic roots at all, so E(Q_5)[5] = 0 exactly.
d = delta_v(E, p, "Q")
print(f"delta_{p} = {d.value} ({d.provenance}, via {d.method})")
print(f"{p} regular?", is_regular(p))
print()

# Step 5: assemble. Global head terms need the image classification; here
# one stable line survives, so the unconditional route stays closed and
# the bound is conditional on the stated hypotheses.
report = compute_lambda_bound(E, p, "Q")
print("places of S:", [(t.label, t.role) for t in report.terms])
print(render_text(report, JobSpec(E.a_invariants, p)))
print()

# Step 6: same curve, base field Q(mu_5). 11 = 1 mod 5 splits into four
# places, each contributing separately; the report says so with numbers.
# compute_place_sets keeps them as one record, and the report's terms
# list them one by one.
(rec,) = compute_place_sets(E, p, "Q(mu_p)").bad_places
print(f"above {rec.residue_char}: {rec.count} places of residue degree "
      f"{rec.residue_degree}")
report_k = compute_lambda_bound(E, p, "Q(mu_p)")
print("places of S:", [(t.label, t.role) for t in report_k.terms])
print(render_text(report_k, JobSpec(E.a_invariants, p, field="Q(mu_p)")))
